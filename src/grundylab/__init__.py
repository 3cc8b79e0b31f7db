"""Grundy values of coin-turning games on finite partially ordered sets."""

__version__ = "0.1.0"

from .closedforms import (
    RulerMexReport,
    SubspaceRecurrenceState,
    asm_ideal_grundy,
    chain_ruler_grundy,
    divisor_ruler_grundy,
    graded_order_ideal_grundy,
    order_ideal_parity,
    ruler_mex_characterization,
    subspace_recurrence,
    subspace_ruler_grundy,
    suffix_nim_sum,
    suffix_nim_sum_set,
)
from .errors import (
    BudgetExceededError,
    GrundylabError,
    TooLargeError,
)
from .families import (
    antichain,
    asm_contains,
    asm_cover_candidates,
    asm_elements,
    asm_eta,
    asm_leq,
    asm_pi,
    asm_poset,
    asm_rank,
    asm_xi,
    chain,
    divisor_poset,
    q_binomial,
    q_binomial_parity,
    restricted_growth_strings,
    rgs_to_blocks,
    set_partition_poset,
    subspace_dimensions,
    subspace_lattice,
)
from .games import (
    GenericGame,
    GrundyTable,
    TurningFamily,
    brute_force_grundy,
    combined,
    game_lengths,
    grundy_position,
    grundy_respects_isomorphism,
    moves,
    order_ideal_family,
    potential,
    product_family,
    product_grundy_prediction,
    ruler_family,
    solve_elementwise,
    turning_turtles,
)
from .gf import FiniteField, field, prime_power, rref_matrices, subspace_leq
from .nimber import (
    mex,
    nim_add,
    nim_add_inductive,
    nim_mul,
    nim_mul_inductive,
    nim_product,
    nim_sum,
    nu2,
    ruler_phi,
)
from .partitions import (
    decompositions,
    g_of_type,
    h_sequence,
    multiplicities,
    multiplicity_M,
    partitions_of,
    refinement_poset,
    refines,
    s_of_mu,
    type_of,
)
from .poset import FinitePoset, iter_bits
