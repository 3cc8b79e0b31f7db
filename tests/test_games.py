import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grundylab import checks, games
from grundylab.errors import TooLargeError
from grundylab.families import (
    asm_poset,
    chain,
    divisor_poset,
    set_partition_poset,
    subspace_lattice,
)
from grundylab.games import (
    MAX_BRUTE_FORCE_FLIPS,
    GenericGame,
    GrundyTable,
    _mex_over_planes,
    brute_force_grundy,
    grundy_position,
    order_ideal_family,
    ruler_family,
    solve_elementwise,
    turning_turtles,
)
from grundylab.nimber import mex, nim_mul, ruler_phi
from grundylab.poset import FinitePoset, iter_bits
from helpers import (
    asm_xi,
    assert_grundy_respects_isomorphism,
    bucket_family,
    caller_ids,
    from_masks,
    moves,
    peak_rss_mb,
    product,
    run_python,
    set_bit_grundy,
)


def ft_families():
    """Each family of the brute-force suite that `verify` plays, built."""
    builders = games.family_builders()
    for _, build, names in checks.BRUTE_FORCE_SUITE:
        poset = build()
        for name in names:
            yield builders[name](poset)


def test_family_counts():
    c2 = chain(2)
    assert sorted(ruler_family(c2).masks) == [0b01, 0b10, 0b11]
    for p in (chain(5), divisor_poset(12)):
        assert len(order_ideal_family(p)) == p.n
    for n in range(1, 7):
        assert len(turning_turtles(chain(n))) == n * (n + 1) // 2


def product_family(p1, f1, p2, f2):
    """The product poset and the family {T1 x T2} on it.

    T1 x T2 has maximum (max T1, max T2), so the bucket of element
    a * n2 + b is made from bucket a of f1 and bucket b of f2.  By the
    product rule, the value of (x1, x2) is the nim-product of the component
    values."""
    prod = product(p1, p2)
    n2 = p2.n

    def bucket(y):
        a, b = divmod(y, n2)
        bucket2 = f2.bucket(b)
        out = []
        for m1 in f1.bucket(a):
            shifts = [x * n2 for x in iter_bits(m1)]
            out.extend(sum(m2 << s for s in shifts) for m2 in bucket2)
        return out

    return prod, bucket_family(prod, bucket)


def game_lengths(game):
    """Maximum play length from each position, folded in ascending id.

    Lengths start at -1 and, as in `brute_force_grundy`, an option read
    before it is folded, one that is not a lower id, raises ValueError."""
    lengths = [-1] * game.n_positions
    for p, flips in enumerate(game.flips):
        below = [lengths[p ^ f] for f in flips]
        if -1 in below:
            raise ValueError(f"position {p} has an option that is not a lower id")
        lengths[p] = max(below, default=-1) + 1
    return lengths


def sorted_buckets(fam):
    return [sorted(fam.bucket(y)) for y in range(fam.poset.n)]


def test_check_sharp():
    d12 = divisor_poset(12)
    for build in games.family_builders().values():
        fam = build(d12)
        assert sorted_buckets(fam) == sorted_buckets(from_masks(d12, fam.masks))
    # {4, 6} is an antichain in the divisors of 12
    four, six = d12.labels.index(4), d12.labels.index(6)
    with pytest.raises(ValueError, match="turning set 0"):
        from_masks(d12, [(1 << four) | (1 << six)])


def test_product_family_satisfies_sharp():
    p1, p2 = chain(3), chain(2)
    prod, fam = product_family(p1, ruler_family(p1), p2, ruler_family(p2))
    assert sorted_buckets(fam) == sorted_buckets(from_masks(prod, fam.masks))


@st.composite
def cover_dags(draw, max_n=10):
    """Random posets of at most max_n elements: the closure of a random
    acyclic edge set on shuffled ids, which `from_covers` renumbers along
    a linear extension.  Some draws add redundant edges (pairs already
    related through the closure), so a kept predecessor need not be a
    cover."""
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(range(n)))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(perm[i], perm[j]) for i, j in edges]
    p = FinitePoset.from_covers(n, edges)
    inv = caller_ids(p)
    redundant = [(inv[i], inv[j]) for j in range(n) for i in iter_bits(p.down_mask(j)) if i != j]
    if redundant and draw(st.booleans()):
        extra = draw(st.lists(st.sampled_from(redundant), unique=True, max_size=6))
        p = FinitePoset.from_covers(n, edges + extra)
    return p


@settings(max_examples=100, deadline=None)
@given(cover_dags())
def test_cover_dags_are_numbered_along_a_linear_extension(p):
    # down(y) lies within bits 0..y
    assert all(p.down_mask(y) >> y == 1 for y in range(p.n))


@st.composite
def random_families(draw):
    """tt, ideal and ruler on a random poset p, a family of random sets on p
    (each with a random maximum) and a product family of two built-in
    families on p x q."""
    p, q = draw(cover_dags()), draw(cover_dags(max_n=4))
    builders = games.family_builders()
    fams = [build(p) for build in builders.values()]
    masks = []
    for y in draw(st.lists(st.integers(0, p.n - 1), max_size=3 * p.n)):
        masks.append((draw(st.integers(0, p.down_mask(y))) & p.down_mask(y)) | 1 << y)
    fams.append(from_masks(p, masks))
    names = st.sampled_from(sorted(builders))
    fams.append(product_family(p, builders[draw(names)](p), q, builders[draw(names)](q))[1])
    return fams


@settings(max_examples=60, deadline=None)
@given(random_families())
def test_builtin_buckets_match_from_masks(fams):
    # the same sets under the bucket-parity rule: each built-in family's
    # own option-plane rule, the ideal's one parity per plane included,
    # must give the values that rule gives
    for fam in fams:
        ref = from_masks(fam.poset, fam.masks)
        assert sorted_buckets(fam) == sorted_buckets(ref)
        assert solve_elementwise(fam).values == solve_elementwise(ref).values


def member_loop_solve(fam):
    """The literal recursion, the oracle for the option-plane kernel: mex
    over the sets with maximum x of the nim-sum of their other members'
    values, summed member by member."""
    p = fam.poset
    g = [0] * p.n
    for x in range(p.n):
        opts = []
        for m in fam.bucket(x):
            s = 0
            for t in iter_bits(m & ~(1 << x)):
                s ^= g[t]
            opts.append(s)
        g[x] = mex(opts)
    return g


def bit_plane_solve(fam):
    """The solver's earlier kernel, kept as an oracle: every set of the
    bucket is summed plane by plane, bit b of its nim-sum being the parity
    of its members in `planes[b]`, and the mex is taken over those sums."""
    p = fam.poset
    g = [0] * p.n
    planes = []
    for x in range(p.n):
        bucket = fam.bucket(x)
        sums = [0] * len(bucket)
        bit = 1
        for plane in planes:
            sums = [s ^ bit if (m & plane).bit_count() & 1 else s for s, m in zip(sums, bucket)]
            bit <<= 1
        v = g[x] = mex(sums)
        planes.extend([0] * (v.bit_length() - len(planes)))
        for b in iter_bits(v):
            planes[b] |= 1 << x
    return g


@settings(max_examples=60, deadline=None)
@given(random_families())
def test_bit_plane_solver_matches_member_loop(fams):
    for fam in fams:
        assert solve_elementwise(fam).values == member_loop_solve(fam)


@settings(max_examples=100, deadline=None)
@given(random_families())
def test_option_plane_kernel_matches_the_bit_plane_oracle(fams):
    for fam in fams:
        assert solve_elementwise(fam).values == bit_plane_solve(fam)


@st.composite
def values_below_a_power_of_two(draw):
    k = draw(st.integers(0, 5))
    return k, draw(st.lists(st.integers(0, (1 << k) - 1), max_size=40))


@settings(max_examples=200, deadline=None)
@given(values_below_a_power_of_two())
def test_mex_over_planes_is_the_mex(case):
    # option i takes values[i]; every value is below 2^k, so k planes hold them
    k, values = case
    V = [sum((v >> b & 1) << i for i, v in enumerate(values)) for b in range(k)]
    assert _mex_over_planes(V, (1 << len(values)) - 1) == mex(values)


def test_chain_turning_turtles_fill_every_plane():
    # on a chain, g(x) = x + 1 under tt, so the options of the element with
    # value 2^k take every value below 2^k: the mex walk finds no empty
    # branch and answers 2^len(V)
    for n in (1, 4, 8, 33):
        fam = turning_turtles(chain(n))
        assert solve_elementwise(fam).values == list(range(1, n + 1)) == bit_plane_solve(fam)


def test_bit_plane_solver_matches_member_loop_on_wide_values():
    # values of 64 and more: seven or more bit planes are live at once
    rng = random.Random(7)
    covers = [(i, j) for j in range(1, 300) for i in rng.sample(range(max(0, j - 5), j), min(j, 2))]
    for p in (chain(130), FinitePoset.from_covers(300, covers)):
        ruler = ruler_family(p)
        values = solve_elementwise(ruler).values
        assert max(values) >= 64
        assert values == member_loop_solve(ruler) == bit_plane_solve(ruler)
        tt = turning_turtles(p)
        assert solve_elementwise(tt).values == member_loop_solve(tt) == bit_plane_solve(tt)


def test_ruler_kernel_matches_the_bit_plane_oracle_on_wide_masks():
    # the ruler's option planes walk each down-set from its top bit, on
    # posets that from_covers renumbers: Pi_6 and asm:10, listed against
    # their order, and a chain whose caller's ids run top-down
    top_down_chain = FinitePoset.from_covers(40, [(i + 1, i) for i in range(39)])
    for p in (set_partition_poset(6), asm_poset(10), top_down_chain):
        ruler = ruler_family(p)
        assert solve_elementwise(ruler).values == bit_plane_solve(ruler)
    values = solve_elementwise(ruler_family(top_down_chain)).values
    assert [values[x] for x in top_down_chain.ids] == [ruler_phi(40 - i) for i in range(40)]


def test_from_masks_rejects_sets_without_a_maximum():
    c2 = chain(2)
    for bad in (0, 0b100):
        with pytest.raises(ValueError, match="turning set 1"):
            from_masks(c2, [0b11, bad])


def test_from_masks_refuses_a_negative_mask():
    # a negative int has endless set bits, so walking them never ends; the
    # child process and its timeout keep such a hang from stalling the suite
    script = (
        "from grundylab.families import chain\n"
        "from helpers import from_masks\n"
        "from_masks(chain(3), [0b1, -1])\n"
    )
    proc = run_python("-c", script, code=1, timeout=10)
    assert "ValueError: turning set 1 (-0b1) has no unique maximum" in proc.stderr


def longest_chain_heights(p):
    """The number of elements in a longest chain that ends at each element:
    1 at a minimal element, else 1 + the largest height among the kept
    predecessors, which include every cover."""
    heights = [0] * p.n
    for y in range(p.n):  # ids are a linear extension
        heights[y] = 1 + max((heights[x] for x in p.preds[y]), default=0)
    return heights


TT_HEIGHT_POSETS = {
    "asm30": lambda: asm_poset(30),
    "setpartitions7": lambda: set_partition_poset(7),
    "divisors720": lambda: divisor_poset(720),
    "subspaces4q3": lambda: subspace_lattice(4, 3),
    "asm12": lambda: asm_poset(12),
    "chain9": lambda: chain(9),
}


@pytest.mark.parametrize("name", list(TT_HEIGHT_POSETS))
def test_turning_turtles_value_is_the_longest_chain(name):
    # g(y) = mex({0} and every g(x), x < y) is by induction the height of y
    poset = TT_HEIGHT_POSETS[name]()
    assert solve_elementwise(turning_turtles(poset)).values == longest_chain_heights(poset)


@settings(max_examples=100, deadline=None)
@given(cover_dags())
def test_turning_turtles_value_is_the_longest_chain_on_random_posets(p):
    assert solve_elementwise(turning_turtles(p)).values == longest_chain_heights(p)


def test_moves():
    c2 = chain(2)
    fam = ruler_family(c2)
    # flipping from {top}: the two intervals with maximum 2 lead to {1} and {}
    assert sorted(moves(fam, 0b10)) == [0b00, 0b01]
    # position inside the non-maxima zone is ending
    ideal = from_masks(c2, [0b11])  # single turning set, maximum 2
    assert moves(ideal, 0b01) == []
    assert moves(ruler_family(chain(4)), 0) == []


def test_symmetric_difference_involution():
    fam = ruler_family(divisor_poset(12))
    for pos in range(0, 64, 7):
        for mask in fam.masks:
            assert (pos ^ mask) ^ mask == pos


def test_ending_positions_avoid_maxima():
    for fam in ft_families():
        n = fam.poset.n
        heads = sum(1 << y for y in range(n) if fam.bucket(y))
        for pos in range(1 << n):
            assert (moves(fam, pos) == []) == (pos & heads == 0)


def test_potential_strictly_decreases():
    # ids are a linear extension, so the potential of a position, the sum
    # of 2^x over its elements, is its mask: every move lowers it
    for fam in ft_families():
        for pos in range(1 << fam.poset.n):
            assert all(opt < pos for opt in moves(fam, pos))


def test_solve_elementwise_chain_examples():
    assert solve_elementwise(ruler_family(chain(1))).values == [1]
    t = solve_elementwise(ruler_family(chain(20)))
    assert t.values == [ruler_phi(x) for x in range(1, 21)]
    ti = solve_elementwise(order_ideal_family(chain(6)))
    assert ti.values == [1, 0, 0, 0, 0, 0]


def test_grundy_position():
    t = solve_elementwise(ruler_family(chain(3)))
    assert grundy_position(t, 0) == 0
    for x in range(3):
        assert grundy_position(t, 1 << x) == t.values[x]
    assert grundy_position(t, 0b111) == 1 ^ 2 ^ 1 == 2


def assert_matches_the_set_bit_loop(table, positions):
    for pos in positions:
        assert grundy_position(table, pos) == set_bit_grundy(table.values, pos), pos


def outside_the_board(n):
    """Positions with a bit at or above n: in the last byte when n is not a
    multiple of 8, in the next byte, far above, and a negative one."""
    return [1 << n, (1 << n) | 1, 1 << (n + 8), 1 << (n + 100), -1, -(1 << n)]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
def test_grundy_position_matches_the_set_bit_loop(n):
    # random values up to 2^16, so no byte list can pass by a coincidence
    # of small values; the byte lists cover the board only once the
    # largest position is asked
    rng = random.Random(f"grundy-position:{n}")
    table = GrundyTable([rng.randrange(1, 1 << 16) for _ in range(n)])
    full = (1 << n) - 1
    positions = [0, full] + [1 << x for x in range(n)] + [rng.getrandbits(n) for _ in range(400)]
    assert_matches_the_set_bit_loop(table, positions)
    assert len(table.byte_sums) == (n + 7) // 8
    assert [len(sums) for sums in table.byte_sums] == [1 << min(8, n - 8 * k) for k in range((n + 7) // 8)]


def test_grundy_position_matches_the_set_bit_loop_on_asm20_ruler(asm=20, seed="grundy-position:asm20", wide=100):
    table = solve_elementwise(ruler_family(asm_poset(asm)))
    assert table.byte_sums == []  # the solver builds no byte list
    n = len(table.values)
    rng = random.Random(seed)
    positions = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(wide)]
    positions += [rng.getrandbits(rng.randrange(1, n)) for _ in range(100)]
    assert_matches_the_set_bit_loop(table, positions)


@pytest.mark.deep
def test_grundy_position_matches_the_set_bit_loop_on_asm40_ruler():
    # asm:40 has 10 660 elements, so its full board reads 1 333 byte lists
    test_grundy_position_matches_the_set_bit_loop_on_asm20_ruler(40, "asm40", 200)


def test_many_queries_on_one_table_grow_its_byte_lists_as_they_reach_them():
    rng = random.Random("grundy-position:growth")
    table = GrundyTable([rng.randrange(1 << 10) for _ in range(30)])
    assert_matches_the_set_bit_loop(table, [0])
    assert table.byte_sums == []
    # a query reaches the bytes up to its highest set bit, no further
    for top, built in ((5, 1), (3, 1), (12, 2), (29, 4), (20, 4)):
        assert_matches_the_set_bit_loop(table, [1 << top | rng.getrandbits(top) for _ in range(50)])
        assert len(table.byte_sums) == built
    lists = [id(sums) for sums in table.byte_sums]
    assert_matches_the_set_bit_loop(table, [rng.getrandbits(30) for _ in range(500)])
    assert [id(sums) for sums in table.byte_sums] == lists


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
def test_grundy_position_refuses_a_bit_outside_the_board(n):
    table = GrundyTable(list(range(1, n + 1)))
    for pos in outside_the_board(n):
        with pytest.raises(IndexError):
            set_bit_grundy(table.values, pos)
        with pytest.raises(IndexError):
            grundy_position(table, pos)
    # refused before any byte list is made, and again once all are made
    assert table.byte_sums == []
    assert grundy_position(table, (1 << n) - 1) == set_bit_grundy(table.values, (1 << n) - 1)
    for pos in outside_the_board(n):
        with pytest.raises(IndexError):
            grundy_position(table, pos)
    assert len(table.byte_sums) == (n + 7) // 8


def test_brute_force_matches_elementwise_everywhere():
    for fam in ft_families():
        table = solve_elementwise(fam)
        game = GenericGame.from_turning_family(fam)
        for pos in range(1 << fam.poset.n):
            assert brute_force_grundy(game, pos) == grundy_position(table, pos)


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_driver_finds_no_mismatch(seed):
    # the benchmark's sweep on seeded random posets of 12-14 elements, each
    # family and the nimber oracles, from a fresh interpreter as it is run
    proc = run_python("benchmarks/oracle_driver.py", "--seed", str(seed))
    assert proc.stdout.splitlines()[-1] == "OK: 0 mismatch(es)"


@settings(max_examples=60, deadline=None)
@given(random_families())
def test_option_graph_lists_the_moves_of_every_position(fams):
    # cover_dags shuffles the caller's ids, which from_covers renumbers;
    # the random-set family covers sets outside the built-ins
    for fam in fams:
        n = fam.poset.n
        if n > 12:
            continue
        game = GenericGame.from_turning_family(fam)
        assert game.n_positions == 1 << n
        # the same buckets, each made once, for the literal move rule to read
        stored = bucket_family(fam.poset, [fam.bucket(y) for y in range(n)].__getitem__)
        for pos in range(game.n_positions):
            assert tuple(pos ^ f for f in game.flips[pos]) == tuple(moves(stored, pos))


def test_option_graph_on_ids_that_are_not_a_linear_extension():
    # 2 < 0 < 1 in the caller's ids: renumbered, the caller's 2, 0, 1 are
    # 0, 1, 2, and the ruler set [2, 0] is the set 0b011 with maximum 1
    p = FinitePoset.from_covers(3, [(2, 0), (0, 1)])
    assert p.ids == [1, 2, 0]
    fam = ruler_family(p)
    game = GenericGame.from_turning_family(fam)
    assert game.flips[0b010] == (0b011, 0b010)
    table = solve_elementwise(fam)
    for pos in range(8):
        assert tuple(pos ^ f for f in game.flips[pos]) == tuple(moves(fam, pos))
    for pos in reversed(range(8)):
        assert brute_force_grundy(game, pos) == grundy_position(table, pos)


def test_brute_force_basics():
    fam = ruler_family(chain(3))
    game = GenericGame.from_turning_family(fam)
    assert brute_force_grundy(game, 0) == 0
    assert game.flips[0] == ()
    # 2^21 positions are over MAX_BRUTE_FORCE_POSITIONS = 2^20: refused
    # before any position is built
    with pytest.raises(TooLargeError):
        GenericGame.from_turning_family(ruler_family(chain(21)))


def test_brute_force_refuses_over_the_flip_cap():
    # chain:20 has 2^20 positions, within the position cap, but its 210
    # intervals make 210 * 2^19 = 110 100 480 flip entries, about 880 MB
    # of tuple slots: refused from the bucket sizes, before any list
    assert 210 << 19 > MAX_BRUTE_FORCE_FLIPS
    with pytest.raises(TooLargeError, match="110100480 flip entries exceed cap"):
        GenericGame.from_turning_family(ruler_family(chain(20)))
    # chain:16, the largest sweep the deep cases run, fits
    assert 136 << 15 <= MAX_BRUTE_FORCE_FLIPS


def relabelled_chain(n):
    """A chain whose caller's ids run against its order: id i is the
    (i * 3 % n)-th smallest element (n not a multiple of 3), so
    `from_covers` renumbers it."""
    rank = [i * 3 % n for i in range(n)]
    at = {r: i for i, r in enumerate(rank)}
    return FinitePoset.from_covers(n, [(at[r], at[r + 1]) for r in range(n - 1)])


@pytest.mark.parametrize("poset", [set_partition_poset(4), relabelled_chain(11)], ids=["Pi4", "chain11"])
def test_flips_and_order_on_ids_against_the_linear_extension(poset):
    n = poset.n
    assert poset.ids != list(range(n))
    fam = ruler_family(poset)
    game = GenericGame.from_turning_family(fam)
    # the same buckets, each made once, for the literal move rule to read
    stored = bucket_family(poset, [fam.bucket(y) for y in range(n)].__getitem__)
    for pos in range(1 << n):
        assert tuple(pos ^ f for f in game.flips[pos]) == tuple(moves(stored, pos))
    # the sweep runs in ascending id: every option is a lower id
    assert all(pos ^ f < pos for pos in range(1 << n) for f in game.flips[pos])
    table = solve_elementwise(fam)
    for pos in range(1 << n):
        assert brute_force_grundy(game, pos) == grundy_position(table, pos)


def test_an_order_that_lists_a_position_before_its_option_raises():
    # the sweep runs in ascending id: position 0's option is 1, which the
    # sweep values later
    with pytest.raises(ValueError):
        brute_force_grundy(GenericGame(flips=[(1,), ()]), 1)
    # position 1 reads its option 0 first, then its option 3
    game = GenericGame(flips=[(), (1, 2), (), ()])
    with pytest.raises(ValueError):
        brute_force_grundy(game, 0)
    assert game.values is None
    # a turning-family game with every position renamed to its complement:
    # a flip is unchanged by the renaming, so every option is a higher id
    game = GenericGame.from_turning_family(ruler_family(relabelled_chain(5)))
    full = game.n_positions - 1
    upward = GenericGame([game.flips[pos ^ full] for pos in range(game.n_positions)])
    with pytest.raises(ValueError):
        brute_force_grundy(upward, 0)
    with pytest.raises(ValueError):
        game_lengths(upward)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_brute_force_sweep_stores_one_flip_tuple_per_position(n=14, mb=35):
    # every position of chain:14 ruler: 2^14 positions and 860 160 flip
    # entries.  Option ids in fresh tuples beside them lift the peak RSS of
    # this run from about 22 MB to about 48 MB
    sweep = (
        "from grundylab.families import chain\n"
        "from grundylab import games\n"
        f"fam = games.ruler_family(chain({n}))\n"
        "table = games.solve_elementwise(fam)\n"
        "game = games.GenericGame.from_turning_family(fam)\n"
        "for pos in range(game.n_positions):\n"
        "    assert games.brute_force_grundy(game, pos) == games.grundy_position(table, pos)\n"
    )
    assert peak_rss_mb("-c", sweep)[0] < mb


@pytest.mark.deep
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_brute_force_sweep_stores_one_flip_tuple_per_position_on_chain16():
    # past the oracle driver's 2^14 positions: 2^16 and 4 456 448 flip
    # entries.  A tuple of option ids per position beside the flips took
    # about 192 MB
    test_brute_force_sweep_stores_one_flip_tuple_per_position(16, 100)


def test_brute_force_detects_cycles():
    # 0 and 1 are each other's option
    cyclic = GenericGame(flips=[(1,), (1,)])
    with pytest.raises(ValueError):
        brute_force_grundy(cyclic, 0)
    # 0 is its own option
    with pytest.raises(ValueError):
        brute_force_grundy(GenericGame(flips=[(0,)]), 0)
    # 1's options are 0 and itself
    with pytest.raises(ValueError):
        brute_force_grundy(GenericGame(flips=[(), (0, 1)]), 0)
    with pytest.raises(ValueError):
        game_lengths(GenericGame(flips=[(), (0, 1)]))
    # 1's options are 0 and then itself, so the mask of values seen is
    # already nonzero when the unvalued entry joins it
    game = GenericGame(flips=[(), (1, 0)])
    with pytest.raises(ValueError):
        brute_force_grundy(game, 0)
    assert game.values is None


def test_potential_line_fails_on_a_set_whose_maximum_is_above_its_bucket(monkeypatch):
    # bucket(y) holds {y, y + 1}, so a move at a position with y but not
    # y + 1 raises its mask.  The brute-force line would refuse that game
    # first, so both of its sides are stubbed out
    def upward(poset):
        return bucket_family(poset, lambda y: [3 << y] if y + 1 < poset.n else [1 << y])

    monkeypatch.setattr(checks, "BRUTE_FORCE_SUITE", (("chain3", lambda: chain(3), ("up",)),))
    monkeypatch.setattr(games, "family_builders", lambda: {"up": upward})
    monkeypatch.setattr(games, "brute_force_grundy", lambda game, pos: 0)
    monkeypatch.setattr(games, "grundy_position", lambda table, pos: 0)
    lines = list(checks.brute_force_checks())
    assert [(name.split(" on ")[0], ok) for name, ok, _ in lines] == [
        ("elementwise solution equals brute force", True),
        ("potential strictly decreases", False),
    ]


def test_a_cycle_the_position_cannot_reach_still_raises():
    # position 0 ends the game, but 1 and 2 are each other's option: the
    # first call values every position, so the cycle is found
    game = GenericGame(flips=[(), (3,), (3,)])
    with pytest.raises(ValueError):
        brute_force_grundy(game, 0)
    with pytest.raises(ValueError):
        game_lengths(game)


@st.composite
def acyclic_games(draw, max_n=9):
    """Random acyclic games: each position's options are lower ids, with
    repeats."""
    n = draw(st.integers(1, max_n))
    flips = []
    for p in range(n):
        opts = draw(st.lists(st.integers(0, p - 1), max_size=4)) if p else []
        flips.append(tuple(p ^ o for o in opts))
    return GenericGame(flips=flips)


@settings(max_examples=100, deadline=None)
@given(acyclic_games(), st.randoms(use_true_random=False))
def test_sweep_matches_the_literal_recursions(game, rnd):
    options = [[p ^ f for f in flips] for p, flips in enumerate(game.flips)]

    def grundy(p):
        return mex(grundy(o) for o in options[p])

    def length(p):
        return max((length(o) + 1 for o in options[p]), default=0)

    asked = list(range(game.n_positions))
    rnd.shuffle(asked)
    assert [brute_force_grundy(game, p) for p in asked] == [grundy(p) for p in asked]
    assert game_lengths(game) == [length(p) for p in range(game.n_positions)]


def _ruler_sum_of_chain3_and_chain4():
    # chain:3 on ids 0..2 and chain:4 on 3..6: (p1, p2) is p1 | p2 << 3
    g1 = GenericGame.from_turning_family(ruler_family(chain(3)))
    g2 = GenericGame.from_turning_family(ruler_family(chain(4)))
    union = FinitePoset.from_covers(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    return g1, g2, GenericGame.from_turning_family(ruler_family(union))


def test_option_graphs_acyclic_and_lengths_add():
    g1, g2, both = _ruler_sum_of_chain3_and_chain4()
    l1, l2 = game_lengths(g1), game_lengths(g2)
    lb = game_lengths(both)
    for p1 in range(g1.n_positions):
        for p2 in range(g2.n_positions):
            assert lb[p1 | p2 << 3] == l1[p1] + l2[p2]


def test_combined_game_values_are_nim_sums():
    g1, g2, both = _ruler_sum_of_chain3_and_chain4()
    endings = {p for p, flips in enumerate(both.flips) if not flips}
    expected_endings = {
        p1 | p2 << 3
        for p1, f1 in enumerate(g1.flips) if not f1
        for p2, f2 in enumerate(g2.flips) if not f2
    }
    assert endings == expected_endings
    for p1 in range(g1.n_positions):
        for p2 in range(g2.n_positions):
            lhs = brute_force_grundy(both, p1 | p2 << 3)
            assert lhs == brute_force_grundy(g1, p1) ^ brute_force_grundy(g2, p2)


@pytest.mark.parametrize("family", ["tt", "ideal", "ruler"])
def test_sum_is_the_game_on_the_union_board(family):
    # divisors:12 on ids 0..5 and chain:3 on 6..8: every edge runs upward,
    # so from_covers keeps the ids and (p1, p2) is the position p1 | p2 << 6
    build = games.family_builders()[family]
    d12, c3 = divisor_poset(12), chain(3)
    covers = [(x, y) for y, preds in enumerate(d12.preds) for x in preds] + [(6, 7), (7, 8)]
    union = FinitePoset.from_covers(9, covers)
    assert union.labels == list(range(9))
    g1, g2, both = (GenericGame.from_turning_family(build(p)) for p in (d12, c3, union))
    l1, l2, lb = game_lengths(g1), game_lengths(g2), game_lengths(both)
    for p1 in range(g1.n_positions):
        for p2 in range(g2.n_positions):
            pos = p1 | p2 << 6
            assert brute_force_grundy(both, pos) == brute_force_grundy(g1, p1) ^ brute_force_grundy(g2, p2)
            assert lb[pos] == l1[p1] + l2[p2]
    endings = {p for p, flips in enumerate(both.flips) if not flips}
    assert endings == {
        p1 | p2 << 6
        for p1, f1 in enumerate(g1.flips) if not f1
        for p2, f2 in enumerate(g2.flips) if not f2
    }


def test_product_family_grundy_values():
    p1, p2 = chain(3), chain(2)
    f1, f2 = ruler_family(p1), ruler_family(p2)
    prod, fam = product_family(p1, f1, p2, f2)
    g1, g2 = solve_elementwise(f1).values, solve_elementwise(f2).values
    assert solve_elementwise(fam).values == [nim_mul(a, b) for a in g1 for b in g2]


def test_product_family_with_point_ruler_is_identity():
    p1 = divisor_poset(12)
    f1 = ruler_family(p1)
    unit = chain(1)
    prod, fam = product_family(p1, f1, unit, ruler_family(unit))
    assert solve_elementwise(fam).values == solve_elementwise(f1).values


def test_product_rulers_match_divisor_ruler():
    # the ruler on a product of chains is the product of the chain rulers:
    # intervals in a product are products of intervals
    p1, p2 = chain(3), chain(2)
    prod, fam = product_family(p1, ruler_family(p1), p2, ruler_family(p2))
    assert sorted(fam.masks) == sorted(ruler_family(prod).masks)
    d12 = divisor_poset(12)
    mapping = [0] * 6
    for i, (la, lb) in enumerate(prod.labels):
        mapping[i] = d12.labels.index(2 ** (la - 1) * 3 ** (lb - 1))
    assert_grundy_respects_isomorphism(prod, fam, d12, ruler_family(d12), mapping)


# Lenstra's product theorem: an interval of P x Q is a product of intervals
# and a principal ideal a product of principal ideals, so the ruler and the
# ideal family on P x Q are the product families of their factors', whose
# values are the nim products of the factors' values (for the ideal, values
# 0 and 1, a plain AND).  The product's carry sources, delta walks and
# plane widths differ from the factors', so this checks the solver's
# kernels on boards of thousands of elements.
PRODUCT_RULES = {"ruler": (ruler_family, nim_mul), "ideal": (order_ideal_family, lambda a, b: a & b)}


def assert_product_theorem(p, q, family):
    build, times = PRODUCT_RULES[family]
    gp, gq = solve_elementwise(build(p)).values, solve_elementwise(build(q)).values
    pq = product(p, q)
    values = solve_elementwise(build(pq)).values
    assert [values[pq.ids[a * q.n + b]] for a in range(p.n) for b in range(q.n)] == [
        times(x, y) for x in gp for y in gq
    ]


@pytest.mark.parametrize("family", sorted(PRODUCT_RULES))
@pytest.mark.parametrize(
    "p, q",
    [
        (lambda: asm_poset(12), lambda: chain(16)),
        (lambda: set_partition_poset(5), lambda: divisor_poset(360)),
        (lambda: subspace_lattice(4, 2), lambda: asm_poset(8)),
        (lambda: chain(300), lambda: chain(6)),
    ],
    ids=["asm12-chain16", "setpartitions5-divisors360", "subspaces4-2-asm8", "chain300-chain6"],
)
def test_product_theorem_on_large_products(p, q, family):
    assert_product_theorem(p(), q(), family)


@pytest.mark.deep
def test_product_theorem_on_asm30_times_chain4():
    # 17 980 elements, values up to 1024
    assert_product_theorem(asm_poset(30), chain(4), "ruler")


def test_grundy_respects_isomorphism():
    d12 = divisor_poset(12)
    fam = ruler_family(d12)
    assert_grundy_respects_isomorphism(d12, fam, d12, fam, list(range(6)))
    p5 = asm_poset(5)
    xi_map = [p5.labels.index(asm_xi(5, e)) for e in p5.labels]
    r5 = ruler_family(p5)
    assert_grundy_respects_isomorphism(p5, r5, p5, r5, xi_map)

