"""Coin-turning games on finite posets.

A position is a subset of the board, held as an int bitmask; a move picks a
turning set whose maximum element is currently in the position and flips it
(symmetric difference, i.e. XOR of masks).  A `TurningFamily` is a rule:
`bucket(y)` makes the sets with maximum y from the poset's masks when it is
called, and no built-in family stores its sets.

`solve_elementwise` computes the per-element Grundy values by the
mex-of-nim-sums recursion with one kernel: for each y in id order, a
linear extension (see `poset`), the family's `option_planes` rule gives
the nim-sums of y's options as transposed bit planes, and the mex is a walk
down those planes.  Each built-in family has its own rule: turning turtles
read the planes off the solved values, the order ideal's one option is a
parity per plane, and the ruler carries its planes up from one
predecessor.  The values come back as a `GrundyTable`;
`grundy_position(table, position)` is then the nim-sum of the position's
elements' values, read a byte at a time: the table keeps, for each byte k
of the board, the 256 nim-sums of the subsets of elements 8k..8k+7.  The
first query that reaches byte k makes that list with 255 XORs, and the
solver makes none.
`brute_force_grundy` ignores all of that and evaluates positions by the raw
mex recursion over an explicit `GenericGame`, whose moves are XOR flip
masks that lead to lower position ids: its first call values every
position in one ascending sweep.  A coin-turning move clears the highest
changed bit, its set's maximum.  A sum of two coin-turning games is the
game on the disjoint union of their boards, so it is built by the same
`from_turning_family`.  An option that is not a lower id, a self-loop
included, makes the sweep raise, and so does any cycle.  The test suite plays
the solver and the oracle against each other.  The CLI's `--max-seconds`
timer may end the process inside any of them, and a Ctrl-C may interrupt
any of them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable

from .errors import TooLargeError
from .poset import FinitePoset, iter_bits

MAX_BRUTE_FORCE_POSITIONS = 1 << 20
# one 8-byte tuple slot per flip entry, for any coin-turning game, a sum
# (the game on the union board) included: 2^23 entries are 64 MiB of slots
MAX_BRUTE_FORCE_FLIPS = 1 << 23


class TurningFamily:
    """The turning sets of one poset, made one maximum at a time.

    `bucket(y)` returns the bitmasks of the turning sets whose maximum
    element is y; a move may flip them only while y is in the position.  The
    built-in families are rules: each makes a bucket from the poset's down
    masks when it is asked for, and none stores its sets.

    Masks are over the poset's ids, not the caller's.
    `option_planes(g, planes)` is the family's rule for the solver, a
    generator of `(V, cand)` for each y in id order (see
    `solve_elementwise`).
    """

    def __init__(self, poset: FinitePoset, bucket: Callable[[int], list[int]], option_planes):
        self.poset = poset
        self.bucket = bucket
        self.option_planes = option_planes

    @property
    def masks(self) -> list[int]:
        """Every turning set, bucket by bucket."""
        return [m for y in range(self.poset.n) for m in self.bucket(y)]

    def __len__(self):
        return sum(len(self.bucket(y)) for y in range(self.poset.n))


def turning_turtles(p: FinitePoset) -> TurningFamily:
    """Turning sets {x, y} for all comparable pairs x <= y (singletons when
    x = y).

    The option of {x, y} is x, and its nim-sum is g(x) (0 for x = y, which
    is in no value plane yet), so the option planes are the value planes
    cut down to down(y)."""

    def option_planes(g, planes):
        for y in range(p.n):
            dm = p.down_mask(y)
            yield [plane & dm for plane in planes], dm

    return TurningFamily(
        p, lambda y: [(1 << x) | (1 << y) for x in iter_bits(p.down_mask(y))], option_planes
    )


def order_ideal_family(p: FinitePoset) -> TurningFamily:
    """One turning set per element: its principal order ideal.

    The one option of down(y) is down(y) without y, and y is in no value
    plane yet, so bit b of its nim-sum is the parity of down(y) in value
    plane b."""

    def option_planes(g, planes):
        for y in range(p.n):
            dm = p.down_mask(y)
            yield [(dm & plane).bit_count() & 1 for plane in planes], 1

    return TurningFamily(p, lambda y: [p.down_mask(y)], option_planes)


def ruler_family(p: FinitePoset) -> TurningFamily:
    """All closed intervals [x, y] with x <= y.

    The bucket of y, listed by x, is one pass down the elements of down(y)
    in id order from the top: [x, y] is x and every [z, y] over the kept
    edges (x, z) inside down(y).

    The option of [x, y] is x, and bit x of the plane V_y[b] is the parity
    of the z < y in [x, y] whose value has bit b; so V_y[b] is the XOR
    of down(z) over the z < y with bit b of g(z).  Each V_y is carried up
    from the predecessor y1 (a kept generating edge) with the largest
    down-set: V_y1 already sums the z < y1, so V_y adds the down-sets of
    the rest of the z < y, y1 among them.
    The planes of y1 are updated in place at their last use and dropped.
    """

    def bucket(y):
        intervals = dict.fromkeys(iter_bits(p.down_mask(y)), 0)
        for z in reversed(intervals):
            intervals[z] |= 1 << z
            for x in p.preds[z]:
                intervals[x] |= intervals[z]
        return list(intervals.values())

    def option_planes(g, planes):
        down = [p.down_mask(y) for y in range(p.n)]
        size = [d.bit_count() for d in down]
        source = [max(preds, key=size.__getitem__) if preds else None for preds in p.preds]
        uses = Counter(source)
        kept = {}
        bits = [()] * p.n  # the set bits of g[z], once z is solved
        for y in range(p.n):
            y1 = source[y]
            if y1 is None:
                V = [0] * len(planes)
                below = 0
            else:
                uses[y1] -= 1
                V = kept.pop(y1) if uses[y1] == 0 else kept[y1].copy()
                V.extend([0] * (len(planes) - len(V)))
                below = down[y1] ^ (1 << y1)
            # the rest of down(y) below y, y1 included, walked from the top
            # bit so that each step shrinks the int
            delta = down[y] ^ below ^ (1 << y)
            while delta:
                z = delta.bit_length() - 1
                delta ^= 1 << z
                dz = down[z]
                for b in bits[z]:
                    V[b] ^= dz
            yield V, down[y]
            bits[y] = tuple(iter_bits(g[y]))
            if uses[y]:
                kept[y] = V

    return TurningFamily(p, bucket, option_planes)


def family_builders() -> dict:
    """The built-in turning families by the names `grundylab grundy` takes.

    The dict is made at each call from this module's globals, so a wrapper
    installed on `games.ruler_family` (or another builder) after import is
    the builder returned."""
    return {"tt": turning_turtles, "ideal": order_ideal_family, "ruler": ruler_family}


class GrundyTable:
    """Per-element Grundy values of one game; `grundy_position` reads a
    position's value off them a byte at a time.

    `byte_sums[k]` lists the nim-sums of the subsets of elements
    8k..8k+7, indexed by the subset's byte.  It starts empty and grows
    only when a query reaches a new byte, so the solver builds none."""

    def __init__(self, values: list[int]):
        self.values = values
        self.byte_sums: list[list[int]] = []


def _mex_over_planes(V, cand) -> int:
    """Least value that no option in the mask `cand` takes, where bit b of
    option i's value is bit i of V[b] and every value is below 2^len(V).

    A depth-first walk from the top plane down, the 0 branch (the options
    of `c` outside V[b], `c ^ one`, which forms no complement as wide as the
    plane) before the 1 branch: leaves are reached in increasing value, so
    the first empty branch is the mex.  If none is empty, every value below
    2^len(V) is taken."""
    stack = [(cand, len(V), 0)]
    while stack:
        c, b, v = stack.pop()
        if not c:
            return v
        if b:
            b -= 1
            one = c & V[b]
            stack.append((one, b, v | 1 << b))
            stack.append((c ^ one, b, v))
    return 1 << len(V)


def solve_elementwise(fam: TurningFamily) -> GrundyTable:
    """Per-element Grundy values g(x) = mex over turning sets with maximum x
    of the nim-sum of values strictly inside the set.

    Elements outside every maximum get the empty mex, 0.  Evaluation runs
    in id order, a linear extension, so the values a set references are
    always final.
    `planes[b]` holds the solved elements whose value has bit b set; x
    itself is in no plane while its options are read.  From them the
    family's `option_planes` rule makes x's option planes: `V[b]` is a mask
    over x's options with bit i set when option i's nim-sum has bit b, and
    `cand` is the mask of all x's options.  It is resumed only after the
    previous element's value is in `g` and `planes`.  `_mex_over_planes`
    then takes the mex without forming any nim-sum.
    """
    p = fam.poset
    g = [0] * p.n
    planes = []
    for x, (V, cand) in enumerate(fam.option_planes(g, planes)):
        v = g[x] = _mex_over_planes(V, cand)
        planes.extend([0] * (v.bit_length() - len(planes)))
        for b in iter_bits(v):
            planes[b] |= 1 << x
    return GrundyTable(g)


def grundy_position(table: GrundyTable, position: int) -> int:
    """Nim-sum of per-element values over the position, a byte at a time.

    Byte k of the position indexes `table.byte_sums[k]`.  The first query
    that reaches byte k makes that list by doubling, 255 XORs (fewer in a
    short last byte); every later query pays one index per byte.  A bit at
    or above the board's size raises IndexError: inside the last byte its
    index is past that byte's short list, and above it the position is
    refused before any list is made.
    """
    sums = table.byte_sums
    while position >> 8 * len(sums):
        values = table.values
        if position >> len(values):
            raise IndexError(f"position has an element outside the board of {len(values)}")
        k = 8 * len(sums)
        subsets = [0]
        for v in values[k : k + 8]:
            subsets += [x ^ v for x in subsets]
        sums.append(subsets)
    s = k = 0
    for b in position.to_bytes((position.bit_length() + 7) >> 3, "little"):
        s ^= sums[k][b]
        k += 1
    return s


# -- generic games and the brute-force oracle -----------------------------


class GenericGame:
    """Explicit impartial game on positions 0..N-1, held as flip masks:
    option i of `pos` is `pos ^ flips[pos][i]`, and every option is a
    lower id than its position.  `values` stays None until
    `brute_force_grundy` values every position."""

    def __init__(self, flips):
        self.flips = flips
        self.values: list[int] | None = None

    @property
    def n_positions(self) -> int:
        return len(self.flips)

    @classmethod
    def from_turning_family(cls, fam: TurningFamily) -> "GenericGame":
        """Materialize all 2^|X| positions of a coin-turning game.

        A move flips a turning set, so the flips of a position are its
        sets: built in ascending pos, those of `low | 1 << x` (low < 2^x)
        are those of low followed by `bucket(x)`, one tuple concatenation,
        so they run bucket by bucket in ascending maximum.  A move clears
        its set's maximum, the highest bit it changes, so it lowers the
        position id.  Refused with TooLargeError before any list is built
        when the positions or the flip entries, sum |bucket(x)| * 2^(n-1),
        are over their caps.
        """
        n = fam.poset.n
        if 1 << n > MAX_BRUTE_FORCE_POSITIONS:
            raise TooLargeError(f"2^{n} positions exceed cap {MAX_BRUTE_FORCE_POSITIONS}")
        buckets = [tuple(fam.bucket(x)) for x in range(n)]
        entries = sum(map(len, buckets)) << n >> 1
        if entries > MAX_BRUTE_FORCE_FLIPS:
            raise TooLargeError(f"{entries} flip entries exceed cap {MAX_BRUTE_FORCE_FLIPS}")
        flips = [()]
        for bucket_x in buckets:
            flips += [f + bucket_x for f in flips]
        return cls(flips)


def brute_force_grundy(game: GenericGame, position: int) -> int:
    """Grundy value by the raw mex recursion over options: 0 at ending
    positions, mex of the option values elsewhere.

    The first call values every position into `game.values`, in ascending
    id, each value v kept as the bit 1 << v so that an option is read with
    one OR.  Entries start at -1, which leaves a position that reads an
    unvalued option a 0 entry, so an option that is not a lower id, a
    self-loop or any cycle raises ValueError after the sweep instead of
    being trusted.  Every later call is a list index."""
    if game.values is None:
        flips = game.flips
        bits = [-1] * len(flips)
        for p, fp in enumerate(flips):
            seen = 0
            for f in fp:
                seen |= bits[p ^ f]
            bits[p] = (seen + 1) & ~seen
        if 0 in bits:
            raise ValueError(f"position {bits.index(0)} has an option that is not a lower id")
        game.values = [b.bit_length() - 1 for b in bits]
    return game.values[position]

