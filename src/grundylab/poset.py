"""Finite poset kernel.

Elements are integer ids 0..n-1; an optional `labels` list maps ids back to
domain objects (divisors, subspaces, set partitions, lattice points).  The
order relation is stored as one bitmask per element: `down[i]` holds every
t <= i, so comparability is one bit test.  No filter is stored: the ruler
interval [x, y] is the set of z in down(y) with x in down(z).

Every constructor states the order by its covers (any edge set whose
reflexive-transitive closure is the order will do) and hands them to
`from_covers`, the one place masks are built: its topological sort is also
its cycle check, the down masks close along that order, and it keeps the
edges as the read-only `preds`, one tuple of predecessors per element.
`covers()` filters those: every cover is an edge of any generating set, and
edge (i, j) is a cover exactly when i is below no other predecessor of j.
`from_json` reads covers from a file.
`FinitePoset(down, preds, labels)` only stores what these give it.

Posets are immutable after construction; every query is read-only.
"""

from __future__ import annotations


def iter_bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class FinitePoset:
    __slots__ = ("n", "labels", "_down", "preds")

    def __init__(self, down, preds, labels=None):
        """Store closed masks and edges as given; internal, build through
        from_covers, which checks its input."""
        self.n = len(down)
        self._down = down
        self.preds = preds
        self.labels = list(labels) if labels is not None else None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_covers(cls, n, covers, labels=None):
        """Reflexive-transitive closure of edges (i, j), each read as i below j.

        The edges are kept as one deduplicated tuple of predecessors per
        element.  Rejects inputs whose edge set contains a directed cycle.
        """
        if labels is not None and len(labels) != n:
            raise ValueError("labels length mismatch")
        preds = [[] for _ in range(n)]
        outdeg = [0] * n
        for i, j in covers:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad cover edge ({i}, {j})")
            preds[j].append(i)
            outdeg[i] += 1
        # top-down: each element is listed after every element above it
        ready = [j for j in range(n) if outdeg[j] == 0]
        order = []
        while ready:
            j = ready.pop()
            order.append(j)
            for i in preds[j]:
                outdeg[i] -= 1
                if outdeg[i] == 0:
                    ready.append(i)
        if len(order) != n:
            raise ValueError("cover edges contain a cycle")
        down = [1 << i for i in range(n)]
        for j in reversed(order):
            for i in preds[j]:
                down[j] |= down[i]
        return cls(down, [tuple(dict.fromkeys(p)) for p in preds], labels=labels)

    # -- basic queries ----------------------------------------------------

    def down_mask(self, x: int) -> int:
        """Bitmask of the principal ideal of x (includes x)."""
        return self._down[x]

    def covers(self):
        """All covering pairs (x, y) with x covered by y, sorted: the kept
        edges (x, y) where x is below no other kept predecessor of y."""
        down = self._down
        out = []
        for y, preds in enumerate(self.preds):
            shadow = 0
            for k in preds:
                shadow |= down[k] & ~(1 << k)
            out.extend((x, y) for x in preds if not (shadow >> x) & 1)
        return sorted(out)

    def maximum(self):
        """The element whose down mask holds every element, else None."""
        full = (1 << self.n) - 1
        return next((x for x, m in enumerate(self._down) if m == full), None)

    # -- structure --------------------------------------------------------

    def linear_extension(self):
        """tau with x <= y implying tau[x] <= tau[y]; ties broken by id."""
        tau = [0] * self.n
        for pos, x in enumerate(self.linear_extension_order()):
            tau[x] = pos
        return tau

    def linear_extension_order(self):
        """Element ids listed bottom-up: each element after everything below it.

        x < y makes down(x) a proper subset of down(y), so sorting by the
        size of the down-set (a stable sort, so ties by id) is a linear
        extension."""
        return sorted(range(self.n), key=lambda x: self._down[x].bit_count())

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_json(cls, text: str, guard=None) -> "FinitePoset":
        """Parse {"n": ..., "covers": [[i, j], ...], "labels": [...]}; `n`
        is passed to `guard`, which may raise, before any mask is built."""
        import json

        obj = json.loads(text)
        n = obj["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        if guard is not None:
            guard(n)
        return cls.from_covers(n, obj["covers"], labels=obj.get("labels"))

    def label(self, x: int):
        return self.labels[x] if self.labels is not None else x

    def __repr__(self):
        return f"FinitePoset(n={self.n})"
