"""Finite poset kernel.

Elements are integer ids 0..n-1 numbered along a linear extension, so
`range(n)` visits each element after everything below it; `labels` maps
ids back to domain objects (divisors, subspaces, set partitions, lattice
points), and `ids[i]` is the id of the caller's element i.  The order
relation is stored as one bitmask per element: `down[i]` holds every
t <= i, within bits 0..i, so comparability is one bit test.  No filter is
stored: the ruler interval [x, y] is the set of z in down(y) with x in
down(z).

Every constructor states the order by its covers (any edge set whose
reflexive-transitive closure is the order will do) and hands them to
`from_covers`, the one place ids are given and masks are built: its
topological sort is also its cycle check and gives the ids, the down masks
close in id order, and it keeps the edges as the read-only `preds`, one
tuple of predecessors per element.
`covers()` filters those: every cover is an edge of any generating set, and
edge (i, j) is a cover exactly when i is below no other predecessor of j.
`from_json` reads covers from a file.
`FinitePoset(down, preds, labels, ids)` only stores what these give it.

Posets are immutable after construction; every query is read-only.
"""

from __future__ import annotations

import heapq


def iter_bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class FinitePoset:
    __slots__ = ("n", "labels", "ids", "_down", "preds")

    def __init__(self, down, preds, labels, ids):
        """Store closed masks, edges, labels and the caller's ids as given;
        internal, build through from_covers, which checks its input."""
        self.n = len(down)
        self._down = down
        self.preds = preds
        self.labels = labels
        self.ids = ids

    # -- construction -----------------------------------------------------

    @classmethod
    def from_covers(cls, n, covers, labels=None):
        """Reflexive-transitive closure of edges (i, j), each read as i below j.

        A top-down topological sort, largest ready caller id first, gives
        the k-th element it takes the id n-1-k, so edges that all run upward
        keep their ids.  The labels (the caller's ids when none are given)
        and the edges, one deduplicated tuple of predecessors per element,
        move to the new ids.  Rejects inputs whose edge set contains a
        directed cycle.
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
        # a max-heap of caller ids with no element left above them
        ready = [-j for j in range(n) if outdeg[j] == 0]
        heapq.heapify(ready)
        ids = [0] * n
        k = n
        while ready:
            j = -heapq.heappop(ready)
            k -= 1
            ids[j] = k
            for i in preds[j]:
                outdeg[i] -= 1
                if outdeg[i] == 0:
                    heapq.heappush(ready, -i)
        if k:
            raise ValueError("cover edges contain a cycle")
        kept = [()] * n
        new_labels = [None] * n
        old_labels = range(n) if labels is None else list(labels)
        for j, x in enumerate(ids):
            kept[x] = tuple([ids[i] for i in dict.fromkeys(preds[j])])
            new_labels[x] = old_labels[j]
        down = [1 << x for x in range(n)]
        for x, px in enumerate(kept):  # every predecessor has a lower id
            for i in px:
                down[x] |= down[i]
        return cls(down, kept, new_labels, ids)

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

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_json(cls, text: str, guard=None) -> "FinitePoset":
        """Parse {"n": ..., "covers": [[i, j], ...], "labels": [...]}; `n`
        is passed to `guard`, which may raise, before any mask is built.
        Cover ids must be integers, not booleans; labels, a list of such
        integers and of strings that `str.isprintable` accepts, so that no
        label can start a line of its own in the output."""
        import json

        obj = json.loads(text)
        n = obj["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        if guard is not None:
            guard(n)
        covers, labels = obj["covers"], obj.get("labels")
        if not all(type(i) is int for edge in covers for i in edge):
            raise ValueError("cover ids must be integers")
        if labels is not None and not (
            type(labels) is list
            and all(type(x) is int or type(x) is str and x.isprintable() for x in labels)
        ):
            raise ValueError("labels must be a list of integers and printable strings")
        return cls.from_covers(n, covers, labels=labels)

    def __repr__(self):
        return f"FinitePoset(n={self.n})"
