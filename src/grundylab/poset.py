"""Finite poset kernel.

Elements are integer ids 0..n-1; an optional `labels` list maps ids back to
domain objects (divisors, subspaces, set partitions, lattice points).  The
order relation is stored as one bitmask per element (`down[i]` holds every
t <= i, `up[i]` every t >= i), which keeps comparability O(1) and interval
extraction a single AND.

Posets are immutable after construction; every query is read-only.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

from .errors import NotComparableError, PosetValidationError, TooLargeError

VALIDATE_LIMIT = 512


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]: all t with lo <= t <= hi."""

    lo: int
    hi: int
    members: frozenset


def iter_bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class FinitePoset:
    __slots__ = ("n", "labels", "_down", "_up", "_covers")

    def __init__(self, down_masks, labels=None, validate_limit: int = VALIDATE_LIMIT):
        """Build from per-element down-sets; prefer from_relation/from_covers."""
        self.n = len(down_masks)
        self._down = list(down_masks)
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length mismatch")
        if self.n <= validate_limit:
            self._validate()
        up = [0] * self.n
        for j, m in enumerate(self._down):
            for i in iter_bits(m):
                up[i] |= 1 << j
        self._up = up
        self._covers = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_relation(cls, n, leq, labels=None, validate_limit: int = VALIDATE_LIMIT):
        """Build from a comparison callback or an n x n truth matrix."""
        if callable(leq):
            down = [
                sum(1 << i for i in range(n) if leq(i, j)) for j in range(n)
            ]
        else:
            down = [
                sum(1 << i for i in range(n) if leq[i][j]) for j in range(n)
            ]
        return cls(down, labels=labels, validate_limit=validate_limit)

    @classmethod
    def from_covers(cls, n, covers, labels=None):
        """Reflexive-transitive closure of edges (i, j), each read as i below j.

        Rejects inputs whose edge set contains a directed cycle.
        """
        succ = [[] for _ in range(n)]
        indeg = [0] * n
        for i, j in covers:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise PosetValidationError(f"bad cover edge ({i}, {j})")
            succ[i].append(j)
            indeg[j] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(order)
        topo = []
        while order:
            i = heapq.heappop(order)
            topo.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(order, j)
        if len(topo) != n:
            raise PosetValidationError("cover edges contain a cycle")
        down = [1 << i for i in range(n)]
        for i in topo:
            for j in succ[i]:
                down[j] |= down[i]
        # closure is transitive and acyclic by construction; skip re-validation
        return cls(down, labels=labels, validate_limit=-1)

    def _validate(self):
        n = self.n
        down = self._down
        for i in range(n):
            if not (down[i] >> i) & 1:
                raise PosetValidationError(f"relation not reflexive at {i}")
        for j in range(n):
            for i in iter_bits(down[j]):
                if i != j and (down[i] >> j) & 1:
                    raise PosetValidationError(f"antisymmetry fails on ({i}, {j})")
                if down[i] | down[j] != down[j]:
                    raise PosetValidationError(f"transitivity fails via {i} <= {j}")

    # -- basic queries ----------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool((self._down[j] >> i) & 1)

    def less(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def down_mask(self, x: int) -> int:
        """Bitmask of the principal ideal of x (includes x)."""
        return self._down[x]

    def up_mask(self, x: int) -> int:
        """Bitmask of the principal filter of x (includes x)."""
        return self._up[x]

    def principal_ideal(self, x: int) -> frozenset:
        return frozenset(iter_bits(self._down[x]))

    def principal_filter(self, x: int) -> frozenset:
        return frozenset(iter_bits(self._up[x]))

    def interval(self, x: int, y: int) -> Interval:
        if not self.leq(x, y):
            raise NotComparableError(f"{x} is not <= {y}")
        return Interval(x, y, frozenset(iter_bits(self._down[y] & self._up[x])))

    def covers(self):
        """All covering pairs (x, y) with x covered by y, sorted."""
        if self._covers is None:
            out = []
            for j in range(self.n):
                strict = self._down[j] & ~(1 << j)
                shadow = 0
                for t in iter_bits(strict):
                    shadow |= self._down[t] & ~(1 << t)
                for i in iter_bits(strict & ~shadow):
                    out.append((i, j))
            out.sort()
            self._covers = out
        return list(self._covers)

    def minimal_elements(self):
        return [i for i in range(self.n) if self._down[i] == 1 << i]

    def maximal_elements(self):
        return [i for i in range(self.n) if self._up[i] == 1 << i]

    def minimum(self):
        """The unique global minimum if one exists, else None."""
        if self.n == 0:
            return None
        acc = self._down[0]
        for m in self._down[1:]:
            acc &= m
        if acc == 0:
            return None
        return (acc & -acc).bit_length() - 1

    def maximum(self):
        if self.n == 0:
            return None
        acc = self._up[0]
        for m in self._up[1:]:
            acc &= m
        if acc == 0:
            return None
        return (acc & -acc).bit_length() - 1

    # -- structure --------------------------------------------------------

    def rank_function(self):
        """Ranks if the poset is graded (0 on minimal elements, +1 along
        covers), else None.  Consistency is checked on the cover DAG."""
        n = self.n
        rank = [0] * n
        order = self.linear_extension_order()
        lower = [[] for _ in range(n)]
        for c, x in self.covers():
            lower[x].append(c)
        for x in order:
            if lower[x]:
                rank[x] = 1 + max(rank[c] for c in lower[x])
        for x in range(n):
            for c in lower[x]:
                if rank[x] != rank[c] + 1:
                    return None
        return rank

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

    def product(self, other: "FinitePoset") -> "FinitePoset":
        """Componentwise order on pairs; (a, b) gets id a * other.n + b."""
        n2 = other.n
        down = []
        for a in range(self.n):
            da = self._down[a]
            for b in range(other.n):
                db = other._down[b]
                m = 0
                for c in iter_bits(da):
                    m |= db << (c * n2)
                down.append(m)
        labels = None
        if self.labels is not None and other.labels is not None:
            labels = [(la, lb) for la in self.labels for lb in other.labels]
        return FinitePoset(down, labels=labels, validate_limit=-1)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        obj = {"n": self.n, "covers": [list(c) for c in self.covers()]}
        if self.labels is not None:
            obj["labels"] = [str(l) for l in self.labels]
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, max_elements: int | None = None) -> "FinitePoset":
        """Parse {"n": ..., "covers": [[i, j], ...], "labels": [...]}; `n`
        is checked against `max_elements` before any mask is built."""
        obj = json.loads(text)
        n = obj["n"]
        if type(n) is not int or n < 0:
            raise PosetValidationError(f"n must be a non-negative integer, got {n!r}")
        if max_elements is not None and n > max_elements:
            raise TooLargeError(f"poset has {n} elements (cap {max_elements})")
        return cls.from_covers(n, obj["covers"], labels=obj.get("labels"))

    def label(self, x: int):
        return self.labels[x] if self.labels is not None else x

    def index_of_label(self, label):
        if self.labels is None:
            raise ValueError("poset has no labels")
        return self.labels.index(label)

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"FinitePoset(n={self.n})"
