"""Independent checks of op outputs.

Every op's stdout is compared with its recorded SHA-256 digest
(`expected.json`) when one exists for the seed.  Ops whose inputs change with
the seed also get a check here that needs no recorded value, so a seed that
has no digest is still checked.  These checks use only the generated input
and the standard library, never grundylab itself:

* `ideal`, `tt`, `ruler`: recompute the per-element Grundy values of the
  generated poset from its cover edges and compare them row by row;
* `hn`: compare the rows with the values the paper lists, h(1..17);
* `verify`, `oracle`: require every check line to pass.
"""

from __future__ import annotations

import hashlib
import re

PAPER_H = (1, 2, 1, 4, 1, 2, 1, 7, 15, 16, 8, 5, 19, 5, 37, 17, 14)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mex_of_mask(seen: int) -> int:
    return ((seen + 1) & ~seen).bit_length() - 1


def _closure(n: int, covers) -> tuple[list[int], list[int]]:
    """Down- and up-set bitmasks; every edge (i, j) has i < j."""
    down = [1 << j for j in range(n)]
    preds = [[] for _ in range(n)]
    for i, j in covers:
        if not 0 <= i < j < n:
            raise ValueError(f"edge ({i}, {j}) does not run upward")
        preds[j].append(i)
    for j in range(n):
        for i in preds[j]:
            down[j] |= down[i]
    up = [0] * n
    for j in range(n):
        m = down[j]
        while m:
            low = m & -m
            up[low.bit_length() - 1] |= 1 << j
            m ^= low
    return down, up


def _xor_over(mask: int, planes: list[int]) -> int:
    # nim-sum of the values on `mask`, one parity per value bit
    return sum(((mask & plane).bit_count() & 1) << b for b, plane in enumerate(planes))


def grundy_values(family: str, n: int, covers) -> list[int]:
    """Per-element values of the tt, ideal or ruler game, element ids in
    increasing order (a linear extension, since edges run upward)."""
    down, up = _closure(n, covers)
    g = [0] * n
    planes: list[int] = []  # planes[b]: elements whose value has bit b set
    holders: list[int] = []  # holders[v]: elements whose value is v
    for y in range(n):
        strict = down[y] & ~(1 << y)
        if family == "ideal":
            options = 1 << _xor_over(strict, planes)
        elif family == "tt":
            options = 1  # the singleton {y}
            for v, mask in enumerate(holders):
                if strict & mask:
                    options |= 1 << v
        elif family == "ruler":
            options = 0
            m = down[y]
            while m:
                low = m & -m
                options |= 1 << _xor_over(strict & up[low.bit_length() - 1], planes)
                m ^= low
        else:
            raise KeyError(family)
        v = g[y] = _mex_of_mask(options)
        while v >> len(planes):
            planes.append(0)
        for b in range(len(planes)):
            if (v >> b) & 1:
                planes[b] |= 1 << y
        while len(holders) <= v:
            holders.append(0)
        holders[v] |= 1 << y
    return g


def parse_table(text: str) -> tuple[dict[str, str], list[list[str]]]:
    """Metadata and rows of a text-format TableReport."""
    meta = {}
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("# ")]
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition(": ")
            meta[key] = value
    rows = [ln.split() for ln in body[1:]]
    return meta, rows


def check_grundy(text: str, family: str, inp: dict) -> str:
    meta, rows = parse_table(text)
    n = inp["n"]
    if meta.get("family") != family or meta.get("elements") != str(n):
        return f"metadata {meta}"
    want = grundy_values(family, n, inp["covers"])
    got = [(label, int(value)) for label, value in rows]
    if len(got) != n:
        return f"{len(got)} rows for {n} elements"
    for x, ((label, value), v) in enumerate(zip(got, want)):
        if (label, value) != (str(x), v):
            return f"element {x}: got {label} {value}, want {x} {v}"
    return ""


def check_hn(text: str) -> str:
    meta, rows = parse_table(text)
    got = [(int(a), int(b)) for a, b in rows]
    want = list(enumerate(PAPER_H, start=1))[: int(meta.get("max", 0))]
    if not got or got != want:
        return f"h rows {got} differ from the paper's {want}"
    return ""


def check_passlines(text: str, ok_line: str, fail_pattern: str) -> str:
    lines = text.splitlines()
    bad = [ln for ln in lines if re.search(fail_pattern, ln)]
    if bad:
        return bad[0]
    if not lines or lines[-1] != ok_line:
        return f"last line {lines[-1] if lines else ''!r}"
    return ""


def check_output(check: str, text: str, inp: dict | None) -> str:
    """Empty string when the output passes `check`, else a reason.  `inp` is
    the generated poset the op read, if any."""
    if not check:
        return ""
    if check == "hn":
        return check_hn(text)
    if check == "verify":
        return check_passlines(text, "OK: 0 failure(s)", r"^FAIL")
    if check == "oracle":
        return check_passlines(text, "OK: 0 mismatch(es)", r"mismatches=(?!0\b)")
    return check_grundy(text, check, inp)
