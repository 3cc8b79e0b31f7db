"""Traced replay of one op, in a fresh interpreter.

    python benchmarks/tracer.py --spans OUT.json --kind cli -- grundy asm:8 ruler
    python benchmarks/tracer.py --spans OUT.json --kind oracle -- --seed 1

The replay imports grundylab, replaces the public functions that the CLI and
the oracle driver call through module attributes with timing wrappers, then
runs `grundylab.cli.main(argv)` (or the oracle driver's `main`) inside a root
span.  Nothing under `src/` is edited; the wrappers exist only in this
process.  Spans stay in memory and are written to OUT.json when the op ends.

Two kinds of wrapper record time:

* a span records (id, name, start, end, parent id, op id) for every call;
* a leaf wraps a function that is called very often (`gf.subspace_leq`,
  `nimber.nim_mul`, ...), so it adds its calls and seconds to one aggregate
  record per (parent span, name).

Inside a leaf nothing else is timed, only counted, so no interval is counted
twice: the self time of a span is its duration minus its child spans and
child leaf aggregates, and the self times of one op add up to its root span.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter

# (module, attribute, span name); "Class.method" patches a method
SPANS = (
    ("partitions", "h_sequence", "partitions.h_sequence"),
    ("families", "set_partition_poset", "families.set_partition_poset"),
    ("families", "asm_poset", "families.asm_poset"),
    ("families", "subspace_lattice", "families.subspace_lattice"),
    ("families", "divisor_poset", "families.divisor_poset"),
    ("poset", "FinitePoset.from_json", "poset.from_json"),
    ("poset", "FinitePoset.covers", "poset.covers"),
    ("poset", "FinitePoset.linear_extension_order", "poset.linear_extension"),
    ("games", "turning_turtles", "games.family"),
    ("games", "order_ideal_family", "games.family"),
    ("games", "ruler_family", "games.family"),
    ("games", "solve_elementwise", "games.solve"),
    ("games", "GenericGame.from_turning_family", "games.brute_build"),
)
LEAVES = (
    ("gf", "subspace_leq", "gf.subspace_leq"),
    ("nimber", "nim_mul", "nimber.nim_mul"),
    ("nimber", "nim_mul_inductive", "nimber.nim_mul_inductive"),
    ("nimber", "nim_add_inductive", "nimber.nim_add_inductive"),
    ("games", "brute_force_grundy", "games.brute_eval"),
)
# every public function defined in closedforms is a leaf of this name
CLOSEDFORMS_LEAF = "closedforms.check"
COUNTED = (("partitions", "multiplicity_M", "partitions.multiplicity_M"),)
ROOTS = {"cli": "cli.main", "oracle": "oracle.main"}


class Recorder:
    """Spans, leaf aggregates and call counts of one op."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []  # [id, name, start, end, parent, op]
        self.leaves: dict[tuple, list] = {}  # (parent, name) -> [calls, seconds]
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.untimed = 0  # > 0 inside a leaf and after the op
        # results of these spans, kept for the work counts in sizes()
        self.kept: dict[str, list] = {"games.family": [], "games.solve": [], "games.brute_build": []}

    def span(self, name: str, fn, keep: list | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if self.untimed:
                return fn(*args, **kwargs)
            rec = [len(self.spans), name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op_id]
            self.spans.append(rec)
            self.stack.append(rec[0])
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self.stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if self.untimed:
                return fn(*args, **kwargs)
            self.untimed = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.untimed = 0
                acc = self.leaves.setdefault((self.stack[-1], name), [0, 0.0])
                acc[0] += 1
                acc[1] += elapsed

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch grundylab's module attributes; attributes a later version
        no longer has are skipped, and their metrics read 0."""
        for module, attr, name in SPANS:
            _patch(module, attr, lambda fn, n=name: self.span(n, fn, self.kept.get(n)))
        for module, attr, name in LEAVES:
            _patch(module, attr, lambda fn, n=name: self.leaf(n, fn))
        for module, attr, name in COUNTED:
            _patch(module, attr, lambda fn, n=name: self.counted(n, fn))
        closedforms = importlib.import_module("grundylab.closedforms")
        for attr, value in list(vars(closedforms).items()):
            own = getattr(value, "__module__", "") == closedforms.__name__
            if own and inspect.isfunction(value) and not attr.startswith("_"):
                setattr(closedforms, attr, self.leaf(CLOSEDFORMS_LEAF, value))

    def sizes(self) -> dict:
        """Work counts of the posets, families and games the op built,
        taken after the op so that they cost it nothing."""
        self.untimed = 1
        calls = Counter(self.counts)
        families, tables, games = (self.kept[k] for k in ("games.family", "games.solve", "games.brute_build"))
        posets = {id(f.poset): f.poset for f in families}
        sizes = {
            "poset.elements": sum(p.n for p in posets.values()),
            "poset.relations": sum(p.down_mask(x).bit_count() for p in posets.values() for x in range(p.n)),
            "poset.cover_edges": sum(len(p.covers()) for p in posets.values()),
            "games.turning_sets": sum(len(f) for f in families),
            "games.set_members": sum(m.bit_count() for f in families for m in getattr(f, "masks", ())),
            "games.max_value": max((max(t.values, default=0) for t in tables), default=0),
            "games.brute_positions": sum(g.n_positions for g in games),
        }
        self.counts = calls
        return sizes

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[parent, name, calls, secs] for (parent, name), (calls, secs) in self.leaves.items()],
            "counts": dict(self.counts),
        }


def _patch(module: str, attr: str, make) -> None:
    mod = importlib.import_module(f"grundylab.{module}")
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    raw = vars(owner).get(method) if owner is not None else None
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(owner, method, classmethod(make(raw.__func__)))
    else:
        setattr(owner, method, make(raw))


def self_times(trace: dict) -> dict[str, float]:
    """Self seconds by span or leaf name: a span's duration minus what its
    child spans and child leaf aggregates cover."""
    covered: dict = defaultdict(float)
    for _, _, start, end, parent, _ in trace["spans"]:
        if parent is not None:
            covered[parent] += end - start
    for parent, _, _, secs in trace["leaves"]:
        covered[parent] += secs
    out: dict = defaultdict(float)
    for sid, name, start, end, _, _ in trace["spans"]:
        out[name] += (end - start) - covered[sid]
    for _, name, _, secs in trace["leaves"]:
        out[name] += secs
    return dict(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced replay of one benchmark op")
    parser.add_argument("--spans", required=True, help="where to write the trace JSON")
    parser.add_argument("--kind", choices=sorted(ROOTS), required=True)
    parser.add_argument("--op-id", type=int, default=0)
    parser.add_argument("op_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    op_argv = args.op_argv[1:] if args.op_argv[:1] == ["--"] else args.op_argv

    rec = Recorder(args.op_id)
    t0 = perf_counter()
    importlib.import_module("grundylab")
    import_s = perf_counter() - t0
    # _FAMILY_BUILDERS in cli captures the builders at import, so patch first
    rec.install()
    t0 = perf_counter()
    if args.kind == "cli":
        entry = importlib.import_module("grundylab.cli").main
    else:
        entry = importlib.import_module("oracle_driver").main
    import_s += perf_counter() - t0

    status = rec.span(ROOTS[args.kind], entry)(op_argv)
    sys.stdout.flush()
    trace = rec.dump()
    trace.update(op_id=args.op_id, kind=args.kind, import_s=import_s, sizes=rec.sizes())
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
