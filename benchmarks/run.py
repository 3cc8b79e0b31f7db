"""Benchmark for the grundylab command line: run one workload, check every
output, print the metrics.

    python3 benchmarks/run.py --workload solve --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it builds nothing.  Each workload is a
closed loop with one client: ops run one at a time, each in a fresh
interpreter as `python -m grundylab.cli ...` against this checkout's `src/`
(or as the benchmark's oracle driver).  The loop repeats the workload's ops
until `--seconds` are used up, and reports the median of each op over the
repetitions.

With `--trace 0` it prints the end-to-end metrics: `setup_s` (median wall
time of a fresh `import grundylab.cli`, timed before every op so that its
samples span the run like the ops' do), `wall_s` and `cpu_s` (one pass over
the ops, summed from per-op medians; CPU time is the children's user +
system time from `os.wait4`) and `peak_rss_mb` (the largest per-op median
`ru_maxrss`).  With `--trace 1` it alternates untraced and traced passes
(see `tracer.py`) and prints the per-layer metrics.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  An op fails when it exits nonzero, when its stdout
differs from the recorded digest or between repetitions, or when an
independent check (`checks.py`) rejects it; `failed / attempted` is
`fail_frac`.  Per-op samples, the traces and the run context go to
`.bench_out/report-*.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import metadata

import checks
import tracer
import workloads
from workloads import Op, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, workloads.OUT_DIR)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# no op starts after this many seconds of the run, no traced pair starts
# that could end after it, and an op still running then is killed (and fails)
RUN_LIMIT_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, the end-to-end metric (and workload) it should move.
# Span times are self times summed over one pass; counts are per pass.
PER_LAYER = (
    ("cli.main_s", "s", "wall_s on tables (warm ops)"),
    ("cli.self_s", "s", "wall_s on tables (warm ops)"),
    ("cli.output_bytes", "count", "wall_s on tables"),
    ("oracle.self_s", "s", "wall_s on oracle"),
    ("nimber.import_s", "s", "setup_s on every workload"),
    ("nimber.nim_mul_inductive_s", "s", "wall_s on oracle"),
    ("nimber.nim_add_inductive_s", "s", "wall_s on oracle"),
    ("nimber.nim_mul_s", "s", "wall_s on oracle"),
    ("nimber.oracle_cells", "count", "wall_s on oracle"),
    ("poset.from_json_s", "s", "wall_s on build and solve"),
    ("poset.covers_s", "s", "wall_s on build and solve"),
    ("poset.linear_extension_s", "s", "wall_s on solve"),
    ("poset.elements", "count", "wall_s on build and solve"),
    ("poset.relations", "count", "wall_s on build and solve"),
    ("poset.cover_edges", "count", "wall_s on build and solve"),
    ("gf.subspace_leq_s", "s", "wall_s on build"),
    ("gf.subspace_leq.calls", "count", "wall_s on build"),
    ("families.set_partition_poset_s", "s", "wall_s on build, partly on solve"),
    ("families.asm_poset_s", "s", "wall_s on build, partly on solve"),
    ("families.subspace_lattice_s", "s", "wall_s on build"),
    ("families.divisor_poset_s", "s", "wall_s on build"),
    ("games.family_s", "s", "wall_s and peak_rss_mb on solve"),
    ("games.solve_s", "s", "wall_s on solve and on tables (cold asm-ruler)"),
    ("games.turning_sets", "count", "wall_s and peak_rss_mb on solve"),
    ("games.set_members", "count", "wall_s and peak_rss_mb on solve"),
    ("games.max_value", "count", "wall_s on solve"),
    ("games.brute_build_s", "s", "wall_s on oracle"),
    ("games.brute_eval_s", "s", "wall_s on oracle"),
    ("games.brute_positions", "count", "wall_s on oracle"),
    ("closedforms.check_s", "s", "wall_s on oracle"),
    ("partitions.h_sequence_s", "s", "wall_s on tables (cold hn)"),
    ("partitions.multiplicity_M.calls", "count", "wall_s on tables (cold hn)"),
    ("trace.overhead_s", "s", "none: traced minus untraced wall of one pass"),
)


@dataclass
class OpRun:
    op: Op
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    stdout: bytes
    trace: dict | None = None


def child_env(cache_dir: str | None = None) -> dict:
    """The caller's environment with this checkout's src/ as the only
    PYTHONPATH entry and GRUNDYLAB_CACHE_DIR set only when asked for."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GRUNDYLAB_CACHE_DIR")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if cache_dir is not None:
        env["GRUNDYLAB_CACHE_DIR"] = cache_dir
    return env


def run_child(cmd: list[str], env: dict, err_path: str,
              kill_at: float = math.inf) -> tuple[float, float, float, int, bytes]:
    """Run one child to completion and reap it with os.wait4, so the
    resource usage is this child's alone; kill it if it is still running
    at perf_counter time `kill_at`.  Returns (wall s, cpu s, max RSS MB,
    exit code, stdout)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(max(0.0, min(kill_at - start, 1e6)), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, out


def load_expected(workload: str, seed: int) -> dict[str, str]:
    """Recorded stdout digests by op name: seed-independent ones under
    "any", seeded ones under the seed."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload, {})
    found = {}
    for op_name, by_seed in recorded.items():
        want = by_seed.get("any") or by_seed.get(str(seed))
        if want:
            found[op_name] = want
    return found


class Bench:
    """Runs passes over one workload's ops and judges every output."""

    def __init__(self, wl: Workload, inputs: dict, expected: dict[str, str], kill_at: float = math.inf):
        self.wl = wl
        self.kill_at = kill_at
        self.inputs = inputs
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple[str, str], str] = {}
        self._first: dict[str, str] = {}
        self._passes = 0
        # fresh-import times, sampled before every op of a run with a deadline
        self.setup: list[float] = []

    def command(self, op: Op, trace_path: str | None, op_id: int) -> list[str]:
        if trace_path is not None:
            return [sys.executable, os.path.join(HERE, "tracer.py"), "--spans", trace_path,
                    "--kind", op.kind, "--op-id", str(op_id), "--", *op.argv]
        if op.kind == "cli":
            return [sys.executable, "-m", "grundylab.cli", *op.argv]
        return [sys.executable, os.path.join(HERE, "oracle_driver.py"), *op.argv]

    def run_pass(self, traced: bool, deadline: float | None = None) -> list[OpRun]:
        """One repetition of the workload's ops.  With a deadline, every op
        is preceded by a timed fresh import (the `setup_s` samples, taken
        across the whole run like the ops), and a pass other than the first
        stops at the first op that would start after the deadline."""
        k = self._passes
        self._passes += 1
        cache = os.path.join(OUT, "cache", f"pass{k}")
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        err_path = os.path.join(OUT, "stderr.txt")
        runs = []
        try:
            for i, op in enumerate(self.wl.ops):
                if deadline is not None:
                    if k and time.perf_counter() >= deadline:
                        break
                    self.setup.append(self.import_time(err_path))
                op_id = 100 * k + i
                trace_path = os.path.join(OUT, "trace", f"op{op_id}.json") if traced else None
                env = child_env(cache if op.cache != "off" else None)
                cmd = self.command(op, trace_path, op_id)
                run = OpRun(op, *run_child(cmd, env, err_path, self.kill_at))
                self.judge(run, err_path)
                if trace_path is not None and run.status == 0:
                    with open(trace_path, encoding="utf-8") as fh:
                        run.trace = json.load(fh)
                    os.remove(trace_path)
                runs.append(run)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return runs

    def import_time(self, err_path: str) -> float:
        """Wall time of one fresh `import grundylab.cli`."""
        cmd = [sys.executable, "-c", "import grundylab.cli"]
        wall, _, _, status, _ = run_child(cmd, child_env(), err_path, self.kill_at)
        if status != 0:
            raise SystemExit(f"import grundylab.cli exited with {status}")
        return wall

    def judge(self, run: OpRun, err_path: str) -> None:
        self.attempted += 1
        op = run.op
        if run.status != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read()[-300:].decode(errors="replace").strip()
            why = f"exit code {run.status}: {tail}"
        else:
            got = checks.digest(run.stdout)
            key = (op.name, got)
            if key not in self._verdicts:
                want = self.expected.get(op.name)
                if want is not None and want != got:
                    self._verdicts[key] = f"stdout digest {got[:12]} differs from the recorded {want[:12]}"
                else:
                    text = run.stdout.decode(errors="replace")
                    self._verdicts[key] = checks.check_output(op.check, text, self.inputs.get(op.input))
            why = self._verdicts[key]
            if not why and self._first.setdefault(op.name, got) != got:
                why = "stdout differs between repetitions"
        if why:
            self.failed += 1
            self.problems.append(f"{op.name}: {why}")


def keep_going(started: float, run_started: float, n: int, seconds: float) -> bool:
    """Start another traced pair when it is expected to end at most half a
    pair past `seconds`, and surely before RUN_LIMIT_S."""
    now = time.perf_counter()
    per_pair = (now - started) / n
    return now - started + per_pair / 2 < seconds and now - run_started + 2 * per_pair < RUN_LIMIT_S


def per_op(passes: list[list[OpRun]], value) -> list[float]:
    """Median of value(run) for each op across passes, in op order; the
    first pass is complete, a last pass may stop early."""
    return [
        statistics.median(value(p[i]) for p in passes if i < len(p))
        for i in range(len(passes[0]))
    ]


def check_import() -> None:
    """Import once, unmeasured, and make sure the grundylab imported is
    this checkout's."""
    probe = "import grundylab.cli, grundylab; print(grundylab.__file__)"
    err_path = os.path.join(OUT, "stderr.txt")
    _, _, _, status, out = run_child([sys.executable, "-c", probe], child_env(), err_path)
    where = os.path.realpath(out.decode().strip())
    if status != 0 or not where.startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise SystemExit(f"grundylab does not import from this checkout's src/ (exit {status}, {where})")


def end_to_end(setup: list[float], passes: list[list[OpRun]]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_op(passes, lambda r: r.wall_s)),
        "cpu_s": sum(per_op(passes, lambda r: r.cpu_s)),
        "peak_rss_mb": max(per_op(passes, lambda r: r.rss_mb)),
    }


def layer_values(runs: list[OpRun]) -> tuple[dict[str, float], dict[str, int]]:
    """Self times and counts of one traced pass."""
    times: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    imports = []
    for run in runs:
        trace = run.trace
        selfs = tracer.self_times(trace)
        root = tracer.ROOTS[run.op.kind]
        if run.op.kind == "cli":
            times["cli.main_s"] += sum(s[3] - s[2] for s in trace["spans"] if s[4] is None)
            counts["cli.output_bytes"] += len(run.stdout)
        times[root.partition(".")[0] + ".self_s"] += selfs.pop(root)
        for name, secs in selfs.items():
            times[name + "_s"] += secs
        for name, n in list(trace["counts"].items()) + list(trace["sizes"].items()):
            # the largest value is a maximum over ops; every other count adds up
            counts[name] = max(counts[name], n) if name == "games.max_value" else counts[name] + n
        imports.append(trace["import_s"])
    times["nimber.import_s"] = statistics.median(imports)
    counts["nimber.oracle_cells"] = (
        counts["nimber.nim_mul_inductive.calls"] + counts["nimber.nim_add_inductive.calls"]
    )
    return times, counts


def per_layer(bench: Bench, plain: list[list[OpRun]], traced: list[list[OpRun]]) -> dict[str, float]:
    complete = [p for p in traced if all(r.trace is not None for r in p)]
    if not complete:
        return {name: 0.0 for name, _, _ in PER_LAYER}
    values = [layer_values(p) for p in complete]
    counts = values[0][1]
    if any(c != counts for _, c in values[1:]):
        bench.failed += 1
        bench.problems.append("counts differ between traced repetitions")
    out = {}
    for name, unit, _ in PER_LAYER:
        if unit == "count":
            out[name] = counts.get(name, 0)
        else:
            out[name] = statistics.median(t.get(name, 0.0) for t, _ in values)
    out["trace.overhead_s"] = sum(per_op(traced, lambda r: r.wall_s)) - sum(per_op(plain, lambda r: r.wall_s))
    return out


def context() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    sha = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, "src", "grundylab"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def summarize(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} {unit}, n={n}"
    if n >= 20:
        q = 100 * (n - 10) // n
        text += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} {unit}"
    return f"#   {name}: {text}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grundylab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "grundylab", "cli.py")):
        print(f"error: no grundylab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.workload(args.workload, args.seed)
    inputs = workloads.write_inputs(ROOT, args.workload, args.seed)
    bench = Bench(wl, inputs, load_expected(args.workload, args.seed), run_started + RUN_LIMIT_S)
    ctx = context()
    print(f"# workload {wl.name} (seed {args.seed}: {wl.seed_use}): {wl.why}")
    print(f"# context {json.dumps(ctx, sort_keys=True)}")
    for op in wl.ops:
        print(f"#   op {op.name}: {op.kind} {' '.join(op.argv)} (cache {op.cache})")

    check_import()
    plain: list[list[OpRun]] = []
    traced: list[list[OpRun]] = []
    started = time.perf_counter()
    if args.trace:
        while True:
            plain.append(bench.run_pass(traced=False))
            traced.append(bench.run_pass(traced=True))
            if not keep_going(started, run_started, len(plain), args.seconds):
                break
    else:
        deadline = min(started + args.seconds, run_started + RUN_LIMIT_S)
        while time.perf_counter() < deadline:
            plain.append(bench.run_pass(traced=False, deadline=deadline))

    if args.trace:
        metrics = per_layer(bench, plain, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        moves = {name: m for name, _, m in PER_LAYER}
        print(f"# per-layer metrics, {len(traced)} traced pass(es) (self times summed over one pass):")
        for name, value in metrics.items():
            print(f"#   {name}: {value} {units[name]}  -> {moves[name]}")
    else:
        metrics = end_to_end(bench.setup, plain)
        units = dict(END_TO_END)
        print(f"# end-to-end metrics over {len(plain)} pass(es):")
        print(summarize("fresh import grundylab.cli", bench.setup, "s"))
        for field, label, unit in (("wall_s", "wall", "s"), ("cpu_s", "cpu", "s"), ("rss_mb", "max rss", "MB")):
            for i, op in enumerate(wl.ops):
                print(summarize(f"{op.name} {label}", [getattr(p[i], field) for p in plain if i < len(p)], unit))
        for name, unit in END_TO_END:
            print(f"#   {name} = {metrics[name]:.6f} {unit}")
    print(f"#   fail_frac = {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.4f} (1)")
    for problem in bench.problems[:20]:
        print(f"# FAILED {problem}")

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "context": ctx, "metrics": metrics, "problems": bench.problems,
        "ops": [op.__dict__ for op in wl.ops],
        "setup_samples": bench.setup,
        "passes": [[{k: getattr(r, k) for k in ("wall_s", "cpu_s", "rss_mb", "status")} for r in p]
                   for p in plain],
        "traces": [[r.trace for r in p] for p in traced],
    }
    with open(os.path.join(OUT, f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
