"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracle_driver  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from grundylab import games  # noqa: E402
from grundylab.poset import FinitePoset  # noqa: E402
from workloads import Op, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(root) -> dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_same_seed_gives_identical_inputs_and_another_seed_differs(tmp_path):
    for name in workloads.WORKLOAD_NAMES:
        workloads.write_inputs(str(tmp_path / "a"), name, 7)
        workloads.write_inputs(str(tmp_path / "b"), name, 7)
        workloads.write_inputs(str(tmp_path / "c"), name, 8)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a and a == b
    renamed = {k.replace("seed8", "seed7"): v for k, v in c.items()}
    assert renamed.keys() == a.keys()
    assert all(renamed[k] != a[k] for k in a)

    def masks(seed):
        return [[oracle_driver.random_poset(seed, n).down_mask(x) for x in range(n)]
                for n in oracle_driver.SIZES]

    assert masks(7) == masks(7) != masks(8)
    assert workloads.workload("oracle", 7) == workloads.workload("oracle", 7)
    assert workloads.workload("oracle", 7) != workloads.workload("oracle", 8)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = [n for n, _ in run.END_TO_END] + [n for n, _, _ in run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)


def test_wrong_expected_digest_raises_fail_frac():
    op = Op("phi", "cli", ("tables", "phi", "--max", "3"))
    wl = Workload("t", "test", "seed unused", (op,))
    good = run.Bench(wl, {}, {})
    out = good.run_pass(traced=False)[0].stdout
    assert good.failed == 0
    right = run.Bench(wl, {}, {"phi": checks.digest(out)})
    right.run_pass(traced=False)
    assert right.failed == 0 and right.attempted == 1
    wrong = run.Bench(wl, {}, {"phi": checks.digest(out + b" ")})
    wrong.run_pass(traced=False)
    assert wrong.failed / wrong.attempted > 0
    assert "digest" in wrong.problems[0]


def test_independent_checks_agree_with_the_solver_and_reject_a_wrong_value():
    rng = random.Random(5)
    for n in (1, 5, 9):
        covers = sorted(rng.sample([(i, j) for j in range(n) for i in range(j)], min(n, n * (n - 1) // 2)))
        poset = FinitePoset.from_covers(n, covers)
        for family, build in (("tt", games.turning_turtles), ("ideal", games.order_ideal_family),
                              ("ruler", games.ruler_family)):
            want = games.solve_elementwise(build(poset)).values
            assert checks.grundy_values(family, n, covers) == want, (family, n)
    inp = {"n": 3, "covers": [[0, 1], [1, 2]]}
    text = "# elements: 3\n# family: ruler\nelement_label  grundy\n0  1\n1  2\n2  1\n"
    assert checks.check_output("ruler", text, inp) == ""
    assert checks.check_output("ruler", text.replace("2  1", "2  3"), inp) != ""
    assert checks.check_output("ruler", text.replace("2  1\n", ""), inp) != ""
    assert checks.check_hn("# max: 3\nn  h\n1  1\n2  2\n3  1\n") == ""
    assert checks.check_hn("# max: 3\nn  h\n1  1\n2  2\n3  2\n") != ""


def test_self_times_of_each_op_add_up_to_its_root_span():
    wl = Workload("t", "test", "seed unused", (
        Op("subspaces", "cli", ("grundy", "subspaces:3:2", "ruler")),
        Op("hn", "cli", ("tables", "hn", "--max", "6")),
        Op("verify", "cli", ("verify", "ft")),
    ))
    bench = run.Bench(wl, {}, {})
    runs = bench.run_pass(traced=True)
    assert bench.failed == 0
    for r in runs:
        roots = [s for s in r.trace["spans"] if s[4] is None]
        assert [s[1] for s in roots] == ["cli.main"]
        total = sum(tracer.self_times(r.trace).values())
        assert math.isclose(total, roots[0][3] - roots[0][2], rel_tol=1e-9, abs_tol=1e-12)
    times, counts = run.layer_values(runs)
    span_total = sum(v for k, v in times.items() if k not in ("cli.main_s", "nimber.import_s"))
    assert math.isclose(span_total, times["cli.main_s"], rel_tol=1e-9)
    assert counts["gf.subspace_leq.calls"] > 0
    assert counts["partitions.multiplicity_M.calls"] > 0
    assert counts["games.brute_positions"] > 0
