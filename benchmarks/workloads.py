"""The benchmark's workloads: which operations each one runs, and the seeded
inputs those operations read.

An operation ("op") is one fresh-interpreter run, either of the grundylab
command line (`python -m grundylab.cli ...`) or of the benchmark's own oracle
driver (`oracle_driver.py`).  Every input a workload generates is a pure
function of the workload name and the seed, and it is written to a path that
depends only on those two, because `grundy` echoes its poset spec (and so the
path) in its `# poset:` metadata line.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
HOLDOUT_SEED = 2
SHIPPED_SEEDS = (DEFAULT_SEED, HOLDOUT_SEED)

OUT_DIR = ".bench_out"
INPUT_DIR = os.path.join(OUT_DIR, "inputs")

# solve: 6 ranks x 300 elements, each covering 3 random elements one rank down
LAYERED_RANKS = 6
LAYERED_WIDTH = 300
LAYERED_FANIN = 3
# build: a random cover DAG on 1000 elements
DAG_ELEMENTS = 1000
DAG_MAX_FANIN = 3
DAG_WINDOW = 60


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    `kind` is "cli" (argv goes to `python -m grundylab.cli`) or "oracle"
    (argv goes to the oracle driver).  `cache` is "off" (no cache directory
    in the child environment), "cold" (a fresh, empty cache directory for
    this repetition) or "warm" (the directory the preceding cold ops of the
    same repetition filled).  `check` names an independent output check in
    `checks.py`, or is empty when the recorded digest is the only check;
    `input` names the generated poset the op reads and the check uses.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    cache: str = "off"
    check: str = ""
    input: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_use: str
    ops: tuple[Op, ...]


def layered_poset(seed: int) -> dict:
    """Graded DAG: element r*W+i at rank r covers LAYERED_FANIN distinct
    random elements of rank r-1.  Edges run from lower to higher ids."""
    rng = random.Random(f"layered:{seed}")
    covers = []
    for r in range(1, LAYERED_RANKS):
        below = range((r - 1) * LAYERED_WIDTH, r * LAYERED_WIDTH)
        for i in range(LAYERED_WIDTH):
            j = r * LAYERED_WIDTH + i
            covers.extend([k, j] for k in sorted(rng.sample(below, LAYERED_FANIN)))
    return {"n": LAYERED_RANKS * LAYERED_WIDTH, "covers": covers}


def random_cover_dag(seed: int) -> dict:
    """Element j > 0 sits above 1..DAG_MAX_FANIN random elements among the
    DAG_WINDOW ids before it; edges run from lower to higher ids."""
    rng = random.Random(f"dag:{seed}")
    covers = []
    for j in range(1, DAG_ELEMENTS):
        lo = max(0, j - DAG_WINDOW)
        k = min(j - lo, rng.randint(1, DAG_MAX_FANIN))
        covers.extend([i, j] for i in sorted(rng.sample(range(lo, j), k)))
    return {"n": DAG_ELEMENTS, "covers": covers}


def input_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def input_path(workload: str, seed: int, name: str) -> str:
    """Relative to the checkout root, which is every child's working
    directory."""
    return os.path.join(INPUT_DIR, f"{workload}-seed{seed}-{name}.json")


GENERATORS = {"layered": layered_poset, "dag": random_cover_dag}
WORKLOAD_INPUTS = {"solve": ("layered",), "build": ("dag",)}


def write_inputs(root: str, workload: str, seed: int) -> dict[str, dict]:
    """Write the workload's generated inputs under `root` and return them by
    generator name."""
    made = {}
    for name in WORKLOAD_INPUTS.get(workload, ()):
        obj = GENERATORS[name](seed)
        path = os.path.join(root, input_path(workload, seed, name))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(input_text(obj))
        made[name] = obj
    return made


def workload(name: str, seed: int) -> Workload:
    if name == "tables":
        hn = ("tables", "hn", "--max", "14")
        asm = ("tables", "asm-ruler", "--n", "14")
        return Workload(
            "tables",
            "the h(n) recurrence in partitions and the cold/warm pickle cache of the CLI tables",
            "seed unused: the tables are fixed",
            (
                Op("hn-cold", "cli", hn, cache="cold", check="hn"),
                Op("asm-ruler-cold", "cli", asm, cache="cold"),
                Op("hn-warm", "cli", hn, cache="warm", check="hn"),
                Op("asm-ruler-warm", "cli", asm, cache="warm"),
            ),
        )
    if name == "solve":
        spec = "file:" + input_path("solve", seed, "layered")
        return Workload(
            "solve",
            "turning-family build and per-element solve in games, on long intervals and on 2-sets",
            "seed picks the covers of the layered poset",
            (
                Op("setpartitions8-ruler", "cli", ("grundy", "setpartitions:8", "ruler")),
                Op("asm14-ruler", "cli", ("grundy", "asm:14", "ruler")),
                Op("layered-ruler", "cli", ("grundy", spec, "ruler"), check="ruler", input="layered"),
                Op("layered-tt", "cli", ("grundy", spec, "tt"), check="tt", input="layered"),
            ),
        )
    if name == "build":
        spec = "file:" + input_path("build", seed, "dag")
        return Workload(
            "build",
            "poset construction in families, gf and poset; the ideal family leaves games little to do",
            "seed picks the covers of the random DAG",
            (
                Op("subspaces5q2-ideal", "cli", ("grundy", "subspaces:5:2", "ideal")),
                Op("subspaces4q3-ideal", "cli", ("grundy", "subspaces:4:3", "ideal")),
                Op("asm20-ideal", "cli", ("grundy", "asm:20", "ideal")),
                Op("setpartitions8-ideal", "cli", ("grundy", "setpartitions:8", "ideal")),
                Op("dag-ideal", "cli", ("grundy", spec, "ideal"), check="ideal", input="dag"),
            ),
        )
    if name == "oracle":
        return Workload(
            "oracle",
            "the nimber inductive oracles, the brute-force game search and closedforms",
            "seed picks the random posets the oracle driver brute-forces",
            (
                Op("verify-all", "cli", ("verify", "all"), check="verify"),
                Op("oracle-driver", "oracle", ("--seed", str(seed)), check="oracle"),
            ),
        )
    raise KeyError(name)


WORKLOAD_NAMES = ("tables", "solve", "build", "oracle")
