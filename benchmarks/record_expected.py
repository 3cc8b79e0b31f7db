"""Record the stdout digest of every benchmark op into expected.json.

    python3 benchmarks/record_expected.py

Runs each workload once for each shipped seed.  An op is recorded only when
its independent check in `checks.py` passes.  Ops whose input does not depend
on the seed are stored under "any"; the others under the seed.  Outputs are
meant to stay byte-identical, so re-record only after a deliberate change of
an op or of an output format.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    recorded: dict = {}
    for name in workloads.WORKLOAD_NAMES:
        for seed in workloads.SHIPPED_SEEDS:
            wl = workloads.workload(name, seed)
            inputs = workloads.write_inputs(run.ROOT, name, seed)
            bench = run.Bench(wl, inputs, expected={})
            runs = bench.run_pass(traced=False)
            if bench.failed:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            for r in runs:
                key = str(seed) if r.op.input or r.op.kind == "oracle" else "any"
                by_seed = recorded.setdefault(name, {}).setdefault(r.op.name, {})
                got = checks.digest(r.stdout)
                if by_seed.setdefault(key, got) != got:
                    print(f"{name} {r.op.name}: output changes with the seed", file=sys.stderr)
                    return 1
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
