"""Check that the traced run's counts repeat exactly for one seed.

    python3 perfbench/determinism_check.py [workload ...]

Runs ``run.py --trace 1`` twice per workload (all workloads by default)
with the same seed, each in its own process, and compares every per-layer
count: ``.calls``, ``.iterations``, ``.bytes`` and ``.bytes_computed``.
It also checks that each traced run reports exactly the ``per_layer``
metrics of BENCHMARK.json and that its outputs passed their checks.
Exits 1 on any difference.  A run takes about a minute per workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".iterations", ".bytes", ".bytes_computed")
SEED = 7


def traced_run(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]}
    counts = sorted(n for n in wanted if n.endswith(COUNT_SUFFIXES))
    problems = []
    for workload in argv or [w["name"] for w in spec["workloads"]]:
        first, second = traced_run(workload), traced_run(workload)
        for label, run in (("first", first), ("second", second)):
            if set(run["metrics"]) != wanted:
                problems.append(f"{workload}: {label} run reports "
                                f"{sorted(set(run['metrics']) ^ wanted)} "
                                "differently from BENCHMARK.json")
            if not run["correct"]:
                problems.append(f"{workload}: {label} run failed a check")
        differ = [n for n in counts if first["metrics"][n]["value"]
                  != second["metrics"][n]["value"]]
        for n in differ:
            problems.append(f"{workload}: {n} = "
                            f"{first['metrics'][n]['value']} then "
                            f"{second['metrics'][n]['value']}")
        print(f"{workload}: {len(counts) - len(differ)} of {len(counts)} "
              "counts repeat", flush=True)
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
