"""Single-job cold timings of the ROADMAP baseline rows the workloads cover.

  python3 perfbench/cold_rows.py

Each sample is the first call of one job through the in-process CLI in a
fresh interpreter, exactly as the first closed-loop round of a run makes
it; the import row times ``import tatekit.cli`` alone.  Prints the median
and quartiles of each row next to the figure ROADMAP.md recorded by hand,
and flags a row whose median differs from that figure by more than the
spread seen here.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import workloads as W
from run import ROOT, child, fresh_dir

REPEATS = 7  # fresh interpreters per row
KLEIN = [(0, 1), (0, 2), (0, 3)]


def klein_scenario() -> dict:
    return {
        "theta": W.group("V4").payload(),
        "module": W.module("V4", "aug"),
        "places": [{"label": f"v{i + 1}", "decomposition_members": list(h)} for i, h in enumerate(KLEIN)],
    }


ROWS = [
    ("sha1, Klein scenario", 114.0, {"op": "sha1", "input": {"scenario": klein_scenario()}}),
    (
        "split-sim, Klein tower (n=2, alpha=[1])",
        1840.0,
        {
            "op": "split-sim",
            "input": {
                "scenario": klein_scenario(),
                "n": 2,
                "sigma": [{"label": f"v{g}", "generators": [[g, 1]]} for g in (1, 2, 3)],
                "alpha": [1],
            },
        },
    ),
    ("counterexample-local p=5", 8.0, {"op": "counterexample-local", "input": {"p": 5}}),
]

IMPORT = (
    "import time; t = time.perf_counter_ns(); import tatekit.cli; "
    "print(time.perf_counter_ns() - t)"
)


def spread(values) -> tuple[float, float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main() -> int:
    base = ROOT / ".perfbench-run" / "cold"
    shutil.rmtree(base, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    results = []
    samples = [
        int(subprocess.run([sys.executable, "-c", IMPORT], env=env, capture_output=True,
                           text=True, check=True, timeout=60).stdout) / 1e6
        for _ in range(REPEATS)
    ]
    results.append(("import tatekit.cli", 78.0, samples))
    for name, roadmap, job in ROWS:
        samples = []
        for k in range(REPEATS):
            work = fresh_dir(base / f"{len(results)}-{k}", json.dumps([job]))
            res = child("measure", work)["single"]
            if res["codes"] != [0]:
                print(f"{name}: exit code {res['codes']}", file=sys.stderr)
                return 1
            samples.append(res["first_ns"][0] / 1e6)  # the interpreter's first call: cold
        results.append((name, roadmap, samples))
    print(f"{'row':<42} {'q1':>9} {'median':>9} {'q3':>9} {'ROADMAP':>9}  ms, {REPEATS} fresh interpreters")
    for name, roadmap, samples in results:
        q1, med, q3 = spread(samples)
        differs = abs(med - roadmap) > max(q3 - q1, 1e-9)
        print(f"{name:<42} {q1:9.2f} {med:9.2f} {q3:9.2f} {roadmap:9.1f}"
              + ("  differs by more than the spread" if differs else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
