#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py [--seconds 1]

For every workload it checks that

1. two traced runs of the same seed report exactly equal counts;
2. the layer self times account for the traced wall time: the time no
   program span covers (``trace.unattributed_frac``) stays below
   ``UNATTRIBUTED_MAX``;
3. the untraced output names every end-to-end metric of BENCHMARK.json
   and the traced output every per-layer metric, all operations pass
   their checks, and the last line is the result object.

Exits 0 when every check holds.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNATTRIBUTED_MAX = 0.02
COUNTS = (
    "alm.outer_iters", "newton.iters", "newton.cg_iters", "newton.value_calls",
    "newton.backtracks", "newton.cap_hits", "prox.calls", "metrics.predict.calls",
    "sparse.matvec.calls", "sparse.matvec.nnz", "sparse.matvec_t.calls",
    "sparse.matvec_t.nnz", "sparse.restricted_normal_apply.calls",
    "sparse.restricted_normal_apply.nnz",
)


def run(workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description="self-test of the benchmark")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        plain = run(wl, 0, args.seconds)
        first, second = run(wl, 1, args.seconds), run(wl, 1, args.seconds)
        for res, kind in ((plain, "end_to_end"), (first, "per_layer"), (second, "per_layer")):
            missing = {m["name"] for m in spec[kind]} - set(res["metrics"])
            if missing:
                problems.append(f"{wl}: {kind} metrics missing: {sorted(missing)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{wl}: {res['failed']} of {res['attempted']} operations failed")
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{wl}: {name} differs between traced runs: {a} vs {b}")
        for res in (first, second):
            frac = res["metrics"]["trace.unattributed_frac"]["value"]
            if not frac <= UNATTRIBUTED_MAX:
                problems.append(f"{wl}: {frac:.4f} of traced time outside the layers")
        print(f"{wl}: checked, overhead_frac="
              f"{first['metrics']['trace.overhead_frac']['value']:.3f}", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
