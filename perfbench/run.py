#!/usr/bin/env python3
"""Benchmark of almsvm: one workload per run, measured from outside.

Run from the repository root:

    python3 perfbench/run.py --workload svc_sparse_lowactive --seed 0 \\
        --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's public functions in spans and prints the per-layer metrics,
writing the spans to ``.perfbench_out/``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The program is imported from ``src/`` next to this
directory; without it the run fails before measuring anything.

All load comes from this one process and thread, a closed loop: a pass
runs the operation once on each of the workload's generated problems,
and passes repeat until ``--seconds`` would be exceeded (at least one),
after one untimed warm-up operation. End-to-end timings are scaled to a
reference host speed with the probe in ``hostspeed.py``; the wall-clock
figures are printed before the result.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib import metadata
from pathlib import Path

# pinned before numpy is first imported, here or in a child interpreter
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set-up is timed SETUP_REPS times before the first operation and once
# after every operation, so that its samples spread over the run
SETUP_REPS = 3
# numpy probes after every operation, for the run's numpy host factor
NUMPY_PROBES = 3
# a traced run covers the first problems only, each once untraced and once
# traced per round
TRACE_PROBLEMS = 2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import almsvm.cli; "
    "print(repr(time.perf_counter() - t))"
)


def load_program():
    """Import almsvm from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "almsvm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no almsvm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import almsvm

    if Path(almsvm.__file__).resolve().parent != SRC / "almsvm":
        sys.exit(f"perfbench: almsvm was imported from {almsvm.__file__}")
    from almsvm import alm, cli, data_io, metrics, newton, sparse

    return {"alm": alm, "cli": cli, "data_io": data_io, "metrics": metrics,
            "newton": newton, "sparse": sparse}


def environment(seed):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip()
                for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(d / "type") != "Instruction":
            caches[f"L{read(d / 'level')}"] = read(d / "size")
    digest = hashlib.sha256()
    for f in sorted((SRC / "almsvm").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def import_seconds():
    """Time ``import almsvm.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def tail(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def run_op(problem, program=None, tracer=None, compare=False, between=None):
    """One operation; with a tracer it is traced and its spans carry the
    next operation id. ``compare`` marks the operations a traced run sets
    side by side: they include the set-up and score the held-out part once."""
    try:
        if tracer is None:
            if not compare:
                return problem.run(between=between)
            problem.prepare()
            return problem.run(reps=1)
        tracer.install(program)
        tracer.op += 1
        try:
            tracer.root("bench.prepare", problem.prepare)
            return problem.run(tracer, reps=1)
        finally:
            tracer.uninstall()
    except Exception as exc:  # one failed operation must not end the run
        return {"errors": [f"{type(exc).__name__}: {exc}"]}


def run_passes(problems, seconds, program=None, tracer=None, after_step=None,
               between=None):
    """Run operations until the next one would overrun ``seconds``.

    Returns passes ``(traced, [result per problem], [seconds per problem])``.
    Untraced, a round runs every problem once and is one pass. With a
    tracer, a round runs every problem once untraced and once traced, set-up
    included, and yields one pass of each; which side goes first alternates
    between problems and rounds, so that neither always meets the warmer
    state. The first round is always whole; a later one stops at the first
    problem whose latest step would no longer fit, so the last passes may
    cover only the first problems. ``after_step``, if given, is called after
    each problem's step.
    """
    modes = (False, True) if tracer else (False,)
    passes = []
    step_s = [0.0] * len(problems)
    start = time.perf_counter()
    for rnd in itertools.count():
        out = {m: ([], []) for m in modes}
        for j, p in enumerate(problems):
            if rnd and time.perf_counter() - start + step_s[j] > seconds:
                return passes + [(m, *out[m]) for m in modes if out[m][0]]
            t_step = time.perf_counter()
            for traced in (modes if (j + rnd) % 2 == 0 else modes[::-1]):
                t0 = time.perf_counter()
                out[traced][0].append(run_op(p, program, tracer if traced else None,
                                             compare=tracer is not None, between=between))
                out[traced][1].append(time.perf_counter() - t0)
            step_s[j] = time.perf_counter() - t_step
            if after_step:
                after_step()
        passes.extend((m, *out[m]) for m in modes)


def count_failures(problems, passes):
    """Mark each operation that failed, including a result that differs
    from the first result on the same problem (the program is deterministic)."""
    failed = 0
    for _traced, results, _seconds in passes:
        for j, r in enumerate(results):
            p, first = problems[j], passes[0][1][j]
            if not (r["errors"] or first["errors"]) and not np.array_equal(
                    r["w"], first["w"]):
                r["errors"].append("result differs between passes")
            for e in r["errors"]:
                print(f"FAIL {p.wl.name} problem {j} seed {p.seed}: {e}", file=sys.stderr)
            failed += bool(r["errors"])
    return failed


def describe(problems, passes):
    for j, p in enumerate(problems):
        r = passes[0][1][j]
        rep = r.get("report")
        if rep is None:
            continue
        print(f"problem {j} seed={p.seed} objective={rep.objective!r} "
              f"gap_rel={rep.duality_gap_rel:.3e} kkt={rep.kkt_residual:.3e} "
              f"k={rep.k} it_sn={rep.it_sn} it_cg={rep.it_cg} "
              f"acc_pct={r.get('acc_pct', float('nan')):.3f}")


def end_to_end(wl, problems, seconds):
    host = hostspeed.HostSpeed()
    # each set-up sample is scaled by the python probe timed just before it
    setup, setup_ref = [], []

    def time_setup():
        ref = hostspeed.REF_S["python"] / host.probe("python")
        t_import = import_seconds()
        t0 = time.perf_counter()
        problems[0].prepare()
        setup.append(t_import + time.perf_counter() - t0)
        setup_ref.append(setup[-1] * ref)

    def after_step():
        time_setup()
        for _ in range(NUMPY_PROBES):
            host.probe("numpy")

    for _ in range(SETUP_REPS):
        time_setup()
    for p in problems[1:]:
        p.prepare()
    # the first operation in a process runs markedly slower than later
    # ones; one untimed operation keeps that out of the timings
    run_op(problems[0])

    passes = run_passes(problems, seconds, after_step=after_step,
                        between=host.before_prediction)
    failed = count_failures(problems, passes)
    describe(problems, passes)

    def per_problem_median(samples):
        """Mean over problems of the median of each problem's samples over
        the run, ``samples(result)`` giving an operation's samples; an
        operation that failed its checks was still timed."""
        meds = []
        for j in range(len(problems)):
            vals = [v for _t, res, _s in passes if j < len(res) and "solve_s" in res[j]
                    for v in samples(res[j])]
            if vals:
                meds.append(statistics.median(vals))
        return statistics.fmean(meds) if meds else None

    wall = {"setup_s": statistics.median(setup)}
    for key in ("solve_s", "train_s", "predict_s"):
        wall[key] = per_problem_median(lambda r: r[key])
        vals = [v for _t, results, _s in passes for r in results for v in r.get(key, ())]
        print(f"{key}: samples={len(vals)} wall median={statistics.median(vals)} "
              f"tail={tail(vals) or 'n/a (fewer than 11 samples)'}")
    print(f"setup_s: samples={len(setup)} wall values={setup}")
    print(host.describe())
    print("wall " + json.dumps(wall))
    # timings are reported at the reference host speed (hostspeed.py): the
    # solve is numpy kernels; the rest of train, each prediction and each
    # set-up is interpreter-bound
    f_np, f_py = host.factor("numpy"), host.factor("python")
    py_ref = hostspeed.REF_S["python"]
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "solve_s": per_problem_median(lambda r: [s * f_np for s in r["solve_s"]]),
        "train_s": per_problem_median(lambda r: [
            s * f_np + (t - s) * f_py for s, t in zip(r["solve_s"], r["train_s"])]),
        "predict_s": per_problem_median(lambda r: [
            t * py_ref / p for t, p in zip(r["predict_s"], r["predict_probe_s"])]),
    }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, sum(len(r) for _t, r, _s in passes), failed


def per_layer(wl, problems, seconds, seed, env, program):
    from tracer import Tracer, layer_metrics

    # the tracemalloc operation also warms up, as in an untraced run
    alloc_mb = alloc_peak_mb(program, problems[0])
    tracer = Tracer()
    passes = run_passes(problems, seconds, program, tracer)
    failed = count_failures(problems, passes)
    # the first traced pass (operations 0..K-1) supplies the figures, so
    # counts repeat exactly
    spans = [s for s in tracer.spans if s[4] < len(problems)]
    layers = layer_metrics(spans, len(problems))
    layers["metrics.heldout_acc_pct"] = statistics.fmean(
        r["acc_pct"] for r in passes[0][1] if "acc_pct" in r)
    layers["alm.alloc_peak_mb"] = alloc_mb
    layers["trace.overhead_frac"] = (
        sum(sum(t) for traced, _r, t in passes if traced)
        / sum(sum(t) for traced, _r, t in passes if not traced) - 1.0)

    trace_path = OUT / f"trace-{wl.name}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": wl.name, "env": env,
        "span_fields": ["name", "start", "end", "parent", "op"],
        "spans": [s[:5] for s in spans],
        "metrics": layers,
    }))
    print(f"trace: {len(spans)} spans written to {trace_path.relative_to(ROOT)}")
    return layers, sum(len(r) for _t, r, _s in passes), failed


def alloc_peak_mb(program, problem):
    """Peak memory allocated inside one ``alm_solve`` call, by tracemalloc."""
    alm, cli = program["alm"], program["cli"]
    inner = {owner: owner.alm_solve for owner in (alm, cli)}
    peak = []

    def measured(owner):
        def solve(*args, **kwargs):
            tracemalloc.start()
            try:
                return inner[owner](*args, **kwargs)
            finally:
                peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return solve

    for owner in inner:
        owner.alm_solve = measured(owner)
    try:
        problem.prepare()
        problem.run(reps=1)
    finally:
        for owner, fn in inner.items():
            owner.alm_solve = fn
    return max(peak) / 2**20


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        count = min(wl.problems, TRACE_PROBLEMS) if args.trace else wl.problems
        problems = [workloads.Problem(wl, 1000 * args.seed + j, Path(workdir))
                    for j in range(count)]
        if args.trace:
            metrics, attempted, failed = per_layer(wl, problems, args.seconds, args.seed,
                                                   env, program)
        else:
            metrics, attempted, failed = end_to_end(wl, problems, args.seconds)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        value = metrics[m["name"]]
        print(f"{m['name']:48s} {'n/a' if value is None else f'{value:.6g}'} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
