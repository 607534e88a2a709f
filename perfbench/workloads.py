"""The benchmark's workloads: input generation, one operation, its checks.

Every input is generated by ``almsvm.synthetic`` from a seed; the program
receives only the generated data. Problem ``j`` of a run with seed ``s``
uses generator seed ``1000 * s + j``. Both workloads train a linear
SVC at the reference parameterization: ``C = 550 / m_train``,
``tol = 1e-6``, ``max_outer = 10`` (the library and CLI defaults).

The checks recompute what they need with plain numpy from the generated
arrays and the returned weights, never through almsvm.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from almsvm import alm, cli, data_io, metrics, synthetic

TRAIN_FRACTION = 0.8
REFERENCES = json.loads((Path(__file__).with_name("references.json")).read_text())
# A recorded objective may move by rounding-level changes to the solver;
# both objectives are within their duality gaps of the optimum.
OBJECTIVE_RTOL_FLOOR = 1e-6
MAX_GAP_REL = 1e-3
# scoring a held-out set takes milliseconds in-process and a fraction of a
# second through the CLI; each operation repeats it at least PREDICT_REPS
# times and for at least PREDICT_MIN_S, so that its samples spread over
# the run rather than over a moment of it
PREDICT_REPS = 3
PREDICT_MIN_S = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    via_cli: bool
    problems: int
    generate: Callable[[int], data_io.Dataset]
    min_acc_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "svc_sparse_lowactive", False, 12,
            lambda s: synthetic.svc_margin_gap(10000, 2000, density=0.02, seed=s),
            min_acc_pct=97.0,
        ),
        Workload(
            "cli_roundtrip", True, 4,
            lambda s: synthetic.svc_sparse_binary(50000, 1000, density=0.02, seed=s),
            min_acc_pct=92.0,
        ),
    )
}


class NumpyData:
    """CSR arrays of a sample list, built without almsvm."""

    def __init__(self, samples, labels):
        counts = np.fromiter((idx.size for idx, _ in samples), dtype=np.int64,
                             count=len(samples))
        self.m = len(samples)
        self.rows = np.repeat(np.arange(self.m), counts)
        self.cols = np.concatenate([idx for idx, _ in samples])
        self.vals = np.concatenate([v for _, v in samples])
        self.y = np.asarray(labels, dtype=np.float64)

    def scores(self, w):
        keep = self.cols < w.size
        return np.bincount(self.rows[keep], minlength=self.m,
                           weights=self.vals[keep] * w[self.cols[keep]])

    def objective(self, w, C):
        loss = np.maximum(1.0 - self.y * self.scores(w), 0.0)
        return 0.5 * float(w @ w) + C * float(loss.sum())


class Problem:
    """One generated input and the operation run on it.

    ``prepare`` is the program's set-up before the first timed operation;
    ``run`` trains and scores once and returns the outputs and the timing
    samples, a list per metric.
    """

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed = wl, seed
        data = wl.generate(seed)
        if wl.via_cli:
            cut = int(TRAIN_FRACTION * data.m)
            train = data_io.Dataset(data.samples[:cut], data.labels[:cut], data.n_features)
            test = data_io.Dataset(data.samples[cut:], data.labels[cut:], data.n_features)
            self.paths = {k: workdir / f"{seed}.{k}" for k in
                          ("train", "test", "model", "pred")}
            _write_libsvm(train, self.paths["train"])
            _write_libsvm(test, self.paths["test"])
            self.np_train = NumpyData(train.samples, train.labels)
            self.np_test = NumpyData(test.samples, test.labels)
            self.C = 550.0 / train.m
        else:
            self.data = data
            self.np_train = None
        self.state = None

    def prepare(self):
        if self.wl.via_cli:
            return
        train, test = data_io.split(self.data, TRAIN_FRACTION, self.seed)
        train, label_map = data_io.normalize_labels(train)
        self.state = (train, test, label_map)
        if self.np_train is None:
            self.np_train = NumpyData(train.samples, train.labels)
            self.np_test = NumpyData(test.samples, test.labels)
            self.C = 550.0 / train.m

    def run(self, tracer=None, reps=None, between=None):
        """One operation: train, then predict the held-out part, ``reps``
        times or, by default, as often as ``_repeat`` decides. ``between``,
        if given, is called right before each prediction and what it
        returns is kept in ``predict_probe_s``, one per prediction."""
        wrap = tracer.root if tracer else (lambda _name, fn, *a: fn(*a))
        if self.wl.via_cli:
            return self._run_cli(wrap, reps, between)
        return self._run_library(wrap, reps, between)

    def _run_library(self, wrap, reps, between):
        train, test, label_map = self.state
        clock = time.perf_counter

        def fit():
            t0 = clock()
            problem = alm.build_svc(train, self.C)
            t1 = clock()
            w, report = alm.alm_solve(problem)
            t2 = clock()
            model = metrics.Model(w=w, task="svc", label_map=label_map, c_used=self.C)
            return model, report, t0, t1, t2

        model, report, t0, t1, t2 = wrap("bench.train", fit)
        score, predict_s, probe_s = _repeat(
            lambda: wrap("bench.predict", metrics.accuracy, model, test), reps, between)
        out = {"train_s": [t2 - t0], "solve_s": [t2 - t1], "predict_s": predict_s,
               "predict_probe_s": probe_s, "w": model.w, "report": report}
        errors = self._check_solution(model.w, report)
        pred = np.where(self.np_test.scores(model.w) >= 0.0, 1.0, -1.0)
        out["acc_pct"] = 100.0 * float(np.mean(pred == self.np_test.y))
        if abs(out["acc_pct"] - score) > 100.0 / self.np_test.m:
            errors.append(f"accuracy {score} disagrees with numpy {out['acc_pct']}")
        out["errors"] = errors + self._check_quality(out["acc_pct"])
        return out

    def _run_cli(self, wrap, reps, between):
        p = self.paths
        clock = time.perf_counter
        probe = _SolveProbe()
        with probe.installed(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = clock()
            rc_train = wrap("bench.train", cli.main,
                            ["train", "--task", "svc", "--data", str(p["train"]),
                             "--model", str(p["model"])])
            t1 = clock()
            rc_pred, predict_s, probe_s = _repeat(
                lambda: wrap("bench.predict", cli.main,
                             ["predict", "--model", str(p["model"]),
                              "--data", str(p["test"]), "--output", str(p["pred"])]),
                reps, between)
        out = {"train_s": [t1 - t0], "solve_s": [probe.seconds], "predict_s": predict_s,
               "predict_probe_s": probe_s, "w": probe.w, "report": probe.report}
        if rc_train != 0 or rc_pred != 0 or probe.w is None:
            out["errors"] = [f"exit codes train={rc_train} predict={rc_pred}"]
            return out
        lines = p["model"].read_text().splitlines()
        w = np.array([float(v) for v in lines[1:]])
        errors = self._check_solution(w, probe.report)
        if not np.array_equal(w, probe.w):
            errors.append("model file weights differ from the solved weights")
        errors += self._check_predictions(w, p["pred"].read_text().splitlines(), out)
        out["errors"] = errors + self._check_quality(out.get("acc_pct", 0.0))
        return out

    def _check_predictions(self, w, lines, out):
        test = self.np_test
        if len(lines) != test.m:
            return [f"{len(lines)} prediction lines for {test.m} test samples"]
        pred = np.array([float(v) for v in lines])
        labels = np.unique(self.np_train.y)
        if not np.all(np.isin(pred, labels)):
            return ["predictions outside the original label space"]
        s = test.scores(w)
        expect = np.where(s >= 0.0, labels[-1], labels[0])
        clear = np.abs(s) > 1e-9
        out["acc_pct"] = 100.0 * float(np.mean(pred == test.y))
        if np.any(pred[clear] != expect[clear]):
            return ["predicted labels disagree with the model's scores"]
        return []

    def _check_solution(self, w, report):
        errors = []
        cert = (report.kkt_residual, report.duality_gap_rel, report.objective)
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(cert)):
            return ["non-finite weights or certificate"]
        obj = self.np_train.objective(w, self.C)
        if not abs(obj - report.objective) <= 1e-9 * (1.0 + abs(obj)):
            errors.append(f"reported objective {report.objective!r} != numpy {obj!r}")
        if not report.duality_gap_rel <= MAX_GAP_REL:
            errors.append(f"duality gap {report.duality_gap_rel:.3e} too large")
        ref = REFERENCES.get(self.wl.name, {}).get(str(self.seed))
        if ref is not None:
            rtol = max(OBJECTIVE_RTOL_FLOOR, 4.0 * ref["gap_rel"])
            if not abs(obj - ref["objective"]) <= rtol * (1.0 + abs(ref["objective"])):
                errors.append(f"objective {obj!r} off the reference {ref['objective']!r}")
        return errors

    def _check_quality(self, acc_pct):
        if acc_pct < self.wl.min_acc_pct:
            return [f"held-out accuracy {acc_pct:.2f}% below {self.wl.min_acc_pct}%"]
        return []


class _SolveProbe:
    """Times the one ``alm_solve`` inside ``alm-svm train`` and keeps its result.

    It replaces the name ``almsvm.cli.alm_solve`` for the duration of one
    operation; the CLI looks the function up there at call time.
    """

    def __init__(self):
        self.seconds, self.w, self.report = 0.0, None, None

    @contextlib.contextmanager
    def installed(self):
        inner = cli.alm_solve

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            w, report = inner(*args, **kwargs)
            self.seconds = time.perf_counter() - t0
            self.w, self.report = w, report
            return w, report

        cli.alm_solve = timed
        try:
            yield
        finally:
            cli.alm_solve = inner


def _repeat(fn, reps, between=None):
    """Call ``fn`` ``reps`` times, or when ``reps`` is None at least
    PREDICT_REPS times and for PREDICT_MIN_S in all, calling ``between``
    before each call; return the last result, the time of each call and
    what ``between`` returned before each."""
    times, before = [], []
    while True:
        if between:
            before.append(between())
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        if len(times) == reps or (reps is None and len(times) >= PREDICT_REPS
                                  and sum(times) >= PREDICT_MIN_S):
            return result, times, before


def _write_libsvm(d, path):
    with open(path, "w", encoding="utf-8") as f:
        for (idx, vals), y in zip(d.samples, d.labels):
            f.write(repr(float(y)))
            f.write("".join(f" {i + 1}:{v!r}" for i, v in zip(idx.tolist(), vals.tolist())))
            f.write("\n")
