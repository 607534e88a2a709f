"""Acceptance suite.

One test per shipped criterion, each printing a PASS/FAIL line (run
with ``pytest -s`` to see them) and enforcing its runtime budget. The
dataset-dependent criterion skips, rather than fails, when the public
benchmark files are not present; point ``ALMSVM_DATA`` at a directory
containing them (LIBSVM text format) to enable it.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from almsvm.alm import (
    alm_solve,
    build_svc,
    build_svr,
    make_subproblem_oracle,
    prox_eps,
    prox_hinge,
)
from almsvm.cli import main
from almsvm.data_io import load_libsvm, normalize_labels, split, write_libsvm
from almsvm.metrics import Model, accuracy, mse
from almsvm.newton import newton_solve
from almsvm.synthetic import svc_blobs, svr_linear

from conftest import bundled_instances
from oracles import (fd_gradient, hess_vec_way2, phi_value, prox_oracle,
                     subgradient_solve)


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s")
    assert elapsed < budget_seconds, (
        f"criterion {num} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


def test_criterion_1_prox_oracle_equivalence():
    """Closed-form proximal maps agree with breakpoint enumeration to
    1e-12 on 10,001-point grids for 20 random parameter settings."""
    with criterion(1, "prox oracle equivalence", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            c = float(rng.uniform(0.05, 5.0))
            m = float(rng.uniform(0.05, 5.0))
            eps = float(rng.uniform(0.0, 1.5))
            span = 3.0 * c * m + 3.0 * eps + 1.0
            z = np.linspace(-span, span, 10_001)
            np.testing.assert_allclose(
                prox_hinge(z, c, m), prox_oracle(z, c, m), atol=1e-12
            )
            np.testing.assert_allclose(
                prox_eps(z, c, m, eps), prox_oracle(z, c, m, eps), atol=1e-12
            )


def test_criterion_2_gradient_correctness():
    """Analytic subproblem gradients match central differences to 1e-6
    relative at 20 random non-breakpoint points, both tasks."""
    with criterion(2, "gradient correctness", 5.0):
        rng = np.random.default_rng(7)
        sigma = 0.7
        for task in ("svc", "svr"):
            if task == "svc":
                data = svc_blobs(50, 8, separation=1.0, scale=1.0, seed=1)
                problem = build_svc(data, 550.0 / 50)
                breaks = np.array([0.0, problem.penalty.C / sigma])
                lam = rng.uniform(0.0, problem.penalty.C, size=50)
            else:
                data = svr_linear(50, 8, noise=0.3, seed=1)
                problem = build_svr(data, 5.0 / 8, 0.1)
                cm = problem.penalty.C / sigma
                breaks = np.array([0.1, 0.1 + cm, -0.1, -0.1 - cm])
                lam = rng.uniform(-problem.penalty.C, problem.penalty.C, size=50)
            checked = 0
            while checked < 20:
                w = rng.normal(size=8)
                z = problem.B.matvec(w) + problem.d + lam / sigma
                if np.min(np.abs(z[:, None] - breaks[None, :])) < 1e-4:
                    continue
                checked += 1
                sub = make_subproblem_oracle(problem, lam, sigma)
                sub.reset(w)
                g = sub.grad()
                g_fd = fd_gradient(
                    lambda v: phi_value(problem, v, lam, sigma), w
                )
                np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)


def test_criterion_3_hessian_equivalence_and_definiteness():
    """The row-restricted Hessian product equals the unrestricted
    diagonal formula to 1e-10 relative and satisfies <h,Vh> >= |h|^2
    over 100 random (w, h) pairs."""
    with criterion(3, "hessian-vector equivalence", 5.0):
        rng = np.random.default_rng(11)
        data = svc_blobs(40, 9, separation=1.0, scale=1.0, seed=2)
        problem = build_svc(data, 550.0 / 40)
        sigma = 0.6
        sub = make_subproblem_oracle(problem, np.zeros(problem.m), sigma)
        for _ in range(100):
            sub.reset(rng.normal(size=9))
            h = rng.normal(size=9)
            sub.grad()
            size = sub.linearize()
            rows = problem.penalty.split(sub.z, sigma)[0]
            assert size == rows.size
            u = np.ones(problem.m)
            u[rows] = 0.0
            v3 = sub.hvp(h)
            v2 = hess_vec_way2(problem, u, h, sigma)
            np.testing.assert_allclose(v3, v2, rtol=1e-10, atol=1e-12)
            assert float(h @ v3) >= float(h @ h) - 1e-10


def test_criterion_4_fast_local_convergence():
    """On a dense 40 x 500 instance the last three Newton residuals
    decay superlinearly: |g_{j+1}| <= max(1e-12, |g_j|^1.3)."""
    with criterion(4, "fast local convergence", 10.0):
        data = svc_blobs(40, 500, separation=2.0, scale=1.0, seed=3)
        for c_scale in (550.0, 1000.0):
            problem = build_svc(data, c_scale / 40)
            oracle = make_subproblem_oracle(problem, np.zeros(40), 0.15)
            _, stats = newton_solve(oracle, np.ones(500), 1e-11, 100)
            tail = stats.grad_norms[-3:]
            assert len(tail) == 3, "need at least three Newton residuals"
            for a, b in zip(tail, tail[1:]):
                assert b <= max(1e-12, a ** 1.3), (
                    f"tail {tail} not superlinear at C={c_scale}/m"
                )


def test_criterion_5_optimality_certification():
    """Every bundled instance certifies KKT <= 1e-6 and relative duality
    gap <= 1e-4 with default settings within ten outer iterations."""
    with criterion(5, "optimality certification", 60.0):
        for inst in bundled_instances():
            problem = inst.build()
            _, report = alm_solve(problem)
            assert report.k <= 10
            assert report.kkt_residual <= 1e-6, (
                f"{inst.name}: kkt={report.kkt_residual:.3e}"
            )
            assert report.duality_gap_rel <= 1e-4, (
                f"{inst.name}: gap={report.duality_gap_rel:.3e}"
            )


def test_criterion_6_active_set_sparsity():
    """On the 5000 x 123 sparse instance the active set never exceeds
    5% of the rows during the first outer loop."""
    with criterion(6, "active-set sparsity", 30.0):
        inst = next(i for i in bundled_instances() if i.name == "gap5000x123")
        data = inst.make()
        assert data.m == 5000 and data.n_features == 123
        nnz = sum(len(s) for s, _ in data.samples)
        assert abs(nnz / (data.m * data.n_features) - 0.11) < 0.01
        problem = build_svc(data, 550.0 / data.m)
        _, report = alm_solve(problem)
        first_loop = report.outer[0].newton.active_set_sizes
        ratio = max(first_loop) / data.m
        assert ratio <= 0.05, f"max |I|/m = {ratio:.4f} in first loop"


_DATASET_BANDS = {
    "heart": (85.185, 4.0),
    "australian": (86.232, 4.0),
    "breast-cancer": (99.270, 1.0),
    "ionosphere": (98.592, 2.0),
}


def _find_dataset(name):
    root = Path(os.environ.get("ALMSVM_DATA", Path(__file__).parent.parent / "data"))
    for candidate in (name, f"{name}.libsvm", f"{name}_scale", f"{name}.txt"):
        path = root / candidate
        if path.is_file():
            return path
    return None


def test_criterion_7_public_benchmark_bands():
    """Accuracy/mse on the public benchmark files falls inside the
    published bands; skipped when the files are not available."""
    found = {n: _find_dataset(n) for n in _DATASET_BANDS}
    housing = _find_dataset("housing")
    if not any(found.values()) and housing is None:
        pytest.skip("benchmark datasets not present (set ALMSVM_DATA)")
    with criterion(7, "public benchmark bands", 120.0):
        for name, path in found.items():
            if path is None:
                continue
            data, label_map = normalize_labels(load_libsvm(path))
            train, test = split(data, 0.8, seed=42)
            problem = build_svc(train, 550.0 / train.m)
            w, report = alm_solve(problem)
            model = Model(w=w, task="svc", label_map=label_map,
                          c_used=problem.penalty.C)
            acc = accuracy(model, test)
            center, width = _DATASET_BANDS[name]
            assert abs(acc - center) <= width, f"{name}: accuracy {acc:.3f}"
            print(f"  {name}: accuracy={acc:.3f} (band {center}+-{width})")
        if housing is not None:
            data = load_libsvm(housing)
            train, test = split(data, 0.8, seed=42)
            problem = build_svr(train, 5.0 / train.n_features, 0.1)
            w, report = alm_solve(problem)
            model = Model(w=w, task="svr", eps_used=0.1, c_used=problem.penalty.C)
            err = mse(model, test)
            assert err <= 134.79 * 1.3, f"housing: mse {err:.2f}"
            print(f"  housing: mse={err:.2f} (bound {134.79 * 1.3:.2f})")


def test_criterion_8_baseline_dominance():
    """The solver's objective is never worse than the subgradient
    baseline's best iterate by more than 1e-6."""
    with criterion(8, "baseline dominance", 60.0):
        for inst in bundled_instances():
            problem = inst.build()
            w, report = alm_solve(problem)
            _, best = subgradient_solve(problem, iters=2000, step0=0.5)
            assert report.objective <= best + 1e-6, (
                f"{inst.name}: alm={report.objective:.8f} subgrad={best:.8f}"
            )


def test_criterion_9_bench_determinism(tmp_path, capsys):
    """Two bench invocations with identical flags produce identical CSV
    rows apart from the timing column."""
    with criterion(9, "bench determinism", 30.0):
        data = svc_blobs(200, 10, separation=8.0, scale=1.5, seed=7)
        path = tmp_path / "blobs.libsvm"
        write_libsvm(data, path)
        args = ["bench", "--data", str(path), "--task", "svc",
                "--split", "0.8", "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out.splitlines()
        assert main(args) == 0
        second = capsys.readouterr().out.splitlines()

        def strip_time(line):
            parts = line.split(",")
            if len(parts) == 6:
                parts[4] = ""
            return ",".join(parts)

        assert len(first) == len(second) == 2
        assert [strip_time(r) for r in first] == [strip_time(r) for r in second]
