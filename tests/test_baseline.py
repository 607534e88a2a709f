"""The oracles themselves: breakpoint prox, finite differences,
subgradient reference, unrestricted Hessian-vector mirror."""

import numpy as np
import pytest

from almsvm.alm import build_svc, make_subproblem_oracle
from almsvm.data_io import Dataset

from conftest import random_problem
from oracles import fd_gradient, hess_vec_way2, prox_oracle, subgradient_solve


class TestProxOracle:
    def test_hinge_above_kink(self):
        # piece s >= 0 minimized at z - C*M = 1, beats the clamped s = 0
        assert prox_oracle(2.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_hinge_flat_region(self):
        assert prox_oracle(0.5, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_eps_lower_shoulder(self):
        assert prox_oracle(-0.5, 1.0, 1.0, eps=0.1) == pytest.approx(-0.1, abs=1e-15)

    def test_array_input(self):
        out = prox_oracle(np.array([2.0, 0.5, -0.25]), 1.0, 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0, -0.25], atol=1e-15)


class TestFdGradient:
    def test_quadratic(self):
        g = fd_gradient(lambda w: 0.5 * float(w @ w), np.array([3.0, -4.0]))
        np.testing.assert_allclose(g, [3.0, -4.0], atol=1e-8)

    def test_constant(self):
        g = fd_gradient(lambda w: 7.5, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_random_quadratic_against_analytic(self, rng):
        a = rng.normal(size=(4, 4))
        q = a.T @ a
        b = rng.normal(size=4)
        w = rng.normal(size=4)
        g = fd_gradient(lambda v: 0.5 * float(v @ q @ v) + float(b @ v), w)
        np.testing.assert_allclose(g, q @ w + b, rtol=1e-6, atol=1e-8)


def _one_sample_problem(C=1.0):
    # single sample x = 1, y = +1
    data = Dataset([(np.array([0]), np.array([1.0]))], np.array([1.0]), 1)
    return build_svc(data, C)


class TestSubgradientSolve:
    def test_tiny_c_shrinks_w(self):
        p = random_problem(seed=3, C=1e-8)
        w, _ = subgradient_solve(p, iters=500, step0=0.5)
        assert np.linalg.norm(w) < 1e-3

    def test_one_dimensional_analytic_optimum(self):
        # min 0.5 w^2 + max(1 - w, 0) has optimum w* = 1, value 0.5
        p = _one_sample_problem()
        _, best = subgradient_solve(p, iters=10_000, step0=1.0)
        assert best == pytest.approx(0.5, abs=1e-3)
        assert best >= 0.5 - 1e-12

    def test_best_objective_is_monotone_floor(self, rng):
        p = random_problem(seed=5)
        _, best_short = subgradient_solve(p, iters=50, step0=0.5)
        _, best_long = subgradient_solve(p, iters=500, step0=0.5)
        assert best_long <= best_short + 1e-15


class TestHessVecWay2:
    def test_all_ones_selection_is_identity(self, rng):
        p = random_problem(seed=7)
        h = rng.normal(size=p.n)
        out = hess_vec_way2(p, np.ones(p.m), h, sigma=0.7)
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_all_zeros_selection_is_full_normal_matrix(self, rng):
        p = random_problem(seed=7)
        h = rng.normal(size=p.n)
        out = hess_vec_way2(p, np.zeros(p.m), h, sigma=0.7)
        dense = p.B.to_dense()
        np.testing.assert_allclose(out, h + 0.7 * dense.T @ (dense @ h),
                                   rtol=1e-10, atol=1e-12)

    def test_matches_restricted_path(self, rng):
        p = random_problem(seed=9, m=15, n=6)
        sigma = 0.45
        sub = make_subproblem_oracle(p, np.zeros(p.m), sigma)
        for _ in range(10):
            sub.reset(rng.normal(size=p.n))
            h = rng.normal(size=p.n)
            sub.grad()
            sub.linearize()
            u = np.ones(p.m)
            u[p.penalty.split(sub.z, sigma)[0]] = 0.0
            np.testing.assert_allclose(
                sub.hvp(h), hess_vec_way2(p, u, h, sigma),
                rtol=1e-10, atol=1e-12,
            )
