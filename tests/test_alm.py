"""Problem assembly, subproblem calculus, the outer loop and its
optimality certificates."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from almsvm.alm import (
    CONVERGED,
    MAX_OUTER,
    NEWTON_MAXIT,
    EpsInsensitive,
    Hinge,
    Problem,
    SolverConfig,
    alm_solve,
    build_svc,
    build_svr,
    dual_objective,
    kkt_residual,
    make_subproblem_oracle,
    primal_objective,
)
from almsvm.data_io import Dataset
from almsvm.sparse import Samples
from almsvm.synthetic import svc_blobs, svr_linear

from conftest import bundled_instances, random_problem
from oracles import box_dual_optimum, fd_gradient, from_dense, phi_value, to_dense


def _dataset(rows, labels, n):
    samples = [
        (np.flatnonzero(r).astype(np.int64), np.asarray(r)[np.flatnonzero(r)])
        for r in rows
    ]
    return Dataset(samples, np.asarray(labels, dtype=np.float64), n)


def _one_sample(C=1.0):
    return build_svc(_dataset([[1.0]], [1.0], 1), C)


class TestBuild:
    def test_svc_positive_label(self):
        p = build_svc(_dataset([[2.0]], [1.0], 1), 1.0)
        np.testing.assert_array_equal(to_dense(p.B), [[-2.0]])
        np.testing.assert_array_equal(p.d, [1.0])

    def test_svc_negative_label(self):
        p = build_svc(_dataset([[2.0]], [-1.0], 1), 1.0)
        np.testing.assert_array_equal(to_dense(p.B), [[2.0]])

    def test_svc_random_against_dense_construction(self, rng):
        x = rng.normal(size=(3, 4))
        y = np.array([1.0, -1.0, 1.0])
        p = build_svc(_dataset(x, y, 4), 2.0)
        np.testing.assert_allclose(to_dense(p.B), -y[:, None] * x, rtol=1e-12)

    def test_svc_rejects_unnormalized_labels(self):
        with pytest.raises(ValueError, match="normalize"):
            build_svc(_dataset([[1.0]], [2.0], 1), 1.0)

    def test_svc_rejects_an_unchecked_sample_store(self):
        # Dataset and Samples check no row structure; building B does
        store = Samples.from_pairs([([2, 1], [1.0, 1.0])])
        with pytest.raises(ValueError, match="strictly increasing"):
            build_svc(Dataset(store, np.array([1.0]), 3), 1.0)

    def test_svr_layout(self, rng):
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=3)
        p = build_svr(_dataset(x, y, 4), 2.0, 0.1)
        np.testing.assert_allclose(to_dense(p.B), x, rtol=1e-12)
        np.testing.assert_allclose(p.d, -y, rtol=1e-12)

    def test_problem_validation(self, rng):
        B = from_dense(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            Problem(B=B, d=np.ones(2), penalty=Hinge(0.0))
        with pytest.raises(ValueError):
            Problem(B=B, d=np.ones(3), penalty=Hinge(1.0))
        with pytest.raises(ValueError):
            Problem(B=B, d=np.array([1.0, np.inf]), penalty=Hinge(1.0))
        with pytest.raises(ValueError):
            Problem(B=B, d=np.ones(2), penalty=EpsInsensitive(1.0, -0.1))
        # the builders pass C and eps to the penalty, which checks them
        data = _dataset([[1.0]], [1.0], 1)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="C must be"):
                build_svc(data, bad)
            with pytest.raises(ValueError, match="C must be"):
                build_svr(data, bad, 0.1)
            with pytest.raises(ValueError, match="eps must be"):
                build_svr(data, 1.0, bad)

    def test_builders_pick_the_penalty(self, rng):
        data = _dataset(rng.normal(size=(2, 2)), [1.0, -1.0], 2)
        svc = build_svc(data, 2.0).penalty
        svr = build_svr(data, 2.0, 0.3).penalty
        assert isinstance(svc, Hinge) and svc.box == (0.0, 2.0)
        assert isinstance(svr, EpsInsensitive) and svr.box == (-2.0, 2.0)
        lam = np.array([0.5, -1.5])
        assert svc.conjugate(lam) == 0.0
        assert svr.conjugate(lam) == pytest.approx(0.3 * 2.0)

    def test_solver_config_rejects_non_finite(self):
        for name in ("sigma0", "sigma_max", "tol"):
            for bad in (np.inf, np.nan):
                with pytest.raises(ValueError, match="finite"):
                    SolverConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", True])
    def test_solver_config_rejects_a_non_integer_max_outer(self, bad):
        # range() in alm_solve would otherwise fail with a bare TypeError
        with pytest.raises(ValueError, match="max_outer must be an integer"):
            SolverConfig(max_outer=bad)
        assert SolverConfig(max_outer=np.int64(3)).max_outer == 3


class TestObjectives:
    def test_svc_zero_weights_pay_full_loss(self, rng):
        p = random_problem(seed=1, m=9, n=4, C=0.7)
        assert primal_objective(p, np.zeros(p.n)) == pytest.approx(0.7 * 9)

    def test_svr_zero_weights(self, rng):
        data = svr_linear(6, 3, seed=2)
        p = build_svr(data, 0.5, 0.1)
        expected = 0.5 * np.maximum(np.abs(data.labels) - 0.1, 0.0).sum()
        assert primal_objective(p, np.zeros(3)) == pytest.approx(expected)

    def test_separating_weights_pay_only_regularization(self):
        data = svc_blobs(40, 5, separation=8.0, scale=0.5, seed=4)
        p = build_svc(data, 550.0 / 40)
        # scale a perfect separator until every margin clears one
        w = np.zeros(5)
        for (idx, vals), y in zip(data.samples, data.labels):
            w[idx] += y * vals
        w /= 40
        while np.min(-(p.B.matvec(w))) < 1.0:
            w *= 2.0
        assert primal_objective(p, w) == pytest.approx(0.5 * float(w @ w))

    def test_dual_at_zero_is_zero(self):
        for task in ("svc", "svr"):
            p = random_problem(seed=3, task=task)
            value, dist = dual_objective(p, np.zeros(p.m))
            assert value == 0.0 and dist == 0.0

    def test_dual_projection_identity_inside_box(self, rng):
        p = random_problem(seed=4, C=2.0)
        lam = rng.uniform(0.0, 2.0, size=p.m)
        _, dist = dual_objective(p, lam)
        assert dist == 0.0

    def test_dual_uses_a_passed_bt_only_inside_the_box(self, rng):
        for task in ("svc", "svr"):
            p = random_problem(seed=6, task=task, C=0.9)
            lam = rng.uniform(-2.0, 2.0, size=p.m)
            wrong = np.full(p.n, 1e3)
            value, dist = dual_objective(p, lam, bt=wrong)
            assert dist > 0.0
            assert (value, dist) == dual_objective(p, lam)
            inside = np.clip(lam, *p.penalty.box)
            assert (dual_objective(p, inside, bt=p.B.matvec_t(inside))
                    == dual_objective(p, inside))
            assert dual_objective(p, inside, bt=wrong) != dual_objective(p, inside)

    def test_weak_duality_sweep(self, rng):
        for task in ("svc", "svr"):
            p = random_problem(seed=5, task=task, C=0.9)
            primals = [primal_objective(p, rng.normal(size=p.n)) for _ in range(20)]
            floor = min(primals)
            for _ in range(20):
                lam = rng.normal(size=p.m) * 2.0
                value, _ = dual_objective(p, lam)
                assert value <= floor + 1e-12


class TestPhi:
    def test_unit_offset_value(self):
        # w = 0, lam = 0, sigma = 1, C = 2: each coordinate of z equals
        # one, the prox sits at zero, and phi collapses to m/2
        rng = np.random.default_rng(0)
        B = from_dense(rng.normal(size=(7, 3)))
        p = Problem(B=B, d=np.ones(7), penalty=Hinge(2.0))
        assert phi_value(p, np.zeros(3), np.zeros(7), 1.0) == pytest.approx(3.5)

    def test_nonnegative_at_origin(self):
        p = random_problem(seed=6)
        for sigma in (0.1, 1.0, 10.0):
            assert phi_value(p, np.zeros(p.n), np.zeros(p.m), sigma) >= 0.0

    def test_value_matches_joint_minimization_over_s(self, rng):
        # phi(w) must equal min_s of the full penalized Lagrangian
        p = random_problem(seed=7, m=6, n=3, C=1.1)
        sigma = 0.8
        lam = rng.uniform(0.0, 1.0, size=p.m)
        w = rng.normal(size=p.n)
        b = p.B.matvec(w) + p.d

        def coord_min(i):
            def obj(s):
                pen = p.penalty.C * max(s, 0.0)
                return pen - lam[i] * (s - b[i]) + 0.5 * sigma * (s - b[i]) ** 2

            span = abs(b[i]) + abs(lam[i]) / sigma + p.penalty.C / sigma + 2.0
            res = minimize_scalar(obj, bounds=(b[i] - span, b[i] + span),
                                  method="bounded", options={"xatol": 1e-12})
            return res.fun

        expected = 0.5 * float(w @ w) + sum(coord_min(i) for i in range(p.m))
        assert phi_value(p, w, lam, sigma) == pytest.approx(expected, abs=1e-8)

    def test_grad_matches_finite_differences(self, rng):
        for task in ("svc", "svr"):
            p = random_problem(seed=8, m=10, n=4, task=task, C=0.9)
            sigma = 0.7
            lam = rng.uniform(-0.2, 0.8, size=p.m)
            cm = p.penalty.C / sigma
            if task == "svc":
                breaks = np.array([0.0, cm])
            else:
                eps = p.penalty.eps
                breaks = np.array([eps, eps + cm, -eps, -eps - cm])
            found = 0
            while found < 5:
                w = rng.normal(size=p.n)
                z = p.B.matvec(w) + p.d + lam / sigma
                if np.min(np.abs(z[:, None] - breaks[None, :])) < 1e-4:
                    continue
                found += 1
                sub = make_subproblem_oracle(p, lam, sigma)
                sub.reset(w)
                g = sub.grad()
                g_fd = fd_gradient(lambda v: phi_value(p, v, lam, sigma), w)
                np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)

    def test_grad_vanishes_at_subproblem_solution(self):
        p = random_problem(seed=9, m=15, n=5)
        lam = np.full(p.m, 0.3)
        sigma = 0.6
        oracle = make_subproblem_oracle(p, lam, sigma)
        from almsvm.newton import newton_solve

        w, _ = newton_solve(oracle, np.ones(p.n), 1e-10, NEWTON_MAXIT)
        fresh = make_subproblem_oracle(p, lam, sigma)
        fresh.reset(w)
        assert np.linalg.norm(fresh.grad()) <= 1e-10

    def test_grad_reduces_to_w_when_all_margins_clear(self):
        data = svc_blobs(30, 4, separation=9.0, scale=0.3, seed=10)
        p = build_svc(data, 1.0)
        w = np.zeros(4)
        for (idx, vals), y in zip(data.samples, data.labels):
            w[idx] += y * vals
        while np.max(p.B.matvec(w) + p.d) >= 0.0:
            w *= 2.0
        sub = make_subproblem_oracle(p, np.zeros(p.m), 1.0)
        sub.reset(w)
        np.testing.assert_array_equal(sub.grad(), w)


class TestHessVec:
    def test_empty_active_set_is_identity(self, rng):
        # at w = 0, lam = 0 every z_i is 1, above C/sigma = 0.65
        p = random_problem(seed=11)
        sub = make_subproblem_oracle(p, np.zeros(p.m), 2.0)
        sub.reset(np.zeros(p.n))
        sub.grad()
        assert sub.linearize() == 0
        h = rng.normal(size=p.n)
        np.testing.assert_array_equal(sub.hvp(h), h)

    def test_uniform_lower_bound(self, rng):
        # V - I is positive semidefinite, so <h, Vh> >= |h|^2
        p = random_problem(seed=12, m=20, n=6)
        sub = make_subproblem_oracle(p, np.zeros(p.m), 0.8)
        for _ in range(20):
            sub.reset(rng.normal(size=p.n))
            sub.grad()
            sub.linearize()
            h = rng.normal(size=p.n)
            v = sub.hvp(h)
            assert float(h @ v) >= float(h @ h) - 1e-10

    def test_symmetry(self, rng):
        p = random_problem(seed=12, m=20, n=6)
        sub = make_subproblem_oracle(p, np.zeros(p.m), 0.8)
        for _ in range(10):
            sub.reset(rng.normal(size=p.n))
            sub.grad()
            assert sub.linearize() > 0
            u = rng.normal(size=p.n)
            v = rng.normal(size=p.n)
            lhs = float(u @ sub.hvp(v))
            rhs = float(sub.hvp(u) @ v)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestKktResidual:
    def test_analytic_one_sample_solution(self):
        # min 0.5 w^2 + C max(1 - w, 0): for C >= 1 the kink w = 1 wins
        # (left slope w - C <= 0, right slope w = 1 > 0); for C < 1 the
        # smooth branch gives w = C. Multiplier comes from w = lam.
        for C, w_star in [(1.0, 1.0), (0.4, 0.4)]:
            p = _one_sample(C)
            s_star = np.array([1.0 - w_star])
            lam_star = np.array([w_star])
            r1, r2, r3 = kkt_residual(p, np.array([w_star]), s_star, lam_star)
            assert max(r1, r2, r3) <= 1e-12

    def test_random_point_is_detectably_nonoptimal(self, rng):
        p = random_problem(seed=13)
        r = kkt_residual(p, rng.normal(size=p.n) + 2.0,
                         rng.normal(size=p.m), rng.normal(size=p.m))
        assert max(r) > 0.01

    def test_invariant_under_zero_feature_column(self, rng):
        p = random_problem(seed=14, m=6, n=3)
        w = rng.normal(size=3)
        s = rng.normal(size=6)
        lam = rng.uniform(0.0, 1.0, size=6)
        base = kkt_residual(p, w, s, lam)
        dense = np.hstack([to_dense(p.B), np.zeros((6, 1))])
        p2 = Problem(B=from_dense(dense), d=p.d, penalty=p.penalty)
        padded = kkt_residual(p2, np.append(w, 0.0), s, lam)
        np.testing.assert_allclose(padded, base, rtol=1e-12, atol=1e-15)

    def test_shared_bw_gives_bitwise_identical_certificate(self, rng):
        for task in ("svc", "svr"):
            p = random_problem(seed=21, m=15, n=5, task=task)
            w = rng.normal(size=p.n)
            s = rng.normal(size=p.m)
            lam = rng.uniform(-0.5, 1.0, size=p.m)
            bw = p.B.matvec(w)
            assert kkt_residual(p, w, s, lam, bw=bw) == kkt_residual(p, w, s, lam)
            assert primal_objective(p, w, bw=bw) == primal_objective(p, w)


class TestAlmSolve:
    def test_one_sample_analytic_convergence(self):
        # with a large penalty the multiplier step is nearly exact and
        # the known solution w = s + 1 = lam = 1 appears within three
        # outer iterations
        p = _one_sample(1.0)
        cfg = SolverConfig(sigma0=1e3, sigma_max=1e6, theta=0.5)
        w, report = alm_solve(p, cfg)
        assert report.k <= 3
        assert report.kkt_residual <= 1e-6
        assert w[0] == pytest.approx(1.0, abs=1e-4)

    def test_vanishing_c_gives_zero_weights(self):
        p = random_problem(seed=15, C=1e-12)
        w, report = alm_solve(p)
        assert np.linalg.norm(w) <= 1e-9
        assert report.kkt_residual <= 1e-6

    def test_separable_instance_certifies_and_classifies(self):
        data = svc_blobs(200, 10, separation=8.0, scale=1.5, seed=7)
        p = build_svc(data, 550.0 / data.m)
        w, report = alm_solve(p)
        assert report.kkt_residual <= 1e-6
        assert report.duality_gap_rel <= 1e-4
        assert report.status == CONVERGED
        assert report.warnings == []
        scores = np.array([w[idx] @ vals for idx, vals in data.samples])
        assert np.all(np.sign(scores) == data.labels)

    def test_weak_duality_along_the_run(self):
        p = random_problem(seed=16, m=30, n=6)
        _, report = alm_solve(p)
        for rec in report.outer:
            assert rec.primal - rec.dual >= -1e-8

    def test_sigma_monotone_and_capped(self):
        p = random_problem(seed=17)
        _, report = alm_solve(p, SolverConfig(max_outer=10))
        sig = [rec.sigma for rec in report.outer]
        assert all(b >= a for a, b in zip(sig, sig[1:]))
        assert sig[-1] <= 2.0 + 1e-15

    def test_inner_solves_hit_their_tolerances(self):
        p = random_problem(seed=18, m=25, n=5)
        _, report = alm_solve(p)
        if not report.warnings:
            for rec in report.outer:
                assert rec.newton.final_grad_norm <= rec.inner_tol

    def test_non_finite_state_raises_diverged(self, monkeypatch):
        import almsvm.alm as alm_mod

        p = random_problem(seed=20)
        monkeypatch.setattr(
            alm_mod, "prox_hinge", lambda z, C, M: np.full_like(z, np.nan)
        )
        with pytest.raises(alm_mod.DivergedError):
            alm_solve(p)

    def test_max_outer_status_warns(self):
        data = svc_blobs(200, 10, separation=8.0, scale=1.5, seed=7)
        _, report = alm_solve(build_svc(data, 550.0 / data.m),
                              SolverConfig(max_outer=2))
        assert report.k == 2
        assert report.kkt_residual > 1e-6
        assert report.status == MAX_OUTER
        assert any("max_outer=2" in w and "above tol" in w
                   for w in report.warnings)

    @pytest.mark.parametrize("name", ["blobs200x10", "svr500x50"])
    def test_converged_only_with_a_certified_gap(self, name):
        # a run cut after j outer iterations repeats the first j of the
        # full run; it reports converged exactly when the KKT residual is
        # within tol and the gap P - D within tol * (1 + |P|). On
        # blobs200x10 the KKT residual reaches tol two outer iterations
        # before the gap does
        p = next(i for i in bundled_instances() if i.name == name).build()
        tol = SolverConfig().tol
        _, full = alm_solve(p)
        assert full.status == CONVERGED
        kkt_only = 0
        for j in range(1, full.k + 1):
            _, report = alm_solve(p, SolverConfig(max_outer=j))
            last = report.outer[-1]
            kkt_ok = report.kkt_residual <= tol
            gap_ok = last.primal - last.dual <= tol * (1.0 + abs(last.primal))
            assert (report.status == CONVERGED) == (kkt_ok and gap_ok), j
            assert (report.status == CONVERGED) == (j == full.k), j
            kkt_only += kkt_ok and not gap_ok
        assert kkt_only == (2 if name == "blobs200x10" else 0)

    def test_bundled_iteration_counts_are_pinned(self):
        # k, it_sn and status from w = 0 with the ray step; blobs50x2
        # reaches KKT 2e-8 but not the certified gap (1.6e-6 of
        # 1 + |primal|) within max_outer
        expected = {"blobs50x2": (10, 14, MAX_OUTER),
                    "blobs200x10": (9, 15, CONVERGED),
                    "gap5000x123": (3, 18, CONVERGED),
                    "svr500x50": (3, 11, CONVERGED),
                    "svr300x500": (2, 17, CONVERGED)}
        for inst in bundled_instances():
            data = inst.make()
            c = inst.c_of(data)
            p = (build_svc(data, c) if inst.task == "svc"
                 else build_svr(data, c, inst.eps))
            _, report = alm_solve(p)
            assert (report.k, report.it_sn, report.status) == \
                expected[inst.name], inst.name
            # the Hessian selection is positive definite: CG never breaks
            # down and never needs the steepest-descent fallback
            assert all(rec.newton.cg_breakdowns == 0
                       and rec.newton.descent_fallbacks == 0
                       for rec in report.outer), inst.name

    @pytest.mark.parametrize("inst", bundled_instances(), ids=lambda i: i.name)
    def test_reported_bounds_bracket_an_independent_optimum(self, inst):
        # the primal is never below the optimum and the dual never above
        # it; D* comes from L-BFGS-B on the box dual, outside the solver
        p = inst.build()
        _, report = alm_solve(p)
        optimum = box_dual_optimum(p)
        tol = 1e-9 * (1.0 + abs(optimum))
        assert report.objective >= optimum - tol
        assert report.outer[-1].dual <= optimum + tol

    @pytest.mark.parametrize("inst", bundled_instances(), ids=lambda i: i.name)
    def test_certificate_equals_the_standalone_calls(self, inst, monkeypatch):
        # the multiplier is clipped into the box, so the one B.T lam the
        # loop shares between r2 and the dual is the product each of
        # them computes alone, bit for bit
        import almsvm.alm as alm_mod

        p = inst.build()
        real, seen = alm_mod.kkt_residual, []

        def spy(p_, w, s, lam, **kwargs):
            seen.append((w.copy(), s.copy(), lam.copy()))
            return real(p_, w, s, lam, **kwargs)

        monkeypatch.setattr(alm_mod, "kkt_residual", spy)
        _, report = alm_solve(p)
        assert len(seen) == report.k
        lo, hi = p.penalty.box
        for rec, (w, s, lam) in zip(report.outer, seen):
            assert lo <= lam.min() and lam.max() <= hi
            assert (rec.r1, rec.r2, rec.r3) == kkt_residual(p, w, s, lam)
            assert rec.dual == dual_objective(p, lam)[0]

    def test_report_bookkeeping(self):
        p = random_problem(seed=19, m=20, n=4)
        _, report = alm_solve(p)
        assert report.k <= 10
        assert report.it_sn == sum(rec.newton.iterations for rec in report.outer)
        assert sum(len(rec.newton.active_set_sizes)
                   for rec in report.outer) == report.it_sn
        assert len(report.outer) == report.k
        assert report.duality_gap >= -1e-8
        assert report.time_seconds >= 0.0

    def test_records_carry_the_three_residuals(self):
        p = random_problem(seed=19, m=20, n=4)
        _, report = alm_solve(p, SolverConfig(max_outer=3))
        for rec in report.outer:
            assert min(rec.r1, rec.r2, rec.r3) >= 0.0
        last = report.outer[-1]
        assert max(last.r1, last.r2, last.r3) == report.kkt_residual

    def test_cg_breakdown_and_fallback_warn(self, monkeypatch):
        import almsvm.alm as alm_mod

        real = alm_mod.newton_solve

        def breaking(*args, **kwargs):
            w, stats = real(*args, **kwargs)
            stats.cg_breakdowns, stats.descent_fallbacks = 2, 1
            return w, stats

        monkeypatch.setattr(alm_mod, "newton_solve", breaking)
        _, report = alm_solve(random_problem(seed=19, m=20, n=4),
                              SolverConfig(max_outer=1))
        assert ("outer 0: 2 CG curvature breakdowns, "
                "1 steepest-descent fallbacks") in report.warnings
