"""CG and the globalized Newton loop."""

import math

import numpy as np
import pytest

import almsvm.newton as newton_mod
import almsvm.sparse as sparse_mod
from almsvm.alm import (
    C_SCALE_SVC,
    NEWTON_MAXIT,
    EpsInsensitive,
    SmoothedSubproblem,
    SolverConfig,
    alm_solve,
    build_svc,
    make_subproblem_oracle,
)
from almsvm.newton import cg_solve, newton_solve
from almsvm.sparse import SparseMatrix
from almsvm.synthetic import svc_blobs, svc_margin_gap, svc_sparse_binary

from conftest import bundled_instances
from oracles import phi_value


class TestCgSolve:
    def test_identity_one_iteration(self):
        x, iters, breakdown = cg_solve(lambda v: v, np.array([2.0, -3.0]),
                                       1e-12, 10)
        np.testing.assert_allclose(x, [2.0, -3.0])
        assert iters == 1
        assert not breakdown

    def test_diagonal_two_iterations(self):
        a = np.diag([2.0, 4.0])
        x, iters, _ = cg_solve(lambda v: a @ v, np.array([2.0, 4.0]), 1e-12, 10)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)
        assert iters <= 2

    def test_random_spd_against_direct_solve(self, rng):
        a = rng.normal(size=(20, 20))
        spd = a @ a.T + 20 * np.eye(20)
        rhs = rng.normal(size=20)
        x, _, breakdown = cg_solve(lambda v: spd @ v, rhs, 1e-10, 200)
        assert not breakdown
        np.testing.assert_allclose(x, np.linalg.solve(spd, rhs), rtol=1e-8)

    def test_zero_rhs(self):
        x, iters, _ = cg_solve(lambda v: v, np.zeros(3), 1e-12, 10)
        np.testing.assert_array_equal(x, np.zeros(3))
        assert iters == 0

    def test_truncation_at_maxit(self, rng):
        a = rng.normal(size=(30, 30))
        spd = a @ a.T + np.eye(30)
        x, iters, _ = cg_solve(lambda v: spd @ v, rng.normal(size=30), 1e-14, 3)
        assert iters == 3
        assert np.all(np.isfinite(x))

    def test_non_positive_curvature_is_reported(self):
        x, iters, breakdown = cg_solve(lambda v: -v, np.array([1.0, 2.0]),
                                       1e-12, 10)
        assert breakdown
        assert iters == 1
        np.testing.assert_array_equal(x, [0.0, 0.0])

    def test_a_start_point_is_used_and_left_unchanged(self, rng):
        a = rng.normal(size=(20, 20))
        spd = a @ a.T + 20 * np.eye(20)
        rhs = rng.normal(size=20)
        exact = np.linalg.solve(spd, rhs)
        x0 = exact + 1e-3 * rng.normal(size=20)
        kept = x0.copy()
        x, iters, breakdown = cg_solve(lambda v: spd @ v, rhs, 1e-10, 200, x0=x0)
        assert not breakdown and 0 < iters
        np.testing.assert_allclose(x, exact, rtol=1e-8)
        np.testing.assert_array_equal(x0, kept)
        # a start that already meets the tolerance takes no iteration
        x, iters, _ = cg_solve(lambda v: spd @ v, rhs, 1e-6, 200, x0=exact)
        assert iters == 0
        np.testing.assert_array_equal(x, exact)
        # x0 = 0 is the default start, bit for bit, when its residual
        # rhs - hvp(0) is rhs itself
        zero = cg_solve(lambda v: spd @ v, rhs, 1e-10, 200, x0=np.zeros(20))
        default = cg_solve(lambda v: spd @ v, rhs, 1e-10, 200)
        np.testing.assert_array_equal(zero[0], default[0])
        assert zero[1:] == default[1:]


def _cg_out_of_place(hvp, rhs, tol_abs, maxit):
    """The textbook CG loop with a fresh array per update, as
    :func:`cg_solve` ran before it updated in place."""
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rr = float(r @ r)
    if np.sqrt(rr) <= tol_abs:
        return x, 0, False
    p = r.copy()
    for it in range(1, maxit + 1):
        ap = hvp(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            return x, it, True
        alpha = rr / pap
        x = x + alpha * p
        if it % 50 == 0:
            r = rhs - hvp(x)
        else:
            r = r - alpha * ap
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= tol_abs:
            return x, it, False
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, maxit, False


def _spd(rng, n, cond):
    """Random symmetric matrix with eigenvalues spread over [1, cond]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * np.geomspace(1.0, cond, n)) @ q.T


class TestCgInPlaceMatchesOutOfPlace:
    """``cg_solve`` updates in place with the roundings of the
    out-of-place loop: every result is the oracle's, bit for bit."""

    @staticmethod
    def _check(hvp, rhs, tol_abs, maxit):
        before = rhs.copy()
        x, it, breakdown = cg_solve(hvp, rhs, tol_abs, maxit)
        x_ref, it_ref, breakdown_ref = _cg_out_of_place(hvp, rhs, tol_abs, maxit)
        assert x.tobytes() == x_ref.tobytes()
        assert (it, breakdown) == (it_ref, breakdown_ref)
        assert rhs.tobytes() == before.tobytes()
        return it, breakdown

    @pytest.mark.parametrize("n, cond", [(5, 10.0), (40, 1e3), (120, 1e4)])
    def test_random_spd(self, n, cond, rng):
        a = _spd(rng, n, cond)
        for tol in (1e-1, 1e-6, 1e-12):
            self._check(lambda v: a @ v, rng.normal(size=n), tol, 200)

    def test_run_past_residual_replacement(self, rng):
        a = _spd(rng, 150, 1e5)
        it, breakdown = self._check(lambda v: a @ v, rng.normal(size=150),
                                    1e-13, 200)
        assert it > 100 and not breakdown

    def test_truncation_at_maxit(self, rng):
        a = _spd(rng, 60, 1e4)
        assert self._check(lambda v: a @ v, rng.normal(size=60),
                           1e-14, 7) == (7, False)

    def test_curvature_breakdown(self, rng):
        # indefinite: CG makes progress first, then meets p'Ap <= 0
        q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        a = (q * np.r_[np.linspace(1.0, 50.0, 29), -5.0]) @ q.T
        it, breakdown = self._check(lambda v: a @ v, rng.normal(size=30),
                                    1e-12, 200)
        assert breakdown and it > 1

    def test_zero_rhs(self):
        assert self._check(lambda v: 2.0 * v, np.zeros(4), 1e-12, 10) == (0, False)

    def test_operator_returning_its_argument(self, rng):
        # an operator may hand back the very vector it was given
        assert self._check(lambda v: v, rng.normal(size=6), 1e-12, 10) == (1, False)

    def test_non_finite_curvature_raises(self, rng):
        with pytest.raises(newton_mod.CgBreakdownError, match="curvature"):
            cg_solve(lambda v: np.full_like(v, np.nan), rng.normal(size=5),
                     1e-12, 10)

    def test_non_finite_residual_raises(self, rng):
        # the product turns non-finite only for CG's explicit residual
        # refresh hvp(x) after iteration 50, so p'Ap stays finite up to
        # there and the residual is the first non-finite quantity; the
        # spread spectrum keeps CG from converging before it
        diag = np.geomspace(1.0, 1e8, 200)
        calls = []

        def hvp(v):
            calls.append(1)
            return diag * v if len(calls) <= 50 else np.full_like(v, np.inf)

        with pytest.raises(newton_mod.CgBreakdownError, match="residual"):
            cg_solve(hvp, rng.normal(size=200), 1e-300, 200)
        assert len(calls) == 51


def _pcg_out_of_place(hvp, rhs, tol_abs, maxit, diag):
    """Textbook Jacobi-preconditioned CG with a fresh array per update:
    ``z = r / diag`` builds the directions, the test reads ``|r|``."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    if np.sqrt(float(r @ r)) <= tol_abs:
        return x, 0, False
    z = r / diag
    rz = float(r @ z)
    p = z.copy()
    for it in range(1, maxit + 1):
        ap = hvp(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            return x, it, True
        alpha = rz / pap
        x = x + alpha * p
        r = rhs - hvp(x) if it % 50 == 0 else r - alpha * ap
        if np.sqrt(float(r @ r)) <= tol_abs:
            return x, it, False
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, maxit, False


def _row_scaled(rng, n, cond, spread):
    """``D A D`` for a random SPD ``A`` of condition ``cond`` and a
    diagonal ``D`` spread log-uniformly over ``[1/spread, spread]``."""
    d = np.geomspace(1.0 / spread, spread, n)
    rng.shuffle(d)
    return d[:, None] * _spd(rng, n, cond) * d[None, :]


class TestCgPreconditioner:
    """``cg_solve`` with ``diag`` is Jacobi-preconditioned CG whose
    stopping test reads the residual itself; ``diag=None`` is plain CG."""

    def test_a_unit_diagonal_is_plain_cg_bit_for_bit(self, rng):
        a = _spd(rng, 150, 1e5)
        rhs = rng.normal(size=150)
        counts = []
        for tol, maxit, x0 in ((1e-13, 200, None), (1e-14, 7, None),
                               (1e-6, 200, rng.normal(size=150))):
            plain = cg_solve(lambda v: a @ v, rhs, tol, maxit, x0=x0)
            unit = cg_solve(lambda v: a @ v, rhs, tol, maxit, x0=x0,
                            diag=np.ones(150))
            assert plain[0].tobytes() == unit[0].tobytes()
            assert plain[1:] == unit[1:]
            counts.append(plain[1])
        # the first run passes the residual refresh at iteration 50
        assert counts[0] > 100 and counts[1] == 7

    @pytest.mark.parametrize("n, cond", [(5, 10.0), (40, 1e3), (120, 1e4)])
    def test_matches_the_out_of_place_recurrence(self, n, cond, rng):
        op = _row_scaled(rng, n, cond, 10.0)
        diag = np.diag(op).copy()
        for tol in (1e-1, 1e-6, 1e-12):
            rhs = rng.normal(size=n)
            x, it, breakdown = cg_solve(lambda v: op @ v, rhs, tol, 200,
                                        diag=diag)
            x_ref, it_ref, breakdown_ref = _pcg_out_of_place(
                lambda v: op @ v, rhs, tol, 200, diag)
            assert x.tobytes() == x_ref.tobytes()
            assert (it, breakdown) == (it_ref, breakdown_ref)

    def test_a_row_scaled_operator_takes_fewer_iterations(self, rng):
        # D A D with D spread over [0.1, 10]: plain CG needs hundreds of
        # iterations, the diagonal undoes most of the scaling, and both
        # solves meet tol_abs on the true residual
        op = _row_scaled(rng, 200, 10.0, 10.0)
        rhs = op @ rng.normal(size=200)
        tol = 1e-8 * np.linalg.norm(rhs)
        runs = [cg_solve(lambda v: op @ v, rhs, tol, 2000, diag=diag)
                for diag in (None, np.diag(op).copy())]
        for x, _, breakdown in runs:
            assert not breakdown
            assert np.linalg.norm(op @ x - rhs) <= tol
        (_, it_plain, _), (_, it, _) = runs
        assert 10 * it < it_plain < 2000

    @pytest.mark.parametrize("bad", [
        np.array([1.0, 0.0, 2.0]), np.array([1.0, -1.0, 2.0]),
        np.array([1.0, np.nan, 2.0]), np.array([1.0, np.inf, 2.0]),
        np.ones(2), np.ones((3, 1)),
    ], ids=["zero", "negative", "nan", "inf", "short", "column"])
    def test_a_bad_diagonal_is_rejected(self, bad):
        # checked before any work, a zero right-hand side included
        for rhs in (np.ones(3), np.zeros(3)):
            with pytest.raises(ValueError, match="diag"):
                cg_solve(lambda v: v, rhs, 1e-12, 10, diag=bad)


class CallbackSubproblem:
    """The Subproblem protocol over plain value/grad/hvp callbacks of w,
    with an empty active set. ``derivatives`` reads ``grad`` on the ray
    and ``curvature``, by default ``hvp``, along the direction."""

    def __init__(self, value, grad, hvp, curvature=None):
        self._value, self._grad, self._hvp = value, grad, hvp
        self._curvature = hvp if curvature is None else curvature

    def reset(self, w):
        self.w = w

    def grad(self):
        return self._grad(self.w)

    def linearize(self):
        return 0

    def hvp(self, h):
        return self._hvp(h)

    def set_direction(self, d):
        self._d = d

    def value(self, alpha):
        return self._value(self.w + alpha * self._d)

    def derivatives(self, alpha):
        d = self._d
        return (float(self._grad(self.w + alpha * d) @ d),
                float(d @ self._curvature(d)))

    def accept(self, alpha):
        self.w = self.w + alpha * self._d


def _quadratic_oracle():
    return CallbackSubproblem(
        value=lambda w: 0.5 * float(w @ w),
        grad=lambda w: w.copy(),
        hvp=lambda h: h.copy(),
    )


class TestNewtonSolve:
    def test_quadratic_single_step(self, rng):
        w0 = rng.normal(size=6) * 10
        w, stats = newton_solve(_quadratic_oracle(), w0, 1e-10, NEWTON_MAXIT)
        assert stats.iterations == 1
        assert np.linalg.norm(w) <= 1e-10

    def test_already_optimal_returns_immediately(self):
        w, stats = newton_solve(_quadratic_oracle(), np.zeros(4), 1e-8,
                                NEWTON_MAXIT)
        assert stats.iterations == 0
        assert stats.final_grad_norm == 0.0
        np.testing.assert_array_equal(w, np.zeros(4))

    def test_superlinear_tail_on_svc_subproblem(self):
        data = svc_blobs(200, 10, separation=2.0, scale=1.0, seed=7)
        p = build_svc(data, 550.0 / data.m)
        oracle = make_subproblem_oracle(p, np.zeros(p.m), 0.15)
        _, stats = newton_solve(oracle, np.ones(p.n), 1e-10, NEWTON_MAXIT)
        g = stats.grad_norms
        checked = 0
        for j in range(len(g) - 1):
            if g[j] <= 1e-2 and g[j] > 0:
                assert g[j + 1] <= max(g[j] ** 1.5, 5e-14)
                checked += 1
        assert checked >= 1

    def test_monotone_descent_and_step_form(self):
        data = svc_blobs(60, 4, separation=1.0, scale=1.0, seed=5)
        p = build_svc(data, 550.0 / data.m)
        oracle = make_subproblem_oracle(p, np.zeros(p.m), 0.15)
        values = []
        inner_grad = oracle.grad

        def logging_grad():
            values.append(phi_value(p, oracle.w, np.zeros(p.m), 0.15))
            return inner_grad()

        oracle.grad = logging_grad
        _, stats = newton_solve(oracle, np.ones(p.n), 1e-8, NEWTON_MAXIT)
        assert all(b < a for a, b in zip(values, values[1:]))
        for alpha in stats.step_sizes:
            assert 0.0 < alpha <= 1.0
            exponent = math.log(alpha, 0.5)
            assert exponent == pytest.approx(round(exponent), abs=1e-12)

    def test_returned_gradient_below_tolerance(self):
        data = svc_blobs(60, 4, separation=1.0, scale=1.0, seed=6)
        p = build_svc(data, 550.0 / data.m)
        oracle = make_subproblem_oracle(p, np.zeros(p.m), 0.3)
        _, stats = newton_solve(oracle, np.ones(p.n), 1e-7, NEWTON_MAXIT)
        assert not stats.hit_iteration_cap
        assert stats.final_grad_norm <= 1e-7

    def test_iteration_cap_flagged(self):
        data = svc_blobs(60, 4, separation=1.0, scale=1.0, seed=6)
        p = build_svc(data, 550.0 / data.m)
        oracle = make_subproblem_oracle(p, np.zeros(p.m), 0.3)
        _, stats = newton_solve(oracle, np.ones(p.n), 1e-10, 1)
        assert stats.hit_iteration_cap
        assert stats.iterations == 1

    def test_cg_bookkeeping_matches_per_call_counts(self, monkeypatch):
        calls = []
        real_cg = newton_mod.cg_solve

        def recording_cg(*args, **kwargs):
            x, iters, breakdown = real_cg(*args, **kwargs)
            calls.append(iters)
            return x, iters, breakdown

        monkeypatch.setattr(newton_mod, "cg_solve", recording_cg)
        data = svc_blobs(60, 4, separation=1.0, scale=1.0, seed=8)
        p = build_svc(data, 550.0 / data.m)
        oracle = make_subproblem_oracle(p, np.zeros(p.m), 0.15)
        _, stats = newton_solve(oracle, np.ones(p.n), 1e-8, NEWTON_MAXIT)
        assert stats.cg_iterations_total == sum(calls)
        assert len(calls) == stats.iterations

    def test_non_descent_cg_output_falls_back_to_steepest_descent(self, rng):
        # a broken (non-SPD) curvature operator makes CG bail out with a
        # useless direction; the loop must still converge via the
        # gradient fallback
        broken = CallbackSubproblem(
            value=lambda w: 0.5 * float(w @ w),
            grad=lambda w: w.copy(),
            hvp=lambda h: -h,
        )
        w, stats = newton_solve(broken, rng.normal(size=5), 1e-8,
                                NEWTON_MAXIT)
        assert np.linalg.norm(w) <= 1e-8
        assert not stats.hit_iteration_cap
        assert stats.cg_breakdowns >= 1
        assert stats.descent_fallbacks >= 1

    def test_inconsistent_oracle_raises_line_search_error(self, rng):
        # gradient claims descent along -w but the value grows that way;
        # the ray derivative is still negative at alpha = 1, so the ray
        # search hands back the unit step and the backtracking fails
        lying = CallbackSubproblem(
            value=lambda w: float(w @ w),
            grad=lambda w: -w,
            hvp=lambda h: h.copy(),
        )
        with pytest.raises(newton_mod.LineSearchError):
            newton_solve(lying, np.ones(3), 1e-10, NEWTON_MAXIT)

    def test_history_lengths_consistent(self):
        data = svc_blobs(40, 3, separation=1.0, scale=1.0, seed=9)
        p = build_svc(data, 550.0 / data.m)
        oracle = make_subproblem_oracle(p, np.zeros(p.m), 0.15)
        _, stats = newton_solve(oracle, np.ones(p.n), 1e-8, NEWTON_MAXIT)
        assert len(stats.step_sizes) == stats.iterations
        assert len(stats.active_set_sizes) == stats.iterations
        assert len(stats.grad_norms) == stats.iterations + 1


class _ZigZag(CallbackSubproblem):
    """``0.5 w'Aw`` with ``A = [[1, 2], [2, 8]]`` and the identity as
    Newton model, from ``w = (1, 0)``: the steps alternate between a
    ray step near 0.12 and the unit step, and ``|g|`` rises at steps 2,
    4, 6 and every other step on, past the 25-step cap at tolerance
    1e-10. ``linearize`` reports ``rows(j)`` active rows at the iterate
    of step ``j``."""

    A = np.array([[1.0, 2.0], [2.0, 8.0]])

    def __init__(self, rows):
        super().__init__(value=lambda w: 0.5 * float(w @ self.A @ w),
                         grad=lambda w: self.A @ w, hvp=lambda h: h.copy(),
                         curvature=lambda d: self.A @ d)
        self._rows, self.steps = rows, 0

    def linearize(self):
        return self._rows(self.steps)

    def accept(self, alpha):
        super().accept(alpha)
        self.steps += 1


def _zigzag(rows, **kwargs):
    return newton_solve(_ZigZag(rows), np.array([1.0, 0.0]), 1e-10,
                        NEWTON_MAXIT, **kwargs)


class TestStallRule:
    """``stall_rows``: the solve stops after its third step that raises
    ``|g|``, or a later one, once that step's iterate has at most
    ``stall_rows`` active rows."""

    def test_the_third_rise_within_the_bound_stops_the_solve(self):
        w_full, full = _zigzag(lambda j: 5)
        g = full.grad_norms
        assert [j for j in range(1, 9) if g[j] > g[j - 1]] == [2, 4, 6, 8]
        w, stats = _zigzag(lambda j: 5, stall_rows=5)
        assert stats.stalled and not stats.hit_iteration_cap
        assert stats.iterations == 6
        assert stats.grad_norms == g[:7]
        assert stats.step_sizes == full.step_sizes[:6]
        assert stats.active_set_sizes == [5] * 6
        assert stats.final_grad_norm == g[6] > 1e-10

    def test_a_later_rise_stops_once_its_iterate_is_within_the_bound(self):
        # too many rows at the third rise (step 6) and at step 7, which
        # does not raise |g|; step 8 raises it with rows within the bound
        _, stats = _zigzag(lambda j: 9 if j < 7 else 3, stall_rows=5)
        assert stats.stalled and stats.iterations == 8

    @pytest.mark.parametrize("bound,rows", [(None, 5), (5, 6)],
                             ids=["no_bound", "too_many_rows"])
    def test_no_bound_or_too_many_rows_leaves_the_iterates_as_they_were(
            self, bound, rows):
        # the reference is the call without the keyword: twelve rises
        # of |g| and the zig-zag runs into the step cap
        w_ref, ref = _zigzag(lambda j: rows)
        g = ref.grad_norms
        assert sum(b > a for a, b in zip(g, g[1:])) == 12
        assert ref.hit_iteration_cap and not ref.stalled
        assert ref.iterations == NEWTON_MAXIT
        w, stats = _zigzag(lambda j: rows, stall_rows=bound)
        np.testing.assert_array_equal(w, w_ref)
        assert stats == ref


class TestRayStep:
    """The step when the unit step fails Armijo: the minimizer of
    ``phi(alpha) = value(alpha)`` over [0, 1], found from ``phi'`` and
    ``phi''`` that ``derivatives`` returns."""

    def test_quadratic_ray_step_is_exact(self, rng):
        # CG solves with a third of the Hessian, so its direction is
        # three times too long and the unit step fails Armijo; on a
        # quadratic one Newton step on phi' from alpha = 1 lands on the
        # ray minimizer -g.d / (d.Hd) = 1/3, which backtracking by halves
        # cannot reach
        a = rng.normal(size=(6, 6))
        H = a @ a.T + 6.0 * np.eye(6)
        b = rng.normal(size=6)
        seen = {}
        sub = CallbackSubproblem(
            value=lambda w: 0.5 * float(w @ H @ w) - float(b @ w),
            grad=lambda w: H @ w - b,
            hvp=lambda h: (H @ h) / 3.0,
            curvature=lambda h: H @ h,
        )
        real_set = sub.set_direction

        def set_direction(d):
            seen.setdefault("d", d)
            seen.setdefault("g", H @ sub.w - b)
            real_set(d)

        sub.set_direction = set_direction
        _, stats = newton_solve(sub, rng.normal(size=6), 1e-12, 1)
        g, d = seen["g"], seen["d"]
        assert stats.step_sizes[0] == pytest.approx(-(g @ d) / (d @ H @ d),
                                                    rel=1e-12)
        assert stats.step_sizes[0] == pytest.approx(1.0 / 3.0, rel=1e-6)

    @staticmethod
    def _subproblem(name, rng):
        p = next(i for i in bundled_instances() if i.name == name).build()
        lo, hi = p.penalty.box
        sub = make_subproblem_oracle(p, rng.uniform(lo, hi, size=p.m), 0.4)
        sub.reset(rng.normal(size=p.n) * 0.1)
        return p, sub

    @pytest.mark.parametrize("name", ["gap5000x123", "svr500x50"],
                             ids=["Hinge", "EpsInsensitive"])
    def test_derivatives_match_central_differences(self, name, rng):
        # phi is piecewise quadratic along the ray, so within one piece a
        # central difference of value is phi' and one of phi' is phi'',
        # both up to rounding; an alpha whose difference interval holds
        # a kink (a row changes class) is skipped
        p, sub = self._subproblem(name, rng)
        sub.grad()
        d = rng.normal(size=p.n) * 0.05
        sub.set_direction(d)
        bd = p.B.matvec(d)
        h, checked = 1e-6, 0
        for alpha in np.linspace(0.05, 1.0, 20):
            rows = [p.penalty.split(sub.z + a * bd, sub.sigma)
                    for a in (alpha - h, alpha + h)]
            if not (np.array_equal(rows[0][0], rows[1][0])
                    and np.array_equal(rows[0][2], rows[1][2])):
                continue
            d1, d2 = sub.derivatives(alpha)
            fd1 = (sub.value(alpha + h) - sub.value(alpha - h)) / (2 * h)
            fd2 = (sub.derivatives(alpha + h)[0]
                   - sub.derivatives(alpha - h)[0]) / (2 * h)
            scale = 1.0 + abs(sub.value(alpha))
            assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-8 * scale)
            assert d2 == pytest.approx(fd2, rel=1e-6)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("name", ["gap5000x123", "svr300x500"],
                             ids=["Hinge", "EpsInsensitive"])
    def test_taken_steps_satisfy_armijo(self, name):
        # the first Newton solve of alm_solve (w = 0, lam = 0, sigma0)
        # takes ray steps on both instances; every accepted step passes
        # Armijo, and a ray step meets the ray search's stopping rule
        p = next(i for i in bundled_instances() if i.name == name).build()
        sub = make_subproblem_oracle(p, np.zeros(p.m), 0.15)
        real_grad, real_accept = sub.grad, sub.accept
        state, ray_steps = {}, []

        def grad():
            state["g"] = real_grad()
            return state["g"]

        def accept(alpha):
            slope = float(state["g"] @ sub._d)
            f0 = sub.value(0.0)
            assert sub.value(alpha) <= f0 + newton_mod.LS_C1 * alpha * slope
            if alpha < 1.0:
                assert sub.value(1.0) > f0 + newton_mod.LS_C1 * slope
                assert abs(sub.derivatives(alpha)[0]) <= \
                    newton_mod.RAY_TOL * -slope
                ray_steps.append(alpha)
            real_accept(alpha)

        sub.grad, sub.accept = grad, accept
        _, stats = newton_solve(sub, np.zeros(p.n), 0.1, NEWTON_MAXIT)
        assert len(ray_steps) >= 3
        assert any(math.log2(a) != round(math.log2(a)) for a in ray_steps)


def _bundled_svc(name):
    inst = next(i for i in bundled_instances() if i.name == name)
    data = inst.make()
    return build_svc(data, inst.c_of(data))


def _small_gap():
    """A margin-gap problem whose accepted finish takes two loose rounds
    and one tight round."""
    return build_svc(svc_margin_gap(4000, 1000, density=0.04, seed=0), 0.1)


def _noisy_sparse_svc():
    """Noisy labels on sparse binary features, as in ``cli_roundtrip``:
    about half the rows saturate."""
    return build_svc(svc_sparse_binary(2000, 100, seed=0), C_SCALE_SVC / 2000)


def _count_kernels(monkeypatch, B):
    """Count calls of the full-matrix kernels on ``B`` from here on; a
    block of gathered rows is a matrix of its own and is not counted."""
    counts = {"matvec": 0, "matvec_t": 0, "restricted_normal_apply": 0}
    for name in counts:
        real = getattr(SparseMatrix, name)

        def counting(self, *args, _real=real, _name=name):
            if self is B:
                counts[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(SparseMatrix, name, counting)
    return counts


class TestSubproblemContract:
    def test_kernel_budget_per_newton_step(self, monkeypatch):
        # one matvec (B d) and one matvec_t (the gradient) per Newton
        # step, plus the entry evaluation; CG never touches all rows
        p = _bundled_svc("gap5000x123")
        counts = _count_kernels(monkeypatch, p.B)
        sub = make_subproblem_oracle(p, np.zeros(p.m), 0.15)
        _, stats = newton_solve(sub, np.ones(p.n), 1e-8, NEWTON_MAXIT)
        assert stats.iterations >= 5
        assert counts["matvec"] <= stats.iterations + 1
        assert counts["matvec_t"] <= stats.iterations + 1
        assert counts["restricted_normal_apply"] == 0

    @pytest.mark.parametrize("make,finish,cfg", [
        (lambda: _bundled_svc("gap5000x123"), False, SolverConfig()),
        (lambda: _bundled_svc("gap5000x123"), True, SolverConfig()),
        (lambda: _bundled_svc("gap5000x123"), True, SolverConfig(tol=1e-20)),
        (_small_gap, True, SolverConfig()),
    ], ids=["no_finish", "accepted_finish", "rejected_finishes",
            "accepted_finish_with_a_tight_round"])
    def test_kernel_budget_whole_solve(self, make, finish, cfg, monkeypatch):
        # per outer iteration one fresh B w serves the multiplier update,
        # the certificate and the next Newton start; only the first
        # Newton start computes its own. matvec_t: one gradient per
        # Newton step and per start, and one B.T lam per outer that
        # serves both r2 and the dual. An active-set finish pays per
        # round one B.T sat (its w0) and one fresh B w, and when it
        # settles one B.T lam for its certificate. The first tight round re-solves the
        # last loose round's partition and keeps its w0, so it pays only
        # the B w. At tol 1e-20 every outer iteration tries one and
        # rejects it. Its CG and preconditioner read only the gathered
        # free rows
        import almsvm.alm as alm_mod

        p = make()
        if not finish:
            monkeypatch.setattr(alm_mod, "_finish", lambda *args: None)
        counts = _count_kernels(monkeypatch, p.B)
        _, report = alm_solve(p, cfg)
        rounds = sum(f.rounds for f in report.finish)
        reused = sum(f.tight > 0 for f in report.finish)
        settled = sum(f.r1 is not None for f in report.finish)
        assert settled == len(report.finish) == (report.k if finish else 0)
        assert report.k >= (1 if finish and cfg.tol > 1e-20 else 2)
        assert reused == (make is _small_gap)
        assert counts["matvec"] == report.it_sn + report.k + 1 + rounds
        assert counts["matvec_t"] == (report.it_sn + 2 * report.k + rounds
                                      - reused + settled)
        assert counts["restricted_normal_apply"] == 0

    @pytest.mark.parametrize("make,full,first", [
        (lambda: _bundled_svc("gap5000x123"), False, True),
        (_noisy_sparse_svc, True, False),
    ], ids=["gap5000x123", "svc_sparse_binary"])
    def test_certificate_reads_b_once_per_outer_iteration(self, make, full,
                                                          first, monkeypatch):
        # matvec_t gathers rows through sparse._gather on its sparse
        # branch; a call that never reaches it read every row of B. On
        # gap5000x123 lam is nonzero on fewer than m/4 rows, on the
        # noisy sparse binary data on about half of them. At the start
        # w = 0, z = d + 0 = ones, and a row is saturated where
        # 1 >= C/sigma0: on gap5000x123 (C/sigma0 = 0.73) every row, so
        # the first gradient's B.T sat reads all of B; on the noisy data
        # (C/sigma0 = 1.83) none, so it reads no row. The active-set
        # finish on gap5000x123 takes its own products, one B.T sat per
        # round; its settled point is certified as an outer iteration's
        # is, by one more B.T lam outside the finish. The noisy data
        # leaves too many rows free for a finish.
        import almsvm.alm as alm_mod

        p = make()
        real_mt, real_gather = SparseMatrix.matvec_t, sparse_mod._gather
        real_grad, real_finish = SmoothedSubproblem.grad, alm_mod._finish
        calls, state = [], {"grad": False, "finish": False, "gathered": False}

        def gather(*args):
            state["gathered"] = True
            return real_gather(*args)

        def matvec_t(self, y):
            if self is not p.B:  # the gradient's block of active rows
                return real_mt(self, y)
            state["gathered"] = False
            out = real_mt(self, y)
            calls.append((state["grad"], state["finish"], not state["gathered"]))
            return out

        def grad(self):
            state["grad"] = True
            try:
                return real_grad(self)
            finally:
                state["grad"] = False

        def finish(*args):
            state["finish"] = True
            try:
                return real_finish(*args)
            finally:
                state["finish"] = False

        monkeypatch.setattr(sparse_mod, "_gather", gather)
        monkeypatch.setattr(SparseMatrix, "matvec_t", matvec_t)
        monkeypatch.setattr(SmoothedSubproblem, "grad", grad)
        monkeypatch.setattr(alm_mod, "_finish", finish)
        _, report = alm_solve(p)
        certificate = [read_all for in_grad, in_fin, read_all in calls
                       if not (in_grad or in_fin)]
        gradient = [read_all for in_grad, _, read_all in calls if in_grad]
        finishing = [read_all for _, in_fin, read_all in calls if in_fin]
        settled = sum(f.r1 is not None for f in report.finish)
        assert certificate == [full] * (report.k + settled)
        assert len(finishing) == sum(f.rounds - (f.tight > 0)
                                     for f in report.finish)
        assert bool(report.finish) is not full
        assert len(gradient) == report.it_sn + report.k
        # the first gradient of the solve takes the full product B.T sat
        # (which reads every row only when more than m/4 rows saturate);
        # a later outer iteration's first gradient updates the carried
        # g_sat from the rows that changed side, here fewer than m/4
        starts = np.cumsum([0] + [rec.newton.iterations + 1
                                  for rec in report.outer[:-1]])
        assert [gradient[i] for i in starts] == [first] + [False] * (report.k - 1)

    def test_handed_over_bw_gives_the_same_iterates(self, rng):
        p = _bundled_svc("gap5000x123")
        lam = rng.uniform(0.0, p.penalty.C, size=p.m)
        w0 = rng.normal(size=p.n) * 0.1
        fresh = make_subproblem_oracle(p, lam, 0.4)
        handed = make_subproblem_oracle(p, lam, 0.4, bw=p.B.matvec(w0))
        w_fresh, st_fresh = newton_solve(fresh, w0, 1e-8, NEWTON_MAXIT)
        w_handed, st_handed = newton_solve(handed, w0, 1e-8, NEWTON_MAXIT)
        np.testing.assert_array_equal(w_handed, w_fresh)
        assert st_handed.grad_norms == st_fresh.grad_norms

    def test_cached_trial_value_matches_fresh_evaluation(self, rng):
        p = _bundled_svc("gap5000x123")
        lam = rng.uniform(0.0, p.penalty.C, size=p.m)
        sigma = 0.4
        sub = make_subproblem_oracle(p, lam, sigma)
        w = rng.normal(size=p.n) * 0.1
        sub.reset(w)
        assert sub.value(0.0) == phi_value(p, w, lam, sigma)
        for _ in range(3):
            d = rng.normal(size=p.n) * 0.05
            sub.set_direction(d)
            for alpha in (1.0, 0.5, 0.25, 0.125):
                expect = phi_value(p, sub.w + alpha * d, lam, sigma)
                assert sub.value(alpha) == pytest.approx(expect, rel=1e-12)
            before = sub.w
            sub.accept(0.5)
            np.testing.assert_array_equal(sub.w, before + 0.5 * d)
            expect = phi_value(p, sub.w, lam, sigma)
            assert sub.value(0.0) == pytest.approx(expect, rel=1e-12)

    def test_hvp_gathers_once_and_matches_restricted_kernel_bitwise(self, rng):
        p = _bundled_svc("gap5000x123")
        sub = make_subproblem_oracle(p, np.zeros(p.m), 0.15)
        sub.reset(rng.normal(size=p.n) * 0.1)
        sub.grad()
        size = sub.linearize()
        rows = np.flatnonzero((sub.z > 0.0) & (sub.z < p.penalty.C / 0.15))
        assert size == rows.size > 0
        for _ in range(5):
            h = rng.normal(size=p.n)
            expect = h + 0.15 * p.B.restricted_normal_apply(rows, h)
            np.testing.assert_array_equal(sub.hvp(h), expect)


class TestIncrementalGradient:
    """The gradient keeps ``g_sat = B.T sat`` from the first gradient of
    a solve, across Newton steps and outer iterations, updates it from
    the rows whose saturation sign changed, and scatters only the active
    rows; at every gradient it must match the fresh
    ``w + sigma * B.T (z - prox(z))``."""

    @staticmethod
    def _watch(monkeypatch, p):
        """Record, per gradient, its distance to the fresh gradient
        relative to ``1 + |w| + |fresh|``, the scale of the sum's terms
        (at w = 0 the gradient is ``C * B.T sat`` alone, with |g| up to
        1.3e3 on gap5000x123); per gradient after the first, how many
        rows changed saturation sign; and per outer start after the
        first, the sign vectors ``(before, after)``."""
        real = SmoothedSubproblem.grad
        errors, changed, starts, last = [], [], [], {}

        def grad(self):
            g = real(self)
            s = p.penalty.prox(self.z, 1.0 / self.sigma)
            fresh = self.w + self.sigma * p.B.matvec_t(self.z - s)
            errors.append(float(np.linalg.norm(g - fresh))
                          / (1.0 + float(np.linalg.norm(self.w))
                             + float(np.linalg.norm(fresh))))
            sat = p.penalty.split(self.z, self.sigma)[2]
            if last:
                changed.append(int(np.count_nonzero(sat != last["sat"])))
                if last["sub"] is not self:
                    starts.append((last["sat"], sat))
            last.update(sub=self, sat=sat)
            return g

        monkeypatch.setattr(SmoothedSubproblem, "grad", grad)
        return errors, changed, starts

    @pytest.mark.parametrize("inst", bundled_instances(), ids=lambda i: i.name)
    def test_matches_the_fresh_gradient_at_every_newton_step(self, inst,
                                                             monkeypatch):
        p = inst.build()
        errors, _, _ = self._watch(monkeypatch, p)
        _, report = alm_solve(p)
        assert len(errors) == report.it_sn + report.k
        assert max(errors) <= 1e-12

    def test_a_step_takes_the_full_refresh_branch(self, monkeypatch):
        # more than m/4 rows change side, so matvec_t reads every row
        p = _bundled_svc("gap5000x123")
        errors, changed, _ = self._watch(monkeypatch, p)
        alm_solve(p)
        assert max(changed) * 4 > p.m
        assert max(errors) <= 1e-12

    @pytest.mark.parametrize("make", [
        _noisy_sparse_svc,
        lambda: next(i for i in bundled_instances() if i.name == "svr500x50").build(),
    ], ids=["svc_sparse_binary", "svr500x50"])
    def test_carried_across_outer_iterations(self, make, monkeypatch):
        # a later outer iteration's first gradient takes over the last
        # g_sat and adds the rows that changed side at the new lam and
        # sigma, gathered while they are at most m/4; for SVR rows
        # saturate on both sides
        p = make()
        errors, _, starts = self._watch(monkeypatch, p)
        _, report = alm_solve(p)
        assert report.k >= 2 and len(starts) == report.k - 1
        moved = [(before, after) for before, after in starts
                 if 0 < 4 * np.count_nonzero(after != before) <= p.m]
        assert moved
        if isinstance(p.penalty, EpsInsensitive):
            before, after = moved[0]
            assert {-1, 1} <= set(after.tolist()) and {-1, 1} <= set(before.tolist())
        assert max(errors) <= 1e-12

    def test_one_gather_per_newton_step(self, monkeypatch):
        # grad gathers the active rows once; linearize at the same z
        # hands that block to CG instead of gathering again
        p = _bundled_svc("gap5000x123")
        real = SparseMatrix.gather_rows
        gathered = []

        def spy(self, rows):
            gathered.append(np.asarray(rows).copy())
            return real(self, rows)

        monkeypatch.setattr(SparseMatrix, "gather_rows", spy)
        sub = make_subproblem_oracle(p, np.zeros(p.m), 0.15)
        _, stats = newton_solve(sub, np.ones(p.n), 1e-8, NEWTON_MAXIT)
        assert stats.iterations >= 5
        # one per gradient: each step's, and the final one
        assert len(gathered) == stats.iterations + 1
        assert [r.size for r in gathered[:-1]] == stats.active_set_sizes

    def test_linearize_after_grad_uses_the_active_rows(self, rng):
        p = _bundled_svc("gap5000x123")
        sigma = 0.15
        sub = make_subproblem_oracle(p, np.zeros(p.m), sigma)
        sub.reset(rng.normal(size=p.n) * 0.1)
        sub.grad()
        rows = p.penalty.split(sub.z, sigma)[0]
        assert sub.linearize() == rows.size > 0
        h = rng.normal(size=p.n)
        expect = h + sigma * p.B.restricted_normal_apply(rows, h)
        np.testing.assert_array_equal(sub.hvp(h), expect)
