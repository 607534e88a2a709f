"""Proximal maps, envelopes and active sets.

The closed forms are checked branch by branch against hand values, then
against the breakpoint-enumeration oracle and an independent 1-D
numerical minimizer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from almsvm.alm import (
    EpsInsensitive,
    Hinge,
    active_set_svc,
    active_set_svr,
    moreau_env_eps,
    moreau_env_hinge,
    p_eps_value,
    p_value,
    prox_eps,
    prox_hinge,
)

from oracles import prox_oracle


class TestPenaltyValues:
    def test_hinge_mixed_signs(self):
        assert p_value(np.array([1.0, -2.0, 3.0]), 2.0) == 8.0

    def test_hinge_all_nonpositive(self):
        assert p_value(np.array([-1.0, 0.0, -5.0]), 3.0) == 0.0

    def test_hinge_scaled_weight(self):
        assert p_value(np.array([0.5]), 550.0 / 1000.0) == pytest.approx(0.275)

    def test_eps_inside_tube(self):
        assert p_eps_value(np.array([0.05, -0.05]), 1.0, 0.1) == 0.0

    def test_eps_above_tube(self):
        assert p_eps_value(np.array([0.3]), 2.0, 0.1) == pytest.approx(0.4)

    def test_eps_below_tube(self):
        assert p_eps_value(np.array([-1.1]), 1.0, 0.1) == pytest.approx(1.0)


class TestProxHinge:
    def test_above_kink(self):
        assert prox_hinge(np.array([2.0]), 1.0, 1.0)[0] == 1.0

    def test_negative_branch(self):
        assert prox_hinge(np.array([-0.5]), 1.0, 1.0)[0] == -0.5

    def test_flat_branch(self):
        assert prox_hinge(np.array([0.5]), 1.0, 1.0)[0] == 0.0

    def test_grid_against_breakpoint_oracle(self, rng):
        for _ in range(5):
            C = float(rng.uniform(0.1, 4.0))
            M = float(rng.uniform(0.1, 4.0))
            z = np.linspace(-3 * C * M - 1, 3 * C * M + 1, 501)
            np.testing.assert_allclose(
                prox_hinge(z, C, M), prox_oracle(z, C, M), atol=1e-12
            )


class TestProxEps:
    def test_far_above(self):
        assert prox_eps(np.array([1.5]), 1.0, 1.0, 0.1)[0] == pytest.approx(0.5)

    def test_inside_tube(self):
        assert prox_eps(np.array([0.05]), 1.0, 1.0, 0.1)[0] == 0.05

    def test_lower_shoulder(self):
        assert prox_eps(np.array([-0.5]), 1.0, 1.0, 0.1)[0] == pytest.approx(-0.1)

    def test_far_below(self):
        # symmetric to the far-above branch: shift by +C*M
        assert prox_eps(np.array([-1.5]), 1.0, 1.0, 0.1)[0] == pytest.approx(-0.5)

    def test_grid_against_breakpoint_oracle(self, rng):
        for _ in range(5):
            C = float(rng.uniform(0.1, 4.0))
            M = float(rng.uniform(0.1, 4.0))
            eps = float(rng.uniform(0.0, 1.5))
            span = 3 * (C * M + eps) + 1
            z = np.linspace(-span, span, 501)
            np.testing.assert_allclose(
                prox_eps(z, C, M, eps), prox_oracle(z, C, M, eps), atol=1e-12
            )


def _env_scalar_oracle(z, C, M, eps=None):
    """Independent 1-D bounded minimization of the envelope objective."""
    if eps is None:
        def obj(s):
            return 0.5 * (s - z) ** 2 + M * C * max(s, 0.0)
    else:
        def obj(s):
            return 0.5 * (s - z) ** 2 + M * C * max(abs(s) - eps, 0.0)
    span = abs(z) + C * M + (eps or 0.0) + 1.0
    res = minimize_scalar(obj, bounds=(-span, span), method="bounded",
                          options={"xatol": 1e-12})
    return res.fun


class TestMoreauEnvelopes:
    def test_hinge_known_value(self):
        # z = 0.5 maps to s* = 0, so the envelope is 0.5 * 0.25
        assert moreau_env_hinge(np.array([0.5]), 1.0, 1.0) == pytest.approx(0.125)

    def test_hinge_negative_is_free(self):
        assert moreau_env_hinge(np.array([-1.0]), 2.3, 0.7) == 0.0

    def test_eps_inside_tube_is_free(self):
        assert moreau_env_eps(np.array([0.05, -0.08]), 1.0, 1.0, 0.1) == 0.0

    def test_hinge_against_numeric_minimization(self, rng):
        C, M = 1.7, 0.6
        z = rng.normal(size=8) * 2.0
        expected = sum(_env_scalar_oracle(zi, C, M) for zi in z)
        assert moreau_env_hinge(z, C, M) == pytest.approx(expected, abs=1e-9)

    def test_eps_against_numeric_minimization(self, rng):
        C, M, eps = 0.9, 1.4, 0.25
        z = rng.normal(size=8) * 2.0
        expected = sum(_env_scalar_oracle(zi, C, M, eps) for zi in z)
        assert moreau_env_eps(z, C, M, eps) == pytest.approx(expected, abs=1e-9)

    def test_gradient_identity(self, rng):
        # d/dz of the envelope equals z - prox(z), checked by central
        # differences away from the breakpoints
        C, M = 1.3, 0.8
        z = np.array([-1.7, 0.3, 0.9, 2.4])
        g_expected = z - prox_hinge(z, C, M)
        h = 1e-6
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (moreau_env_hinge(zp, C, M) - moreau_env_hinge(zm, C, M)) / (2 * h)
            assert fd == pytest.approx(g_expected[i], rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("C, M", [(1.3, 0.8), (550.0 / 8000, 1 / 0.15),
                                      (0.1, 3.0), (2.0, 0.5)])
    def test_hinge_equals_prox_then_penalty_bitwise(self, C, M, rng):
        # the envelope reads the penalty sum from the prox's own
        # max(z - C*M, 0) term; that must be the value of the two-step
        # form 0.5*|prox(z) - z|^2 + M*p_value(prox(z)) to the last bit,
        # at the breakpoints 0.0, -0.0 and C*M too
        special = np.array([0.0, -0.0, C * M])
        for size in (1, 7, 300):
            for scale in (0.5 * C * M, 3.0 * C * M):
                z = rng.normal(size=size) * scale
                pick = rng.random(size) < 0.3
                z[pick] = rng.choice(special, size=int(pick.sum()))
                s = prox_hinge(z, C, M)
                diff = s - z
                expect = 0.5 * float(diff @ diff) + M * p_value(s, C)
                got = moreau_env_hinge(z, C, M)
                assert np.float64(got).tobytes() == np.float64(expect).tobytes()
        for z in (special, -special, np.full(5, -0.0), np.zeros(0)):
            s = prox_hinge(z, C, M)
            diff = s - z
            expect = 0.5 * float(diff @ diff) + M * p_value(s, C)
            got = moreau_env_hinge(z, C, M)
            assert np.float64(got).tobytes() == np.float64(expect).tobytes()


class TestActiveSets:
    def test_svc_basic(self):
        rows = active_set_svc(np.array([0.3, -0.1, 0.7]), 1.0, 2.0)
        np.testing.assert_array_equal(rows, [0])

    def test_svc_all_negative(self):
        assert active_set_svc(np.array([-1.0, -0.2]), 1.0, 2.0).size == 0

    def test_svc_boundaries_excluded(self):
        rows = active_set_svc(np.array([0.0, 0.5, 0.25]), 1.0, 2.0)
        np.testing.assert_array_equal(rows, [2])

    def test_svr_positive_branch(self):
        np.testing.assert_array_equal(
            active_set_svr(np.array([0.3]), 1.0, 2.0, 0.1), [0]
        )

    def test_svr_negative_branch(self):
        np.testing.assert_array_equal(
            active_set_svr(np.array([-0.3]), 1.0, 2.0, 0.1), [0]
        )

    def test_svr_inside_tube(self):
        assert active_set_svr(np.array([0.05]), 1.0, 2.0, 0.1).size == 0

    def test_svr_boundaries_excluded(self):
        z = np.array([0.1, 0.6, -0.1, -0.6])  # all four breakpoints
        assert active_set_svr(z, 1.0, 2.0, 0.1).size == 0

    def test_active_set_is_where_prox_has_zero_slope(self, rng):
        # on the active set the prox is locally constant; elsewhere its
        # slope is one (checked at non-breakpoint points)
        C, sigma = 1.0, 2.0
        M = 1.0 / sigma
        z = rng.uniform(-2, 2, size=64)
        z = z[np.min(np.abs(z[:, None] - np.array([0.0, C * M])), axis=1) > 1e-3]
        h = 1e-7
        slopes = (prox_hinge(z + h, C, M) - prox_hinge(z - h, C, M)) / (2 * h)
        active = np.zeros(z.size, dtype=bool)
        active[active_set_svc(z, C, sigma)] = True
        np.testing.assert_allclose(slopes[active], 0.0, atol=1e-9)
        np.testing.assert_allclose(slopes[~active], 1.0, atol=1e-9)


# (C, sigma) pairs; for the last two C * (1/sigma) != C / sigma, so the
# prox's upper breakpoint and the active set's differ in the last bit
SPLIT_PARAMS = [(1.0, 2.0), (1.0, 0.15), (0.011, 0.1875), (0.01375, 0.7)]


def _around(breaks, rng):
    """Each breakpoint, its two floating-point neighbours and random
    points spread over the pieces between them."""
    b = np.asarray(breaks, dtype=np.float64)
    span = 3.0 * float(np.abs(b).max())
    return np.unique(np.concatenate([
        b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf),
        rng.uniform(-span, span, size=200)]))


class TestSplit:
    """A penalty's ``split`` classifies ``z`` once: its rows are the active set,
    its values are ``z - prox(z)`` there bit for bit, and ``sat *
    C/sigma`` is ``z - prox(z)`` on every other row."""

    @staticmethod
    def _check(z, split, active, residual, cs):
        rows, y, sat = split
        np.testing.assert_array_equal(rows, active)
        assert y.tobytes() == residual[rows].tobytes()
        assert sat.dtype == np.int8 and sat.shape == z.shape
        assert not sat[rows].any()
        off = np.ones(z.size, dtype=bool)
        off[rows] = False
        np.testing.assert_allclose(residual[off], sat[off] * cs,
                                   rtol=1e-14, atol=0.0)

    def test_param_grid_has_split_breakpoints(self):
        assert any(C * (1.0 / sigma) != C / sigma for C, sigma in SPLIT_PARAMS)

    @pytest.mark.parametrize("C, sigma", SPLIT_PARAMS)
    def test_svc_at_breakpoints(self, C, sigma, rng):
        cs = C / sigma
        z = _around([0.0, cs, C * (1.0 / sigma)], rng)
        got = Hinge(C).split(z, sigma)
        self._check(z, got, active_set_svc(z, C, sigma),
                    z - prox_hinge(z, C, 1.0 / sigma), cs)
        assert got[2][z == cs].tolist() == [1]

    @pytest.mark.parametrize("C, sigma", SPLIT_PARAMS)
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_svr_at_breakpoints(self, C, sigma, eps, rng):
        cs = C / sigma
        hi = eps + cs
        z = _around([0.0, eps, -eps, hi, -hi, eps + C * (1.0 / sigma)], rng)
        got = EpsInsensitive(C, eps).split(z, sigma)
        self._check(z, got, active_set_svr(z, C, sigma, eps),
                    z - prox_eps(z, C, 1.0 / sigma, eps), cs)
        assert got[2][z == hi].tolist() == [1]
        assert got[2][z == -hi].tolist() == [-1]


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nonexpansiveness(self, seed):
        rng = np.random.default_rng(seed)
        C = float(rng.uniform(0.1, 5.0))
        M = float(rng.uniform(0.1, 5.0))
        eps = float(rng.uniform(0.0, 1.0))
        z1 = rng.normal(size=6) * 3
        z2 = rng.normal(size=6) * 3
        for a, b in [
            (prox_hinge(z1, C, M), prox_hinge(z2, C, M)),
            (prox_eps(z1, C, M, eps), prox_eps(z2, C, M, eps)),
        ]:
            assert np.linalg.norm(a - b) <= np.linalg.norm(z1 - z2) + 1e-12

    def test_envelope_optimality(self, rng):
        C, M = 1.2, 0.9
        z = rng.normal(size=5) * 2
        s_star = prox_hinge(z, C, M)
        best = 0.5 * float((s_star - z) @ (s_star - z)) + M * p_value(s_star, C)
        for _ in range(100):
            s = rng.normal(size=5) * 3
            other = 0.5 * float((s - z) @ (s - z)) + M * p_value(s, C)
            assert best <= other + 1e-12

    def test_moreau_residual_bounds(self, rng):
        # z - prox(z) lies in [0, C*M] for z >= 0 and vanishes for z < 0
        C, M = 1.4, 0.7
        z = rng.normal(size=200) * 3
        r = z - prox_hinge(z, C, M)
        pos, neg = z >= 0, z < 0
        assert np.all(r[pos] >= -1e-15) and np.all(r[pos] <= C * M + 1e-15)
        np.testing.assert_array_equal(r[neg], 0.0)

