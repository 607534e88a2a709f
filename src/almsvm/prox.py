"""Proximal maps, Moreau envelopes and active index sets.

Two penalties are covered, both scaled by a weight C > 0:

* hinge penalty          C * sum(max(s_i, 0))
* eps-insensitive penalty C * sum(max(|s_i| - eps, 0))

``prox_*`` evaluates the proximal map at scale M > 0, i.e. the minimizer
of ``|s - z|^2 / (2 M) + penalty(s)``; ``moreau_env_*`` evaluates the
corresponding envelope value ``0.5 |s* - z|^2 + M * penalty(s*)``. Both
maps are piecewise linear and are computed with branch-free min/max
forms. The active sets collect the coordinates where the prox has local
slope one, which is where curvature survives in the solver's Hessian.
``split_*`` classifies every coordinate at once: active, saturated
(``z - prox(z)`` is the constant ``+-C/sigma``) or neither
(``z - prox(z)`` is zero).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "p_value",
    "p_eps_value",
    "prox_hinge",
    "prox_eps",
    "moreau_env_hinge",
    "moreau_env_eps",
    "active_set_svc",
    "active_set_svr",
    "split_svc",
    "split_svr",
]


def p_value(s, C: float) -> float:
    """Hinge penalty C * sum(max(s_i, 0))."""
    s = np.asarray(s, dtype=np.float64)
    return C * float(np.maximum(s, 0.0).sum())


def p_eps_value(s, C: float, eps: float) -> float:
    """Eps-insensitive penalty C * sum(max(|s_i| - eps, 0))."""
    s = np.asarray(s, dtype=np.float64)
    return C * float(np.maximum(np.abs(s) - eps, 0.0).sum())


def prox_hinge(z, C: float, M: float):
    """Elementwise max(z - C*M, 0) + min(z, 0)."""
    z = np.asarray(z, dtype=np.float64)
    cm = C * M
    return np.maximum(z - cm, 0.0) + np.minimum(z, 0.0)


def prox_eps(z, C: float, M: float, eps: float):
    """Elementwise max(min(z, max(z - C*M, eps)), min(z + C*M, -eps))."""
    z = np.asarray(z, dtype=np.float64)
    cm = C * M
    return np.maximum(
        np.minimum(z, np.maximum(z - cm, eps)), np.minimum(z + cm, -eps)
    )


def moreau_env_hinge(z, C: float, M: float) -> float:
    # for s = prox_hinge(z), max(s, 0) is the prox's own max(z - C*M, 0)
    # term, so the penalty sum reads that term and the prox is inlined
    z = np.asarray(z, dtype=np.float64)
    excess = np.maximum(z - C * M, 0.0)
    diff = excess + np.minimum(z, 0.0)  # prox_hinge(z)
    diff -= z
    return 0.5 * float(diff @ diff) + M * (C * float(excess.sum()))


def moreau_env_eps(z, C: float, M: float, eps: float) -> float:
    z = np.asarray(z, dtype=np.float64)
    s = prox_eps(z, C, M, eps)
    diff = s - z
    return 0.5 * float(diff @ diff) + M * p_eps_value(s, C, eps)


def active_set_svc(z, C: float, sigma: float) -> np.ndarray:
    """Sorted indices with z_i strictly inside (0, C/sigma).

    Boundary points are excluded: there the Jacobian selection takes
    slope one, dropping the coordinate from the Newton system.
    """
    z = np.asarray(z, dtype=np.float64)
    cs = C / sigma
    return np.flatnonzero((z > 0.0) & (z < cs))


def active_set_svr(z, C: float, sigma: float, eps: float) -> np.ndarray:
    """Sorted indices with z_i in (eps, eps + C/sigma) or its mirror
    (-eps - C/sigma, -eps); all four breakpoints excluded."""
    z = np.asarray(z, dtype=np.float64)
    cs = C / sigma
    pos = (z > eps) & (z < eps + cs)
    neg = (z > -eps - cs) & (z < -eps)
    return np.flatnonzero(pos | neg)


def split_svc(z, C: float, sigma: float):
    """Classify ``z`` for the hinge at ``M = 1/sigma``.

    Returns ``(rows, y, sat)``: ``rows`` is :func:`active_set_svc`,
    ``y = z[rows]``, which is ``z - prox_hinge(z)`` there bit for bit,
    and ``sat`` is the int8 indicator of ``z >= C/sigma``, where
    ``z - prox_hinge(z)`` is ``C/sigma`` up to rounding. Elsewhere
    ``z - prox_hinge(z)`` is zero.
    """
    z = np.asarray(z, dtype=np.float64)
    rows = active_set_svc(z, C, sigma)
    return rows, z[rows], (z >= C / sigma).view(np.int8)


def split_svr(z, C: float, sigma: float, eps: float):
    """Classify ``z`` for the eps-insensitive penalty at ``M = 1/sigma``.

    Returns ``(rows, y, sat)``: ``rows`` is :func:`active_set_svr`,
    ``y = z[rows] -+ eps``, which is ``z - prox_eps(z)`` there bit for
    bit, and ``sat`` is +1 where ``z >= eps + C/sigma`` and -1 where
    ``z <= -eps - C/sigma`` (int8), where ``z - prox_eps(z)`` is
    ``+-C/sigma`` up to rounding. Elsewhere ``z - prox_eps(z)`` is zero.
    """
    z = np.asarray(z, dtype=np.float64)
    hi = eps + C / sigma
    rows = active_set_svr(z, C, sigma, eps)
    zr = z[rows]
    sat = (z >= hi).view(np.int8) - (z <= -hi).view(np.int8)
    return rows, zr - np.copysign(eps, zr), sat
