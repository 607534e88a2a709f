"""Globalized semismooth Newton method with an inexact CG inner solver.

Solves ``grad(w) = 0`` for a strongly convex, piecewise-smooth objective
supplied through a :class:`Subproblem`. Each iteration solves the
Newton system ``V d = -g`` approximately by conjugate gradients, with a
forcing term ``mu_j = min(CG_ETA0, CG_ETA1 * |g|)`` that tightens as the
gradient shrinks, then backtracks along ``d`` under the Armijo rule.
Because the Hessian selection satisfies ``V - I >= 0``, CG directions
are always well defined; a steepest-descent fallback covers the case
where rounding still produces a non-descent direction. CG curvature
breakdowns and fallbacks are counted, so neither goes unseen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

__all__ = ["Subproblem", "NewtonStats", "CgBreakdownError",
           "LineSearchError", "cg_solve", "newton_solve"]

LS_RHO = 0.5  # Armijo step shrink factor
LS_C1 = 1e-4  # Armijo sufficient-decrease constant
CG_ETA0 = 0.9
CG_ETA1 = 0.1
CG_MAXIT = 200  # CG iteration cap per Newton step


class CgBreakdownError(RuntimeError):
    """CG produced a non-finite iterate."""


class LineSearchError(RuntimeError):
    """Armijo backtracking failed; value and gradient disagree."""


class Subproblem(Protocol):
    """One smooth subproblem that owns the current iterate ``w``.

    ``reset(w)`` sets the iterate. ``newton_solve`` then drives one
    cycle per Newton step: ``grad()`` at the iterate, ``linearize()``
    to fix the generalized-Hessian selection there and return its
    active-set size |I|, ``hvp`` inside CG, ``set_direction(d)`` once,
    ``value(alpha)`` for the objective at ``w + alpha*d`` (``value(0.0)``
    is the value at ``w``) and ``accept(alpha)`` to move the iterate
    there. ``hvp`` must be symmetric positive definite for any active
    set.

    ``grad`` and ``linearize`` at the same iterate may share one
    classification of its rows: the solver's subproblem gathers the
    active rows once in ``grad`` and hands them to ``linearize`` and
    every ``hvp`` of the step. ``linearize`` must also work when no
    ``grad`` came first at that iterate.
    """

    w: np.ndarray

    def reset(self, w: np.ndarray) -> None: ...

    def grad(self) -> np.ndarray: ...

    def linearize(self) -> int: ...

    def hvp(self, h: np.ndarray) -> np.ndarray: ...

    def set_direction(self, d: np.ndarray) -> None: ...

    def value(self, alpha: float) -> float: ...

    def accept(self, alpha: float) -> None: ...


@dataclass
class NewtonStats:
    """Per-solve counters and histories.

    ``grad_norms`` has one entry per gradient evaluation (iterations + 1
    values); ``step_sizes`` and ``active_set_sizes`` have one entry per
    executed iteration. ``cg_breakdowns`` counts CG solves stopped by
    non-positive curvature ``p'Ap <= 0``, ``descent_fallbacks`` the
    steps that replaced a non-descent CG direction by ``-grad``; both
    stay 0 for a positive definite ``hvp``.
    """

    iterations: int = 0
    cg_iterations_total: int = 0
    cg_breakdowns: int = 0
    descent_fallbacks: int = 0
    final_grad_norm: float = float("nan")
    step_sizes: list[float] = field(default_factory=list)
    active_set_sizes: list[int] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    hit_iteration_cap: bool = False


def cg_solve(hvp, rhs, tol_abs: float, maxit: int):
    """Conjugate gradients for ``hvp(x) = rhs`` from ``x0 = 0``.

    Stops once ``|hvp(x) - rhs| <= tol_abs`` or after ``maxit``
    iterations, whichever comes first; returns ``(x, iterations,
    breakdown)``. ``breakdown`` is True when a search direction had
    curvature ``p'Ap <= 0``; ``x`` is then the iterate before it. The
    recurrence residual is replaced by the explicit one every 50
    iterations to limit drift. ``x``, ``r`` and ``p`` are updated in
    place through one scratch vector, with the same roundings as the
    textbook out-of-place recurrence.
    """
    if tol_abs <= 0:
        raise ValueError("tol_abs must be positive")
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rr = float(r @ r)
    if math.sqrt(rr) <= tol_abs:
        return x, 0, False
    p = r.copy()
    step = np.empty_like(rhs)
    for it in range(1, maxit + 1):
        ap = hvp(p)
        pap = float(p @ ap)
        if not math.isfinite(pap):
            raise CgBreakdownError("non-finite curvature in CG")
        if pap <= 0.0:
            # operator contract is SPD; bail out with the current iterate
            return x, it, True
        alpha = rr / pap
        x += np.multiply(alpha, p, out=step)
        if it % 50 == 0:
            np.subtract(rhs, hvp(x), out=r)
        else:
            r -= np.multiply(alpha, ap, out=step)
        rr_new = float(r @ r)
        if not math.isfinite(rr_new):
            raise CgBreakdownError("non-finite residual in CG")
        if math.sqrt(rr_new) <= tol_abs:
            return x, it, False
        p *= rr_new / rr
        p += r
        rr = rr_new
    return x, maxit, False


def newton_solve(sub: Subproblem, w0, tol: float, max_iter: int):
    """Run the globalized Newton iteration from ``w0`` until
    ``|grad| <= tol`` or for at most ``max_iter`` steps.

    Returns ``(w, NewtonStats)``; if the iteration cap fires the stats
    are flagged instead of raising.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sub.reset(np.array(w0, dtype=np.float64, copy=True))
    stats = NewtonStats()
    g = sub.grad()
    gnorm = float(np.linalg.norm(g))
    stats.grad_norms.append(gnorm)
    while gnorm > tol:
        if stats.iterations >= max_iter:
            stats.hit_iteration_cap = True
            break
        stats.active_set_sizes.append(int(sub.linearize()))
        mu = min(CG_ETA0, CG_ETA1 * gnorm)
        d, cg_iters, breakdown = cg_solve(sub.hvp, -g, mu * gnorm, CG_MAXIT)
        stats.cg_iterations_total += cg_iters
        stats.cg_breakdowns += breakdown
        slope = float(g @ d)
        if slope >= 0.0:
            # rounding spoiled the CG direction; fall back to steepest descent
            stats.descent_fallbacks += 1
            d = -g
            slope = -gnorm * gnorm
        sub.set_direction(d)
        f0 = sub.value(0.0)
        alpha = 1.0
        for _ in range(50):
            if sub.value(alpha) <= f0 + LS_C1 * alpha * slope:
                break
            alpha *= LS_RHO
        else:
            raise LineSearchError(
                "no Armijo step after 50 backtracks; "
                "gradient and value are inconsistent"
            )
        sub.accept(alpha)
        stats.step_sizes.append(alpha)
        stats.iterations += 1
        g = sub.grad()
        gnorm = float(np.linalg.norm(g))
        stats.grad_norms.append(gnorm)
    stats.final_grad_norm = gnorm
    return sub.w, stats
