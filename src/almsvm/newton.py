"""Globalized semismooth Newton method with an inexact CG inner solver.

Solves ``grad(w) = 0`` for a strongly convex, piecewise-smooth objective
supplied through a :class:`Subproblem`. Each iteration solves the
Newton system ``V d = -g`` approximately by conjugate gradients, with a
forcing term ``mu_j = min(CG_ETA0, CG_ETA1 * |g|)`` that tightens as the
gradient shrinks. The step along ``d`` is the unit step when it passes
the Armijo rule. Otherwise it is the minimizer of the objective on the
ray ``phi(alpha) = f(w + alpha*d)`` over ``[0, 1]``, found by a
safeguarded one-dimensional semismooth Newton iteration on ``phi'(alpha)
= 0`` to ``|phi'(alpha)| <= RAY_TOL * |phi'(0)|``, and the Armijo rule
is checked there, backtracking by ``LS_RHO`` if it fails.
Because the Hessian selection satisfies ``V - I >= 0``, CG directions
are always well defined; a steepest-descent fallback covers the case
where rounding still produces a non-descent direction. CG curvature
breakdowns and fallbacks are counted, so neither goes unseen.

Far from the solution the iteration can zig-zag, the gradient norm
rising and falling from step to step while the active set keeps
changing; a caller that can finish the solve by other means from a
small enough active set passes ``stall_rows`` to :func:`newton_solve`
to stop it there.

:func:`cg_solve` also takes a diagonal (Jacobi) preconditioner, which
the active-set finish of :mod:`almsvm.alm` passes for its systems
``B_F B_F.T``; the Newton steps run plain CG.
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
LS_MAXIT = 50  # iteration cap of the ray search and of the backtracking
RAY_TOL = 0.01  # ray search stops at |phi'(alpha)| <= RAY_TOL * |phi'(0)|
CG_ETA0 = 0.9
CG_ETA1 = 0.1
CG_MAXIT = 200  # CG iteration cap per Newton step
STALL_RISES = 3  # a solve given stall_rows may stop from its third rise of |grad| on


class CgBreakdownError(RuntimeError):
    """CG produced a non-finite iterate."""


class LineSearchError(RuntimeError):
    """Armijo backtracking failed; value and gradient disagree."""


class Subproblem(Protocol):
    """One smooth subproblem that owns the current iterate ``w``.

    ``reset(w)`` sets the iterate. ``newton_solve`` then drives one
    cycle per Newton step: ``grad()`` at the iterate, ``linearize()``
    for the active-set size |I| of the generalized-Hessian selection
    there, ``hvp`` inside CG, ``set_direction(d)`` once,
    ``value(alpha)`` for the objective ``phi(alpha)`` at ``w + alpha*d``
    (``value(0.0)`` is the value at ``w``) and ``accept(alpha)`` to move
    the iterate there. When the unit step fails the Armijo rule,
    ``derivatives(alpha)`` gives ``(phi'(alpha), phi''(alpha))`` on the
    ray, ``phi''`` being a generalized second derivative. ``hvp`` must
    be symmetric positive definite for any active set.

    ``linearize`` is called only after ``grad`` at the same iterate,
    and the two share one classification of its rows: the solver's
    subproblem classifies ``z`` once per iterate in ``grad``, gathers
    the active rows there, and ``linearize`` returns the size of that
    block, which every ``hvp`` of the step reads.
    """

    w: np.ndarray

    def reset(self, w: np.ndarray) -> None: ...

    def grad(self) -> np.ndarray: ...

    def linearize(self) -> int: ...

    def hvp(self, h: np.ndarray) -> np.ndarray: ...

    def set_direction(self, d: np.ndarray) -> None: ...

    def value(self, alpha: float) -> float: ...

    def derivatives(self, alpha: float) -> tuple[float, float]: ...

    def accept(self, alpha: float) -> None: ...


@dataclass
class NewtonStats:
    """Per-solve counters and histories.

    ``grad_norms`` has one entry per gradient evaluation (iterations + 1
    values); ``step_sizes`` and ``active_set_sizes`` have one entry per
    executed iteration. ``cg_breakdowns`` counts CG solves stopped by
    non-positive curvature ``p'Ap <= 0``, ``descent_fallbacks`` the
    steps that replaced a non-descent CG direction by ``-grad``; both
    stay 0 for a positive definite ``hvp``. ``hit_iteration_cap`` is set
    when the solve ran out of steps, ``stalled`` when the stall rule of
    :func:`newton_solve` ended it; either leaves ``|grad|`` above the
    tolerance.
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
    stalled: bool = False


def cg_solve(hvp, rhs, tol_abs: float, maxit: int, x0=None, diag=None):
    """Conjugate gradients for ``hvp(x) = rhs`` from ``x0``, by default 0;
    a given ``x0`` costs one more ``hvp`` for the starting residual.

    Stops once ``|hvp(x) - rhs| <= tol_abs`` or after ``maxit``
    iterations, whichever comes first; returns ``(x, iterations,
    breakdown)``. ``breakdown`` is True when a search direction had
    curvature ``p'Ap <= 0``; ``x`` is then the iterate before it. The
    recurrence residual is replaced by the explicit one every 50
    iterations to limit drift. ``x``, ``r`` and ``p`` are updated in
    place through one scratch vector, with the same roundings as the
    textbook out-of-place recurrence.

    ``diag``, positive and finite with the shape of ``rhs``, makes it
    preconditioned CG with the Jacobi preconditioner ``diag(diag)``: each
    search direction is built from ``r / diag`` instead of ``r``. The
    stopping test still reads the residual ``r`` itself, not the
    preconditioned one, so ``tol_abs`` keeps its meaning. With
    ``diag=None`` it is plain CG, bit for bit.
    """
    if tol_abs <= 0:
        raise ValueError("tol_abs must be positive")
    rhs = np.asarray(rhs, dtype=np.float64)
    if diag is not None:
        diag = np.asarray(diag, dtype=np.float64)
        if diag.shape != rhs.shape:
            raise ValueError(f"diag must have shape {rhs.shape}, got {diag.shape}")
        if not np.all(np.isfinite(diag) & (diag > 0.0)):
            raise ValueError("diag must be positive and finite")
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = rhs - hvp(x)
    rr = float(r @ r)
    if math.sqrt(rr) <= tol_abs:
        return x, 0, False
    # z is the preconditioned residual; without diag it is r itself
    z = r if diag is None else r / diag
    rz = rr if diag is None else float(r @ z)
    p = z.copy()
    step = np.empty_like(rhs)
    for it in range(1, maxit + 1):
        ap = hvp(p)
        pap = float(p @ ap)
        if not math.isfinite(pap):
            raise CgBreakdownError("non-finite curvature in CG")
        if pap <= 0.0:
            # operator contract is SPD; bail out with the current iterate
            return x, it, True
        alpha = rz / pap
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
        if diag is None:
            rz_new = rr_new
        else:
            np.divide(r, diag, out=z)
            rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, maxit, False


def _ray_step(sub: Subproblem, slope: float) -> float:
    """The minimizer of ``phi(alpha)`` over ``[0, 1]`` along the current
    direction, where ``slope = phi'(0) < 0``.

    Semismooth Newton on ``phi'(alpha) = 0`` from ``alpha = 1``, kept
    inside a bracket ``[lo, hi]`` with ``phi'(lo) < 0 < phi'(hi)``; a
    Newton point outside the bracket is replaced by its midpoint. Stops
    at ``|phi'(alpha)| <= RAY_TOL * |slope|``, or at ``alpha = 1`` when
    ``phi`` still descends there, or after ``LS_MAXIT`` iterations.
    """
    lo, hi, alpha = 0.0, 1.0, 1.0
    for _ in range(LS_MAXIT):
        d1, d2 = sub.derivatives(alpha)
        if abs(d1) <= -RAY_TOL * slope or (d1 < 0.0 and alpha == 1.0):
            break
        if d1 < 0.0:
            lo = alpha
        else:
            hi = alpha
        nxt = alpha - d1 / d2 if d2 > 0.0 else lo
        alpha = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return alpha


def newton_solve(sub: Subproblem, w0, tol: float, max_iter: int, *,
                 stall_rows: float | None = None):
    """Run the globalized Newton iteration from ``w0`` until
    ``|grad| <= tol`` or for at most ``max_iter`` steps.

    With ``stall_rows`` given, the iteration also stops, ``stalled``,
    at the iterate of its ``STALL_RISES``-th step whose gradient norm
    exceeds the one before, if that iterate's active set
    (``linearize()``) has at most ``stall_rows`` rows; otherwise it goes
    on and checks the iterate of each later rise the same way. With
    ``stall_rows=None`` it runs to the tolerance or the cap. Returns
    ``(w, NewtonStats)``; if the iteration cap fires the stats are
    flagged instead of raising.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sub.reset(np.array(w0, dtype=np.float64, copy=True))
    stats = NewtonStats()
    g = sub.grad()
    gnorm = float(np.linalg.norm(g))
    stats.grad_norms.append(gnorm)
    rises, rose = 0, False
    while gnorm > tol:
        if stats.iterations >= max_iter:
            stats.hit_iteration_cap = True
            break
        active = int(sub.linearize())
        if (stall_rows is not None and rose and rises >= STALL_RISES
                and active <= stall_rows):
            stats.stalled = True
            break
        stats.active_set_sizes.append(active)
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
        if sub.value(1.0) > f0 + LS_C1 * slope:
            alpha = _ray_step(sub, slope)
            for _ in range(LS_MAXIT):
                if sub.value(alpha) <= f0 + LS_C1 * alpha * slope:
                    break
                alpha *= LS_RHO
            else:
                raise LineSearchError(
                    f"no Armijo step after {LS_MAXIT} backtracks; "
                    "gradient and value are inconsistent"
                )
        sub.accept(alpha)
        stats.step_sizes.append(alpha)
        stats.iterations += 1
        g = sub.grad()
        gnorm, gnorm_before = float(np.linalg.norm(g)), gnorm
        rose = gnorm > gnorm_before
        rises += rose
        stats.grad_norms.append(gnorm)
    stats.final_grad_norm = gnorm
    return sub.w, stats
