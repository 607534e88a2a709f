"""Problem assembly, the augmented-Lagrangian outer loop and optimality
certification.

Both supported models share one template::

    minimize  0.5 * ||w||^2 + penalty(B w + d)

* classification (:func:`build_svc`): B = -diag(y) X, d = ones, hinge penalty;
* regression (:func:`build_svr`):     B = X, d = -y, eps-insensitive penalty.

Each outer iteration minimizes the smoothed subproblem

    phi(w) = 0.5*||w||^2 - ||lam||^2/(2*sigma) + sigma * env(B w + d + lam/sigma)

over w with the semismooth Newton-CG solver (``env`` is the Moreau
envelope of the penalty scaled by 1/sigma), recovers the auxiliary point
s through the proximal map, updates the multiplier lam and grows the
penalty parameter sigma geometrically up to a cap. Optimality is
certified by three scaled KKT residuals and the duality gap against the
box-projected multiplier.

Beyond its value (``p_value``, ``p_eps_value``), the solver reaches
each penalty only through maps at a scale M > 0: the proximal map
``prox_*(z, M)``, the minimizer of ``|s - z|^2 / (2 M) + penalty(s)``;
the Moreau envelope ``moreau_env_*(z, M) = 0.5 |s* - z|^2 + M *
penalty(s*)`` at ``s* = prox(z)``; and, at ``M = 1/sigma``, the active
set ``active_set_*`` of the prox's generalized Jacobian, the
coordinates where ``z - prox(z)`` has local slope one, which is where
curvature survives in the Newton system. The maps are piecewise linear
and computed with branch-free min/max forms. :class:`Hinge` and
:class:`EpsInsensitive` own them; each penalty's ``split`` classifies
``z`` once per Newton iterate: active, saturated (``z - prox(z)`` is the
constant ``+-C/sigma``) or neither (``z - prox(z)`` is zero).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data_io import Dataset
from .newton import NewtonStats, newton_solve
from .sparse import SparseMatrix

__all__ = [
    "CONVERGED",
    "MAX_OUTER",
    "DivergedError",
    "Problem",
    "SolverConfig",
    "OuterRecord",
    "SolveReport",
    "Hinge",
    "EpsInsensitive",
    "build_svc",
    "build_svr",
    "primal_objective",
    "dual_objective",
    "SmoothedSubproblem",
    "make_subproblem_oracle",
    "kkt_residual",
    "alm_solve",
]

CONVERGED = "converged"
MAX_OUTER = "max_outer"

NEWTON_TOL_FLOOR = 1e-6
NEWTON_MAXIT = 50  # Newton step cap per outer iteration

# the reference parameterization
C_SCALE_SVC = 550.0  # classification C = C_SCALE_SVC / m
C_SCALE_SVR = 5.0  # regression C = C_SCALE_SVR / n, with eps = EPSILON
EPSILON = 0.1


class DivergedError(RuntimeError):
    """Solver state left the finite range."""


def _weight(C: float) -> float:
    if not (math.isfinite(C) and C > 0):
        raise ValueError("C must be positive and finite")
    return C


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


# The penalty methods look up the maps above in this module's namespace at
# call time, so a patch of one of them (perfbench/tracer.py wraps each)
# sees every call, the classification inside ``split`` included.
class Hinge:
    """``C * sum(max(s_i, 0))``; conjugate 0 on the dual box [0, C]."""

    def __init__(self, C: float):
        self.C = _weight(C)
        self.box = (0.0, self.C)

    def value(self, s) -> float:
        return p_value(s, self.C)

    def prox(self, z, M: float):
        return prox_hinge(z, self.C, M)

    def envelope(self, z, M: float) -> float:
        return moreau_env_hinge(z, self.C, M)

    def split(self, z, sigma: float):
        """Classify ``z`` at ``M = 1/sigma``.

        Returns ``(rows, y, sat)``: ``rows`` is :func:`active_set_svc`,
        ``y = z[rows]``, which is ``z - prox(z)`` there bit for bit, and
        ``sat`` is the int8 indicator of ``z >= C/sigma``, where
        ``z - prox(z)`` is ``C/sigma`` up to rounding. Elsewhere
        ``z - prox(z)`` is zero.
        """
        z = np.asarray(z, dtype=np.float64)
        rows = active_set_svc(z, self.C, sigma)
        return rows, z[rows], (z >= self.C / sigma).view(np.int8)

    def conjugate(self, lam) -> float:
        return 0.0


class EpsInsensitive:
    """``C * sum(max(|s_i| - eps, 0))``; conjugate ``eps*|lam|_1`` on [-C, C]."""

    def __init__(self, C: float, eps: float):
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError("eps must be nonnegative and finite")
        self.C, self.eps = _weight(C), eps
        self.box = (-self.C, self.C)

    def value(self, s) -> float:
        return p_eps_value(s, self.C, self.eps)

    def prox(self, z, M: float):
        return prox_eps(z, self.C, M, self.eps)

    def envelope(self, z, M: float) -> float:
        return moreau_env_eps(z, self.C, M, self.eps)

    def split(self, z, sigma: float):
        """Classify ``z`` at ``M = 1/sigma``.

        Returns ``(rows, y, sat)``: ``rows`` is :func:`active_set_svr`,
        ``y = z[rows] -+ eps``, which is ``z - prox(z)`` there bit for
        bit, and ``sat`` is +1 where ``z >= eps + C/sigma`` and -1 where
        ``z <= -eps - C/sigma`` (int8), where ``z - prox(z)`` is
        ``+-C/sigma`` up to rounding. Elsewhere ``z - prox(z)`` is zero.
        """
        z = np.asarray(z, dtype=np.float64)
        hi = self.eps + self.C / sigma
        rows = active_set_svr(z, self.C, sigma, self.eps)
        zr = z[rows]
        sat = (z >= hi).view(np.int8) - (z <= -hi).view(np.int8)
        return rows, zr - np.copysign(self.eps, zr), sat

    def conjugate(self, lam) -> float:
        return self.eps * float(np.abs(lam).sum())


@dataclass(frozen=True)
class Problem:
    """One assembled training instance of the template
    ``0.5*||w||^2 + penalty(B w + d)``.

    ``d`` is the constant offset in the constraint ``s = B w + d``:
    all-ones for classification, ``-y`` for regression. ``penalty`` is a
    :class:`Hinge` or an :class:`EpsInsensitive`, picked by the builder.
    """

    B: SparseMatrix
    d: np.ndarray
    penalty: Hinge | EpsInsensitive

    def __post_init__(self):
        if self.d.shape != (self.B.m,):
            raise ValueError("d must have one entry per row of B")
        if not np.all(np.isfinite(self.d)):
            raise ValueError("d must be finite")

    @property
    def m(self) -> int:
        return self.B.m

    @property
    def n(self) -> int:
        return self.B.n


@dataclass
class SolverConfig:
    """Tunables of the outer loop.

    Defaults follow the reference parameterization: sigma starts at 0.15
    and grows by 1/theta = 1.25 per outer iteration up to 2; at most 10
    outer iterations. ``tol`` bounds both the KKT residual and the
    duality gap relative to ``1 + |primal|`` of a converged solve. Each
    outer iteration k runs at most ``NEWTON_MAXIT`` Newton steps to the
    inner tolerance ``max(NEWTON_TOL_FLOOR, min(10**-(k+1), r))``, ``r``
    the previous outer iteration's KKT residual; the line-search and CG
    constants are fixed in :mod:`almsvm.newton`.
    """

    sigma0: float = 0.15
    sigma_max: float = 2.0
    theta: float = 0.8
    tol: float = 1e-6
    max_outer: int = 10

    def __post_init__(self):
        if not all(map(math.isfinite, (self.sigma0, self.sigma_max, self.tol))):
            raise ValueError("sigma0, sigma_max and tol must be finite")
        if not 0.0 < self.sigma0 <= self.sigma_max:
            raise ValueError("need 0 < sigma0 <= sigma_max")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if isinstance(self.max_outer, bool) or not isinstance(
                self.max_outer, (int, np.integer)):
            raise ValueError(f"max_outer must be an integer, got {self.max_outer!r}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass
class OuterRecord:
    """One outer iteration: the penalty parameter and the gradient
    tolerance its Newton solve ran at, that solve's statistics, the
    primal and dual objective values after the multiplier update, and
    the three scaled KKT residuals of :func:`kkt_residual` there."""

    sigma: float
    inner_tol: float
    newton: NewtonStats
    primal: float
    dual: float
    r1: float
    r2: float
    r3: float


@dataclass
class SolveReport:
    """Statistics of one ``alm_solve`` run.

    ``status`` is ``"converged"`` when the KKT residual reached ``tol``
    and the last record's gap certifies its objective, ``primal - dual
    <= tol * (1 + |primal|)``, and ``"max_outer"`` when the outer
    iteration limit ended the run first; the latter also adds a warning.
    ``objective`` is the last record's primal value, which is never below
    the optimum, so a converged objective is within ``tol * (1 +
    |objective|)`` above it. ``outer`` holds one
    :class:`OuterRecord` per outer iteration, ``k`` of them;
    ``kkt_residual`` is the largest of the last record's ``r1``, ``r2``
    and ``r3``. A Newton solve with a CG curvature breakdown or a
    steepest-descent fallback adds a warning too.
    """

    status: str = MAX_OUTER
    k: int = 0
    it_sn: int = 0
    it_cg: int = 0
    time_seconds: float = 0.0
    kkt_residual: float = math.inf
    duality_gap: float = math.inf
    duality_gap_rel: float = math.inf
    objective: float = math.inf
    outer: list[OuterRecord] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _matrix_from(train: Dataset) -> SparseMatrix:
    return SparseMatrix.from_rows(train.samples, train.n_features)


def build_svc(train: Dataset, C: float) -> Problem:
    """Assemble the classification instance: B = -diag(y) X, d = ones."""
    y = np.asarray(train.labels, dtype=np.float64)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be in {-1, +1}; normalize first")
    X = _matrix_from(train)
    return Problem(B=X.scale_rows(-y), d=np.ones(train.m), penalty=Hinge(float(C)))


def build_svr(train: Dataset, C: float, eps: float) -> Problem:
    """Assemble the regression instance: B = X, d = -y."""
    y = np.asarray(train.labels, dtype=np.float64)
    X = _matrix_from(train)
    return Problem(B=X, d=-y, penalty=EpsInsensitive(float(C), float(eps)))


def primal_objective(p: Problem, w, *, bw=None) -> float:
    """0.5*||w||^2 + penalty(B w + d); ``bw`` may pass a known ``B w``."""
    w = np.asarray(w, dtype=np.float64)
    s = (p.B.matvec(w) if bw is None else bw) + p.d
    return 0.5 * float(w @ w) + p.penalty.value(s)


def dual_objective(p: Problem, lam, *, bt=None):
    """Dual value at the box projection of ``lam``.

    The multiplier is projected onto its feasible box ([0, C] per
    coordinate for classification, [-C, C] for regression) so the
    returned value is always a valid lower bound; the projection
    distance comes back as a feasibility diagnostic. Regression pays the
    extra ``eps * ||lam||_1`` term. ``bt`` may pass a known ``B.T lam``;
    it is used only when ``lam`` already lies in the box, since
    otherwise the value needs ``B.T`` of the projection.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (p.m,):
        raise ValueError(f"lam must have length {p.m}")
    lam_hat = np.clip(lam, *p.penalty.box)
    dist = float(np.linalg.norm(lam - lam_hat))
    if bt is None or dist != 0.0:
        bt = p.B.matvec_t(lam_hat)
    value = (-0.5 * float(bt @ bt) + float(lam_hat @ p.d)
             - p.penalty.conjugate(lam_hat))
    return value, dist


class SmoothedSubproblem:
    """The subproblem phi at fixed ``lam`` and ``sigma``, evaluated once
    per iterate (the :class:`~almsvm.newton.Subproblem` protocol).

    It keeps ``z = B w + d + lam/sigma`` of the iterate ``w``. Every
    trial point of the line search reads ``z + alpha * B d``, and so
    does each iteration of the ray search (:meth:`derivatives`); the
    accepted trial becomes the iterate together with its value, which is
    the next step's ``f0``. Within one ``newton_solve`` the cached ``z``
    therefore drifts from ``B w + ...`` at rounding level; ``reset``
    recomputes it from a fresh ``B w``. A caller that already holds that
    product for the starting point passes it as ``bw``, and the first
    ``reset`` uses it in place of a ``matvec``.

    The gradient ``w + sigma * B.T (z - prox(z))`` is assembled from
    the iterate's one classification of ``z`` (``penalty.split``, the
    only place it is classified): ``z - prox(z)`` is
    ``y_I`` on the active rows I, ``+-C/sigma`` on the saturated rows
    and zero elsewhere, so the gradient is
    ``w + sigma * B[I,:].T y_I + C * g_sat`` with ``g_sat = B.T sat``.
    ``g_sat`` does not depend on ``w``, ``lam`` or ``sigma``, so it is
    kept across iterates and across subproblems: each gradient adds
    ``B.T`` of the change in the sign vector, a product that reads only
    the rows that changed side while they are at most ``m/4``. Only the
    first gradient of a subproblem built without ``carry`` takes a full
    product; a later outer iteration's subproblem is built with
    ``carry``, the previous one's :attr:`carry` ``(sat, g_sat)``, and
    takes it over. A Newton step thus pays one ``matvec``
    (``B d`` in ``set_direction``), one ``matvec_t`` (the sign change)
    and one scatter of the gathered rows I, the block's ``matvec_t``,
    which takes its full kernel since ``y_I`` is nonzero on every
    active row. The same block serves every CG product of the step:
    ``linearize`` only returns its row count, so it must follow a
    ``grad`` at the same iterate. The block of a solve's
    last gradient, which no ``linearize`` follows, is not wasted: it is
    how that gradient computes ``B[I,:].T y_I``.
    The carried ``g_sat`` drifts at rounding level over one
    :func:`alm_solve`, since it is refreshed only by its first
    gradient; no certificate or multiplier reads it.
    """

    def __init__(self, p: Problem, lam, sigma: float, bw=None, carry=None):
        lam = np.asarray(lam, dtype=np.float64)
        self.p = p
        self.sigma = sigma
        self._lam_scaled = lam / sigma
        self._lam_term = float(lam @ lam) / (2.0 * sigma)
        self._bw0 = bw
        self.w = self.z = None
        self._f = self._trial = self._d = self._bd = self._block = None
        self._sat, self._g_sat = (None, None) if carry is None else carry

    @property
    def carry(self):
        """``(sat, g_sat)`` of the last gradient, for the next
        subproblem of the same problem."""
        return self._sat, self._g_sat

    def reset(self, w) -> None:
        w = np.asarray(w, dtype=np.float64)
        bw = self.p.B.matvec(w) if self._bw0 is None else self._bw0
        self._bw0 = None
        self._move(w, bw + self.p.d + self._lam_scaled, None)

    def _move(self, w, z, f) -> None:
        self.w, self.z, self._f = w, z, f
        self._trial = self._d = self._bd = self._block = None

    def _phi(self, w, z) -> float:
        tau = self.p.penalty.envelope(z, 1.0 / self.sigma)
        return 0.5 * float(w @ w) - self._lam_term + self.sigma * tau

    def grad(self) -> np.ndarray:
        B = self.p.B
        rows, y, sat = self.p.penalty.split(self.z, self.sigma)
        if self._sat is None:
            self._g_sat = B.matvec_t(sat)
        else:
            # out of place: the array may have come in a predecessor's carry
            self._g_sat = self._g_sat + B.matvec_t(sat - self._sat)
        self._sat = sat
        self._block = B.gather_rows(rows)
        g = self._block.matvec_t(y)
        g *= self.sigma
        g += self.w
        g += self.p.penalty.C * self._g_sat
        return g

    def linearize(self) -> int:
        return self._block.m

    def hvp(self, h) -> np.ndarray:
        v = self._block.normal_apply(h)
        v *= self.sigma
        v += h
        return v

    def set_direction(self, d) -> None:
        self._d = np.asarray(d, dtype=np.float64)
        self._bd = self.p.B.matvec(self._d)
        self._trial = None

    def value(self, alpha: float) -> float:
        if alpha == 0.0:
            if self._f is None:
                self._f = self._phi(self.w, self.z)
            return self._f
        return self._trial_at(alpha)[3]

    def derivatives(self, alpha: float):
        """``(phi'(alpha), phi''(alpha))`` on the ray ``w + alpha*d``,
        from one classification of ``z + alpha * B d``: ``phi'`` is
        ``<w + alpha d, d> + sigma <(B d)_I, y_I> + C <sat, B d>`` and
        ``phi''`` is ``|d|^2 + sigma |(B d)_I|^2``. No product with
        ``B`` is taken."""
        d, bd = self._d, self._bd
        rows, y, sat = self.p.penalty.split(self.z + alpha * bd, self.sigma)
        bd_i = bd[rows]
        dd = float(d @ d)
        d1 = (float(self.w @ d) + alpha * dd + self.sigma * float(bd_i @ y)
              + self.p.penalty.C * float(bd @ sat))
        return d1, dd + self.sigma * float(bd_i @ bd_i)

    def _trial_at(self, alpha: float):
        if self._trial is None or self._trial[0] != alpha:
            w = self.w + alpha * self._d
            z = self.z + alpha * self._bd
            self._trial = (alpha, w, z, self._phi(w, z))
        return self._trial

    def accept(self, alpha: float) -> None:
        _, w, z, f = self._trial_at(alpha)
        self._move(w, z, f)


def make_subproblem_oracle(p: Problem, lam, sigma: float, *,
                           bw=None, carry=None) -> SmoothedSubproblem:
    """The subproblem of the outer iteration at ``lam`` and ``sigma``;
    ``bw`` may pass the known ``B w`` of the Newton starting point and
    ``carry`` the previous subproblem's :attr:`~SmoothedSubproblem.carry`."""
    return SmoothedSubproblem(p, lam, sigma, bw, carry)


def kkt_residual(p: Problem, w, s, lam, *, bw=None, bt=None):
    """Scaled residuals (r1, r2, r3) of the optimality system.

    r1 measures the split constraint s = Bw + d, r2 stationarity
    w + B.T lam = 0, and r3 the penalty subdifferential inclusion via
    its fixed-point form s = prox(s + lam) at unit scale. ``bw`` may
    pass a known ``B w`` and ``bt`` a known ``B.T lam``.
    """
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if bw is None:
        bw = p.B.matvec(w)
    if bt is None:
        bt = p.B.matvec_t(lam)
    r1 = float(np.linalg.norm(s - bw - p.d)) / (1.0 + float(np.linalg.norm(p.d)))
    r2 = float(np.linalg.norm(w + bt)) / (
        1.0 + float(np.linalg.norm(w))
    )
    r3 = float(np.linalg.norm(s - p.penalty.prox(s + lam, 1.0))) / (
        1.0 + float(np.linalg.norm(s))
    )
    return r1, r2, r3


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise DivergedError("non-finite solver state encountered")


def alm_solve(p: Problem, cfg: SolverConfig | None = None):
    """Run the outer loop and return ``(w, SolveReport)``.

    Starts from w = 0, lam = 0. Each outer iteration k solves the
    subproblem to gradient tolerance ``max(NEWTON_TOL_FLOOR,
    min(10**-(k+1), r))``, ``r`` the previous outer iteration's KKT
    residual (none before the first), in at most ``NEWTON_MAXIT``
    Newton steps; the cap by ``r`` keeps an outer iteration whose start
    already meets ``10**-(k+1)`` from skipping its Newton steps. It then
    recovers s through the prox at scale 1/sigma, updates lam = sigma *
    (z - s) (the multiplier step written in terms of z), clipped into
    the penalty's box, and grows sigma by 1/theta up to sigma_max. Stops
    early, ``converged``, once max(r1, r2, r3) drops to ``cfg.tol`` and
    the duality gap certifies the objective: ``primal - dual <= cfg.tol
    * (1 + |primal|)``.

    ``z - s`` lies in ``[0, C/sigma]`` (``[-C/sigma, C/sigma]`` for
    regression), so the clip moves only coordinates that rounding pushed
    past the box; with ``lam`` in the box, one ``B.T lam`` serves both
    r2 and the dual. The multiplier update, the certificate and the next
    Newton solve's start share one ``B w`` computed afresh from ``w``,
    so no rounding drift of the Newton iteration reaches a reported
    number. Each subproblem takes over its predecessor's
    ``carry``, so only the first gradient of the solve reads all of
    ``B``; per outer iteration the certificate pays one ``matvec`` and
    one ``matvec_t``.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    report = SolveReport()
    w = np.zeros(p.n)
    bw = carry = None
    lam = np.zeros(p.m)
    sigma = cfg.sigma0
    t0 = time.perf_counter()
    for k in range(cfg.max_outer):
        tol_k = max(NEWTON_TOL_FLOOR,
                    min(10.0 ** (-(k + 1)), report.kkt_residual))
        sub = make_subproblem_oracle(p, lam, sigma, bw=bw, carry=carry)
        w, stats = newton_solve(sub, w, tol_k, NEWTON_MAXIT)
        carry = sub.carry
        if stats.hit_iteration_cap:
            report.warnings.append(
                f"outer {k}: Newton iteration cap reached at "
                f"|grad|={stats.final_grad_norm:.3e} (target {tol_k:.1e})"
            )
        if stats.cg_breakdowns or stats.descent_fallbacks:
            report.warnings.append(
                f"outer {k}: {stats.cg_breakdowns} CG curvature breakdowns, "
                f"{stats.descent_fallbacks} steepest-descent fallbacks"
            )
        report.it_sn += stats.iterations
        report.it_cg += stats.cg_iterations_total

        bw = p.B.matvec(w)
        z = bw + p.d + lam / sigma
        s = p.penalty.prox(z, 1.0 / sigma)
        lam = sigma * (z - s)
        # checked before the clip, which would turn an inf into C
        _check_finite(w, s, lam)
        np.clip(lam, *p.penalty.box, out=lam)
        bt = p.B.matvec_t(lam)

        report.k = k + 1
        r1, r2, r3 = kkt_residual(p, w, s, lam, bw=bw, bt=bt)
        report.kkt_residual = max(r1, r2, r3)
        pv = primal_objective(p, w, bw=bw)
        dv, _ = dual_objective(p, lam, bt=bt)
        report.outer.append(OuterRecord(sigma, tol_k, stats, pv, dv, r1, r2, r3))

        sigma = min(cfg.sigma_max, sigma / cfg.theta)
        if (report.kkt_residual <= cfg.tol
                and pv - dv <= cfg.tol * (1.0 + abs(pv))):
            report.status = CONVERGED
            break
    else:
        report.warnings.append(
            f"max_outer={cfg.max_outer} reached above tol {cfg.tol:.1e}: "
            f"KKT residual {report.kkt_residual:.3e}, duality gap "
            f"{(pv - dv) / (1.0 + abs(pv)):.3e} relative to 1 + |primal|"
        )
    report.time_seconds = time.perf_counter() - t0
    last = report.outer[-1]
    report.objective = last.primal
    report.duality_gap = last.primal - last.dual
    report.duality_gap_rel = report.duality_gap / (
        1.0 + abs(last.primal) + abs(last.dual)
    )
    return w, report
