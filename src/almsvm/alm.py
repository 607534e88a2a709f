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
box-projected multiplier. After an outer iteration that has not
converged, an active-set finish (:func:`_finish`) may solve the original
problem's KKT system on that iteration's partition of the rows; its
point is kept only when the same certificate passes.

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
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .data_io import Dataset, _finite
from .newton import CG_MAXIT, NewtonStats, cg_solve, newton_solve
from .sparse import SparseMatrix

__all__ = [
    "CONVERGED",
    "MAX_OUTER",
    "DivergedError",
    "Problem",
    "SolverConfig",
    "OuterRecord",
    "FinishRecord",
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
NEWTON_MAXIT = 25  # Newton step cap per outer iteration
FINISH_FREE_RATIO = 0.5  # an active-set finish runs only when |F| <= ratio * n
FINISH_ROUNDS = 6  # loose, then tight, active-set rounds of one finish
FINISH_LOOSE_RTOL = 1e-3  # CG tolerance of a loose round, relative to its rhs
FINISH_CG_RTOL = 1e-9  # CG tolerance of a tight round, relative to its rhs

# the reference parameterization
C_SCALE_SVC = 550.0  # classification C = C_SCALE_SVC / m
C_SCALE_SVR = 5.0  # regression C = C_SCALE_SVR / n, with eps = EPSILON
EPSILON = 0.1


class DivergedError(RuntimeError):
    """Solver state left the finite range."""


def _weight(C: float) -> float:
    if (C := _finite(C, "C")) <= 0:
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
        # the zero piece's ends: a row on the margin has s = 0
        self.kinks = (-math.inf, 0.0)

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
        self.C, self.eps = _weight(C), _finite(eps, "eps")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative and finite")
        self.box = (-self.C, self.C)
        # the zero piece's ends: a row on the tube has s = +-eps
        self.kinks = (-self.eps, self.eps)

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
    constants are fixed in :mod:`almsvm.newton`. A Newton solve also
    stops after a step that raises the gradient norm, from the third
    such step on (``newton.STALL_RISES``), once that step's iterate has
    at most ``FINISH_FREE_RATIO * n`` active rows: this is where a
    problem with few free rows hands an outer iteration over to the
    active-set finish of :func:`alm_solve`. ``NEWTON_MAXIT`` is a plain
    cap; the finish's constants are module constants too.
    """

    sigma0: float = 0.15
    sigma_max: float = 2.0
    theta: float = 0.8
    tol: float = 1e-6
    max_outer: int = 10

    def __post_init__(self):
        for name in ("sigma0", "sigma_max", "tol"):
            setattr(self, name, _finite(getattr(self, name), name))
        if not 0.0 < self.sigma0 <= self.sigma_max:
            raise ValueError("need 0 < sigma0 <= sigma_max")
        if not (isinstance(self.theta, numbers.Real) and self.theta is not True
                and 0.0 < self.theta <= 1.0):
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
class FinishRecord:
    """One active-set finish (:func:`_finish`), tried after outer
    iteration ``outer`` (0-based): its rounds, ``tight`` of them solved
    to ``FINISH_CG_RTOL`` and the others to ``FINISH_LOOSE_RTOL``, the
    rows each round found to move (``moved``), their CG iterations, the
    free-row count ``free`` of its last partition and its ``outcome``:
    ``"accepted"``; ``"uncertified"`` when the partition settled but the
    certificate failed; ``"cg_cap"`` when a CG solve reached ``CG_MAXIT``
    or broke down; ``"singular"`` when the rounds' moves left more than
    ``n`` rows free, so that ``B_F B_F.T`` is singular (that partition's
    count is ``free``, and no CG ran on it); ``"stalled"`` when a tight
    round moved no fewer rows than the tight one before; ``"unsettled"``
    when rows still moved in tight round ``FINISH_ROUNDS``. A settled
    finish also holds its certificate: the primal and dual values and
    the residuals of :func:`kkt_residual`; the others hold None there."""

    outer: int
    free: int
    rounds: int = 0
    tight: int = 0
    moved: list[int] = field(default_factory=list)
    cg_iterations: int = 0
    outcome: str = ""
    primal: float | None = None
    dual: float | None = None
    r1: float | None = None
    r2: float | None = None
    r3: float | None = None


@dataclass
class SolveReport:
    """Statistics of one ``alm_solve`` run.

    ``objective`` is the last record's primal value, never below the
    optimum, ``duality_gap`` its ``primal - dual`` and ``duality_gap_rel``
    that gap over ``1 + |primal|``. ``status`` is ``"converged"`` when the
    KKT residual and ``duality_gap_rel`` reached ``tol``, which certifies
    the objective, and ``"max_outer"`` when the outer iteration limit
    ended the run first; the latter also adds a warning. ``outer`` holds
    one :class:`OuterRecord` per outer iteration, ``k`` of them;
    ``kkt_residual`` is the largest of the last record's ``r1``, ``r2``
    and ``r3``. A Newton solve with a CG curvature breakdown or a
    steepest-descent fallback adds a warning too. ``finish`` holds one
    :class:`FinishRecord` per active-set finish tried; when the last one
    is accepted, the objective, gap and KKT residual are its
    certificate's instead of the last outer record's. ``it_cg`` counts
    the CG iterations of the Newton solves; a finish counts its own.
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
    finish: list[FinishRecord] = field(default_factory=list)
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


def _finish(p: Problem, z, sigma: float, lam, tol: float, outer: int):
    """The active-set finish after outer iteration ``outer``: a
    primal-dual active-set iteration on the original problem's KKT
    system, started from the partition of ``penalty.split(z, sigma)``.

    Returns None when that partition has more than ``FINISH_FREE_RATIO
    * n`` free rows F, else ``(FinishRecord, w)``, ``w`` the last
    round's point. A row of F sits on a kink of the penalty (its end of
    ``penalty.kinks`` on the side of ``z``) with its multiplier free in
    that side of ``penalty.box``; a saturated row (``sat`` = +-1) has
    the multiplier ``C * sat``, any other row 0. A round solves ``B_F
    B_F.T lam_F = B_F w0 + d_F - t_F``, ``w0 = -C * B.T sat`` and ``t_F``
    the kinks, by :func:`~almsvm.newton.cg_solve` from the current
    multipliers on the gathered rows ``B_F``, sets ``w = w0 - B_F.T
    lam_F`` and takes ``s = B w + d`` afresh. Then a row of F whose
    multiplier left its side of the box moves to the bound it crossed,
    and any other row whose ``s`` crossed a kink its multiplier needs
    (``s`` above the upper kink at 0, below the lower one at 0, on the
    inner side of its own kink when saturated) moves into F.

    The first rounds are loose: their CG stops at ``FINISH_LOOSE_RTOL``
    of the right-hand side's norm, since they only decide which rows
    move. A loose round that moves no row, or no fewer rows than the
    one before, or that is loose round ``FINISH_ROUNDS``, switches the
    finish to tight rounds (``FINISH_CG_RTOL``) without moving a row: the next solve takes the same block and
    right-hand side from the loose multipliers. When that solve needs
    no CG iteration, the loose round's point already meets the tight
    tolerance and stands as it is; otherwise it is a round of its own.
    A tight round that moves no row ends the finish with the certificate
    of :func:`alm_solve` at ``w``, its ``s``, its multipliers, a fresh
    ``B.T lam`` and ``tol``. ``FINISH_ROUNDS`` caps the loose rounds and,
    counted afresh from the switch, the tight ones; the record's
    ``rounds`` counts both. A CG solve that breaks down or reaches
    ``CG_MAXIT``, a partition with more than ``n`` free rows, a tight
    round that moves no fewer rows than the tight one before, and rows
    still moving after ``FINISH_ROUNDS`` tight rounds end it
    uncertified. ``lam`` and ``z`` are not changed.
    """
    pen = p.penalty
    rows, _, sat = pen.split(z, sigma)
    if rows.size > FINISH_FREE_RATIO * p.n:
        return None
    lo, hi = pen.kinks
    free = np.zeros(p.m, dtype=bool)
    free[rows] = True
    side = np.zeros(p.m, dtype=np.int8)
    side[rows] = np.sign(z[rows])
    mult = pen.C * sat
    mult[rows] = lam[rows]
    rec = FinishRecord(outer, rows.size)
    tight, left, moved_before, block = False, FINISH_ROUNDS, math.inf, None
    while True:
        fresh = block is None
        if fresh:
            rows = np.flatnonzero(free)
            rec.free = rows.size
            if rows.size > p.n:  # B_F B_F.T is singular
                rec.outcome = "singular"
                return rec, None
            block = p.B.gather_rows(rows)
            w0 = p.B.matvec_t(sat)
            w0 *= -pen.C
            rhs = block.matvec(w0) + p.d[rows] - np.where(side[rows] > 0, hi, lo)
            rhs_norm = float(np.linalg.norm(rhs))
        rtol = (FINISH_CG_RTOL if tight else FINISH_LOOSE_RTOL) * rhs_norm
        x, it, broke = np.zeros(rows.size), 0, False
        if rtol > 0.0:
            x, it, broke = cg_solve(lambda v: block.matvec(block.matvec_t(v)),
                                    rhs, rtol, CG_MAXIT, x0=mult[rows])
        rec.cg_iterations += it
        if broke or it >= CG_MAXIT:
            rec.outcome = "cg_cap"
            return rec, None
        if fresh or it > 0:  # a new point, and its moves
            rec.rounds += 1
            rec.tight += tight
            left -= 1
            w = w0 - block.matvec_t(x)
            bw = p.B.matvec(w)
            s = bw + p.d
            mult[rows] = x
            # the moves, all read from the round's point
            q = side[rows] * x
            down, up = rows[q < 0.0], rows[q > pen.C]
            enter_hi = ~free & (((sat == 0) & (s > hi)) | ((sat == 1) & (s < hi)))
            enter_lo = ~free & (((sat == 0) & (s < lo)) | ((sat == -1) & (s > lo)))
            moved = down.size + up.size + int(np.count_nonzero(enter_hi | enter_lo))
            rec.moved.append(moved)
        if not tight and (moved == 0 or moved >= moved_before or left == 0):
            tight, left, moved_before = True, FINISH_ROUNDS, math.inf
            continue
        if moved == 0:
            break
        if moved >= moved_before:
            rec.outcome = "stalled"
            return rec, None
        if left == 0:
            rec.outcome = "unsettled"
            return rec, None
        moved_before = moved
        free[down] = free[up] = False
        sat[up] = side[up]
        mult[down], mult[up] = 0.0, pen.C * side[up]
        free |= enter_hi | enter_lo
        side[enter_hi], side[enter_lo] = 1, -1
        sat[enter_hi | enter_lo] = 0
        block = None
    bt = p.B.matvec_t(mult)
    rec.r1, rec.r2, rec.r3 = kkt_residual(p, w, s, mult, bw=bw, bt=bt)
    rec.primal = primal_objective(p, w, bw=bw)
    rec.dual, _ = dual_objective(p, mult, bt=bt)
    ok = (max(rec.r1, rec.r2, rec.r3) <= tol
          and rec.primal - rec.dual <= tol * (1.0 + abs(rec.primal)))
    rec.outcome = "accepted" if ok else "uncertified"
    return rec, (w if ok else None)


def alm_solve(p: Problem, cfg: SolverConfig | None = None):
    """Run the outer loop and return ``(w, SolveReport)``.

    Starts from w = 0, lam = 0. Each outer iteration k solves the
    subproblem to gradient tolerance ``max(NEWTON_TOL_FLOOR,
    min(10**-(k+1), r))``, ``r`` the previous outer iteration's KKT
    residual (none before the first), in at most ``NEWTON_MAXIT``
    Newton steps; the cap by ``r`` keeps an outer iteration whose start
    already meets ``10**-(k+1)`` from skipping its Newton steps. The
    Newton solve also stops, ``stalled``, after a step that raises the
    gradient norm, from the third such step on, once that step's iterate
    has at most ``FINISH_FREE_RATIO * n`` active rows, the partitions
    the finish below can take. It then
    recovers s through the prox at scale 1/sigma, updates lam = sigma *
    (z - s) (the multiplier step written in terms of z), clipped into
    the penalty's box, and grows sigma by 1/theta up to sigma_max. Stops
    early, ``converged``, once max(r1, r2, r3) drops to ``cfg.tol`` and
    the duality gap certifies the objective: ``(primal - dual) / (1 +
    |primal|) <= cfg.tol``, the report's ``duality_gap_rel``.

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

    After an outer iteration that has not converged, :func:`_finish`
    tries an active-set finish from the partition of that iteration's
    ``z`` at its ``sigma``, when at most ``FINISH_FREE_RATIO * n`` rows
    are free (``B_F B_F.T`` is singular beyond ``n``). On a problem with
    few free rows, outer 0's Newton iteration zig-zags far from the
    solution and stops there as stalled, and the finish takes over from
    its partition. The finish's loose rounds pick the partition and its
    tight rounds settle it; it is abandoned when a CG solve reaches
    ``CG_MAXIT`` or breaks down, when its rows' moves leave more than
    ``n`` rows free, when a tight round moves no fewer rows than the
    tight one before, or when rows still move after ``FINISH_ROUNDS``
    tight rounds. A settled finish is
    certified as above, from a fresh ``B w`` and ``B.T lam``, at the
    point of a tight round only; the solve keeps its
    point and ends ``converged`` only when that certificate passes
    ``tol``. The finish copies what it changes, so a rejected one leaves
    ``w``, ``lam``, ``sigma``, ``carry`` and every later iterate as they
    were. Each finish tried adds a :class:`FinishRecord` to the report.
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
        w, stats = newton_solve(sub, w, tol_k, NEWTON_MAXIT,
                                stall_rows=FINISH_FREE_RATIO * p.n)
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
        report.objective, report.duality_gap = pv, pv - dv
        report.duality_gap_rel = report.duality_gap / (1.0 + abs(pv))

        if report.kkt_residual <= cfg.tol and report.duality_gap_rel <= cfg.tol:
            report.status = CONVERGED
            break
        finished = _finish(p, z, sigma, lam, cfg.tol, k)
        if finished is not None:
            rec, w_fin = finished
            report.finish.append(rec)
            if w_fin is not None:
                w = w_fin
                report.kkt_residual = max(rec.r1, rec.r2, rec.r3)
                report.objective = rec.primal
                report.duality_gap = rec.primal - rec.dual
                report.duality_gap_rel = report.duality_gap / (1.0 + abs(rec.primal))
                report.status = CONVERGED
                break
        sigma = min(cfg.sigma_max, sigma / cfg.theta)
    else:
        report.warnings.append(
            f"max_outer={cfg.max_outer} reached above tol {cfg.tol:.1e}: "
            f"KKT residual {report.kkt_residual:.3e}, duality gap "
            f"{report.duality_gap_rel:.3e} relative to 1 + |primal|"
        )
    report.time_seconds = time.perf_counter() - t0
    return w, report
