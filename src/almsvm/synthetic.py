"""Deterministic synthetic datasets for tests, benchmarks and examples.

Every generator is a pure function of its arguments (numpy's PCG64
stream under a fixed seed), so the instances the test suite and the
benchmark train on are reproducible without shipping data files.

Two families exist. The blob/linear generators produce ordinary noisy
data. The planted generators construct datasets whose training optimum
is known by design: they pick the set of bound-active multipliers
first, derive the weight vector from it, and then place every remaining
sample strictly on its side of the penalty breakpoints. Such instances
have a strict-complementarity vertex solution, which the multiplier
iteration identifies exactly after finitely many outer steps; they are
the instances on which tight optimality certification is exercised.
"""

from __future__ import annotations

import math

import numpy as np

from .alm import C_SCALE_SVC, C_SCALE_SVR, EPSILON
from .data_io import Dataset
from .sparse import Samples, _index_dtype

__all__ = [
    "svc_blobs",
    "svc_sparse_binary",
    "svc_margin_gap",
    "svr_linear",
    "svr_planted",
]


# redraws of one non-violator row in svc_margin_gap before it gives up
_MAX_REDRAWS = 1000


def _fixed_width_rows(cols: np.ndarray, vals: np.ndarray) -> Samples:
    """Sample ``i`` is row ``i`` of the ``(m, k)`` arrays ``cols`` and
    ``vals``; the generators make ``cols`` in the store's index dtype of
    their ``n`` columns, so it is not copied."""
    m, k = cols.shape
    return Samples(k * np.arange(m + 1), cols.reshape(-1), vals.reshape(-1))


def _dense_rows(x: np.ndarray) -> Samples:
    m, n = x.shape
    return _fixed_width_rows(
        np.tile(np.arange(n, dtype=_index_dtype(n - 1)), (m, 1)), x)


def svc_blobs(
    m: int,
    n: int,
    *,
    separation: float = 2.0,
    scale: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Two Gaussian clouds pushed apart along a random unit direction.

    ``separation`` is the class offset along that direction before
    isotropic noise of standard deviation ``scale`` is added.
    """
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    x = scale * rng.normal(size=(m, n)) + np.outer(y * separation, direction)
    return Dataset(_dense_rows(x), y, n)


def svc_sparse_binary(
    m: int,
    n: int,
    *,
    density: float = 0.11,
    seed: int = 0,
) -> Dataset:
    """Sparse 0/1 feature rows labeled by a noisy linear rule.

    Every row activates ``round(density * n)`` distinct features with
    value one; scores against a hidden weight vector are centered at
    their median and perturbed by Gaussian noise of standard deviation
    0.5 before taking the sign.
    """
    rng = np.random.default_rng(seed)
    k = max(1, int(round(density * n)))
    hidden = rng.normal(size=n)
    cols = np.empty((m, k), dtype=_index_dtype(n - 1))
    raw = np.empty(m)
    for i in range(m):
        cols[i] = np.sort(rng.choice(n, size=k, replace=False))
        raw[i] = hidden[cols[i]].sum()
    score = raw - np.median(raw) + 0.5 * rng.normal(size=m)
    y = np.where(score >= 0.0, 1.0, -1.0)
    return Dataset(_fixed_width_rows(cols, np.ones((m, k))), y, n)


def svc_margin_gap(
    m: int,
    n: int,
    *,
    density: float = 0.11,
    seed: int = 0,
) -> Dataset:
    """Sparse classification data with a planted margin gap.

    A violator set V of 3% of the rows is chosen and the training
    optimum is planted as ``w* = C * sum_V y_i x_i`` with the reference
    ``C = alm.C_SCALE_SVC / m``. Violator labels are flipped (or their
    rows shrunk) until every violator margin sits at or below 0.2;
    every other row is labeled by the sign of its score and rescaled so
    its margin lands in ``[1.05, 3.05]``. No sample then has a margin in
    ``(0.2, 1.05)``, the optimum is a strict-complementarity vertex, and
    the fraction of rows inside the solver's curvature window stays
    small throughout a solve.
    """
    rng = np.random.default_rng(seed)
    k = max(1, int(round(density * n)))
    C = C_SCALE_SVC / m
    # row i of supports and vals is sample i
    supports = np.empty((m, k), dtype=_index_dtype(n - 1))
    for i in range(m):
        supports[i] = np.sort(rng.choice(n, size=k, replace=False))
    vals = 0.3 * rng.normal(size=(m, k))
    n_viol = max(1, int(round(0.03 * m)))
    viol = rng.choice(m, size=n_viol, replace=False)
    y = rng.choice([-1.0, 1.0], size=m)

    # Gauss-Seidel repair on the violators: each visit either flips the
    # label or shrinks the row until margin_i <= 0.2 everywhere.
    clean = False
    for _ in range(60):
        w = np.zeros(n)
        for i in viol:
            w[supports[i]] += C * y[i] * vals[i]
        clean = True
        for i in viol:
            margin = y[i] * float(vals[i] @ w[supports[i]])
            if margin <= 0.2:
                continue
            clean = False
            self_term = C * float(vals[i] @ vals[i])
            cross = margin - self_term
            if self_term - cross <= 0.2:
                w[supports[i]] -= 2.0 * C * y[i] * vals[i]
                y[i] = -y[i]
            else:
                # margin(c) = self*c^2 + cross*c; pick the positive root
                # hitting half the allowed ceiling
                target = 0.1
                c = (-cross + math.sqrt(cross * cross + 4.0 * self_term * target))
                c /= 2.0 * self_term
                w[supports[i]] -= C * y[i] * vals[i]
                vals[i] = vals[i] * c
                w[supports[i]] += C * y[i] * vals[i]
        if clean:
            break
    if not clean:
        raise RuntimeError("margin-gap construction did not settle")

    w = np.zeros(n)
    for i in viol:
        w[supports[i]] += C * y[i] * vals[i]
    viol_set = set(int(i) for i in viol)
    for i in range(m):
        if i in viol_set:
            continue
        t = float(vals[i] @ w[supports[i]])
        redraws = 0
        while abs(t) < 0.05:
            # where w* is zero or tiny on the row's support, no redraw of
            # its values reaches the score
            if redraws == _MAX_REDRAWS:
                raise RuntimeError(f"margin-gap row {i} did not reach a "
                                   f"score of 0.05 in {_MAX_REDRAWS} redraws")
            vals[i] = 0.3 * rng.normal(size=k)
            t = float(vals[i] @ w[supports[i]])
            redraws += 1
        y[i] = 1.0 if t > 0 else -1.0
        target = 1.05 + 2.0 * rng.random()
        vals[i] = vals[i] * (target / abs(t))
    return Dataset(_fixed_width_rows(supports, vals),
                   np.asarray(y, dtype=np.float64), n)


def svr_linear(
    m: int,
    n: int,
    *,
    noise: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Dense regression rows y = x . hidden + Gaussian noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, n))
    hidden = rng.normal(size=n) / np.sqrt(n)
    y = x @ hidden + noise * rng.normal(size=m)
    return Dataset(_dense_rows(x), y, n)


def svr_planted(
    m: int,
    n: int,
    *,
    out_frac: float = 0.05,
    seed: int = 0,
) -> Dataset:
    """Dense regression data with a planted vertex optimum.

    With the reference ``C = alm.C_SCALE_SVR / n`` and ``eps =
    alm.EPSILON``, an outlier set O with random residual signs defines
    the optimum ``w* = -C * sum_O s_i x_i``. Targets are then chosen so
    outliers land strictly outside the eps tube on their sign's side and
    every other sample strictly inside it.
    """
    rng = np.random.default_rng(seed)
    C = C_SCALE_SVR / n
    x = rng.normal(size=(m, n))
    n_out = max(1, int(round(out_frac * m)))
    out = rng.choice(m, size=n_out, replace=False)
    signs = rng.choice([-1.0, 1.0], size=n_out)
    w_star = -C * (signs[:, None] * x[out]).sum(axis=0)
    y = x @ w_star - rng.uniform(-0.8 * EPSILON, 0.8 * EPSILON, size=m)
    y[out] = x[out] @ w_star - signs * (EPSILON + 0.5 + rng.random(n_out))
    return Dataset(_dense_rows(x), y, n)
