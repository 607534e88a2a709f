"""Independent verification oracles for the test suite.

Nothing here is part of the package or its solve path. These routines
re-derive the quantities the solver computes in closed form — proximal
points by piecewise-quadratic enumeration, gradients by central
differences, the optimal dual value by a general bound-constrained
solver (L-BFGS-B), the Hessian-vector product by the unrestricted formula,
the CSR products by ``np.bincount`` over the stored nonzeros in
row-major order, LIBSVM text one token at a time (and written one
number at a time), a store's gathered rows by numpy fancy indexing, the
split's shuffle by a plain xorshift64* generator — so the test suite can check the fast
paths against slow, obviously correct ones. ``from_dense`` and
``to_dense`` convert between dense arrays and :class:`SparseMatrix`
with numpy alone, for writing small test matrices down.
"""

from __future__ import annotations

import math

import numpy as np

from almsvm.alm import Hinge, Problem, primal_objective
from almsvm.data_io import _INDEX_MAX, Dataset, ParseError, format_float
from almsvm.sparse import Samples, SparseMatrix

__all__ = ["prox_oracle", "phi_value", "fd_gradient", "subgradient_solve",
           "box_dual_optimum", "hess_vec_way2", "matvec_oracle",
           "matvec_t_oracle", "normal_apply_oracle", "parse_libsvm_oracle",
           "serialize_libsvm_oracle", "csr_oracle", "XorShift64Star",
           "from_dense", "to_dense"]

_MASK64 = (1 << 64) - 1


def prox_oracle(z, C: float, M: float, eps: float | None = None):
    """Proximal point by brute-force piece enumeration.

    The objective ``(z - s)^2 / (2 M) + penalty(s)`` is quadratic on each
    interval between penalty breakpoints ({0} for the hinge penalty,
    {-eps, eps} for the eps-insensitive one). Each piece's quadratic is
    minimized in closed form, the minimizer is clamped to the piece, and
    the best candidate wins. No branch structure of the closed-form prox
    is consulted. Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=np.float64)
    cm = C * M
    if eps is None:
        # pieces: s <= 0 (no penalty slope), s >= 0 (slope C)
        cands = np.stack([np.minimum(z, 0.0), np.maximum(z - cm, 0.0)])
        objs = (z - cands) ** 2 / (2.0 * M) + C * np.maximum(cands, 0.0)
    else:
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        # pieces: s <= -eps (slope -C), |s| <= eps (flat), s >= eps (slope C)
        cands = np.stack(
            [
                np.minimum(z + cm, -eps),
                np.clip(z, -eps, eps),
                np.maximum(z - cm, eps),
            ]
        )
        objs = (z - cands) ** 2 / (2.0 * M) + C * np.maximum(
            np.abs(cands) - eps, 0.0
        )
    flat_c = cands.reshape(cands.shape[0], -1)
    flat_o = objs.reshape(objs.shape[0], -1)
    pick = np.argmin(flat_o, axis=0)
    best = flat_c[pick, np.arange(flat_c.shape[1])].reshape(z.shape)
    return float(best) if z.ndim == 0 else best


def phi_value(problem: Problem, w, lam, sigma: float) -> float:
    """phi(w) at ``lam`` and ``sigma`` from a fresh ``B w``: the reference
    for the cached values of :class:`almsvm.alm.SmoothedSubproblem`."""
    w = np.asarray(w, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    z = problem.B.matvec(w) + problem.d + lam / sigma
    tau = problem.penalty.envelope(z, 1.0 / sigma)
    return 0.5 * float(w @ w) - float(lam @ lam) / (2.0 * sigma) + sigma * tau


def fd_gradient(f, w, h: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Step defaults to 1e-6 * (1 + |w_i|) per coordinate.
    """
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros(w.size)
    for i in range(w.size):
        hi = h if h is not None else 1e-6 * (1.0 + abs(w[i]))
        wp = w.copy()
        wm = w.copy()
        wp[i] += hi
        wm[i] -= hi
        g[i] = (f(wp) - f(wm)) / (2.0 * hi)
    return g


def subgradient_solve(problem: Problem, iters: int, step0: float):
    """Plain subgradient descent on the primal objective.

    Steps w <- w - (step0 / sqrt(t)) * g_t with g_t a subgradient of the
    objective; at penalty kinks the zero element is chosen. Returns the
    best iterate seen and its objective. Slow by design — this is a
    floor for the real solver to beat, not a solver.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    B, d, penalty = problem.B, problem.d, problem.penalty
    w = np.zeros(problem.n)
    best_w = w.copy()
    best_obj = primal_objective(problem, w)
    for t in range(1, iters + 1):
        s = B.matvec(w) + d
        if isinstance(penalty, Hinge):
            a = np.where(s > 0.0, penalty.C, 0.0)
        else:
            a = np.where(np.abs(s) > penalty.eps, penalty.C * np.sign(s), 0.0)
        g = w + B.matvec_t(a)
        w = w - (step0 / math.sqrt(t)) * g
        obj = primal_objective(problem, w)
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()
    return best_w, best_obj


def box_dual_optimum(problem: Problem) -> float:
    """The optimal dual value ``D*``, by L-BFGS-B on the dual's box.

    The dual maximizes ``-0.5*||B.T lam||^2 + d.lam - conj(lam)`` over
    the penalty's box. For the hinge the box is ``[0, C]^m`` and the
    conjugate is 0. For the eps-insensitive penalty ``lam = lp - lm``
    with both parts in ``[0, C]^m`` and the conjugate ``eps*|lam|_1``
    becomes the linear ``eps*sum(lp + lm)``, equal to it where
    ``min(lp, lm) = 0``, which holds at the optimum. ``B`` is made dense
    from its CSR arrays by numpy alone, so no product of the package's
    kernels enters. Every point L-BFGS-B returns is feasible, so ``D*``
    never exceeds the true optimum; with no relative-reduction stop it
    runs until the projected gradient is below 1e-10, within about
    1e-11 of the optimum on the bundled instances.
    """
    from scipy.optimize import Bounds, minimize

    B, m = problem.B, problem.m
    dense = np.zeros((m, problem.n))
    dense[np.repeat(np.arange(m), np.diff(B.row_ptr)), B.col_idx] = B.values
    split = not isinstance(problem.penalty, Hinge)

    def negated_dual(x):
        lam = x[:m] - x[m:] if split else x
        v = dense.T @ lam
        grad = dense @ v - problem.d
        value = 0.5 * float(v @ v) - float(lam @ problem.d)
        if not split:
            return value, grad
        eps = problem.penalty.eps
        return (value + eps * float(x.sum()),
                np.concatenate((grad + eps, eps - grad)))

    res = minimize(negated_dual, np.zeros(2 * m if split else m), jac=True,
                   method="L-BFGS-B", bounds=Bounds(0.0, problem.penalty.C),
                   options={"ftol": 0.0, "gtol": 1e-10, "maxiter": 10_000})
    if not res.success:
        raise RuntimeError(f"L-BFGS-B stopped early: {res.message}")
    return -float(res.fun)


def hess_vec_way2(problem: Problem, u, h, sigma: float) -> np.ndarray:
    """Hessian-vector product through the unrestricted diagonal formula
    ``h + sigma * B.T (B h) - sigma * B.T diag(u) (B h)``.

    Mirror used in tests against the row-restricted production kernel.
    """
    u = np.asarray(u, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    B = problem.B
    t = B.matvec(h)
    return h + sigma * B.matvec_t(t) - sigma * B.matvec_t(u * t)


def from_dense(a) -> SparseMatrix:
    """The :class:`SparseMatrix` of a dense 2-D array, without its exact
    zeros."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = np.nonzero(a)  # row-major order
    row_ptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=a.shape[0]), out=row_ptr[1:])
    return SparseMatrix(row_ptr, cols, a[rows, cols], a.shape)


def to_dense(a: SparseMatrix) -> np.ndarray:
    """The dense array of ``a``. Each stored value is added to a zero, as
    scipy's ``toarray`` does, so a stored ``-0.0`` reads ``+0.0``."""
    out = np.zeros(a.shape)
    out[_nnz_rows(a), a.col_idx] += a.values
    return out


def _nnz_rows(a: SparseMatrix) -> np.ndarray:
    """Row index of every stored nonzero, in storage order."""
    return np.repeat(np.arange(a.m, dtype=np.int64), np.diff(a.row_ptr))


def matvec_oracle(a: SparseMatrix, x) -> np.ndarray:
    """``A @ x``: each row's products summed left to right."""
    x = np.asarray(x, dtype=np.float64)
    prod = a.values * x[a.col_idx]
    return np.bincount(_nnz_rows(a), weights=prod, minlength=a.m)


def matvec_t_oracle(a: SparseMatrix, y) -> np.ndarray:
    """``A.T @ y``: row contributions scattered in row order."""
    y = np.asarray(y, dtype=np.float64)
    prod = a.values * y[_nnz_rows(a)]
    return np.bincount(a.col_idx, weights=prod, minlength=a.n)


def squared_row_norms_oracle(a: SparseMatrix) -> np.ndarray:
    """``|A[i, :]|^2`` per row: each row's squared values summed left to
    right; an empty row gives 0. (``np.bincount`` of no weights is
    integer, hence the cast.)"""
    sums = np.bincount(_nnz_rows(a), weights=a.values * a.values, minlength=a.m)
    return sums.astype(np.float64, copy=False)


def normal_apply_oracle(a: SparseMatrix, rows, h) -> np.ndarray:
    """``A[rows, :].T @ (A[rows, :] @ h)`` over the gathered nonzeros of
    the selected rows, in row-major order."""
    rows = np.asarray(rows, dtype=np.int64)
    h = np.asarray(h, dtype=np.float64)
    if rows.size == 0:
        return np.zeros(a.n)
    ends = a.row_ptr[rows + 1]
    counts = ends - a.row_ptr[rows]
    sel = np.repeat(ends - np.cumsum(counts), counts) + np.arange(counts.sum())
    local = np.repeat(np.arange(rows.size), counts)
    vals, cols = a.values[sel], a.col_idx[sel]
    t = np.bincount(local, weights=vals * h[cols], minlength=rows.size)
    return np.bincount(cols, weights=vals * t[local], minlength=a.n)


def parse_libsvm_oracle(text, n_features: int | None = None) -> Dataset:
    """:func:`almsvm.data_io.parse_libsvm` one token at a time.

    Each line is checked token by token in order: the label, then each
    token's colon, its two numbers, its index against 1, against the
    largest int64 and against the previous index. The first fault stops the parse. NaN and infinite
    labels and values are looked for only after every line has passed,
    and the first line holding one is named.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    samples: list[tuple[np.ndarray, np.ndarray]] = []
    labels: list[float] = []
    linenos: list[int] = []
    max_idx = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(
                f"line {lineno}: label {tokens[0]!r} is not numeric"
            ) from None
        idx: list[int] = []
        vals: list[float] = []
        prev = 0
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ParseError(
                    f"line {lineno}: expected index:value, got {tok!r}"
                )
            i_s, v_s = tok.split(":", 1)
            try:
                i = int(i_s)
                v = float(v_s)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: malformed token {tok!r}"
                ) from None
            if i < 1:
                raise ParseError(f"line {lineno}: feature index {i} < 1")
            if i > _INDEX_MAX:
                raise ParseError(f"line {lineno}: feature index {i} too large")
            if i <= prev:
                raise ParseError(
                    f"line {lineno}: index {i} not strictly increasing"
                )
            prev = i
            idx.append(i - 1)
            vals.append(v)
        samples.append(
            (np.array(idx, dtype=np.int64), np.array(vals, dtype=np.float64))
        )
        labels.append(label)
        linenos.append(lineno)
        max_idx = max(max_idx, prev)
    y = np.array(labels, dtype=np.float64)
    bad = ~np.isfinite(y)
    if samples:
        vals = np.concatenate([v for _, v in samples])
        bad_vals = ~np.isfinite(vals)
        if bad_vals.any():
            ends = np.cumsum([v.size for _, v in samples])
            rows = np.searchsorted(ends, np.flatnonzero(bad_vals), side="right")
            bad[rows] = True
    if bad.any():
        raise ParseError(
            f"line {linenos[int(np.argmax(bad))]}: non-finite label or value"
        )
    n = max_idx
    if n_features is not None:
        if n_features < max_idx:
            raise ValueError(
                f"n_features={n_features} below max index {max_idx} in data"
            )
        n = n_features
    return Dataset(samples, y, n)


def serialize_libsvm_oracle(d: Dataset) -> str:
    """:func:`almsvm.data_io.serialize_libsvm` row by row, each number
    formatted from its numpy scalar by ``format_float``."""
    lines = []
    for (idx, vals), label in zip(d.samples, d.labels):
        parts = [format_float(label)]
        parts.extend(f"{int(i) + 1}:{format_float(v)}" for i, v in zip(idx, vals))
        lines.append(" ".join(parts))
    return "".join(line + "\n" for line in lines)


def csr_oracle(samples: Samples):
    """:meth:`Samples.csr` by numpy alone: the entries of the rows
    ``samples.ids`` of the store's ``row_ptr`` are picked one by one by
    fancy indexing, in the store's index dtype; for rows that are one
    ascending run of the store the result equals the views ``csr``
    returns."""
    ptr, ids = samples.row_ptr, samples.ids
    starts, counts = ptr[ids], ptr[ids + 1] - ptr[ids]
    row_ptr = np.zeros(ids.size + 1, dtype=ptr.dtype)
    np.cumsum(counts, out=row_ptr[1:])
    sel = np.repeat(starts - row_ptr[:-1], counts) + np.arange(row_ptr[-1])
    return row_ptr, samples.indices[sel], samples.values[sel]


class XorShift64Star:
    """xorshift64* PRNG; the reference for the generator that
    :func:`almsvm.data_io.split` steps inline.

    State update (all mod 2**64)::

        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27
        output = x * 0x2545F4914F6CDD1D

    The seed passes through one splitmix64 scrambling step so that small
    consecutive seeds give unrelated streams; a zero state falls back to
    the splitmix increment constant (xorshift state must be nonzero).
    """

    def __init__(self, seed: int):
        z = (int(seed) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        self._state = z if z != 0 else 0x9E3779B97F4A7C15

    def next_uint64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def next_below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) by modulo reduction."""
        return self.next_uint64() % bound
