"""CSR sparse-matrix kernels on ``scipy.sparse``.

A :class:`SparseMatrix` holds one ``scipy.sparse.csr_array`` and its
transpose view. ``A @ x`` runs scipy's CSR kernel, which accumulates
each row left to right in stored order; ``A.T @ y`` runs the CSC kernel
of the transpose view, which scatters row contributions in row order.
Both are therefore bit for bit equal to the row-major reference
kernels kept as oracles in :mod:`almsvm.baseline`, and single-threaded
runs reproduce exactly.

When at most one ``y_i`` in eight is nonzero, ``A.T @ y`` scatters only
the rows with ``y_i != 0``, still in row order. A skipped row adds the
products ``a_ij * (+-0)``, which are zeros, to accumulators that start
at ``+0.0``; an accumulator that starts at ``+0.0`` is never ``-0.0``,
and adding a zero leaves any other value as it is, so every column
receives the same nonzero terms in the same order and the result is the
full kernel's, bit for bit.

scipy is imported when the first matrix is built, not when this module
is: reading a model, predicting and scoring never build one, and
importing ``scipy.sparse`` takes about 0.2 s, which every start of the
command-line tool would pay.
"""

from __future__ import annotations

import numpy as np

from .data_io import Samples, _readonly

__all__ = ["SparseMatrix", "RowBlock"]


class SparseMatrix:
    """Immutable CSR matrix with float64 values and 0-based indices.

    ``row_ptr`` has length ``m + 1``; column indices are strictly
    increasing within each row and every value is finite. ``row_ptr``,
    ``col_idx`` and ``values`` are read-only views of the stored arrays;
    derived matrices share the structure arrays instead of copying them.
    """

    __slots__ = ("_a", "_at")

    def __init__(self, row_ptr, col_idx, values, shape):
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise ValueError("shape must be nonnegative")
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if row_ptr.shape != (m + 1,):
            raise ValueError(f"row_ptr must have length m+1 = {m + 1}")
        if row_ptr[0] != 0 or row_ptr[-1] != values.size:
            raise ValueError("row_ptr must run from 0 to nnz")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if col_idx.shape != values.shape:
            raise ValueError("col_idx and values must have equal length")
        if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= n):
            raise ValueError("column index out of range")
        if col_idx.size > 1:
            increasing = np.diff(col_idx) > 0
            # a step from one row's last entry to the next row's first is free
            starts = row_ptr[1:-1]
            increasing[starts[(starts > 0) & (starts < col_idx.size)] - 1] = True
            if not increasing.all():
                raise ValueError(
                    "column indices must be strictly increasing within a row"
                )
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        from scipy.sparse import csr_array  # deferred: see the module docstring

        self._a = csr_array((values, col_idx, row_ptr), shape=(m, n))
        self._at = self._a.T

    @property
    def row_ptr(self) -> np.ndarray:
        return _readonly(self._a.indptr)

    @property
    def col_idx(self) -> np.ndarray:
        return _readonly(self._a.indices)

    @property
    def values(self) -> np.ndarray:
        return _readonly(self._a.data)

    @property
    def m(self) -> int:
        return self._a.shape[0]

    @property
    def n(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def nnz(self) -> int:
        return self._a.nnz

    def __repr__(self) -> str:
        return f"SparseMatrix(shape=({self.m}, {self.n}), nnz={self.nnz})"

    @classmethod
    def from_rows(cls, rows, n_cols: int) -> "SparseMatrix":
        """Build from (indices, values) pairs: a :class:`Samples` store,
        whose flat arrays are wrapped without a copy when its rows lie back
        to back, or any iterable of pairs, concatenated once.

        Indices are 0-based and strictly increasing within each pair.
        """
        if not isinstance(rows, Samples):
            rows = Samples.from_pairs(rows)
        row_ptr, col_idx, values = rows.csr()
        return cls(row_ptr, col_idx, values, (len(rows), n_cols))

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(a)  # row-major order
        row_ptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=a.shape[0]), out=row_ptr[1:])
        return cls(row_ptr, cols, a[rows, cols], a.shape)

    def to_dense(self) -> np.ndarray:
        return self._a.toarray()

    def matvec(self, x) -> np.ndarray:
        """Return ``A @ x``, accumulating each row left to right."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"x must have length {self.n}, got {x.shape}")
        return self._a @ x

    def matvec_t(self, y) -> np.ndarray:
        """Return ``A.T @ y`` by scattering row contributions in row order.

        When at most ``m/8`` entries of ``y`` are nonzero only their rows
        are gathered and scattered; the result is bitwise the same (see
        the module docstring).
        """
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.m,):
            raise ValueError(f"y must have length {self.m}, got {y.shape}")
        if 8 * np.count_nonzero(y) > self.m:
            return self._at @ y
        rows = np.flatnonzero(y)
        return self._at[:, rows] @ y[rows]

    def restricted_normal_apply(self, rows, h) -> np.ndarray:
        """Return ``A[rows, :].T @ (A[rows, :] @ h)``; only the nonzeros
        of the selected rows are touched.

        With ``rows`` equal to all row indices this reproduces
        ``matvec_t(matvec(h))`` bit for bit (same kernels, same order).
        """
        return self.gather_rows(rows).normal_apply(h)

    def gather_rows(self, rows) -> "RowBlock":
        """Copy the rows ``A[rows, :]`` out once, for repeated
        ``normal_apply`` calls on the same row set."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.m):
            raise ValueError("row index out of range")
        return RowBlock(self._a[rows])

    def scale_rows(self, c) -> "SparseMatrix":
        """Return a copy with row i multiplied by ``c[i]``; the sparsity
        pattern (including stored zeros) is preserved."""
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (self.m,):
            raise ValueError(f"c must have length {self.m}, got {c.shape}")
        a = self._a
        return SparseMatrix(
            a.indptr, a.indices, a.data * np.repeat(c, np.diff(a.indptr)),
            self.shape,
        )


class RowBlock:
    """A row subset ``A[rows, :]`` of a :class:`SparseMatrix`, held as
    its own CSR matrix and transpose view."""

    __slots__ = ("_a", "_at")

    def __init__(self, a):
        self._a = a
        self._at = a.T

    @property
    def size(self) -> int:
        return self._a.shape[0]

    @property
    def n(self) -> int:
        return self._a.shape[1]

    def normal_apply(self, h) -> np.ndarray:
        """Return ``A[rows, :].T @ (A[rows, :] @ h)``."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.n,):
            raise ValueError(f"h must have length {self.n}, got {h.shape}")
        return self._at @ (self._a @ h)
