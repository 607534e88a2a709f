"""CSR sparse-matrix kernels.

All kernels walk the stored nonzeros in row-major order and accumulate
left to right, so single-threaded runs reproduce bit for bit. Transpose
products scatter over rows; no CSC mirror is kept.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SparseMatrix", "RowBlock"]


class SparseMatrix:
    """Immutable CSR matrix with float64 values and 0-based indices.

    ``row_ptr`` has length ``m + 1``; column indices are strictly
    increasing within each row. Derived matrices share the structure
    arrays instead of copying them. Instances are treated as immutable:
    no method mutates ``self``.
    """

    __slots__ = ("row_ptr", "col_idx", "values", "m", "n", "_nnz_row")

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
        nnz_row = np.repeat(np.arange(m, dtype=np.int64), np.diff(row_ptr))
        if col_idx.size > 1:
            same_row = nnz_row[1:] == nnz_row[:-1]
            if np.any(same_row & (np.diff(col_idx) <= 0)):
                raise ValueError(
                    "column indices must be strictly increasing within a row"
                )
        self.row_ptr = row_ptr
        self.col_idx = col_idx
        self.values = values
        self.m = m
        self.n = n
        self._nnz_row = nnz_row

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def nnz(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"SparseMatrix(shape=({self.m}, {self.n}), nnz={self.nnz})"

    @classmethod
    def from_rows(cls, rows, n_cols: int) -> "SparseMatrix":
        """Build from an iterable of (indices, values) pairs.

        Indices are 0-based and strictly increasing within each pair.
        """
        idx_parts, val_parts, counts = [], [], []
        for idx, val in rows:
            idx = np.asarray(idx, dtype=np.int64)
            val = np.asarray(val, dtype=np.float64)
            if idx.shape != val.shape:
                raise ValueError("indices and values must have equal length")
            counts.append(idx.size)
            idx_parts.append(idx)
            val_parts.append(val)
        m = len(counts)
        row_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        col_idx = (
            np.concatenate(idx_parts) if idx_parts else np.empty(0, dtype=np.int64)
        )
        values = (
            np.concatenate(val_parts) if val_parts else np.empty(0, dtype=np.float64)
        )
        return cls(row_ptr, col_idx, values, (m, n_cols))

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows = [(np.flatnonzero(row), row[np.flatnonzero(row)]) for row in a]
        return cls.from_rows(rows, a.shape[1])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.n))
        out[self._nnz_row, self.col_idx] = self.values
        return out

    def matvec(self, x) -> np.ndarray:
        """Return ``A @ x``, accumulating each row left to right."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"x must have length {self.n}, got {x.shape}")
        prod = self.values * x[self.col_idx]
        return np.bincount(self._nnz_row, weights=prod, minlength=self.m)

    def matvec_t(self, y) -> np.ndarray:
        """Return ``A.T @ y`` by scattering row contributions."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.m,):
            raise ValueError(f"y must have length {self.m}, got {y.shape}")
        prod = self.values * y[self._nnz_row]
        return np.bincount(self.col_idx, weights=prod, minlength=self.n)

    def restricted_normal_apply(self, rows, h) -> np.ndarray:
        """Return ``A[rows, :].T @ (A[rows, :] @ h)`` without materializing
        the submatrix; only the nonzeros of the selected rows are touched.

        With ``rows`` equal to all row indices this reproduces
        ``matvec_t(matvec(h))`` bit for bit (same kernels, same order).
        """
        return self.gather_rows(rows).normal_apply(h)

    def gather_rows(self, rows) -> "RowBlock":
        """Gather the nonzeros of ``A[rows, :]`` once, for repeated
        ``normal_apply`` calls on the same row set."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.m):
            raise ValueError("row index out of range")
        ends = self.row_ptr[rows + 1]
        counts = ends - self.row_ptr[rows]
        total = int(counts.sum())
        sel = np.repeat(ends - np.cumsum(counts), counts) + np.arange(total)
        local = np.repeat(np.arange(rows.size), counts)
        return RowBlock(self.values[sel], self.col_idx[sel], local, rows.size,
                        self.n)

    def scale_rows(self, c) -> "SparseMatrix":
        """Return a copy with row i multiplied by ``c[i]``; the sparsity
        pattern (including stored zeros) is preserved."""
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (self.m,):
            raise ValueError(f"c must have length {self.m}, got {c.shape}")
        return SparseMatrix(
            self.row_ptr, self.col_idx, self.values * c[self._nnz_row], self.shape
        )


class RowBlock:
    """The nonzeros of a row subset of a :class:`SparseMatrix`, gathered
    in row-major order: ``local`` holds each nonzero's position within
    the subset."""

    __slots__ = ("vals", "cols", "local", "size", "n")

    def __init__(self, vals, cols, local, size: int, n: int):
        self.vals = vals
        self.cols = cols
        self.local = local
        self.size = size
        self.n = n

    def normal_apply(self, h) -> np.ndarray:
        """Return ``A[rows, :].T @ (A[rows, :] @ h)``."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.n,):
            raise ValueError(f"h must have length {self.n}, got {h.shape}")
        if self.size == 0:
            return np.zeros(self.n)
        t = np.bincount(self.local, weights=self.vals * h[self.cols],
                        minlength=self.size)
        return np.bincount(self.cols, weights=self.vals * t[self.local],
                           minlength=self.n)
