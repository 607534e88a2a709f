"""CSR storage and kernels: the sample store, the matrix and scipy's
compiled CSR routines, called directly.

A :class:`Samples` store holds the rows of a dataset as ``row_ptr``,
``indices`` and ``values``; a :class:`SparseMatrix` holds ``row_ptr``,
``col_idx`` and ``values`` (float64), and nothing else. Both are
read-only and checked once, when built. The store checks the row rule,
indices at least 0 and strictly increasing in each row, by
:func:`_first_bad_index`, which the parser calls too; a matrix is built
from a store and checks only its shape, its column count and finite
values. Each keeps its structure arrays in one index dtype, int32 when
the bounds it passes to :func:`_index_dtype` fit in it and int64
otherwise, so :meth:`SparseMatrix.from_rows` wraps a store's int32
indices without a copy; the kernels run the same arithmetic for either.
Each operation calls the compiled routine of ``scipy.sparse._sparsetools``
that scipy's own ``csr_array`` runs for it, without building a scipy
array object. Three routines are used, one call each:

* ``A @ x`` is ``csr_matvec``, which accumulates each row left to
  right in stored order;
* ``A.T @ y`` is ``csc_matvec`` on the same three arrays, read as the
  CSC form of ``A.T``; it scatters row contributions in row order;
* a row gather ``A[rows, :]`` is ``csr_row_index``, in the order of
  ``rows``. It gathers a matrix's rows (the semismooth Newton step's
  active rows and the sparse branch of ``A.T @ y`` below) and the rows
  of a store part that are not one ascending run, as in a ``split`` part.

Both products are therefore bit for bit equal to row-major reference
kernels (the test suite keeps ``np.bincount`` ones as oracles) and to
scipy's public ``csr_array`` operators, which the tests compare them
against, and single-threaded runs reproduce exactly. ``_sparsetools``
is private; these routines and their arguments are those of scipy
1.17.1, the tested version.

The gathered rows ``A[rows, :]``, which the semismooth Newton step takes
once per iterate, are a :class:`SparseMatrix` of shape ``(rows.size,
n)`` stored without the O(nnz) checks: each row of a valid matrix is a
valid row, so any sequence of them, repeats included, is a valid
matrix. It keeps its parent's index dtype, or int64 when repeated rows
add up to more nonzeros than int32 holds.

When at most one ``y_i`` in four is nonzero, ``A.T @ y`` gathers and
scatters only the rows with ``y_i != 0``, still in row order. A skipped
row adds the products ``a_ij * (+-0)``, which are zeros, to
accumulators that start at ``+0.0``; such an accumulator is never
``-0.0``, and adding a zero leaves any other value as it is, so every
column receives the same nonzero terms in the same order and the result
is the full kernel's, bit for bit. Scoring clips each column past the
model to a ``0.0`` slot of ``x`` and runs :func:`_matvec`: a clipped
entry adds ``v * 0.0 = +-0`` for finite ``v``, so by the same argument
each score is the kept entries' sum, bit for bit.

The kernels are bound once, when this module is imported, by
:func:`_load_kernels`: it runs scipy's ``sparse/_sparsetools`` extension
file alone, found without importing scipy and kept out of
``sys.modules``, which spares each process the ``scipy.sparse`` package
(README, *Install and test*). Where scipy is missing, or that file is,
``import almsvm`` raises ``ImportError`` naming the directories searched.
"""

from __future__ import annotations

import operator
import os
import sys
from collections.abc import Sequence
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

__all__ = ["Samples", "SparseMatrix"]

# the range of the narrow index dtype
_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1


def _load_kernels():
    """scipy's ``_sparsetools`` module, run from its file (module docstring)."""
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("almsvm needs scipy: no module named 'scipy'",
                          name="scipy")
    dirs = [os.path.join(d, "sparse")
            for d in scipy.submodule_search_locations or ()]
    spec = PathFinder.find_spec("_sparsetools", dirs)
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        raise ImportError(f"no _sparsetools extension file in {dirs}",
                          name="_sparsetools")
    kernels = module_from_spec(spec)
    spec.loader.exec_module(kernels)
    # a single-phase extension module enters itself in sys.modules
    if sys.modules.get(spec.name) is kernels:
        del sys.modules[spec.name]
    return kernels


_kernels = _load_kernels()


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def _index_dtype(*bounds: int):
    """The package's one index dtype rule: int32 when every one of
    ``bounds`` fits in it, else int64. A store passes its row count, its
    last row pointer and the smallest and largest feature index it
    holds, a matrix its row count, column count and number of nonzeros."""
    fits = _INT32_MIN <= min(bounds) and max(bounds) <= _INT32_MAX
    return np.int32 if fits else np.int64


def _as_array(a, name: str, dtype=None) -> np.ndarray:
    """``a`` as a C-contiguous array, of ``dtype`` if given; what numpy
    cannot read so is rejected naming ``name``."""
    try:
        return np.asarray(a, dtype=dtype, order="C")
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an array of numbers") from None


def _as_index(a, name: str) -> np.ndarray:
    """``a`` as an index array by :func:`_as_array`: int32 and int64
    arrays as they are, any other integers as int64; a non-empty array
    that is not of an integer dtype is rejected, not truncated."""
    a = _as_array(a, name)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {a.dtype}")
    return a if a.dtype in (np.int32, np.int64) else a.astype(np.int64)


def _first_bad_index(indices, row_ptr, low: int = 0) -> int:
    """The row rule: the position of the first index of the rows
    ``indices[row_ptr[r]:row_ptr[r + 1]]`` that is below ``low`` (1 for
    the parser's) or not above the one before it in its row, else -1."""
    lo, hi = int(row_ptr[0]), int(row_ptr[-1])
    if lo == hi:
        return -1
    bad = np.empty(hi - lo, dtype=bool)
    np.less_equal(indices[lo + 1:hi], indices[lo:hi - 1], out=bad[1:])
    starts = row_ptr[:-1]
    firsts = starts[starts < row_ptr[1:]]
    bad[firsts - lo] = indices[firsts] < low
    p = int(np.argmax(bad))
    return lo + p if bad[p] else -1


def _matvec(row_ptr, col_idx, values, x) -> np.ndarray:
    """``A @ x`` from the CSR arrays of ``A``, index arrays of one dtype."""
    out = np.zeros(row_ptr.size - 1)
    _kernels.csr_matvec(out.size, x.size, row_ptr, col_idx, values, x, out)
    return out


def _matvec_t(row_ptr, col_idx, values, y, n) -> np.ndarray:
    """``A.T @ y`` from the CSR arrays of an ``n``-column ``A``."""
    out = np.zeros(n)
    _kernels.csc_matvec(n, y.size, row_ptr, col_idx, values, y, out)
    return out


def _gather(row_ptr, col_idx, values, rows, n):
    """CSR arrays of the rows ``rows`` of an ``n``-column matrix, in the
    order given. The index dtype is the matrix's, or int64 when repeated
    rows add up to more nonzeros than int32 holds."""
    ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(row_ptr[rows + 1] - row_ptr[rows], out=ptr[1:])
    nnz = int(ptr[-1])
    dt = np.promote_types(row_ptr.dtype, _index_dtype(rows.size, n, nnz))
    ptr, rows = ptr.astype(dt, copy=False), rows.astype(dt, copy=False)
    idx = np.empty(nnz, dtype=dt)
    val = np.empty(nnz, dtype=np.float64)
    _kernels.csr_row_index(rows.size, rows, row_ptr.astype(dt, copy=False),
                           col_idx.astype(dt, copy=False), values, idx, val)
    return ptr, idx, val


class Samples(Sequence):
    """The rows of a dataset, held as one CSR store.

    Row ``r`` is the pair of read-only views ``(indices[a:b],
    values[a:b])``, ``a, b = row_ptr[r], row_ptr[r + 1]``, of 0-based
    feature indices and float64 values. The constructor checks once that
    ``row_ptr`` is made of integers, does not decrease, starts at 0 or
    later and ends within the flat arrays, and that the rows it spans
    keep the row rule, naming the first row that does not; the values
    are not checked. The three arrays are C-contiguous, ``row_ptr`` and
    ``indices`` in :func:`_index_dtype` of the row count, the last row
    pointer and the smallest and largest index (:attr:`max_index`).
    Indexing with an integer, or a 0-d integer array, gives that pair; a
    slice, an array of row numbers or a mask gives a part, which shares
    the three arrays and holds only its row ids (:attr:`ids`), taken
    from ``arange(len)`` or its parent's ids.
    """

    __slots__ = ("_ptr", "_idx", "_val", "_ids", "_max")

    def __init__(self, row_ptr, indices, values):
        row_ptr = _as_index(row_ptr, "row_ptr")
        indices = _as_index(indices, "indices")
        values = _as_array(values, "values", np.float64)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise ValueError("indices and values must have equal length")
        if (row_ptr.ndim != 1 or row_ptr.size == 0 or row_ptr[0] < 0
                or row_ptr[-1] > values.size):
            raise ValueError("row_ptr must lie within the flat arrays")
        if np.any(row_ptr[1:] < row_ptr[:-1]):
            raise ValueError("row_ptr must be non-decreasing")
        if (p := _first_bad_index(indices, row_ptr)) >= 0:
            r, i = np.searchsorted(row_ptr, p, side="right") - 1, indices[p]
            raise ValueError(f"row {r}: index {i} " + (
                "is negative" if i < 0 else "not strictly increasing"))
        self._max = int(indices.max()) if indices.size else -1
        # an int32 array's values fit by its dtype
        bounds = ((int(indices.min()), self._max)
                  if indices.dtype == np.int64 and indices.size else (0,))
        dt = _index_dtype(row_ptr.size - 1, int(row_ptr[-1]), *bounds)
        self._ptr = _readonly(row_ptr.astype(dt, copy=False))
        self._idx = _readonly(indices.astype(dt, copy=False))
        self._val, self._ids = _readonly(values), None

    @classmethod
    def from_pairs(cls, pairs) -> "Samples":
        """Concatenate an iterable of ``(indices, values)`` pairs once."""
        try:
            pairs = [(idx, val) for idx, val in pairs]
        except (TypeError, ValueError):
            raise ValueError("samples must be (indices, values) pairs") from None
        pairs = [(_as_index(idx, "indices"), _as_array(val, "values", np.float64))
                 for idx, val in pairs]
        if any(idx.ndim != 1 or idx.shape != val.shape for idx, val in pairs):
            raise ValueError("indices and values must have equal length")
        return cls(np.cumsum([0] + [idx.size for idx, _ in pairs]),
                   np.concatenate([np.empty(0, np.int32), *(i for i, _ in pairs)]),
                   np.concatenate([np.empty(0), *(v for _, v in pairs)]))

    @property
    def row_ptr(self) -> np.ndarray:
        """The store's row pointer, which its parts share."""
        return self._ptr

    @property
    def indices(self) -> np.ndarray:
        return self._idx

    @property
    def values(self) -> np.ndarray:
        return self._val

    @property
    def max_index(self) -> int:
        """The largest index in :attr:`indices`, -1 when there is none,
        found once when the store is built; a part reports its store's."""
        return self._max

    @property
    def ids(self) -> np.ndarray:
        """The ids of these rows in :attr:`row_ptr`, in order: ``arange(len)``
        for a store as built, in its index dtype."""
        if self._ids is None:
            return np.arange(self._ptr.size - 1, dtype=self._ptr.dtype)
        return self._ids

    def __len__(self) -> int:
        return self._ptr.size - 1 if self._ids is None else self._ids.size

    def __getitem__(self, key):
        if (isinstance(key, np.ndarray) and key.ndim == 0
                and key.dtype.kind in "iu"):
            key = int(key)
        if isinstance(key, (int, np.integer)):
            r = (range(len(self))[key] if self._ids is None
                 else int(self._ids[key]))
            a, b = int(self._ptr[r]), int(self._ptr[r + 1])
            return self._idx[a:b], self._val[a:b]
        part = Samples.__new__(Samples)
        part._ptr, part._idx, part._val = self._ptr, self._idx, self._val
        part._max = self._max
        part._ids = _readonly(self.ids[key])
        return part

    def __iter__(self):
        ptr, idx, vals, ids = self._ptr, self._idx, self._val, self.ids
        for a, b in zip(ptr[ids].tolist(), ptr[ids + 1].tolist()):
            yield idx[a:b], vals[a:b]

    def csr(self):
        """``(row_ptr, indices, values)`` of these rows in order, in the
        store's index dtype: views of the flat arrays when the rows are
        one ascending run of the store, as after a parse or a cut, else
        one copy by :func:`_gather`, called as ``gather_rows`` calls it,
        which widens to int64 when repeated rows pass int32."""
        ptr, ids = self._ptr, self._ids
        if ids is not None:
            if not (ids.size and np.all(np.diff(ids) == 1)):
                return _gather(ptr, self._idx, self._val, ids, 0)
            ptr = ptr[int(ids[0]):int(ids[-1]) + 2]
        lo, hi = ptr[0], ptr[-1]
        return ptr - lo, self._idx[lo:hi], self._val[lo:hi]


class SparseMatrix:
    """Immutable CSR matrix with float64 values and 0-based indices.

    ``row_ptr`` has length ``m + 1`` and runs from 0 to nnz, its rows
    keep the row rule of :class:`Samples`, every index is below ``n`` and
    every value is finite. ``row_ptr``, ``col_idx`` and ``values`` are
    read-only views of the stored arrays; :meth:`scale_rows` shares the
    structure arrays, and :meth:`gather_rows` copies only its rows.
    """

    __slots__ = ("_ptr", "_idx", "_val", "_m", "_n")

    def __init__(self, row_ptr, col_idx, values, shape):
        try:
            m, n = map(operator.index, shape)
        except (TypeError, ValueError):
            raise ValueError(f"shape must be two integers, got {shape!r}") from None
        # the store checks dtypes, lengths and the row rule, from_rows the rest
        rows = Samples(_as_index(row_ptr, "row_ptr"),
                       _as_index(col_idx, "col_idx"), values)
        ptr = rows.row_ptr
        if ptr.shape != (m + 1,) or ptr[0] != 0 or ptr[-1] != rows.values.size:
            raise ValueError("row_ptr must run from 0 to nnz in shape[0] + 1 = "
                             f"{m + 1} entries")
        a = SparseMatrix.from_rows(rows, n)
        self._ptr, self._idx, self._val, self._m, self._n = (
            a._ptr, a._idx, a._val, m, n)

    @classmethod
    def _valid(cls, row_ptr, col_idx, values, m, n) -> "SparseMatrix":
        """A matrix of arrays known to be valid; nothing is checked."""
        a = cls.__new__(cls)
        a._ptr, a._idx, a._val = _readonly(row_ptr), _readonly(col_idx), _readonly(values)
        a._m, a._n = m, n
        return a

    @property
    def row_ptr(self) -> np.ndarray:
        return self._ptr

    @property
    def col_idx(self) -> np.ndarray:
        return self._idx

    @property
    def values(self) -> np.ndarray:
        return self._val

    @property
    def m(self) -> int:
        return self._m

    @property
    def n(self) -> int:
        return self._n

    @property
    def shape(self) -> tuple[int, int]:
        return self._m, self._n

    @property
    def nnz(self) -> int:
        return self._val.size

    def __repr__(self) -> str:
        return f"SparseMatrix(shape=({self.m}, {self.n}), nnz={self.nnz})"

    @classmethod
    def from_rows(cls, rows, n_cols: int) -> "SparseMatrix":
        """Build from a :class:`Samples` store, which has checked its rows,
        or any iterable of (indices, values) pairs, concatenated once into
        one; the store's arrays are wrapped without a copy when its rows are
        one ascending run in the matrix's index dtype, as int32 ones are."""
        if not isinstance(rows, Samples):
            rows = Samples.from_pairs(rows)
        n = int(n_cols)
        if rows.max_index >= n:
            raise ValueError(f"column index {rows.max_index} out of range "
                             f"for {n} columns")
        row_ptr, col_idx, values = rows.csr()
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        dt = _index_dtype(len(rows), n, values.size)
        return cls._valid(row_ptr.astype(dt, copy=False),
                          col_idx.astype(dt, copy=False), values, len(rows), n)

    def matvec(self, x) -> np.ndarray:
        """Return ``A @ x``, accumulating each row left to right."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._n,):
            raise ValueError(f"x must have length {self._n}, got {x.shape}")
        return _matvec(self._ptr, self._idx, self._val, x)

    def matvec_t(self, y) -> np.ndarray:
        """Return ``A.T @ y`` by scattering row contributions in row order.

        When at most ``m/4`` entries of ``y`` are nonzero only their rows
        are gathered and scattered; the result is bitwise the same (see
        the module docstring).
        """
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self._m,):
            raise ValueError(f"y must have length {self._m}, got {y.shape}")
        mask = y != 0.0
        if 4 * np.count_nonzero(mask) > self._m:
            return _matvec_t(self._ptr, self._idx, self._val, y, self._n)
        rows = np.flatnonzero(mask)
        ptr, idx, val = _gather(self._ptr, self._idx, self._val, rows, self._n)
        return _matvec_t(ptr, idx, val, y[rows], self._n)

    def normal_apply(self, h) -> np.ndarray:
        """Return ``A.T @ (A @ h)``: ``A @ h`` accumulated row by row,
        then scattered back in row order."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self._n,):
            raise ValueError(f"h must have length {self._n}, got {h.shape}")
        t = _matvec(self._ptr, self._idx, self._val, h)
        return _matvec_t(self._ptr, self._idx, self._val, t, self._n)

    def restricted_normal_apply(self, rows, h) -> np.ndarray:
        """Return ``A[rows, :].T @ (A[rows, :] @ h)``; only the nonzeros
        of the selected rows are touched.

        With ``rows`` equal to all row indices this reproduces
        ``matvec_t(matvec(h))`` bit for bit (same kernels, same order).
        """
        return self.gather_rows(rows).normal_apply(h)

    def gather_rows(self, rows) -> "SparseMatrix":
        """Copy the rows ``A[rows, :]`` out once, in the order given, as
        a ``(rows.size, n)`` matrix for repeated products on the same row
        set; it is not checked again (see the module docstring)."""
        rows = _as_index(rows, "rows")
        if rows.size and (rows.min() < 0 or rows.max() >= self._m):
            raise ValueError("row index out of range")
        return SparseMatrix._valid(
            *_gather(self._ptr, self._idx, self._val, rows, self._n),
            rows.size, self._n)

    def scale_rows(self, c) -> "SparseMatrix":
        """Return a copy with row i multiplied by ``c[i]``; the sparsity
        pattern (including stored zeros) is preserved and shared, so only
        the new values are checked."""
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (self._m,):
            raise ValueError(f"c must have length {self._m}, got {c.shape}")
        values = self._val * np.repeat(c, np.diff(self._ptr))
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        return SparseMatrix._valid(self._ptr, self._idx, values, self._m, self._n)

