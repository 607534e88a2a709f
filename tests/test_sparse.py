"""CSR kernels against dense numpy and bincount oracles."""

import os
import sys
from importlib.machinery import PathFinder

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from almsvm import sparse
from almsvm.data_io import Dataset, augment_bias, parse_libsvm
from almsvm.sparse import Samples, SparseMatrix, _first_bad_index, _index_dtype
from almsvm.synthetic import svc_sparse_binary

from conftest import random_sparse
from oracles import (from_dense, matvec_oracle, matvec_t_oracle,
                     normal_apply_oracle, squared_row_norms_oracle, to_dense)


class TestConstruction:
    def test_from_rows_and_back(self):
        rows = [
            (np.array([0, 2]), np.array([1.0, 2.0])),
            (np.array([], dtype=np.int64), np.array([])),
            (np.array([1]), np.array([-3.0])),
        ]
        a = SparseMatrix.from_rows(rows, 3)
        expected = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, -3.0, 0.0]])
        np.testing.assert_array_equal(to_dense(a), expected)

    def test_rejects_non_increasing_columns(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix.from_rows([(np.array([1, 1]), np.array([1.0, 2.0]))], 3)

    def test_rejects_column_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix.from_rows([(np.array([3]), np.array([1.0]))], 3)

    def test_rejects_bad_row_ptr(self):
        with pytest.raises(ValueError):
            SparseMatrix(np.array([0, 2, 1]), np.array([0, 1]),
                         np.array([1.0, 2.0]), (2, 2))

    def test_column_order_is_checked_within_rows_only(self):
        # a drop in column index across a row boundary is allowed,
        # a repeat inside the row after an empty one is not
        a = SparseMatrix(np.array([0, 2, 2, 3]), np.array([1, 2, 0]),
                         np.array([1.0, 2.0, 3.0]), (3, 3))
        assert a.nnz == 3
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix(np.array([0, 1, 1, 3]), np.array([2, 0, 0]),
                         np.array([1.0, 2.0, 3.0]), (3, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SparseMatrix(np.array([0, 1, 2]), np.array([0, 1]),
                         np.array([1.0, bad]), (2, 2))
        with pytest.raises(ValueError, match="finite"):
            SparseMatrix.from_rows(
                [(np.array([0]), np.array([1.0])),
                 (np.array([0, 2]), np.array([bad, 2.0]))], 3)

    @pytest.mark.parametrize("cols,vals,store_message,matrix_message", [
        ([2, 0], [1.0, 2.0], "row 1: index 0 not strictly increasing", None),
        ([1, 1], [1.0, 2.0], "row 1: index 1 not strictly increasing", None),
        ([0, 3], [1.0, 2.0], None, "column index 3 out of range for 3 columns"),
        ([-1, 0], [1.0, 2.0], "row 1: index -1 is negative", None),
        ([0, 2], [np.nan, 2.0], None, "values must be finite"),
    ], ids=["unsorted", "repeated", "above", "negative", "nan"])
    def test_rejects_a_bad_samples_store(self, cols, vals, store_message,
                                         matrix_message):
        # the store itself rejects a row that breaks the row rule, naming
        # the row; the matrix checks a valid store only for what a matrix
        # adds, its column count and finite values
        pairs = [([0], [1.0]), (cols, vals)]
        if store_message is not None:
            with pytest.raises(ValueError, match=f"^{store_message}$"):
                Samples.from_pairs(pairs)
            return
        store = Samples.from_pairs(pairs)
        with pytest.raises(ValueError, match=f"^{matrix_message}$"):
            SparseMatrix.from_rows(store, 3)

    def test_a_parsed_store_is_wrapped_without_a_copy(self):
        # the store's int32 indices and its values are the matrix's own
        d = parse_libsvm("1 1:1 3:2\n-1\n1 2:5\n1 1:4 2:4\n")
        a = SparseMatrix.from_rows(d.samples, d.n_features)
        assert a.col_idx.dtype == d.samples.indices.dtype == np.int32
        assert np.shares_memory(a.col_idx, d.samples.indices)
        assert np.shares_memory(a.values, d.samples.values)

    @pytest.mark.parametrize("row_ptr,col_idx,name", [
        ([0, 1.5, 2], [0, 1], "row_ptr"),
        ([0, 1, 2], [0.9, 1.2], "col_idx"),
    ])
    def test_non_integer_indices_are_rejected_not_truncated(self, row_ptr,
                                                            col_idx, name):
        # int64 conversion would store row_ptr [0, 1, 2] or col_idx [0, 1]
        with pytest.raises(ValueError, match=f"{name} must be integers"):
            SparseMatrix(np.array(row_ptr), np.array(col_idx),
                         np.array([1.0, 2.0]), (2, 3))

    def test_structure_arrays_are_read_only(self, rng):
        a = random_sparse(rng, 4, 3)
        for arr in (a.row_ptr, a.col_idx, a.values):
            with pytest.raises(ValueError):
                arr[0] = 0


def _first_bad_loop(indices, row_ptr, low):
    """``(position, row)`` of the first index that is below ``low`` or
    not above its predecessor in its row, ``(-1, -1)`` when none is."""
    for r in range(len(row_ptr) - 1):
        prev = low - 1
        for p in range(row_ptr[r], row_ptr[r + 1]):
            if indices[p] <= prev:
                return p, r
            prev = indices[p]
    return -1, -1


@st.composite
def row_sets(draw):
    """Flat indices and a row pointer over part of them: sorted rows, one
    of them possibly corrupted, between up to two unspanned entries on
    either side."""
    lengths = draw(st.lists(st.integers(0, 4), max_size=6))
    lo, slack = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    row_ptr = [lo]
    indices = draw(st.lists(st.integers(-2, 9), min_size=lo, max_size=lo))
    for k in lengths:
        indices += sorted(draw(st.sets(st.integers(0, 9), min_size=k, max_size=k)))
        row_ptr.append(len(indices))
    indices += draw(st.lists(st.integers(-2, 9), min_size=slack, max_size=slack))
    if row_ptr[-1] > lo and draw(st.booleans()):
        indices[draw(st.integers(lo, row_ptr[-1] - 1))] = draw(st.integers(-2, 9))
    return indices, row_ptr


class TestRowRule:
    """The row rule, indices at least 0 and strictly increasing in each
    row, is checked by one function, when a store is built."""

    @settings(max_examples=300, deadline=None)
    @given(rows=row_sets(), low=st.sampled_from([0, 1]),
           dtype=st.sampled_from([np.int32, np.int64]))
    def test_first_bad_index_matches_a_loop(self, rows, low, dtype):
        indices, row_ptr = rows
        got = _first_bad_index(np.array(indices, dtype=dtype),
                               np.array(row_ptr, dtype=dtype), low)
        assert got == _first_bad_loop(indices, row_ptr, low)[0]

    @settings(max_examples=300, deadline=None)
    @given(rows=row_sets())
    def test_a_store_rejects_exactly_the_rows_that_break_it(self, rows):
        indices, row_ptr = rows
        p, r = _first_bad_loop(indices, row_ptr, 0)
        values = np.arange(len(indices), dtype=np.float64)
        if p < 0:
            s = Samples(row_ptr, indices, values)
            assert s.indices.tolist() == indices
            return
        fault = "is negative" if indices[p] < 0 else "not strictly increasing"
        message = f"^row {r}: index {indices[p]} {fault}$"
        with pytest.raises(ValueError, match=message):
            Samples(row_ptr, indices, values)

    @pytest.mark.parametrize("row,message", [
        ([3, 1], "index 1 not strictly increasing"),
        ([2, 2], "index 2 not strictly increasing"),
        ([-2, 0], "index -2 is negative"),
    ], ids=["unsorted", "repeated", "negative"])
    def test_every_way_to_build_a_store_names_the_row(self, row, message):
        pairs = [([0, 1], [1.0, 1.0]), ([], []), (row, [1.0, 2.0])]
        builds = (lambda: Samples([0, 2, 2, 4], [0, 1, *row], np.ones(4)),
                  lambda: Samples.from_pairs(pairs),
                  lambda: Dataset(pairs, np.zeros(3), 5),
                  lambda: SparseMatrix.from_rows(pairs, 5),
                  lambda: SparseMatrix([0, 2, 2, 4], [0, 1, *row], np.ones(4),
                                       (3, 5)))
        for build in builds:
            with pytest.raises(ValueError, match=f"^row 2: {message}$"):
                build()

    def test_built_stores_are_accepted_unchanged(self):
        parsed = parse_libsvm("1 1:1 3:2\n-1\n1 2:5 9:1\n").samples
        generated = svc_sparse_binary(300, 40, seed=0)
        for s in (parsed, generated.samples, augment_bias(generated).samples):
            again = Samples(s.row_ptr, s.indices, s.values)
            for a, b in zip(again.csr(), s.csr()):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMatvec:
    def test_diagonal(self):
        a = from_dense([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(a.matvec([3.0, 4.0]), [3.0, 8.0])

    def test_zero_matrix(self):
        a = SparseMatrix.from_rows(
            [(np.array([], dtype=np.int64), np.array([]))] * 2, 2
        )
        np.testing.assert_array_equal(a.matvec([5.0, 6.0]), [0.0, 0.0])

    def test_random_against_dense(self, rng):
        a = random_sparse(rng, 5, 7)
        x = rng.normal(size=7)
        np.testing.assert_allclose(a.matvec(x), to_dense(a) @ x, rtol=1e-12)

    def test_dimension_mismatch(self, rng):
        a = random_sparse(rng, 5, 7)
        with pytest.raises(ValueError):
            a.matvec(np.ones(6))


class TestMatvecT:
    def test_identity(self):
        a = from_dense(np.eye(3))
        np.testing.assert_array_equal(a.matvec_t([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_single_row(self):
        a = from_dense([[1.0, 2.0]])
        np.testing.assert_array_equal(a.matvec_t([3.0]), [3.0, 6.0])

    def test_random_against_dense(self, rng):
        a = random_sparse(rng, 6, 4)
        y = rng.normal(size=6)
        np.testing.assert_allclose(a.matvec_t(y), to_dense(a).T @ y, rtol=1e-12)


class TestRestrictedNormalApply:
    def test_empty_selection(self, rng):
        a = random_sparse(rng, 4, 3)
        np.testing.assert_array_equal(
            a.restricted_normal_apply(np.array([], dtype=np.int64), np.ones(3)),
            np.zeros(3),
        )

    def test_all_rows_matches_composition_bitwise(self, rng):
        a = random_sparse(rng, 8, 5)
        h = rng.normal(size=5)
        full = a.restricted_normal_apply(np.arange(8), h)
        composed = a.matvec_t(a.matvec(h))
        np.testing.assert_array_equal(full, composed)

    def test_random_subset_against_dense(self, rng):
        a = random_sparse(rng, 8, 5)
        h = rng.normal(size=5)
        rows = np.array([1, 3, 4, 6])
        sub = to_dense(a)[rows]
        np.testing.assert_allclose(
            a.restricted_normal_apply(rows, h), sub.T @ (sub @ h),
            rtol=1e-12, atol=1e-14,
        )

    def test_row_out_of_range(self, rng):
        a = random_sparse(rng, 4, 3)
        with pytest.raises(ValueError):
            a.restricted_normal_apply(np.array([4]), np.ones(3))

    def test_linearity(self, rng):
        a = random_sparse(rng, 9, 6)
        rows = np.array([0, 2, 5, 8])
        h1, h2 = rng.normal(size=6), rng.normal(size=6)
        alpha, beta = 0.7, -1.9
        lhs = a.restricted_normal_apply(rows, alpha * h1 + beta * h2)
        rhs = alpha * a.restricted_normal_apply(rows, h1) + (
            beta * a.restricted_normal_apply(rows, h2)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestGatherRows:
    def test_reused_block_matches_submatrix_kernels_bitwise(self, rng):
        # one gather serves many products, each bit-for-bit equal to the
        # row-major kernels run on the extracted submatrix
        a = random_sparse(rng, 12, 7)
        rows = np.array([0, 3, 4, 9, 11])
        dense = to_dense(a)
        sub = SparseMatrix.from_rows(
            [(np.flatnonzero(dense[i]), dense[i][np.flatnonzero(dense[i])])
             for i in rows], 7)
        block = a.gather_rows(rows)
        assert block.m == rows.size
        for _ in range(5):
            h = rng.normal(size=7)
            got = block.normal_apply(h)
            np.testing.assert_array_equal(got, sub.matvec_t(sub.matvec(h)))
            np.testing.assert_array_equal(got, a.restricted_normal_apply(rows, h))

    @pytest.mark.parametrize("pick", ["sorted", "repeated"])
    def test_block_is_a_matrix_of_its_own(self, pick, rng, monkeypatch):
        # the block is a (rows.size, n) SparseMatrix whose own products
        # equal the oracles bit for bit; with repeated rows the gather
        # widens an int32 parent's indices once the block's nonzeros pass
        # the int32 limit, lowered here to the parent's count
        a = _empty_row_matrix(rng)
        assert a.row_ptr.dtype == np.int32
        rows = {"sorted": np.flatnonzero(rng.random(a.m) < 0.4),
                "repeated": rng.integers(0, a.m, size=2 * a.m)}[pick]
        monkeypatch.setattr(sparse, "_INT32_MAX", a.nnz)
        block = a.gather_rows(rows)
        assert isinstance(block, SparseMatrix)
        assert block.shape == (rows.size, a.n)
        wide = np.int64 if pick == "repeated" else np.int32
        assert block.row_ptr.dtype == block.col_idx.dtype == wide
        assert not block.values.flags.writeable
        for _ in range(3):
            x, h = rng.normal(size=a.n), rng.normal(size=a.n)
            y = rng.normal(size=rows.size)
            sparse_y = np.where(rng.random(rows.size) < 0.1, y, 0.0)
            _same_bits(block.matvec(x), matvec_oracle(a, x)[rows])
            _same_bits(block.matvec(x), matvec_oracle(block, x))
            _same_bits(block.matvec_t(y), matvec_t_oracle(block, y))
            _same_bits(block.matvec_t(sparse_y), matvec_t_oracle(block, sparse_y))
            _same_bits(block.normal_apply(h), normal_apply_oracle(a, rows, h))

    def test_empty_selection(self, rng):
        a = random_sparse(rng, 4, 3)
        block = a.gather_rows(np.array([], dtype=np.int64))
        np.testing.assert_array_equal(block.normal_apply(np.ones(3)), np.zeros(3))

    def test_validation(self, rng):
        a = random_sparse(rng, 4, 3)
        with pytest.raises(ValueError):
            a.gather_rows(np.array([-1]))
        # int64 conversion would read row 1
        with pytest.raises(ValueError, match="rows must be integers"):
            a.gather_rows(np.array([1.7]))
        with pytest.raises(ValueError):
            a.gather_rows(np.array([0, 1])).normal_apply(np.ones(4))
        with pytest.raises(ValueError):
            a.gather_rows(np.array([0, 1])).matvec_t(np.ones(3))


class TestScaleRows:
    def test_ones_is_identity(self, rng):
        a = random_sparse(rng, 4, 3)
        np.testing.assert_array_equal(
            to_dense(a.scale_rows(np.ones(4))), to_dense(a)
        )

    def test_negate_single_row(self):
        a = from_dense([[1.0, 2.0]])
        np.testing.assert_array_equal(
            to_dense(a.scale_rows(np.array([-1.0]))), [[-1.0, -2.0]]
        )

    def test_random_against_dense(self, rng):
        a = random_sparse(rng, 5, 4)
        c = rng.normal(size=5)
        np.testing.assert_allclose(
            to_dense(a.scale_rows(c)), c[:, None] * to_dense(a), rtol=1e-12
        )

    def test_preserves_pattern(self, rng):
        a = random_sparse(rng, 5, 4)
        b = a.scale_rows(rng.normal(size=5))
        np.testing.assert_array_equal(a.row_ptr, b.row_ptr)
        np.testing.assert_array_equal(a.col_idx, b.col_idx)

    def test_keeps_stored_zeros(self):
        a = SparseMatrix(np.array([0, 2, 3]), np.array([0, 1, 1]),
                         np.array([0.0, 2.0, 0.0]), (2, 2))
        b = a.scale_rows(np.array([3.0, -1.0]))
        assert b.nnz == 3
        np.testing.assert_array_equal(b.values, [0.0, 6.0, -0.0])

    def test_shares_structure_and_stores_read_only(self, rng):
        a = random_sparse(rng, 5, 4)
        b = a.scale_rows(rng.normal(size=5))
        assert np.shares_memory(b.row_ptr, a.row_ptr)
        assert np.shares_memory(b.col_idx, a.col_idx)
        assert b.shape == a.shape
        assert not b.values.flags.writeable

    def test_rejects_infinite_factor(self):
        a = from_dense([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="values must be finite"):
            a.scale_rows(np.array([1.0, np.inf]))

    def test_rejects_overflowing_factor(self):
        a = from_dense([[1e10, 1.0], [0.0, 2.0]])
        # the finite product 1e300 * 1e10 overflows to inf
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="values must be finite"):
                a.scale_rows(np.array([1e300, 1.0]))


def _empty_row_matrix(rng):
    a = np.where(rng.random((200, 40)) < 0.3, rng.normal(size=(200, 40)), 0.0)
    a[[0, 7, 8, 199]] = 0.0
    return from_dense(a)


def _zero_nnz_matrix(_rng):
    return SparseMatrix(np.zeros(6, dtype=np.int64), np.array([], dtype=np.int64),
                        np.array([]), (5, 4))


class TestAgainstBincountOracles:
    """The scipy kernels equal the row-major bincount oracles bit for bit."""

    @pytest.mark.parametrize("make", [_empty_row_matrix, _zero_nnz_matrix])
    def test_matvec_and_matvec_t(self, make, rng):
        a = make(rng)
        for _ in range(3):
            x, y = rng.normal(size=a.n), rng.normal(size=a.m)
            np.testing.assert_array_equal(a.matvec(x), matvec_oracle(a, x))
            np.testing.assert_array_equal(a.matvec_t(y), matvec_t_oracle(a, y))

    @pytest.mark.parametrize("make", [_empty_row_matrix, _zero_nnz_matrix])
    @pytest.mark.parametrize("pick", ["empty", "subset", "all"])
    def test_gathered_normal_apply(self, make, pick, rng):
        a = make(rng)
        rows = {"empty": np.array([], dtype=np.int64),
                "subset": np.flatnonzero(rng.random(a.m) < 0.5),
                "all": np.arange(a.m)}[pick]
        block = a.gather_rows(rows)
        for _ in range(3):
            h = rng.normal(size=a.n)
            np.testing.assert_array_equal(block.normal_apply(h),
                                          normal_apply_oracle(a, rows, h))

    @pytest.mark.parametrize("make", [_empty_row_matrix, _zero_nnz_matrix])
    @pytest.mark.parametrize("pick", ["empty", "subset", "all"])
    def test_gathered_matvec_t(self, make, pick, rng):
        # sorted rows scatter in row order: the full product with y
        # zeroed outside the rows, bit for bit
        a = make(rng)
        rows = {"empty": np.array([], dtype=np.int64),
                "subset": np.flatnonzero(rng.random(a.m) < 0.5),
                "all": np.arange(a.m)}[pick]
        block = a.gather_rows(rows)
        for _ in range(3):
            y = np.zeros(a.m)
            y[rows] = rng.normal(size=rows.size)
            got = block.matvec_t(y[rows])
            _same_bits(got, a.matvec_t(y))
            np.testing.assert_array_equal(got, matvec_t_oracle(a, y))


class TestSquaredRowNorms:
    """``squared_row_norms`` is the diagonal of ``A @ A.T``, the squared
    values' row sums in the order of the bincount oracle."""

    @pytest.mark.parametrize("make", [_empty_row_matrix, _zero_nnz_matrix])
    def test_against_the_oracles(self, make, rng):
        a = make(rng)
        got = a.squared_row_norms()
        _same_bits(got, squared_row_norms_oracle(a))
        dense = to_dense(a)
        np.testing.assert_allclose(got, (dense * dense).sum(axis=1),
                                   rtol=1e-14, atol=0.0)
        # an empty row gives 0
        empty = np.diff(a.row_ptr) == 0
        assert empty.any() and np.all(got[empty] == 0.0)

    def test_a_gathered_block_keeps_its_rows_norms(self, rng):
        a = _empty_row_matrix(rng)
        rows = np.r_[rng.permutation(a.m)[:50], 0, 0]
        _same_bits(a.gather_rows(rows).squared_row_norms(),
                   a.squared_row_norms()[rows])


def _same_bits(got, expect):
    np.testing.assert_array_equal(got, expect)
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def _scipy(a):
    """The same matrix as scipy's public ``csr_array``, with int64
    indices whatever the dtype ``a`` stores them in."""
    from scipy.sparse import csr_array

    s = csr_array((a.values, a.col_idx.astype(np.int64),
                   a.row_ptr.astype(np.int64)), shape=a.shape)
    assert s.indices.dtype == s.indptr.dtype == np.int64
    return s


class TestMatvecTSkipsZeroRows:
    """With at most m/4 nonzero entries in ``y`` only their rows are
    scattered; the result stays the full kernel's, bit for bit, zero
    signs included."""

    @pytest.mark.parametrize("make", [_empty_row_matrix, _zero_nnz_matrix])
    @pytest.mark.parametrize("count", ["none", "one", "m//8", "m//8+1", "m//4",
                                       "m//4+1", "m"])
    def test_equals_full_kernel_and_oracle(self, make, count, rng):
        a = make(rng)
        k = {"none": 0, "one": 1, "m//8": a.m // 8, "m//8+1": a.m // 8 + 1,
             "m//4": a.m // 4, "m//4+1": a.m // 4 + 1, "m": a.m}[count]
        for _ in range(5):
            y = np.zeros(a.m)
            rows = rng.choice(a.m, size=k, replace=False)
            y[rows] = rng.normal(size=k)
            y[rng.random(a.m) < 0.3 * (y == 0)] = -0.0
            _same_bits(a.matvec_t(y), _scipy(a).T @ y)
            # np.bincount of no entries gives int64 zeros
            _same_bits(a.matvec_t(y), matvec_t_oracle(a, y).astype(np.float64))

    def test_negative_zeros_only(self, rng):
        a = _empty_row_matrix(rng)
        y = np.full(a.m, -0.0)
        _same_bits(a.matvec_t(y), _scipy(a).T @ y)
        _same_bits(a.matvec_t(y), np.zeros(a.n))

    def test_products_that_cancel_to_zero(self):
        # a column whose kept products cancel exactly: +0.0 in both kernels
        a = from_dense([[1.0, 2.0]] + [[0.0, 0.0]] * 6
                                    + [[-1.0, 3.0]] + [[1.0, 1.0]] * 8)
        y = np.zeros(a.m)
        y[[0, 7]] = 1.0
        _same_bits(a.matvec_t(y), _scipy(a).T @ y)
        _same_bits(a.matvec_t(y), np.array([0.0, 5.0]))


def _strided(v):
    """``v`` as a non-contiguous view of a larger array."""
    big = np.full(3 * v.size, np.nan)
    big[::3] = v
    return big[::3]


class TestAgainstScipyPublicOperators:
    """Each product equals scipy's public ``csr_array`` operator on the
    same arrays bit for bit, for contiguous and strided inputs."""

    @pytest.mark.parametrize("make", [_empty_row_matrix, _zero_nnz_matrix])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _strided])
    def test_matvec(self, make, layout, rng):
        a = make(rng)
        s = _scipy(a)
        for _ in range(3):
            x = layout(rng.normal(size=a.n))
            assert x.flags.c_contiguous == (layout is np.ascontiguousarray)
            _same_bits(a.matvec(x), s @ x)

    @pytest.mark.parametrize("make", [_empty_row_matrix, _zero_nnz_matrix])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _strided])
    @pytest.mark.parametrize("k", [0, 1, 3, "m//4", "m"])
    def test_matvec_t_both_paths(self, make, layout, k, rng):
        # k <= m/4 nonzeros take the row-skipping path, k = m the full kernel
        a = make(rng)
        k = {"m//4": a.m // 4, "m": a.m}.get(k, k)
        s = _scipy(a)
        for _ in range(3):
            y = np.zeros(a.m)
            y[rng.choice(a.m, size=k, replace=False)] = rng.normal(size=k)
            y[rng.random(a.m) < 0.3 * (y == 0)] = -0.0
            y = layout(y)
            _same_bits(a.matvec_t(y), s.T @ y)

    @pytest.mark.parametrize("make", [_empty_row_matrix, _zero_nnz_matrix])
    @pytest.mark.parametrize("pick", ["empty", "sorted", "unsorted",
                                      "duplicates", "empty_rows", "all"])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, _strided])
    def test_gathered_normal_apply(self, make, pick, layout, rng):
        a = make(rng)
        rows = {"empty": np.array([], dtype=np.int64),
                "sorted": np.flatnonzero(rng.random(a.m) < 0.4),
                "unsorted": rng.permutation(a.m)[: a.m // 2 + 1],
                "duplicates": rng.integers(0, a.m, size=2 * a.m),
                "empty_rows": np.array([a.m - 1, 0, a.m - 1]),
                "all": np.arange(a.m)}[pick]
        block = a.gather_rows(rows)
        sub = _scipy(a)[rows]
        assert block.m == rows.size
        for _ in range(3):
            h = layout(rng.normal(size=a.n))
            _same_bits(block.normal_apply(h), sub.T @ (sub @ h))

    @pytest.mark.parametrize("make", [_empty_row_matrix, _zero_nnz_matrix])
    @pytest.mark.parametrize("pick", ["empty", "sorted", "unsorted",
                                      "duplicates", "empty_rows", "all"])
    def test_gathered_matvec_t(self, make, pick, rng):
        a = make(rng)
        rows = {"empty": np.array([], dtype=np.int64),
                "sorted": np.flatnonzero(rng.random(a.m) < 0.4),
                "unsorted": rng.permutation(a.m)[: a.m // 2 + 1],
                "duplicates": rng.integers(0, a.m, size=2 * a.m),
                "empty_rows": np.array([a.m - 1, 0, a.m - 1]),
                "all": np.arange(a.m)}[pick]
        block = a.gather_rows(rows)
        sub = _scipy(a)[rows]
        for _ in range(3):
            y = rng.normal(size=rows.size)
            _same_bits(block.matvec_t(y), sub.T @ y)

    def test_to_dense(self, rng):
        for a in (_empty_row_matrix(rng), _zero_nnz_matrix(rng)):
            _same_bits(to_dense(a), _scipy(a).toarray())


class TestKernelLoading:
    """The kernels come from scipy's extension file and are held by
    ``almsvm.sparse`` alone."""

    def test_loaded_by_path_outside_sys_modules(self):
        kernels = sparse._kernels
        assert kernels.__name__ == "_sparsetools"
        assert kernels.__file__.startswith(
            os.path.join(os.path.dirname(scipy.__file__), "sparse",
                         "_sparsetools"))
        assert all(m is not kernels for m in sys.modules.values())

    def test_no_extension_file_names_the_directory(self, monkeypatch):
        # the search that import almsvm runs, repeated without the file;
        # the module bound at import is left as it is
        find_spec = PathFinder.find_spec

        def no_extension_file(name, path=None, target=None):
            return None if name == "_sparsetools" else find_spec(name, path,
                                                                 target)
        monkeypatch.setattr(PathFinder, "find_spec", no_extension_file)
        kernels = sparse._kernels
        where = os.path.join(os.path.dirname(scipy.__file__), "sparse")
        with pytest.raises(ImportError, match="_sparsetools") as err:
            sparse._load_kernels()
        assert where in str(err.value)
        assert sparse._kernels is kernels


class TestIndexDtype:
    """Structure arrays are int32 while every count fits in it."""

    @pytest.mark.parametrize("which", range(3))
    def test_boundary(self, which):
        sizes = [5, 5, 5]
        sizes[which] = 2**31 - 1
        assert _index_dtype(*sizes) is np.int32
        sizes[which] = 2**31
        assert _index_dtype(*sizes) is np.int64

    def test_stored_and_gathered_as_int32(self, rng):
        for a in (_empty_row_matrix(rng), _zero_nnz_matrix(rng),
                  _empty_row_matrix(rng).scale_rows(rng.normal(size=200))):
            assert a.row_ptr.dtype == a.col_idx.dtype == np.int32
            # the rows come in as int64, which the gather casts
            block = a.gather_rows(np.arange(a.m, dtype=np.int64))
            assert block._ptr.dtype == block._idx.dtype == np.int32

    def test_out_of_int32_range_index_is_rejected_not_wrapped(self):
        # 2**32 wraps to 0 in int32; the check runs on the int64 input
        with pytest.raises(ValueError, match="out of range"):
            SparseMatrix(np.array([0, 1]), np.array([2**32]), np.array([1.0]),
                         (1, 3))


class TestFromDense:
    """``from_dense`` builds the matrix that per-row pairs did."""

    @staticmethod
    def _from_row_pairs(a):
        a = np.asarray(a, dtype=np.float64)
        rows = [(np.flatnonzero(row), row[np.flatnonzero(row)]) for row in a]
        return SparseMatrix.from_rows(rows, a.shape[1])

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 7), (200, 40),
                                       (0, 3), (3, 0), (0, 0)])
    def test_matches_per_row_pairs_bitwise(self, shape, rng):
        dense = np.where(rng.random(shape) < 0.4, rng.normal(size=shape), 0.0)
        if shape[0] > 2:
            dense[[0, shape[0] - 1]] = 0.0
        if dense.size:
            dense.flat[rng.integers(dense.size)] = -0.0
        for a in (dense, np.asfortranarray(dense), dense[:, ::-1][:, ::-1]):
            got, expect = from_dense(a), self._from_row_pairs(a)
            assert got.shape == expect.shape
            for name in ("row_ptr", "col_idx", "values"):
                _same_bits(getattr(got, name), getattr(expect, name))

    def test_rejects_non_finite_and_wrong_rank(self):
        with pytest.raises(ValueError, match="finite"):
            from_dense([[1.0, np.nan]])
        with pytest.raises(ValueError, match="2-D"):
            from_dense([1.0, 2.0])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_adjointness(seed):
    """<Ax, y> == <x, A.T y> for random instances."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
    a = random_sparse(rng, m, n)
    x, y = rng.normal(size=n), rng.normal(size=m)
    lhs = float(a.matvec(x) @ y)
    rhs = float(x @ a.matvec_t(y))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
