"""Prediction and evaluation metrics."""

import numpy as np
import pytest

from almsvm.data_io import Dataset, parse_libsvm, split
from almsvm.metrics import (Model, accuracy, mse, predict, predict_label,
                            predict_labels, scores)
from almsvm.sparse import SparseMatrix

from oracles import matvec_oracle


def _sample(pairs):
    if not pairs:
        return (np.array([], dtype=np.int64), np.array([]))
    idx, vals = zip(*pairs)
    return (np.array(idx, dtype=np.int64), np.array(vals, dtype=np.float64))


class TestPredict:
    def test_plain_dot(self):
        m = Model(w=[1.0, -1.0], task="svc", label_map=(-1.0, 1.0))
        assert predict(m, _sample([(0, 2.0)])) == 2.0
        assert predict_label(m, _sample([(0, 2.0)])) == 1.0

    def test_zero_score_ties_positive(self):
        m = Model(w=[0.0, 0.0], task="svc", label_map=(-1.0, 1.0))
        assert predict_label(m, _sample([(0, 1.0)])) == 1.0

    def test_bias_only(self):
        m = Model(w=[0.0, 3.0], task="svr", bias_augmented=True)
        assert predict(m, _sample([])) == 3.0

    def test_out_of_dictionary_features_contribute_zero(self):
        m = Model(w=[2.0], task="svr")
        assert predict(m, _sample([(0, 1.0), (5, 100.0)])) == 2.0

    def test_bias_model_ignores_feature_at_bias_slot(self):
        m = Model(w=[2.0, 0.5], task="svr", bias_augmented=True)
        # index 1 is the implicit bias slot, so a data feature there is
        # out of dictionary
        assert predict(m, _sample([(0, 1.0), (1, 100.0)])) == 2.5

    def test_label_map_inverse(self):
        m = Model(w=[1.0], task="svc", label_map=(2.0, 7.0))
        assert predict_label(m, _sample([(0, 1.0)])) == 7.0
        assert predict_label(m, _sample([(0, -1.0)])) == 2.0

    def test_linear_in_sample(self, rng):
        m = Model(w=rng.normal(size=6), task="svr")
        idx = np.array([0, 2, 5], dtype=np.int64)
        v1, v2 = rng.normal(size=3), rng.normal(size=3)
        lhs = predict(m, (idx, 2.0 * v1 + 3.0 * v2))
        rhs = 2.0 * predict(m, (idx, v1)) + 3.0 * predict(m, (idx, v2))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _random_rows(rng, m, n_data):
    rows = []
    for _ in range(m):
        k = int(rng.integers(0, 8))
        idx = np.sort(rng.choice(n_data, size=k, replace=False)).astype(np.int64)
        rows.append((idx, rng.normal(size=k)))
    return rows


class TestScores:
    @pytest.mark.parametrize("bias", [False, True])
    def test_bitwise_equal_to_the_oracle_on_the_kept_columns(self, rng, bias):
        # the data reaches past the model's dictionary (and, with a bias,
        # onto the bias slot); those entries are dropped
        rows = _random_rows(rng, 60, 30)
        model = Model(w=rng.normal(size=20), task="svr", bias_augmented=bias)
        lim = 19 if bias else 20
        kept = [(i[i < lim], v[i < lim]) for i, v in rows]
        expected = matvec_oracle(SparseMatrix.from_rows(kept, lim), model.w[:lim])
        if bias:
            expected = expected + model.w[-1]
        got = scores(model, Dataset(rows, np.zeros(60), 30))
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == np.float64

    def test_predict_is_the_same_kernel_on_one_row(self, rng):
        rows = _random_rows(rng, 40, 12)
        data = Dataset(rows, np.zeros(40), 12)
        model = Model(w=rng.normal(size=12), task="svc", bias_augmented=True,
                      label_map=(3.0, 5.0))
        assert scores(model, data).tolist() == [predict(model, r) for r in rows]
        assert predict_labels(model, data).tolist() == [
            predict_label(model, r) for r in rows]

    def test_empty_data(self):
        model = Model(w=[1.0], task="svr")
        got = scores(model, Dataset([], np.zeros(0), 1))
        assert got.shape == (0,) and got.dtype == np.float64


def _masked_scores(model, data):
    """Scoring oracle: a bincount over the entries inside the model."""
    row_ptr, cols, vals = data.samples.csr()
    rows = np.repeat(np.arange(data.m), np.diff(row_ptr))
    n = model.w.size - 1 if model.bias_augmented else model.w.size
    keep = cols < n
    s = np.bincount(rows[keep], weights=vals[keep] * model.w[cols[keep]],
                    minlength=data.m).astype(np.float64)
    return s + model.w[-1] if model.bias_augmented else s


class TestUnmaskedScores:
    """Scoring has one path: every index past the model is clipped to a
    zero weight, which gives bit for bit the scores of masking those
    entries out, while every value is finite."""

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("past", [False, True])
    def test_bitwise_equal_to_the_masked_path(self, rng, bias, past):
        # 30 data features; the model covers all of them, or all but the
        # last (one index past it)
        rows = _random_rows(rng, 80, 30)
        rows.append((np.array([3, 29], dtype=np.int64), rng.normal(size=2)))
        n = 29 if past else 30
        model = Model(w=rng.normal(size=n + bias), task="svr",
                      bias_augmented=bias)
        data = Dataset(rows, np.zeros(len(rows)), 30)
        got = scores(model, data)
        assert got.dtype == np.float64
        assert got.tobytes() == _masked_scores(model, data).tobytes()

    @pytest.mark.parametrize("rows", [[], [_sample([])] * 3])
    def test_empty_sets(self, rows):
        model = Model(w=[1.5, -2.0], task="svr", bias_augmented=True)
        data = Dataset(rows, np.zeros(len(rows)), 1)
        got = scores(model, data)
        assert got.dtype == np.float64
        assert got.tobytes() == _masked_scores(model, data).tobytes()
        assert got.tolist() == [-2.0] * len(rows)

    @pytest.mark.parametrize("case", ["int64_past_int32", "all_past",
                                      "negative_zero", "permuted_split",
                                      "bias_slot"])
    def test_one_path_bitwise_equal_to_the_masked_path(self, rng, case):
        w = rng.normal(size=4)
        bias = False
        if case == "int64_past_int32":
            # 1-based 2**31 + 1 is 0-based 2**31: the parse keeps int64
            data = parse_libsvm(
                "1 1:0.5 3:-1.5 2147483649:7.0\n-1 2:2.0 4:1.0\n")
            assert data.samples.indices.dtype == np.int64
        elif case == "all_past":
            data = Dataset([_sample([(4, 1.0), (9, -2.0)]), _sample([(1, 3.0)])],
                           np.zeros(2), 10)
        elif case == "negative_zero":
            # every kept product is -0.0; the clipped ones are +-0 too
            w = np.array([-0.0, 0.0, 2.0, 3.0])
            data = Dataset([_sample([(0, 1.0), (1, -1.0), (7, 5.0)]),
                            _sample([(1, -4.0), (6, -1.0)])], np.zeros(2), 8)
        elif case == "permuted_split":
            whole = Dataset(_random_rows(rng, 60, 7), np.zeros(60), 7)
            _, data = split(whole, 0.5, seed=3)
            assert np.any(np.diff(data.samples.ids) != 1)
        else:
            # index 3 is the bias slot of a 3-feature bias model
            bias = True
            data = Dataset([_sample([(0, 1.0), (3, 100.0)]), _sample([(3, -1.0)]),
                            _sample([(2, 0.5), (5, 2.0)])], np.zeros(3), 6)
        model = Model(w=w, task="svr", bias_augmented=bias)
        assert scores(model, data).tobytes() == _masked_scores(model, data).tobytes()

    def test_non_finite_value_past_the_model_gives_non_finite_score(self):
        # v * 0.0 is nan for an infinite v: no entry is dropped unread
        model = Model(w=[2.0], task="svr")
        data = Dataset([_sample([(0, 1.0), (5, np.inf)]),
                        _sample([(0, np.inf)]), _sample([(0, 1.0)])],
                       np.zeros(3), 6)
        got = scores(model, data)
        assert np.isnan(got[0]) and got[1] == np.inf and got[2] == 2.0


class TestNegativeIndex:
    """A negative feature index is rejected, never read as ``w[-1]``."""

    def _rows(self):
        return [_sample([(-1, 1.0)]), _sample([(-1, 1.0), (0, 1.0)])]

    def test_scores(self):
        model = Model(w=[1.0, 2.0, 5.0], task="svr")
        with pytest.raises(ValueError, match="negative"):
            scores(model, Dataset(self._rows(), np.zeros(2), 3))

    @pytest.mark.parametrize("bias", [False, True])
    def test_predict(self, bias):
        model = Model(w=[1.0, 2.0, 5.0], task="svc", bias_augmented=bias)
        for row in self._rows():
            with pytest.raises(ValueError, match="negative"):
                predict(model, row)


def _toy_test_set(labels):
    samples = [_sample([(0, x)]) for x in (1.0, -1.0, 1.0)][: len(labels)]
    return Dataset(samples, np.array(labels, dtype=np.float64), 1)


class TestAccuracy:
    def test_all_correct(self):
        m = Model(w=[1.0], task="svc", label_map=(-1.0, 1.0))
        assert accuracy(m, _toy_test_set([1.0, -1.0, 1.0])) == 100.0

    def test_all_wrong(self):
        m = Model(w=[-1.0], task="svc", label_map=(-1.0, 1.0))
        assert accuracy(m, _toy_test_set([1.0, -1.0, 1.0])) == 0.0

    def test_one_error_in_three(self):
        m = Model(w=[1.0], task="svc", label_map=(-1.0, 1.0))
        assert accuracy(m, _toy_test_set([1.0, -1.0, -1.0])) == pytest.approx(
            200.0 / 3.0
        )

    def test_range(self, rng):
        m = Model(w=rng.normal(size=1), task="svc", label_map=(-1.0, 1.0))
        labels = rng.choice([-1.0, 1.0], size=3)
        assert 0.0 <= accuracy(m, _toy_test_set(labels)) <= 100.0


class TestMse:
    def test_perfect_predictions(self):
        m = Model(w=[2.0], task="svr")
        d = Dataset([_sample([(0, 1.0)]), _sample([(0, 2.0)])],
                    np.array([2.0, 4.0]), 1)
        assert mse(m, d) == 0.0

    def test_zero_model_gives_mean_square_label(self):
        m = Model(w=[0.0], task="svr")
        d = Dataset([_sample([(0, 1.0)])] * 3, np.array([1.0, 2.0, 3.0]), 1)
        assert mse(m, d) == pytest.approx(np.mean([1.0, 4.0, 9.0]))

    def test_single_sample(self):
        m = Model(w=[1.0], task="svr")
        d = Dataset([_sample([(0, 1.0)])], np.array([2.0]), 1)
        assert mse(m, d) == 1.0

    def test_nonnegative(self, rng):
        m = Model(w=rng.normal(size=1), task="svr")
        d = Dataset([_sample([(0, float(v))]) for v in rng.normal(size=5)],
                    rng.normal(size=5), 1)
        assert mse(m, d) >= 0.0

    def test_matches_the_per_sample_sum(self, rng):
        m = Model(w=rng.normal(size=12), task="svr")
        d = Dataset(_random_rows(rng, 50, 15), rng.normal(size=50), 15)
        loop = sum((y - predict(m, s)) ** 2 for s, y in zip(d.samples, d.labels))
        assert mse(m, d) == pytest.approx(loop / d.m, rel=1e-12)


class TestModelValidation:
    def test_rejects_empty_weights(self):
        with pytest.raises(ValueError):
            Model(w=[], task="svc")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Model(w=[np.nan], task="svc")
