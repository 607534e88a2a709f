"""The benchmark's workloads still read datasets the way they expect.

``perfbench/workloads.py`` cuts a generated ``Dataset`` by slicing its
``samples``, wraps the parts in new ``Dataset``s, and reads the sample
views with its own numpy checks and LIBSVM writer. A change to the data
model would otherwise surface only when the benchmark is run.
"""

from pathlib import Path

import numpy as np
import pytest

from almsvm import data_io, metrics, synthetic


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import workloads

    return workloads


def test_numpy_data_and_writer_read_cut_and_split_datasets(workloads, tmp_path):
    d = synthetic.svc_sparse_binary(300, 40, density=0.1, seed=2)
    cut = int(workloads.TRAIN_FRACTION * d.m)
    cut_part = data_io.Dataset(d.samples[:cut], d.labels[:cut], d.n_features)
    train, test = data_io.split(cut_part, workloads.TRAIN_FRACTION, seed=3)
    train, _ = data_io.normalize_labels(train)
    w = np.random.default_rng(4).normal(size=d.n_features)
    for part in (cut_part, train, test):
        for idx, vals in part.samples:
            assert idx.dtype == np.int32 and vals.dtype == np.float64
        check = workloads.NumpyData(part.samples, part.labels)
        assert check.cols.dtype == np.int32 and check.vals.dtype == np.float64
        assert check.m == part.m
        model = metrics.Model(w=w, task="svc")
        np.testing.assert_array_equal(check.scores(w), metrics.scores(model, part))

        path = tmp_path / "part.libsvm"
        workloads._write_libsvm(part, path)
        again = data_io.load_libsvm(path, n_features=part.n_features)
        np.testing.assert_array_equal(again.labels, part.labels)
        for got, want in zip(again.samples.csr(), part.samples.csr()):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
