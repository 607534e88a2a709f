"""Trained-model container, prediction and evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import Dataset, _finite
from .sparse import Samples, _as_array, _index_dtype, _matvec

__all__ = ["Model", "scores", "predict", "predict_label", "predict_labels",
           "accuracy", "mse"]


@dataclass
class Model:
    """Weights plus the bookkeeping needed to score raw samples.

    ``label_map = (lo, hi)`` records which original labels were mapped
    to -1 and +1 during training; ``bias_augmented`` says whether the
    last weight is a bias applied to an implicit constant feature.
    Construction enforces what a model file must hold, naming a fault by
    its header key: ``task`` is ``"svc"`` or ``"svr"``, ``bias_augmented``
    a bool, the weights a non-empty 1-D array, and they, ``c_used``,
    ``eps_used`` and the label pair (a tuple or list) finite reals, held
    as floats.
    """

    w: np.ndarray
    task: str
    bias_augmented: bool = False
    label_map: tuple[float, float] | None = None
    c_used: float = 0.0
    eps_used: float = 0.0

    def __post_init__(self):
        self.w = _as_array(self.w, "model weights", np.float64)
        if self.w.ndim != 1:
            raise ValueError("model weights must be a 1-D array, "
                             f"got shape {self.w.shape}")
        if self.w.size == 0:
            raise ValueError("model has no weights")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("model weights must be finite")
        if not isinstance(self.task, str) or self.task not in ("svc", "svr"):
            raise ValueError(f"unknown task {self.task!r}")
        if not isinstance(self.bias_augmented, (bool, np.bool_)):
            raise ValueError(f"bias must be a bool, got {self.bias_augmented!r}")
        self.c_used = _finite(self.c_used, "c")
        self.eps_used = _finite(self.eps_used, "eps")
        if self.label_map is not None:
            pair = self.label_map
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise ValueError("labels must be none or a pair")
            self.label_map = (_finite(pair[0], "labels"), _finite(pair[1], "labels"))


def _row_scores(model: Model, samples: Samples) -> np.ndarray:
    """``w . x`` for each sparse row by the solver's ``sparse._matvec``.

    An index past the model's dictionary (test files routinely carry
    indices the training file never saw) reads one extra weight of
    ``0.0``, so its value adds nothing if finite and makes the score
    non-finite if not (see :mod:`almsvm.sparse`). For a bias-augmented
    model the constant feature is appended implicitly.
    """
    row_ptr, cols, vals = samples.csr()
    n = model.w.size - 1 if model.bias_augmented else model.w.size
    # cast first, so no index wraps; clipping then copies the indices,
    # their one copy for back-to-back rows and their second for a part
    # that csr() gathered
    dt = np.promote_types(cols.dtype,
                          _index_dtype(len(samples), n + 1, vals.size))
    cols = np.minimum(cols.astype(dt, copy=False), n)
    s = _matvec(row_ptr.astype(dt, copy=False), cols, vals,
                np.append(model.w[:n], 0.0))
    if model.bias_augmented:
        s += model.w[-1]
    return s


def scores(model: Model, data: Dataset) -> np.ndarray:
    """Raw scores ``w . x`` of every sample of ``data``; the one scoring
    path behind :func:`predict`, :func:`accuracy` and :func:`mse`."""
    return _row_scores(model, data.samples)


def predict(model: Model, sample) -> float:
    """Raw score w . x for one sparse sample, a store's row: :func:`scores`
    on one row, so it agrees with it bit for bit."""
    return float(_row_scores(model, Samples.from_pairs([sample]))[0])


def _label_pair(model: Model) -> tuple[float, float]:
    return model.label_map if model.label_map is not None else (-1.0, 1.0)


def predict_label(model: Model, sample) -> float:
    """Classification label in the original label space; score 0 counts
    as positive."""
    lo, hi = _label_pair(model)
    return hi if predict(model, sample) >= 0.0 else lo


def predict_labels(model: Model, data: Dataset) -> np.ndarray:
    """:func:`predict_label` of every sample of ``data``."""
    lo, hi = _label_pair(model)
    return np.where(scores(model, data) >= 0.0, hi, lo)


def accuracy(model: Model, test: Dataset) -> float:
    """Percentage of correct label predictions on ``test``."""
    if test.m == 0:
        raise ValueError("empty test set")
    correct = int(np.count_nonzero(predict_labels(model, test) == test.labels))
    return 100.0 * correct / test.m


def mse(model: Model, test: Dataset) -> float:
    """Mean squared error of the raw scores on ``test``."""
    if test.m == 0:
        raise ValueError("empty test set")
    return float(np.mean((test.labels - scores(model, test)) ** 2))
