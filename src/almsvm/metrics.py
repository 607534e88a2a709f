"""Trained-model container, prediction and evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import Dataset, Samples

__all__ = ["Model", "scores", "predict", "predict_label", "predict_labels",
           "accuracy", "mse"]


@dataclass
class Model:
    """Weights plus the bookkeeping needed to score raw samples.

    ``label_map = (lo, hi)`` records which original labels were mapped
    to -1 and +1 during training; ``bias_augmented`` says whether the
    last weight is a bias applied to an implicit constant feature.
    Construction enforces what a model file must hold: ``task`` is
    ``"svc"`` or ``"svr"``, and the weights, ``c_used``, ``eps_used`` and
    the label pair are finite.
    """

    w: np.ndarray
    task: str
    bias_augmented: bool = False
    label_map: tuple[float, float] | None = None
    c_used: float = 0.0
    eps_used: float = 0.0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.size == 0:
            raise ValueError("model has no weights")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("model weights must be finite")
        if self.task not in ("svc", "svr"):
            raise ValueError(f"unknown task {self.task!r}")
        if not (math.isfinite(self.c_used) and math.isfinite(self.eps_used)):
            raise ValueError("c and eps must be finite")
        if self.label_map is not None:
            if len(self.label_map) != 2:
                raise ValueError("labels must be none or a pair")
            if not all(map(math.isfinite, self.label_map)):
                raise ValueError("labels must be finite")


def _row_scores(model: Model, samples: Samples) -> np.ndarray:
    """``w . x`` for each sparse row, gathered, multiplied and summed
    left to right per row by ``np.bincount`` over the flat CSR arrays.

    Features beyond the model's dictionary contribute zero (test files
    routinely carry indices the training file never saw): only when the
    rows hold such an index are the entries masked before the sum, which
    leaves the other entries in the same order, so both paths agree bit
    for bit. For a bias-augmented model the constant feature is appended
    implicitly.
    """
    m = len(samples)
    if m == 0:
        return np.zeros(0)
    row_ptr, cols, vals = samples.csr()
    rows = np.repeat(np.arange(m), np.diff(row_ptr))
    n = model.w.size - 1 if model.bias_augmented else model.w.size
    if int(cols.max(initial=0)) >= n:
        keep = cols < n
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    s = np.bincount(rows, weights=vals * model.w[cols], minlength=m)
    s = s.astype(np.float64, copy=False)  # int zeros when no entry is kept
    if model.bias_augmented:
        s += model.w[-1]
    return s


def scores(model: Model, data: Dataset) -> np.ndarray:
    """Raw scores ``w . x`` of every sample of ``data``; the one scoring
    kernel behind :func:`predict`, :func:`accuracy` and :func:`mse`."""
    return _row_scores(model, data.samples)


def predict(model: Model, sample) -> float:
    """Raw score w . x for one sparse sample: :func:`scores` on one row,
    so it agrees with it bit for bit."""
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
