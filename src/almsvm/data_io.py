"""LIBSVM-format parsing, writing, label normalization, deterministic
splits and bias augmentation.

Feature ids are 1-based on disk (LIBSVM convention) and 0-based
everywhere inside this package; the conversion happens at the parse and
serialize boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParseError",
    "Dataset",
    "XorShift64Star",
    "parse_libsvm",
    "load_libsvm",
    "serialize_libsvm",
    "write_libsvm",
    "normalize_labels",
    "split",
    "augment_bias",
    "format_float",
]

_MASK64 = (1 << 64) - 1


class ParseError(ValueError):
    """Malformed input; the message names the offending 1-based line."""


@dataclass
class Dataset:
    """Labeled sparse samples.

    ``samples[i]`` is an ``(indices, values)`` pair with 0-based,
    strictly increasing indices below ``n_features``; ``labels`` has one
    real per sample. Instances are treated as immutable; derived
    datasets share the per-sample arrays.
    """

    samples: list[tuple[np.ndarray, np.ndarray]]
    labels: np.ndarray
    n_features: int

    @property
    def m(self) -> int:
        return len(self.samples)


def parse_libsvm(text, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text: ``label idx:val idx:val ...`` per line.

    Indices are 1-based and must be strictly increasing within a line;
    labels and values must be finite.
    ``#`` starts a comment running to end of line; blank lines are
    skipped. ``n_features`` may widen (never narrow) the inferred
    feature count.
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
    _check_finite(y, samples, linenos)
    n = max_idx
    if n_features is not None:
        if n_features < max_idx:
            raise ValueError(
                f"n_features={n_features} below max index {max_idx} in data"
            )
        n = n_features
    return Dataset(samples, y, n)


def _check_finite(labels, samples, linenos) -> None:
    """Name the first line with a NaN or infinite label or value. One
    vectorized pass after parsing, so the token loop pays nothing."""
    bad = ~np.isfinite(labels)
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


def load_libsvm(path, n_features: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as f:
        return parse_libsvm(f.read(), n_features=n_features)


def format_float(x: float) -> str:
    """The shortest decimal that reads back as the same float64."""
    return repr(float(x))


def serialize_libsvm(d: Dataset) -> str:
    lines = []
    for (idx, vals), label in zip(d.samples, d.labels):
        parts = [format_float(label)]
        parts.extend(f"{int(i) + 1}:{format_float(v)}" for i, v in zip(idx, vals))
        lines.append(" ".join(parts))
    return "".join(line + "\n" for line in lines)


def write_libsvm(d: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(serialize_libsvm(d))


def normalize_labels(d: Dataset):
    """Map the two label values to {-1, +1}, smaller value to -1.

    Returns ``(dataset, (lo, hi))`` where the pair records the original
    labels mapped to -1 and +1 respectively, for use when predictions
    are written back in the original label space.
    """
    uniq = np.unique(d.labels)
    if uniq.size > 2:
        raise ValueError("not a binary classification dataset")
    if uniq.size < 2:
        raise ValueError("expected exactly two distinct labels")
    lo, hi = float(uniq[0]), float(uniq[1])
    labels = np.where(d.labels == lo, -1.0, 1.0)
    return Dataset(d.samples, labels, d.n_features), (lo, hi)


class XorShift64Star:
    """xorshift64* PRNG; the fixed algorithm behind dataset splits.

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
        """Uniform-ish draw in [0, bound) by modulo reduction.

        The modulo bias is below 2**-40 for bound < 2**24, far under
        anything a dataset split can detect; determinism is the contract
        here, not statistical perfection.
        """
        return self.next_uint64() % bound


def _take(d: Dataset, ids) -> Dataset:
    samples = [d.samples[i] for i in ids]
    labels = d.labels[np.asarray(ids, dtype=np.intp)].copy()
    return Dataset(samples, labels, d.n_features)


def split(d: Dataset, train_fraction: float, seed: int):
    """Deterministic shuffle-and-cut split.

    A Fisher-Yates shuffle driven by :class:`XorShift64Star` permutes
    the sample indices; the first ``ceil(train_fraction * m)`` form the
    training set. Same inputs, same split, always.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if d.m < 2:
        raise ValueError("need at least 2 samples to split")
    rng = XorShift64Star(seed)
    perm = list(range(d.m))
    for i in range(d.m - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    n_train = math.ceil(train_fraction * d.m)
    return _take(d, perm[:n_train]), _take(d, perm[n_train:])


def augment_bias(d: Dataset) -> Dataset:
    """Append a constant feature 1.0 at index ``n_features`` to every
    sample. Applying this twice appends two constant features; whether
    that makes sense is the caller's business."""
    n = d.n_features
    samples = [
        (np.append(idx, np.int64(n)), np.append(vals, 1.0))
        for idx, vals in d.samples
    ]
    return Dataset(samples, d.labels, n + 1)
