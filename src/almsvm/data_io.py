"""LIBSVM-format parsing, writing, label normalization, deterministic
splits and bias augmentation.

Feature ids are 1-based on disk (LIBSVM convention) and 0-based
everywhere inside this package; the conversion happens at the parse and
serialize boundary only.
"""

from __future__ import annotations

import math
from array import array
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
# feature indices are stored as int64
_INDEX_MAX = (1 << 63) - 1


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

    One Python iteration per line: the line is split once, its feature
    tokens are checked as a group (each holds one colon between
    non-empty sides) and converted by ``int`` and ``float`` into two
    flat arrays; every sample is a pair of views into them. That indices
    are at least 1 and increase within each line, and that labels and
    values are finite, is checked once for the whole file with numpy.
    The first fault in file order is reported with its 1-based line:
    within a line the first bad token, and a non-finite label or value
    only when no line has any other fault.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    labels, ends, linenos = array("d"), array("q"), array("q")
    idx, vals = array("q"), array("d")
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        k = len(tokens) - 1
        try:
            # "::" between tokens leaves an empty piece, so a label and k
            # tokens that each hold one colon split into the label and k
            # ("", idx, val) triples. Any other line that splits into 3k+1
            # pieces has an empty piece where a number is read, and
            # int("") and float("") fail: so every token holds exactly one
            # colon between non-empty sides once the numbers are read.
            parts = "::".join(tokens).split(":")
            if len(parts) != 3 * k + 1:
                raise ValueError
            label = float(parts[0])
            idx.extend(map(int, parts[2::3]))
            vals.extend(map(float, parts[3::3]))
        except (ValueError, OverflowError):
            # rows parsed so far may hold an earlier fault
            done = ends[-1] if ends else 0
            _check_indices(np.frombuffer(idx, np.int64, done), ends, linenos)
            _raise_line_fault(lineno, tokens)
        labels.append(label)
        ends.append(len(idx))
        linenos.append(lineno)
    del lines  # freed before the per-sample views are made
    cols = np.frombuffer(idx, dtype=np.int64)
    y = np.frombuffer(labels, dtype=np.float64)
    values = np.frombuffer(vals, dtype=np.float64)
    _check_indices(cols, ends, linenos)
    _check_finite(y, values, ends, linenos)
    max_idx = int(cols.max()) if cols.size else 0
    cols -= 1
    starts = [0, *ends[:-1]]
    samples = [(cols[a:b], values[a:b]) for a, b in zip(starts, ends)]
    n = max_idx
    if n_features is not None:
        if n_features < max_idx:
            raise ValueError(
                f"n_features={n_features} below max index {max_idx} in data"
            )
        n = n_features
    return Dataset(samples, y, n)


def _raise_line_fault(lineno: int, tokens) -> None:
    """Raise for the first bad token of one line, checked one at a time
    in line order: the label, then each token's colon, its numbers, its
    index range and its index order."""
    try:
        float(tokens[0])
    except ValueError:
        raise ParseError(
            f"line {lineno}: label {tokens[0]!r} is not numeric"
        ) from None
    prev = 0
    for tok in tokens[1:]:
        if ":" not in tok:
            raise ParseError(f"line {lineno}: expected index:value, got {tok!r}")
        i_s, v_s = tok.split(":", 1)
        try:
            i = int(i_s)
            float(v_s)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed token {tok!r}") from None
        if i < 1:
            raise ParseError(f"line {lineno}: feature index {i} < 1")
        if i > _INDEX_MAX:
            raise ParseError(f"line {lineno}: feature index {i} too large")
        if i <= prev:
            raise ParseError(f"line {lineno}: index {i} not strictly increasing")
        prev = i
    raise AssertionError(f"line {lineno}: no fault found")


def _check_indices(cols: np.ndarray, ends, linenos) -> None:
    """Name the first 1-based index that is below 1 or not above its
    predecessor in its row; ``ends[r]`` is where row ``r`` ends in
    ``cols``."""
    if cols.size == 0:
        return
    bad = np.empty(cols.size, dtype=bool)
    np.less_equal(cols[1:], cols[:-1], out=bad[1:])
    ends = np.frombuffer(ends, dtype=np.int64)
    starts = np.concatenate(([0], ends[:-1]))
    first = starts[starts < ends]
    bad[first] = cols[first] < 1
    if bad.any():
        p = int(np.argmax(bad))
        i = int(cols[p])
        lineno = linenos[int(np.searchsorted(ends, p, side="right"))]
        if i < 1:
            raise ParseError(f"line {lineno}: feature index {i} < 1")
        raise ParseError(f"line {lineno}: index {i} not strictly increasing")


def _check_finite(labels: np.ndarray, values: np.ndarray, ends, linenos) -> None:
    """Name the first line with a NaN or infinite label or value."""
    bad = ~np.isfinite(labels)
    bad_vals = ~np.isfinite(values)
    if bad_vals.any():
        rows = np.searchsorted(np.frombuffer(ends, dtype=np.int64),
                               np.flatnonzero(bad_vals), side="right")
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
