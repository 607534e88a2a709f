"""LIBSVM-format parsing, writing, label normalization, deterministic
splits and bias augmentation.

Feature ids are 1-based on disk (LIBSVM convention) and 0-based
everywhere inside this package; the conversion happens at the parse and
serialize boundary only.
"""

from __future__ import annotations

import math
import warnings
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

# The bytes of the fast parse path's language, and their classes.
_FAST_BYTES = b"0123456789.+-eE: \n"
_DIGIT, _OTHER_NUMBER, _COLON, _SPACE, _NEWLINE = 1, 2, 3, 4, 5
_BYTE_CLASS = bytes(
    _DIGIT if b in b"0123456789" else _OTHER_NUMBER if b in b".+-eE"
    else _COLON if b == ord(":") else _SPACE if b == ord(" ")
    else _NEWLINE if b == ord("\n") else 0
    for b in range(256)
)
_EDGE = bytes([_NEWLINE])
# bytes per block of the fast path, extended to the next line end; the
# per-byte temporaries of one block take about ten times this
_FAST_BLOCK = 1 << 16
# a 15-digit index is below 2**53, so int64 reads it exactly
_FAST_INDEX_DIGITS = 15


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
    feature count. ``text`` is a ``str`` or UTF-8 ``bytes``.

    ASCII text is first read by a vectorized fast path, block by block
    (:func:`_parse_blocks`). It accepts only a plain subset of the
    format and returns ``None`` on anything else; the whole text then
    goes to the per-line parser (:func:`_parse_lines`), which accepts
    the full format. Both end in the same index and finiteness checks.
    The first fault in file order is reported with its 1-based line:
    within a line the first bad token, and a non-finite label or value
    only when no line has any other fault. Bytes that are not UTF-8 are
    a fault on the line that holds the first of them.
    """
    if isinstance(text, str):
        parsed = _parse_blocks(text.encode("ascii")) if text.isascii() else None
    else:
        parsed = _parse_blocks(text)
        if parsed is None:
            text = _decode(text)
    if parsed is None:
        parsed = _parse_lines(text)
    cols, y, values, ends, linenos = parsed
    _check_indices(cols, ends, linenos)
    _check_finite(y, values, ends, linenos)
    max_idx = int(cols.max()) if cols.size else 0
    cols -= 1
    ends = ends.tolist()
    samples = [(cols[a:b], values[a:b]) for a, b in zip([0, *ends[:-1]], ends)]
    n = max_idx
    if n_features is not None:
        if n_features < max_idx:
            raise ValueError(
                f"n_features={n_features} below max index {max_idx} in data"
            )
        n = n_features
    return Dataset(samples, y, n)


def _decode(buf: bytes) -> str:
    """``buf`` as text; a byte that is not UTF-8 is a fault on its line."""
    try:
        return buf.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the first bad byte is valid UTF-8; a character
        # appended to it lands on the bad byte's line
        lineno = len((buf[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            f"line {lineno}: invalid UTF-8 byte 0x{buf[exc.start]:02x}"
        ) from None


def _parse_lines(text: str):
    """The per-line parser: the flat 1-based indices, labels and values,
    each row's end in the flat arrays and each row's 1-based line.

    One Python iteration per line: the line is split once, its feature
    tokens are checked as a group (each holds one colon between
    non-empty sides) and converted by ``int`` and ``float`` into two
    flat arrays. A line with a bad token raises at once, after the index
    checks of the rows before it.
    """
    labels, ends, linenos = array("d"), array("q"), array("q")
    idx, vals = array("q"), array("d")
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    return (np.frombuffer(idx, dtype=np.int64),
            np.frombuffer(labels, dtype=np.float64),
            np.frombuffer(vals, dtype=np.float64), ends, linenos)


def _parse_blocks(buf: bytes):
    """The fast path: what :func:`_parse_lines` returns, or ``None`` when
    ``buf`` is outside the fast language.

    The fast language is LIBSVM text made of the bytes ``0-9 . + - e E
    : space newline`` only, in which every line is ``label (idx:val)*``
    between optional spaces and every index is at most 15 digits. On it
    the per-line parser reads every token without a fault, so the two
    paths differ only in speed. ``buf`` is cut into blocks of about
    ``_FAST_BLOCK`` bytes of whole lines, which bounds the per-byte
    temporaries; ``cols`` and ``values`` are allocated once, one entry
    per colon.
    """
    if buf.translate(None, _FAST_BYTES):
        return None
    nnz = buf.count(b":")
    cols = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz, dtype=np.float64)
    labels = [np.empty(0, dtype=np.float64)]
    ends = [np.empty(0, dtype=np.int64)]
    linenos = [np.empty(0, dtype=np.int64)]
    done = lines = start = 0
    while start < len(buf):
        stop = buf.find(b"\n", start + _FAST_BLOCK - 1)
        stop = len(buf) if stop < 0 else stop + 1
        block = buf[start:stop]
        parsed = _parse_block(block)
        if parsed is None:
            return None
        y, idx, vals, row_ends, row_lines = parsed
        cols[done:done + idx.size] = idx
        values[done:done + idx.size] = vals
        labels.append(y)
        ends.append(row_ends + done)
        linenos.append(row_lines + lines)
        done += idx.size
        lines += block.count(b"\n")
        start = stop
    return (cols, np.concatenate(labels), values, np.concatenate(ends),
            np.concatenate(linenos))


def _parse_block(block: bytes):
    """Read one block of whole lines of the fast language: labels, 1-based
    indices, values, each row's end and each row's 1-based line within
    the block; ``None`` when the block is outside the language."""
    codes = block.translate(_BYTE_CLASS)
    # a newline on either side: cls[p + 1] is the class of block[p]
    cls = np.frombuffer(_EDGE + codes + _EDGE, dtype=np.uint8)
    number = cls <= _OTHER_NUMBER
    # a field is a run of number bytes, block[starts[j]:stops[j]]
    edges = np.flatnonzero(number[1:] != number[:-1])
    starts, stops = edges[0::2], edges[1::2]
    before = cls[starts] == _COLON
    after = cls[stops + 1] == _COLON
    # with as many colons as fields before and after colons, every colon
    # joins two fields
    n_colons = block.count(b":")
    if int(before.sum()) != n_colons or int(after.sum()) != n_colons:
        return None
    # line i (1-based) of the block holds fields bounds[i-1]:bounds[i]
    bounds = np.searchsorted(starts, np.flatnonzero(cls == _NEWLINE) - 1)
    rows = np.flatnonzero(bounds[1:] > bounds[:-1])
    first = np.zeros(starts.size, dtype=bool)
    first[bounds[rows]] = True
    # a line is label idx:val idx:val ...: its first field touches no
    # colon, and every other field is either an index or a value
    if np.any(np.where(first, before | after, before == after)):
        return None
    istart, istop = starts[after], stops[after]
    width = istop - istart
    digits = int(width.max(initial=0))
    if digits > _FAST_INDEX_DIGITS:
        return None
    raw = np.frombuffer(block, dtype=np.uint8)
    # the block with its index fields and colons blanked
    blanked = raw.copy()
    blanked[istop] = ord(" ")
    idx = np.zeros(istart.size, dtype=np.int64)
    for k in range(digits):
        live = width > k
        pos = istart[live] + k
        if np.any(cls[pos + 1] != _DIGIT):
            return None
        idx[live] = idx[live] * 10 + (raw[pos] - ord("0"))
        blanked[pos] = ord(" ")
    # labels and values, in field order
    n_numbers = starts.size - istart.size
    nums = np.empty(0)
    if n_numbers:
        # numpy 2.4 raises on text that is not a number; older numpy
        # warns and returns what it read
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            try:
                nums = np.fromstring(blanked.tobytes(), sep=" ")
            except (ValueError, DeprecationWarning):
                return None
        if nums.size != n_numbers:
            return None
    is_label = first[~after]
    row_ends = np.cumsum(after)[bounds[rows + 1] - 1]
    return nums[is_label], idx, nums[~is_label], row_ends, rows + 1


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
    """Parse a LIBSVM file; a :class:`ParseError` names the file."""
    try:
        with open(path, "rb") as f:
            # not bound to a name here: a fallback parse frees the bytes
            # once they are decoded
            return parse_libsvm(f.read(), n_features=n_features)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


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
