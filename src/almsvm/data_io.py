"""Labeled datasets over the CSR sample store of :mod:`almsvm.sparse`,
LIBSVM-format parsing and writing, label normalization, deterministic
splits and bias augmentation.

Feature ids are 1-based on disk (LIBSVM convention) and 0-based
everywhere inside this package; the conversion happens at the parse and
serialize boundary only.
"""

from __future__ import annotations

import math
import numbers
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .sparse import Samples, _as_array, _first_bad_index, _index_dtype

__all__ = [
    "ParseError",
    "Dataset",
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
# the largest 1-based feature index read: its 0-based index fits in
# int64, the widest index dtype (see _index_dtype)
_INDEX_MAX = (1 << 63) - 1

# The classes of the fast parse path's bytes, 0 for one outside its
# alphabet; a carriage return is read as a space, only before a newline.
# A vertical tab and a form feed stay outside: str.splitlines ends a
# line at each, which a space does not.
_NUMBER, _COLON, _SPACE, _NEWLINE = 1, 2, 3, 4
_BYTE_CLASS = bytes(
    _NUMBER if b in b"0123456789.+-eE"
    else _COLON if b == ord(":") else _SPACE if b in b" \t\r"
    else _NEWLINE if b == ord("\n") else 0
    for b in range(256)
)
# bytes per block of the fast path, extended to the next line end. The
# temporaries of one block take about 7.1 bytes per byte of it: the
# tracemalloc peak of the parse memory tests' 1.1 MB text grows by
# 0.93 MB from 128 to 256 KB blocks. The largest power of two whose
# peak stays within those tests' bound is 128 KB (3.71 MB, bound 4.56;
# int32 indices shrank the bound, and 256 KB now peaks at 4.64 MB). The
# cli_roundtrip files parse as fast with 128 KB blocks as with 256 KB.
_FAST_BLOCK = 1 << 17
# a 15-digit integer is below 2**53, so int64 and float64 hold it exactly
_FAST_DIGITS = 15
# 10**k for k <= _FAST_DIGITS, each exact in float64
_POW10 = np.array([float(10**k) for k in range(_FAST_DIGITS + 1)])


class ParseError(ValueError):
    """Malformed input; the message names the offending 1-based line."""


@dataclass
class Dataset:
    """Labeled sparse samples.

    ``samples`` is a :class:`Samples` store, which keeps the row rule;
    any other sequence of ``(indices, values)`` pairs is concatenated
    into one when the dataset is built. ``labels`` is a 1-D float64
    array, one finite real per sample. ``n_features`` is an integer above
    the store's :attr:`~almsvm.sparse.Samples.max_index` (for a part,
    that of its store), so it is 0 only for a store whose rows hold no
    index.
    Instances are treated as immutable; derived datasets share the store.
    """

    samples: Samples
    labels: np.ndarray
    n_features: int

    def __post_init__(self):
        if not isinstance(self.samples, Samples):
            self.samples = Samples.from_pairs(self.samples)
        self.labels = _as_array(self.labels, "labels", np.float64)
        if self.labels.ndim != 1:
            raise ValueError("labels must be one real per sample, "
                             f"got shape {self.labels.shape}")
        if not (finite := np.isfinite(self.labels)).all():
            r = int(np.argmin(finite))
            raise ValueError(f"row {r}: label {self.labels[r]} is not finite")
        if len(self.labels) != len(self.samples):
            raise ValueError(f"{len(self.labels)} labels for "
                             f"{len(self.samples)} samples")
        n = self.n_features
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or n < 0):
            raise ValueError(f"n_features must be a nonnegative integer, got {n!r}")
        if n <= self.samples.max_index:
            raise ValueError(f"n_features={n} must exceed the largest "
                             f"feature index {self.samples.max_index}")

    @property
    def m(self) -> int:
        return len(self.samples)


def parse_libsvm(text, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text: ``label idx:val idx:val ...`` per line.

    Indices are 1-based and must be strictly increasing within a line;
    labels and values must be finite.
    ``#`` starts a comment running to end of line; blank lines are
    skipped. ``n_features`` may widen (never narrow) the inferred
    feature count. ``text`` is a ``str`` or UTF-8 ``bytes``; a ``str``
    is encoded once, and a lone surrogate in it is a fault.

    The text is read block by block (:func:`_parse_blocks`): by a
    vectorized fast path when the block is in the plain subset of the
    format that path reads, and otherwise by the per-line parser
    (:func:`_parse_lines`). Both end in the same index and finiteness
    checks.
    The first fault in file order is reported with its 1-based line:
    within a line the first bad token, and a non-finite label or value
    only when no line has any other fault. Bytes that are not UTF-8 are
    a fault on the line that holds the first of them, reported after
    the faults of the lines before it. The parsed index and value
    arrays become the dataset's :class:`Samples` store as they are: the
    indices 0-based, int32 unless one of them does not fit in it.
    """
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    cols, y, values, ends, linenos, max_idx = _parse_blocks(text)
    _check_finite(y, values, ends, linenos)
    row_ptr = np.zeros(len(y) + 1, dtype=np.int64)
    row_ptr[1:] = ends
    n = max_idx
    if n_features is not None:
        if n_features < max_idx:
            raise ParseError(
                f"n_features={n_features} below max index {max_idx} in data"
            )
        n = n_features
    return Dataset(Samples(row_ptr, cols, values), y, n)


def _decode(buf: bytes, first_line: int = 1) -> str:
    """``buf`` as text, its first line being line ``first_line``; a byte
    that is not UTF-8 is a fault on its line."""
    try:
        return buf.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = first_line - 1 + len(_lines_to(buf, exc.start))
        raise ParseError(
            f"line {lineno}: invalid UTF-8 byte 0x{buf[exc.start]:02x}"
        ) from None


def _lines_to(buf: bytes, pos: int) -> list:
    """The lines before byte ``pos``'s line, with their ends, then that
    line up to ``pos`` and an ``x``, which keeps it when ``pos`` starts
    it; ``buf[:pos]`` must be UTF-8."""
    return (buf[:pos].decode("utf-8") + "x").splitlines(keepends=True)


def _parse_lines(text: str, first_line: int = 1):
    """The per-line parser: the flat 1-based indices, labels and values,
    each row's end in the flat arrays, each row's 1-based line and the
    number of lines, the first line of ``text`` being line
    ``first_line``.

    One Python iteration per line: the line is split once, its feature
    tokens are checked as a group (each holds one colon between
    non-empty sides) and converted by ``int`` and ``float`` into two
    flat arrays. A line with a bad token raises at once, after the index
    checks of the rows before it.
    """
    labels, ends, linenos = array("d"), array("q"), array("q")
    idx, vals = array("q"), array("d")
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=first_line):
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
            _check_indices(np.frombuffer(idx, np.int64), ends, linenos)
            _raise_line_fault(lineno, tokens)
        labels.append(label)
        ends.append(len(idx))
        linenos.append(lineno)
    return (np.frombuffer(idx, dtype=np.int64),
            np.frombuffer(labels, dtype=np.float64),
            np.frombuffer(vals, dtype=np.float64), ends, linenos, len(lines))


def _parse_blocks(buf: bytes):
    """The 0-based indices, labels, values, row ends and row lines of the
    UTF-8 text ``buf``, every row index-checked, and its largest 1-based
    index (0 when it has none). ``buf`` is cut
    into blocks of about ``_FAST_BLOCK`` bytes that end just after a
    newline, which bounds the per-byte temporaries and splits no CRLF
    pair and no UTF-8 sequence; ``cols`` and ``values`` are allocated
    once, one entry per colon. A block outside the fast language of
    :func:`_parse_block` is decoded and read alone by
    :func:`_parse_lines`. Each block's rows are index-checked before the
    next block is read, so the first fault in file order wins; a bad
    UTF-8 byte comes after the faults of the lines before its own.

    ``cols`` holds 0-based indices in :func:`_index_dtype`: it is int32
    and is widened to int64 once, by the first block whose largest index
    does not fit. A block's 1-based indices are read into ``cols`` in
    place when they fit its dtype by their number of digits, and into an
    int64 array of the block's own otherwise.
    """
    nnz = buf.count(b":")
    cols = np.empty(nnz, dtype=np.int32)
    values = np.empty(nnz, dtype=np.float64)
    labels = [np.empty(0, dtype=np.float64)]
    ends = [np.empty(0, dtype=np.int64)]
    linenos = [np.empty(0, dtype=np.int64)]
    done = lines = start = max_idx = 0
    while start < len(buf):
        stop = buf.find(b"\n", start + _FAST_BLOCK - 1)
        stop = len(buf) if stop < 0 else stop + 1
        parsed = _parse_block(buf, start, stop, lines + 1, cols[done:],
                              values[done:])
        if parsed is None:
            block = buf[start:stop]
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                # the whole lines before the bad byte's line come first
                idx, _, _, row_ends, row_lines, _ = _parse_lines(
                    "".join(_lines_to(block, exc.start)[:-1]), lines + 1)
                _check_indices(idx, row_ends, row_lines)
                _decode(block, lines + 1)  # raises for the bad byte
            idx, y, vals, row_ends, row_lines, block_lines = _parse_lines(
                text, lines + 1)
            values[done:done + idx.size] = vals
            parsed = (idx, y, np.frombuffer(row_ends, dtype=np.int64),
                      np.frombuffer(row_lines, dtype=np.int64), block_lines)
        idx, y, row_ends, row_lines, block_lines = parsed
        _check_indices(idx, row_ends, row_lines)
        end = done + idx.size
        if idx.size:
            max_idx = max(max_idx, int(idx.max()))
            cols = cols.astype(
                np.promote_types(cols.dtype, _index_dtype(max_idx - 1)),
                copy=False)
        # in place when the block's indices were read into cols
        np.subtract(idx, 1, out=cols[done:end])
        labels.append(y)
        ends.append(row_ends + done)
        linenos.append(row_lines)
        done, lines = end, lines + block_lines
        start = stop
    # a colon in a comment has an entry in neither array
    return (cols[:done], np.concatenate(labels), values[:done],
            np.concatenate(ends), np.concatenate(linenos), max_idx)


def _parse_block(buf: bytes, start: int, stop: int, first_line: int,
                 cols, values):
    """Read the whole lines ``buf[start:stop]`` of the fast language, the
    first of them line ``first_line``: the values go to the front of
    ``values``, one entry per colon, and the 1-based indices, the labels,
    each row's end, each row's 1-based line and the number of lines are
    returned; ``None`` when the lines are outside the language. The
    indices are the front of ``cols`` when every one of them has few
    enough digits to fit its dtype, and an int64 array otherwise. The
    bytes are read where they lie in ``buf``.

    The fast language is LIBSVM text made of the bytes ``0-9 . + - e E
    : space tab newline`` only, in which every line is ``label
    (idx:val)*`` between optional spaces and tabs, mixed freely, and
    every index is at most 15 digits; a
    carriage return right before a newline counts as a space, so CRLF
    line ends belong to it, and any other one, which ends a line for
    ``str.splitlines``, does not. On it the per-line parser reads every
    token without a fault, so the two paths differ only in speed.
    """
    if buf.find(b"\r", start, stop) >= 0 and (
            buf.count(b"\r", start, stop) != buf.count(b"\r\n", start, stop)):
        return None
    if buf[stop - 1] != ord("\n"):
        # the last line of a text without a final newline: read a copy
        # that has one, so that every field ends inside the block
        buf, start, stop = buf[start:stop] + b"\n", 0, stop - start + 1
    fields = _fields(buf, start, stop)
    if fields is None:
        return None
    (lstart, lstop), (istart, istop), vstop, row_ends, rows, n_lines = fields
    # 9 digits stay below 2**31
    if cols.dtype == np.int32 and int((istop - istart).max(initial=0)) > 9:
        idx = np.empty(istart.size, dtype=np.int64)
    else:
        idx = cols[:istart.size]
    vals = values[:istart.size]
    raw = np.frombuffer(buf, dtype=np.uint8, count=stop - start, offset=start)
    # indices: digits only, at most _FAST_DIGITS of them
    if _read_decimals(raw, istart, istop, idx, plain=True) is None:
        return None
    # labels and values; a value starts right after its index's colon.
    # The digit reader is tried when the block has no exponent;
    # np.fromstring reads any block in which it fails.
    y = np.empty(lstart.size)
    if not (buf.find(b"e", start, stop) < 0 and buf.find(b"E", start, stop) < 0
            and _read_numbers(raw, lstart, lstop, y)
            and _read_numbers(raw, istop + 1, vstop, vals)):
        nums = _read_floats(raw, istart, istop, y.size + idx.size)
        if nums is None:
            return None
        # row r's label follows r labels and as many values as there are
        # indices before row r
        at = np.arange(y.size)
        at[1:] += row_ends[:-1]
        y[:] = nums[at]
        vals[:] = np.delete(nums, at)
    return idx, y, row_ends, rows + first_line, n_lines


def _fields(buf: bytes, start: int, stop: int):
    """The fields of the lines ``buf[start:stop]``, which end in a
    newline, by their role: the bounds of the labels and of the indices
    and the ends of the values, as positions in the block; the indices
    up to each row's end, each row's 0-based line in the block and the
    number of lines. ``None`` when a byte is outside the fast alphabet
    or a line is not ``label idx:val ...``.

    A field is a run of number bytes. When every colon sits between two
    number bytes, a field followed by a colon is an index and the field
    right after that colon its value; a line is then ``label idx:val
    ...`` exactly when its first field is no index and after it index
    and non-index fields alternate. Each byte mask is freed once used,
    which bounds the block's temporaries.
    """
    cls = np.frombuffer(buf[start:stop].translate(_BYTE_CLASS), dtype=np.uint8)
    if not cls.min():
        return None
    # number[p + 1]: byte p is a number byte
    number = np.empty(cls.size + 1, dtype=bool)
    number[0] = False
    np.equal(cls, _NUMBER, out=number[1:])
    colon = cls == _COLON
    n_colons = int(np.count_nonzero(colon))
    # the last byte is a newline, so colon[:-1] holds every colon
    if (int(np.count_nonzero(colon & number[:-1])) != n_colons
            or int(np.count_nonzero(colon[:-1] & number[2:])) != n_colons):
        return None
    del colon
    newlines = np.flatnonzero(cls == _NEWLINE)
    # field j is block[starts[j]:stops[j]]
    edges = np.flatnonzero(number[1:] != number[:-1])
    del number
    starts, stops = edges[0::2], edges[1::2]
    index = cls[stops] == _COLON
    del cls
    # line i (0-based) of the block holds the fields bounds[i-1]:bounds[i]
    bounds = np.searchsorted(starts, newlines)
    opens = np.concatenate(([0], bounds[:-1]))
    rows = np.flatnonzero(bounds > opens)
    firsts = opens[rows]
    # no row ends in an index (its colon would end the line), so index
    # and non-index fields alternate within rows exactly when they
    # alternate at all but the rows' first fields
    if (index[firsts].any() or int(np.count_nonzero(index[1:] != index[:-1]))
            != starts.size - rows.size):
        return None
    # row r, with r + 1 labels up to its end, ends after
    # (its end field - r - 1) / 2 indices
    row_ends = (bounds[rows] - np.arange(1, rows.size + 1)) // 2
    at = np.flatnonzero(index)
    istart, istop = starts[at], stops[at]
    at += 1
    return ((starts[firsts], stops[firsts]), (istart, istop), stops[at],
            row_ends, rows, newlines.size)


def _read_decimals(raw, starts, stops, mantissa, plain=False):
    """Read the fields ``raw[starts[j]:stops[j]]`` as decimals
    ``[+-]?digits[.digits]``, ``[+-]?digits.`` or ``[+-]?.digits`` of 1
    to ``_FAST_DIGITS`` digits, or as plain digits when ``plain``: each
    field's digits as one integer into ``mantissa`` (int64, or float64,
    which holds them exactly too), and return each field's number of
    digits after the dot and whether it starts with ``-``; ``None`` when
    a field has another form. ``raw[stops[j]]`` must be neither a digit
    nor a dot.

    The reader walks one byte column at a time over all fields; past its
    end a field reads ``raw[stops[j]]``, which changes nothing. At most
    15 digits keep the mantissa below 2**53, so ``mantissa / 10**scale``
    divides two exact doubles once: the correctly rounded value of the
    decimal, which is what ``strtod`` returns.
    """
    width = stops - starts
    columns = int(width.max(initial=0))
    if columns > _FAST_DIGITS + 2:
        return None
    width = width.astype(np.uint8)
    lead = raw[starts]
    negative = lead == ord("-")
    signed = negative | (lead == ord("+"))
    mantissa[:] = 0
    digits = np.zeros(starts.size, dtype=np.uint8)
    dots = np.zeros(starts.size, dtype=np.uint8)
    scale = np.zeros(starts.size, dtype=np.uint8)
    pos = starts.copy()
    for _ in range(columns):
        byte = raw[pos]
        digit = byte - np.uint8(ord("0"))
        is_digit = (digit < 10).view(np.uint8)
        # mantissa * 10 + digit on a digit, mantissa elsewhere
        digit *= is_digit
        mantissa *= 1 + 9 * is_digit
        mantissa += digit
        digits += is_digit
        scale += is_digit & dots
        dots += byte == ord(".")
        pos += 1
        np.minimum(pos, stops, out=pos)
    if plain:
        # every byte is a digit
        ok = np.array_equal(digits, width)
    else:
        # every byte is a digit, at most one is a dot and only the first
        # may be a sign
        ok = (np.array_equal(digits + dots + signed, width)
              and not np.any(dots > 1))
    if not ok or np.any(digits < 1) or np.any(digits > _FAST_DIGITS):
        return None
    return scale, negative


def _read_numbers(raw, starts, stops, out) -> bool:
    """Read the fields ``raw[starts[j]:stops[j]]`` into the float64
    ``out`` by :func:`_read_decimals`; ``False`` when one has another
    form."""
    read = _read_decimals(raw, starts, stops, out)
    if read is None:
        return False
    scale, negative = read
    out /= _POW10[scale]
    np.negative(out, out=out, where=negative)
    return True


def _read_floats(raw, istart, istop, count):
    """Read the labels and values of a block by ``np.fromstring``, with
    its index fields and colons blanked: ``count`` numbers, or ``None``
    when the rest is not ``count`` numbers."""
    if not count:
        return np.empty(0)
    blanked = raw.copy()
    for k in range(int((istop - istart).max(initial=0)) + 1):
        blanked[np.minimum(istart + k, istop)] = ord(" ")
    # numpy 2.4 raises on text that is not a number; older numpy warns
    # and returns what it read
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            nums = np.fromstring(blanked.tobytes(), sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    return nums if nums.size == count else None


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
    """Name the first 1-based index below 1 or not above its predecessor
    in its row, found by the store's rule; row ``r`` ends at ``ends[r]``."""
    ends = np.frombuffer(ends, dtype=np.int64)
    if (p := _first_bad_index(cols, np.concatenate(([0], ends)), low=1)) >= 0:
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
            return parse_libsvm(f.read(), n_features=n_features)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _finite(x, name: str) -> float:
    """``x`` as a float if it is a real number, not a bool, within float64's
    range; else a ``ValueError`` naming ``name``."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or not abs(x) <= float(np.finfo(np.float64).max)):
        raise ValueError(f"{name} must be finite and real, got {x!r}")
    return float(x)


def format_float(x: float) -> str:
    """The shortest decimal that reads back as the same float64."""
    return repr(float(x))


def serialize_libsvm(d: Dataset) -> str:
    """LIBSVM text of ``d``, one line per sample, every number in
    :func:`format_float`'s shortest round-trip form."""
    row_ptr, idx, vals = d.samples.csr()
    # the reader takes finite numbers only; Dataset has checked the labels
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        row = int(np.searchsorted(row_ptr, bad[0], side="right")) - 1
        raise ValueError(f"row {row}: a non-finite value has no LIBSVM text")
    # Python ints and floats: the 1-based index cannot wrap, and the repr
    # of a float is format_float's text
    feats = [f"{i + 1}:{v!r}" for i, v in zip(idx.tolist(), vals.tolist())]
    ptr = row_ptr.tolist()
    labels = map(format_float, d.labels.tolist())
    return "".join(" ".join([y, *feats[a:b]]) + "\n"
                   for y, a, b in zip(labels, ptr, ptr[1:]))


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


def _seed_state(seed: int) -> int:
    """The xorshift64* start state of ``seed``: one splitmix64 scrambling
    step, so that small consecutive seeds give unrelated streams; a zero
    state falls back to the splitmix increment constant (xorshift state
    must be nonzero)."""
    z = (int(seed) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z if z != 0 else 0x9E3779B97F4A7C15


def _take(d: Dataset, ids) -> Dataset:
    """The rows ``ids`` of ``d``, sharing its sample store."""
    ids = np.asarray(ids, dtype=np.intp)
    return Dataset(d.samples[ids], d.labels[ids], d.n_features)


def split(d: Dataset, train_fraction: float, seed: int):
    """Deterministic shuffle-and-cut split.

    A Fisher-Yates shuffle permutes the sample indices; the first
    ``ceil(train_fraction * m)`` form the training set. Same inputs, same
    split, always. Row ``i`` swaps with row ``j = u % (i + 1)``, for ``i``
    from ``m - 1`` down to 1, where ``u`` is the next output of the
    xorshift64* generator (all mod 2**64)::

        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27
        u = x * 0x2545F4914F6CDD1D

    started from :func:`_seed_state`. The modulo bias is below 2**-40 for
    m < 2**24, far under anything a split can detect.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if d.m < 2:
        raise ValueError("need at least 2 samples to split")
    x = _seed_state(seed)
    perm = list(range(d.m))
    for i in range(d.m - 1, 0, -1):
        # the generator step, inlined: a call per row would double the
        # loop's time
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        j = ((x * 0x2545F4914F6CDD1D) & _MASK64) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    n_train = math.ceil(train_fraction * d.m)
    return _take(d, perm[:n_train]), _take(d, perm[n_train:])


def augment_bias(d: Dataset) -> Dataset:
    """Append a constant feature 1.0 at index ``n_features`` to every
    sample. Applying this twice appends two constant features; whether
    that makes sense is the caller's business."""
    n = d.n_features
    row_ptr, idx, vals = d.samples.csr()
    ends = row_ptr[1:]
    # widened when the new index does not fit the store's dtype
    idx = idx.astype(np.promote_types(idx.dtype, _index_dtype(n)), copy=False)
    samples = Samples(row_ptr + np.arange(d.m + 1), np.insert(idx, ends, n),
                      np.insert(vals, ends, 1.0))
    return Dataset(samples, d.labels, n + 1)
