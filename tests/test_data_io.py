"""Parsing, serialization, label normalization, splits, bias feature."""

import tracemalloc

import numpy as np
import pytest

from almsvm import data_io, metrics, sparse, synthetic
from almsvm.alm import build_svc
from almsvm.data_io import (
    Dataset,
    ParseError,
    augment_bias,
    normalize_labels,
    parse_libsvm,
    serialize_libsvm,
    split,
)
from almsvm.sparse import Samples

from oracles import (
    XorShift64Star,
    csr_oracle,
    parse_libsvm_oracle,
    serialize_libsvm_oracle,
)


def assert_datasets_equal(a: Dataset, b: Dataset):
    assert a.m == b.m
    assert a.n_features == b.n_features
    np.testing.assert_array_equal(a.labels, b.labels)
    for (ia, va), (ib, vb) in zip(a.samples, b.samples):
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(va, vb)



def assert_arrays_bitwise_equal(xs, ys):
    """Equal dtypes and bytes, pair by pair, so -0.0 differs from 0.0."""
    xs, ys = list(xs), list(ys)
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def assert_bitwise_equal(a: Dataset, b: Dataset):
    """Equal arrays down to the bit, so -0.0 differs from 0.0."""
    assert a.n_features == b.n_features
    assert a.labels.tobytes() == b.labels.tobytes()
    assert_arrays_bitwise_equal(a.samples.csr(), b.samples.csr())


class TestParse:
    def test_basic(self):
        d = parse_libsvm("+1 1:0.5 3:2\n-1 2:1\n")
        assert d.m == 2
        assert d.n_features == 3
        np.testing.assert_array_equal(d.labels, [1.0, -1.0])
        np.testing.assert_array_equal(d.samples[0][0], [0, 2])
        np.testing.assert_array_equal(d.samples[0][1], [0.5, 2.0])
        np.testing.assert_array_equal(d.samples[1][0], [1])

    def test_empty_input(self):
        d = parse_libsvm("")
        assert d.m == 0 and d.n_features == 0

    def test_regression_label_passthrough(self):
        d = parse_libsvm("3.5 1:1\n")
        assert d.m == 1
        np.testing.assert_array_equal(d.labels, [3.5])

    def test_comments_and_blank_lines(self):
        d = parse_libsvm("# header\n\n+1 1:2 # trailing\n\n")
        assert d.m == 1
        np.testing.assert_array_equal(d.samples[0][1], [2.0])

    def test_crlf_line_endings(self):
        d = parse_libsvm("+1 1:1\r\n-1 1:2\r\n")
        assert d.m == 2

    def test_bytes_input(self):
        d = parse_libsvm(b"+1 1:1\n")
        assert d.m == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("1 junk\n", "index:value"),
            ("1 2:1 2:3\n", "not strictly increasing"),
            ("1 3:1 2:1\n", "not strictly increasing"),
            ("1 0:1\n", "< 1"),
            ("abc 1:1\n", "not numeric"),
            ("1 1:x\n", "malformed"),
            ("5 3:4:6\n", "malformed"),
            ("1 :1\n", "malformed"),
            ("1 1:\n", "malformed"),
            ("1 2:1 3 4:1:1\n", "index:value"),
            (f"1 {2 ** 63}:1\n", "too large"),
            ("nan 1:1\n", "non-finite"),
            ("1 1:inf\n", "non-finite"),
        ],
    )
    def test_errors_carry_line_number(self, text, fragment):
        with pytest.raises(ParseError, match=fragment) as excinfo:
            parse_libsvm("+1 1:1\n" + text)
        assert "line 2" in str(excinfo.value)

    def test_non_finite_value_names_its_own_line(self):
        # blank, comment and feature-less lines shift line and sample apart
        text = "+1 1:1\n\n-1\n# note\n+1 2:1 3:-inf\n-1 1:nan\n"
        with pytest.raises(ParseError, match="line 5: non-finite"):
            parse_libsvm(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            # an index fault on line 2 stops the parse before line 3
            ("1 1:1\n1 2:1 1:1\n1 x\n", "line 2: index 1 not strictly increasing"),
            ("1 1:nan\n1 0:1\n", "line 2: feature index 0 < 1"),
            ("1 1:inf\n1 1:1 x\n", "line 2: expected index:value, got 'x'"),
            # within a line, the first bad token wins
            ("1 0:1 x\n", "line 1: feature index 0 < 1"),
            ("1 3:1 2:y\n", "line 1: malformed token '2:y'"),
            ("1 3:1 2:1 y\n", "line 1: index 2 not strictly increasing"),
            ("x 0:1\n", "line 1: label 'x' is not numeric"),
        ],
    )
    def test_first_fault_in_file_order_wins(self, text, message):
        with pytest.raises(ParseError) as excinfo:
            parse_libsvm(text)
        assert str(excinfo.value) == message
        with pytest.raises(ParseError) as excinfo:
            parse_libsvm_oracle(text)
        assert str(excinfo.value) == message

    def test_samples_are_views_of_two_flat_arrays(self):
        d = parse_libsvm("1 1:1 3:2\n-1\n1 2:5\n")
        (i0, v0), (i1, v1), (i2, v2) = d.samples
        assert i0.base is not None and i0.base is i2.base
        assert v0.base is not None and v0.base is v2.base
        assert i1.size == 0 and v1.size == 0
        np.testing.assert_array_equal(i2, [1])

    def test_n_features_override_widens(self):
        d = parse_libsvm("+1 1:1\n", n_features=10)
        assert d.n_features == 10

    def test_n_features_override_cannot_narrow(self):
        with pytest.raises(ValueError, match="below max index"):
            parse_libsvm("+1 5:1\n", n_features=3)


def _per_line_blocks(monkeypatch):
    """The ``(text, first_line)`` of each block that reaches the per-line
    parser."""
    calls = []
    parse_lines = data_io._parse_lines

    def spy(text, first_line=1):
        calls.append((text, first_line))
        return parse_lines(text, first_line)
    monkeypatch.setattr(data_io, "_parse_lines", spy)
    return calls


class TestFastPath:
    """The vectorized path reads the plain subset of the format; all
    other text goes to the per-line parser."""

    def test_valid_document_takes_the_fast_path(self, monkeypatch):
        calls = _per_line_blocks(monkeypatch)
        text = "  +1 1:0.5 007:-2.5E-3\n\n   \n-1 999999999999999:1e3  \n.5"
        d = parse_libsvm(text)
        assert calls == []
        assert_datasets_equal(d, parse_libsvm_oracle(text))
        assert d.n_features == 999999999999999

    @pytest.mark.parametrize("text,message", [
        ("+1 1:1\r\n\r\n  -1 2:1 3:0.5 \r\n+1\r\n", None),
        ("+1 1:1\r\n-1 2:1\r\n+1 3:1 2:1\r\n",
         "line 3: index 2 not strictly increasing"),
        ("+1 1:1\r\n\r\n-1 2:1e999\r\n", "line 3: non-finite label or value"),
    ])
    def test_crlf_line_ends_take_the_fast_path(self, monkeypatch, text,
                                               message):
        calls = _per_line_blocks(monkeypatch)
        if message is None:
            assert_datasets_equal(parse_libsvm(text), parse_libsvm_oracle(text))
            assert calls == []
            return
        for parse in (parse_libsvm, parse_libsvm_oracle):
            with pytest.raises(ParseError) as excinfo:
                parse(text)
            assert str(excinfo.value) == message
        assert calls == []

    @pytest.mark.parametrize("odd", [
        "+1\t1:1", "1\t2:1", "\t-1 \t2:0.5\t7:-3e2\t", "+1\t\t1:1 \t3:.5\r",
    ])
    def test_tabs_take_the_fast_path(self, monkeypatch, odd):
        # a tab separates fields as a space does, for str.split and for
        # np.fromstring: the line alone, the line late in a document of
        # blocks of about 1 KB, and that document with every space a tab
        lines = _generated_text(400, 3).splitlines()
        lines.insert(350, odd)
        calls = _per_line_blocks(monkeypatch)
        monkeypatch.setattr(data_io, "_FAST_BLOCK", 1024)
        for text in (odd + "\n", "\n".join(lines) + "\n",
                     "\n".join(lines).replace(" ", "\t") + "\n"):
            expected = parse_libsvm_oracle(text)
            for doc in (text, text.encode()):
                assert_bitwise_equal(parse_libsvm(doc), expected)
        assert calls == []

    @pytest.mark.parametrize("text", [
        "+1 1:1\r-1 2:1\n",
        "+1 1:1\r\r\n-1 2:1\r\n",
        "+1 1:1\r\n-1 2:1\r",
        "+1 1:1 # note\n",
        "+1 1:1_0\n",
        "+1\u00a01:1\n",
        "+1 +3:1\n",
    ])
    def test_other_text_falls_back_to_the_per_line_parser(self, monkeypatch,
                                                          text):
        calls = _per_line_blocks(monkeypatch)
        expected = parse_libsvm_oracle(text)
        assert_datasets_equal(parse_libsvm(text), expected)
        assert calls != []
        assert_datasets_equal(parse_libsvm(text.encode()), expected)

    @pytest.mark.parametrize("fourth,fast,message", [
        ("1 3:1 3:2", True, "line 4: index 3 not strictly increasing"),
        ("1 3:1e999", True, "line 4: non-finite label or value"),
        ("1 1e3:1", False, "line 4: malformed token '1e3:1'"),
        # forms the digit reader and np.fromstring both turn down
        ("1 3:1.5.3", False, "line 4: malformed token '3:1.5.3'"),
        ("1 3:+-1", False, "line 4: malformed token '3:+-1'"),
        ("1 3:.", False, "line 4: malformed token '3:.'"),
        ("1 3:5-", False, "line 4: malformed token '3:5-'"),
    ])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_fault_on_the_first_line_of_a_block_names_its_line(
            self, monkeypatch, fourth, fast, message, eol):
        # a block of 12 bytes ends at the first newline from byte 11 on:
        # with either line end the first block holds lines 1-3 and line 4
        # opens the second
        text = f"1 1:1{eol}{eol}-1 2:1{eol}{fourth}{eol}-1 1:1{eol}"
        monkeypatch.setattr(data_io, "_FAST_BLOCK", 12)
        calls = _per_line_blocks(monkeypatch)
        for parse in (parse_libsvm, parse_libsvm_oracle):
            with pytest.raises(ParseError) as excinfo:
                parse(text)
            assert str(excinfo.value) == message
        assert (calls == []) == fast

    @staticmethod
    def _fromstring_blocks(monkeypatch):
        """The blocks whose labels and values np.fromstring reads."""
        calls = []
        read_floats = data_io._read_floats

        def spy(*args):
            calls.append(args)
            return read_floats(*args)
        monkeypatch.setattr(data_io, "_read_floats", spy)
        return calls

    @pytest.mark.parametrize("number", [
        "1.0", "0.125", "-0", "-0.0", "+3", ".5", "1.", "007.50", "-.5",
        "999999999999999", "-0.00000000000001", "1234567.8901234",
    ])
    def test_short_decimals_are_read_from_their_digits(self, monkeypatch,
                                                         number):
        calls = self._fromstring_blocks(monkeypatch)
        text = f"{number} 1:{number} 7:1\n-1 2:{number}\n"
        assert_bitwise_equal(parse_libsvm(text), parse_libsvm_oracle(text))
        assert calls == []

    @pytest.mark.parametrize("number", [
        "1234567890123456", "9007199254740993", "1234567890123456.",
        "0.1234567890123456", "-0.5488135039273248", "1e3", "4.5E-2",
    ])
    def test_long_decimals_and_exponents_are_read_by_fromstring(
            self, monkeypatch, number):
        calls = self._fromstring_blocks(monkeypatch)
        text = f"{number} 1:{number} 7:1\n-1 2:{number}\n"
        assert_bitwise_equal(parse_libsvm(text), parse_libsvm_oracle(text))
        assert len(calls) == 1

    def test_blocks_pick_their_reader_one_by_one(self, monkeypatch):
        calls = self._fromstring_blocks(monkeypatch)
        lines = ["1 1:0.5 2:-0", "-1 3:1e3 4:0.25", "+1 1:.25",
                 "-1 2:4.5E-2 9:7.", "1 5:9007199254740993", "-1 6:-1.0"]
        text = "\n".join(lines) + "\n"
        expected = parse_libsvm_oracle(text)
        # one block holds both kinds of number
        assert_bitwise_equal(parse_libsvm(text), expected)
        assert len(calls) == 1
        # a block of 1 byte ends at the first newline: one line per block
        monkeypatch.setattr(data_io, "_FAST_BLOCK", 1)
        assert_bitwise_equal(parse_libsvm(text), expected)
        assert len(calls) == 1 + 3

    @pytest.mark.parametrize("odd", [
        "1 +3:1", "# a comment", "-1 2:1 # café",
        # a carriage return, a vertical tab, a form feed and a line
        # separator end a line
        "1 2:1\r-1 3:1", "1 2:1\x0b-1 3:1", "1 2:1\x0c-1 3:1",
        "1 2:1\u2028-1 3:1",
    ])
    def test_a_block_outside_the_language_falls_back_alone(self, monkeypatch,
                                                           odd):
        # a clean document with one late line the fast path turns down:
        # only the block that holds it goes to the per-line parser
        lines = _generated_text(400, 3).splitlines()
        lines.insert(350, odd)
        text = "\n".join(lines) + "\n"
        lines = text.splitlines()
        calls = _per_line_blocks(monkeypatch)
        monkeypatch.setattr(data_io, "_FAST_BLOCK", 1024)
        expected = parse_libsvm_oracle(text)
        for doc in (text, text.encode()):
            calls.clear()
            assert_bitwise_equal(parse_libsvm(doc), expected)
            [(block, first_line)] = calls
            # one block of whole lines, about 1 KB of a 13 KB document
            assert len(text) > 12 * 1024 and len(block) < 1024 + 100
            block_lines = block.splitlines()
            assert block_lines == lines[first_line - 1:
                                        first_line - 1 + len(block_lines)]
            assert first_line + block_lines.index(odd.splitlines()[0]) == 351

    @pytest.mark.parametrize("lines,message", [
        # an index fault in a fast block, a bad token in a later one
        (["1 1:1", "1 3:1 2:1", "-1 1:1", "1 1e3:1"],
         "line 2: index 2 not strictly increasing"),
        # ... with a clean fast block between them
        (["1 3:1 2:1", "-1 1:1", "-1 4:1", "1 1:1 +2:1"],
         "line 1: index 2 not strictly increasing"),
        # an index fault in a block that falls back, a bad token later
        (["1 +3:1 2:1", "-1 1:1", "1 1e3:1"],
         "line 1: index 2 not strictly increasing"),
        # an index fault between two blocks that fall back
        (["1 1:1", "1 +2:1", "1 1:1", "1 3:1 2:1", "1 1e3:1"],
         "line 4: index 2 not strictly increasing"),
        # the bad token comes first
        (["1 1e3:1", "1 3:1 2:1"], "line 1: malformed token '1e3:1'"),
        (["1 1:1", "1 1:1 2:x", "1 3:1 2:1"], "line 2: malformed token '2:x'"),
    ])
    def test_the_first_fault_wins_across_fallback_blocks(self, monkeypatch,
                                                         lines, message):
        # a block of 1 byte holds one line
        monkeypatch.setattr(data_io, "_FAST_BLOCK", 1)
        text = "\n".join(lines) + "\n"
        for parse in (parse_libsvm, parse_libsvm_oracle):
            with pytest.raises(ParseError) as excinfo:
                parse(text)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("buf,lineno", [
        (b"\xff 1:1\n", 1),
        (b"1 1:1\r\n-1 2:1\r\n\xfe", 3),
        (b"1 1:1\n1 2:1 3:\xc3", 2),
        # a fault on the bad byte's own line, or after it, or a
        # non-finite value anywhere, comes after the bad byte
        (b"1 x:1 \xff\n", 1),
        (b"1 1:1\n\xff\n1 x:1\n", 2),
        (b"1 1:nan\n\xff\n", 2),
    ])
    def test_invalid_utf8_names_its_line(self, buf, lineno):
        with pytest.raises(ParseError, match=f"^line {lineno}: invalid UTF-8"):
            parse_libsvm(buf)

    @pytest.mark.parametrize("buf,message", [
        (b"1 x:1\n\xff\n", "line 1: malformed token 'x:1'"),
        (b"1 3:1 2:1\n\xff\n", "line 1: index 2 not strictly increasing"),
        (b"# c\n1 0:1\n-1 1:1 # \xe9\n", "line 2: feature index 0 < 1"),
        (b"1 1:1\r1 2:1 2:3\r\xfe 1:1\r",
         "line 2: index 2 not strictly increasing"),
    ])
    @pytest.mark.parametrize("block", [data_io._FAST_BLOCK, 1])
    def test_a_fault_before_the_bad_bytes_line_comes_first(
            self, monkeypatch, buf, message, block):
        monkeypatch.setattr(data_io, "_FAST_BLOCK", block)
        with pytest.raises(ParseError) as excinfo:
            parse_libsvm(buf)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text,lineno", [
        ("1 1:1 # \udc80\n", 1),
        ("1 1:1\n-1 2:1 \ud800\n", 2),
    ])
    def test_a_lone_surrogate_in_a_str_names_its_line(self, text, lineno):
        with pytest.raises(ParseError,
                           match=f"^line {lineno}: invalid UTF-8 byte 0xed$"):
            parse_libsvm(text)


class TestIndexWidth:
    """The parser stores 0-based indices as int32 while they fit in it,
    on either path, and widens its array to int64 once they do not."""

    @pytest.mark.parametrize("top,dtype", [(2**31, np.int32),
                                           (2**31 + 1, np.int64)])
    @pytest.mark.parametrize("comment", ["", "# a comment\n"],
                             ids=["fast", "per_line"])
    def test_either_side_of_the_limit(self, monkeypatch, comment, top, dtype):
        # the largest 1-based index 2**31 is 0-based 2**31 - 1, which fits
        calls = _per_line_blocks(monkeypatch)
        text = f"{comment}1 2:0.5 {top}:1.5\n-1 1:2\n"
        d = parse_libsvm(text)
        assert len(calls) == (1 if comment else 0)
        # the parser makes the array in that dtype; the store keeps it
        assert data_io._parse_blocks(text.encode())[0].dtype == dtype
        assert d.samples.indices.dtype == dtype
        assert d.samples.indices.tolist() == [1, top - 1, 0]
        assert d.n_features == top
        assert_bitwise_equal(d, parse_libsvm_oracle(text))

    def test_a_late_block_widens_the_earlier_ones(self, monkeypatch):
        # a block of 1 byte holds one line; the first two are stored
        # int32 before the third widens the array
        monkeypatch.setattr(data_io, "_FAST_BLOCK", 1)
        text = "1 3:1\n-1 1:2 5:1\n1 4:1 3000000000:1\n"
        d = parse_libsvm(text)
        assert d.samples.indices.dtype == np.int64
        assert d.samples.indices.tolist() == [2, 0, 4, 3, 2999999999]
        assert_bitwise_equal(d, parse_libsvm_oracle(text))


def _generated_text(lines=20000, per_line=5):
    rng = np.random.default_rng(5)
    idx = np.sort(rng.integers(0, 100, size=(lines, per_line)), axis=1)
    idx += 100 * np.arange(per_line, dtype=np.int64)  # strictly increasing
    vals = np.round(rng.normal(size=(lines, per_line)), 3)
    labels = rng.choice([-1.0, 1.0], lines)
    return serialize_libsvm(Dataset(list(zip(idx, vals)), labels, 100 * per_line))


def _alloc_peak(parse, text):
    tracemalloc.start()
    try:
        result = parse(text)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_memory_stays_within_the_oracles():
    # the per-line parser keeps two flat arrays; it must never hold the
    # whole file's tokens at once
    text = _generated_text()
    fast, fast_peak = _alloc_peak(parse_libsvm, text)
    slow, slow_peak = _alloc_peak(parse_libsvm_oracle, text)
    assert_datasets_equal(fast, slow)
    assert fast_peak <= 1.25 * slow_peak, (fast_peak, slow_peak)


def test_parse_holds_no_per_row_objects():
    # the parse peaks at about twice the bytes of its result (the text and
    # one block's temporaries come on top); two views and a tuple per row
    # would take it past four times
    d, peak = _alloc_peak(parse_libsvm, _generated_text())
    row_ptr, idx, vals = d.samples.csr()
    own = row_ptr.nbytes + idx.nbytes + vals.nbytes + d.labels.nbytes
    assert peak <= 3 * own, (peak, own)


class TestSamples:
    def test_rows_are_read_only_views_of_the_flat_arrays(self):
        d = Dataset([(np.array([0, 2]), np.array([0.5, 2.0])),
                     ([1], [3])], np.array([1.0, -1.0]), 3)
        s = d.samples
        assert s.indices.dtype == np.int32 and s.values.dtype == np.float64
        np.testing.assert_array_equal(s.indices, [0, 2, 1])
        idx, vals = s[-1]
        assert idx.dtype == np.int32 and vals.dtype == np.float64
        assert np.shares_memory(idx, s.indices)
        assert np.shares_memory(vals, s.values)
        with pytest.raises(ValueError, match="read-only"):
            vals[0] = 1.0
        with pytest.raises(IndexError):
            s[2]

    def test_a_0d_integer_array_key_is_a_row(self):
        s = parse_libsvm(_STORE, n_features=7).samples
        part = s[np.array([3, 0, 2])]
        for store in (s, part):
            for key in (1, -1):
                for zero_d in (np.array(key), np.array(key, dtype=np.int32)):
                    got, expect = store[zero_d], store[key]
                    np.testing.assert_array_equal(got[0], expect[0])
                    np.testing.assert_array_equal(got[1], expect[1])

    @pytest.mark.parametrize("n_features", [0, -3, 2.5, 6, 7.0, True],
                             ids=["zero", "negative", "fraction",
                                  "at_the_largest_index", "float", "bool"])
    def test_n_features_must_exceed_every_index(self, n_features):
        s = parse_libsvm(_STORE).samples  # largest 0-based index 6
        assert s.max_index == s[np.array([0, 2])].max_index == 6
        for rows in (s, s[np.array([0, 2])]):
            with pytest.raises(ValueError, match="n_features"):
                Dataset(rows, np.zeros(len(rows)), n_features)

    def test_n_features_above_every_index_is_kept(self):
        s = parse_libsvm(_STORE).samples
        assert Dataset(s, np.zeros(4), np.int64(7)).n_features == 7
        # a store without indices, as from a file of labels only
        empty = Samples([0, 0, 0], [], [])
        assert empty.max_index == -1
        assert Dataset(empty, np.zeros(2), 0).m == 2

    def test_a_pair_list_is_concatenated_once(self):
        rows = [(np.array([0]), np.array([1.0])), (np.array([], np.int64),
                                                   np.array([]))]
        row_ptr, idx, vals = Dataset(rows, np.zeros(2), 1).samples.csr()
        np.testing.assert_array_equal(row_ptr, [0, 1, 1])
        assert idx.dtype == np.int32 and vals.dtype == np.float64

    @pytest.mark.parametrize("rows,labels,message", [
        ([(np.array([0, 1]), np.array([1.0]))], [1.0], "equal length"),
        ([(np.array([0]), np.array([1.0]))], [1.0, 2.0], "2 labels for 1"),
    ])
    def test_inconsistent_input_is_rejected(self, rows, labels, message):
        with pytest.raises(ValueError, match=message):
            Dataset(rows, np.array(labels), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_label_is_rejected_naming_its_row(self, bad):
        # the parser refuses such a label, and training would fail later
        rows = [([0], [1.0])] * 3
        labels = [1.0, -1.0, bad]
        message = f"^row 2: label {bad} is not finite$"
        with pytest.raises(ValueError, match=message):
            Dataset(rows, labels, 1)

    def test_non_integer_indices_are_rejected_not_truncated(self):
        # int64 conversion would store [0, 2]
        with pytest.raises(ValueError, match="indices must be integers"):
            Dataset([(np.array([0.5, 2.7]), np.array([1.0, 2.0]))],
                    np.array([1.0]), 3)
        # an empty list has numpy's default float dtype but no index in it
        assert Dataset([([], [])], np.array([1.0]), 3).samples.indices.size == 0

    @pytest.mark.parametrize("row_ptr,message", [
        (np.array([0, 1.7, 2]), "row_ptr must be integers"),
        ([0, 2, 1], "row_ptr must be non-decreasing"),
        ([-1, 1, 2], "row_ptr must lie within the flat arrays"),
        ([0, 1, 3], "row_ptr must lie within the flat arrays"),
    ], ids=["non_integer", "decreasing", "starts_below_0", "ends_past_the_arrays"])
    def test_invalid_row_ptr_is_rejected(self, row_ptr, message):
        # the kernel that gathers a part checks no bounds; int64
        # conversion would store the non-integer row_ptr as [0, 1, 2]
        with pytest.raises(ValueError, match=message):
            Samples(row_ptr, np.array([0, 2]), [1.0, 2.0])

    @pytest.mark.parametrize("top,dtype", [(2**31 - 1, np.int32),
                                           (2**31, np.int64)])
    def test_from_pairs_either_side_of_the_limit(self, top, dtype):
        s = Samples.from_pairs([(np.array([0, top]), [1.0, 2.0]), ([3], [1.0])])
        assert s.indices.dtype == dtype
        assert s.indices.tolist() == [0, top, 3]

    def test_int32_indices_are_kept_and_int64_ones_narrowed(self):
        # row_ptr takes the indices' dtype: an int64 row_ptr would make
        # every gather cast the whole index array
        idx = np.array([0, 2, 1], dtype=np.int32)
        s = Samples(np.array([0, 2, 3]), idx, [1.0, 2.0, 3.0])
        assert np.shares_memory(s.indices, idx)
        assert s.row_ptr.dtype == np.int32
        wide = Samples([0, 2, 3], idx.astype(np.int64), [1.0, 2.0, 3.0])
        assert wide.indices.dtype == wide.row_ptr.dtype == np.int32
        np.testing.assert_array_equal(wide.indices, idx)
        # one index past int32 widens both arrays
        big = Samples([0, 2, 3], [0, 2999999999, 1], [1.0, 2.0, 3.0])
        assert big.indices.dtype == big.row_ptr.dtype == np.int64
        assert big.indices.tolist() == [0, 2999999999, 1]

    def test_arrays_are_read_only_attributes(self):
        # a store's ids are a fresh arange on each read, a part's are its own
        s = parse_libsvm("1 1:1 3:2\n-1 2:5\n").samples
        part = s[::-1]
        for store, names in ((s, ("row_ptr", "indices", "values")),
                             (part, ("row_ptr", "indices", "values", "ids"))):
            for name in names:
                assert not getattr(store, name).flags.writeable
                with pytest.raises(AttributeError):
                    setattr(store, name, np.zeros(3))

    def test_list_labels_are_held_as_a_float_array(self):
        pairs = [([0], [1.0]), ([1], [2.0]), ([0, 1], [1.0, 1.0]), ([], [])]
        labels = np.array([1.0, 2.0, 1.0, 2.0])
        listed, arrayed = Dataset(pairs, labels.tolist(), 2), Dataset(pairs, labels, 2)
        assert listed.labels.dtype == np.float64
        assert arrayed.labels is labels
        (a, map_a), (b, map_b) = normalize_labels(listed), normalize_labels(arrayed)
        assert map_a == map_b
        assert_datasets_equal(a, b)
        for x, y in zip(split(listed, 0.5, 3), split(arrayed, 0.5, 3)):
            assert_datasets_equal(x, y)
        with pytest.raises(ValueError, match="one real per sample"):
            Dataset(pairs, labels.reshape(4, 1), 2)

    def test_slices_and_selections_share_the_store(self):
        d = parse_libsvm("1 1:1 3:2\n-1\n1 2:5\n1 1:4 2:4\n")
        for part in (d.samples[1:], d.samples[np.array([3, 0])]):
            assert part.indices.base is d.samples.indices.base
            assert part.values.base is d.samples.values.base
        np.testing.assert_array_equal(d.samples[1:][1][0], [1])

    def test_csr_is_a_view_for_back_to_back_rows(self):
        d = parse_libsvm("1 1:1 3:2\n-1\n1 2:5\n1 1:4 2:4\n")
        row_ptr, idx, vals = d.samples[1:3].csr()
        np.testing.assert_array_equal(row_ptr, [0, 0, 1])
        assert np.shares_memory(idx, d.samples.indices)
        np.testing.assert_array_equal(vals, [5.0])

    def test_csr_gathers_selected_rows_in_order(self):
        d = parse_libsvm("1 1:1 3:2\n-1\n1 2:5\n1 1:4 2:4\n")
        row_ptr, idx, vals = d.samples[np.array([3, 1, 0])].csr()
        np.testing.assert_array_equal(row_ptr, [0, 2, 2, 4])
        np.testing.assert_array_equal(idx, [0, 1, 0, 2])
        np.testing.assert_array_equal(vals, [4.0, 4.0, 1.0, 2.0])
        empty = d.samples[:0].csr()
        assert empty[0].tolist() == [0] and empty[1].size == 0


# four rows of a parsed store, the second one empty
_STORE = "1 1:1 3:2\n-1\n1 2:5\n1 1:4 2:-0.0 7:3\n"


def _split_part(store):
    """A part of a part: rows of a ``split`` result."""
    train, _ = split(Dataset(store, np.zeros(len(store)), store.max_index + 1),
                     0.75, 7)
    return train.samples[np.array([2, 0, 2])]


# parts of the four-row store by name; a key of negative ids or a mask
# takes its ids from arange(len), like any other
_PARTS = {
    "permuted": lambda s: s[np.array([3, 1, 0, 2])],
    "reversed": lambda s: s[::-1],
    "repeated": lambda s: s[np.array([2, 2, 0, 2])],
    "empty_row": lambda s: s[np.array([1])],
    "empty_rows": lambda s: s[np.array([1, 1])],
    "gap": lambda s: s[np.array([0, 2])],
    "repeated_pairs": lambda s: s[np.array([3, 0, 3, 0, 1])],
    "empty_part": lambda s: s[np.array([], dtype=np.intp)],
    "part_of_a_split_part": _split_part,
    "negative_ids": lambda s: s[np.array([-1, 0, -3])],
    "mask": lambda s: s[np.array([True, False, True, True])],
    "list": lambda s: s[[3, 0]],
    "stepped_slice": lambda s: s[::2],
    "run": lambda s: s[1:],
    "store": lambda s: s,
}


class TestGather:
    """A part whose rows are not one ascending run of its store is
    gathered by ``csr_row_index`` into exactly the arrays numpy's fancy
    indexing gives: the same bytes, in the store's index dtype."""

    @pytest.mark.parametrize("make", _PARTS.values(), ids=_PARTS.keys())
    @pytest.mark.parametrize("text", [
        _STORE, _STORE.replace("7:3", "3000000000:3")], ids=["int32", "int64"])
    def test_parts_match_the_numpy_gather(self, text, make):
        store = parse_libsvm(text).samples
        dtype = np.int64 if "3000000000" in text else np.int32
        assert store.row_ptr.dtype == store.indices.dtype == dtype
        part = make(store)
        got, want = part.csr(), csr_oracle(part)
        assert_arrays_bitwise_equal(got, want)
        assert got[0].dtype == got[1].dtype == dtype
        # each row alike by iteration and by a non-negative and a
        # negative int key
        row_ptr, idx, vals = want
        for r, pair in enumerate(part):
            a, b = row_ptr[r], row_ptr[r + 1]
            for row in (pair, part[r], part[r - len(part)]):
                assert_arrays_bitwise_equal(row, (idx[a:b], vals[a:b]))

    def test_gather_reads_the_store_arrays_as_they_are(self, monkeypatch):
        # an int32 store's own arrays go to the kernel: no read casts
        # the store's indices
        calls = []
        gather = sparse._gather
        monkeypatch.setattr(sparse, "_gather",
                            lambda *a: calls.append(a) or gather(*a))
        store = parse_libsvm(_STORE).samples
        part = store[np.array([3, 1])]
        got = part.csr()
        (row_ptr, idx, vals, ids, n), = calls
        assert row_ptr is store.row_ptr and idx is store.indices
        assert vals is store.values and ids is part.ids and n == 0
        assert row_ptr.dtype == idx.dtype == ids.dtype == np.int32
        assert got[1].dtype == np.int32

    def test_back_to_back_rows_are_not_gathered(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sparse, "_gather",
                            lambda *a: calls.append(a) or pytest.fail())
        store = parse_libsvm(_STORE).samples
        for part in (store, store[1:3], store[np.array([1, 2, 3])]):
            assert_arrays_bitwise_equal(part.csr(), csr_oracle(part))
        assert calls == []

    @pytest.mark.parametrize("rows,dtype", [
        ([2, 1, 0], np.int32), ([3, 2, 1, 0, 3, 2, 1, 0], np.int64),
    ], ids=["fits", "repeats_past_the_limit"])
    def test_a_gather_widens_only_past_the_limit(self, monkeypatch, rows,
                                                 dtype):
        # the int32 limit lowered to 7 stands in for 2**31 - 1: a store
        # of four entries is int32, a part repeating them eight times
        # is gathered as int64, and a store of eight rows, empty or not,
        # is int64 throughout
        monkeypatch.setattr(sparse, "_INT32_MAX", 7)
        store = Samples(np.arange(5), np.arange(4) % 3, np.arange(4.0))
        assert store.row_ptr.dtype == store.indices.dtype == np.int32
        part = store[np.array(rows)]
        got = part.csr()
        assert got[0].dtype == got[1].dtype == dtype
        want = csr_oracle(part)
        assert_arrays_bitwise_equal(
            got, (want[0].astype(dtype), want[1].astype(dtype), want[2]))
        assert Samples(np.zeros(9, int), [], []).row_ptr.dtype == np.int64

    @pytest.mark.parametrize("make", [
        lambda: synthetic.svc_margin_gap(300, 100, density=0.1, seed=3),
        lambda: synthetic.svc_sparse_binary(300, 40, density=0.1, seed=3),
    ], ids=["svc_margin_gap", "svc_sparse_binary"])
    def test_split_parts_read_as_their_contiguous_copies(self, make):
        # the generators of the benchmark's two workloads, small
        d = make()
        w = np.random.default_rng(0).normal(size=d.n_features)
        model = metrics.Model(w=w, task="svc")
        for part in split(d, 0.8, 7):
            copy = Dataset(Samples.from_pairs(list(part.samples)),
                           part.labels, part.n_features)
            a, b = build_svc(part, 0.5).B, build_svc(copy, 0.5).B
            assert_arrays_bitwise_equal((a.row_ptr, a.col_idx, a.values),
                                        (b.row_ptr, b.col_idx, b.values))
            assert (metrics.scores(model, part).tobytes()
                    == metrics.scores(model, copy).tobytes())


class TestRoundTrip:
    def test_parse_serialize_parse(self, rng):
        rows = []
        for _ in range(20):
            k = int(rng.integers(0, 6))
            idx = np.sort(rng.choice(50, size=k, replace=False)).astype(np.int64)
            rows.append((idx, rng.normal(size=k)))
        d = Dataset(rows, rng.normal(size=20), 50)
        again = parse_libsvm(serialize_libsvm(d), n_features=50)
        assert_datasets_equal(d, again)

    def test_serialized_form(self):
        d = Dataset([(np.array([0, 2]), np.array([0.5, 2.0]))], np.array([1.0]), 3)
        assert serialize_libsvm(d) == "1.0 1:0.5 3:2.0\n"

    @pytest.mark.parametrize("rows,labels", [
        ([], []),
        ([([], []), ([0], [-0.0]), ([], [])], [1, -1, 0]),
        ([([1, 4], [5e-324, 2.2250738585072014e-308 / 3]),
          ([0, 2], [0.1 + 0.2, 1 / 3])], [-0.0, 0.30000000000000004]),
        ([([3], [1.7976931348623157e308]), ([0, 2**31, 2**40], [1.0, -2.5, 1e-7])],
         [1.0, -1.0]),
    ], ids=["no_rows", "empty_rows_and_minus_zero", "subnormal_and_17_digits",
            "index_past_int32"])
    def test_matches_the_row_by_row_writer(self, rows, labels):
        d = Dataset(rows, np.array(labels), 2**40 + 1)
        assert serialize_libsvm(d) == serialize_libsvm_oracle(d)

    @pytest.mark.parametrize("bad_label,bad_value,row", [
        (None, (2, np.nan), 2), (1, None, 1), (3, (2, -np.inf), 3),
    ], ids=["nan_value", "inf_label", "first_of_both"])
    def test_a_non_finite_number_is_refused_naming_its_row(
            self, bad_label, bad_value, row):
        # the reader refuses non-finite numbers, so no text holds them:
        # a dataset refuses a non-finite label when it is built, before
        # any value is looked at, and the writer a non-finite value
        labels = np.ones(4)
        values = [[0.5], [1.0], [2.0, 3.0], [4.0]]
        if bad_label is not None:
            labels[bad_label] = np.inf
        if bad_value is not None:
            values[bad_value[0]][1] = bad_value[1]
        rows = [(np.arange(len(v)), v) for v in values]
        with pytest.raises(ValueError, match=f"^row {row}: "):
            serialize_libsvm(Dataset(rows, labels, 2))

    def test_a_split_part_matches_the_row_by_row_writer(self):
        d = synthetic.svc_sparse_binary(200, 30, density=0.2, seed=1)
        for part in split(d, 0.7, 3):
            text = serialize_libsvm(part)
            assert text == serialize_libsvm_oracle(part)
            assert_datasets_equal(parse_libsvm(text, n_features=30), part)


class TestNormalizeLabels:
    def test_zero_one(self):
        d = Dataset([(np.array([0]), np.array([1.0]))] * 3,
                     np.array([0.0, 1.0, 0.0]), 1)
        out, mapping = normalize_labels(d)
        np.testing.assert_array_equal(out.labels, [-1.0, 1.0, -1.0])
        assert mapping == (0.0, 1.0)

    def test_already_normalized(self):
        d = Dataset([(np.array([0]), np.array([1.0]))] * 2,
                     np.array([-1.0, 1.0]), 1)
        out, mapping = normalize_labels(d)
        np.testing.assert_array_equal(out.labels, [-1.0, 1.0])
        assert mapping == (-1.0, 1.0)

    def test_smaller_value_maps_to_minus_one(self):
        d = Dataset([(np.array([0]), np.array([1.0]))] * 3,
                     np.array([2.0, 7.0, 7.0]), 1)
        out, mapping = normalize_labels(d)
        np.testing.assert_array_equal(out.labels, [-1.0, 1.0, 1.0])
        assert mapping == (2.0, 7.0)

    def test_rejects_three_classes(self):
        d = Dataset([(np.array([0]), np.array([1.0]))] * 3,
                     np.array([1.0, 2.0, 3.0]), 1)
        with pytest.raises(ValueError, match="not a binary classification"):
            normalize_labels(d)

    def test_rejects_single_class(self):
        d = Dataset([(np.array([0]), np.array([1.0]))] * 2,
                     np.array([1.0, 1.0]), 1)
        with pytest.raises(ValueError, match="two distinct"):
            normalize_labels(d)


def _trivial_dataset(m):
    return Dataset(
        [(np.array([0]), np.array([float(i)])) for i in range(m)],
        np.arange(m, dtype=np.float64),
        1,
    )


class TestPrng:
    def test_frozen_stream(self):
        # first outputs of the documented xorshift64* algorithm, derived
        # independently from its definition
        r = XorShift64Star(1)
        assert [r.next_uint64() for _ in range(3)] == [
            5424204624148110235,
            15555979849632202484,
            6851360858507811590,
        ]
        r = XorShift64Star(42)
        assert r.next_uint64() == 3580622183945639842

    def test_zero_seed_works(self):
        r = XorShift64Star(0)
        assert r.next_uint64() != r.next_uint64()


class TestSplit:
    def test_counts(self):
        train, test = split(_trivial_dataset(10), 0.8, seed=1)
        assert train.m == 8 and test.m == 2

    def test_deterministic(self):
        d = _trivial_dataset(10)
        t1, s1 = split(d, 0.8, seed=1)
        t2, s2 = split(d, 0.8, seed=1)
        assert_datasets_equal(t1, t2)
        assert_datasets_equal(s1, s2)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_a_seed_that_is_not_an_integer_is_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            split(_trivial_dataset(10), 0.8, seed)

    def test_frozen_permutation(self):
        # Fisher-Yates over 10 items under seed 1, derived by hand from
        # the frozen stream above
        train, test = split(_trivial_dataset(10), 0.8, seed=1)
        order = list(train.labels.astype(int)) + list(test.labels.astype(int))
        assert order == [0, 1, 9, 4, 3, 7, 2, 6, 8, 5]

    @pytest.mark.parametrize("seed", [0, 1, 7, 1011, 2**64 - 1])
    @pytest.mark.parametrize("m", [2, 3, 10, 257, 10000])
    def test_shuffle_draws_the_generators_sequence(self, seed, m):
        # split's loop steps the generator inline; it must draw exactly
        # what next_below would
        rng = XorShift64Star(seed)
        perm = list(range(m))
        for i in range(m - 1, 0, -1):
            j = rng.next_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        train, test = split(_trivial_dataset(m), 0.5, seed=seed)
        order = list(train.labels.astype(int)) + list(test.labels.astype(int))
        assert order == perm

    def test_different_seeds_differ(self):
        d = _trivial_dataset(100)
        t1, _ = split(d, 0.8, seed=1)
        t2, _ = split(d, 0.8, seed=2)
        assert list(t1.labels) != list(t2.labels)

    def test_parts_share_the_parents_store(self):
        d = _trivial_dataset(10)
        d = Dataset(d.samples, d.labels % 2, 1)
        train, test = split(d, 0.8, seed=1)
        out, _ = normalize_labels(train)
        for part in (train, test, out):
            assert part.samples.values.base is d.samples.values.base
        assert out.samples is train.samples
        np.testing.assert_array_equal([v[0] for _, v in test.samples], [8, 5])

    def test_partition(self):
        d = _trivial_dataset(23)
        train, test = split(d, 0.6, seed=9)
        seen = sorted(list(train.labels) + list(test.labels))
        assert seen == list(range(23))

    def test_validates_fraction_and_size(self):
        with pytest.raises(ValueError):
            split(_trivial_dataset(5), 1.2, seed=0)
        with pytest.raises(ValueError):
            split(_trivial_dataset(1), 0.5, seed=0)


class TestAugmentBias:
    def test_appends_constant_feature(self):
        d = Dataset([(np.array([0]), np.array([0.5]))], np.array([1.0]), 3)
        out = augment_bias(d)
        assert out.n_features == 4
        np.testing.assert_array_equal(out.samples[0][0], [0, 3])
        np.testing.assert_array_equal(out.samples[0][1], [0.5, 1.0])

    def test_empty_sample(self):
        d = Dataset([(np.array([], dtype=np.int64), np.array([]))],
                     np.array([1.0]), 2)
        out = augment_bias(d)
        np.testing.assert_array_equal(out.samples[0][0], [2])
        np.testing.assert_array_equal(out.samples[0][1], [1.0])

    def test_twice_appends_two_features(self):
        d = Dataset([(np.array([0]), np.array([1.0]))], np.array([1.0]), 1)
        out = augment_bias(augment_bias(d))
        assert out.n_features == 3
        np.testing.assert_array_equal(out.samples[0][0], [0, 1, 2])

    @pytest.mark.parametrize("n,dtype", [(2**31 - 1, np.int32),
                                         (2**31, np.int64)])
    def test_the_bias_index_widens_the_store_only_when_it_must(self, n, dtype):
        d = Dataset([(np.array([0, 5]), np.array([0.5, 1.5])), ([], [])],
                    np.array([1.0, -1.0]), n)
        assert d.samples.indices.dtype == np.int32
        out = augment_bias(d)
        assert out.samples.indices.dtype == dtype
        assert out.samples.indices.tolist() == [0, 5, n, n]
        np.testing.assert_array_equal(out.samples.values, [0.5, 1.5, 1.0, 1.0])

    def test_preserves_m_and_existing_entries(self, rng):
        rows = [
            (np.sort(rng.choice(9, size=3, replace=False)).astype(np.int64),
             rng.normal(size=3))
            for _ in range(5)
        ]
        d = Dataset(rows, rng.normal(size=5), 9)
        out = augment_bias(d)
        assert out.m == d.m
        for (i0, v0), (i1, v1) in zip(d.samples, out.samples):
            np.testing.assert_array_equal(i1[:-1], i0)
            np.testing.assert_array_equal(v1[:-1], v0)
