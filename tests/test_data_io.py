"""Parsing, serialization, label normalization, splits, bias feature."""

import tracemalloc

import numpy as np
import pytest

from almsvm import data_io
from almsvm.baseline import parse_libsvm_oracle
from almsvm.data_io import (
    Dataset,
    ParseError,
    XorShift64Star,
    augment_bias,
    normalize_labels,
    parse_libsvm,
    serialize_libsvm,
    split,
)


def assert_datasets_equal(a: Dataset, b: Dataset):
    assert a.m == b.m
    assert a.n_features == b.n_features
    np.testing.assert_array_equal(a.labels, b.labels)
    for (ia, va), (ib, vb) in zip(a.samples, b.samples):
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(va, vb)


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


class TestFastPath:
    """The vectorized path reads the plain subset of the format; all
    other text goes to the per-line parser."""

    def test_valid_document_takes_the_fast_path(self):
        text = "  +1 1:0.5 007:-2.5E-3\n\n   \n-1 999999999999999:1e3  \n.5"
        assert data_io._parse_blocks(text.encode()) is not None
        d = parse_libsvm(text)
        assert_datasets_equal(d, parse_libsvm_oracle(text))
        assert d.n_features == 999999999999999

    @pytest.mark.parametrize("text", [
        "+1 1:1\r\n-1 2:1\r\n",
        "+1\t1:1\n",
        "+1 1:1 # note\n",
        "+1 1:1_0\n",
        "+1\u00a01:1\n",
        "+1 +3:1\n",
    ])
    def test_other_text_falls_back_to_the_per_line_parser(self, text):
        assert data_io._parse_blocks(text.encode()) is None
        expected = parse_libsvm_oracle(text)
        assert_datasets_equal(parse_libsvm(text), expected)
        assert_datasets_equal(parse_libsvm(text.encode()), expected)

    def test_a_byte_outside_the_language_is_seen_before_any_block(
            self, monkeypatch):
        def parse_block(block):
            raise AssertionError("a block was parsed")
        monkeypatch.setattr(data_io, "_parse_block", parse_block)
        assert data_io._parse_blocks(b"1 1:1\n" * 100 + b"# end\n") is None

    @pytest.mark.parametrize("fourth,fast,message", [
        ("1 3:1 3:2", True, "line 4: index 3 not strictly increasing"),
        ("1 3:1e999", True, "line 4: non-finite label or value"),
        ("1 1e3:1", False, "line 4: malformed token '1e3:1'"),
    ])
    def test_fault_on_the_first_line_of_a_block_names_its_line(
            self, monkeypatch, fourth, fast, message):
        # a block of 12 bytes ends at the first newline from byte 11 on:
        # the first block holds lines 1-3 and line 4 opens the second
        text = f"1 1:1\n\n-1 2:1\n{fourth}\n-1 1:1\n"
        monkeypatch.setattr(data_io, "_FAST_BLOCK", 12)
        assert (data_io._parse_blocks(text.encode()) is not None) == fast
        for parse in (parse_libsvm, parse_libsvm_oracle):
            with pytest.raises(ParseError) as excinfo:
                parse(text)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("buf,lineno", [
        (b"\xff 1:1\n", 1),
        (b"1 1:1\r\n-1 2:1\r\n\xfe", 3),
        (b"1 1:1\n1 2:1 3:\xc3", 2),
    ])
    def test_invalid_utf8_names_its_line(self, buf, lineno):
        with pytest.raises(ParseError, match=f"^line {lineno}: invalid UTF-8"):
            parse_libsvm(buf)


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
    # the per-line parser keeps two flat arrays and views into them; it
    # must never hold the whole file's tokens at once
    text = _generated_text()
    fast, fast_peak = _alloc_peak(parse_libsvm, text)
    slow, slow_peak = _alloc_peak(parse_libsvm_oracle, text)
    assert_datasets_equal(fast, slow)
    assert fast_peak <= 1.25 * slow_peak, (fast_peak, slow_peak)


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

    def test_frozen_permutation(self):
        # Fisher-Yates over 10 items under seed 1, derived by hand from
        # the frozen stream above
        train, test = split(_trivial_dataset(10), 0.8, seed=1)
        order = list(train.labels.astype(int)) + list(test.labels.astype(int))
        assert order == [0, 1, 9, 4, 3, 7, 2, 6, 8, 5]

    def test_different_seeds_differ(self):
        d = _trivial_dataset(100)
        t1, _ = split(d, 0.8, seed=1)
        t2, _ = split(d, 0.8, seed=2)
        assert list(t1.labels) != list(t2.labels)

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
