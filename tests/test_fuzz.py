"""Property-based checks of the two readers of outside input and of the
library's constructors.

``parse_libsvm`` must accept exactly what the token-at-a-time oracle
accepts, return bitwise the same arrays, and reject every corrupted text
with the oracle's message, on its fast path as well as on the per-line
one. ``read_model`` must turn every corrupted header into a
``ValueError`` that names the file. ``Samples``, ``Dataset``,
``SparseMatrix``, ``Model``, ``SolverConfig`` and the penalties must
reject a malformed field with a ``ValueError`` that names it.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from almsvm import data_io
from almsvm.alm import EpsInsensitive, Hinge, SolverConfig
from almsvm.cli import read_model, write_model
from almsvm.data_io import Dataset, ParseError, parse_libsvm
from almsvm.metrics import Model
from almsvm.sparse import Samples, SparseMatrix

from oracles import parse_libsvm_oracle

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# str.split() and strip() treat all of these as whitespace; none of them
# ends a line for str.splitlines()
SPACES = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0", "\u2003",
                          "\u3000", "\x1f"])
# str.splitlines() ends a line at each of these
EOLS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])
NUMBERS = st.one_of(
    st.sampled_from(["+1", "-1", "1", "0", "1e3", "-2.5E-3", ".5", "5.",
                     "+0.0", "-0.0", "1_0", "007"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
INDEX_FORMS = st.sampled_from(["{}", "+{}", "0{}"])


@st.composite
def sample_lines(draw):
    """Tokens of one well-formed sample line: label, then idx:val."""
    indices = sorted(draw(st.sets(st.integers(1, 3000), max_size=6)))
    tokens = [draw(NUMBERS)]
    for i in indices:
        tokens.append(draw(INDEX_FORMS).format(i) + ":" + draw(NUMBERS))
    return tokens


@st.composite
def documents(draw):
    """A list of lines: token lists for samples, strings for the rest."""
    kinds = st.one_of(
        sample_lines(), sample_lines(),
        st.just(""), SPACES,
        st.sampled_from(["# header", "#", "  # 1:2 x:y", "# café"]),
    )
    return draw(st.lists(kinds, max_size=10))


def render(draw, lines) -> str:
    out = []
    for line in lines:
        if isinstance(line, str):
            out.append(line)
            continue
        text = draw(SPACES).join(line)
        if draw(st.booleans()):
            text = draw(SPACES) + text
        if draw(st.booleans()):
            text += draw(SPACES) + "# " + draw(st.sampled_from(["c", "1:2", "#"]))
        out.append(text)
    eols = [draw(EOLS) for _ in out]
    text = "".join(line + eol for line, eol in zip(out, eols))
    if text and draw(st.booleans()):
        text = text[: -len(eols[-1])]
    return text


def outcome(parse, text):
    """What a parser makes of ``text``: its error message, or the exact
    bytes of every array it returns."""
    try:
        d = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return ("ok", d.n_features, d.labels.dtype, d.labels.tobytes(),
            [(i.dtype, i.tobytes(), v.dtype, v.tobytes()) for i, v in d.samples])


@FUZZ
@given(st.data())
def test_valid_texts_parse_bitwise_like_the_oracle(data):
    text = render(data.draw, data.draw(documents()))
    expected = outcome(parse_libsvm_oracle, text)
    assert expected[0] == "ok"
    # blocks of a few bytes put block edges everywhere
    with mock.patch.object(data_io, "_FAST_BLOCK", data.draw(st.integers(1, 48))):
        assert outcome(parse_libsvm, text) == expected


def _corrupt(draw, tokens):
    """Apply one fault to a sample line's tokens, in place."""
    kind = draw(st.sampled_from([
        "no_colon", "two_colons", "empty_index", "empty_value", "bad_value",
        "bad_index", "bad_label", "index_zero", "index_negative",
        "repeat_index", "decrease_index", "non_finite_value",
        "non_finite_label", "bare_token",
    ]))
    feats = len(tokens) - 1
    k = draw(st.integers(1, feats)) if feats else None
    if kind == "bare_token" or (k is None and "label" not in kind):
        pos = draw(st.integers(1, len(tokens)))
        tokens.insert(pos, draw(st.sampled_from(["junk", "5", ":", "::"])))
        return
    if kind == "bad_label":
        tokens[0] = draw(st.sampled_from(["abc", "1:2", "--1", "1,0"]))
    elif kind == "non_finite_label":
        tokens[0] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
    else:
        i_s, _, v_s = tokens[k].partition(":")
        if kind == "no_colon":
            tokens[k] = i_s + v_s
        elif kind == "two_colons":
            tokens[k] = f"{i_s}:{v_s}:{draw(NUMBERS)}"
        elif kind == "empty_index":
            tokens[k] = ":" + v_s
        elif kind == "empty_value":
            tokens[k] = i_s + ":"
        elif kind == "bad_value":
            tokens[k] = i_s + ":" + draw(st.sampled_from(["x", "1..0", "0x1"]))
        elif kind == "bad_index":
            tokens[k] = draw(st.sampled_from(["1.0", "a", "1e2"])) + ":" + v_s
        elif kind == "index_zero":
            tokens[k] = "0:" + v_s
        elif kind == "index_negative":
            tokens[k] = "-3:" + v_s
        elif kind == "repeat_index" and k > 1:
            tokens[k] = tokens[k - 1].partition(":")[0] + ":" + v_s
        elif kind == "decrease_index" and k > 1:
            try:
                prev = int(tokens[k - 1].partition(":")[0])
            except ValueError:  # the token before is itself corrupted
                prev = 2
            tokens[k] = f"{max(prev - draw(st.integers(1, 5)), 1)}:{v_s}"
        elif kind in ("repeat_index", "decrease_index"):
            tokens.insert(1, tokens[k])  # the same index twice
        else:
            tokens[k] = i_s + ":" + draw(st.sampled_from(
                ["nan", "inf", "-inf", "NaN", "+Infinity", "1e999"]))


@FUZZ
@given(st.data())
def test_corrupted_texts_fail_with_the_oracles_message(data):
    lines = data.draw(documents())
    lines.append(data.draw(sample_lines()))
    samples = [i for i, line in enumerate(lines) if not isinstance(line, str)]
    # one or two faults, on the same line or on two lines
    for _ in range(data.draw(st.integers(1, 2))):
        _corrupt(data.draw, lines[data.draw(st.sampled_from(samples))])
    text = render(data.draw, lines)
    expected = outcome(parse_libsvm_oracle, text)
    with mock.patch.object(data_io, "_FAST_BLOCK", data.draw(st.integers(1, 48))):
        assert outcome(parse_libsvm, text) == expected


# Documents of the fast path's language: the bytes 0-9 . + - e E : space
# and newline only, with LF or CRLF line ends.
DIGITS = st.text("0123456789", max_size=9)
# [+-]?digits[.digits] and its forms with an empty side, up to 18 digits:
# the fast path reads those of at most 15 digits from the digits, and
# gives the others to np.fromstring
SHORT_DECIMALS = st.builds(
    lambda sign, whole, point, frac: sign + whole + point + frac,
    st.sampled_from(["", "+", "-"]), DIGITS, st.sampled_from(["", "."]),
    DIGITS,
).filter(lambda s: any(c.isdigit() for c in s))
FAST_NUMBERS = st.one_of(
    st.sampled_from(["+1", "-1", "1", "0", "1e3", "-2.5E-3", ".5", "5.",
                     "+0.0", "-0.0", "007", "1E+2"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    SHORT_DECIMALS,
)
FAST_SPACES = st.sampled_from([" ", "  ", "   "])
FAST_EOLS = st.sampled_from(["\n", "\r\n"])
# each replaces the label or one idx:val token ({i} its index, {v} its
# value): a bad index, a bad value, or a colon out of place
FAST_FAULTS = st.sampled_from([
    "0:{v}", "1.5:{v}", "1e3:{v}", "+3:{v}", "1000000000000000:{v}",
    "{i}:1e", "{i}:1.5.3", "{i}:e5", "{i}:1e999", "1e", "1.5.3", "e5",
    "1e999", ":{v}", "{i}:", "{i}::{v}", ":",
])


@st.composite
def fast_sample_lines(draw):
    """Tokens of one well-formed line of the fast language; indices up to
    15 digits, some with leading zeros."""
    indices = sorted(draw(st.sets(
        st.one_of(st.integers(1, 3000), st.integers(10**14, 10**15 - 1)),
        max_size=6)))
    tokens = [draw(FAST_NUMBERS)]
    for i in indices:
        lead = "0" if i < 10**14 and draw(st.booleans()) else ""
        tokens.append(f"{lead}{i}:{draw(FAST_NUMBERS)}")
    return tokens


def _fast_corrupt(draw, tokens):
    """Put a fault in place of the label or of one idx:val token."""
    pos = draw(st.integers(0, len(tokens) - 1))
    i_s, _, v_s = tokens[pos].partition(":")
    tokens[pos] = draw(FAST_FAULTS).format(i=i_s, v=v_s or i_s)


def render_fast(draw, lines) -> str:
    out = []
    for line in lines:
        text = line if isinstance(line, str) else draw(FAST_SPACES).join(line)
        if draw(st.booleans()):
            text = draw(FAST_SPACES) + text
        if draw(st.booleans()):
            text += draw(FAST_SPACES)
        out.append(text)
    eols = [draw(FAST_EOLS) for _ in out]
    text = "".join(line + eol for line, eol in zip(out, eols))
    if text and draw(st.booleans()):
        text = text[: -len(eols[-1])]
    return text


@FUZZ
@given(st.data())
def test_fast_language_parses_like_the_oracle(data):
    """Blocks of a few bytes put block edges everywhere; a document
    without injected faults is read by the fast path."""
    lines = data.draw(st.lists(st.one_of(
        fast_sample_lines(), fast_sample_lines(), fast_sample_lines(),
        st.just(""), FAST_SPACES), max_size=10))
    samples = [line for line in lines if not isinstance(line, str)]
    faults = data.draw(st.integers(0, 2)) if samples else 0
    for _ in range(faults):
        _fast_corrupt(data.draw, data.draw(st.sampled_from(samples)))
    text = render_fast(data.draw, lines)
    expected = outcome(parse_libsvm_oracle, text)
    with (mock.patch.object(data_io, "_FAST_BLOCK",
                            data.draw(st.integers(1, 48))),
          mock.patch.object(data_io, "_parse_lines",
                            wraps=data_io._parse_lines) as parse_lines):
        assert outcome(parse_libsvm, text) == expected
        assert outcome(parse_libsvm, text.encode()) == expected
        if not faults:
            assert not parse_lines.called


def _model_header(draw):
    fields = {"task": "svc", "n": "2", "bias": "0", "c": "1.5", "eps": "0.0",
              "labels": "-1.0:1.0"}
    head = ["alm-svm", "v1"] + [f"{k}={v}" for k, v in fields.items()]
    junk = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                   max_size=8)
    pos = draw(st.integers(0, len(head) - 1))
    kind = draw(st.sampled_from(["replace", "value", "drop", "duplicate",
                                 "insert"]))
    if kind == "replace":
        head[pos] = draw(junk)
    elif kind == "value" and pos >= 2:
        head[pos] = head[pos].split("=")[0] + "=" + draw(st.one_of(
            junk, st.sampled_from(["", "nan", "inf", "-1", "0", "3", "x:y",
                                   "1:2:3", "nan:1.0", "1.0:-inf", "svm",
                                   "2.0"])))
    elif kind == "drop":
        del head[pos]
    elif kind == "duplicate":
        head.insert(pos, head[pos])
    else:
        head.insert(pos, draw(junk))
    return " ".join(head)


@FUZZ
@given(data=st.data())
def test_mutated_model_headers_raise_value_errors_naming_the_file(
        data, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "fuzz.model"
    write_model(Model(w=[0.25, -1.0], task="svc", label_map=(-1.0, 1.0),
                      c_used=1.5), path)
    header = _model_header(data.draw)
    weights = path.read_text().splitlines()[1:]
    if data.draw(st.booleans()):
        weights[data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from(["", "x", "nan", "inf", "1e999", "0.5 0.5"]))
    path.write_text("\n".join([header, *weights]) + "\n", encoding="utf-8")
    try:
        model = read_model(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    # the mutation left a valid file: what was read is a usable model
    assert model.task in ("svc", "svr")
    assert np.all(np.isfinite(model.w))
    assert math.isfinite(model.c_used) and math.isfinite(model.eps_used)
    if model.label_map is not None:
        assert all(math.isfinite(v) for v in model.label_map)


# indices around and past the int64 range; the parser stores indices as
# int64 and names the first index past it, in file order
HUGE_INDICES = st.one_of(st.integers(2**63 - 2, 2**63 + 2),
                         st.integers(2**63, 10**30))


@FUZZ
@given(st.data())
def test_indices_past_int64_fail_with_the_oracles_message(data):
    """A huge index, then possibly a later fault on the same line or
    after it: both parsers name the same first fault."""
    lines = data.draw(st.lists(fast_sample_lines(), min_size=1, max_size=5))
    target = data.draw(st.sampled_from(lines))
    pos = data.draw(st.integers(1, len(target)))
    target.insert(pos, f"{data.draw(HUGE_INDICES)}:{data.draw(FAST_NUMBERS)}")
    if data.draw(st.booleans()):
        _fast_corrupt(data.draw, data.draw(st.sampled_from(lines)))
    text = render_fast(data.draw, lines)
    expected = outcome(parse_libsvm_oracle, text)
    with mock.patch.object(data_io, "_FAST_BLOCK", data.draw(st.integers(1, 48))):
        assert outcome(parse_libsvm, text) == expected
        assert outcome(parse_libsvm, text.encode()) == expected


def test_index_past_int64_is_named_before_a_later_fault():
    for text, index in (("1 99999999999999999999:1", 99999999999999999999),
                        ("4850 19193056332713481157:6643253 0-54.1031-7e",
                         19193056332713481157)):
        expected = ("error", f"line 1: feature index {index} too large")
        assert outcome(parse_libsvm_oracle, text) == expected
        assert outcome(parse_libsvm, text) == expected


# values no scalar field takes: text, bytes, None, containers, complex
# numbers, bools, non-finite floats and integers past float64's range
NOT_A_REAL = st.one_of(
    st.text(max_size=4), st.binary(max_size=2), st.none(),
    st.lists(st.floats(), max_size=2).map(tuple),
    st.sampled_from([True, False, 1j, {}, [1.0], math.nan, math.inf,
                     -math.inf, 10**400, -(10**400)]))
# values no array field takes: none of them is an array of numbers
NOT_AN_ARRAY = st.one_of(
    st.text(max_size=4), st.binary(max_size=2),
    st.sampled_from([{}, [1j], [object()], [[1.0], [2.0, 3.0]], [None, "a"]]))
NOT_AN_INDEX_ARRAY = st.one_of(NOT_AN_ARRAY, st.none(), st.sampled_from(
    [[0.5, 2.0, 1.0], ["0", "2", "1"], [[0, 2, 1]]]))

# the three rows [0, 2], [1] and [] of a 3-column store
ROWS = {"row_ptr": [0, 2, 3, 3], "indices": [0, 2, 1],
        "values": [1.0, 2.0, 3.0]}
PAIRS = [([0, 2], [1.0, 2.0]), ([1], [3.0]), ([], [])]

# per constructor: its valid arguments, and per field a strategy of values
# that field does not take and the pattern a ValueError for it must match
CONSTRUCTORS = {
    "Samples": (Samples, ROWS, {
        "row_ptr": (st.one_of(NOT_AN_INDEX_ARRAY, st.sampled_from(
            [[], [0, 3, 2, 3], [-1, 2, 3, 3], [0, 2, 3, 4]])), "row_ptr"),
        "indices": (st.one_of(NOT_AN_INDEX_ARRAY, st.sampled_from(
            [[2, 0, 1], [0, 0, 1], [-1, 2, 1], [0, 2]])),
                    r"indices|^row \d+: index"),
        "values": (st.one_of(NOT_AN_ARRAY, st.none(), st.sampled_from(
            [[1.0, 2.0], [[1.0, 2.0, 3.0]]])), "values"),
    }),
    "Dataset": (Dataset, {"samples": PAIRS, "labels": [1.0, -1.0, 1.0],
                          "n_features": 3}, {
        "samples": (st.sampled_from(
            [None, 5, [5], [([0], [1.0], 0)], [([0],)], PAIRS[:2],
             [([1, 0], [1.0, 2.0])] * 3, [("a", [1.0])] * 3,
             [([0], "a")] * 3]), r"samples|indices|values|^row \d+: index"),
        "labels": (st.one_of(NOT_AN_ARRAY, st.none(), st.sampled_from(
            [[1.0], [[1.0, -1.0, 1.0]], [1.0, math.nan, 1.0],
             [1.0, -1.0, -math.inf]])), "label"),
        "n_features": (st.one_of(
            st.integers(max_value=2), st.floats(), st.text(max_size=2),
            st.sampled_from([None, True, 3.0, np.array(3)])), "n_features"),
    }),
    "SparseMatrix": (SparseMatrix, {
        "row_ptr": ROWS["row_ptr"], "col_idx": ROWS["indices"],
        "values": ROWS["values"], "shape": (3, 3)}, {
        "row_ptr": (st.one_of(NOT_AN_INDEX_ARRAY, st.sampled_from(
            [[0, 3, 2, 3], [1, 2, 3, 3], [0, 2, 3], [0, 2, 2, 2]])),
                    "row_ptr"),
        "col_idx": (st.one_of(NOT_AN_INDEX_ARRAY, st.sampled_from(
            [[2, 0, 1], [0, 0, 1], [-1, 2, 1], [0, 3, 1]])),
                    r"col_idx|indices|column|^row \d+: index"),
        "values": (st.one_of(NOT_AN_ARRAY, st.none(), st.sampled_from(
            [[1.0, 2.0], [1.0, math.nan, 3.0], [math.inf] * 3])), "values"),
        "shape": (st.sampled_from(
            [None, 3, (3,), (3, 3, 3), (3.0, 3), ("3", 3), (2, 3), (4, 3),
             (3, 2)]), "shape|column"),
    }),
    "Model": (Model, {"w": [1.0, -2.0], "task": "svc"}, {
        "w": (st.one_of(NOT_AN_ARRAY, st.none(), st.sampled_from(
            [[], [[1.0, 2.0]], [math.nan], 3.0])), "weights"),
        "task": (st.one_of(st.text(max_size=4).filter(
            lambda t: t not in ("svc", "svr")), st.sampled_from(
                [None, 5, ["svc"], b"svc"])), "task"),
        "bias_augmented": (st.one_of(st.text(max_size=2), st.sampled_from(
            [None, 0, 1, 1.0])), "bias"),
        # a pair with a malformed side, or no pair at all
        "label_map": (st.one_of(
            st.tuples(st.just(0.0), NOT_A_REAL),
            st.tuples(NOT_A_REAL, st.just(1.0)),
            st.sampled_from([(0.0,), (0.0, 1.0, 2.0), ("a", "b"), "ab", b"ab",
                             5, 0.5, {}, {0.0: 1.0, 1.0: 2.0}])),
                      "labels"),
        "c_used": (NOT_A_REAL, r"\bc\b"),
        "eps_used": (NOT_A_REAL, r"\beps\b"),
    }),
    "SolverConfig": (SolverConfig, {}, {
        "sigma0": (st.one_of(NOT_A_REAL, st.sampled_from([0.0, -1.0, 3.0])),
                   "sigma0"),
        "sigma_max": (st.one_of(NOT_A_REAL, st.just(0.1)), "sigma_max"),
        "theta": (st.one_of(NOT_A_REAL, st.sampled_from([0.0, -0.5, 1.5])),
                  "theta"),
        "tol": (st.one_of(NOT_A_REAL, st.sampled_from([0.0, -1e-6])), "tol"),
        "max_outer": (st.one_of(st.integers(max_value=0), st.floats(),
                                st.text(max_size=2), st.sampled_from(
                                    [None, True, [1], np.float64(2.0)])),
                      "max_outer"),
    }),
    "Hinge": (Hinge, {"C": 1.0}, {
        "C": (st.one_of(NOT_A_REAL, st.sampled_from([0.0, -1.0, "1"])),
              r"\bC\b"),
    }),
    "EpsInsensitive": (EpsInsensitive, {"C": 1.0, "eps": 0.1}, {
        "C": (st.one_of(NOT_A_REAL, st.sampled_from([0.0, -1.0])), r"\bC\b"),
        "eps": (st.one_of(NOT_A_REAL, st.sampled_from([-0.1, "0.1"])),
                r"\beps\b"),
    }),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_valid_arguments_build(name):
    build, valid, _ = CONSTRUCTORS[name]
    build(**valid)


@FUZZ
@given(st.data())
def test_a_malformed_field_raises_a_value_error_naming_it(data):
    """Each constructor, given valid arguments but one malformed field,
    raises a ValueError whose message names that field; never a
    TypeError or IndexError from deeper down."""
    name = data.draw(st.sampled_from(sorted(CONSTRUCTORS)))
    build, valid, fields = CONSTRUCTORS[name]
    field = data.draw(st.sampled_from(sorted(fields)))
    bad, pattern = fields[field]
    kwargs = {**valid, field: data.draw(bad)}
    with pytest.raises(ValueError, match=pattern):
        build(**kwargs)
