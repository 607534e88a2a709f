"""Property-based checks of the two readers of outside input.

``parse_libsvm`` must accept exactly what the token-at-a-time oracle
accepts, return bitwise the same arrays, and reject every corrupted text
with the oracle's message, on its fast path as well as on the per-line
one. ``read_model`` must turn every corrupted header into a
``ValueError`` that names the file.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from almsvm import data_io
from almsvm.baseline import parse_libsvm_oracle
from almsvm.cli import read_model, write_model
from almsvm.data_io import ParseError, parse_libsvm
from almsvm.metrics import Model

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
        st.sampled_from(["# header", "#", "  # 1:2 x:y"]),
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
    assert outcome(parse_libsvm, text) == expected


# Documents of the fast path's language: the bytes 0-9 . + - e E : space
# and newline only.
FAST_NUMBERS = st.one_of(
    st.sampled_from(["+1", "-1", "1", "0", "1e3", "-2.5E-3", ".5", "5.",
                     "+0.0", "-0.0", "007", "1E+2"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
FAST_SPACES = st.sampled_from([" ", "  ", "   "])
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
    text = "\n".join(out)
    return text + "\n" if out and draw(st.booleans()) else text


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
    with mock.patch.object(data_io, "_FAST_BLOCK", data.draw(st.integers(1, 48))):
        assert outcome(parse_libsvm, text) == expected
        assert outcome(parse_libsvm, text.encode()) == expected
        if not faults:
            assert data_io._parse_blocks(text.encode()) is not None


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
