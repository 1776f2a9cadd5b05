"""cli._json_text, the report writer, against the json.dumps call it
replaces: the same text, and the same ValueError or TypeError."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab import cli


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _outcome(write, value):
    try:
        return write(value)
    except (ValueError, TypeError) as exc:
        return type(exc)


class Level(enum.IntEnum):  # an int subclass with its own repr
    LOW = 1
    HIGH = 7


class Tagged(float):  # a float subclass with its own repr
    def __repr__(self):
        return f"Tagged({float(self)})"


class Name(str):
    pass


class Table(dict):
    pass


class Row(list):
    pass


_SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f é€😀 '
_text = st.text(alphabet=st.one_of(st.characters(), st.sampled_from(_SPECIAL)), max_size=12)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _finite,
    _text,
    _finite.map(np.float64),
    _finite.map(Tagged),
    st.sampled_from(list(Level)),
    _text.map(Name),
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 2**64]),
)
# keys of one kind per dict, as sort_keys needs; mixed kinds raise TypeError
# in both writers
_keys = st.one_of(
    st.just(_text),
    st.just(st.integers()),
    st.just(_finite),
    st.just(st.one_of(st.booleans(), st.none())),
    st.just(st.one_of(_text, st.integers())),
)


@st.composite
def _dicts(draw, children):
    keys = draw(_keys)
    return draw(st.dictionaries(keys, children, max_size=5))


_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=3).map(Row),
        _dicts(children),
        _dicts(children).map(Table),
    ),
    max_leaves=30,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_values)
def test_writer_matches_json_dumps(value):
    assert _outcome(cli._json_text, value) == _outcome(_dumps, value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize(
    "where", [lambda v: v, lambda v: [1, v], lambda v: {"a": {"b": (v,)}}, lambda v: {v: 1}]
)
def test_writer_refuses_non_finite_floats(bad, where):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _dumps(where(bad))
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._json_text(where(bad))


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        object(),
        np.int64(3),
        np.bool_(True),
        1j,
        b"bytes",
        {"a": [np.arange(2)]},
        {(1, 2): 0},
        {"a": 1, 2: 3},  # keys sort_keys cannot order
    ],
)
def test_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_a_non_finite_report_is_an_internal_error(capsys, monkeypatch):
    real = cli._report

    def poisoned(cfg, payload, passed, seconds):
        return real(cfg, {**payload, "bad": float("nan")}, passed, seconds)

    monkeypatch.setattr(cli, "_report", poisoned)
    code = cli.main(["bs", "--example", "sphere", "--k", "2", "--count", "3", "--json"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("internal invariant violation: report is not strict JSON")
