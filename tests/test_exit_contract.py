"""The exit-code contract over generated command lines.

Every argv ends in exit 0 (pass), 1 (verification failure), 2 (usage or
config error) or 3 (internal error), never in an exception, and every
report printed with --json is strict JSON.  Values are small numbers,
constants and malformed tokens; sizes stay small (grid and count <= 48,
granularity <= 6, k <= 4) so no example allocates large arrays.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab import catalog
from gqlab.cli import main

MALFORMED = ["", "nan", "1e400", ":", "abc"]
NUMBERS = ["0", "1", "2", "-1", "0.5", "1.7", "-2.5", "pi", "2*pi/3"]

_number = st.sampled_from(NUMBERS)


@st.composite
def _map_spec(draw):
    kind = draw(st.sampled_from(["identity", "shear", "rot", "translate", "pshift"]))
    if kind in ("identity", "shear"):
        return kind
    args = draw(st.lists(_number, min_size=1, max_size=3))
    return f"{kind}:{','.join(args)}"


# the flags of `_add_common` that take a value, with well-formed values
VALUED = {
    "--example": st.sampled_from(catalog.EXAMPLE_NAMES),
    "--k": st.sampled_from(["0", "1", "2", "3", "4", "-1"]),
    "--granularity": st.sampled_from(["0", "1", "2", "3", "4", "6"]),
    "--p-max": _number,
    "--map": _map_spec(),
    "--polarization": st.sampled_from(
        ["default", "horizontal", "vertical", "latitude", "momentum-circles"]
    ),
    "--range": st.builds(lambda lo, hi: f"{lo}:{hi}", _number, _number),
    "--count": st.sampled_from(["1", "2", "3", "8", "17", "48", "0", "-1"]),
    "--grid": st.sampled_from(["1", "2", "3", "8", "16", "48", "0", "-1"]),
    "--max-degree": st.sampled_from(["0", "1", "2", "3", "4", "-1"]),
    "--tol": st.sampled_from(["1e-8", "1e-6", "1e-12", "0", "-1", "0.5"]),
    "--rank-tol": st.sampled_from(["1e-8", "1e-4", "0", "1", "0.5"]),
    "--seed": st.sampled_from(["0", "1", "7", "-3"]),
    "--corrupt": st.builds(
        lambda a, b, f: f"lam:{a},{b}:{f}",
        st.integers(0, 3), st.integers(0, 3), _number,
    ),
    "--verify": st.sampled_from(["thm1", "thm2", "thm1,thm2", "thm3", ","]),
}
FLAGS = ["--include-lines", "--json", "--out", "--csv"]


@st.composite
def _common_argv(draw):
    """A command with up to six flags; at most one value is malformed."""
    argv = [draw(st.sampled_from(["check", "bs", "cohomology", "act"]))]
    flags = draw(st.lists(st.sampled_from(sorted(VALUED) + FLAGS), unique=True, max_size=6))
    valued = [f for f in flags if f in VALUED]
    bad = draw(st.sampled_from([None] + valued))
    for flag in flags:
        if flag == bad:
            argv += [flag, draw(st.sampled_from(MALFORMED))]
        elif flag in VALUED:
            argv += [flag, draw(VALUED[flag])]
        else:
            argv.append(flag)  # --out and --csv get a path when the test runs
    return argv


@st.composite
def _parse_expr_argv(draw):
    def pick(*values):
        return draw(st.sampled_from(list(values) + MALFORMED))

    argv = ["parse-expr", pick("x", "x + y", "exp(i*t)", "atan2(y, x)", "1/x", "log(0)", "1 + + *")]
    if draw(st.booleans()):
        argv += ["--vars", pick("x", "x,y", "t")]
    if draw(st.booleans()):
        argv += ["--diff", pick("x", "y", "t")]
    if draw(st.booleans()):
        argv += ["--at", pick("x=1", "x=0", "x=1,y=2", "t=0.5", "x=", "y", "x=pi")]
    return argv


def _strict(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(_common_argv(), _parse_expr_argv()))
def test_every_argv_keeps_the_exit_code_contract(argv):
    argv = list(argv)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for flag in ("--out", "--csv"):
            if flag in argv:
                argv.insert(argv.index(flag) + 1, os.path.join(tmp, flag[2:]))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert "config error:" in err.getvalue(), argv
        if code == 3:
            assert "internal" in err.getvalue(), argv
        if "--json" in argv and argv[0] != "parse-expr":
            if code in (0, 1):
                _strict(out.getvalue())
            else:
                assert out.getvalue() == "", argv
        if "--out" in argv and code in (0, 1):
            with open(argv[argv.index("--out") + 1]) as fh:
                _strict(fh.read())


# command lines that must end in a config error, with nothing on stderr but
# the one-line message: no NumPy warning on the way there
BAD_CONFIG = [
    ("bs", "--example", "torus", "--range", "0:1e308"),
    ("bs", "--example", "torus", "--range", "-1e308:1e308"),
    ("bs", "--example", "cylinder", "--range", "0:1e308"),
    ("bs", "--example", "cylinder", "--range", "-1e308:1e308"),
    ("cohomology", "--example", "cylinder", "--p-max", "1e308"),
]


@pytest.mark.parametrize("argv", BAD_CONFIG)
def test_bad_config_exits_2_with_no_warning(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    assert code == 2
    assert err.getvalue().startswith("config error:")
    assert err.getvalue().count("\n") == 1 and "Warning" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
