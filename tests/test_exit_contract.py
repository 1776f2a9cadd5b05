"""The exit-code contract over generated command lines.

Every argv ends in exit 0 (pass), 1 (verification failure) or 2 (usage or
config error), never in 3 (internal error) or an exception, and every
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
from hypothesis import example, given, settings
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


# derivatives whose literals fold to a value that is not finite, and the
# quotient of two constants, whose derivative is 0 though b * b underflows
FOLDS = [
    (("parse-expr", "x*1e200*1e200", "--diff", "x"), "d/dx: 1e+200*1e+200"),
    (("parse-expr", "x/0", "--diff", "x"), "d/dx: 0/0"),
    (("parse-expr", "10/5e-324", "--diff", "x"), "d/dx: 0"),
]

# formulas nested or deep past expr.MAX_DEPTH, which the parser refuses
# before any recursion runs out
_DEEP = "(" * 300 + "1" + ")" * 300
DEEP = [
    ("parse-expr", "(" * 300 + "x" + ")" * 300),
    ("parse-expr", "^".join(["x"] * 1001)),
    ("parse-expr", "+".join(["x"] * 20000), "--diff", "x"),
    ("act", "--example", "torus", "--k", "1", "--map", f"translate:{_DEEP},0",
     "--verify", "thm2"),
]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(_common_argv(), _parse_expr_argv()))
@example(list(FOLDS[0][0]))
@example(list(FOLDS[1][0]))
@example(list(FOLDS[2][0]))
@example(list(DEEP[0]))
@example(list(DEEP[1]))
@example(list(DEEP[2]))
@example(list(DEEP[3]))
def test_every_argv_keeps_the_exit_code_contract(argv):
    argv = list(argv)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for flag in ("--out", "--csv"):
            if flag in argv:
                argv.insert(argv.index(flag) + 1, os.path.join(tmp, flag[2:]))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert "config error:" in err.getvalue(), argv
        if "--json" in argv and argv[0] != "parse-expr":
            if code in (0, 1):  # a report passes exactly when its command exits 0
                assert _strict(out.getvalue())["pass"] is (code == 0), argv
            else:
                assert out.getvalue() == "", argv
        if "--out" in argv and code in (0, 1):
            with open(argv[argv.index("--out") + 1]) as fh:
                _strict(fh.read())


@pytest.mark.parametrize("argv, line", FOLDS)
def test_a_fold_that_is_not_finite_stays_an_operation(argv, line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().splitlines()[-1] == line


# command lines that must end in a config error, with nothing on stderr but
# the one-line message: no NumPy warning on the way there
BAD_CONFIG = [
    ("bs", "--example", "torus", "--range", "0:1e308"),
    ("bs", "--example", "torus", "--range", "-1e308:1e308"),
    ("bs", "--example", "cylinder", "--range", "0:1e308"),
    ("bs", "--example", "cylinder", "--range", "-1e308:1e308"),
    ("cohomology", "--example", "cylinder", "--p-max", "1e308"),
    ("bs", "--example", "torus", "--k", "2", "--map", "shear", "--count", "8", "--json"),
    ("cohomology", "--example", "torus", "--map", "translate:1,0"),
    # flags the command does not read
    ("cohomology", "--example", "torus", "--grid", "8", "--range", "0:1",
     "--csv", "/tmp/x.csv", "--json"),
    ("bs", "--grid", "8", "--max-degree", "1", "--rank-tol", "0.1", "--seed", "3"),
    # a flag the command's parser does not define
    ("bs", "--verify", "thm3"),
    # a polarization the model lacks, refused before the map's obstruction
    ("act", "--example", "torus", "--k", "1", "--map", "translate:0.7,0",
     "--polarization", "nope"),
    # a model flag the model does not take
    ("bs", "--example", "plane", "--k", "5", "--json"),
    ("bs", "--example", "torus", "--p-max", "2"),
    # a theorem named twice
    ("act", "--example", "torus", "--k", "2", "--map", "translate:pi,0",
     "--verify", "thm1,thm1"),
    ("act", "--example", "torus", "--k", "2", "--map", "translate:pi,0",
     "--verify", "thm2,thm1,thm2", "--json"),
    # a seed NumPy's generator refuses
    ("act", "--example", "torus", "--k", "2", "--map", "translate:pi,0", "--seed", "-3"),
    # labels whose leaf action rounds by more than a quarter turn
    ("bs", "--example", "cylinder", "--range", "1e15:1000000000000003", "--count", "7"),
    # one sample across a window wider than one label
    ("bs", "--example", "cylinder", "--range", "1:2", "--count", "1"),
]


@pytest.mark.parametrize("argv", BAD_CONFIG + DEEP)
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


# maps whose arguments swamp float precision: the sampled map check refuses
# them before the complementary cover is built, as `check --map` does
SWAMPED_MAPS = [
    ("--example", "cylinder", "--map", "pshift:1e10"),
    ("--example", "torus", "--k", "1", "--map", "translate:1e15,0"),
    ("--example", "torus", "--k", "1", "--map", "translate:0,1e15"),
    ("--example", "plane", "--granularity", "2", "--map", "translate:1e300,0"),
    ("--example", "plane", "--granularity", "2", "--map", "translate:1e17,0"),
    ("--example", "plane", "--granularity", "1", "--map", "translate:1e300,0"),
    ("--example", "sphere", "--k", "2", "--map", "rot:1e17"),
    ("--example", "torus", "--k", "1", "--map", "translate:1e300,0"),
]


@pytest.mark.parametrize("argv", SWAMPED_MAPS)
def test_act_on_a_map_that_is_no_symplectomorphism_exits_1(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["act", *argv, "--json"])
        check = main(["check", *argv, "--json"])
    act_report, check_report = (_strict(line) for line in out.getvalue().splitlines())
    assert (code, check, err.getvalue()) == (1, 1, "")
    payload = act_report["payload"]
    assert act_report["pass"] is False and payload["status"] == "invalid_map"
    assert payload["symplectomorphism"] == check_report["payload"]["symplectomorphism"]
    assert payload["symplectomorphism"]["pass"] is False
