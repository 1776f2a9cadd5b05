"""The functions of gqlab that no command reaches are a known list.

A small sweep of command lines runs under sys.setprofile: one line per
subcommand, every map kind, and the config-error and internal-error
paths.  Every function or method defined in src/gqlab that the sweep never
calls must be in KEEP, with the reason it stays; so API that only tests
read cannot grow back unnoticed, and a name that a command starts to reach
leaves KEEP.
"""

import ast
import sys
from pathlib import Path

import pytest

import gqlab
from gqlab import cli, expr, prequantum, program

SRC = Path(gqlab.__file__).resolve().parent

# module.qualified name -> the test or acceptance criterion that reads it,
# the one reason it stays though no command line reaches it
KEEP = {
    "catalog.untwisted_circle_example": "criterion untwisted-degeneration",
    "catalog.untwisted_circle_example.data_builder": "criterion untwisted-degeneration",
    "cech.TransversalGrid.sub_cell_for": "criterion res-laws",
    "cech.res": "criterion res-laws",
    "cech._pairs": "criterion res-laws (through res)",
    "cech._restrict": "criterion res-laws (through res)",
    "cech._member_transitions": "criterion res-laws (through res)",
    "cech.phi": "criterion psi-phi-isomorphism",
    "cech.LeafBlocks.toarray":
        "tests/test_cech.py::test_leaf_blocks_spectrum_matches_dense_svd",
    "geometry.Box.intersect":
        "tests/test_prequantum.py::test_nerve_matches_pairwise_construction",
    "prequantum.LocalData.transition_expr": "criterion rank-stability (through refine)",
    "prequantum.refine": "criterion rank-stability",
    "prequantum.split_boxes": "criterion rank-stability",
    "prequantum._axis_splits": "criterion rank-stability (through split_boxes)",
    "record.Record.__init_subclass__": "runs at import, as each record class is defined",
    "record.Record.__eq__":
        "tests/test_prequantum.py::test_refine_builds_its_nerve_at_least_to_degree_1",
    "record.Record.__hash__": "tests/test_immutability.py::test_replace_builds_the_copy_anew",
    "record.Record.__repr__": "tests/test_expr.py::test_node_reprs_name_their_fields",
    "record.Record.__setattr__": "tests/test_immutability.py::test_every_gqlab_record_is_immutable",
    "record.Record.__delattr__": "tests/test_immutability.py::test_every_gqlab_record_is_immutable",
}


def _lines(tmp):
    return [
        ("examples",),
        ("parse-expr", "x^3*sin(y)", "--vars", "x,y", "--diff", "x", "--at", "x=0.5,y=2"),
        ("check", "--example", "torus", "--k", "2", "--map", "translate:0.5,0"),
        ("check", "--example", "plane", "--granularity", "2", "--map", "shear"),
        ("bs", "--example", "torus", "--k", "2", "--count", "8",
         "--csv", str(tmp / "leaves.csv"), "--out", str(tmp / "report.json")),
        ("bs", "--example", "sphere", "--k", "2", "--count", "5", "--json"),
        ("bs", "--example", "disk", "--count", "5"),
        ("bs", "--example", "plane", "--count", "3", "--include-lines"),
        ("cohomology", "--example", "torus", "--k", "2", "--grid", "8"),
        ("cohomology", "--example", "cylinder", "--grid", "8", "--max-degree", "1"),
        ("act", "--example", "sphere", "--k", "2", "--map", "rot:1.0", "--grid", "8",
         "--count", "5"),
        ("act", "--example", "plane", "--granularity", "2", "--map", "shear",
         "--grid", "8", "--count", "5"),
        ("act", "--example", "cylinder", "--map", "pshift:1", "--grid", "8",
         "--count", "5"),
        ("act", "--example", "torus", "--k", "2", "--map", "translate:0.7,0",
         "--verify", "thm2", "--count", "5"),
        ("act", "--example", "torus", "--k", "1", "--map", "identity",
         "--verify", "thm2", "--count", "4"),
        ("act", "--example", "plane", "--granularity", "2", "--map", "shear",
         "--corrupt", "lam:0,1:1.01"),
        ("bs", "--count", "0"),  # config error
        ("parse-expr", "x+"),  # parse error
        ("bs", "--verify", "thm3"),  # usage error
    ]


def _poisoned_report(real):
    """cli._report with a NaN in the payload: the internal-error path."""
    def report(cfg, payload, passed, seconds):
        return real(cfg, {**payload, "bad": float("nan")}, passed, seconds)
    return report


def _defined_functions() -> dict:
    """(file, first line) -> module.qualified name of every function and
    method defined in src/gqlab; nested functions are named through their
    enclosing function."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                name = f"{prefix}.{child.name}"
                found[(str(path), first)] = name
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), path.stem)
    return found


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The exit codes of the sweep and the (file, first line) of every
    gqlab function it called."""
    tmp = tmp_path_factory.mktemp("surface")
    # a cached result would hide the calls behind it
    for cached in (cli._parser, program.compile_expr, expr.differentiate,
                   prequantum._empty_degree):
        cached.cache_clear()
    codes = []
    code_objects = set()

    def profile(frame, event, arg):
        if event == "call":
            code_objects.add(frame.f_code)

    real_report = cli._report
    sys.setprofile(profile)
    try:
        for argv in _lines(tmp):
            codes.append(cli.main(list(argv)))
        cli._report = _poisoned_report(real_report)
        codes.append(cli.main(["bs", "--example", "sphere", "--k", "2", "--count", "3"]))
    finally:
        sys.setprofile(None)
        cli._report = real_report
    calls = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in code_objects}
    return codes, calls


def test_the_sweep_takes_every_exit_path(sweep):
    codes, _ = sweep
    assert set(codes) == {0, 1, 2, 3}


def test_functions_no_command_reaches_are_the_kept_ones(sweep):
    _, calls = sweep
    unreached = {name for key, name in _defined_functions().items() if key not in calls}
    assert sorted(unreached - KEEP.keys()) == []  # delete it, or keep it with its reader
    assert sorted(KEEP.keys() - unreached) == []  # a command reaches it now
