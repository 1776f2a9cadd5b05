"""CLI behavior: exit codes, reports, determinism, CSV."""

import argparse
import csv
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gqlab import action, catalog, prequantum, trace
from gqlab import expr as ex
from gqlab.cli import ACT_READS, READS, RunConfig, _apply_corruption, main
from gqlab.prequantum import ConfigurationError, check_local_data


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def test_check_passes(capsys):
    code, report = run_json(capsys, "check", "--example", "torus", "--k", "1")
    assert code == 0 and report["pass"]
    assert report["schema"] == "gqlab.report/1"


def test_check_bad_k_is_config_error(capsys):
    code, _, err = run_cli(capsys, "check", "--example", "torus", "--k", "0")
    assert code == 2 and "config error" in err


def test_check_corruption_fails_with_exit_1(capsys):
    code, report = run_json(
        capsys, "check", "--example", "torus", "--k", "1",
        "--corrupt", "lam:0,1:1.01",
    )
    assert code == 1 and not report["pass"]
    assert 0.005 < report["payload"]["local_data"]["cocycle_max"] < 0.02


def test_bad_corruption_spec_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "check", "--example", "torus", "--corrupt", "nope"
    )
    assert code == 2


@pytest.mark.parametrize("example", ["cylinder", "torus"])
def test_corrupting_a_pair_that_does_not_overlap_is_config_error(capsys, example):
    # elements 0 and 2 of a granularity-5 cover do not meet, so no law reads
    # their transition, and the cover has none to corrupt
    code, out, err = run_cli(
        capsys, "check", "--example", example, "--granularity", "5",
        "--corrupt", "lam:0,2:1.01",
    )
    assert (code, out) == (2, "")
    assert err == "config error: no transition (0, 2) to corrupt\n"


def test_bs_torus_counts(capsys):
    code, report = run_json(capsys, "bs", "--example", "torus", "--k", "3")
    assert code == 0
    assert report["payload"]["census"]["q_bs"] == 3


def test_bs_cylinder_range(capsys):
    code, report = run_json(
        capsys, "bs", "--example", "cylinder", "--range", "-2.5:2.5",
        "--count", "11",
    )
    assert code == 0
    assert report["payload"]["census"]["q_bs"] == 5


def test_bs_sphere_reports_counts_separately(capsys):
    code, report = run_json(capsys, "bs", "--example", "sphere", "--k", "2")
    census = report["payload"]["census"]
    assert census["q_bs_smooth"] == 1 and census["q_bs_singular"] == 2
    lattice = report["payload"]["lattice"]
    assert lattice["count"] == 3 and lattice["interior_count"] == 1


@pytest.mark.parametrize("granularity", ["1", "2"])
@pytest.mark.parametrize("polarization", ["vertical", "horizontal"])
def test_bs_line_census_threads_no_leaf(capsys, granularity, polarization):
    # a line leaf is counted from its label: the payload is what threading
    # each line leaf gave, and no membership pattern is threaded
    code, report = run_json(capsys, "bs", "--example", "plane", "--granularity", granularity,
                            "--polarization", polarization, "--count", "3", "--include-lines")
    lines = [{"is_bs": True, "label": c, "singular": False, "topology": "line"}
             for c in (-3.5, 0.0, 3.5)]
    assert code == 0 and report["payload"] == {
        "census": {"bs_locations": [], "leaves": lines, "lines_excluded": 0, "q_bs": 3,
                   "q_bs_singular": 0, "q_bs_smooth": 0},
        "range": [-3.5, 3.5],
    }
    assert report["timing"]["counters"]["leaf_patterns"] == 0


def test_bs_line_leaf_off_the_cover_is_config_error(capsys):
    code, out, err = run_cli(capsys, "bs", "--example", "plane", "--range", "100:200",
                             "--include-lines")
    assert (code, out) == (2, "")
    assert err == "config error: leaf 100.0 crosses no cover element\n"


def test_bs_csv_output(tmp_path, capsys):
    path = tmp_path / "leaves.csv"
    code, _ = run_json(
        capsys, "bs", "--example", "cylinder", "--count", "7", "--csv", str(path)
    )
    assert code == 0
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert {"label", "topology", "is_bs", "action"} <= set(rows[0])


@pytest.mark.parametrize("argv", [
    ("--example", "torus", "--k", "2"),
    ("--example", "sphere", "--k", "3"),  # point leaves
    ("--example", "plane", "--include-lines"),  # line leaves: no holonomy cells
])
def test_bs_csv_rows_are_the_json_leaves(tmp_path, capsys, argv):
    path = tmp_path / "leaves.csv"
    code, report = run_json(capsys, "bs", *argv, "--csv", str(path))
    assert code == 0
    with path.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["label", "topology", "singular", "is_bs", "action", "phase",
                      "holonomy_re", "holonomy_im"]
    leaves = report["payload"]["census"]["leaves"]
    topologies = {leaf["topology"] for leaf in leaves}
    assert topologies == {"torus": {"circle"}, "sphere": {"circle", "point"},
                          "plane": {"line"}}[argv[1]]
    # str of a float is its repr, which reads back to the same bits
    want = [
        [str(leaf["label"]), leaf["topology"], str(leaf["singular"]), str(leaf["is_bs"]),
         str(leaf.get("action", "")), str(leaf.get("phase", "")),
         *map(str, leaf.get("holonomy", ("", "")))]
        for leaf in leaves
    ]
    assert rows == want


def test_cohomology_stability_across_grids(capsys):
    reports = {}
    for grid in ("32", "64"):
        _, rep = run_json(
            capsys, "cohomology", "--example", "torus", "--k", "1",
            "--grid", grid,
        )
        reports[grid] = rep["payload"]["cohomology"]
    per_leaf = [
        [d["betti_per_leaf"] for d in reports[g]["degrees"]] for g in ("32", "64")
    ]
    assert per_leaf[0] == per_leaf[1]


def test_cohomology_degree_cap_guard(capsys):
    code, _, err = run_cli(
        capsys, "cohomology", "--example", "plane", "--max-degree", "3"
    )
    assert code == 2


def test_cohomology_with_a_negative_betti_number_fails(capsys):
    # a corrupted transition breaks the cocycle law, and the ranks of delta
    # then leave Betti numbers no dimension can have
    argv = ("cohomology", "--example", "torus", "--k", "2", "--corrupt", "lam:1,0:1.01")
    code, report = run_json(capsys, *argv)
    assert code == 1 and report["pass"] is False
    assert [d["betti"] for d in report["payload"]["cohomology"]["degrees"]] == [0, -7, -7]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err == ""
    assert out.splitlines()[-1] == "cohomology: FAIL (negative Betti number in degree 1, 2)"


def test_act_sphere_rotation_passes(capsys):
    code, report = run_json(
        capsys, "act", "--example", "sphere", "--k", "3",
        "--map", "rot:1.0", "--verify", "thm2",
    )
    assert code == 0 and report["payload"]["thm2"]["pass"]


def test_act_plane_shear_both_theorems(capsys):
    code, report = run_json(
        capsys, "act", "--example", "plane", "--map", "shear",
        "--verify", "thm1,thm2",
    )
    assert code == 0
    assert report["payload"]["thm1"]["pass"] and report["payload"]["thm2"]["pass"]


def test_act_obstruction_dichotomy_never_internal_error(capsys):
    code, report = run_json(
        capsys, "act", "--example", "torus", "--k", "2",
        "--map", "translate:0.7,0", "--verify", "thm1",
    )
    assert code in (0, 1)
    assert report["payload"]["status"] in ("ok", "hypothesis-failed")
    if report["payload"]["status"] == "hypothesis-failed":
        witness = report["payload"]["thm1"]["witness"]
        assert witness["deviation"] > 1e-6


def test_unknown_map_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "act", "--example", "sphere", "--map", "shear"
    )
    assert code == 2


def test_reports_are_deterministic(capsys):
    def payload():
        _, report = run_json(
            capsys, "bs", "--example", "torus", "--k", "2"
        )
        report.pop("timing")
        return json.dumps(report, sort_keys=True)

    assert payload() == payload()

    def coh_payload():
        _, report = run_json(
            capsys, "act", "--example", "plane", "--map", "shear",
            "--seed", "3", "--grid", "16",
        )
        report.pop("timing")
        return json.dumps(report, sort_keys=True)

    assert coh_payload() == coh_payload()


def test_report_written_to_out(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "check", "--example", "plane", "--out", str(path)
    )
    assert code == 0 and path.exists()
    doc = json.loads(path.read_text())
    assert doc["config"]["example"] == "plane"


def test_parse_expr_command(capsys):
    code, out, _ = run_cli(
        capsys, "parse-expr", "exp(i*t)", "--at", "t=3.141592653589793"
    )
    assert code == 0 and "canonical: exp(i*t)" in out


def test_parse_expr_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "parse-expr", "1 + + *")
    assert code == 2


def test_examples_listing(capsys):
    code, out, _ = run_cli(capsys, "examples")
    assert code == 0
    for name in ("plane", "cylinder", "torus", "sphere", "disk"):
        assert name in out


def test_runconfig_round_trip():
    cfg = RunConfig(command="bs", example="torus", k=3, range=(0.0, 6.2))
    doc = cfg.to_dict()
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


def _built_nerves(monkeypatch) -> list:
    """(degree, cells) of each nerve catalog.build_nerve builds from now on."""
    built = []
    real = catalog.build_nerve

    def spy(*args, **kwargs):
        nerve = real(*args, **kwargs)
        built.append((nerve.max_degree, len(nerve)))
        return nerve

    monkeypatch.setattr(catalog, "build_nerve", spy)
    return built


TORUS = ("--example", "torus", "--k", "2", "--grid", "8")
ACT = ("act", *TORUS, "--map", "translate:pi,0")


@pytest.mark.parametrize("argv,want", [
    (("bs", "--example", "torus", "--k", "2"), 0),
    (("check", "--example", "torus", "--k", "2"), 2),
    (("cohomology", *TORUS, "--max-degree", "0"), 1),
    (("cohomology", *TORUS, "--max-degree", "1"), 2),
    (("cohomology", *TORUS, "--max-degree", "2"), 3),
    (ACT, 3),
    ((*ACT, "--verify", "thm1"), 3),
    (("act", *TORUS[:4], "--map", "translate:pi,0", "--verify", "thm2"), 2),  # no --grid
])
def test_each_command_builds_the_nerve_it_reads(capsys, monkeypatch, argv, want):
    built = _built_nerves(monkeypatch)
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert [degree for degree, _ in built] == [want]
    assert report["timing"]["counters"]["nerve_cells"] == built[0][1]


def test_examples_listing_builds_no_overlaps(capsys, monkeypatch):
    built = _built_nerves(monkeypatch)
    assert run_cli(capsys, "examples")[0] == 0
    assert [degree for degree, _ in built] == [0] * len(catalog.EXAMPLE_NAMES)


@pytest.mark.parametrize("argv,want", [
    (("bs", "--example", "torus", "--k", "2"), 1),
    (("check", "--example", "torus", "--k", "2"), 1),
    (("cohomology", *TORUS), 1),
    ((*ACT, "--verify", "thm1,thm2"), 1),  # the pulled cover reads the source's pairs
    # a one-element cover searches too, about 30 us, where its builder did not
    (("bs", "--example", "plane"), 1),
    (("bs", "--example", "disk"), 1),
    (("examples",), len(catalog.EXAMPLE_NAMES)),  # one per model's nerve
])
def test_each_command_searches_the_pairs_once_per_cover(capsys, monkeypatch, argv, want):
    searches = []
    real = prequantum.overlaps

    def spy(*args):
        searches.append(args[0].name)
        return real(*args)

    for module in list(sys.modules.values()):  # every gqlab name bound to it
        if module.__name__.startswith("gqlab") and vars(module).get("overlaps") is real:
            monkeypatch.setattr(module, "overlaps", spy)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(searches) == want


@pytest.mark.parametrize("example", ["torus", "cylinder", "plane"])
@pytest.mark.parametrize("max_degree", ["0", "1"])
def test_low_degree_cohomology_equals_the_full_nerve_build(
    capsys, monkeypatch, example, max_degree
):
    argv = ("cohomology", "--example", example, "--grid", "16", "--max-degree", max_degree)
    code, report = run_json(capsys, *argv)
    assert code == 0
    real = catalog.build_nerve
    monkeypatch.setattr(  # every nerve as deep as the library builds it
        catalog, "build_nerve", lambda manifold, elements, _: real(manifold, elements)
    )
    code, full = run_json(capsys, *argv)
    assert code == 0
    cells = (report["timing"]["counters"]["nerve_cells"],
             full["timing"]["counters"]["nerve_cells"])
    assert cells[0] < cells[1] if example == "torus" else cells[0] == cells[1]
    assert json.dumps(report["payload"]) == json.dumps(full["payload"])


@pytest.mark.parametrize("argv", [
    ("check", "--example", "plane", "--map", "shear"),
    ("bs", "--example", "cylinder", "--range", "-1:1"),
    ("cohomology", "--example", "plane", "--grid", "8"),
    ("act", "--example", "plane", "--map", "shear", "--count", "8", "--verify", "thm2"),
])
def test_config_echo_lists_the_settings_the_command_reads(capsys, argv):
    code, report = run_json(capsys, *argv)
    assert code == 0
    settings = set(RunConfig._fields)
    reads = READS[argv[0]] | (ACT_READS["thm2"] if argv[0] == "act" else set())
    assert set(report["config"]) == {"command"} | (reads & settings)
    assert report["config"]["command"] == argv[0]
    if argv[0] == "bs":
        assert report["config"]["range"] == [-1.0, 1.0]
        assert not {"grid", "max_degree", "rank_tol", "seed", "verify"} & set(report["config"])


def test_only_check_and_act_read_tol(capsys):
    # the census decides is_bs by its own rule, so --tol is the law
    # tolerance of check and act alone
    code, out, err = run_cli(capsys, "bs", "--example", "torus", "--tol", "1e-6")
    assert (code, out, err) == (2, "", "config error: bs does not read --tol\n")
    for argv in (("check", "--example", "torus"),
                 ("act", "--example", "torus", "--k", "2", "--map", "translate:pi,0",
                  "--verify", "thm2", "--count", "8")):
        code, report = run_json(capsys, *argv, "--tol", "1e-6")
        assert code == 0 and report["config"]["tol"] == 1e-6, argv


_ACT_ECHO = {"command", "example", "k", "granularity", "p_max", "corrupt",
             "map", "polarization", "tol", "verify"}


@pytest.mark.parametrize("verify,flags,echo,refused", [
    ("thm1", ("--grid", "8", "--rank-tol", "1e-9", "--seed", "3"),
     {"grid", "rank_tol", "seed"}, ("--count", "8")),
    ("thm2", ("--range", "-1:1", "--count", "8"), {"range", "count"}, ("--grid", "8")),
    ("thm1,thm2", ("--grid", "8", "--count", "8"),
     {"grid", "rank_tol", "seed", "range", "count"}, ("--max-degree", "1")),
])
def test_act_reads_the_settings_of_the_theorems_it_verifies(
    capsys, verify, flags, echo, refused
):
    argv = ("act", "--example", "plane", "--map", "shear", "--verify", verify)
    code, report = run_json(capsys, *argv, *flags)
    assert code == 0
    assert set(report["config"]) == _ACT_ECHO | echo
    code, out, err = run_cli(capsys, *argv, *flags, *refused)
    assert (code, out) == (2, "")
    assert err == f"config error: act does not read {refused[0]}\n"
    # the targets are validated before the flags they read
    code, _, err = run_cli(capsys, "act", "--verify", "thm3", *refused)
    assert code == 2 and err.startswith("config error: unknown verification targets")


def test_act_builds_the_complementary_cover_once(capsys, monkeypatch):
    import gqlab.cli as cli

    calls = []
    real = action.build_complementary

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_complementary", counted)
    monkeypatch.setattr(action, "build_complementary", counted)
    code, report = run_json(
        capsys, "act", "--example", "cylinder", "--map", "pshift:1",
        "--verify", "thm1,thm2",
    )
    assert code == 0 and report["payload"]["status"] == "ok"
    assert len(calls) == 1
    calls.clear()
    code, report = run_json(
        capsys, "act", "--example", "cylinder", "--map", "pshift:0.4",
        "--verify", "thm1,thm2",
    )
    assert code == 1 and report["payload"]["status"] == "hypothesis-failed"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("cohomology", "--grid", "0"),
        ("act", "--map", "translate:1,2,3"),
        ("act", "--example", "plane", "--map", "rot:abc"),
        ("act", "--map", "translate:nan,0"),
        ("act", "--example", "torus", "--k", "2", "--map", "translate:pi,0",
         "--verify", ","),
        ("act", "--example", "torus", "--k", "2", "--map", "translate:pi,0",
         "--verify", ""),
        ("act", "--verify", "thm3"),
        ("bs", "--example", "torus", "--count", "8", "--verify", "thm3"),
        ("cohomology", "--example", "torus", "--verify", ","),
        ("bs", "--example", "disk", "--range", "0:100"),
        ("bs", "--range", "nan:1"),
        ("bs", "--range", "3:1"),
        ("bs", "--count", "0"),
        ("bs", "--tol", "-1"),
        ("cohomology", "--rank-tol", "2"),
        ("bs", "--example", "cylinder", "--p-max", "1e400"),
        ("bs", "--example", "cylinder", "--p-max", "0"),
        ("parse-expr", "x", "--at", "x="),
        ("parse-expr", "x", "--at", "y"),
        ("parse-expr", "x+y", "--at", "x=1"),
        ("parse-expr", "x", "--at", "x=1,x=2"),
        ("parse-expr", "1e400"),
        ("check", "--example", "plane", "--out", "/nonexistent/dir/r.json"),
        ("bs", "--example", "torus", "--csv", "/nonexistent/dir/r.csv"),
    ],
)
def test_bad_config_exits_2_without_traceback(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
def test_each_model_takes_the_flags_the_catalog_declares(capsys, name):
    valid = {"--k": "1", "--granularity": "1" if name == "plane" else "3",
             "--p-max": "3.5"}
    for flag, value in valid.items():
        code, _, err = run_cli(capsys, "bs", "--example", name, "--count", "3",
                               flag, value)
        if flag[2:].replace("-", "_") in catalog.PARAMETERS[name]:
            assert code == 0, (flag, err)
        else:
            assert (code, err) == (2, f"config error: {name} does not take {flag}\n")


def test_negative_max_degree_exits_2_without_traceback(capsys):
    code, out, err = run_cli(capsys, "cohomology", "--max-degree", "-1")
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "bs"])
@pytest.mark.parametrize("factor", ["nan", "inf", "-inf", "0"])
def test_corruption_factor_must_be_a_transition(capsys, command, factor):
    code, _, err = run_cli(
        capsys, command, "--example", "torus", "--corrupt", f"lam:0,1:{factor}"
    )
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err


def test_bs_reports_root_solving_counters(capsys):
    code, report = run_json(
        capsys, "bs", "--example", "torus", "--k", "3", "--range", "0.05:6.3332"
    )
    assert code == 0
    counters = report["timing"]["counters"]
    assert counters["root_brackets"] >= 3
    assert 0 < counters["root_holonomy_evaluations"] <= 12 * counters["root_brackets"]
    assert "counters" not in json.dumps(report["payload"])


def test_bs_root_solving_stays_cheap_on_the_benchmark_census(capsys, monkeypatch):
    # about 2 holonomies a bracket on the phase branch that is smooth
    # through each crossing; Brent on Im(hol) spent about 4.5
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = importlib.import_module("workloads")
    ops = workloads.warmup_ops("census")
    for seed in (1, 2, 3):
        ops += workloads.round_ops("census", seed)
    for op in ops:
        code = main(list(op.argv))
        report = json.loads(capsys.readouterr().out)
        counters = report["timing"]["counters"]
        assert code == op.exit_code and op.check(report) == [], op.argv
        assert (
            counters["root_holonomy_evaluations"] <= 3 * counters["root_brackets"]
        ), op.argv


def test_each_benchmark_census_line_takes_one_lockstep_step(capsys, monkeypatch):
    # every crossing search of a seed 1-3 census line ends in its first
    # batch: the two labels either side of its secant estimate straddle the
    # root, and the census reads both
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    workloads = importlib.import_module("workloads")
    for seed in (1, 2, 3):
        for op in workloads.round_ops("census", seed):
            assert main(list(op.argv)) == 0
            counters = json.loads(capsys.readouterr().out)["timing"]["counters"]
            assert counters["root_brackets"] > 0, op.argv
            assert counters["root_steps"] == 1, op.argv
            assert (
                counters["root_holonomy_evaluations"] == 2 * counters["root_brackets"]
            ), op.argv
            assert counters["census_refinements"] == 0, op.argv
    # so does each of the two censuses of theorem 2 on an invariance line
    # that passes; a census with no bracket (the plane's) takes no batch
    censuses = []  # the counts of each census
    census = action.bs_census

    def recording(*args):
        with trace.counting() as counts:
            rep = census(*args)
        censuses.append(counts)
        return rep

    monkeypatch.setattr(action, "bs_census", recording)
    searched = 0
    for seed in (1, 2, 3):
        for op in workloads.round_ops("invariance", seed):
            if op.exit_code != 0:
                continue
            censuses.clear()
            assert main(list(op.argv)) == 0
            capsys.readouterr()
            assert len(censuses) == 2, op.argv
            for counts in censuses:
                assert counts["root_steps"] == (counts["root_brackets"] > 0), op.argv
                assert counts["root_holonomy_evaluations"] == 2 * counts["root_brackets"], op.argv
                assert counts["census_refinements"] == 0, op.argv
                searched += counts["root_brackets"] > 0
    assert searched > 0


@pytest.mark.parametrize("count,most", [(12, 40), (10, 18)])
def test_bs_root_solving_when_the_phase_steps_past_pi(capsys, count, most):
    # the phase advances 1.6 pi (count 10) or 4 pi / 3 (count 12) between
    # samples; the flux unwraps each step, so every BS height is found, by
    # two holonomies a bracket
    code, report = run_json(
        capsys, "bs", "--example", "torus", "--k", "8", "--count", str(count)
    )
    assert code == 0
    census = report["payload"]["census"]
    locations = np.array(census["bs_locations"])
    heights = np.round(locations / (math.pi / 4))
    assert np.all(np.abs(locations - heights * math.pi / 4) <= 1e-12)
    assert heights.tolist() == list(range(8)) and census["q_bs"] == 8
    counters = report["timing"]["counters"]
    assert 0 < counters["root_holonomy_evaluations"] <= most
    assert counters["root_holonomy_evaluations"] == 2 * counters["root_brackets"]


def test_act_on_broken_local_data_fails_before_the_theorems(capsys):
    code, report = run_json(
        capsys, "act", "--example", "plane", "--granularity", "2",
        "--corrupt", "lam:0,1:1.01", "--map", "shear",
    )
    payload = report["payload"]
    assert code == 1 and report["pass"] is False
    assert payload["status"] == "invalid_local_data"
    assert not payload["local_data"]["pass"]
    assert 0.005 < payload["local_data"]["inverse_max"] < 0.02
    assert "thm1" not in payload and "thm2" not in payload


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    import gqlab.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "bs_census", broken)
    code, out, err = run_cli(capsys, "bs", "--example", "torus", "--json")
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_quadrature_failure_is_config_error(capsys, monkeypatch):
    import gqlab.cli as cli
    from gqlab.quadrature import QuadratureError

    def diverges(*args, **kwargs):
        raise QuadratureError("no convergence on [0, 1]")

    monkeypatch.setattr(cli, "bs_census", diverges)
    code, _, err = run_cli(capsys, "bs", "--example", "torus")
    assert code == 2 and err.startswith("config error: no convergence")


def _strict(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "argv",
    [
        ("cohomology", "--example", "torus", "--k", "1", "--grid", "16"),
        ("cohomology", "--example", "plane", "--grid", "8"),
        ("act", "--example", "plane", "--map", "shear", "--grid", "16"),
        ("act", "--example", "cylinder", "--map", "pshift:0.4"),
        ("bs", "--example", "sphere", "--k", "2"),
    ],
)
def test_reports_are_strict_json(tmp_path, capsys, argv):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path), "--json")
    assert code in (0, 1)
    assert path.read_bytes() == out.encode()  # --out writes what --json prints
    report = _strict(out)
    # compact and on one line: exactly the text json.dumps gives for it
    assert out == json.dumps(report, sort_keys=True) + "\n"
    assert out.count("\n") == 1
    if argv[0] == "cohomology":
        gaps = [d["sv_gap"] for d in report["payload"]["cohomology"]["degrees"]]
        assert None in gaps


def test_non_finite_report_value_is_internal_error(capsys, monkeypatch):
    import gqlab.cli as cli

    real = cli._report

    def poisoned(cfg, exm, counts, payload, passed, t0):
        return real(cfg, exm, counts, {**payload, "bad": float("nan")}, passed, t0)

    monkeypatch.setattr(cli, "_report", poisoned)
    code, out, err = run_cli(capsys, "bs", "--example", "sphere", "--k", "2")
    assert code == 3 and out == "" and "not strict JSON" in err


@pytest.mark.parametrize(
    "argv,want",
    [
        (("act", "--example", "torus", "--k", "2", "--map", "translate:pi,0"), 0),
        (("act", "--example", "torus", "--k", "2", "--map", "translate:2*pi/3,0"), 1),
        (("act", "--example", "torus", "--k", "3", "--map", "translate:2*pi/3,0"), 0),
        (("act", "--example", "plane", "--map", "rot:pi/4"), 0),
        (("act", "--example", "sphere", "--k", "2", "--map", "rot:pi/4"), 0),
    ],
)
def test_map_arguments_are_constant_expressions(capsys, argv, want):
    code, report = run_json(capsys, *argv, "--grid", "12", "--count", "12")
    assert code == want
    assert report["pass"] is (want == 0)


def _builtin(name):
    return catalog.example(name, **({"k": 1} if name in ("torus", "sphere") else {}))


@pytest.mark.parametrize(
    "example,spec,literal",
    [
        ("torus", "translate:pi,0", "translate:3.141592653589793,0"),
        ("torus", "translate:2*pi/3,0", "translate:2.0943951023931953,0"),
        ("plane", "rot:pi/4", "rot:0.7853981633974483"),
        ("cylinder", "pshift:1/2", "pshift:0.5"),
    ],
)
def test_map_expression_equals_its_decimal_value(example, spec, literal):
    exm = _builtin(example)
    got, want = catalog.make_map(exm, spec), catalog.make_map(exm, literal)
    assert (got.name, got.forward, got.inverse) == (want.name, want.forward, want.inverse)


@pytest.mark.parametrize(
    "example,spec,name",
    [
        ("torus", "translate:0.7,0", "translate:0.7,0.0"),
        ("torus", "translate:-0,1e-3", "translate:-0.0,0.001"),
        ("torus", "translate:3.141592653589793", "translate:3.141592653589793,0.0"),
        ("plane", "rot:.5", "rot:0.5"),
        ("sphere", "rot:-2", "rot:-2.0"),
        ("cylinder", "pshift:1", "pshift:1.0"),
    ],
)
def test_numeric_map_arguments_keep_their_float_names(example, spec, name):
    exm = _builtin(example)
    assert catalog.make_map(exm, spec).name == name


@pytest.mark.parametrize(
    "spec",
    ["translate:x,0", "translate:i,0", "translate:1/0,0", "translate:log(0),0",
     "translate:1e400,0", "translate:pi+,0", "translate:,0"],
)
def test_map_argument_must_be_a_finite_real_constant(capsys, spec):
    code, out, err = run_cli(capsys, "act", "--example", "torus", "--map", spec)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "Traceback" not in err


def test_corruption_leaves_the_example_untouched():
    exm = catalog.example("torus", k=1)
    before = dict(exm.cover.data.transitions)
    bad = _apply_corruption(exm, "lam:0,1:1.01")
    assert exm.cover.data.transitions == before
    assert all(exm.cover.data.transitions[p] is lam for p, lam in before.items())
    assert bad.cover.data.transitions[(0, 1)] != before[(0, 1)]
    assert bad.cover.nerve is exm.cover.nerve
    assert check_local_data(exm.cover).passed
    assert not check_local_data(bad.cover).passed


def test_corrupted_check_matches_corruption_in_place(capsys):
    # the residuals of the corrupted copy equal those of a cover whose
    # transition is scaled by hand
    code, report = run_json(
        capsys, "check", "--example", "torus", "--k", "1",
        "--corrupt", "lam:0,1:1.01",
    )
    cover = catalog.example("torus", k=1).cover
    lams = dict(cover.data.transitions)
    lams[(0, 1)] = ex.mul(ex.Num(1.01), lams[(0, 1)])
    cover = cover._replace(data=cover.data._replace(transitions=lams))
    assert code == 1
    assert report["payload"]["local_data"] == check_local_data(cover).as_dict()


def test_cohomology_reports_work_counters(capsys):
    argv = ("cohomology", "--example", "torus", "--k", "2", "--grid", "16")
    code, report = run_json(capsys, *argv)
    assert code == 0
    counters = report["timing"]["counters"]
    assert set(counters) == {
        "transport_integrals", "transport_batches", "transport_exact", "leaf_blocks",
        "svd_calls", "formula_runs", "nerve_cells", "quadrature_bisections",
    }
    # one quadrature sweep per face, each for several labels; no torus
    # integrand reads t, so every row is in closed form
    assert 0 < counters["transport_batches"] < counters["transport_integrals"]
    assert counters["transport_exact"] == counters["transport_integrals"]
    assert 0 < counters["svd_calls"] < counters["leaf_blocks"]
    assert "counters" not in json.dumps(report["payload"])
    _, again = run_json(capsys, *argv)
    assert again["timing"]["counters"] == counters


def test_cohomology_integrates_each_live_entry_once(capsys, monkeypatch):
    # one transport call for the grid, every degree's entries: each live row
    # integrated as given, in one closed-form quadrature call on the torus
    from gqlab.transport import LeafTransport

    rows = []
    integral = LeafTransport.integral

    def recorded(self, elements, t0, t1, labels):
        rows.append(np.column_stack([elements, labels, t0, t1]).astype(float))
        return integral(self, elements, t0, t1, labels)

    monkeypatch.setattr(LeafTransport, "integral", recorded)
    code, report = run_json(capsys, "cohomology", "--example", "torus", "--k", "2",
                            "--grid", "32")
    assert code == 0 and len(rows) == 1
    live = int((rows[0][:, 2] != rows[0][:, 3]).sum())
    counters = report["timing"]["counters"]
    assert counters["transport_batches"] == 1
    assert counters["transport_integrals"] == counters["transport_exact"] == live > 0


@pytest.mark.parametrize("name", sorted(catalog.PARAMETERS))
def test_bs_and_cohomology_compute_no_samples(capsys, monkeypatch, name):
    # a nerve's samples are computed when a law reads them: bs and
    # cohomology read none, check reads degrees 0 to 2
    from gqlab import prequantum

    sampled = []
    sampler = prequantum._degree_samples

    def counted(manifold, lo, hi, degree):
        sampled.append(degree)
        return sampler(manifold, lo, hi, degree)

    monkeypatch.setattr(prequantum, "_degree_samples", counted)
    assert run_json(capsys, "bs", "--example", name, "--count", "5")[0] == 0
    assert run_json(capsys, "cohomology", "--example", name, "--grid", "8")[0] == 0
    assert sampled == []
    assert run_json(capsys, "check", "--example", name)[0] == 0
    assert 0 < len(sampled) <= 3 and sampled == sorted(set(sampled))


def test_bs_reports_transport_counters(capsys, monkeypatch):
    import gqlab.bohr as bohr

    covers = []  # the cover of each batch, sampled or root step
    leaf_actions = bohr.leaf_actions

    def counted(transport, leaves):
        covers.append(transport.cover)
        return leaf_actions(transport, leaves)

    monkeypatch.setattr(bohr, "leaf_actions", counted)
    argv = ("bs", "--example", "torus", "--k", "3", "--range", "0.05:6.3332")
    code, report = run_json(capsys, *argv)
    assert code == 0
    counters = report["timing"]["counters"]
    assert set(counters) == {
        "root_brackets", "root_holonomy_evaluations", "root_steps",
        "census_refinements", "transport_integrals", "transport_batches",
        "transport_exact", "leaf_patterns", "formula_runs", "nerve_cells",
        "quadrature_bisections",
    }
    # the sampled leaves and each root batch share one sweep per segment
    assert 0 < counters["transport_batches"] < counters["transport_integrals"]
    # each membership pattern is threaded once; each batch makes one
    # transition call, which runs each distinct transition formula of
    # its switches once: at least one and at most the cover's formulas per
    # batch, fewer than one per leaf (one per switch would be three per
    # leaf on this granularity-3 torus)
    threaded = (
        len(report["payload"]["census"]["leaves"])
        + counters["root_holonomy_evaluations"]
    )
    assert 0 < counters["leaf_patterns"] <= 9 < threaded
    formulas = len(set(covers[0].data.transitions.values()))
    assert 0 < len(covers) <= counters["formula_runs"] <= formulas * len(covers)
    assert counters["formula_runs"] < threaded
    assert "transport" not in json.dumps(report["payload"])
    _, again = run_json(capsys, *argv)
    assert again["timing"]["counters"] == counters


def test_check_reports_the_evaluator_runs_of_its_law_check(capsys):
    code, report = run_json(capsys, "check", "--example", "torus", "--k", "3")
    assert code == 0
    counters = report["timing"]["counters"]
    assert set(counters) == {"formula_runs", "nerve_cells"}
    assert 0 < counters["formula_runs"] < counters["nerve_cells"]
    assert "counters" not in json.dumps(report["payload"])


def test_act_reports_work_counters(capsys):
    argv = ("act", "--example", "torus", "--k", "2", "--grid", "16",
            "--map", f"translate:{math.pi:.17g},0")
    code, report = run_json(capsys, *argv)
    assert code == 0
    counters = report["timing"]["counters"]
    assert set(counters) == {
        "gauge_exact", "gauge_integrals", "gauge_nodes", "grid_builds",
        "transport_integrals", "transport_batches", "transport_exact", "leaf_blocks", "svd_calls",
        "formula_runs", "root_brackets", "root_holonomy_evaluations",
        "root_steps", "census_refinements", "leaf_patterns", "nerve_cells",
        "quadrature_bisections",
    }
    assert counters["grid_builds"] == 2
    # the torus translation's gauge form reads neither leg's variable: every
    # leg is in closed form, one point (its midpoint) per leg
    assert counters["gauge_integrals"] == 0 < counters["gauge_exact"]
    assert counters["gauge_nodes"] == counters["gauge_exact"]
    assert "counters" not in json.dumps(report["payload"])
    _, again = run_json(capsys, *argv)
    assert again["timing"]["counters"] == counters
    # the plane shear's y legs are integrated, each at least one 15-point pass
    code, report = run_json(capsys, "act", "--example", "plane", "--granularity", "2",
                            "--grid", "16", "--map", "shear")
    counters = report["timing"]["counters"]
    assert code == 0 and counters["gauge_exact"] > 0
    assert 0 < 15 * counters["gauge_integrals"] <= counters["gauge_nodes"]
    # theorem 2 alone builds no grid; an obstructed map takes the gauge
    # legs and stops there
    code, report = run_json(capsys, *argv[:-1], "translate:0.7,0")
    assert code == 1
    assert set(report["timing"]["counters"]) == {
        "gauge_exact", "gauge_integrals", "gauge_nodes", "nerve_cells", "formula_runs",
        "quadrature_bisections",
    }
    # (theorem 2 reads no --grid)
    code, report = run_json(capsys, *argv[:5], *argv[7:], "--verify", "thm2")
    assert code == 0 and "grid_builds" not in report["timing"]["counters"]


@pytest.mark.parametrize(
    "k,crange,want",
    [(1, "-7:7", [-2.0 * math.pi]), (2, "0:20", [0.0, math.pi])],
)
def test_bs_wide_periodic_window_counts_each_leaf_once(capsys, k, crange, want):
    code, report = run_json(
        capsys, "bs", "--example", "torus", "--k", str(k), "--range", crange
    )
    census = report["payload"]["census"]
    assert code == 0 and census["q_bs"] == k
    assert np.allclose(census["bs_locations"], want, atol=1e-9)


def test_parser_is_built_once(capsys):
    import gqlab.cli as cli

    assert cli._parser() is cli._parser()
    # a parse leaves no state behind: a bad argv, then a good one
    assert run_cli(capsys, "bs", "--count", "x")[0] == 2
    code, report = run_json(capsys, "bs", "--example", "cylinder")
    assert code == 0 and report["config"]["count"] == 33


def test_commands_never_import_numpy_ma():
    # numpy.ma costs a cold process 20-37 ms; a bare np.unique call imports
    # it (np.ma.is_masked), so a fresh interpreter runs each command and
    # then looks.  dataclasses and its decorators cost a cold process more
    # than 10 ms, and neither NumPy nor argparse, json or csv imports it.
    # numpy.polynomial costs 6-7 ms; NumPy imports it on first attribute use
    import os
    import subprocess
    import sys

    import gqlab

    script = (
        "import contextlib, io, sys\n"
        "from gqlab.cli import main\n"
        "for argv in (['bs', '--example', 'torus', '--k', '2'],\n"
        "             ['cohomology', '--example', 'torus', '--k', '2'],\n"
        "             ['act', '--example', 'torus', '--k', '2',\n"
        "              '--map', 'translate:pi,0', '--verify', 'thm1,thm2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules, 'dataclasses' in sys.modules,\n"
        "      'numpy.polynomial' in sys.modules)\n"
    )
    src = str(Path(gqlab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False False\n"


# an act line of each builtin model; the disk has no overlap, so no gauge
# leg, and every transport entry of the plane is an empty segment
_ACT_LINES = {
    "plane": ("--granularity", "2", "--map", "rot:0.3"),
    "cylinder": ("--map", "pshift:1"),
    "torus": ("--k", "3", "--map", "translate:0,2.0943951023931953"),
    "sphere": ("--k", "3", "--map", "rot:1.0"),
    "disk": ("--map", "rot:0.7"),
}


@pytest.mark.parametrize("name", sorted(_ACT_LINES))
def test_every_leaf_and_gauge_integral_is_a_row_of_integrate(capsys, monkeypatch, name):
    # in bs, cohomology and act, every live transport entry, every flux
    # label and every gauge leg that is not empty is one row of an
    # integrate call, in closed form or not, and no command line bisects
    from gqlab import transport
    from gqlab.transport import LeafTransport

    seen = {"transport": 0, "action": 0}  # rows that reached integrate
    wanted = {"transport": 0, "action": 0}  # rows asked for

    def counting(module, key):
        real = module.integrate

        def counted(f, a, b, constant=False):
            seen[key] += np.broadcast(a, b).size
            return real(f, a, b, constant=constant)

        monkeypatch.setattr(module, "integrate", counted)

    counting(transport, "transport")
    counting(action, "action")
    integral, flux, gauge = LeafTransport.integral, LeafTransport.flux, action.gauge_potentials

    def counted_integral(self, elements, t0, t1, labels):
        wanted["transport"] += int(np.count_nonzero(np.asarray(t0) != np.asarray(t1)))
        return integral(self, elements, t0, t1, labels)

    def counted_flux(self, labels):
        wanted["transport"] += len(labels)
        return flux(self, labels)

    def counted_gauge(naive, pulled, elements, pts):
        for a in np.unique(elements).tolist():
            lifted = naive.member_points(a, pts[elements == a])
            x_c, y_c = naive.elements[a].center()
            wanted["action"] += int(np.count_nonzero(np.unique(lifted[:, 0]) != x_c)
                                    + np.count_nonzero(lifted[:, 1] != y_c))
        return gauge(naive, pulled, elements, pts)

    monkeypatch.setattr(LeafTransport, "integral", counted_integral)
    monkeypatch.setattr(LeafTransport, "flux", counted_flux)
    monkeypatch.setattr(action, "gauge_potentials", counted_gauge)
    model = ("--example", name, *_ACT_LINES[name][:-2])
    for argv in (("bs", *model), ("cohomology", *model),
                 ("act", *model, *_ACT_LINES[name][-2:], "--verify", "thm1,thm2")):
        code, report = run_json(capsys, *argv)
        assert code == 0, argv
        assert report["timing"]["counters"]["quadrature_bisections"] == 0, argv
    assert seen == wanted
    assert (seen["transport"] > 0) == (name != "plane")
    assert (seen["action"] > 0) == (name != "disk")


def test_range_and_p_max_help_say_that_p_max_never_widens_the_census_window(capsys):
    from gqlab import cli

    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("check", "bs", "cohomology", "act"):
        helps = {a.dest: a.help for a in sub.choices[command]._actions}
        assert helps["range"] == (
            "label range lo:hi; default: the model's census window, which for "
            "the cylinder is -2.5:2.5 whatever --p-max is"
        )
        assert "never widens the census window" in helps["p_max"]
    # what they say holds: a higher cylinder keeps the window's five BS leaves,
    # and a wider range without --p-max makes the cylinder room for it
    code, report = run_json(capsys, "bs", "--example", "cylinder", "--p-max", "10")
    assert code == 0 and report["payload"]["census"]["q_bs"] == 5
    assert RunConfig(command="bs", example="cylinder", range=(-3.0, 3.0)).cylinder_p_max == 4.0
    assert RunConfig(command="bs", example="cylinder", range=(-2.5, 2.5)).cylinder_p_max == 3.5
