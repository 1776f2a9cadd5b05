"""CLI behavior: exit codes, reports, determinism, CSV."""

import csv
import json
import math

import numpy as np
import pytest

from gqlab import catalog
from gqlab import expr as ex
from gqlab.cli import RunConfig, _apply_corruption, main
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
            capsys, "bs", "--example", "torus", "--k", "2", "--seed", "11"
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
    assert RunConfig.from_dict(doc) == cfg
    assert json.loads(json.dumps(doc)) == doc


def test_runconfig_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown config"):
        RunConfig.from_dict({"command": "bs", "exampel": "torus"})


def test_act_builds_the_complementary_cover_once(capsys, monkeypatch):
    import gqlab.action as action
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
        ("parse-expr", "1e400"),
        ("check", "--example", "plane", "--out", "/nonexistent/dir/r.json"),
        ("bs", "--example", "torus", "--csv", "/nonexistent/dir/r.csv"),
    ],
)
def test_bad_config_exits_2_without_traceback(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err


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
def test_reports_are_strict_json(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code in (0, 1)
    report = _strict(out)
    if argv[0] == "cohomology":
        gaps = [d["sv_gap"] for d in report["payload"]["cohomology"]["degrees"]]
        assert None in gaps


def test_non_finite_report_value_is_internal_error(capsys, monkeypatch):
    import gqlab.cli as cli

    real = cli._report

    def poisoned(cfg, payload, passed, seconds):
        return real(cfg, {**payload, "bad": float("nan")}, passed, seconds)

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
    # the residuals of a copy equal those of scaling the transition in place
    code, report = run_json(
        capsys, "check", "--example", "torus", "--k", "1",
        "--corrupt", "lam:0,1:1.01",
    )
    exm = catalog.example("torus", k=1)
    lams = exm.cover.data.transitions
    lams[(0, 1)] = ex.mul(ex.Num(1.01), lams[(0, 1)])
    assert code == 1
    assert report["payload"]["local_data"] == check_local_data(exm.cover).as_dict()


def test_cohomology_reports_work_counters(capsys):
    argv = ("cohomology", "--example", "torus", "--k", "2", "--grid", "16")
    code, report = run_json(capsys, *argv)
    assert code == 0
    counters = report["timing"]["counters"]
    assert set(counters) == {
        "transport_integrals", "transport_batches", "leaf_blocks", "svd_calls",
        "transition_batches",
    }
    # one quadrature sweep per face, each for several labels
    assert 0 < counters["transport_batches"] < counters["transport_integrals"]
    assert 0 < counters["svd_calls"] < counters["leaf_blocks"]
    assert "counters" not in json.dumps(report["payload"])
    _, again = run_json(capsys, *argv)
    assert again["timing"]["counters"] == counters


def test_bs_reports_transport_counters(capsys):
    argv = ("bs", "--example", "torus", "--k", "3", "--range", "0.05:6.3332")
    code, report = run_json(capsys, *argv)
    assert code == 0
    counters = report["timing"]["counters"]
    assert set(counters) == {
        "root_brackets", "root_holonomy_evaluations",
        "transport_integrals", "transport_batches",
        "leaf_patterns", "transition_batches",
    }
    # the sampled leaves and each lockstep step share one sweep per segment
    assert 0 < counters["transport_batches"] < counters["transport_integrals"]
    # each membership pattern is threaded once; each holonomy batch makes
    # one transition call per element pair, fewer than one per leaf (one
    # per switch would be three per leaf on this granularity-3 torus)
    threaded = (
        len(report["payload"]["census"]["leaves"])
        + counters["root_holonomy_evaluations"]
    )
    assert 0 < counters["leaf_patterns"] <= 9 < threaded
    assert 0 < counters["transition_batches"] < threaded
    assert "transport" not in json.dumps(report["payload"])
    _, again = run_json(capsys, *argv)
    assert again["timing"]["counters"] == counters


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
