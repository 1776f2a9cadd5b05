"""CLI behavior: exit codes, reports, determinism, CSV."""

import csv
import json

import pytest

from gqlab.cli import RunConfig, main
from gqlab.prequantum import ConfigurationError


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
    rows = list(csv.DictReader(path.open()))
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
        ("bs", "--example", "disk", "--range", "0:100"),
        ("bs", "--range", "nan:1"),
        ("bs", "--range", "3:1"),
        ("bs", "--count", "0"),
        ("bs", "--tol", "-1"),
        ("cohomology", "--rank-tol", "2"),
    ],
)
def test_bad_config_exits_2_without_traceback(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err


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
