"""Every line of the golden corpus gives the exit code, stderr and
discrete outcomes it was recorded with (tests/golden_corpus.py).

A change that means to move one records the corpus anew with
`python tests/golden_corpus.py --write` and names the moved lines."""

import pytest

import golden_corpus
from test_exit_contract import BAD_CONFIG

CORPUS = golden_corpus.load()


@pytest.mark.parametrize("entry", CORPUS, ids=[entry["name"] for entry in CORPUS])
def test_line_gives_its_recorded_outcomes(entry):
    got = golden_corpus.run_line(entry["argv"])
    assert (got["exit_code"], got["stderr"]) == (entry["exit_code"], entry["stderr"])
    assert got["digest"] == entry["digest"]


def test_the_corpus_holds_every_bad_config_line():
    lines = {tuple(entry["argv"]) for entry in CORPUS}
    assert [argv for argv in BAD_CONFIG if argv not in lines] == []


def test_the_script_exits_1_when_a_line_moved(monkeypatch, capsys):
    entry = next(e for e in CORPUS if e["name"].startswith("bad_config/"))
    monkeypatch.setattr(golden_corpus, "load", lambda: [dict(entry)])
    assert golden_corpus.main([]) == 0
    monkeypatch.setattr(golden_corpus, "load", lambda: [{**entry, "stderr": "moved"}])
    assert golden_corpus.main([]) == 1
    assert capsys.readouterr().out.endswith("1 of 1 lines moved, 1 beyond their sha256\n")
    # a line whose sha256 alone moved still fails, and the last line says so
    monkeypatch.setattr(golden_corpus, "load", lambda: [{**entry, "sha256": "moved"}])
    assert golden_corpus.main([]) == 1
    assert capsys.readouterr().out.endswith("1 of 1 lines moved, 0 beyond their sha256\n")
