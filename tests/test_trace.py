"""Work counters: trace.count outside a block does nothing, nested blocks
each see their own counts, and each command reports only its own work."""

import json

import pytest

from gqlab import trace
from gqlab.cli import main


def test_a_count_outside_any_block_is_a_no_op():
    trace.count("formula_runs", 5)
    with trace.counting() as counts:
        pass
    assert counts == {}


def test_nested_blocks_each_see_the_counts_made_inside_them():
    with trace.counting() as outer:
        trace.count("a")
        with trace.counting() as inner:
            trace.count("a", 2)
            trace.count("b", 0)  # a count of 0 makes the counter appear
        trace.count("c", 3)
    assert inner == {"a": 2, "b": 0}
    assert outer == {"a": 3, "b": 0, "c": 3}
    trace.count("a")  # every block is closed again
    assert outer["a"] == 3


def test_a_block_closes_when_its_body_raises():
    with pytest.raises(RuntimeError), trace.counting() as counts:
        trace.count("a")
        raise RuntimeError
    trace.count("a")
    assert counts == {"a": 1}


def _counters(capsys, *argv) -> dict:
    assert main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)["timing"]["counters"]


def test_each_command_reports_its_own_counts(capsys):
    # one process, several commands: a report holds the counts of its own
    # command alone, the same as when it runs first
    ranks = ("cohomology", "--example", "torus", "--k", "2", "--grid", "8")
    census = ("bs", "--example", "torus", "--k", "2", "--count", "8")
    first = _counters(capsys, *ranks)
    bs = _counters(capsys, *census)
    again = _counters(capsys, *ranks)
    assert again == first
    assert "leaf_blocks" in first and "leaf_blocks" not in bs
    assert "root_steps" in bs and "root_steps" not in first
    assert _counters(capsys, *census) == bs
