"""Work counters, counted where the work is done.

count(name, n) adds n to the counter name of every open counting() block,
and does nothing when no block is open.  A count of 0 still makes the
counter appear, so a stage declares the counters it reports when it starts
and a report shows 0 for work it did not need.  Blocks nest: each block
sees every count made while it is open, those of the blocks inside it too.
The command line opens one block per command and reports what it saw
under timing.counters (docs/conventions.md, "Reports").
"""

from __future__ import annotations

from contextlib import contextmanager

_open: list = []  # the counts of each open block, outermost first


def count(name: str, n: int = 1) -> None:
    for counts in _open:
        counts[name] = counts.get(name, 0) + n


@contextmanager
def counting():
    """A block that yields the dict of the counts made while it is open."""
    counts: dict = {}
    _open.append(counts)
    try:
        yield counts
    finally:
        _open.pop()
