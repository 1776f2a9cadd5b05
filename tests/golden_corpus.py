"""The golden corpus: gqlab command lines and what each one gave.

tests/golden/corpus.json lists command lines, each with the exit code,
stderr, the sha256 of its report minus `timing`, and a digest of the
report's discrete outcomes.  The lines are every round and warm-up line of
the perfbench workloads for seeds 1-3, `check`, `bs` and `cohomology` with
defaults on every model, `check`, `bs` and `act` with corrupted transitions,
`bs` on cylinder and torus windows far from label 0, and the command lines
that must end in a config error.
tests/test_golden.py asserts the exit code, stderr and digest of every
line.  The sha256 is not asserted: residual and singular-value fields can
move in the last bits between NumPy and BLAS builds.  A printed report
must be exactly the one line json.dumps(sort_keys=True) gives for it.  The
sha256 is taken over the parsed report encoded anew with indent=2, not over
the printed text, so it does not move with the report's layout.

    python tests/golden_corpus.py          # the lines whose sha256 or more moved,
                                           # and how many moved more than their
                                           # sha256; exits 1 if any line moved
    python tests/golden_corpus.py --write  # record what every line gives now
    python tests/golden_corpus.py --dump reports.json  # every line's report
                                                       # and timing.counters
    python tests/golden_corpus.py --diff reports.json  # how far they moved

A change that means to move an outcome records the corpus anew with
--write and names the moved lines.  To add a line, add an entry with its
name and argv to corpus.json and run --write.  To say how far a change
moves the reports, dump them on a checkout of its parent and diff the dump
on the change: the diff prints the largest change of each float field
(list indices written *), and every other value that differs, every
counter under timing/counters among them.  A dump keeps no seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

# report keys whose values are discrete outcomes, digested exactly
# (bs_locations to 1e-8); every other value may move in its last bits
DISCRETE = {
    "pass", "status", "q_bs", "q_bs_smooth", "q_bs_singular", "lines_excluded",
    "betti", "betti_per_leaf", "delta_rank", "dim_cochains", "ranks", "n_labels",
    "n_labels_retained", "is_bs", "topology", "singular", "nearest_multiple",
    "count", "interior_count", "witness_cycle", "bs_locations",
}


def _rounded(value):
    if isinstance(value, float):
        return round(value, 8) + 0.0  # + 0.0 writes -0.0 as 0.0
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def _outcomes(node, path: str, out: list) -> None:
    """(path, value) of every DISCRETE key under node, in key order."""
    if isinstance(node, dict):
        for key in sorted(node):
            here = f"{path}/{key}"
            if key in DISCRETE:
                value = node[key]
                out.append([here, _rounded(value) if key == "bs_locations" else value])
            else:
                _outcomes(node[key], here, out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _outcomes(item, f"{path}/{i}", out)


def _sha(value) -> str:
    text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list) -> tuple:
    """Run one command line in process: (exit code, stderr, its report minus
    timing, or None when it printed none, and its timing.counters, or
    None).  A printed report must be exactly the one line
    json.dumps(sort_keys=True) gives for it, and must pass exactly when the
    line exits 0."""
    from gqlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    report = counters = None
    if text:
        report = json.loads(text)
        if text != json.dumps(report, sort_keys=True) + "\n":
            raise AssertionError(f"report of {argv} is not compact json.dumps text")
        if report["pass"] is not (code == 0):
            raise AssertionError(f"report of {argv} reads pass {report['pass']} on exit {code}")
        counters = report.pop("timing").get("counters")
    return code, err.getvalue(), report, counters


def run_line(argv: list) -> dict:
    """The exit code, stderr, and the sha256 and outcome digest of the
    report minus timing (None when it printed no report) of one line."""
    code, err, report, _ = _run(argv)
    got = {"exit_code": code, "stderr": err, "sha256": None, "digest": None}
    if report is not None:
        outcomes: list = []
        _outcomes(report, "", outcomes)
        got["sha256"] = _sha(report)
        got["digest"] = _sha(outcomes)
    return got


def load() -> list:
    return json.loads(CORPUS.read_text())


def _compare(old, new, path: str, field: str, floats: dict, other: list) -> None:
    """Walk two reports side by side: floats[field] holds the largest
    change of each float field and where it is, other every other value
    that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key in old and key in new:
                _compare(old[key], new[key], f"{path}/{key}", f"{field}/{key}", floats, other)
            else:
                other.append(f"{path}/{key} {'added' if key in new else 'removed'}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _compare(a, b, f"{path}/{i}", f"{field}/*", floats, other)
    elif type(old) is float and type(new) is float:
        change = abs(new - old)
        if change >= floats.get(field, (0.0,))[0]:
            floats[field] = (change, path)
    elif old != new:
        other.append(f"{path}: {old!r} -> {new!r}")


def diff(dump: dict, corpus: list) -> None:
    """Print how far every line's report moved against a dump."""
    floats: dict = {}  # field -> (largest change, line and path)
    other = []
    for entry in corpus:
        name = entry["name"]
        if name not in dump:
            other.append(f"{name}: not in the dump")
            continue
        was, now = dump[name], _run(entry["argv"])
        if was["exit_code"] != now[0] or was["stderr"] != now[1]:
            other.append(f"{name}: exit {was['exit_code']} -> {now[0]}, stderr "
                         f"{was['stderr']!r} -> {now[1]!r}")
        here: dict = {}
        _compare(was["report"], now[2], name, "", here, other)
        _compare(was["counters"], now[3], f"{name}/timing/counters", "", {}, other)
        for field, (change, where) in here.items():
            if change >= floats.get(field, (0.0,))[0]:
                floats[field] = (change, where)
    moved = {field: got for field, got in floats.items() if got[0] > 0.0}
    print(f"{len(moved)} of {len(floats)} float fields moved; largest change of each:")
    for field, (change, where) in sorted(moved.items()):
        print(f"  {change:.3e}  {field}  (at {where})")
    print(f"{len(other)} other differences")
    for line in other:
        print(f"  {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The golden corpus of gqlab lines.")
    parser.add_argument("--write", action="store_true", help="record the corpus anew")
    parser.add_argument("--dump", metavar="FILE", help="write every line's report")
    parser.add_argument("--diff", metavar="FILE", help="compare a dump with this tree")
    args = parser.parse_args(argv)
    corpus = load()
    if args.dump:
        dump = {}
        for entry in corpus:
            code, err, report, counters = _run(entry["argv"])
            dump[entry["name"]] = {"exit_code": code, "stderr": err, "report": report,
                                   "counters": counters}
        Path(args.dump).write_text(json.dumps(dump, indent=1, sort_keys=True) + "\n")
        print(f"wrote the reports of {len(dump)} lines to {args.dump}")
        return 0
    if args.diff:
        diff(json.loads(Path(args.diff).read_text()), corpus)
        return 0
    moved = beyond = 0  # lines that moved; those that moved more than their sha256
    for entry in corpus:
        got = run_line(entry["argv"])
        changed = [k for k in got if entry.get(k) != got[k]]
        if changed:
            moved += 1
            beyond += changed != ["sha256"]
            print(f"{entry['name']}: {', '.join(changed)} moved  ({' '.join(entry['argv'])})")
        entry.update(got)
    print(f"{moved} of {len(corpus)} lines moved, {beyond} beyond their sha256")
    if args.write:
        CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
        print(f"wrote {CORPUS}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
