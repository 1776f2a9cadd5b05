"""The golden corpus: gqlab command lines and what each one gave.

tests/golden/corpus.json lists command lines, each with the exit code,
stderr, the sha256 of its report minus `timing`, and a digest of the
report's discrete outcomes.  The lines are every round and warm-up line of
the perfbench workloads for seeds 1-3, `check`, `bs` and `cohomology` with
defaults on every model, `check`, `bs` and `act` with corrupted transitions,
and the command lines that must end in a config error.
tests/test_golden.py asserts the exit code, stderr and digest of every
line.  The sha256 is not asserted: residual and singular-value fields can
move in the last bits between NumPy and BLAS builds.

    python tests/golden_corpus.py          # the lines whose sha256 or more moved
    python tests/golden_corpus.py --write  # record what every line gives now

A change that means to move an outcome records the corpus anew with
--write and names the moved lines.  To add a line, add an entry with its
name and argv to corpus.json and run --write.
"""

from __future__ import annotations

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


def run_line(argv: list) -> dict:
    """Run one command line in process: its exit code, stderr, and the
    sha256 and outcome digest of its report minus timing (None when it
    printed no report).  A printed report must be exactly the text
    json.dumps(indent=2, sort_keys=True) gives for it."""
    from gqlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    got = {"exit_code": code, "stderr": err.getvalue(), "sha256": None, "digest": None}
    text = out.getvalue()
    if text:
        report = json.loads(text)
        if text != json.dumps(report, indent=2, sort_keys=True) + "\n":
            raise AssertionError(f"report of {argv} is not json.dumps text")
        report.pop("timing")
        outcomes: list = []
        _outcomes(report, "", outcomes)
        got["sha256"] = _sha(report)
        got["digest"] = _sha(outcomes)
    return got


def load() -> list:
    return json.loads(CORPUS.read_text())


def main(argv=None) -> int:
    write = "--write" in (sys.argv[1:] if argv is None else argv)
    corpus = load()
    moved = 0
    for entry in corpus:
        got = run_line(entry["argv"])
        changed = [k for k in got if entry.get(k) != got[k]]
        if changed:
            moved += 1
            print(f"{entry['name']}: {', '.join(changed)} moved  ({' '.join(entry['argv'])})")
        entry.update(got)
    print(f"{moved} of {len(corpus)} lines moved")
    if write:
        CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
        print(f"wrote {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
