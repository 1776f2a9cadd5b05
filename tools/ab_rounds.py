"""In-process interleaved A/B timing of two gqlab source trees.

    python3 tools/ab_rounds.py OLD NEW --workload census [--seed 1] [--pairs 20]
    python3 tools/ab_rounds.py OLD NEW --pairs 20 -- act --example sphere --k 3

OLD and NEW are checkouts (directories holding src/gqlab).  Both packages
are imported into this one process under the names gqlab_old and
gqlab_new; gqlab uses only relative imports, so each tree runs its own
code.  A pair runs the work once on each tree, the tree that goes first
alternating from pair to pair: the round of a perfbench workload for
--seed (default 1; perfbench/workloads.py of NEW, every operation through
the tree's cli.main), or one given command line, repeated to fill about 0.25 s.
Before the pairs, the work runs once untimed on each tree.  The last line
printed is the median time ratio new/old, its quartiles, and the number
of pairs NEW won.

Separate processes on a host whose speed drifts cannot tell 1-3% apart;
pairs run back to back in one process share the drift.  On identical
trees the one loaded second (NEW) reads about 1% faster, so a ratio that
close to 1 needs the run repeated with OLD and NEW swapped.  Nothing is
written: no bytecode, no perfbench record.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True


def load_tree(root: Path, name: str):
    """The cli module of root/src/gqlab, imported as package `name`."""
    package = root / "src" / "gqlab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_lines(cli, lines: list) -> float:
    """Seconds to run every command line through cli.main; output dropped."""
    sink = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in lines:
            cli.main(list(argv))
            sink.seek(0)
            sink.truncate()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", choices=("census", "ranks", "invariance"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=20)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.command = argv[split + 1 :]
    if (args.workload is None) == (not args.command):
        parser.error("give either --workload or one command line after --")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.workload:
        sys.path.insert(0, str(args.new / "perfbench"))
        import workloads

        lines = [op.argv for op in workloads.round_ops(args.workload, args.seed)]
        what = f"{args.workload} seed {args.seed} ({len(lines)} operations)"
    else:
        lines = [tuple(args.command) + ("--json",)]
        what = " ".join(args.command)
    trees = {"old": load_tree(args.old, "gqlab_old"), "new": load_tree(args.new, "gqlab_new")}
    for cli in trees.values():  # warm: compile caches and first-call costs
        run_lines(cli, lines)
    lines = lines * max(1, round(0.25 / run_lines(trees["old"], lines)))
    ratios, wins = [], 0
    for pair in range(args.pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        t = {side: run_lines(trees[side], lines) for side in order}
        ratios.append(t["new"] / t["old"])
        wins += t["new"] < t["old"]
        print(f"pair {pair + 1:3d}: old {t['old']:.4f} s  new {t['new']:.4f} s  "
              f"new/old {ratios[-1]:.4f}")
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    print(f"{what}: median new/old {med:.4f} (quartiles {q1:.4f}-{q3:.4f}), "
          f"new faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
