"""Benchmark of gqlab's `bs`, `cohomology` and `act` commands.

    python3 perfbench/run.py --workload {census,ranks,invariance}
        [--seed N] [--seconds S] [--trace 0|1]

One process, one thread.  Each operation is one in-process
`gqlab.cli.main(argv)` call; its JSON report is checked against the
closed forms in oracles.py.  A run sets up three times from a cold import
of gqlab (setup_s is the median), then does max(2, round(S / round
seconds)) whole rounds of the workload's operation list.  The last line of
standard output is one JSON object: correct, attempted, failed, and the
end-to-end metrics.  With --trace 1 the run times one plain round and one
traced round instead, and reports the per-layer metrics of the traced
round.  A record of the run goes to perfbench/out/.
"""

from __future__ import annotations

import os

# One thread: pinned before NumPy (imported by gqlab) loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 3


@dataclass
class Result:
    op: workloads.Op
    exit_code: object  # int, or the exception the call raised
    stdout: str
    start: float
    seconds: float


def run_op(op: workloads.Op) -> Result:
    main = sys.modules["gqlab.cli"].main  # looked up per call: tracing rebinds it
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(op.argv))
    except Exception as exc:  # a traceback in the program is a failed operation
        code = exc
    return Result(op, code, out.getvalue(), t0, time.perf_counter() - t0)


def cold_setup(workload: str, seed: int) -> tuple:
    """Import gqlab afresh, make the operation list and warm up; returns
    (start, seconds, ops, warm-up results)."""
    for name in [m for m in sys.modules if m == "gqlab" or m.startswith("gqlab.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("gqlab.cli")
    ops = workloads.round_ops(workload, seed)
    warm = [run_op(op) for op in workloads.warmup_ops(workload)]
    return t0, time.perf_counter() - t0, ops, warm


class Calibration:
    """Speed samples taken while the operations run.

    The host these figures come from is shared, and its speed drifts by
    tens of percent within seconds.  While sampling, a timer signal every
    INTERVAL_S interrupts the one thread between bytecodes and runs a
    fixed sample of the kinds of work gqlab spends its time on: the
    interpreter, small-array NumPy calls and LAPACK, `mix` pieces of each,
    weighted as the workload spends its time.  An operation's scaled time
    is its time minus the samples taken inside it, times the `reference`
    duration of a sample over the mean duration of the samples inside it
    (or of the MIN_SAMPLES samples nearest to it, when fewer fall inside).
    Scaled times are seconds at the reference speed (see README)."""

    INTERVAL_S = 0.02
    MIN_SAMPLES = 6

    def __init__(self, mix: tuple, reference: float) -> None:
        import numpy as np

        self.np = np
        self.mix = mix
        self.reference = reference
        rng = np.random.default_rng(0)
        self.matrix = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        self.nodes = np.linspace(0.0, 1.0, 105) + 0j
        self.table = {"a": 1.0}
        self.samples: list = []  # (start, seconds)
        self._busy = False

    def _term(self, t: float) -> float:
        return (t * 0.5 + 1.0) * t + self.table["a"]

    def _interpreter(self) -> None:
        acc = 0.0
        for i in range(1000):
            acc += self._term(i * 1e-3)

    def _arrays(self) -> None:
        np, x = self.np, self.nodes
        for _ in range(20):
            x = np.exp(1j * x.real) * 0.5 + x * 0.5

    def _lapack(self) -> None:
        self.np.linalg.svd(self.matrix, compute_uv=False)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        for n, piece in zip(self.mix, (self._interpreter, self._arrays, self._lapack)):
            for _ in range(n):
                piece()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, seconds: float) -> tuple:
        """(scaled seconds, speed factor) of a span of the sampled period."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_left(times, start + seconds)
        inside = [d for _, d in self.samples[lo:hi]]
        near = inside
        if len(inside) < self.MIN_SAMPLES:
            mid = start + 0.5 * seconds
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))
                    [: self.MIN_SAMPLES]]
        factor = self.reference / statistics.fmean(near)
        return (seconds - sum(inside)) * factor, factor


def timed_pass(ops: list, rounds: int, cal: Calibration) -> list:
    """Run whole rounds of ops while sampling the machine's speed."""
    gc.collect()
    with cal.sampling():
        return [run_op(op) for _ in range(rounds) for op in ops]


class Checker:
    """Checks results against the oracles and against earlier repeats."""

    def __init__(self) -> None:
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.problems: list = []

    def add(self, res: Result) -> None:
        self.attempted += 1
        if isinstance(res.exit_code, Exception):
            self.failed += 1
            self.problems.append(f"{res.op.argv}: raised {res.exit_code!r}")
            return
        found = self._problems(res)
        if found:
            self.failed += 1
            self.mismatched += 1
            self.problems.append(f"{res.op.argv}: {'; '.join(found)}")

    def _problems(self, res: Result) -> list:
        op = res.op
        out = []
        if res.exit_code != op.exit_code:
            out.append(f"exit code {res.exit_code}, want {op.exit_code}")
        try:
            report = json.loads(res.stdout)
        except ValueError as exc:
            return out + [f"report does not parse: {exc}"]
        if report.get("schema") != "gqlab.report/1":
            out.append(f"schema {report.get('schema')!r}")
        if report.get("pass") is not (op.exit_code == 0):
            out.append(f"pass {report.get('pass')!r}")
        try:
            out += op.check(report)
        except (KeyError, TypeError, IndexError) as exc:
            out.append(f"report lacks {exc!r}")
        payload = json.dumps(report.get("payload"), sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if self.digests.setdefault(op.argv, digest) != digest:
            out.append("payload differs from an earlier repeat")
        return out


def end_to_end(scaled: list, completed: int, setups: list) -> dict:
    """Times in seconds at the reference machine speed (see Calibration)."""
    return {
        "ops_per_s": (completed / sum(scaled), "1/s"),
        "op_s_p50": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; 1 is the default, 2 confirms a claim")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="intended length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gqlab" / "cli.py").is_file():
        print(f"perfbench: no gqlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported once, outside the timed set-ups)

    checker = Checker()
    cal = Calibration(*workloads.CALIBRATION[args.workload])
    spans = []
    with cal.sampling():
        for _ in range(SETUPS):
            start, seconds, ops, warm = cold_setup(args.workload, args.seed)
            spans.append((start, seconds))
            for res in warm:
                checker.add(res)
    setups = [cal.scaled(start, seconds)[0] for start, seconds in spans]

    # A traced run times one plain and one traced round; the difference of
    # their scaled times is the tracing overhead, and the per-layer figures
    # are per round.
    rounds = 1 if args.trace else max(
        2, round(args.seconds / workloads.ROUND_SECONDS[args.workload])
    )
    results = timed_pass(ops, rounds, cal)
    for res in results:
        checker.add(res)
    scaled = [cal.scaled(r.start, r.seconds) for r in results]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "ops_per_round": len(ops),
        "setup_s": setups, "raw_setup_s": [s for _, s in spans],
        "timed_wall_s": sum(r.seconds for r in results),
        "ops": [
            {"argv": list(r.op.argv), "seconds": r.seconds, "scaled_s": s, "speed": f}
            for r, (s, f) in zip(results, scaled)
        ],
    }
    if not args.trace:
        completed = sum(not isinstance(r.exit_code, Exception) for r in results)
        metrics = end_to_end([s for s, _ in scaled], completed, setups)
    else:
        tracer = tracing.Tracer()
        try:
            try:
                tracer.install()
                traced = timed_pass(ops, rounds, cal)
            finally:
                tracer.uninstall()
            tracer.require(args.workload)
        except tracing.TraceError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        for res in traced:
            checker.add(res)
        traced_scaled = sum(cal.scaled(r.start, r.seconds)[0] for r in traced)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced_scaled - sum(s for s, _ in scaled), "s")
        record.update(
            traced_wall_s=sum(r.seconds for r in traced),
            traced_scaled_s=traced_scaled,
            self_s=tracer.self_seconds(),
            spans=tracer.tree(),
        )

    record.update(
        metrics={k: v for k, (v, _) in metrics.items()},
        problems=checker.problems,
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for line in checker.problems[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.mismatched == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
