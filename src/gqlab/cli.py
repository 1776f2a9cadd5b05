"""Command line interface and report emission.

Subcommands: examples, check, bs, cohomology, act, parse-expr.  Every run
echoes its configuration into a versioned JSON report, written as one line
of compact JSON with sorted keys (json.dumps's C encoder); payloads are
deterministic for a fixed config and seed (timing lives outside the
payload).  Exit codes: 0 pass, 1 verification failure, 2 usage or config
error, 3 internal error (an invariant violation or any other exception).
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import functools
import json
import math
import sys
import time

from . import __version__, catalog, trace
from . import expr as ex
from .action import (
    CocycleObstruction,
    CorrespondenceReport,
    InternalConsistencyError,
    build_complementary,
    verify_theorem_1,
    verify_theorem_2,
)
from .bohr import CoverageError, UnresolvedCensusError, bs_census, lattice_count
from .cech import ResolutionError, cohomology_ranks, half_offset_grid
from .geometry import check_symplectomorphism
from .prequantum import MAX_DEGREE, ConfigurationError, check_local_data
from .quadrature import QuadratureError
from .record import Record

REPORT_SCHEMA = "gqlab.report/1"

# The flags each subcommand reads, by argparse dest; any other is refused.
# Every one of them reads the example flags, --corrupt, --out and --json.
# act reads the flags of the theorems it verifies too (ACT_READS).
MODEL_FLAGS = ("k", "granularity", "p_max")  # each model takes some (catalog.PARAMETERS)
_READS_ALWAYS = frozenset({"example", *MODEL_FLAGS, "corrupt", "out", "json"})
READS = {
    "check": _READS_ALWAYS | {"map", "tol"},
    "bs": _READS_ALWAYS | {"polarization", "range", "count", "include_lines", "csv"},
    "cohomology": _READS_ALWAYS | {"polarization", "grid", "max_degree", "rank_tol"},
    "act": _READS_ALWAYS | {"map", "polarization", "tol", "verify"},
}
ACT_READS = {"thm1": {"grid", "rank_tol", "seed"}, "thm2": {"range", "count"}}

# The nerve degree each subcommand reads, so its example builds no deeper
# (docs/conventions.md, "Nerve"): bs threads leaves through the elements
# (degree 0); the cocycle law lives on triple overlaps (degree 2);
# cohomology through degree n needs the differential into degree n + 1,
# with the cap above MAX_DEGREE left to cohomology_ranks to refuse; act
# checks the local data, and theorem 1 computes cohomology through degree 2.
NERVE_DEGREE = {
    "check": lambda cfg: 2,
    "bs": lambda cfg: 0,
    "cohomology": lambda cfg: min(cfg.max_degree + 1, MAX_DEGREE),
    "act": lambda cfg: 3 if "thm1" in cfg.verify_targets else 2,
}


class RunConfig(Record):
    def __init__(
        self,
        command: str,
        example: str = "torus",
        k: int = 1,
        granularity: int | None = None,
        p_max: float | None = None,
        map: str = "identity",
        polarization: str = "default",
        range: tuple | None = None,
        count: int = 33,
        grid: int = 32,
        max_degree: int = 2,
        tol: float = 1e-8,
        rank_tol: float = 1e-8,
        seed: int = 0,
        corrupt: str | None = None,
        include_lines: bool = False,
        verify: str = "thm1,thm2",
        flags: tuple = (),  # the flags given on the command line, by dest
    ):
        self._set(locals())
        # reject flags the command does not read, and values no command can
        # run with, before any work starts
        if self.command == "act":  # what act reads depends on its targets
            if not self.verify_targets:
                raise ConfigurationError(
                    f"verify names no target, got {self.verify!r}; "
                    "expected thm1, thm2 or both"
                )
            bad = [w for w in self.verify_targets if w not in ACT_READS]
            if bad:
                raise ConfigurationError(f"unknown verification targets {bad}")
            targets = self.verify_targets
            repeated = sorted({w for w in targets if targets.count(w) > 1})
            if repeated:
                raise ConfigurationError(f"verify names {', '.join(repeated)} more than once")
        unread = sorted(set(self.flags) - self.reads)
        if unread:
            names = ", ".join("--" + dest.replace("_", "-") for dest in unread)
            raise ConfigurationError(f"{self.command} does not read {names}")
        if self.grid < 1:
            raise ConfigurationError(f"grid must be >= 1, got {self.grid}")
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigurationError(f"tol must be a positive number, got {self.tol}")
        if not 0.0 < self.rank_tol < 1.0:
            raise ConfigurationError(f"rank-tol must lie in (0, 1), got {self.rank_tol}")
        if self.max_degree < 0:
            raise ConfigurationError(f"max-degree must be >= 0, got {self.max_degree}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.p_max is not None and not (math.isfinite(self.p_max) and self.p_max > 0.0):
            raise ConfigurationError(f"p-max must be a positive number, got {self.p_max}")
        if self.range is not None:
            lo, hi = self.range
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigurationError(
                    f"range must be finite with lo < hi, got {lo}:{hi}"
                )
        if self.example == "cylinder" and not math.isfinite(2.0 * self.cylinder_p_max):
            raise ConfigurationError(
                f"cylinder height 2 * p-max must be finite, got p-max {self.cylinder_p_max}"
            )

    @property
    def cylinder_p_max(self) -> float:
        """The cylinder's p_max: --p-max, or by default room for the range."""
        if self.p_max is not None:
            return self.p_max
        if self.range is None:
            return 3.5
        return max(3.5, max(abs(self.range[0]), abs(self.range[1])) + 1.0)

    @property
    def verify_targets(self) -> list:
        """The theorems `act` verifies, in the order given."""
        return [w.strip() for w in self.verify.split(",") if w.strip()]

    @property
    def reads(self) -> frozenset:
        """The settings the command reads: READS, and for act the settings
        of each theorem it verifies."""
        if self.command != "act":
            return READS[self.command]
        return READS["act"].union(*(ACT_READS[w] for w in self.verify_targets))

    def to_dict(self) -> dict:
        """The config echo of a report: the command and the settings it
        reads."""
        out = {"command": self.command}
        reads = self.reads
        for name in self._fields:
            if name in reads:
                out[name] = getattr(self, name)
        if out.get("range") is not None:
            out["range"] = list(self.range)
        return out


def _example_from_config(cfg: RunConfig) -> catalog.Example:
    takes = catalog.PARAMETERS[cfg.example]
    refused = [dest for dest in MODEL_FLAGS if dest in cfg.flags and dest not in takes]
    if refused:
        names = ", ".join("--" + dest.replace("_", "-") for dest in refused)
        raise ConfigurationError(f"{cfg.example} does not take {names}")
    values = {"k": cfg.k, "granularity": cfg.granularity, "p_max": cfg.cylinder_p_max}
    params = {name: values[name] for name in takes if values[name] is not None}
    nerve_degree = NERVE_DEGREE[cfg.command](cfg)
    exm = catalog.example(cfg.example, nerve_degree=nerve_degree, **params)
    if cfg.corrupt:
        exm = _apply_corruption(exm, cfg.corrupt)
    return exm


def _apply_corruption(exm: catalog.Example, spec: str) -> catalog.Example:
    """A copy of the example with one transition scaled, e.g. 'lam:0,1:1.01'.

    The copy gets its own transitions and compiles its own formulas; it
    shares everything else, the nerve included (it depends only on the
    element boxes).  The given example is left as it was.
    """
    try:
        kind, pair, factor = spec.split(":")
        a, b = (int(v) for v in pair.split(","))
        factor = float(factor)
    except ValueError:
        raise ConfigurationError(
            f"bad corruption spec {spec!r}; expected lam:<a>,<b>:<factor>"
        ) from None
    if kind != "lam":
        raise ConfigurationError(f"unknown corruption target {kind!r}")
    if not math.isfinite(factor) or factor == 0.0:
        # a transition must stay a finite nonvanishing function
        raise ConfigurationError(
            f"corruption factor must be finite and nonzero, got {factor}"
        )
    data = exm.cover.data
    if (a, b) not in data.transitions:
        raise ConfigurationError(f"no transition ({a}, {b}) to corrupt")
    transitions = dict(data.transitions)
    transitions[(a, b)] = ex.mul(ex.Num(factor), transitions[(a, b)])
    cover = exm.cover._replace(data=data._replace(transitions=transitions))
    return exm._replace(cover=cover)


def _report(cfg: RunConfig, exm, counts: dict, payload: dict, passed: bool, t0: float) -> dict:
    """A report.  Its timing holds the seconds since t0 and, as counters,
    the counts of the command's block (formula_runs 0 when it ran no cover
    formula) and the number of nerve cells its example built."""
    seconds = time.perf_counter() - t0
    counters = {"formula_runs": 0, **counts, "nerve_cells": len(exm.cover.nerve)}
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "gqlab", "version": __version__},
        "config": cfg.to_dict(),
        "pass": passed,
        "payload": payload,
        "timing": {"seconds": seconds, "counters": counters},
    }


def _open_for_writing(path: str, what: str, **kwargs):
    """open(path, "w"), with an OS refusal (no such directory, no
    permission) reported as a configuration error."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write {what} to {path!r}: {exc.strerror or exc}"
        ) from None


def _emit(report: dict, args, summary_lines) -> None:
    # strict RFC 8259 JSON on one line: a value with no finite answer is
    # written as null where it is produced, so a NaN or infinity reaching
    # here is a fault; a report is a fresh tree, which holds no cycle
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False, check_circular=False)
    except ValueError as exc:
        raise InternalConsistencyError(f"report is not strict JSON: {exc}") from None
    out = getattr(args, "out", None)
    if out:
        with _open_for_writing(out, "report") as fh:
            fh.write(text + "\n")
    if getattr(args, "json", False):
        print(text)
    else:
        for line in summary_lines:
            print(line)
        if out:
            print(f"report written to {out}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_examples(args) -> int:
    for name in catalog.EXAMPLE_NAMES:  # the listing reads no nerve cell
        params = {"k": 1} if "k" in catalog.PARAMETERS[name] else {}
        exm = catalog.example(name, nerve_degree=0, **params)
        print(
            f"{name:<10} elements={len(exm.cover.elements):<3} "
            f"polarizations={','.join(sorted(exm.polarizations))} "
            f"maps={','.join(exm.map_specs)}"
        )
    return 0


def cmd_parse_expr(args) -> int:
    variables = set(args.vars.split(",")) if args.vars else None
    e = ex.parse_expr(args.source, variables)
    print(f"canonical: {ex.to_source(e)}")
    if args.diff:
        d = ex.differentiate(e, args.diff)
        print(f"d/d{args.diff}: {ex.to_source(d)}")
    if args.at:
        values = {}
        for item in args.at.split(","):
            name, _, val = item.partition("=")
            if name in values:
                raise ConfigurationError(f"--at gives {name!r} more than once")
            try:
                values[name] = complex(val)
            except ValueError:
                raise ConfigurationError(
                    f"bad --at value {item!r}; expected name=<number>"
                ) from None
        try:
            val = ex.evaluate(e, values)
        except ValueError as exc:  # a variable --at gives no value
            raise ConfigurationError(str(exc)) from None
        print(f"value: {val}")
    return 0


def _local_data_line(local) -> str:
    """A LocalDataReport's law residuals, each named by its law."""
    return "local data: " + " ".join(
        f"{name.removesuffix('_max')}={value:.3e}"
        for name, value in local._asdict().items() if name.endswith("_max")
    )


def _map_check(exm: catalog.Example, phi, tol: float) -> dict:
    """The sampled check that phi is a symplectomorphism of the example, as
    a report's `symplectomorphism` entry."""
    mrep = check_symplectomorphism(exm.manifold, exm.omega, phi, tol=tol)
    return {
        "symplectic_max": mrep.symplectic_max,
        "inverse_max": mrep.inverse_max,
        "samples": mrep.samples,
        "flagged": mrep.flagged,
        "pass": mrep.passed,
    }


# check, bs, cohomology and act each return (payload, passed, summary
# lines); main turns them into the report and the exit code


def cmd_check(cfg: RunConfig, args, exm: catalog.Example) -> tuple:
    local = check_local_data(exm.cover, cfg.tol)
    payload = {"local_data": local.as_dict()}
    passed = local.passed
    if "map" in cfg.flags:
        phi = catalog.make_map(exm, cfg.map)
        payload["symplectomorphism"] = _map_check(exm, phi, cfg.tol)
        passed = passed and payload["symplectomorphism"]["pass"]
    lines = [
        _local_data_line(local),
        f"check: {'pass' if passed else 'FAIL'} (tol {cfg.tol:g})",
    ]
    return payload, passed, lines


def cmd_bs(cfg: RunConfig, args, exm: catalog.Example) -> tuple:
    pol = exm.polarization(cfg.polarization)
    crange = cfg.range or exm.census_range
    try:
        census = bs_census(exm.cover, pol, crange, cfg.count, cfg.include_lines)
    except UnresolvedCensusError as exc:  # a count the census cannot vouch for
        payload = {"census": {"unresolved": str(exc)}, "range": list(crange)}
        return payload, False, [f"census unresolved: {exc}"]
    payload = {"census": census.as_dict(), "range": list(crange)}
    if cfg.example == "sphere":
        payload["lattice"] = {
            "interval": [0, cfg.k],
            "count": lattice_count(0.0, float(cfg.k)),
            "interior_count": lattice_count(1e-6, cfg.k - 1e-6),
        }
    if getattr(args, "csv", None):
        _write_leaf_csv(args.csv, payload["census"]["leaves"])
    locs = ", ".join(f"{c:.10g}" for c in census.bs_locations)
    lines = [
        f"q_bs = {census.q_bs} (smooth {census.q_bs_smooth}, "
        f"singular {census.q_bs_singular}, lines excluded {census.lines_excluded})",
        f"BS locations: [{locs}]",
    ]
    return payload, True, lines


def _write_leaf_csv(path: str, leaves: list) -> None:
    """The rows of a census report's leaves; a line leaf's holonomy cells are empty."""
    with _open_for_writing(path, "leaf CSV", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(
            ["label", "topology", "singular", "is_bs", "action", "phase",
             "holonomy_re", "holonomy_im"]
        )
        for leaf in leaves:
            writer.writerow(
                [leaf["label"], leaf["topology"], leaf["singular"], leaf["is_bs"],
                 leaf.get("action", ""), leaf.get("phase", ""), *leaf.get("holonomy", ("", ""))]
            )


def cmd_cohomology(cfg: RunConfig, args, exm: catalog.Example) -> tuple:
    pol = exm.polarization(cfg.polarization)
    grid = half_offset_grid(exm.cover, pol, cfg.grid)
    rank = cohomology_ranks(grid, cfg.rank_tol, cfg.max_degree)
    payload = {"cohomology": rank.as_dict()}
    negative = ", ".join(map(str, rank.negative_degrees))
    lines = [
        "degree  dim   rank(delta)  betti  betti/leaf",
        *(
            f"{d.degree:>6}  {d.dim_cochains:>4}  {d.delta_rank:>11}  "
            f"{d.betti:>5}  {d.betti_per_leaf if d.betti_per_leaf is not None else '-'}"
            for d in rank.degrees
        ),
        *([f"cohomology: FAIL (negative Betti number in degree {negative})"] if negative else []),
    ]
    return payload, not negative, lines


def cmd_act(cfg: RunConfig, args, exm: catalog.Example) -> tuple:
    phi = catalog.make_map(exm, cfg.map)
    pol = exm.polarization(cfg.polarization)
    crange = cfg.range or exm.census_range
    which = cfg.verify_targets
    local = check_local_data(exm.cover, cfg.tol)
    mapped = _map_check(exm, phi, cfg.tol)
    # invariance means nothing for data that breaks the bundle laws, nor for
    # a map that is no symplectomorphism to tol (one whose arguments swamp
    # float precision), as `check --map` gives it
    if not local.passed:
        return ({"local_data": local.as_dict(), "status": "invalid_local_data"}, False,
                [_local_data_line(local), "status: invalid_local_data"])
    if not mapped["pass"]:
        line = (f"map: symplectic={mapped['symplectic_max']:.3e} "
                f"inverse={mapped['inverse_max']:.3e}")
        return ({"symplectomorphism": mapped, "status": "invalid_map"}, False,
                [line, "status: invalid_map"])
    # one complementary cover (or obstruction) serves both theorems
    built = build_complementary(phi, exm)
    if isinstance(built, CocycleObstruction):  # no theorem has its hypothesis
        reports = [
            CorrespondenceReport(
                int(w.removeprefix("thm")), "hypothesis-failed", False, built.as_dict()
            )
            for w in which
        ]
    else:
        reports = [
            verify_theorem_1(built, pol, cfg.grid, cfg.rank_tol, cfg.seed)
            if w == "thm1"
            else verify_theorem_2(built, pol, crange, cfg.count)
            for w in which
        ]
    payload: dict = {}
    passed = True
    status = "ok"
    for w, rep in zip(which, reports):
        payload[w] = rep.as_dict()
        passed = passed and rep.passed
        if rep.status != "ok":
            status = rep.status
    payload["status"] = status
    lines = [f"status: {status}"]
    for w in which:
        lines.append(f"{w}: {'pass' if payload[w]['pass'] else 'FAIL'}")
    return payload, passed, lines


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message, command=None):  # exit 2 on usage errors, one line
        prog = f"{self.prog} {command}" if command else self.prog
        raise ConfigurationError(f"{prog}: {message} (see {prog} --help)")


def _add_common(sp):
    """The flags of check, bs, cohomology and act.  They have no argparse
    defaults, so the parsed namespace holds exactly the flags given; the
    settings not given take RunConfig's defaults."""
    sp.add_argument("--example", choices=catalog.EXAMPLE_NAMES)
    sp.add_argument("--k", type=int)
    sp.add_argument("--granularity", type=int)
    sp.add_argument(
        "--p-max", type=float, dest="p_max",
        help="the cylinder's half height, 3.5 by default; without it, a --range "
        "beyond ±2.5 widens it to |range| + 1, but it never widens the census window",
    )
    sp.add_argument("--map", help="e.g. shear, rot:0.7, translate:0.5,0")
    sp.add_argument("--polarization")
    sp.add_argument(
        "--range",
        help="label range lo:hi; default: the model's census window, which for "
        "the cylinder is -2.5:2.5 whatever --p-max is",
    )
    sp.add_argument("--count", type=int)
    sp.add_argument("--grid", type=int)
    sp.add_argument("--max-degree", type=int, dest="max_degree")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--rank-tol", type=float, dest="rank_tol")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--corrupt")
    sp.add_argument("--include-lines", action="store_true", dest="include_lines")
    sp.add_argument("--out", help="write the JSON report here")
    sp.add_argument("--csv", help="write a per-leaf CSV here")
    sp.add_argument("--json", action="store_true", help="print the JSON report")


def _config_from_args(command: str, args) -> RunConfig:
    given = {dest: value for dest, value in vars(args).items() if dest != "command"}
    values = {dest: value for dest, value in given.items() if dest in RunConfig._fields}
    for dest in ("range", "map"):  # an empty value means the default
        if values.get(dest) == "":
            del values[dest]
    if "range" in values:
        try:
            lo, _, hi = values["range"].partition(":")
            values["range"] = (float(lo), float(hi))
        except ValueError:
            raise ConfigurationError(f"bad range {given['range']!r}; expected lo:hi")
    return RunConfig(command=command, flags=tuple(sorted(given)), **values)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and no default is mutable."""
    parser = _Parser(prog="gqlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("examples", help="list builtin models")

    pe = sub.add_parser("parse-expr", help="parse and inspect an expression")
    pe.add_argument("source")
    pe.add_argument("--vars", default=None, help="allowed variable names, comma separated")
    pe.add_argument("--diff", default=None, help="differentiate by this coordinate")
    pe.add_argument("--at", default=None, help="evaluate, e.g. x=0.5,y=2")

    for name, help_text in (
        ("check", "verify local-data laws (and a map, if given)"),
        ("bs", "Bohr-Sommerfeld census"),
        ("cohomology", "cohomology ranks of the trivialization complex"),
        ("act", "verify symplectomorphism invariance theorems"),
    ):
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        _add_common(sp)
        if name == "act":
            sp.add_argument("--verify")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # join "--range -2.5:2.5" so argparse does not read the value as a flag
    joined = []
    skip = False
    for j, item in enumerate(argv):
        if skip:
            skip = False
            continue
        if item == "--range" and j + 1 < len(argv):
            joined.append(f"--range={argv[j + 1]}")
            skip = True
        else:
            joined.append(item)
    argv = joined

    try:
        args, unknown = _parser().parse_known_args(argv)
        if unknown:  # named with the subcommand whose parser lacks them
            _parser().error(f"unrecognized arguments: {' '.join(unknown)}", args.command)
        if args.command == "examples":
            return cmd_examples(args)
        if args.command == "parse-expr":
            return cmd_parse_expr(args)
        cfg = _config_from_args(args.command, args)
        command = {
            "check": cmd_check,
            "bs": cmd_bs,
            "cohomology": cmd_cohomology,
            "act": cmd_act,
        }[args.command]
        t0 = time.perf_counter()
        with trace.counting() as counts:  # one block per command
            exm = _example_from_config(cfg)
            payload, passed, lines = command(cfg, args, exm)
        _emit(_report(cfg, exm, counts, payload, passed, t0), args, lines)
        return 0 if passed else 1
    except (
        ConfigurationError,
        ResolutionError,
        ex.ParseError,
        CoverageError,
        QuadratureError,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
