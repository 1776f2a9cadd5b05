"""Command line interface and report emission.

Subcommands: examples, check, bs, cohomology, act, parse-expr.  Every run
echoes its configuration into a versioned JSON report; payloads are
deterministic for a fixed config and seed (timing lives outside the
payload).  Exit codes: 0 pass, 1 verification failure, 2 usage or config
error, 3 internal error (an invariant violation or any other exception).
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import dataclasses
import functools
import json
import math
import sys
import time
from collections import Counter

import numpy as np

from . import __version__, catalog
from . import expr as ex
from .action import (
    InternalConsistencyError,
    build_complementary,
    verify_theorem_1,
    verify_theorem_2,
)
from .bohr import CoverageError, bs_census, lattice_count
from .cech import ResolutionError, cohomology_ranks
from .geometry import check_symplectomorphism
from .prequantum import ConfigurationError, check_local_data
from .quadrature import QuadratureError

REPORT_SCHEMA = "gqlab.report/1"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    example: str = "torus"
    k: int = 1
    granularity: int | None = None
    p_max: float | None = None
    map: str = "identity"
    polarization: str = "default"
    range: tuple | None = None
    count: int = 33
    grid: int = 32
    max_degree: int = 2
    tol: float = 1e-8
    rank_tol: float = 1e-8
    seed: int = 0
    corrupt: str | None = None
    include_lines: bool = False
    verify: str = "thm1,thm2"

    def __post_init__(self):
        """Reject values no command can run with, before any work starts."""
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
        if self.command == "act":
            if not self.verify_targets:
                raise ConfigurationError(
                    f"verify names no target, got {self.verify!r}; "
                    "expected thm1, thm2 or both"
                )
            bad = [w for w in self.verify_targets if w not in ("thm1", "thm2")]
            if bad:
                raise ConfigurationError(f"unknown verification targets {bad}")

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

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["range"] = list(self.range) if self.range is not None else None
        return out


def _example_from_config(cfg: RunConfig) -> catalog.Example:
    params: dict = {}
    if cfg.example in ("torus", "sphere"):
        params["k"] = cfg.k
    if cfg.granularity is not None:
        if cfg.example not in ("plane", "torus", "cylinder"):
            raise ConfigurationError(
                f"granularity does not apply to {cfg.example}"
            )
        params["granularity"] = cfg.granularity
    if cfg.example == "cylinder":
        params["p_max"] = cfg.cylinder_p_max
    exm = catalog.example(cfg.example, **params)
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
    cover = dataclasses.replace(
        exm.cover, data=dataclasses.replace(data, transitions=transitions)
    )
    return dataclasses.replace(exm, cover=cover)


def _report(cfg: RunConfig, payload: dict, passed: bool, seconds: float) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "gqlab", "version": __version__},
        "config": cfg.to_dict(),
        "pass": passed,
        "payload": payload,
        "timing": {"seconds": seconds},
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
    # strict RFC 8259 JSON: a value with no finite answer is written as null
    # where it is produced, so a NaN or infinity reaching here is a fault
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InternalConsistencyError(f"report is not strict JSON: {exc}") from None
    if args.out:
        with _open_for_writing(args.out, "report") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        for line in summary_lines:
            print(line)
        if args.out:
            print(f"report written to {args.out}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_examples(args) -> int:
    for name in catalog.EXAMPLE_NAMES:
        exm = catalog.example(name, **({"k": 1} if name in ("torus", "sphere") else {}))
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
    return (
        f"local data: cocycle={local.cocycle_max:.3e} inverse={local.inverse_max:.3e} "
        f"curvature={local.curvature_max:.3e} compatibility={local.compatibility_max:.3e}"
    )


def cmd_check(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    exm = _example_from_config(cfg)
    local = check_local_data(exm.cover, cfg.tol)
    payload = {"local_data": local.as_dict()}
    passed = local.passed
    if cfg.map != "identity" or args.map is not None:
        phi = catalog.make_map(exm, cfg.map)
        mrep = check_symplectomorphism(exm.manifold, exm.omega, phi, tol=cfg.tol)
        payload["symplectomorphism"] = {
            "symplectic_max": mrep.symplectic_max,
            "inverse_max": mrep.inverse_max,
            "samples": mrep.samples,
            "flagged": mrep.flagged,
            "pass": mrep.passed,
        }
        passed = passed and mrep.passed
    report = _report(cfg, payload, passed, time.perf_counter() - t0)
    lines = [
        _local_data_line(local),
        f"check: {'pass' if passed else 'FAIL'} (tol {cfg.tol:g})",
    ]
    _emit(report, args, lines)
    return 0 if passed else 1


def cmd_bs(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    exm = _example_from_config(cfg)
    pol = exm.polarization(cfg.polarization)
    crange = cfg.range or exm.census_range
    census = bs_census(
        exm.cover, pol, crange, cfg.count, cfg.tol, cfg.include_lines
    )
    payload = {"census": census.as_dict(), "range": list(crange)}
    if cfg.example == "sphere":
        payload["lattice"] = {
            "interval": [0, cfg.k],
            "count": lattice_count(0.0, float(cfg.k)),
            "interior_count": lattice_count(1e-6, cfg.k - 1e-6),
        }
    passed = True
    report = _report(cfg, payload, passed, time.perf_counter() - t0)
    report["timing"]["counters"] = census.counters
    if args.csv:
        _write_leaf_csv(args.csv, census)
    locs = ", ".join(f"{c:.10g}" for c in census.bs_locations)
    lines = [
        f"q_bs = {census.q_bs} (smooth {census.q_bs_smooth}, "
        f"singular {census.q_bs_singular}, lines excluded {census.lines_excluded})",
        f"BS locations: [{locs}]",
    ]
    _emit(report, args, lines)
    return 0


def _write_leaf_csv(path: str, census) -> None:
    with _open_for_writing(path, "leaf CSV", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(
            ["label", "topology", "singular", "is_bs", "action", "phase",
             "holonomy_re", "holonomy_im"]
        )
        for entry in census.entries:
            h = entry.holonomy
            writer.writerow(
                [
                    entry.leaf.label,
                    entry.leaf.topology,
                    entry.leaf.singular,
                    entry.is_bs,
                    h.action if h else "",
                    h.phase if h else "",
                    h.holonomy.real if h else "",
                    h.holonomy.imag if h else "",
                ]
            )


def cmd_cohomology(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    exm = _example_from_config(cfg)
    pol = exm.polarization(cfg.polarization)
    rank = cohomology_ranks(
        exm.cover, pol, cfg.grid, cfg.rank_tol, max_degree=cfg.max_degree
    )
    payload = {"cohomology": rank.as_dict()}
    report = _report(cfg, payload, True, time.perf_counter() - t0)
    report["timing"]["counters"] = rank.counters
    lines = [
        "degree  dim   rank(delta)  betti  betti/leaf",
        *(
            f"{d.degree:>6}  {d.dim_cochains:>4}  {d.delta_rank:>11}  "
            f"{d.betti:>5}  {d.betti_per_leaf if d.betti_per_leaf is not None else '-'}"
            for d in rank.degrees
        ),
    ]
    _emit(report, args, lines)
    return 0


def cmd_act(cfg: RunConfig, args) -> int:
    t0 = time.perf_counter()
    exm = _example_from_config(cfg)
    phi = catalog.make_map(exm, cfg.map)
    which = cfg.verify_targets
    # invariance means nothing for data that breaks the bundle laws
    local = check_local_data(exm.cover, cfg.tol)
    if not local.passed:
        status = "invalid_local_data"
        payload = {"local_data": local.as_dict(), "status": status}
        report = _report(cfg, payload, False, time.perf_counter() - t0)
        _emit(report, args, [_local_data_line(local), f"status: {status}"])
        return 1
    # one complementary cover (or obstruction) serves both theorems
    built = build_complementary(phi, exm.cover)
    pol_name = cfg.polarization if cfg.polarization != "default" else None
    payload: dict = {}
    counters = Counter(built.counters)
    passed = True
    status = "ok"
    for w in which:
        if w == "thm1":
            rep = verify_theorem_1(
                exm, phi, pol_name, grid_n=cfg.grid, threshold=cfg.rank_tol,
                seed=cfg.seed, complementary=built,
            )
        else:
            rep = verify_theorem_2(
                exm, phi, pol_name, crange=cfg.range, count=cfg.count,
                tol=cfg.tol, complementary=built,
            )
        payload[w] = rep.as_dict()
        counters.update(rep.counters)
        passed = passed and rep.passed
        if rep.status != "ok":
            status = rep.status
    payload["status"] = status
    report = _report(cfg, payload, passed, time.perf_counter() - t0)
    report["timing"]["counters"] = dict(counters)
    lines = [f"status: {status}"]
    for w in which:
        lines.append(f"{w}: {'pass' if payload[w]['pass'] else 'FAIL'}")
    _emit(report, args, lines)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 on usage errors
        raise ConfigurationError(f"{message}\n{self.format_usage().rstrip()}")


def _add_common(sp):
    sp.add_argument("--example", default="torus", choices=catalog.EXAMPLE_NAMES)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--granularity", type=int, default=None)
    sp.add_argument("--p-max", type=float, default=None, dest="p_max")
    sp.add_argument("--map", default=None, help="e.g. shear, rot:0.7, translate:0.5,0")
    sp.add_argument("--polarization", default="default")
    sp.add_argument("--range", default=None, help="label range lo:hi")
    sp.add_argument("--count", type=int, default=33)
    sp.add_argument("--grid", type=int, default=32)
    sp.add_argument("--max-degree", type=int, default=2, dest="max_degree")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--rank-tol", type=float, default=1e-8, dest="rank_tol")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--corrupt", default=None)
    sp.add_argument("--include-lines", action="store_true", dest="include_lines")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.add_argument("--csv", default=None, help="write a per-leaf CSV here")
    sp.add_argument("--json", action="store_true", help="print the JSON report")


def _config_from_args(command: str, args) -> RunConfig:
    crange = None
    if args.range:
        try:
            lo, _, hi = args.range.partition(":")
            crange = (float(lo), float(hi))
        except ValueError:
            raise ConfigurationError(f"bad range {args.range!r}; expected lo:hi")
    return RunConfig(
        command=command,
        example=args.example,
        k=args.k,
        granularity=args.granularity,
        p_max=args.p_max,
        map=args.map or "identity",
        polarization=args.polarization,
        range=crange,
        count=args.count,
        grid=args.grid,
        max_degree=args.max_degree,
        tol=args.tol,
        rank_tol=args.rank_tol,
        seed=args.seed,
        corrupt=args.corrupt,
        include_lines=args.include_lines,
        verify=getattr(args, "verify", RunConfig.verify),
    )


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
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        if name == "act":
            sp.add_argument("--verify", default=RunConfig.verify)
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
        args = _parser().parse_args(argv)
        if args.command == "examples":
            return cmd_examples(args)
        if args.command == "parse-expr":
            return cmd_parse_expr(args)
        cfg = _config_from_args(args.command, args)
        handler = {
            "check": cmd_check,
            "bs": cmd_bs,
            "cohomology": cmd_cohomology,
            "act": cmd_act,
        }[args.command]
        return handler(cfg, args)
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
