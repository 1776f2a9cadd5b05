"""The per-layer tracer in perfbench/ wraps gqlab functions by name; a
rename here must fail the suite, not only a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(tracing):
    missing = []
    for module_name, path, _span in tracing.BINDINGS:
        module = importlib.import_module(f"gqlab.{module_name}")
        owner, _, attr = path.rpartition(".")
        target = getattr(module, owner, None) if owner else module
        if target is None or attr not in vars(target):
            missing.append(f"gqlab.{module_name}.{path}")
    assert missing == []


def test_compile_expr_is_still_an_lru_cache():
    from gqlab import program

    assert hasattr(program.compile_expr, "cache_info")


# One small command line per workload; tracing.EXPECTED lists the layers
# each must reach.
WORKLOAD_LINES = {
    "census": ["bs", "--example", "torus", "--k", "2", "--count", "8"],
    "ranks": ["cohomology", "--example", "torus", "--k", "2", "--grid", "8"],
    "invariance": ["act", "--example", "sphere", "--k", "2", "--map", "rot:1.0",
                   "--verify", "thm1,thm2"],
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_LINES))
def test_each_workload_reaches_its_traced_layers(tracing, workload, capsys):
    from gqlab import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(WORKLOAD_LINES[workload])
    finally:
        tracer.uninstall()
    assert code == 0
    tracer.require(workload)
