"""Covers, their local data and nerves, and grids are built complete and
never change: a cover compiles its formulas on first use and keeps them."""

import importlib
import inspect
import math
import pkgutil
from types import MappingProxyType

import numpy as np
import pytest

import gqlab
from gqlab import catalog
from gqlab import expr as ex
from gqlab.action import build_complementary
from gqlab.cech import TransversalGrid, cohomology_ranks, half_offset_grid
from gqlab.cli import RunConfig, _apply_corruption
from gqlab.prequantum import (
    ConfigurationError,
    LocalData,
    pullback,
    refine,
    split_boxes,
)
from gqlab.record import Record

from cells import degree_cells


# The records that are not tuples (README, "Immutability"): as tuples,
# expression nodes with equal parts would compare equal across types; the
# others normalize or validate their input in __init__, keep a cache or need
# an instance __dict__ for cached_property.  Each derives from
# record.Record; every other record is a NamedTuple.
PLAIN_RECORDS = {
    "record.Record",
    "expr.Expr", "expr.Num", "expr.Pi", "expr.Imag", "expr.Var", "expr.Neg",
    "expr.BinOp", "expr.Call",
    "prequantum.LocalData", "prequantum.Nerve", "prequantum.TrivializationCover",
    "catalog.Example", "cli.RunConfig",
    "geometry.Symplectomorphism", "geometry.Polarization",
}


def _is_named_tuple(cls) -> bool:
    return issubclass(cls, tuple) and hasattr(cls, "_fields")


def _gqlab_classes():
    for info in pkgutil.iter_modules(gqlab.__path__):
        module = importlib.import_module(f"gqlab.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__:
                yield obj


def _gqlab_records():
    """Every record class: a NamedTuple or a class with _fields."""
    return [c for c in _gqlab_classes() if hasattr(c, "_fields")]


def _name(cls) -> str:
    return f"{cls.__module__.removeprefix('gqlab.')}.{cls.__qualname__}"


def test_every_gqlab_record_is_immutable():
    found = _gqlab_records()
    assert len(found) > 20
    for cls in found:
        # a plain record is made past its __init__, which would validate
        if _is_named_tuple(cls):
            record = cls._make([None] * len(cls._fields))
        else:
            record = cls.__new__(cls)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None


def test_the_listed_classes_are_the_records_that_are_not_tuples():
    found = {_name(c) for c in _gqlab_records() if not _is_named_tuple(c)}
    assert found == PLAIN_RECORDS
    assert [_name(c) for c in _gqlab_classes() if hasattr(c, "__dataclass_fields__")] == []


def test_replace_builds_the_copy_anew():
    data = catalog.example("torus", k=1).cover.data
    copy = data._replace(transitions=dict(data.transitions))
    assert isinstance(copy.transitions, MappingProxyType)
    assert copy == data and copy.transitions is not data.transitions
    cfg = RunConfig("cohomology", grid=8)
    assert cfg._replace(grid=16) == RunConfig("cohomology", grid=16)
    assert hash(cfg._replace(grid=16)) == hash(RunConfig("cohomology", grid=16))
    with pytest.raises(ConfigurationError, match="grid"):
        cfg._replace(grid=0)
    with pytest.raises(TypeError):
        cfg._replace(nonesuch=1)


KINDS = ("builtin", "pullback", "refine")


@pytest.fixture(scope="module")
def covers():
    """A builtin cover and one cover of each other constructor."""
    exm = catalog.example("torus", k=2)
    cover = exm.cover
    return {
        "builtin": cover,
        "pullback": pullback(cover, catalog.make_map(exm, "translate:0.7,0.3")),
        "refine": refine(cover, split_boxes(cover))[0],
    }


@pytest.mark.parametrize("kind", KINDS)
def test_cover_attributes_cannot_be_assigned(covers, kind):
    cover = covers[kind]
    for name in ("nerve", "data", "elements"):
        with pytest.raises(AttributeError):
            setattr(cover, name, getattr(cover, name))
    with pytest.raises(AttributeError):
        cover.data.transitions = {}
    with pytest.raises(AttributeError):
        cover.nerve.degrees = ()


@pytest.mark.parametrize("kind", KINDS)
def test_cover_contents_are_read_only(covers, kind):
    cover = covers[kind]
    pair = next(iter(cover.data.transitions))
    with pytest.raises(TypeError):
        cover.data.transitions[pair] = ex.ONE
    with pytest.raises(TypeError):
        cover.data.potentials[0] = (ex.ZERO, ex.ZERO)
    with pytest.raises(TypeError):
        cover.nerve.degrees[0] = cover.nerve.degrees[0]
    with pytest.raises(TypeError):
        cover.elements[0] = cover.elements[0]
    _assert_read_only(cover.nerve.pairs)
    for table in cover.nerve.degrees:
        assert len(table.keys)  # the torus has cells of every degree
        with pytest.raises(TypeError):
            table.keys[0] = table.keys[0]
        _assert_read_only(table[1:])


def _assert_read_only(arrays):
    """Every array refuses a write, and so do its views."""
    for arr in arrays:
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        if not arr.size:  # degree 0 has no faces
            continue
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
        with pytest.raises(ValueError, match="read-only"):
            arr[:1][(0,) * arr.ndim] = arr[(0,) * arr.ndim]


@pytest.mark.parametrize("kind", KINDS)
def test_grid_columns_are_read_only(covers, kind):
    cover = covers[kind]
    pol = catalog.example("torus", k=2).polarization()
    grid = half_offset_grid(cover, pol, 16)
    with pytest.raises(AttributeError):
        grid.degrees = ()
    with pytest.raises(TypeError):
        grid.degrees[0] = grid.degrees[0]
    for columns in grid.degrees:
        _assert_read_only(columns)
    # the blocks of delta that build stacked, every array of every stack
    stacks = [stack for op in grid.operators for stack in op.stacks]
    assert stacks and _mutable_values(grid, "grid", set()) == []
    for stack in stacks:
        _assert_read_only(stack)
    assert _mutable_values(cohomology_ranks(grid), "ranks", set()) == []


@pytest.mark.parametrize("kind", KINDS)
def test_grid_keeps_its_own_read_only_labels_and_frame(covers, kind):
    # the grid's blocks are built on the labels it was given: a later write
    # to the caller's array reaches neither its labels nor its frame
    pol = catalog.example("torus", k=2).polarization()
    labels = np.linspace(0.1, 6.1, 16)
    grid = TransversalGrid.build(covers[kind], pol, labels)
    labels[:] = 99.0
    assert grid.labels.tolist() == np.linspace(0.1, 6.1, 16).tolist()
    frame = [arr for arr in grid.frame if isinstance(arr, np.ndarray)]
    assert len(frame) == 5  # the label and leaf windows and whole
    _assert_read_only([grid.labels, *frame])


def _mutable_values(obj, path, seen):
    """The paths under obj to a dict or list value, following the fields of
    records, mappings and tuples (a NamedTuple's by field name); a cover's
    compile cache is no field."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, (dict, list)):
        return [path]
    if isinstance(obj, tuple):
        items = zip(obj._fields, obj) if _is_named_tuple(type(obj)) else enumerate(obj)
    elif isinstance(obj, MappingProxyType):
        items = obj.items()
    elif isinstance(obj, Record):
        items = zip(obj._fields, obj._values())
    else:
        return []
    return [p for key, value in items for p in _mutable_values(value, f"{path}.{key}", seen)]


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
def test_builtin_example_holds_no_mutable_value(name):
    # the example, its cover, local data, nerve and polarizations
    exm = catalog.example(name, **({"k": 2} if name in ("torus", "sphere") else {}))
    assert _mutable_values(exm, name, set()) == []
    with pytest.raises(TypeError):
        exm.polarizations["other"] = exm.polarization()


@pytest.mark.parametrize("spec, kind", [
    (f"translate:{math.pi:.17g},0", "ComplementaryCover"),
    ("translate:0.7,0", "CocycleObstruction"),
])
def test_complementary_results_hold_no_mutable_value(spec, kind):
    # both results of build_complementary, the solved cocycle and its tree
    # solution, or the obstruction's constants, are read-only mappings
    exm = catalog.example("torus", k=2)
    built = build_complementary(catalog.make_map(exm, spec), exm)
    assert type(built).__name__ == kind
    assert _mutable_values(built, kind, set()) == []
    with pytest.raises(TypeError):
        built.constants[(0, 1, 0)] = 1.0


def test_local_data_keeps_its_own_copy():
    transitions = {(0, 1): ex.ONE, (1, 0): ex.ONE}
    potentials = {0: (ex.ZERO, ex.ZERO)}
    data = LocalData(transitions, potentials)
    transitions[(0, 1)] = ex.ZERO
    del potentials[0]
    assert data.transitions[(0, 1)] is ex.ONE
    assert 0 in data.potentials


def test_corrupted_copy_compiles_its_own_transition():
    exm = catalog.example("torus", k=1)
    (cell,) = [c for c in degree_cells(exm.cover.nerve, exm.manifold, 1) if c.indices == (0, 1)]
    pts = cell.samples
    before = exm.cover.transition(0, 1, pts)  # compiled and cached here
    bad = _apply_corruption(exm, "lam:0,1:1.01")
    np.testing.assert_allclose(bad.cover.transition(0, 1, pts), 1.01 * before, rtol=1e-15)
    assert np.array_equal(exm.cover.transition(0, 1, pts), before)
    assert bad.cover.nerve is exm.cover.nerve
