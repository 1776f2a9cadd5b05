"""Covers, their local data and nerves, and grids are built complete and
never change: a cover compiles its formulas on first use and keeps them."""

import dataclasses
import importlib
import inspect
import pkgutil
from types import MappingProxyType

import numpy as np
import pytest

import gqlab
from gqlab import catalog
from gqlab import expr as ex
from gqlab.cli import _apply_corruption
from gqlab.prequantum import (
    LocalData,
    pullback,
    refine,
    split_boxes,
)


# The classes that stay frozen dataclasses (README, "Immutability"): as
# tuples, expression nodes with equal parts would compare equal across
# types; the others normalize their input in __post_init__, keep a cache
# or need an instance __dict__ for cached_property.  Every other record is
# a NamedTuple.
DATACLASSES = {
    "expr.Expr", "expr.Num", "expr.Pi", "expr.Imag", "expr.Var", "expr.Neg",
    "expr.BinOp", "expr.Call",
    "prequantum.LocalData", "prequantum.Nerve", "prequantum.TrivializationCover",
    "catalog.Example", "cli.RunConfig",
    "geometry.Symplectomorphism", "geometry.Polarization",
}


def _is_named_tuple(cls) -> bool:
    return issubclass(cls, tuple) and hasattr(cls, "_fields")


def _gqlab_records():
    for info in pkgutil.iter_modules(gqlab.__path__):
        module = importlib.import_module(f"gqlab.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and (
                dataclasses.is_dataclass(obj) or _is_named_tuple(obj)
            ):
                yield obj


def _name(cls) -> str:
    return f"{cls.__module__.removeprefix('gqlab.')}.{cls.__qualname__}"


def test_every_gqlab_record_is_immutable():
    found = list(_gqlab_records())
    assert len(found) > 20
    mutable = [_name(c) for c in found
               if dataclasses.is_dataclass(c) and not c.__dataclass_params__.frozen]
    assert mutable == []
    for cls in found:
        if dataclasses.is_dataclass(cls):
            continue
        record = cls._make([None] * len(cls._fields))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_only_the_listed_classes_are_dataclasses():
    found = {_name(c) for c in _gqlab_records() if dataclasses.is_dataclass(c)}
    assert found == DATACLASSES


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
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cover, name, getattr(cover, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cover.data.transitions = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        cover.nerve.cells = {}


@pytest.mark.parametrize("kind", KINDS)
def test_cover_contents_are_read_only(covers, kind):
    cover = covers[kind]
    pair = next(iter(cover.data.transitions))
    key = next(iter(cover.nerve.cells))
    with pytest.raises(TypeError):
        cover.data.transitions[pair] = ex.ONE
    with pytest.raises(TypeError):
        cover.data.potentials[0] = (ex.ZERO, ex.ZERO)
    with pytest.raises(TypeError):
        cover.nerve.cells[key] = cover.nerve.cells[key]
    with pytest.raises(TypeError):
        cover.nerve.faces[key] = ()
    with pytest.raises(TypeError):
        cover.elements[0] = cover.elements[0]


def _mutable_values(obj, path, seen):
    """The paths under obj to a dict or list value, following dataclass
    fields, mappings and tuples (a NamedTuple's by field name); a cover's
    compile cache is exempt."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, (dict, list)):
        return [path]
    if isinstance(obj, tuple):
        items = zip(obj._fields, obj) if _is_named_tuple(type(obj)) else enumerate(obj)
    elif isinstance(obj, MappingProxyType):
        items = obj.items()
    elif dataclasses.is_dataclass(obj):
        items = (
            (f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
            if f.name != "_programs"  # filled on first use, see prequantum
        )
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
    (cell,) = [c for c in exm.cover.nerve.degree(1) if c.indices == (0, 1)]
    pts = exm.manifold.reduce(cell.samples)
    before = exm.cover.transition(0, 1, pts)  # compiled and cached here
    bad = _apply_corruption(exm, "lam:0,1:1.01")
    np.testing.assert_allclose(bad.cover.transition(0, 1, pts), 1.01 * before, rtol=1e-15)
    assert np.array_equal(exm.cover.transition(0, 1, pts), before)
    assert bad.cover.nerve is exm.cover.nerve
