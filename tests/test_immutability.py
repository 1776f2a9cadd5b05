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


def _gqlab_dataclasses():
    for info in pkgutil.iter_modules(gqlab.__path__):
        module = importlib.import_module(f"gqlab.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                yield obj


def test_every_gqlab_dataclass_is_frozen():
    found = list(_gqlab_dataclasses())
    assert len(found) > 20
    mutable = [f"{c.__module__}.{c.__qualname__}" for c in found
               if not c.__dataclass_params__.frozen]
    assert mutable == []


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
    fields, mappings and tuples; a cover's compile cache is exempt."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, (dict, list)):
        return [path]
    if isinstance(obj, tuple):
        items = enumerate(obj)
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
