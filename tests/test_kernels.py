"""The array evaluator: scalar and array calls, deep programs, totality,
tuple programs, repeated subtrees computed once, and the programs that
formula owners compile once."""

import re
from typing import NamedTuple

import numpy as np
import pytest

from gqlab import catalog, kernels, program
from gqlab import expr as ex
from gqlab.geometry import pushforward_polarization
from gqlab.prequantum import pullback
from gqlab.program import compile_expr
from gqlab.transport import LeafTransport

from cells import element_segments
from trees import free_vars, node_by_node, subtrees


def test_program_deeper_than_64_evaluates():
    e = ex.Var("x")
    for _ in range(70):
        e = ex.BinOp("+", ex.Num(1.0), e)
    prog = compile_expr(e, ("x",))
    rows = int(re.search(r"np\.empty\(\((\d+), n\)", prog.source).group(1))
    assert rows > 64
    out = kernels.run(prog, np.array([[2.0 + 0j]]))
    assert abs(out[0] - 72.0) < 1e-12


def test_evaluate_scalar_and_array():
    e = ex.parse_expr("x^2 + 1")
    assert kernels.evaluate(e, {"x": 3.0}) == 10.0 + 0j
    out = kernels.evaluate(e, {"x": np.array([1.0, 2.0])})
    assert np.allclose(out, [2.0, 5.0])


def test_division_by_zero_is_total():
    e = ex.parse_expr("1/x")
    out = kernels.evaluate(e, {"x": np.array([0.0, 2.0])})
    assert not np.isfinite(out[0]) and out[1] == 0.5


# ---------------------------------------------------------------------------
# Each node kind is the one NumPy ufunc it names, bit for bit, and no input
# text reaches a program's source.

# (source, reference on complex128 columns x and y)
NODES = [
    ("x + y", np.add),
    ("x - y", np.subtract),
    ("x * y", np.multiply),
    ("x / y", np.divide),
    ("x ^ y", np.power),
    ("x ^ 3", lambda x, y: np.power(x, 3)),
    ("x ^ -2", lambda x, y: np.power(x, -2)),
    ("x ^ 2.5", lambda x, y: np.power(x, 2.5 + 0j)),
    ("-x", lambda x, y: np.negative(x)),
    ("exp(x)", lambda x, y: np.exp(x)),
    ("log(x)", lambda x, y: np.log(x)),
    ("sin(x)", lambda x, y: np.sin(x)),
    ("cos(x)", lambda x, y: np.cos(x)),
    ("sqrt(x)", lambda x, y: np.sqrt(x)),
    ("atan2(x, y)", lambda x, y: np.arctan2(x.real, y.real).astype(np.complex128)),
    ("pi", lambda x, y: np.full(x.shape, complex(np.pi))),
    ("i", lambda x, y: np.full(x.shape, 1j)),
]

_X = np.array([0, -0.0, 1.5, -2.25, np.nan, np.inf, -np.inf, 1 + 2j, -0.5 - 3j,
               complex(np.nan, 1), complex(0, np.inf), 1e-300, 1e300])
_Y = np.roll(_X, 3)


def _scalar(v):
    return float(v.real) if v.imag == 0 else complex(v)


def _pairs(kind):
    """[((x, y) as the evaluator gets them, (x, y) as complex128 arrays)]:
    the whole columns, or each pair of entries as Python scalars."""
    if kind == "complex":
        return [((_X, _Y), (_X, _Y))]
    if kind == "real":
        x, y = _X.real.copy(), _Y.real.copy()
        return [((x, y), (x.astype(np.complex128), y.astype(np.complex128)))]
    return [((_scalar(a), _scalar(b)), (_X[j : j + 1], _Y[j : j + 1]))
            for j, (a, b) in enumerate(zip(_X, _Y))]


@pytest.mark.parametrize("kind", ["complex", "real", "scalar"])
@pytest.mark.parametrize("source, ufunc", NODES, ids=[s for s, _ in NODES])
def test_each_node_is_its_numpy_ufunc_bit_for_bit(source, ufunc, kind):
    e = ex.parse_expr(source)
    for (x, y), (cx, cy) in _pairs(kind):
        got = kernels.evaluate(e, {"x": x, "y": y})
        with np.errstate(all="ignore"):
            want = ufunc(cx, cy)
        _same(np.atleast_1d(np.complex128(got)), want)


@pytest.mark.parametrize("kind", ["complex", "real", "scalar"])
def test_tuple_program_rows_are_their_numpy_ufuncs_bit_for_bit(kind):
    prog = compile_expr(tuple(ex.parse_expr(s) for s, _ in NODES), ("x", "y"))
    for (x, y), (cx, cy) in _pairs(kind):
        got = kernels.evaluate(prog, {"x": x, "y": y})
        with np.errstate(all="ignore"):
            want = np.stack([ufunc(cx, cy) for _, ufunc in NODES])
        _same(got.reshape(want.shape), want)


def test_names_and_constants_never_enter_the_source():
    odd = ("a b", "__import__('os')")
    plain = ex.parse_expr("x * sin(y) + x ^ 2.5 - atan2(y, x)")
    renamed = ex.substitute(plain, {"x": ex.Var(odd[0]), "y": ex.Var(odd[1])})
    prog = compile_expr(renamed, odd + ("z",))
    got = kernels.evaluate(prog, {odd[0]: _X, odd[1]: _Y, "z": _Y})
    _same(got, kernels.evaluate(plain, {"x": _X, "y": _Y}))
    assert not any(name in prog.source for name in odd + ("import", "2.5"))
    assert prog.run.__code__ is compile_expr(plain, ("x", "y")).run.__code__
    values = (float("nan"), float("inf"), 2 - 1j)
    prog = compile_expr(tuple(ex.Num(v) for v in values), ())
    _same(kernels.run(prog, [], 2), np.repeat(np.array(values, complex)[:, None], 2, 1))
    assert not any(word in prog.source for word in ("nan", "inf", "j"))


# ---------------------------------------------------------------------------
# Tuple programs and owner-compiled programs are bit-identical to
# per-expression evaluation.

# (example, params, map specs); cylinder ("x", "p") and sphere ("z", "phi")
# list their coordinates out of sorted order.
CASES = [
    ("plane", {}, ("shear", "rot:0.3", "translate:0.5,0.25")),
    ("cylinder", {}, ("pshift:0.4", "translate:1.5")),
    ("torus", {"k": 2}, ("translate:0.7,0.3",)),
    ("sphere", {"k": 2}, ("rot:1.0",)),
    ("disk", {}, ("rot:0.7",)),
]
CASE_IDS = [name for name, _, _ in CASES]


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _cols(coords, pts):
    return {coords[0]: pts[:, 0] + 0j, coords[1]: pts[:, 1] + 0j}


def _real_columns(exprs, values):
    return np.column_stack([kernels.evaluate(e, values).real for e in exprs])


def _jacobian(phi, pts, inverse=False):
    """DPhi, or D(phi^-1) when inverse is set, at pts, entry by entry."""
    out = np.empty((len(pts), 2, 2))
    for a, comp in enumerate(phi.inverse if inverse else phi.forward):
        for b, name in enumerate(phi.coords):
            e = ex.differentiate(comp, name)
            out[:, a, b] = kernels.evaluate(e, _cols(phi.coords, pts)).real
    return out


def _element_points(cover, a):
    """Canonical interior points of element a: its nerve cell samples."""
    elements = cover.nerve.samples(0, cover.manifold)
    row = elements.keys.index(((a,), 0))
    end = np.cumsum(elements.sizes)[row]
    return elements.points[end - elements.sizes[row] : end]


class Segment(NamedTuple):
    element: int
    t0: float
    t1: float
    c_elem: float  # the label lifted into the element frame


def _segments(exm, pol):
    labels = np.linspace(*exm.census_range, 3)
    return [Segment(*seg) for seg in element_segments(exm.cover, pol, labels)]


def _segment_ts(seg):
    # interior nodes: a pulled-back point must land back in the element
    return np.linspace(seg.t0, seg.t1, 9)[1:-1]


@pytest.mark.parametrize("name,params,maps", CASES, ids=CASE_IDS)
def test_tuple_program_rows_match_single_programs(models, name, params, maps):
    exm = models(name, **params)
    coords = exm.manifold.coords
    pts = exm.manifold.sample_grid(5)
    exprs = [c for comps in exm.cover.data.potentials.values() for c in comps]
    exprs += list(exm.cover.data.transitions.values())
    prog = compile_expr(tuple(exprs), coords)
    assert prog.outputs == len(exprs)
    rows = kernels.evaluate(prog, _cols(coords, pts))
    assert rows.shape == (len(exprs), len(pts))
    for row, e in zip(rows, exprs):
        _same(row, kernels.evaluate(e, _cols(coords, pts)))
    # scalar inputs give one value per part
    x, y = (float(v) for v in pts[0])
    scalars = kernels.evaluate(prog, {coords[0]: x, coords[1]: y})
    _same(scalars, np.array([kernels.evaluate(e, {coords[0]: x, coords[1]: y})
                             for e in exprs]))
    # zero-length inputs give zero-length rows
    empty = kernels.evaluate(prog, _cols(coords, np.empty((0, 2))))
    assert empty.shape == (len(exprs), 0) and empty.dtype == np.complex128


@pytest.mark.parametrize("name,params,maps", CASES, ids=CASE_IDS)
def test_cover_local_data_matches_per_expression(models, name, params, maps):
    cover = models(name, **params).cover
    coords = cover.manifold.coords
    for a, comps in sorted(cover.data.potentials.items()):
        pts = _element_points(cover, a)
        lifted = cover.member_points(a, pts)
        got = cover.potential(a, pts)
        assert len(got) == 2
        for g, e in zip(got, comps):
            _same(g, kernels.evaluate(e, _cols(coords, lifted)))
    pts = cover.manifold.sample_grid(4)
    for (a, b), lam in sorted(cover.data.transitions.items()):
        _same(cover.transition(a, b, pts), kernels.evaluate(lam, _cols(coords, pts)))
        vals = kernels.evaluate(lam, _cols(coords, pts))
        for g, c in zip(cover.transition_dlog(a, b, pts), coords):
            d = kernels.evaluate(ex.differentiate(lam, c), _cols(coords, pts))
            _same(g, d / vals)


@pytest.mark.parametrize("name,params,maps", CASES, ids=CASE_IDS)
def test_maps_match_per_expression(models, name, params, maps):
    exm = models(name, **params)
    coords = exm.manifold.coords
    for spec in maps:
        phi = catalog.make_map(exm, spec)
        for pts in (exm.manifold.sample_grid(5), np.empty((0, 2))):
            values = _cols(coords, pts)
            _same(phi.apply(pts), _real_columns(phi.forward, values))
            _same(phi.apply_inverse(pts), _real_columns(phi.inverse, values))
            _same(phi.jacobian(pts), _jacobian(phi, pts))


def test_translation_jacobian_has_constant_entries(models):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, "translate:0.7,0.3")
    pts = exm.manifold.sample_grid(3)
    jac = phi.jacobian(pts)
    _same(jac, _jacobian(phi, pts))
    _same(jac, np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy())


@pytest.mark.parametrize("name,params,spec", [("disk", {}, "rot:0.7"),
                                              ("torus", {"k": 2}, "translate:0.7,0.3")])
def test_a_map_compiles_its_map_inverse_and_jacobian(models, name, params, spec):
    # three programs, each on its first use, and no inverse Jacobian
    phi = catalog.make_map(models(name, **params), spec)
    programs = phi._programs
    assert sorted(programs) == ["inverse", "jacobian", "map"]
    assert programs["jacobian"].outputs == 4
    assert programs["map"].outputs == programs["inverse"].outputs == 2


@pytest.mark.parametrize("name,params,maps", CASES, ids=CASE_IDS)
def test_polarization_curves_match_per_expression(models, name, params, maps):
    exm = models(name, **params)
    for pol in exm.polarizations.values():
        ts = np.linspace(-1.0, 2.0, 7)
        c = 0.5 * sum(pol.label_range)
        values = {"c": np.full(ts.shape, c) + 0j, "t": ts + 0j}
        _same(pol.curve_points(c, ts), _real_columns(pol.curve, values))
        cs = np.linspace(*pol.label_range, 7)
        values = {"c": cs + 0j, "t": ts + 0j}
        _same(pol.curve_points(cs, ts), _real_columns(pol.curve, values))
        _same(pol.curve_points(c, np.empty(0)), np.empty((0, 2)))


def _base_integrand(cover, pol, member):
    coords = cover.manifold.coords
    theta = cover.data.potentials[member]
    sub = {coords[0]: pol.curve[0], coords[1]: pol.curve[1]}
    return ex.add(
        ex.mul(ex.substitute(theta[0], sub), ex.differentiate(pol.curve[0], "t")),
        ex.mul(ex.substitute(theta[1], sub), ex.differentiate(pol.curve[1], "t")),
    )


def _pullback_integrand(pullback, src, phi, pol, member, c, ts):
    """The integrand of the pullback of src by phi, one expression per
    evaluation."""
    coords = src.manifold.coords
    values = {"c": complex(c), "t": ts + 0j}
    up = _real_columns(pol.curve, values)
    vel = _real_columns([ex.differentiate(comp, "t") for comp in pol.curve], values)
    down = pullback.manifold.reduce(_real_columns(phi.inverse, _cols(coords, up)))
    v = np.einsum("nab,nb->na", _jacobian(phi, src.manifold.reduce(up), True), vel)
    image = src.manifold.reduce(_real_columns(phi.forward, _cols(coords, down)))
    lifted = src.member_points(member, image)
    s0, s1 = (kernels.evaluate(e, _cols(coords, lifted))
              for e in src.data.potentials[member])
    jac = _jacobian(phi, down)
    t0 = s0 * jac[:, 0, 0] + s1 * jac[:, 1, 0]
    t1 = s0 * jac[:, 0, 1] + s1 * jac[:, 1, 1]
    return t0 * v[:, 0] + t1 * v[:, 1]


def _at_nodes(run, c, ts):
    """run at the label c and the nodes ts, one value per node: a run whose
    program does not read t returns one column, its value at every node."""
    vals = run(np.array([c]), ts)
    assert vals.shape == (1, len(ts) if run.along else 1)
    return np.broadcast_to(vals, (1, len(ts)))[0]


@pytest.mark.parametrize("name,params,maps", CASES, ids=CASE_IDS)
def test_transport_integrands_match_per_expression(models, name, params, maps):
    exm = models(name, **params)
    pol = exm.polarization()
    transport = LeafTransport(exm.cover, pol)
    segments = _segments(exm, pol)
    assert segments
    for seg in segments:
        ts = _segment_ts(seg)
        values = {"c": complex(seg.c_elem), "t": ts + 0j}
        want = kernels.evaluate(_base_integrand(exm.cover, pol, seg.element), values)
        _same(_at_nodes(transport.integrand(seg.element), seg.c_elem, ts), want)
    for spec in maps:
        phi = catalog.make_map(exm, spec)
        pulled = pullback(exm.cover, phi)
        pushed = pushforward_polarization(phi, pol)
        moved = LeafTransport(pulled, pushed)
        for seg in segments:
            ts = _segment_ts(seg)
            values = {"c": complex(seg.c_elem), "t": ts + 0j}
            got = _at_nodes(moved.integrand(seg.element), seg.c_elem, ts)
            # the pulled potentials along the pushed curve, bit for bit
            want = kernels.evaluate(_base_integrand(pulled, pushed, seg.element), values)
            _same(got, want)
            # and the chain rule through the map, to rounding
            chain = _pullback_integrand(pulled, exm.cover, phi, pol, seg.element, seg.c_elem, ts)
            assert np.all(np.abs(got - chain) <= 1e-12 * np.maximum(1.0, np.abs(chain)))


@pytest.mark.parametrize("name,params", [("torus", {"k": 3}), ("cylinder", {}),
                                         ("plane", {"granularity": 2})])
def test_transport_composes_each_distinct_potential_once(models, monkeypatch, name,
                                                         params):
    # the elements of a cover that share a potential formula share its
    # composed integrand: one substitution per component, not per element
    exm = models(name, **params)
    potentials = exm.cover.data.potentials
    transport = LeafTransport(exm.cover, exm.polarization())
    substitute, depth, top = ex.substitute, [0], []

    def counted(e, mapping):
        if not depth[0]:
            top.append(e)
        depth[0] += 1
        try:
            return substitute(e, mapping)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ex, "substitute", counted)
    runs = [transport.integrand(a) for a in sorted(potentials)]
    again = [transport.integrand(a) for a in sorted(potentials)]
    distinct = set(potentials.values())
    assert len(top) == 2 * len(distinct)
    assert len({id(run) for run in runs}) <= len(distinct)
    assert [id(run) for run in again] == [id(run) for run in runs]


def test_owners_compile_once(models, monkeypatch):
    exm = models("cylinder")
    cover, pol = exm.cover, exm.polarization()
    phi = catalog.make_map(exm, "pshift:0.4")
    pts = exm.manifold.sample_grid(4)
    seg = _segments(exm, pol)[0]
    ts = _segment_ts(seg)
    a = seg.element
    b = next(q for (p, q) in cover.data.transitions if p == a)
    transport = LeafTransport(cover, pol)
    pushed = pushforward_polarization(phi, pol)
    moved = LeafTransport(pullback(cover, phi), pushed)

    def use():
        phi.apply(pts)
        phi.apply_inverse(pts)
        phi.jacobian(pts)
        cover.potential(a, _element_points(cover, a))
        cover.transition(a, b, pts)
        pol.curve_points(seg.c_elem, ts)
        transport.integrand(a)(np.array([seg.c_elem]), ts)
        moved.integrand(a)(np.array([seg.c_elem]), ts)

    use()
    misses = program.compile_expr.cache_info().misses
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((ex, "differentiate"), (program, "compile_expr"),
                         (kernels, "compile_expr")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for _ in range(3):
        use()
    assert calls == []
    monkeypatch.undo()
    assert program.compile_expr.cache_info().misses == misses


# ---------------------------------------------------------------------------
# A repeated subtree is computed once and loaded where it recurs; every
# value is still the tree's, node by node, bit for bit.

# formulas that repeat subtrees, within a part and across the parts of a
# tuple, and literals of both signed zeros
SHARED = [
    ("sin(x)*sin(x) + cos(x*y)/cos(x*y)",),
    ("sqrt(2*x)*cos(y) + sqrt(2*x)*sin(y) - sqrt(2*x)*cos(y)*sin(y)",),
    ("(x + y)^2 - (x + y)^y + exp(-(x + y)) * (x + y)^-3",),
    ("atan2(y, x) * atan2(y, x) + log(atan2(y, x) - x)",),
    ("sin(x)*y", "sin(x)*y + 1", "x - sin(x)*y", "exp(sin(x)*y)"),
    ("x + 0", "x + -0", "(x + 0)*(y - -0)", "(x + -0)*(y - 0)"),
    ("sqrt(2*x)", "sqrt(2*x)^2", "x*sqrt(2*x) + y*sqrt(2*x)"),
]

_STORE_OR_LOAD = re.compile(r"s\[-?\d+\] = (cols\[\d+\]|k\d+|s\[-?\d+\])")


def _computing(prog):
    """The statements of prog that run a ufunc: all but the allocation, the
    loads of variables, constants and kept rows, and the stores."""
    body = prog.source.splitlines()[2:-1]
    return [line for line in body if not _STORE_OR_LOAD.fullmatch(line.strip())]


def _parts(sources):
    parts = tuple(ex.parse_expr(s) for s in sources)
    return parts if len(parts) > 1 else parts[0]


def _check_against_the_tree(e, var_names, cols):
    prog = compile_expr(e, var_names)
    n = len(next(iter(cols.values())))
    got = kernels.evaluate(prog, cols)
    parts = e if isinstance(e, tuple) else (e,)
    want = np.stack([node_by_node(part, cols, n) for part in parts])
    _same(got.reshape(want.shape), want)
    assert len(_computing(prog)) == len(subtrees(e))
    return prog


@pytest.mark.parametrize("sources", SHARED, ids=[" ; ".join(s) for s in SHARED])
def test_shared_subtrees_equal_the_tree_node_by_node(sources):
    e = _parts(sources)
    for x, y in ((_X, _Y), (_X.real.copy(), _Y.real.copy())):
        prog = _check_against_the_tree(e, ("x", "y"), {"x": x, "y": y})
    assert "s[-1]" in prog.source  # something was kept
    # every kept row is stored once and loaded at least once
    for row in set(re.findall(r"s\[-\d+\]", prog.source)):
        assert prog.source.count(f"{row} = s[") == 1
        assert prog.source.count(f"= {row}") >= 1


def test_a_signed_zero_literal_is_its_own_constant():
    prog = compile_expr(_parts(("x + 0", "x + -0")), ("x",))
    got = kernels.evaluate(prog, {"x": np.array([-0.0])})
    assert np.signbit(got.real).tolist() == [[False], [True]]
    assert len(set(re.findall(r"k\d+", prog.source))) == 2


def _flux_integrand(cover, pol):
    (u, v), (x, y) = cover.manifold.coords, pol.curve
    w = ex.substitute(cover.omega.coefficient, {u: x, v: y})
    jac = ex.sub(
        ex.mul(ex.differentiate(x, "c"), ex.differentiate(y, "t")),
        ex.mul(ex.differentiate(y, "c"), ex.differentiate(x, "t")),
    )
    return ex.mul(w, jac)


def _builtin_formulas(exm, maps):
    """The leaf integrands and flux integrands that transport composes on
    the model, for every polarization and on the pullback by each map, and
    the gauge forms of the complementary covers, as two lists: formulas
    over ("c", "t") and formulas over the model's coordinates."""
    pairs = [(exm.cover, pol) for pol in exm.polarizations.values()]
    gauge = []
    for spec in maps:
        phi = catalog.make_map(exm, spec)
        pulled = pullback(exm.cover, phi)
        pairs.append((pulled, pushforward_polarization(phi, exm.polarization())))
        naive = exm.data_builder(pulled.elements)
        for a, comps in sorted(pulled.data.potentials.items()):
            gauge += [ex.BinOp("-", tn, tp) for tn, tp in zip(naive.potentials[a], comps)]
    along = [_flux_integrand(cover, pol) for cover, pol in pairs]
    along += [_base_integrand(cover, pol, a) for cover, pol in pairs
              for a in sorted(cover.data.potentials)]
    return along, gauge


@pytest.mark.parametrize("name,params,maps", CASES, ids=CASE_IDS)
def test_builtin_programs_read_their_free_variables(models, name, params, maps):
    exm = models(name, **params)
    along, gauge = _builtin_formulas(exm, maps)
    assert along and gauge
    for formulas, var_names in ((along, ("c", "t")), (gauge, exm.manifold.coords)):
        for e in formulas:
            assert compile_expr(e, var_names).reads == free_vars(e)
        union = frozenset().union(*map(free_vars, formulas))
        assert compile_expr(tuple(formulas), var_names).reads == union


@pytest.mark.parametrize("name,params,maps", CASES, ids=CASE_IDS)
def test_builtin_programs_equal_the_tree_node_by_node(models, name, params, maps):
    exm = models(name, **params)
    along, gauge = _builtin_formulas(exm, maps)
    rng = np.random.default_rng(5)
    cols = {"c": np.concatenate([rng.uniform(0.1, 2.0, 8), _X]),
            "t": np.concatenate([rng.uniform(-3.0, 3.0, 8), _Y])}
    pts = exm.manifold.sample_grid(3)
    xy = {c: np.concatenate([pts[:, j], _X.real]) for j, c in enumerate(exm.manifold.coords)}
    for formulas, var_names, values in ((along, ("c", "t"), cols),
                                        (gauge, exm.manifold.coords, xy)):
        for e in formulas:
            _check_against_the_tree(e, var_names, values)
        _check_against_the_tree(tuple(formulas), var_names, values)


def test_the_disk_pullback_integrand_shares_its_subtrees(models):
    exm = models("disk")
    phi = catalog.make_map(exm, "rot:0.7")
    pulled = pullback(exm.cover, phi)
    pushed = pushforward_polarization(phi, exm.polarization())
    for a in sorted(pulled.data.potentials):
        prog = compile_expr(_base_integrand(pulled, pushed, a), ("c", "t"))
        statements = prog.source.splitlines()[1:-1]  # all but def and return
        assert len(statements) <= 80  # 234 with one statement per node
