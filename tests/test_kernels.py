"""The array evaluator: scalar and array calls, deep programs, totality,
tuple programs, and the programs that formula owners compile once."""

import numpy as np
import pytest

from gqlab import bohr, catalog, kernels, program
from gqlab import expr as ex
from gqlab.geometry import pushforward_polarization
from gqlab.prequantum import pullback
from gqlab.program import compile_expr
from gqlab.transport import LeafTransport


def test_program_deeper_than_64_evaluates():
    e = ex.Var("x")
    for _ in range(70):
        e = ex.BinOp("+", ex.Num(1.0), e)
    prog = compile_expr(e, ("x",))
    assert prog.max_stack > 64
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
    out = np.empty((len(pts), 2, 2))
    for a, row in enumerate(phi.jacobian_exprs(inverse)):
        for b, e in enumerate(row):
            out[:, a, b] = kernels.evaluate(e, _cols(phi.coords, pts)).real
    return out


def _element_points(cover, a):
    """Canonical interior points of element a: its nerve cell samples."""
    return cover.manifold.reduce(cover.nerve.cells[((a,), 0)].samples)


def _segments(exm, pol):
    leaves = bohr.enumerate_leaves(exm.cover, pol, exm.census_range, 3, False)
    return [seg for leaf in leaves for seg in leaf.segments]


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
            for inverse in (False, True):
                _same(phi.jacobian(pts, inverse=inverse), _jacobian(phi, pts, inverse))


def test_translation_jacobian_has_constant_entries(models):
    exm = models("torus", k=2)
    phi = catalog.make_map(exm, "translate:0.7,0.3")
    pts = exm.manifold.sample_grid(3)
    jac = phi.jacobian(pts)
    _same(jac, _jacobian(phi, pts))
    _same(jac, np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy())


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


def _pullback_integrand(pullback, pol, member, c, ts):
    """The pulled-back integrand, one expression per evaluation."""
    src, phi = pullback.pullback_of
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
        _same(transport.integrand(seg.element)(np.array([seg.c_elem]), ts)[0], want)
    for spec in maps:
        phi = catalog.make_map(exm, spec)
        pulled = pullback(exm.cover, phi)
        pushed = pushforward_polarization(phi, pol)
        moved = LeafTransport(pulled, pushed)
        for seg in segments:
            ts = _segment_ts(seg)
            values = {"c": complex(seg.c_elem), "t": ts + 0j}
            got = moved.integrand(seg.element)(np.array([seg.c_elem]), ts)[0]
            # the pulled potentials along the pushed curve, bit for bit
            want = kernels.evaluate(_base_integrand(pulled, pushed, seg.element), values)
            _same(got, want)
            # and the chain rule through the map, to rounding
            chain = _pullback_integrand(pulled, pol, seg.element, seg.c_elem, ts)
            assert np.all(np.abs(got - chain) <= 1e-12 * np.maximum(1.0, np.abs(chain)))


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
        phi.jacobian(pts, inverse=True)
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
