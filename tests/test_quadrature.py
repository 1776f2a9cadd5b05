"""Adaptive quadrature against closed forms."""

import math

import numpy as np
import pytest

from gqlab.quadrature import QuadratureError, integrate, integrate_many


def _integral(g, a, b, **kw):
    """The integral of g over [a, b], as a batch of one row."""
    return integrate(lambda t: g(t)[None], a, b, **kw)[0]


def test_chern_action_closed_form():
    # integral of (k/2pi) c over a full loop equals k c
    k, c = 3, 2.0 * math.pi / 5.0
    val = _integral(lambda t: np.full(len(t), k / (2 * math.pi) * c + 0j), 0.0, 2 * math.pi)
    assert abs(val - k * c) < 1e-10


def test_polynomial():
    val = _integral(lambda t: t**3 - 2 * t + 0j, -1.0, 2.0)
    assert abs(val - 0.75) < 1e-12


def test_complex_exponential():
    val = _integral(lambda t: np.exp(1j * t), 0.0, math.pi)
    assert abs(val - 2j) < 1e-12


def test_orientation_antisymmetry():
    fwd = _integral(lambda t: np.cos(t) + 0j, 0.0, 1.2)
    bwd = _integral(lambda t: np.cos(t) + 0j, 1.2, 0.0)
    assert abs(fwd + bwd) < 1e-15


def test_sharp_peak_needs_adaptivity():
    sigma = 1e-3
    val = _integral(
        lambda t: np.exp(-((t - 0.3) ** 2) / (2 * sigma**2)) + 0j, 0.0, 1.0
    )
    exact = sigma * math.sqrt(2 * math.pi)  # both tails are ~exp(-4.5e4)
    assert abs(val - exact) < 1e-12 * (1 + exact)


def test_divergence_reported():
    with pytest.raises(QuadratureError):
        _integral(lambda t: 1.0 / (t + 0j), 0.0, 1.0, max_depth=12)


def test_empty_interval():
    assert _integral(lambda t: t, 2.0, 2.0) == 0.0


def _per_target(f, a, b, **kw):
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    return np.array(
        [
            _integral(lambda t, j=j: f(t, np.full(len(t), j)), a[j], b[j], **kw)
            for j in range(len(a))
        ]
    )


def test_integrate_many_matches_integrate_per_target():
    freqs = np.array([1.0, 7.0, 40.0, 3.0, 0.5, 25.0])
    a = np.array([0.0, 1.0, -2.0, 0.7, 3.0, 0.0])
    b = np.array([2.0, -1.5, 2.0, 0.7, 3.0 + 1e-9, 6.0])  # reversed, empty, tiny

    def f(t, owner):
        w = freqs[owner]
        return np.exp(1j * w * t) * np.cos(w * t * t)

    got = integrate_many(f, a, b)
    want = _per_target(f, a, b)
    assert got[3] == 0.0
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_integrate_many_broadcasts_and_orients():
    ends = np.linspace(-1.0, 2.0, 7)
    got = integrate_many(lambda t, owner: np.cos(t) + 0j, 0.5, ends)
    assert np.allclose(got, np.sin(ends) - np.sin(0.5), atol=1e-13, rtol=0)
    back = integrate_many(lambda t, owner: np.cos(t) + 0j, ends, 0.5)
    assert np.all(np.abs(got + back) < 1e-15)


def test_integrate_many_empty_and_divergent():
    assert np.all(integrate_many(lambda t, owner: t + 0j, [1.0, 2.0], [1.0, 2.0]) == 0)
    with pytest.raises(QuadratureError):
        integrate_many(lambda t, owner: 1.0 / (t + 0j), [0.0, 1.0], [1.0, 2.0], max_depth=12)
    with pytest.raises(QuadratureError):
        integrate_many(lambda t, owner: t + 0j, 0.0, [1.0, np.nan])


# --- vector-valued integrands ---------------------------------------------------

_FREQS = np.array([1.0, 7.0, 40.0, 3.0, 0.5])


def _row(w):
    return lambda t: np.exp(1j * w * t) * np.cos(w * t * t)


def _rows(freqs):
    return lambda t: np.array([_row(w)(t) for w in freqs])


def test_one_row_vector_integrand_is_the_scalar_integral():
    # a row keeps its one-row integral next to a row that is accepted on
    # every subinterval, so the shared subdivision is its own
    for w in _FREQS:
        got = integrate(_rows([w]), 0.0, 2.0)
        beside = integrate(lambda t, w=w: np.array([_row(w)(t), 0 * t + 1j]), 0.0, 2.0)
        assert got.shape == (1,) and got[0] == beside[0]


def test_rows_share_a_subdivision_and_match_per_row_integrals():
    for a, b in ((0.0, 2.0), (1.0, -1.5), (0.7, 0.7 + 1e-9)):
        got = integrate(_rows(_FREQS), a, b)
        want = np.array([_integral(_row(w), a, b) for w in _FREQS])
        assert got.shape == (len(_FREQS),)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_rows_whose_subdivision_is_their_own_are_bit_identical():
    # a row repeated next to rows that need no finer subdivision
    got = integrate(_rows([40.0, 40.0, 40.0]), 0.0, 2.0)
    assert np.all(got == _integral(_row(40.0), 0.0, 2.0))


def test_empty_interval_gives_zero_rows():
    got = integrate(_rows(_FREQS), 1.5, 1.5)
    assert got.shape == (len(_FREQS),) and np.all(got == 0)


def _counting(f):
    seen = [0]

    def g(*args):
        seen[0] += len(args[0])
        return f(*args)

    return g, seen


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "f",
    [
        lambda t: np.full((1, len(t)), np.nan + 0j),
        lambda t: np.full((3, len(t)), np.nan + 0j),
        lambda t: np.vstack([np.cos(t) + 0j, np.full(len(t), np.inf + 0j)]),
    ],
    ids=["scalar-nan", "rows-nan", "one-infinite-row"],
)
def test_non_finite_estimate_raises_at_once(f):
    g, seen = _counting(f)
    with pytest.raises(QuadratureError, match=r"non-finite estimate on \[0.0, 1.0\]"):
        integrate(g, 0.0, 1.0)
    assert seen[0] == 22  # the first 7+15 nodes, no bisection


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_estimate_is_not_accepted():
    # huge values on the 15-point nodes only: I15 overflows while I7 = 0, and
    # err = inf passes the relative test tol * (1 + |I15|) = inf
    x15 = np.polynomial.legendre.leggauss(15)[0]
    nodes = 0.5 + 0.5 * np.delete(x15, 7)  # all but the shared midpoint
    f = lambda t: np.where(np.isin(t, nodes), 1.5e308, 0.0) + 0j  # noqa: E731
    with pytest.raises(QuadratureError, match=r"non-finite estimate on \[0.0, 1.0\]"):
        _integral(f, 0.0, 1.0)


def test_integrate_many_non_finite_estimate_raises_at_once():
    g, seen = _counting(lambda t, owner: np.where(owner == 1, np.nan, t) + 0j)
    with pytest.raises(QuadratureError, match=r"non-finite estimate on \[1.0, 2.0\]"):
        integrate_many(g, [0.0, 1.0], [1.0, 2.0])
    assert seen[0] == 44
