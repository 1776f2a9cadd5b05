"""Adaptive quadrature against closed forms."""

import math

import numpy as np
import pytest

from gqlab import quadrature
from gqlab.quadrature import QuadratureError, integrate


def _integral(g, a, b):
    """The integral of g over [a, b], as a batch of one row."""
    return integrate(lambda t: g(t[0])[None], a, b)[0]


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
        _integral(lambda t: 1.0 / (t + 0j), 0.0, 1.0)


def test_empty_interval():
    assert _integral(lambda t: t, 2.0, 2.0) == 0.0


def _per_target(f, a, b):
    """One one-row integral per row of f, over that row's interval."""
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    return np.array(
        [
            integrate(lambda t, j=j: f(t, np.array([j])), a[j], b[j])[0]
            for j in range(len(a))
        ]
    )


def _batch(f):
    """f(t, rows) as an integrand of all rows at once."""
    return lambda t: f(t, np.arange(len(t)))


def _bits(z):
    return np.asarray(z, dtype=np.complex128).view(float).tolist()


_PEAK_FREQS = np.array([1.0, 7.0, 40.0, 3.0, 0.5, 25.0])


def _peaks(t, rows):
    w = _PEAK_FREQS[rows][:, None]
    return np.exp(1j * w * t) * np.cos(w * t * t)


def test_rows_on_their_own_intervals_match_one_row_calls():
    a = np.array([0.0, 1.0, -2.0, 0.7, 3.0, 0.0])
    b = np.array([2.0, -1.5, 2.0, 0.7, 3.0 + 1e-9, 6.0])  # reversed, empty, tiny
    got = integrate(_batch(_peaks), a, b)
    want = _per_target(_peaks, a, b)
    assert got[3] == 0.0
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_intervals_broadcast_and_orient():
    ends = np.linspace(-1.0, 2.0, 7)
    got = integrate(lambda t: np.cos(t) + 0j, 0.5, ends)
    assert np.allclose(got, np.sin(ends) - np.sin(0.5), atol=1e-13, rtol=0)
    back = integrate(lambda t: np.cos(t) + 0j, ends, 0.5)
    assert np.all(np.abs(got + back) < 1e-15)


def test_empty_and_divergent_rows():
    assert np.all(integrate(lambda t: t + 0j, [1.0, 2.0], [1.0, 2.0]) == 0)
    with pytest.raises(QuadratureError):
        integrate(lambda t: 1.0 / (t + 0j), [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(QuadratureError):
        integrate(lambda t: t + 0j, 0.0, [1.0, np.nan])


def _sharp(t):
    return np.exp(-((t - 0.3) ** 2) / (2 * 1e-3**2)) + 0j


# a sharp peak that needs about a dozen bisections, a constant, a row that
# needs a few, a reversed interval and an empty one
_MIXED = (
    (_sharp, 0.0, 1.0),
    (lambda t: np.full(t.shape, 2.5 + 1j), 0.0, 1.0),
    (lambda t: np.exp(1j * 40.0 * t) * np.cos(40.0 * t * t), -2.0, 2.0),
    (lambda t: np.cos(t) + 0j, 1.2, 0.0),
    (lambda t: t + 0j, 0.5, 0.5),
)


def test_rows_of_different_depths_are_their_one_row_calls_bit_for_bit():
    one = [integrate(g, a, b)[0] for g, a, b in _MIXED]
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 0], [2, 3, 0, 2, 1]):
        rows = [_MIXED[i] for i in order]

        def f(t, rows=rows):
            return np.array([g(t[r]) for r, (g, _, _) in enumerate(rows)])

        got = integrate(f, [a for _, a, _ in rows], [b for _, _, b in rows])
        assert _bits(got) == _bits([one[i] for i in order]), order
    assert abs(one[0] - 1e-3 * math.sqrt(2 * math.pi)) < 1e-12
    assert one[1] == 2.5 + 1j and one[4] == 0.0


def _counting(f):
    seen = [0]

    def g(*args):
        seen[0] += args[0].size
        return f(*args)

    return g, seen


def test_nan_on_a_subinterval_where_its_row_is_accepted_is_ignored():
    # the constant row is accepted on [0, 1] at once; once the peak row is
    # bisected, the constant row turns NaN, which nothing may read
    def f(t):
        late = t.shape[1] > 15
        return np.array([np.full(t.shape[1], np.nan if late else 1.0) + 0j, _sharp(t[1])])

    got = integrate(f, 0.0, [1.0, 1.0])
    one = integrate(lambda t: np.full(t.shape, 1.0 + 0j), 0.0, 1.0)
    assert _bits(got) == _bits([one[0], integrate(_sharp, 0.0, 1.0)[0]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_in_an_open_row_raises_at_once():
    # the peak row is open on both halves of [0, 1] and NaN there
    def f(t):
        late = t.shape[1] > 15
        return np.array([np.full(t.shape[1], 1.0 + 0j), _sharp(t[1]) * (np.nan if late else 1)])

    g, seen = _counting(f)
    with pytest.raises(QuadratureError, match=r"non-finite estimate on \[0.0, 0.5\]"):
        integrate(g, 0.0, [1.0, 1.0])
    assert seen[0] == 2 * 15 + 2 * 30  # one bisection, then it stops


# --- vector-valued integrands ---------------------------------------------------

_FREQS = np.array([1.0, 7.0, 40.0, 3.0, 0.5])


def _row(w):
    return lambda t: np.exp(1j * w * t) * np.cos(w * t * t)


def _rows(freqs):
    """The rows _row(w), w in freqs, as one integrand of (m, k) nodes."""
    return lambda t: np.array([_row(w)(t[r]) for r, w in enumerate(freqs)])


def _same(a, b, m):
    """The interval [a, b] for each of m rows."""
    return np.full(m, a), np.full(m, b)


def test_one_row_vector_integrand_is_the_scalar_integral():
    # a row keeps its one-row integral next to a row that is accepted on
    # every subinterval
    for w in _FREQS:
        got = integrate(_rows([w]), 0.0, 2.0)
        beside = integrate(
            lambda t, w=w: np.array([_row(w)(t[0]), 0 * t[1] + 1j]), *_same(0.0, 2.0, 2)
        )
        assert got.shape == (1,) and got[0] == beside[0]


def test_rows_share_a_subdivision_and_match_per_row_integrals():
    for a, b in ((0.0, 2.0), (1.0, -1.5), (0.7, 0.7 + 1e-9)):
        got = integrate(_rows(_FREQS), *_same(a, b, len(_FREQS)))
        want = np.array([_integral(_row(w), a, b) for w in _FREQS])
        assert got.shape == (len(_FREQS),)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_rows_whose_subdivision_is_their_own_are_bit_identical():
    # a row repeated next to rows that need no finer subdivision
    got = integrate(_rows([40.0, 40.0, 40.0]), *_same(0.0, 2.0, 3))
    assert np.all(got == _integral(_row(40.0), 0.0, 2.0))


def test_empty_interval_gives_zero_rows():
    g, seen = _counting(_rows(_FREQS))
    got = integrate(g, *_same(1.5, 1.5, len(_FREQS)))
    assert got.shape == (len(_FREQS),) and np.all(got == 0) and seen[0] == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "f,m",
    [
        (lambda t: np.full(t.shape, np.nan + 0j), 1),
        (lambda t: np.full(t.shape, np.nan + 0j), 3),
        (lambda t: np.vstack([np.cos(t[0]) + 0j, np.full(t.shape[1], np.inf + 0j)]), 2),
    ],
    ids=["scalar-nan", "rows-nan", "one-infinite-row"],
)
def test_non_finite_estimate_raises_at_once(f, m):
    g, seen = _counting(f)
    with pytest.raises(QuadratureError, match=r"non-finite estimate on \[0.0, 1.0\]"):
        integrate(g, *_same(0.0, 1.0, m))
    assert seen[0] == 15 * m  # the first 15 nodes of each row, no bisection


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_estimate_is_not_accepted():
    # huge values on the 8 Kronrod nodes only: K15 overflows while G7 = 0,
    # and err = inf passes the relative test tol * (1 + |K15|) = inf
    nodes = 0.5 + 0.5 * quadrature._X[7:]
    f = lambda t: np.where(np.isin(t, nodes), np.finfo(float).max, 0.0) + 0j  # noqa: E731
    with pytest.raises(QuadratureError, match=r"non-finite estimate on \[0.0, 1.0\]"):
        _integral(f, 0.0, 1.0)


def test_non_finite_estimate_of_one_row_raises_at_once():
    g, seen = _counting(lambda t: np.where([[False], [True]], np.nan, t) + 0j)
    with pytest.raises(QuadratureError, match=r"non-finite estimate on \[1.0, 2.0\]"):
        integrate(g, [0.0, 1.0], [1.0, 2.0])
    assert seen[0] == 30


def test_node_tables_are_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    for got, want in zip((quadrature._X7, quadrature._W7), leggauss(7)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_kronrod_table_nests_the_gauss_rule():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = quadrature._X, quadrature._WK
    assert nodes.shape == weights.shape == (15,)
    assert nodes[:7].tobytes() == leggauss(7)[0].tobytes()  # G7 is a slice
    assert len(set(nodes.tolist())) == 15 and np.all(np.abs(nodes) < 1)
    assert weights.sum() == 2.0
    # exact for polynomials of degree 3 * 7 + 1 = 22, and no higher
    for j in range(23):
        assert abs((weights * nodes**j).sum() - (1 + (-1) ** j) / (j + 1)) < 1e-15, j
    assert 1e-9 < abs((weights * nodes**24).sum() - 2 / 25) < 1e-8
