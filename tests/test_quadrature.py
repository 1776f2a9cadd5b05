"""Adaptive quadrature against closed forms."""

import math

import numpy as np
import pytest

from gqlab.quadrature import QuadratureError, integrate, integrate_many


def test_chern_action_closed_form():
    # integral of (k/2pi) c over a full loop equals k c
    k, c = 3, 2.0 * math.pi / 5.0
    val = integrate(lambda t: np.full(len(t), k / (2 * math.pi) * c + 0j), 0.0, 2 * math.pi)
    assert abs(val - k * c) < 1e-10


def test_polynomial():
    val = integrate(lambda t: t**3 - 2 * t + 0j, -1.0, 2.0)
    assert abs(val - 0.75) < 1e-12


def test_complex_exponential():
    val = integrate(lambda t: np.exp(1j * t), 0.0, math.pi)
    assert abs(val - 2j) < 1e-12


def test_orientation_antisymmetry():
    fwd = integrate(lambda t: np.cos(t) + 0j, 0.0, 1.2)
    bwd = integrate(lambda t: np.cos(t) + 0j, 1.2, 0.0)
    assert abs(fwd + bwd) < 1e-15


def test_sharp_peak_needs_adaptivity():
    sigma = 1e-3
    val = integrate(
        lambda t: np.exp(-((t - 0.3) ** 2) / (2 * sigma**2)) + 0j, 0.0, 1.0
    )
    exact = sigma * math.sqrt(2 * math.pi)  # both tails are ~exp(-4.5e4)
    assert abs(val - exact) < 1e-12 * (1 + exact)


def test_divergence_reported():
    with pytest.raises(QuadratureError):
        integrate(lambda t: 1.0 / (t + 0j), 0.0, 1.0, max_depth=12)


def test_empty_interval():
    assert integrate(lambda t: t, 2.0, 2.0) == 0.0


def _per_target(f, a, b, **kw):
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    return np.array(
        [
            integrate(lambda t, j=j: f(t, np.full(len(t), j)), a[j], b[j], **kw)
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
