"""Closed-form answers that gqlab's reports are checked against.

Nothing here imports gqlab.  Every expected value comes from the models'
closed forms (docs/conventions.md, README.md):

* torus of Chern number k: the loop at height c has holonomy exp(-i k c),
  so the Bohr-Sommerfeld (BS) heights are c = 2 pi m / k;
* cylinder (theta = p dx), sphere in moment coordinates, disk in action
  coordinates: BS leaves sit at integer labels; the sphere adds its two
  poles and the disk its centre as singular BS points;
* Sniatycki (1977): the cohomology of the polarized sheaf sits only on BS
  leaves.  On the half-offset label grid each BS label adds one to H^0 and
  one to H^1 (a trivial local system on the circle), so Betti = (B, B, 0);
  line leaves (plane) give one H^0 dimension per label, and leaves that
  close inside a single cover element (sphere, disk) are excluded from the
  discretized complex, giving (0, 0, 0);
* obstruction: translate:a,0 on the Chern-k torus changes the flat part of
  the connection by k a dx1, whose holonomy is exp(-i k a); pshift:b on the
  cylinder changes it by b dx, with holonomy exp(-2 pi i b).  The witness
  cycle may run either way round, so its product is one of exp(+-i k a)
  or exp(+-2 pi i b).
"""

from __future__ import annotations

import cmath
import math

TWO_PI = 2.0 * math.pi
LOCATION_TOL = 1e-8  # BS locations and cycle products
LABEL_TOL = 1e-9  # a grid label counts as BS when this close


def torus_bs_labels(k: int, lo: float, hi: float) -> list:
    """Heights 2 pi m / k in [lo, hi)."""
    step = TWO_PI / k
    m = math.ceil(lo / step - LABEL_TOL)
    out = []
    while m * step < hi - LABEL_TOL:
        out.append(m * step)
        m += 1
    return out


def integers_inside(lo: float, hi: float) -> list:
    """Integers strictly between lo and hi."""
    return [float(n) for n in range(math.floor(lo) + 1, math.ceil(hi)) if lo < n < hi]


def half_offset_labels(lo: float, hi: float, n: int) -> list:
    """The cohomology label grid: n labels staggered half a step off lo."""
    step = (hi - lo) / n
    return [lo + step * (j + 0.5) for j in range(n)]


def _near_integer(x: float) -> bool:
    return abs(x - round(x)) < LABEL_TOL


def torus_betti(k: int, n: int) -> list:
    b = sum(_near_integer(k * c / TWO_PI) for c in half_offset_labels(0.0, TWO_PI, n))
    return [b, b, 0]


def cylinder_betti(p_max: float, n: int) -> list:
    b = sum(_near_integer(c) for c in half_offset_labels(-p_max, p_max, n))
    return [b, b, 0]


def distance_to_integers(values) -> float:
    """Smallest distance of the values to an integer."""
    return min(abs(c - round(c)) for c in values)


def cycle_product_matches(product: complex, phase: float) -> bool:
    """product equals exp(i phase) or exp(-i phase)."""
    return any(
        abs(product - cmath.exp(s * 1j * phase)) < LOCATION_TOL for s in (1.0, -1.0)
    )


def same_values(got, want, tol: float = LOCATION_TOL) -> bool:
    got, want = sorted(got), sorted(want)
    return len(got) == len(want) and all(abs(g - w) < tol for g, w in zip(got, want))
