"""Incomplete elliptic integral of the first kind.

F(chi, k) = integral_0^chi dgamma / sqrt(1 - k^2 sin^2 gamma) is computed
through Carlson's symmetric form R_F with the duplication algorithm, which
converges to full double precision in a handful of iterations.  Amplitudes
beyond |chi| = pi/2 are reduced with the quasi-periodicity
F(chi + n*pi, k) = F(chi, k) + 2n K(k).

Every function takes floats or arrays that broadcast together and works
element by element; a float runs through the same code as a 0-d array, and
each element gets the bits a loop over the floats would give.
"""

from __future__ import annotations

import math

import numpy as np

_RF_SCALE = (3.0 * math.ulp(1.0)) ** (-1.0 / 8.0)


def carlson_rf(x, y, z):
    """Carlson symmetric integral R_F(x, y, z), arguments >= 0, at most one zero.

    Each element stops duplicating when it has converged on its own.
    """
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    negative = np.minimum(np.minimum(x, y), z) < 0.0
    if np.any(negative | (x + y == 0.0) | (y + z == 0.0) | (x + z == 0.0)):
        raise ValueError(f"invalid Carlson R_F arguments ({x}, {y}, {z})")
    a0 = (x + y + z) / 3.0
    q = _RF_SCALE * np.maximum(np.maximum(np.abs(a0 - x), np.abs(a0 - y)), np.abs(a0 - z))
    a = a0
    f = np.ones_like(a0)
    for _ in range(64):
        going = ~(q < np.abs(a) * f)
        if not going.any():
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z, a = (np.where(going, 0.25 * (v + lam), v) for v in (x, y, z, a))
        f = np.where(going, f * 4.0, f)
    big_x = (a - x) / a
    big_y = (a - y) / a
    big_z = -(big_x + big_y)
    e2 = big_x * big_y - big_z * big_z
    e3 = big_x * big_y * big_z
    series = (
        1.0
        + e3 * (1.0 / 14.0 + 3.0 * e3 / 104.0)
        + e2
        * (
            -1.0 / 10.0
            + e2 / 24.0
            - 3.0 * e3 / 44.0
            - 5.0 * e2 * e2 / 208.0
            + e2 * e3 / 16.0
        )
    )
    return series / np.sqrt(a)


def _modulus_squared(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    k2 = k * k
    if not np.all((0.0 <= k2) & (k2 < 1.0)):
        raise ValueError(f"modulus must satisfy 0 <= k^2 < 1, got k^2 = {k2}")
    return k2


def complete_elliptic_k(k):
    """Complete integral K(k) = F(pi/2, k) for modulus 0 <= k^2 < 1."""
    return carlson_rf(0.0, 1.0 - _modulus_squared(k), 1.0)


def elliptic_f(chi, k):
    """Incomplete elliptic integral of the first kind F(chi, k).

    chi is the amplitude in radians (any real value), k the modulus with
    0 <= k^2 < 1.  Odd in chi; for |chi| > pi/2 the amplitude is reduced by
    whole half-periods.
    """
    k2 = _modulus_squared(k)
    chi = np.asarray(chi, dtype=float)
    n = np.round(chi / math.pi)
    chi_r = chi - n * math.pi  # in [-pi/2, pi/2]
    s = np.sin(chi_r)
    # float_power is libm pow, as ** on a float is
    c2 = np.maximum(np.float_power(np.cos(chi_r), 2.0), 0.0)
    result = s * carlson_rf(c2, 1.0 - k2 * s * s, 1.0)
    if np.any(n):
        result = 2.0 * n * complete_elliptic_k(k) + result
    return result
