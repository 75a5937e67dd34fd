"""Incomplete elliptic integral of the first kind.

F(chi, k) = integral_0^chi dgamma / sqrt(1 - k^2 sin^2 gamma) is computed
through Carlson's symmetric form R_F with the duplication algorithm, which
converges to full double precision in a handful of iterations.  Amplitudes
beyond |chi| = pi/2 are reduced with the quasi-periodicity
F(chi + n*pi, k) = F(chi, k) + 2n K(k).
"""

from __future__ import annotations

import math


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson symmetric integral R_F(x, y, z), arguments >= 0, at most one zero."""
    if min(x, y, z) < 0.0 or (x + y) == 0.0 or (y + z) == 0.0 or (x + z) == 0.0:
        raise ValueError(f"invalid Carlson R_F arguments ({x}, {y}, {z})")
    a0 = (x + y + z) / 3.0
    q = (3.0 * math.ulp(1.0)) ** (-1.0 / 8.0) * max(
        abs(a0 - x), abs(a0 - y), abs(a0 - z)
    )
    a = a0
    f = 1.0
    for _ in range(64):
        if q < abs(a) * f:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        a = 0.25 * (a + lam)
        f *= 4.0
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
    return series / math.sqrt(a)


def complete_elliptic_k(k: float) -> float:
    """Complete integral K(k) = F(pi/2, k) for modulus 0 <= k^2 < 1."""
    k2 = k * k
    if not 0.0 <= k2 < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k^2 < 1, got k^2 = {k2}")
    return carlson_rf(0.0, 1.0 - k2, 1.0)


def elliptic_f(chi: float, k: float) -> float:
    """Incomplete elliptic integral of the first kind F(chi, k).

    chi is the amplitude in radians (any real value), k the modulus with
    0 <= k^2 < 1.  Odd in chi; for |chi| > pi/2 the amplitude is reduced by
    whole half-periods.
    """
    k2 = k * k
    if not 0.0 <= k2 < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k^2 < 1, got k^2 = {k2}")
    if chi == 0.0:
        return 0.0
    n = round(chi / math.pi)
    chi_r = chi - n * math.pi  # in [-pi/2, pi/2]
    result = 0.0
    if n != 0:
        result += 2.0 * n * complete_elliptic_k(k)
    if chi_r != 0.0:
        s = math.sin(chi_r)
        c2 = max(math.cos(chi_r) ** 2, 0.0)
        result += s * carlson_rf(c2, 1.0 - k2 * s * s, 1.0)
    return result

