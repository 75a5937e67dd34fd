"""First integrals and closed-form radial machinery for Schwarzschild characteristics.

Every characteristic carries the first integrals E, L, K and the radial
constant C (``first_integrals``).  With the total angular momentum
J = K + L^2 the inverse radius u = 1/r obeys the radial first integral

    r_t^2 = P(u) = 2mJ u^3 - J u^2 + 2m(E^2 - C) u + C
          = (C - J/r^2)(1 - 2m/r) + (2m/r) E^2,

whose coefficients ``radial_cubic`` forms (Chandrasekhar, The Mathematical
Theory of Black Holes, section 19).  Where J > 0, P = J g(u) with
A = (E^2 - C)/J and B = C/J, and along the angle chi swept in the orbital
plane (chi = alpha when L = 0)

    (du/dchi)^2 = 2m u^3 - u^2 + 2mA u + B =: g(u),

a cubic whose root disposition selects the solution branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .errors import DegenerateDataError
from .initial_data import InitialCurve
from .spacetime import SchwarzschildParams

DOUBLE_ROOT_TOL = 1e-9


@dataclass(frozen=True)
class ConservedSet:
    """First integrals of a Schwarzschild characteristic (floats), or of many (arrays).

    E is the energy-like integral tau_t (1 - 2m/r), L the azimuthal integral
    beta_t r^2 sin^2(alpha), K the Carter-like integral (non-negative), and
    C the constant term of the radial first integral r_t^2 = P(1/r).
    """

    E: float | np.ndarray
    L: float | np.ndarray
    K: float | np.ndarray
    C: float | np.ndarray

    def __post_init__(self):
        if np.any(self.K < -1e-12):
            raise ValueError(f"K must be non-negative, got {np.nanmin(self.K)}")
        if np.any(self.K < 0):
            object.__setattr__(self, "K", np.maximum(self.K, 0.0))


def first_integrals(params: SchwarzschildParams, y, v):
    """E, L, K and C of the states with positions y and velocities v.

    C solves r_t^2 = P(1/r) (``radial_cubic``) at the state, so it is constant
    along every geodesic.  ``y`` and ``v`` are one state's (4,) vectors or
    rows of them (..., 4); each integral comes back with shape (...).
    """
    m = params.m
    r, alpha = y[..., 1], y[..., 2]
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    # far out the powers of r overflow to inf, and C to nan, which the
    # callers' checks read
    with np.errstate(over="ignore", invalid="ignore"):
        E = v[..., 0] * (1.0 - 2.0 * m / r)
        L = v[..., 3] * r * r * sin_a * sin_a
        # float_power is libm pow for every element, like ** on a scalar
        K = np.float_power(r, 4) * (
            np.float_power(v[..., 2], 2) + np.float_power(v[..., 3], 2) * sin_a * sin_a * cos_a * cos_a
        )
        rm, J = r - 2.0 * m, K + L * L
        C = (
            np.float_power(v[..., 1], 2) * np.float_power(r, 3) + J * rm - 2.0 * m * E * E * r * r
        ) / (r * r * rm)
    return E, L, K, C


def conserved_from_data(
    curve: InitialCurve, params: SchwarzschildParams, vartheta: float
) -> ConservedSet:
    """E, L, K and the radial constant C of one characteristic's data."""
    phi = curve.phi(vartheta)
    r = float(phi[1])
    if r <= 2.0 * params.m:
        raise DegenerateDataError(f"initial radius {r!r} is inside the horizon 2m = {2*params.m!r}")
    E, L, K, C = first_integrals(params, phi, curve.psi(vartheta))
    return ConservedSet(E=float(E), L=float(L), K=float(K), C=float(C))


def radial_cubic(m, E, L, K, C):
    """Coefficients (c3, c2, c1, c0) of the radial first integral P(u) = r_t^2.

    P(u) = 2mJ u^3 - J u^2 + 2m(E^2 - C) u + C in u = 1/r, with J = K + L^2;
    E, L, K and C are those of ``first_integrals``.
    """
    J = K + L * L
    return 2.0 * m * J, -J, 2.0 * m * (E * E - C), C


def _cubic_at(c, u):
    """The cubic with coefficients c = (c3, c2, c1, c0) at u, by Horner's rule."""
    c3, c2, c1, c0 = c
    return ((c3 * u + c2) * u + c1) * u + c0


class CaseLabel(Enum):
    DOUBLE_ROOT = "double_root"
    INNER_BRANCH = "inner_branch"  # u grows from its initial root: infall
    OUTER_BRANCH = "outer_branch"  # u shrinks from its initial root: escape
    GENERIC = "generic"


@dataclass(frozen=True)
class CubicProfile:
    """The cubic g(u) = 2m u^3 - u^2 + 2mA u + B with its real roots.

    ``roots`` are sorted descending; ``u0`` is the initial inverse radius
    used for branch classification (None for detached profiles).
    """

    m: float
    A: float
    B: float
    roots: tuple[float, ...]
    case_label: CaseLabel
    u0: float | None = None

    @property
    def coeffs(self) -> tuple[float, float, float, float]:
        return (2.0 * self.m, -1.0, 2.0 * self.m * self.A, self.B)

    def g(self, u: float) -> float:
        return _cubic_at(self.coeffs, u)

    def modulus_squared(self) -> float | None:
        """k^2 = (u_mid - u_lo)/(u_hi - u_lo) for three-real-root profiles."""
        if len(self.roots) < 3:
            return None
        hi, mid, lo = self.roots
        if hi == lo:
            return None
        return (mid - lo) / (hi - lo)


def cubic_coefficients(
    phi: np.ndarray, psi: np.ndarray, params: SchwarzschildParams
) -> tuple[float, float]:
    """(A, B) = ((E^2 - C)/J, C/J) of the radial cubic from initial data at one vartheta.

    g = P/J is undefined where J = K + L^2 = 0: for data with psi_2 = 0 and
    L = 0, whose motion is radial and left to the full integrator.
    """
    m = params.m
    r = phi[1]
    if r <= 2.0 * m:
        raise DegenerateDataError(f"initial radius {float(r)!r} inside horizon 2m = {2*m!r}")
    # numpy scalars: data near the float limits gives inf or nan, not an exception
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        E, L, K, C = first_integrals(params, phi, psi)
        if psi[2] == 0.0 and L == 0.0:
            raise DegenerateDataError("psi_2 = 0 and L = 0: radial cubic profile undefined")
        c3, c2, c1, c0 = radial_cubic(m, E, L, K, C)
        # g = P/J with J = -c2 and c3 = 2mJ
        A, B = float(c1 / c3), float(c0 / -c2)
    if not (math.isfinite(A) and math.isfinite(B)):
        raise DegenerateDataError(
            f"radial cubic coefficients out of float range: A = {A!r}, B = {B!r}"
        )
    return A, B


def _cubic_roots_monic(b: float, c: float, d: float) -> list[float]:
    """Real roots of u^3 + b u^2 + c u + d, Viete trigonometric / Cardano."""
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    # a double root has disc = 0 analytically but roundoff-sized numerically;
    # route near-zero discriminants through the three-real-root branch
    disc_scale = (q / 2.0) ** 2 + abs(p / 3.0) ** 3
    if disc <= 16.0 * np.finfo(float).eps * disc_scale:
        # three real roots (counting multiplicity): trigonometric form
        mag = 2.0 * math.sqrt(max(-p / 3.0, 0.0))
        if mag == 0.0:
            return [shift, shift, shift]
        arg = 3.0 * q / (p * mag)
        arg = min(1.0, max(-1.0, arg))
        phase = math.acos(arg) / 3.0
        return [
            mag * math.cos(phase) + shift,
            mag * math.cos(phase - 2.0 * math.pi / 3.0) + shift,
            mag * math.cos(phase - 4.0 * math.pi / 3.0) + shift,
        ]
    # one real root: Cardano
    sq = math.sqrt(disc)
    t1 = -q / 2.0 + sq
    t2 = -q / 2.0 - sq
    root = math.copysign(abs(t1) ** (1.0 / 3.0), t1) + math.copysign(
        abs(t2) ** (1.0 / 3.0), t2
    )
    return [root + shift]


def solve_cubic(
    m: float, A: float, B: float, u0: float | None = None
) -> CubicProfile:
    """Roots of 2m u^3 - u^2 + 2mA u + B with a Newton polish and branch label.

    Classification relative to the initial inverse radius u0:
    a double root at u0 gives a circular orbit (DOUBLE_ROOT); a simple root
    at u0 starts at a radial turning point and moves toward increasing u
    (INNER_BRANCH, infall) or decreasing u (OUTER_BRANCH, escape) according
    to the sign of g around it; data not at a root is labeled GENERIC.
    """
    c3, c2, c1, c0 = c = (2.0 * m, -1.0, 2.0 * m * A, B)
    try:
        raw = _cubic_roots_monic(c2 / c3, A, c0 / c3)
    except OverflowError as exc:
        raise DegenerateDataError(f"radial cubic overflows at m = {m!r}") from exc
    roots = []
    for u in raw:
        # up to two Newton steps per root, each kept only if it lowers |g|:
        # at a double root g' ~ 0, and a step there would throw the root away
        for _ in range(2):
            g, dg = _cubic_at(c, u), (3.0 * c3 * u + 2.0 * c2) * u + c1
            step = g / dg if dg != 0.0 else 0.0
            if not (0.0 < abs(step) < 1.0 and abs(_cubic_at(c, u - step)) < abs(g)):
                break
            u -= step
        roots.append(u)
    roots.sort(reverse=True)

    label = CaseLabel.GENERIC
    if u0 is not None:
        tol_u0 = 1e-7 * max(1.0, abs(u0))
        near_u0 = [u for u in roots if abs(u - u0) <= max(tol_u0, DOUBLE_ROOT_TOL)]
        at_root = any(abs(u - u0) <= tol_u0 for u in roots)
        if len(near_u0) >= 2:
            label = CaseLabel.DOUBLE_ROOT
        elif at_root:
            # simple turning point: motion goes where g > 0
            h = 1e-6 * max(1.0, abs(u0))
            if _cubic_at(c, u0 + h) > 0.0:
                label = CaseLabel.INNER_BRANCH
            elif _cubic_at(c, u0 - h) > 0.0:
                label = CaseLabel.OUTER_BRANCH

    return CubicProfile(
        m=m, A=A, B=B, roots=tuple(roots), case_label=label, u0=u0
    )


def profile_from_data(
    phi: np.ndarray, psi: np.ndarray, params: SchwarzschildParams
) -> CubicProfile:
    A, B = cubic_coefficients(phi, psi, params)
    return solve_cubic(params.m, A, B, u0=1.0 / phi[1])


def example2_coefficients(m: float, r0: float) -> tuple[float, float]:
    """Closed-form (A, B) for turning-point data at radius r0: A = 0."""
    return 0.0, (r0 - 2.0 * m) / r0**3


def example2_roots(m: float, r0: float) -> tuple[float, float, float]:
    """Closed-form roots of the A = 0 profile: (1/r0, outer pair from the quadratic)."""
    disc = math.sqrt((r0 - 2.0 * m) * (r0 + 6.0 * m))
    u1 = 1.0 / r0
    u2 = (r0 - 2.0 * m + disc) / (4.0 * m * r0)
    u3 = (r0 - 2.0 * m - disc) / (4.0 * m * r0)
    return u1, u2, u3


def example3_roots(m: float, r0: float) -> tuple[float, float, float]:
    """Roots of the B = 0 profile: {0, 1/r0, (r0 - 2m)/(2m r0)}."""
    return 0.0, 1.0 / r0, (r0 - 2.0 * m) / (2.0 * m * r0)


def rt_squared(r: float, conserved: ConservedSet, params: SchwarzschildParams) -> float:
    """Radial first integral r_t^2 = P(1/r) of ``radial_cubic`` at radius r."""
    c = radial_cubic(params.m, conserved.E, conserved.L, conserved.K, conserved.C)
    return _cubic_at(c, 1.0 / r)
