"""First integrals and closed-form radial machinery for Schwarzschild characteristics.

Every characteristic carries the first integrals E, L, K and the radial
constant C (``first_integrals``).  With vanishing azimuthal integral L = 0
the inverse radius u = 1/r obeys
(du/dalpha)^2 = 2m u^3 - u^2 + 2mA u + B =: g(u), a cubic whose root
disposition selects the solution branch.  The coefficients reduce to
A = (E^2 - C)/K and B = C/K; the module also evaluates the radial first
integral

    r_t^2 = (C - K/r^2)(1 - 2m/r) + (2m/r) E^2

used as an oracle against direct integration.
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
    """First integrals of one Schwarzschild characteristic.

    E is the energy-like integral tau_t (1 - 2m/r), L the azimuthal integral
    beta_t r^2 sin^2(alpha), K the Carter-like integral (non-negative), and
    C the radial integration constant of the first-order r equation.
    """

    E: float
    L: float
    K: float
    C: float

    def __post_init__(self):
        if self.K < -1e-12:
            raise ValueError(f"K must be non-negative, got {self.K}")
        if self.K < 0:
            object.__setattr__(self, "K", 0.0)


def first_integrals(params: SchwarzschildParams, y, v):
    """E, L, K and C of the states with positions y and velocities v.

    ``y`` and ``v`` are one state's (4,) vectors or rows of them (..., 4);
    each integral comes back with shape (...).
    """
    m = params.m
    r, alpha = y[..., 1], y[..., 2]
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    E = v[..., 0] * (1.0 - 2.0 * m / r)
    L = v[..., 3] * r * r * sin_a * sin_a
    # float_power is libm pow for every element, like ** on a scalar
    K = np.float_power(r, 4) * (
        np.float_power(v[..., 2], 2) + np.float_power(v[..., 3], 2) * sin_a * sin_a * cos_a * cos_a
    )
    rm = r - 2.0 * m
    C = (
        np.float_power(v[..., 1], 2) * np.float_power(r, 3) + K * rm - 2.0 * m * E * E * r * r
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
        c3, c2, c1, c0 = self.coeffs
        return ((c3 * u + c2) * u + c1) * u + c0

    def g_prime(self, u: float) -> float:
        c3, c2, c1, _ = self.coeffs
        return (3.0 * c3 * u + 2.0 * c2) * u + c1

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
    """(A, B) of the radial cubic from initial data at one vartheta.

    Requires psi_2 != 0 (otherwise K = 0 with L = 0 and the u-profile is
    undefined; radial motion is then handled by the full integrator).
    """
    m = params.m
    r = phi[1]
    if r <= 2.0 * m:
        raise DegenerateDataError(f"initial radius {float(r)!r} inside horizon 2m = {2*m!r}")
    if psi[2] == 0.0:
        raise DegenerateDataError("psi_2 = 0: radial cubic profile undefined")
    rm = r - 2.0 * m
    p0, p1, p2 = psi[0], psi[1], psi[2]
    A = -1.0 / (r * r) + (rm * rm * p0 * p0 - r * r * p1 * p1) / (
        rm * r**5 * p2 * p2
    )
    B = 1.0 / (r * r) + (-2.0 * m * rm * rm * p0 * p0 + r**3 * p1 * p1) / (
        rm * r**6 * p2 * p2
    )
    return float(A), float(B)


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
    lead = 2.0 * m
    try:
        raw = _cubic_roots_monic(-1.0 / lead, A, B / lead)
    except OverflowError as exc:
        raise DegenerateDataError(f"radial cubic overflows at m = {m!r}") from exc
    roots = []
    for u in raw:
        # one Newton step per root sharpens accuracy near double roots
        for _ in range(2):
            c3, c2, c1, c0 = lead, -1.0, 2.0 * m * A, B
            g = ((c3 * u + c2) * u + c1) * u + c0
            dg = (3.0 * c3 * u + 2.0 * c2) * u + c1
            if dg != 0.0 and abs(g) > 0.0:
                step = g / dg
                if abs(step) < 1.0:
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

            def g(u):
                return ((2.0 * m * u - 1.0) * u + 2.0 * m * A) * u + B

            # simple turning point: motion goes where g > 0
            h = 1e-6 * max(1.0, abs(u0))
            if g(u0 + h) > 0.0:
                label = CaseLabel.INNER_BRANCH
            elif g(u0 - h) > 0.0:
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
    """Radial first integral (C - K/r^2)(1 - 2m/r) + (2m/r) E^2."""
    m = params.m
    return (conserved.C - conserved.K / (r * r)) * (1.0 - 2.0 * m / r) + (
        2.0 * m / r
    ) * conserved.E**2
