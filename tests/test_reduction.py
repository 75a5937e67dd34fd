import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nullsheet as ns
from nullsheet.errors import DegenerateDataError
from nullsheet.reduction import CaseLabel, first_integrals


class TestCubicCoefficients:
    def test_example2_reduces_to_closed_form(self, m1_params, photon_curve):
        phi = photon_curve.phi(0.4)
        psi = photon_curve.psi(0.4)
        a_coef, b_coef = ns.cubic_coefficients(phi, psi, m1_params)
        a_ref, b_ref = ns.example2_coefficients(1.0, 3.0)
        assert a_coef == pytest.approx(a_ref, abs=1e-14)
        assert b_coef == pytest.approx(b_ref, rel=1e-13)

    def test_example2_r10_value(self, m1_params):
        oracle = ns.make_oracle(
            2, "auto",
            ns.OracleParams(m=1.0, r0=10.0, f=1.0, alpha0=1.0, sign_alpha=1),
        )
        curve = oracle.initial_curve()
        a_coef, b_coef = ns.cubic_coefficients(curve.phi(1.0), curve.psi(1.0), m1_params)
        assert a_coef == pytest.approx(0.0, abs=1e-16)
        assert b_coef == pytest.approx(0.008, rel=1e-13)

    def test_example3_b_vanishes(self, m1_params, ex3_circular_curve):
        phi = ex3_circular_curve.phi(1.0)
        psi = ex3_circular_curve.psi(1.0)
        a_coef, b_coef = ns.cubic_coefficients(phi, psi, m1_params)
        assert abs(b_coef) < 1e-15
        # 2mA = (r0-2m)/r0^2
        assert 2.0 * a_coef == pytest.approx((4.0 - 2.0) / 16.0, rel=1e-13)

    def test_coefficients_match_conserved_ratios(self, m1_params):
        # A = (E^2 - C)/K and B = C/K for generic psi_2 != 0 data
        rng = np.random.default_rng(31)
        for _ in range(50):
            phi = np.array([0.0, rng.uniform(3.0, 20.0), rng.uniform(0.5, 2.5), 0.0])
            psi = np.array([rng.normal(), rng.normal(), rng.normal() + 0.5, 0.0])
            if abs(psi[2]) < 1e-3:
                continue
            curve = ns.InitialCurve(
                phi=lambda v, p=phi: p,
                psi=lambda v, p=psi: p,
                phi_prime=lambda v: np.zeros(4),
                theta_min=0.0,
                theta_max=1.0,
            )
            cs = ns.conserved_from_data(curve, m1_params, 0.5)
            a_coef, b_coef = ns.cubic_coefficients(phi, psi, m1_params)
            assert a_coef == pytest.approx((cs.E**2 - cs.C) / cs.K, rel=1e-10)
            assert b_coef == pytest.approx(cs.C / cs.K, rel=1e-10, abs=1e-14)

    def test_psi2_zero_rejected(self, m1_params, ex1_curve):
        with pytest.raises(DegenerateDataError):
            ns.cubic_coefficients(ex1_curve.phi(0.3), ex1_curve.psi(0.3), m1_params)


class TestSolveCubic:
    def test_photon_sphere_double_root(self):
        a_coef, b_coef = ns.example2_coefficients(1.0, 3.0)
        profile = ns.solve_cubic(1.0, a_coef, b_coef, u0=1.0 / 3.0)
        assert profile.case_label is CaseLabel.DOUBLE_ROOT
        assert profile.roots[0] == pytest.approx(1.0 / 3.0, abs=1e-7)
        assert profile.roots[1] == pytest.approx(1.0 / 3.0, abs=1e-7)
        assert profile.roots[2] == pytest.approx(-1.0 / 6.0, rel=1e-12)

    def test_example2_r10_roots(self):
        a_coef, b_coef = ns.example2_coefficients(1.0, 10.0)
        profile = ns.solve_cubic(1.0, a_coef, b_coef, u0=0.1)
        u1, u2, u3 = ns.example2_roots(1.0, 10.0)
        assert u2 == pytest.approx((8.0 + math.sqrt(128.0)) / 40.0, rel=1e-15)
        assert sorted(profile.roots) == pytest.approx(sorted([u1, u2, u3]), rel=1e-12)
        assert profile.case_label is CaseLabel.OUTER_BRANCH

    def test_example2_inner_branch(self):
        a_coef, b_coef = ns.example2_coefficients(1.0, 2.5)
        profile = ns.solve_cubic(1.0, a_coef, b_coef, u0=0.4)
        assert profile.case_label is CaseLabel.INNER_BRANCH

    def test_example3_double_root(self):
        # B = 0 profile at r0 = 4m: double root at 1/4
        profile = ns.solve_cubic(1.0, (4.0 - 2.0) / (2.0 * 16.0), 0.0, u0=0.25)
        assert profile.case_label is CaseLabel.DOUBLE_ROOT
        assert sorted(profile.roots)[1:] == pytest.approx([0.25, 0.25], abs=1e-7)

    def test_example3_branches(self):
        for r0, label in ((10.0, CaseLabel.OUTER_BRANCH), (3.0, CaseLabel.INNER_BRANCH)):
            a_coef = (r0 - 2.0) / (2.0 * r0 * r0)
            profile = ns.solve_cubic(1.0, a_coef, 0.0, u0=1.0 / r0)
            assert profile.case_label is label
            assert sorted(profile.roots) == pytest.approx(
                sorted(ns.example3_roots(1.0, r0)), abs=1e-13
            )

    def test_generic_label_without_root_match(self):
        a_coef, b_coef = ns.example2_coefficients(1.0, 10.0)
        profile = ns.solve_cubic(1.0, a_coef, b_coef, u0=0.123)
        assert profile.case_label is CaseLabel.GENERIC

    def test_closed_forms_vs_solver_random(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            m = rng.uniform(0.5, 3.0)
            r0 = rng.uniform(2.01 * m, 20.0 * m)
            closed = np.sort(ns.example2_roots(m, r0))
            a_coef, b_coef = ns.example2_coefficients(m, r0)
            solved = np.sort(ns.solve_cubic(m, a_coef, b_coef, u0=1.0 / r0).roots)
            assert np.abs(closed - solved).max() < 1e-12
            assert closed[0] < 0.0  # third root always negative

    def test_residuals_small(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = rng.uniform(0.5, 2.0)
            r0 = rng.uniform(2.1 * m, 15.0 * m)
            a_coef, b_coef = ns.example2_coefficients(m, r0)
            profile = ns.solve_cubic(m, a_coef, b_coef, u0=1.0 / r0)
            for u in profile.roots:
                assert abs(profile.g(u)) < 1e-10 * max(1.0, abs(b_coef))

    def test_sign_structure_on_traversed_interval(self):
        # g >= 0 exactly on the interval swept from the initial root
        a_coef, b_coef = ns.example2_coefficients(1.0, 10.0)
        profile = ns.solve_cubic(1.0, a_coef, b_coef, u0=0.1)
        for u in np.linspace(1e-6, 0.1 - 1e-9, 50):
            assert profile.g(u) >= 0.0
        a_coef, b_coef = ns.example2_coefficients(1.0, 2.5)
        profile = ns.solve_cubic(1.0, a_coef, b_coef, u0=0.4)
        for u in np.linspace(0.4 + 1e-9, 0.499, 50):
            assert profile.g(u) >= 0.0

    def test_double_root_survives_rounding_of_a(self):
        # the photon sphere's A = 0 computed from data lands within ~1e-16 of
        # zero; the Newton polish must not push either root of the pair away
        b_coef = 0.037037037037037014
        for a_coef in np.linspace(-1e-16, 1e-16, 41):
            profile = ns.solve_cubic(1.0, float(a_coef), b_coef, u0=1.0 / 3.0)
            assert profile.case_label is CaseLabel.DOUBLE_ROOT, a_coef
            assert profile.roots[:2] == pytest.approx([1.0 / 3.0] * 2, abs=1e-7), a_coef

    def test_modulus_matches_both_examples(self):
        # k^2 = (mid - lo)/(hi - lo) reproduces both quoted forms
        m, r0 = 1.0, 10.0
        u1, u2, u3 = ns.example2_roots(m, r0)
        profile = ns.solve_cubic(m, *ns.example2_coefficients(m, r0), u0=1.0 / r0)
        assert profile.modulus_squared() == pytest.approx((u1 - u3) / (u2 - u3), rel=1e-12)
        r0 = 12.0
        a_coef = (r0 - 2.0) / (2.0 * r0 * r0)
        profile = ns.solve_cubic(1.0, a_coef, 0.0, u0=1.0 / r0)
        assert profile.modulus_squared() == pytest.approx(2.0 / (r0 - 2.0), rel=1e-12)


class TestSolveCubicProperties:
    """solve_cubic against numpy.roots on cubics 2m u^3 - u^2 + 2mA u + B.

    Each cubic is built from its roots, which sum to 1/(2m); roots are kept
    0.01 apart so that both solvers are well conditioned.
    """

    @staticmethod
    def check(m, e2, e3):
        # monic form u^3 - u^2/(2m) + e2 u - e3: A = e2, B = -2m e3
        A, B = e2, -2.0 * m * e3
        found = np.roots([2.0 * m, -1.0, 2.0 * m * A, B])
        real = np.sort(found[np.abs(found.imag) < 1e-7].real)
        solved = np.sort(ns.solve_cubic(m, A, B).roots)
        assert len(solved) == len(real)
        assert np.abs(solved - real).max() <= 1e-10 * (1.0 + np.abs(real).max())

    @settings(max_examples=200, deadline=None)
    @given(m=st.floats(0.1, 3.0), u1=st.floats(-2.0, 2.0), u2=st.floats(-2.0, 2.0))
    def test_three_real_roots(self, m, u1, u2):
        u3 = 1.0 / (2.0 * m) - u1 - u2
        assume(min(abs(u1 - u2), abs(u1 - u3), abs(u2 - u3)) >= 0.01)
        self.check(m, u1 * u2 + u1 * u3 + u2 * u3, u1 * u2 * u3)

    @settings(max_examples=200, deadline=None)
    @given(m=st.floats(0.1, 3.0), u1=st.floats(-2.0, 2.0), b=st.floats(0.01, 2.0))
    def test_one_real_root(self, m, u1, b):
        a = 0.5 * (1.0 / (2.0 * m) - u1)  # the complex pair is a +- ib
        self.check(m, 2.0 * a * u1 + a * a + b * b, u1 * (a * a + b * b))


class TestRtSquared:
    def test_example1_constant(self, m1_params):
        cs = ns.ConservedSet(E=1.0, L=0.0, K=0.0, C=1.0)
        for r in (2.5, 5.0, 10.0, 100.0):
            assert ns.rt_squared(r, cs, m1_params) == pytest.approx(1.0, rel=1e-14)

    def test_photon_sphere_zero(self, m1_params, photon_curve):
        cs = ns.conserved_from_data(photon_curve, m1_params, 0.2)
        assert ns.rt_squared(3.0, cs, m1_params) == pytest.approx(0.0, abs=1e-15)

    def test_turning_point_data(self, m1_params):
        rng = np.random.default_rng(77)
        for _ in range(30):
            r0 = rng.uniform(2.5, 20.0)
            phi = np.array([0.0, r0, 1.0, 0.0])
            psi = np.array([rng.normal(), 0.0, rng.normal(), rng.normal()])
            curve = ns.InitialCurve(
                phi=lambda v, p=phi: p,
                psi=lambda v, p=psi: p,
                phi_prime=lambda v: np.zeros(4),
                theta_min=0.0,
                theta_max=1.0,
            )
            cs = ns.conserved_from_data(curve, m1_params, 0.5)
            assert abs(ns.rt_squared(r0, cs, m1_params)) < 1e-12 * max(1.0, cs.K)


class TestProfileFromData:
    def test_du_dalpha_matches_g_along_trajectory(self, schw, m1_params):
        oracle = ns.make_oracle(
            2, "auto",
            ns.OracleParams(m=1.0, r0=10.0, f=1.0, alpha0=1.0, sign_alpha=1),
        )
        curve = oracle.initial_curve()
        vth = 0.8
        profile = ns.profile_from_data(curve.phi(vth), curve.psi(vth), m1_params)
        traj = ns.integrate(schw, curve.phi(vth), curve.psi(vth), 12.0)
        for t in np.linspace(0.3, 12.0, 25):
            y, v = np.split(traj.sample(t), 2)
            r, r_t, a_t = y[1], v[1], v[2]
            if abs(a_t) < 1e-12:
                continue
            du_dalpha = (-r_t / r**2) / a_t
            assert du_dalpha**2 == pytest.approx(
                profile.g(1.0 / r), rel=1e-7, abs=1e-12
            )


def radial_constant_conditioning(m, r, rt2, E, J):
    """How far C moves at each node per unit relative error of the node's state.

    C = (r_t^2 r^3 + J (r - 2m) - 2m E^2 r^2) / (r^2 (r - 2m)) sums its terms
    over r^2 (r - 2m), and a relative error of r reaches r - 2m amplified
    r / |r - 2m| times; near the horizon both grow like 1 / (r - 2m).  The
    radial first integral's residual at a node is the drift of the
    constants, C's the largest.
    """
    rm = r - 2.0 * m
    terms = np.abs(rt2 * r**3) + np.abs(J * rm) + np.abs(2.0 * m * E * E * r * r)
    return terms / np.abs(r * r * rm) * (1.0 + r / np.abs(rm))


def assert_radial_integral_along(schw, m1_params, y, v, t_end, tol):
    """rt_squared and J g(1/r) from cubic_coefficients give r_t^2 at every node.

    ``tol`` bounds the relative error of a node's state; each residual may
    reach it times C's conditioning at the node.
    """
    traj = ns.integrate(schw, y, v, t_end)
    # the nodes as rows of the (tau, r, alpha, beta) chart
    states = traj.sample(traj.ts)
    E, L, K, C = first_integrals(m1_params, states[:, :4], states[:, 4:])
    cs = ns.ConservedSet(E=float(E[0]), L=float(L[0]), K=float(K[0]), C=float(C[0]))
    r, rt2 = states[:, 1], states[:, 5] ** 2
    profile = ns.solve_cubic(1.0, *ns.cubic_coefficients(y, v, m1_params))
    J = cs.K + cs.L**2
    bound = tol * np.maximum(1.0, radial_constant_conditioning(m1_params.m, r, rt2, E, K + L * L))
    assert (np.abs(C - cs.C) <= bound).all()  # the radial constant holds for L != 0
    assert (np.abs(ns.rt_squared(r, cs, m1_params) - rt2) <= bound).all()
    assert (np.abs(J * profile.g(1.0 / r) - rt2) <= bound).all()
    return traj


class TestRadialIntegralWithAngularMomentum:
    """The radial cubic with J = K + L^2 holds for L != 0, not only for L = 0."""

    def test_regression_orbit(self, schw, m1_params):
        y = np.array([0.0, 8.0, 1.0, 0.0])
        v = np.array([1.3, -0.2, 0.02, 0.03])
        traj = assert_radial_integral_along(schw, m1_params, y, v, 10.0, 1e-10)
        assert traj.stats.stop == "t_max"
        assert ns.cubic_coefficients(y, v, m1_params) == pytest.approx(
            (0.2701525990031016, -0.046404626413679394), rel=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(
        r0=st.floats(4.0, 20.0),
        alpha0=st.floats(0.4, math.pi - 0.4),
        r_t=st.floats(-0.3, 0.3),
        alpha_t=st.floats(-0.05, 0.05),
        beta_t=st.floats(0.005, 0.05),
    )
    # a plunge that ends 2e-8 above r = 2m, where C's conditioning is ~1e16
    @example(r0=4.0, alpha0=1.0, r_t=-0.28125, alpha_t=0.0, beta_t=0.03125)
    def test_random_orbits(self, schw, m1_params, r0, alpha0, r_t, alpha_t, beta_t):
        y = np.array([0.0, r0, alpha0, 0.0])
        v = np.array([1.2, r_t, alpha_t / r0, beta_t / r0])
        assert_radial_integral_along(schw, m1_params, y, v, 5.0, 1e-9)

    def test_psi2_zero_with_l_has_a_cubic(self, m1_params):
        # psi_2 = 0 off the axis: J = L^2/sin^2(alpha) > 0 defines the cubic
        y = np.array([0.0, 8.0, 1.0, 0.0])
        v = np.array([1.3, -0.2, 0.0, 0.03])
        E, L, K, C = first_integrals(m1_params, y, v)
        a_coef, b_coef = ns.cubic_coefficients(y, v, m1_params)
        J = L * L / math.sin(1.0) ** 2
        assert a_coef == pytest.approx((E * E - C) / J, rel=1e-12)
        assert b_coef == pytest.approx(C / J, rel=1e-12)
