import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ellipkinc

import nullsheet as ns


def quad_reference(chi, k):
    # near-machine accuracy makes QUADPACK warn about roundoff; the
    # comparison tolerance below still verifies the achieved accuracy
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda g: 1.0 / math.sqrt(1.0 - (k * math.sin(g)) ** 2),
            0.0,
            chi,
            epsabs=1e-15,
            epsrel=1e-14,
            limit=400,
        )
    return val


class TestEllipticF:
    def test_zero_modulus_is_identity(self):
        for chi in (-2.0, -0.3, 0.0, 0.4, 1.5, 3.0, 7.0):
            assert ns.elliptic_f(chi, 0.0) == pytest.approx(chi, abs=1e-15)

    def test_zero_amplitude(self):
        for k in (0.0, 0.3, 0.9, 0.999):
            assert ns.elliptic_f(0.0, k) == 0.0

    def test_against_quadrature(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            k2 = rng.uniform(0.0, 0.99)
            chi = rng.uniform(-1.5, 1.5)
            k = math.sqrt(k2)
            ref = quad_reference(chi, k)
            val = ns.elliptic_f(chi, k)
            assert val == pytest.approx(ref, rel=1e-13, abs=1e-14)

    def test_quarter_period_value(self):
        k = math.sqrt(0.5)
        ref = quad_reference(math.pi / 2, k)
        assert ns.elliptic_f(math.pi / 2, k) == pytest.approx(ref, rel=1e-13)

    def test_argument_reduction(self):
        k = 0.77
        big_k = ns.complete_elliptic_k(k)
        for chi in (0.3, 1.2):
            for n in (-2, -1, 1, 2, 5):
                expected = ns.elliptic_f(chi, k) + 2 * n * big_k
                assert ns.elliptic_f(chi + n * math.pi, k) == pytest.approx(
                    expected, rel=1e-14, abs=1e-13
                )

    def test_odd_in_amplitude(self):
        k = 0.6
        for chi in (0.2, 0.9, 1.4):
            assert ns.elliptic_f(-chi, k) == -ns.elliptic_f(chi, k)

    def test_monotone_in_amplitude(self):
        k = 0.9
        chis = np.linspace(-2.0, 2.0, 41)
        vals = [ns.elliptic_f(c, k) for c in chis]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_modulus(self):
        for chi in (0.3, 1.0, math.pi / 2):
            vals = [ns.elliptic_f(chi, k) for k in np.linspace(0.0, 0.99, 25)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            ns.elliptic_f(0.5, 1.0)
        with pytest.raises(ValueError):
            ns.elliptic_f(0.5, 1.2)
        with pytest.raises(ValueError):
            ns.complete_elliptic_k(1.0)


class TestCarlsonRf:
    def test_known_values(self):
        # R_F(x, x, x) = x^(-1/2)
        for x in (0.25, 1.0, 7.3):
            assert ns.carlson_rf(x, x, x) == pytest.approx(x**-0.5, rel=1e-15)
        # complete integral K(0) = pi/2 via R_F(0, 1, 1)
        assert ns.carlson_rf(0.0, 1.0, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x, y, z = rng.uniform(0.05, 10.0, size=3)
            c = rng.uniform(0.1, 5.0)
            assert ns.carlson_rf(c * x, c * y, c * z) == pytest.approx(
                ns.carlson_rf(x, y, z) / math.sqrt(c), rel=1e-13
            )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ns.carlson_rf(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ns.carlson_rf(0.0, 0.0, 1.0)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(chi=st.floats(-10.0, 10.0), k2=st.floats(0.0, 0.995))
    def test_elliptic_f_against_scipy(self, chi, k2):
        ref = ellipkinc(chi, k2)  # scipy takes the parameter m = k^2
        assert abs(ns.elliptic_f(chi, math.sqrt(k2)) - ref) <= 1e-13 * (1.0 + abs(ref))
