import math
import warnings

import numpy as np
import pytest

import nullsheet as ns
from nullsheet.errors import DomainError

X4 = np.array([0.0, 4.0, math.pi / 2, 0.0])


def assert_outside_chart(spacetime, r):
    """The metric, the integrator and the connection raise DomainError at radius r."""
    x = np.array([0.0, r, 1.0, 0.0])
    state0 = ns.GeodesicState(y=x, v=np.array([1.0, 0.0, 0.0, 0.0]), t=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. a ComplexWarning from a complex r
        with pytest.raises(DomainError):
            spacetime.metric_at(x)
        with pytest.raises(DomainError):
            ns.integrate(spacetime, state0, 1.0)
        with pytest.raises(DomainError):
            ns.christoffel_from_metric(spacetime, x)


def random_admissible_points(n, rng, r_lo=2.5, r_hi=40.0):
    return np.column_stack(
        [
            rng.normal(size=n),
            rng.uniform(r_lo, r_hi, size=n),
            rng.uniform(0.2, math.pi - 0.2, size=n),
            rng.normal(size=n),
        ]
    )


class TestSchwarzschildMetric:
    def test_components_at_r4(self, schw):
        g = schw.metric_at(X4)
        assert np.allclose(np.diag(g), [-0.5, 2.0, 16.0, 16.0], atol=1e-15)
        assert np.allclose(g, np.diag(np.diag(g)))

    def test_christoffel_closed_forms(self, schw):
        gam = ns.christoffel_from_metric(schw, X4)
        assert gam[0, 0, 1] == pytest.approx(0.125, abs=1e-15)
        assert gam[0, 1, 0] == pytest.approx(0.125, abs=1e-15)
        assert gam[1, 0, 0] == pytest.approx(2.0 / 64.0, abs=1e-15)
        assert gam[1, 1, 1] == pytest.approx(-0.125, abs=1e-15)
        assert gam[1, 2, 2] == pytest.approx(-2.0, abs=1e-15)
        assert gam[1, 3, 3] == pytest.approx(-2.0, abs=1e-15)
        assert gam[2, 1, 2] == pytest.approx(0.25, abs=1e-15)
        assert gam[2, 3, 3] == pytest.approx(0.0, abs=1e-15)  # sin*cos at pi/2
        assert gam[3, 1, 3] == pytest.approx(0.25, abs=1e-15)
        assert gam[3, 2, 3] == pytest.approx(0.0, abs=1e-15)  # cot at pi/2

    def test_horizon_domain_violation(self, schw):
        for r in (1.9, 2.0):
            assert_outside_chart(schw, r)

    def test_axis_raises_for_connection_only(self, schw):
        on_axis = np.array([0.0, 10.0, 0.0, 0.0])
        g = schw.metric_at(on_axis)  # metric components stay finite
        assert g[3, 3] == 0.0
        with pytest.raises(DomainError):
            ns.christoffel_from_metric(schw, on_axis)

    def test_symmetries_random_points(self, schw):
        rng = np.random.default_rng(42)
        for x in random_admissible_points(1000, rng):
            g = schw.metric_at(x)
            assert np.abs(g - g.T).max() < 1e-14
            gam = ns.christoffel_from_metric(schw, x)
            assert np.abs(gam - np.swapaxes(gam, 1, 2)).max() < 1e-12

    def test_small_mass_limit_is_flat_spherical(self):
        tiny = ns.schwarzschild(ns.SchwarzschildParams(m=1e-12))
        flat_sph = ns.minkowski_spherical()
        x = np.array([0.3, 10.0, 1.1, 0.4])
        assert np.abs(tiny.metric_at(x) - flat_sph.metric_at(x)).max() < 1e-11
        gam_tiny = ns.christoffel_from_metric(tiny, x)
        gam_flat = ns.christoffel_from_metric(flat_sph, x)
        # radial/temporal mixing terms vanish with m
        assert abs(gam_tiny[0, 0, 1]) < 1e-12
        assert abs(gam_tiny[1, 0, 0]) < 1e-12
        assert abs(gam_tiny[1, 1, 1]) < 1e-12
        assert np.abs(gam_tiny - gam_flat).max() < 1e-11


def test_spacetime_is_metric_plus_acceleration():
    """A user spacetime needs only its metric and its acceleration to integrate."""
    flat = ns.minkowski_spherical()
    user = ns.Spacetime(
        name="user_flat_spherical",
        dim=4,
        metric_at=flat.metric_at,
        acceleration_at=flat.acceleration_at,
    )
    state0 = ns.GeodesicState(
        y=np.array([0.0, 5.0, math.pi / 2, 0.0]), v=np.array([1.0, 1.0, 0.0, 0.0]), t=0.0
    )
    traj = ns.integrate(user, state0, 2.0)
    assert [e.kind for e in traj.events] == ["t_max"]
    assert traj.nodes[-1, 1] == pytest.approx(7.0, rel=1e-10)


class TestFlat:
    def test_spherical_domain_violation(self):
        for r in (0.0, -1.0):
            assert_outside_chart(ns.minkowski_spherical(), r)

    def test_cartesian_connection_vanishes(self, flat):
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.abs(ns.christoffel_from_metric(flat, x)).max() == 0.0
        assert np.allclose(flat.metric_at(x), np.diag([-1.0, 1.0, 1.0, 1.0]))


def ingoing_eddington_finkelstein(m):
    """Schwarzschild in (v, r, alpha, beta), v = tau + r + 2m ln(r/2m - 1): g_vr = 1."""

    def metric(x):
        r, alpha = x[..., 1], x[..., 2]
        g = np.zeros(r.shape + (4, 4), dtype=np.result_type(r, alpha))
        g[..., 0, 0] = -(1.0 - 2.0 * m / r)
        g[..., 0, 1] = g[..., 1, 0] = 1.0
        g[..., 2, 2] = r * r
        g[..., 3, 3] = (r * np.sin(alpha)) ** 2
        return g

    return ns.Spacetime(
        name="schwarzschild_ingoing_ef",
        dim=4,
        metric_at=metric,
        acceleration_at=None,  # only the connection is under test
    )


class TestChristoffelFd:
    """The connection derived from the metric, ``christoffel_from_metric``."""

    def test_singular_metric(self):
        degenerate = ns.Spacetime(
            name="degenerate",
            dim=2,
            metric_at=lambda x: np.array([[1.0, 1.0], [1.0, 1.0]]),
            acceleration_at=lambda y, v: [0.0, 0.0],
        )
        with pytest.raises(DomainError):
            ns.christoffel_from_metric(degenerate, [0.0, 0.0])

    def test_off_diagonal_metric_matches_mapped_schwarzschild(self, schw):
        # a Schwarzschild geodesic in ingoing Eddington-Finkelstein coordinates
        # has velocity (v0 + v1/f, v1, v2, v3), whose t-derivative is the
        # Schwarzschild acceleration with d(v1/f)/dt added to component 0
        m = schw.meta["mass"]
        ef = ingoing_eddington_finkelstein(m)
        rng = np.random.default_rng(13)
        for x in random_admissible_points(200, rng):
            v = rng.normal(size=4)
            r = x[1]
            f = 1.0 - 2.0 * m / r
            a = schw.acceleration_at(x.tolist(), v.tolist())
            expected = np.array(
                [a[0] + a[1] / f - 2.0 * m * v[1] ** 2 / (r * r * f * f), *a[1:]]
            )
            v_ef = np.array([v[0] + v[1] / f, v[1], v[2], v[3]])
            got = -np.einsum("mnr,n,r->m", ns.christoffel_from_metric(ef, x), v_ef, v_ef)
            assert np.abs(got - expected).max() < 1e-13 * max(
                1.0, np.abs(expected).max()
            )


class TestInducedMetric:
    def test_radial_null_data_is_degenerate(self, schw):
        x = np.array([0.0, 10.0, math.pi / 2, 0.0])
        xt = np.array([1.0 / 0.8, 1.0, 0.0, 0.0])
        xth = np.array([0.0, 0.0, 0.37, 1.0])
        ind = ns.induced_metric(schw, x, xt, xth)
        assert abs(ind.g00) < 1e-14
        assert abs(ind.g01) < 1e-14
        assert abs(ind.delta) < 1e-12

    def test_equal_tangents_degenerate(self, schw):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = np.array([0.0, rng.uniform(3, 20), rng.uniform(0.3, 2.8), 0.0])
            v = rng.normal(size=4)
            ind = ns.induced_metric(schw, x, v, v)
            scale = max(1.0, ind.g00**2)
            assert abs(ind.delta) <= 1e-12 * scale

    def test_boosted_data_all_components_equal(self, schw):
        # unit-speed curve data: g00 = g01 = g11 != 0 while delta = 0
        m, r0 = 1.0, 10.0
        c = math.sqrt(2 * m * (r0 - 2 * m)) / r0**2
        x = np.array([0.0, r0, 0.0, 0.7])
        v = np.array([1.0, 0.0, c, 0.0])
        ind = ns.induced_metric(schw, x, v, v)
        assert ind.g00 == pytest.approx(-0.64, abs=1e-12)
        assert ind.g00 == ind.g01 == ind.g11
        assert ind.g00 != 0.0
        assert abs(ind.delta) < 1e-14

    def test_swap_invariance(self, schw):
        rng = np.random.default_rng(11)
        for x in random_admissible_points(50, rng):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            d1 = ns.induced_metric(schw, x, u, v).delta
            d2 = ns.induced_metric(schw, x, v, u).delta
            assert d1 == pytest.approx(d2, rel=1e-12, abs=1e-12)

    def test_stored_delta_consistent(self, schw):
        ind = ns.induced_metric(
            schw, X4, np.array([1.0, 0.2, 0.1, 0.0]), np.array([0.0, 1.0, 0.0, 0.3])
        )
        assert ind.delta == ind.g01**2 - ind.g00 * ind.g11

    def test_independent_of_memory_layout(self, schw):
        # the same tangent values in C and Fortran order give the same bits
        rng = np.random.default_rng(5)
        x = random_admissible_points(128, rng, r_lo=9.5, r_hi=10.5)
        u, v = rng.normal(size=(2, 128, 4))
        c_order = ns.induced_metric(schw, x, u, v)
        f_order = ns.induced_metric(schw, x, np.asfortranarray(u), np.asfortranarray(v))
        for name in ("g00", "g01", "g11", "delta"):
            assert getattr(c_order, name).tobytes() == getattr(f_order, name).tobytes(), name


class TestDualRhsRoutes:
    def test_explicit_acceleration_matches_contraction(self, schw):
        # called as the integrator calls it, with lists of floats, each
        # spacetime returns a list of dim floats
        for spacetime in (schw, ns.minkowski_spherical(), ns.minkowski()):
            rng = np.random.default_rng(5)
            for x in random_admissible_points(200, rng):
                v = rng.normal(size=4)
                gamma = ns.christoffel_from_metric(spacetime, x)
                a_generic = -np.einsum("mnr,n,r->m", gamma, v, v)
                a_explicit = spacetime.acceleration_at(x.tolist(), v.tolist())
                assert type(a_explicit) is list and len(a_explicit) == spacetime.dim
                assert all(type(a) is float for a in a_explicit)
                assert np.abs(a_generic - a_explicit).max() < 1e-13 * max(
                    1.0, np.abs(a_generic).max()
                )
