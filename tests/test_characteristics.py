import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import nullsheet as ns
from nullsheet._spline import CubicSpline
from nullsheet.errors import MapBreakdownError, MapInversionError


def arctan_map(theta_range=(-3.0, 3.0)):
    return ns.map_from_callables(
        np.arctan,
        lambda v: 1.0 / (1.0 + v * v),
        theta_range,
    )


def linear_map(slope, theta_range=(-2.0, 2.0)):
    return ns.map_from_callables(
        lambda v: slope * v, lambda v: slope, theta_range
    )


def constant_map(value, theta_range=(-5.0, 5.0), periodic=False):
    return ns.map_from_callables(
        lambda v: value, lambda v: 0.0, theta_range, periodic=periodic
    )


class TestForward:
    def test_constant_minus_one(self):
        cmap = constant_map(-1.0)
        assert cmap.forward(2.0, 3.0) == -1.0

    def test_t_zero_identity(self):
        cmap = arctan_map()
        for v in np.linspace(-3, 3, 7):
            assert cmap.forward(v, 0.0) == v

    def test_linear(self):
        cmap = linear_map(1.0)
        assert cmap.forward(0.5, 1.0) == 1.0


class TestInvert:
    def test_constant_shift(self):
        cmap = constant_map(0.7, theta_range=(-5.0, 5.0))
        assert cmap.invert(2.0, 1.0) == pytest.approx(1.0 - 0.7 * 2.0, abs=1e-13)

    def test_linear(self):
        cmap = linear_map(1.0)
        assert cmap.invert(1.0, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_round_trip_random(self):
        cmap = arctan_map()
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(1000):
            v = rng.uniform(-3.0, 3.0)
            t = rng.uniform(0.0, 4.0)
            back = cmap.invert(t, cmap.forward(v, t))
            worst = max(worst, abs(back - v))
        assert worst < 1e-12

    def test_residual_contract(self):
        cmap = arctan_map()
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = rng.uniform(0.0, 4.0)
            lo, hi = cmap.image_interval(t)
            theta = rng.uniform(lo, hi)
            v = cmap.invert(t, theta)
            assert abs(cmap.forward(v, t) - theta) < 1e-12 * (1 + abs(theta))

    def test_outside_image_raises(self):
        cmap = arctan_map()
        lo, hi = cmap.image_interval(1.0)
        with pytest.raises(MapInversionError):
            cmap.invert(1.0, hi + 0.1)
        with pytest.raises(MapInversionError):
            cmap.invert(1.0, lo - 0.1)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            arctan_map().invert(-0.5, 0.0)

    def test_periodic_wrapping(self):
        period = 2 * math.pi
        cmap = ns.map_from_callables(
            lambda v: 0.25 * math.sin(v),
            lambda v: 0.25 * math.cos(v),
            (0.0, period),
            periodic=True,
        )
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.uniform(0.0, period)
            t = rng.uniform(0.0, 3.0)
            theta = cmap.forward(v, t) + period * rng.integers(-2, 3)
            back = cmap.invert(t, theta)
            assert abs(back - v) < 1e-11 or abs(abs(back - v) - period) < 1e-11


class TestJacobian:
    def test_constant_lambda(self):
        cmap = constant_map(3.0)
        for t in (0.0, 1.0, 7.5):
            assert cmap.jacobian(t, 0.3) == 1.0

    def test_linear(self):
        assert linear_map(1.0).jacobian(1.0, 0.5) == pytest.approx(0.5)

    def test_breakdown_detected(self):
        cmap = linear_map(-1.0)
        val = cmap.jacobian(0.999, 0.0)
        assert val > 100.0
        with pytest.raises(MapBreakdownError):
            cmap.jacobian(1.0, 0.0)

    def test_positive_on_certified_region(self):
        cmap = arctan_map()
        rng = np.random.default_rng(2)
        for _ in range(500):
            assert cmap.jacobian(rng.uniform(0, 10), rng.uniform(-3, 3)) > 0


class TestLambdaField:
    def test_rarefaction_exact(self):
        cmap = linear_map(1.0)
        for t in (0.0, 0.5, 2.0):
            for theta in (-1.0, 0.3, 1.5):
                if abs(theta) > 2 * (1 + t):
                    continue
                assert cmap.lambda_field(t, theta) == pytest.approx(
                    theta / (1 + t), abs=1e-12
                )

    def test_constant_field(self):
        cmap = constant_map(0.4)
        assert cmap.lambda_field(2.0, 1.0) == pytest.approx(0.4, abs=1e-14)

    def test_burgers_residual_second_order(self):
        cmap = arctan_map()
        res = []
        for n in (25, 50, 100):
            t_vals = np.linspace(0.2, 1.2, n + 1)
            theta_vals = np.linspace(-2.0, 2.0, 2 * n + 1)
            res.append(ns.burgers_residual_grid(cmap, t_vals, theta_vals))
        order1 = math.log2(res[0] / res[1])
        order2 = math.log2(res[1] / res[2])
        assert order1 > 1.9
        assert order2 > 1.9


class TestMapFromInitialData:
    def test_example_maps_constant(self, schw, ex1_curve, ex3_circular_curve):
        cmap1 = ns.map_from_initial_data(ex1_curve, schw)
        for v in np.linspace(0, 2 * math.pi, 9):
            assert abs(cmap1.lambda_fn(v)) < 1e-13
        cmap3 = ns.map_from_initial_data(ex3_circular_curve, schw)
        for v in np.linspace(0.5, 8.0, 9):
            assert cmap3.lambda_fn(v) == pytest.approx(-1.0, abs=1e-12)
            assert abs(cmap3.lambda_prime_fn(v)) < 1e-10

    def test_forward_shift_example3(self, schw, ex3_circular_curve):
        cmap = ns.map_from_initial_data(ex3_circular_curve, schw)
        # Lambda = -1: theta = vartheta - t
        assert cmap.forward(2.0, 3.0) == pytest.approx(-1.0, abs=1e-11)
        assert cmap.invert(3.0, 1.0) == pytest.approx(4.0, abs=1e-11)


def sine_map(amplitude):
    """Periodic Lambda = a sin(vartheta), monotone up to t = 1/a."""
    return ns.map_from_callables(
        lambda v: amplitude * np.sin(v),
        lambda v: amplitude * np.cos(v),
        (0.0, 2 * math.pi),
        periodic=True,
    )


def spline_map():
    """A periodic spline Lambda, the kind map_from_initial_data builds."""
    grid = np.linspace(0.0, 2 * math.pi, 33)
    spline = CubicSpline(grid, 0.1 * np.sin(grid) + 0.05 * np.cos(2 * grid), periodic=True)
    return ns.map_from_callables(
        spline, spline.derivative(), (0.0, 2 * math.pi), periodic=True
    )


ARRAY_MAPS = {
    "arctan": arctan_map(),
    "sine": sine_map(0.3),
    "spline": spline_map(),
}
unit = st.floats(0.0, 1.0)
times = st.floats(0.0, 3.0)


def image_points(cmap, t, fractions):
    lo, hi = cmap.image_interval(t)
    return lo + (hi - lo) * np.array(fractions)


class TestInvertProperties:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(ARRAY_MAPS)), t=times,
           fractions=st.lists(unit, min_size=1, max_size=24))
    def test_array_equals_elementwise_scalar(self, name, t, fractions):
        cmap = ARRAY_MAPS[name]
        thetas = image_points(cmap, t, fractions)
        together = cmap.invert(t, thetas)
        one_by_one = np.array([cmap.invert(t, th) for th in thetas])
        assert together.shape == thetas.shape
        assert together.tobytes() == one_by_one.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(ARRAY_MAPS)), t=times,
           fractions=st.lists(unit, min_size=1, max_size=24))
    def test_residual_contract(self, name, t, fractions):
        cmap = ARRAY_MAPS[name]
        thetas = image_points(cmap, t, fractions)
        residual = cmap.forward(cmap.invert(t, thetas), t) - thetas
        if cmap.periodic:  # theta and theta + one period are the same point
            residual -= cmap.period * np.round(residual / cmap.period)
        assert (np.abs(residual) <= 1e-12 * (1.0 + np.abs(thetas))).all()

    @settings(max_examples=60, deadline=None)
    @given(amplitude=st.floats(0.0, 0.3), t=times,
           fractions=st.lists(unit, min_size=1, max_size=24),
           shift=st.integers(-3, 3))
    def test_whole_period_shift(self, amplitude, t, fractions, shift):
        cmap = sine_map(amplitude)
        thetas = image_points(cmap, t, fractions)
        base = cmap.invert(t, thetas)
        shifted = cmap.invert(t, thetas + shift * cmap.period)
        # the same vartheta, up to rounding, on the circle of one period
        gap = (shifted - base + 0.5 * cmap.period) % cmap.period - 0.5 * cmap.period
        assert np.abs(gap).max() <= 1e-12
