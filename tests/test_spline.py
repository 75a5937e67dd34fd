from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline as ScipySpline

from nullsheet._spline import CubicSpline


def _knots(draw, n, rng):
    """n knots whose smallest gap is >= 1% of the largest."""
    if draw(st.booleans()):
        gaps = rng.uniform(1.0, 100.0, n - 1)
    else:  # the widest spread allowed, alternating
        gaps = np.where(np.arange(n - 1) % 2, 1.0, 100.0)
    x0 = draw(st.floats(-10.0, 10.0))
    span = draw(st.floats(0.1, 100.0))
    return x0 + span * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()


@st.composite
def spline_data(draw):
    """Knots, values in 1-16 columns and points inside (and, if periodic, around) them.

    A not-a-knot spline on 4 knots is one cubic through 4 points; that case
    is checked against the exact interpolant below, not against scipy.
    """
    periodic = draw(st.booleans())
    n = draw(st.integers(4 if periodic else 5, 600))
    k = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _knots(draw, n, rng)
    y = rng.normal(size=(n, k)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    if periodic:
        y[-1] = y[0]
    if k == 1 and draw(st.booleans()):
        y = y[:, 0]
    period = x[-1] - x[0]
    points = rng.uniform(x[0], x[-1], 200)
    if periodic:
        points = np.concatenate([points, rng.uniform(x[0] - 3 * period, x[-1] + 3 * period, 200)])
    return x, y, periodic, np.concatenate([x, points])


def _close(ours, ref):
    assert ours.shape == ref.shape
    assert np.abs(ours - ref).max() <= 1e-13 * np.abs(ref).max()


class TestAgainstScipy:
    @settings(max_examples=150, deadline=None)
    @given(data=spline_data())
    def test_values_and_derivative(self, data):
        x, y, periodic, points = data
        ours = CubicSpline(x, y, periodic=periodic)
        ref = ScipySpline(x, y, bc_type="periodic" if periodic else "not-a-knot")
        _close(ours(points), ref(points))
        _close(ours.derivative()(points), ref.derivative()(points))


def _exact_cubic(x, y):
    """Value and slope at t of the cubic through (x[i], y[i]), in rationals."""
    xs, dd = [Fraction(v) for v in x], [Fraction(v) for v in y]
    for level in range(1, 4):  # Newton divided differences, in place
        for i in range(3, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])

    def at(t):
        t, value, slope = Fraction(t), dd[3], Fraction(0)
        for i in (2, 1, 0):
            slope = slope * (t - xs[i]) + value
            value = value * (t - xs[i]) + dd[i]
        return float(value), float(slope)

    return at


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_four_knots_not_a_knot_is_the_interpolating_cubic(data, seed):
    rng = np.random.default_rng(seed)
    x = _knots(data.draw, 4, rng)
    y = rng.normal(size=4)
    points = np.concatenate([x, rng.uniform(x[0], x[-1], 30)])
    exact = np.array([_exact_cubic(x, y)(t) for t in points])
    spline = CubicSpline(x, y)
    # the slope system is ill-conditioned at gaps 100:1:100; scipy's
    # CubicSpline misses the exact cubic by up to 1.7e-12 relative there
    for ours, ref in ((spline(points), exact[:, 0]), (spline.derivative()(points), exact[:, 1])):
        assert np.abs(ours - ref).max() <= 1e-11 * np.abs(ref).max()


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    periodic=st.booleans(),
    n=st.integers(4, 60),
    blocks=st.integers(1, 8),
    width=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_gather_reads_each_points_block_of_a_call(data, periodic, n, blocks, width, seed):
    rng = np.random.default_rng(seed)
    x = _knots(data.draw, n, rng)
    y = rng.normal(size=(n, blocks * width))
    if periodic:
        y[-1] = y[0]
    period = x[-1] - x[0]
    points = rng.uniform(x[0] - period, x[-1] + period, 50)
    slot = rng.integers(0, blocks, len(points))
    spline = CubicSpline(x, y, periodic=periodic)
    for f in (spline, spline.derivative()):
        every = f(points)
        gathered = f.gather(points, slot, width)
        assert gathered.shape == (len(points), width)
        for j, s in enumerate(slot):
            assert gathered[j].tobytes() == every[j, s * width : (s + 1) * width].tobytes()


def test_call_shapes():
    x = np.linspace(0.0, 1.0, 6)
    one = CubicSpline(x, np.sin(x))
    many = CubicSpline(x, np.column_stack([np.sin(x), np.cos(x), x]))
    assert one(0.3).shape == ()
    assert many(0.3).shape == (3,)
    assert many(np.zeros((2, 5))).shape == (2, 5, 3)
    assert many.derivative()(np.zeros(4)).shape == (4, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fewer_than_four_knots_raise(n):
    x = np.arange(float(n))
    for periodic in (False, True):
        with pytest.raises(ValueError):
            CubicSpline(x, x, periodic=periodic)
