import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullsheet as ns
from nullsheet.errors import DegenerateDataError
from nullsheet.initial_data import EPS_G11
from nullsheet.spacetime import induced_metric

# Schwarzschild-only evaluations of delta(0, vartheta) and Lambda(vartheta),
# written out component by component: references for the generic pullback


def delta_expanded_schwarzschild(curve, params, vartheta):
    """delta(0, vartheta) via the expanded sum-of-cross-terms form.

    For the diagonal Schwarzschild metric with weights w_i the degeneracy
    indicator reduces to -sum_{i<j} w_i w_j (psi_i phi'_j - psi_j phi'_i)^2,
    an independent evaluation path that cross-checks the generic pullback.
    """
    m = params.m
    phi = curve.phi(vartheta)
    psi = curve.psi(vartheta)
    dphi = curve.phi_prime(vartheta)
    r, alpha = phi[1], phi[2]
    f = 1.0 - 2.0 * m / r
    w = np.array([-f, 1.0 / f, r * r, r * r * math.sin(alpha) ** 2])
    total = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            cross = psi[i] * dphi[j] - psi[j] * dphi[i]
            total -= w[i] * w[j] * cross * cross
    return total


def lambda0_schwarzschild(curve, params, vartheta, eps_g11=EPS_G11):
    """Lambda(vartheta) via the explicit Schwarzschild component ratio."""
    m = params.m
    phi = curve.phi(vartheta)
    psi = curve.psi(vartheta)
    dphi = curve.phi_prime(vartheta)
    f = 1.0 - 2.0 * m / phi[1]
    r2 = phi[1] * phi[1]
    s2 = math.sin(phi[2]) ** 2
    num = (
        -f * dphi[0] * psi[0]
        + dphi[1] * psi[1] / f
        + r2 * dphi[2] * psi[2]
        + r2 * s2 * dphi[3] * psi[3]
    )
    den = (
        -f * dphi[0] ** 2
        + dphi[1] ** 2 / f
        + r2 * dphi[2] ** 2
        + r2 * s2 * dphi[3] ** 2
    )
    if abs(den) <= eps_g11:
        raise DegenerateDataError(
            f"Lambda undefined at vartheta = {vartheta!r}: |g11| = {abs(den)!r}"
        )
    return -num / den


class TestCurveConstruction:
    def test_expressions_and_derivatives(self):
        curve = ns.curve_from_expressions(
            ["0", "10", "pi/2 + 0.3*sin(vartheta)", "vartheta"],
            ["1.25", "1", "0", "0"],
            (0.0, 2 * math.pi),
            periodic=True,
        )
        assert np.allclose(curve.phi(0.5), [0, 10, math.pi / 2 + 0.3 * math.sin(0.5), 0.5])
        assert np.allclose(curve.phi_prime(0.5), [0, 0, 0.3 * math.cos(0.5), 1.0])

    def test_bad_expression_rejected(self):
        with pytest.raises(ns.ExpressionError):
            ns.curve_from_expressions(
                ["__import__('os')", "10", "1", "0"],
                ["1", "0", "0", "0"],
                (0.0, 1.0),
            )
        with pytest.raises(ns.ExpressionError):
            ns.curve_from_expressions(
                ["unknown_symbol", "10", "1", "0"],
                ["1", "0", "0", "0"],
                (0.0, 1.0),
            )

    def test_periodic_endpoint_check(self):
        with pytest.raises(ValueError):
            ns.curve_from_expressions(
                ["vartheta", "10", "1", "0"],  # tau endpoint gap is not 2*pi*k
                ["1", "0", "0", "0"],
                (0.0, 1.0),
                periodic=True,
            )
        # beta winding by exactly 2*pi is allowed
        ns.curve_from_expressions(
            ["0", "10", "1", "vartheta"],
            ["1", "0", "0", "0"],
            (0.0, 2 * math.pi),
            periodic=True,
        )

    def test_sampled_curve_matches_expressions(self, schw):
        thetas = np.linspace(0.0, 2 * math.pi, 65)
        phi = np.column_stack(
            [
                np.zeros_like(thetas),
                np.full_like(thetas, 10.0),
                math.pi / 2 + 0.3 * np.sin(thetas),
                thetas,
            ]
        )
        psi = np.column_stack(
            [
                np.full_like(thetas, 1.25),
                np.ones_like(thetas),
                np.zeros_like(thetas),
                np.zeros_like(thetas),
            ]
        )
        curve = ns.curve_from_samples(thetas, phi, psi, periodic=True)
        v = 1.234
        assert np.abs(curve.phi(v)[2] - (math.pi / 2 + 0.3 * math.sin(v))).max() < 1e-7
        assert np.abs(curve.phi_prime(v)[2] - 0.3 * math.cos(v)).max() < 1e-6
        assert np.abs(curve.psi(v) - [1.25, 1, 0, 0]).max() < 1e-12


class TestLightlikeness:
    def test_example1_residual_zero(self, schw, ex1_curve):
        for v in np.linspace(0, 2 * math.pi, 17):
            assert abs(ns.lightlikeness_residual(ex1_curve, schw, v)) < 1e-12

    def test_example3_residual_zero(self, schw, ex3_circular_curve):
        for v in np.linspace(0.5, 8.0, 9):
            assert abs(ns.lightlikeness_residual(ex3_circular_curve, schw, v)) < 1e-12

    def test_zero_velocity_spacelike_curve(self, schw):
        curve = ns.curve_from_expressions(
            ["0", "10", "pi/2", "vartheta"],
            ["0", "0", "0", "0"],
            (0.0, 1.0),
        )
        assert ns.lightlikeness_residual(curve, schw, 0.5) == 0.0
        bumped = ns.curve_from_expressions(
            ["0", "10", "pi/2", "vartheta"],
            ["1e-3", "0", "0", "0"],
            (0.0, 1.0),
        )
        assert ns.lightlikeness_residual(bumped, schw, 0.5) != 0.0

    def test_expanded_form_agrees_with_pullback(self, schw, m1_params):
        # generic (non-light-like) data: both routes must agree to 1e-10 rel
        curve = ns.curve_from_expressions(
            ["0.3*vartheta", "10 + sin(vartheta)", "1.2 + 0.2*cos(vartheta)", "vartheta"],
            ["1.1", "0.3*cos(vartheta)", "0.05", "0.2"],
            (0.0, 2 * math.pi),
        )
        for v in np.linspace(0.1, 6.0, 13):
            direct = ns.lightlikeness_residual(curve, schw, v)
            expanded = delta_expanded_schwarzschild(curve, m1_params, v)
            assert expanded == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestLambda0:
    def test_examples_lambda_values(self, schw, ex1_curve, photon_curve, ex3_circular_curve):
        assert ns.lambda0(ex1_curve, schw, 0.7) == 0.0
        assert ns.lambda0(photon_curve, schw, 0.7) == 0.0
        assert ns.lambda0(ex3_circular_curve, schw, 1.7) == -1.0

    def test_schwarzschild_closed_form_agrees(self, schw, m1_params):
        curve = ns.curve_from_expressions(
            ["0.3*vartheta", "10 + sin(vartheta)", "1.2 + 0.2*cos(vartheta)", "vartheta"],
            ["1.1", "0.3*cos(vartheta)", "0.05", "0.2"],
            (0.0, 2 * math.pi),
        )
        for v in np.linspace(0.1, 6.0, 13):
            generic = ns.lambda0(curve, schw, v)
            closed = lambda0_schwarzschild(curve, m1_params, v)
            assert closed == pytest.approx(generic, rel=1e-12)

    def test_degenerate_g11(self, schw):
        # phi' null => g11 = 0
        curve = ns.curve_from_expressions(
            ["1.25*vartheta", "vartheta", "pi/2", "0"],
            ["0", "0", "0", "0"],
            (9.0, 11.0),
        )
        with pytest.raises(DegenerateDataError):
            ns.lambda0(curve, schw, 10.0)

    def test_reparametrization_scaling(self, schw):
        # Lambda of the c-rescaled curve equals Lambda(c vartheta)/c
        c = 2.5
        base = ns.curve_from_expressions(
            ["0", "10", "pi/2 + 0.1*sin(vartheta)", "vartheta"],
            ["1.25", "1", "0.01", "0"],
            (0.0, 2 * math.pi),
        )
        scaled = ns.curve_from_expressions(
            ["0", "10", f"pi/2 + 0.1*sin({c}*vartheta)", f"{c}*vartheta"],
            ["1.25", "1", "0.01", "0"],
            (0.0, 2 * math.pi / c),
        )
        for v in (0.1, 0.5, 1.7):
            lam_scaled = ns.lambda0(scaled, schw, v)
            lam_base = ns.lambda0(base, schw, c * v)
            assert lam_scaled == pytest.approx(lam_base / c, rel=1e-10, abs=1e-14)


class TestMonotonicity:
    def test_constant_lambda_passes(self, schw, ex1_curve):
        report = ns.validate_curve(ex1_curve, schw, n_samples=33)
        assert report.monotone
        assert report.min_slope == pytest.approx(0.0, abs=1e-12)
        assert report.first_violation is None

    def test_decreasing_lambda_fails(self, schw):
        # Lambda = -g01/g11, so psi_3 ~ +c*vartheta gives Lambda ~ -c'*vartheta
        curve = ns.curve_from_expressions(
            ["0", "10", "pi/2", "vartheta"],
            ["1.25", "1", "0", "0.001*vartheta"],
            (0.0, 2.0),
        )
        grid = curve.grid(21)
        lam = [ns.lambda0(curve, schw, v) for v in grid]
        assert lam[1] < lam[0]  # sanity: it really decreases
        report = ns.validate_curve(curve, schw, n_samples=21)
        assert not report.monotone
        assert not report.passed
        assert report.first_violation is not None
        assert report.first_violation[0] == pytest.approx(0.0)

    def test_increasing_lambda_passes(self, schw):
        curve = ns.curve_from_expressions(
            ["0", "10", "pi/2", "vartheta"],
            ["1.25", "1", "0", "-0.001*vartheta"],
            (0.0, 2.0),
        )
        report = ns.validate_curve(curve, schw, n_samples=21)
        assert report.monotone
        assert report.min_slope > 0


class TestConserved:
    def test_example1_values(self, ex1_curve, m1_params):
        cs = ns.conserved_from_data(ex1_curve, m1_params, 0.9)
        assert cs.E == pytest.approx(1.0, abs=1e-14)
        assert cs.L == 0.0
        assert cs.K == 0.0
        assert cs.C == pytest.approx(1.0, abs=1e-13)

    def test_example2_values(self, photon_curve, m1_params):
        cs = ns.conserved_from_data(photon_curve, m1_params, 0.9)
        assert cs.L == 0.0
        assert cs.K == pytest.approx(3.0, rel=1e-13)
        assert cs.E == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_example3_values(self, m1_params):
        oracle = ns.make_oracle(
            3, "auto",
            ns.OracleParams(m=1.0, r0=10.0, sign_alpha=1,
                            theta_range=(0.5, 3.0), periodic=False),
        )
        cs = ns.conserved_from_data(oracle.initial_curve(), m1_params, 1.0)
        assert cs.L == 0.0
        assert cs.E == pytest.approx(0.8, rel=1e-14)
        assert cs.K == pytest.approx(16.0, rel=1e-13)

    def test_k_nonnegative_random(self, m1_params):
        rng = np.random.default_rng(9)
        for _ in range(200):
            phi = np.array(
                [rng.normal(), rng.uniform(2.5, 30), rng.uniform(0.2, 2.9), rng.normal()]
            )
            psi = rng.normal(size=4)
            curve = ns.InitialCurve(
                phi=lambda v, p=phi: p,
                psi=lambda v, p=psi: p,
                phi_prime=lambda v: np.zeros(4),
                theta_min=0.0,
                theta_max=1.0,
            )
            assert ns.conserved_from_data(curve, m1_params, 0.5).K >= 0.0

    def test_horizon_violation(self, m1_params):
        curve = ns.curve_from_expressions(
            ["0", "1.5", "pi/2", "vartheta"],
            ["1", "0", "0", "0"],
            (0.0, 1.0),
        )
        with pytest.raises(DegenerateDataError):
            ns.conserved_from_data(curve, m1_params, 0.5)

    def test_horizon_violation_prints_a_plain_radius(self, m1_params):
        curve = ns.curve_from_expressions(
            ["0", "1.5", "pi/2", "vartheta"], ["1", "0", "0", "0"], (0.0, 1.0)
        )
        with pytest.raises(DegenerateDataError) as err:
            ns.conserved_from_data(curve, m1_params, 0.5)
        assert str(err.value) == "initial radius 1.5 is inside the horizon 2m = 2.0"


class TestValidateCurve:
    def test_examples_pass(self, schw, ex1_curve, photon_curve, ex3_circular_curve):
        for curve in (ex1_curve, photon_curve, ex3_circular_curve):
            report = ns.validate_curve(curve, schw, n_samples=41)
            assert report.passed
            assert report.max_abs_delta <= 1e-9

    def test_timelike_data_fails(self, schw):
        curve = ns.curve_from_expressions(
            ["0", "10", "pi/2", "vartheta"],
            ["1", "0", "0", "0"],
            (0.0, 2 * math.pi),
            periodic=True,
        )
        report = ns.validate_curve(curve, schw, n_samples=17)
        assert not report.passed
        assert not report.lightlike
        assert report.max_abs_delta == pytest.approx(80.0, rel=1e-12)

    def test_one_curve_evaluation_per_sample(self, schw):
        # light-likeness and Lambda' come from the same pass over the grid;
        # a call may cover many samples, so the points are counted
        calls = Counter()

        def counted(name):
            fn = getattr(EXPRESSION_CURVE, name)

            def wrapper(v):
                calls[name] += np.size(v)
                return fn(v)

            return wrapper

        names = ("phi", "psi", "phi_prime")
        curve = dataclasses.replace(EXPRESSION_CURVE, **{k: counted(k) for k in names})
        report = ns.validate_curve(curve, schw, n_samples=25)
        assert calls == {k: 25 for k in names}
        assert report == ns.validate_curve(EXPRESSION_CURVE, schw, n_samples=25)

    def test_nan_fails_every_verdict(self):
        nan = float("nan")
        no_delta = ns.initial_data.ValidationReport(nan, 0.0, 0.0, None)
        no_slope = ns.initial_data.ValidationReport(0.0, 0.0, nan, None)
        assert (no_delta.lightlike, no_delta.monotone, no_delta.passed) == (False, True, False)
        assert (no_slope.lightlike, no_slope.monotone, no_slope.passed) == (True, False, False)

    def test_non_finite_lambda_is_named(self, schw):
        # psi_beta = 1e308 overflows g01 = r^2 psi_beta phi'_beta, so Lambda = -inf
        curve = ns.curve_from_expressions(
            ["0", "10", "pi/2", "vartheta"], ["1.25", "1", "0", "1e308"], (0.0, 2.0)
        )
        message = "Lambda undefined at vartheta = 0.0: -g01/g11 = -inf is not finite"
        for call in (
            lambda: ns.lambda0(curve, schw, curve.grid(9)),
            lambda: ns.validate_curve(curve, schw, n_samples=9),
            lambda: ns.map_from_initial_data(curve, schw),
        ):
            with pytest.raises(DegenerateDataError) as err:
                call()
            assert str(err.value) == message


def _sampled_curve():
    thetas = np.linspace(0.0, 2 * math.pi, 65)
    phi = np.column_stack(
        [0.2 * np.sin(thetas), 10 + np.cos(thetas), 1.2 + 0.1 * np.sin(2 * thetas), thetas]
    )
    psi = np.column_stack(
        [1.1 + 0.1 * np.cos(thetas), 0.3 * np.sin(thetas), np.full_like(thetas, 0.05),
         0.2 + 0.01 * np.cos(thetas)]
    )
    return ns.curve_from_samples(thetas, phi, psi, periodic=True)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


EXPRESSION_CURVE = ns.curve_from_expressions(
    ["0.3*vartheta", "10 + sin(vartheta)", "1.2 + 0.2*cos(vartheta)", "vartheta"],
    ["1.1", "0.3*cos(vartheta)", "0.05", "0.2"],
    (0.0, 2 * math.pi),
)
SAMPLED_CURVE = _sampled_curve()


class TestArrayPath:
    """One metric call on a vartheta array equals the scalar calls bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["expressions", "samples", "ex1_oracle", "ex3_oracle"]),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    )
    def test_array_equals_scalar_calls(self, schw, ex1_curve, ex3_circular_curve, name,
                                       fractions):
        curve = {
            "expressions": EXPRESSION_CURVE,
            "samples": SAMPLED_CURVE,
            "ex1_oracle": ex1_curve,
            "ex3_oracle": ex3_circular_curve,
        }[name]
        grid = curve.theta_min + curve.period * np.array(fractions)
        deltas = ns.lightlikeness_residual(curve, schw, grid)
        lams = ns.lambda0(curve, schw, grid)
        assert deltas.shape == lams.shape == grid.shape
        assert _bits(deltas) == _bits([ns.lightlikeness_residual(curve, schw, v) for v in grid])
        assert _bits(lams) == _bits([ns.lambda0(curve, schw, v) for v in grid])
        # the per-point pullback the array path replaced
        points = [
            induced_metric(schw, curve.phi(v), curve.psi(v), curve.phi_prime(v)) for v in grid
        ]
        assert _bits(deltas) == _bits([ind.delta for ind in points])
        assert _bits(lams) == _bits([-ind.g01 / ind.g11 for ind in points])

    def test_shapes(self, schw):
        curve = EXPRESSION_CURVE
        scalar = ns.lambda0(curve, schw, 0.5)
        assert isinstance(scalar, np.float64)
        assert isinstance(ns.lightlikeness_residual(curve, schw, 0.5), np.float64)
        block = ns.lambda0(curve, schw, np.linspace(0.1, 1.2, 6).reshape(2, 3))
        assert block.shape == (2, 3)
        assert block[0, 0] == ns.lambda0(curve, schw, 0.1)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        grid=st.lists(
            st.one_of(
                st.floats(0.1, 1.4),
                st.floats(1.7, 4.6),
                st.sampled_from([math.pi / 2, 1.5 * math.pi]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_degenerate_g11_names_first_vartheta(self, schw, grid):
        # phi' = (0, 0, 0, cos vartheta): g11 = r^2 cos^2 vartheta vanishes at pi/2, 3pi/2
        curve = ns.curve_from_expressions(
            ["0", "10", "pi/2", "sin(vartheta)"], ["1.25", "1", "0", "0"], (0.0, 2 * math.pi)
        )
        bad = [v for v in grid if v in (math.pi / 2, 1.5 * math.pi)]
        if not bad:
            assert _bits(ns.lambda0(curve, schw, grid)) == _bits(
                [ns.lambda0(curve, schw, v) for v in grid]
            )
            return
        with pytest.raises(DegenerateDataError) as err:
            ns.lambda0(curve, schw, np.array(grid))
        with pytest.raises(DegenerateDataError) as first:
            ns.lambda0(curve, schw, bad[0])
        assert str(err.value) == str(first.value)
        assert str(err.value).startswith(f"Lambda undefined at vartheta = {bad[0]!r}:")
