import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import nullsheet as ns
from nullsheet.errors import DomainError, OracleMismatchError
from nullsheet.oracles import OracleKind


def second_difference(f, t, h=1e-3):
    """O(h^4) five-point stencils for f'(t) and f''(t), component-wise."""
    fm2, fm1, f0, fp1, fp2 = (f(t + k * h) for k in (-2, -1, 0, 1, 2))
    d1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    d2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
    return f0, d1, d2


def geodesic_residual(spacetime, evaluate, t, h=1e-3):
    y, y_t, y_tt = second_difference(evaluate, t, h)
    return np.abs(y_tt - spacetime.acceleration_at(y[None], y_t[None])[0]).max()


class TestCaseDetection:
    def test_example2_cases(self):
        p = ns.OracleParams(m=1.0, r0=3.0, alpha0=1.0)
        assert ns.make_oracle(2, "auto", p).kind is OracleKind.PHOTON_SPHERE
        p = ns.OracleParams(m=1.0, r0=2.5, alpha0=1.0)
        assert ns.make_oracle(2, "auto", p).kind is OracleKind.EX2_INNER
        p = ns.OracleParams(m=1.0, r0=10.0, alpha0=1.0)
        assert ns.make_oracle(2, "auto", p).kind is OracleKind.EX2_OUTER

    def test_example3_cases(self):
        p = ns.OracleParams(m=1.0, r0=4.0, theta_range=(0.5, 3.0), periodic=False)
        assert ns.make_oracle(3, "auto", p).kind is OracleKind.EX3_CIRCULAR
        p = ns.OracleParams(m=1.0, r0=10.0, theta_range=(0.5, 3.0), periodic=False)
        assert ns.make_oracle(3, "auto", p).kind is OracleKind.EX3_OUTER
        p = ns.OracleParams(m=1.0, r0=3.0, theta_range=(0.5, 3.0), periodic=False)
        assert ns.make_oracle(3, "auto", p).kind is OracleKind.EX3_INNER

    def test_forced_case_mismatch(self):
        p = ns.OracleParams(m=1.0, r0=10.0, alpha0=1.0)
        with pytest.raises(OracleMismatchError):
            ns.make_oracle(2, "I", p)
        with pytest.raises(OracleMismatchError):
            ns.make_oracle(3, "III", ns.OracleParams(m=1.0, r0=10.0))

    def test_double_root_threshold(self):
        # within relative tolerance of r0 = 3m routes to the circular case
        p = ns.OracleParams(m=2.0, r0=6.0 * (1.0 + 1e-13), alpha0=1.0)
        assert ns.make_oracle(2, "auto", p).kind is OracleKind.PHOTON_SPHERE


class TestRadialNull:
    def test_closed_form_values(self, ex1_oracle):
        x = ex1_oracle.evaluate(5.0, 0.9)
        assert x[1] == 15.0
        assert x[0] == pytest.approx(5.0 + 2.0 * math.log(13.0 / 8.0), rel=1e-15)
        assert x[3] == 0.9

    def test_initial_data_reproduced(self, ex1_oracle, ex1_curve):
        for v in np.linspace(0.0, 2 * math.pi, 9):
            assert np.abs(ex1_oracle.evaluate(0.0, v) - ex1_curve.phi(v)).max() < 1e-12

    def test_conserved(self, ex1_oracle):
        cs = ex1_oracle.conserved(0.3)
        assert (cs.E, cs.L, cs.K) == (1.0, 0.0, 0.0)

    def test_geodesic_equation(self, schw, ex1_oracle):
        for t in (1.0, 8.0, 15.0):
            res = geodesic_residual(schw, lambda s: ex1_oracle.evaluate(s, 0.7), t)
            assert res < 1e-8

    def test_horizon_error_for_infalling(self):
        oracle = ns.make_oracle(
            1, "auto", ns.OracleParams(m=1.0, r0=4.0, r1=-1.0, sign=1, alpha0="pi/2")
        )
        assert oracle.evaluate(1.0, 0.0)[1] == 3.0
        with pytest.raises(DomainError):
            oracle.evaluate(2.5, 0.0)


class TestCircularOracles:
    def test_photon_sphere_values(self, photon_oracle):
        x = photon_oracle.evaluate(2.0, 1.1)
        assert x[0] == 2.0
        assert x[1] == 3.0
        assert x[2] == pytest.approx(1.0 + 2.0 / (3.0 * math.sqrt(3.0)), rel=1e-15)
        assert x[3] == 1.1

    def test_ex3_circular_values(self, ex3_circular_oracle):
        x = ex3_circular_oracle.evaluate(3.0, 1.0)
        assert np.allclose(x, [4.0, 4.0, 0.5, 0.5], atol=1e-15)

    def test_geodesic_equation(self, schw, photon_oracle, ex3_circular_oracle):
        for t in (0.5, 3.0):
            assert geodesic_residual(
                schw, lambda s: photon_oracle.evaluate(s, 0.4), t
            ) < 1e-8
            assert geodesic_residual(
                schw, lambda s: ex3_circular_oracle.evaluate(s, 1.0), t
            ) < 1e-8

    def test_initial_validation(self, schw, photon_oracle, ex3_circular_oracle):
        for oracle in (photon_oracle, ex3_circular_oracle):
            report = ns.validate_curve(oracle.initial_curve(), schw, n_samples=17)
            assert report.passed


F_VAR = "1 + 0.25*sin(vartheta)"
ELLIPTIC_CASES = [
    ("ex2_outer", 2, dict(m=1.0, r0=10.0, f=1.0, alpha0=1.0, sign_alpha=1), 2.0, 15.0),
    ("ex2_inner", 2, dict(m=1.0, r0=2.5, f=1.0, alpha0=1.0, sign_alpha=1), 0.4, None),
    # a vartheta-dependent f gives each characteristic its own E and K
    ("ex2_inner_f_1.2", 2, dict(m=1.0, r0=2.5, f=F_VAR, alpha0=1.0), 1.2, None),
    ("ex2_inner_f_4.5", 2, dict(m=1.0, r0=2.5, f=F_VAR, alpha0=1.0), 4.5, None),
    (
        "ex2_outer_f_4.5",
        2,
        dict(m=1.0, r0=10.0, f=F_VAR, alpha0=1.0, sign_alpha=-1),
        4.5,
        15.0,
    ),
    (
        "ex3_outer",
        3,
        dict(m=1.0, r0=10.0, sign_alpha=1, theta_range=(0.5, 3.0), periodic=False),
        1.5,
        15.0,
    ),
    (
        "ex3_inner",
        3,
        dict(m=1.0, r0=3.0, sign_alpha=1, theta_range=(1.0, 2.0), periodic=False),
        1.5,
        None,
    ),
]


@pytest.fixture(scope="module")
def elliptic_runs(schw):
    runs = {}
    for name, example, params, vth, t_end in ELLIPTIC_CASES:
        oracle = ns.make_oracle(example, "auto", ns.OracleParams(**params))
        curve = oracle.initial_curve()
        state0 = ns.GeodesicState(y=curve.phi(vth), v=curve.psi(vth), t=0.0)
        traj = ns.integrate(schw, state0, t_end if t_end else 40.0)
        runs[name] = (oracle, curve, vth, traj)
    return runs


class TestEllipticOracles:
    def test_initial_data_reproduced(self, elliptic_runs):
        for name, (oracle, curve, vth, _) in elliptic_runs.items():
            x0 = oracle.evaluate(0.0, vth)
            assert np.abs(x0 - curve.phi(vth)).max() < 1e-12, name

    def test_initial_validation(self, schw, elliptic_runs):
        for name, (oracle, curve, _, _) in elliptic_runs.items():
            report = ns.validate_curve(curve, schw, n_samples=17)
            assert report.passed, name

    def test_relation_residual_along_trajectories(self, elliptic_runs):
        for name, (oracle, _, vth, traj) in elliptic_runs.items():
            ts = np.linspace(0.0, traj.t_last * 0.999, 50)
            worst = max(
                oracle.relation_residual(t, traj.sample(t).y, vth) for t in ts
            )
            assert worst < 1e-6, (name, worst)

    def test_evaluate_matches_integration(self, elliptic_runs):
        for name, (oracle, _, vth, traj) in elliptic_runs.items():
            for t in np.linspace(0.0, traj.t_last * 0.97, 12):
                ref = oracle.evaluate(t, vth)
                got = traj.sample(t).y
                assert np.abs(ref - got).max() < 1e-7, name

    def test_substitution_derivative_identity(self, elliptic_runs):
        # (dxi/dalpha)^2 = 2m(u_hi - u_lo)(1 - k^2 sin^2(xi/2)) by construction:
        # differentiate alpha(xi) and compare against the closed form
        for name, (oracle, _, vth, _) in elliptic_runs.items():
            if not hasattr(oracle, "u_of_xi"):
                continue
            lo, hi = sorted((oracle.xi_start, oracle.xi_end))
            for xi in np.linspace(lo + 0.05, hi - 0.05, 7):
                h = 1e-6
                dalpha_dxi = (
                    oracle.alpha_of_xi(xi + h, vth) - oracle.alpha_of_xi(xi - h, vth)
                ) / (2 * h)
                expected = 1.0 / (
                    2.0 * oracle.m * (oracle.u_hi - oracle.u_lo)
                    * (1.0 - oracle.k2 * math.sin(xi / 2.0) ** 2)
                )
                assert dalpha_dxi**2 == pytest.approx(expected, rel=1e-6), name

    def test_first_order_system(self, schw, m1_params, elliptic_runs):
        # tau_t = E/(1-2m/r), alpha_t = s*sqrt(K) u^2, r_t^2 from the first
        # integral: together with constancy of E, K this is the geodesic system
        for name, (oracle, curve, vth, traj) in elliptic_runs.items():
            cs = ns.conserved_from_data(curve, m1_params, vth)
            for t in np.linspace(0.2, traj.t_last * 0.9, 7):
                x, x_t, _ = second_difference(
                    lambda s: oracle.evaluate(s, vth), t, h=2e-4
                )
                r = x[1]
                assert x_t[0] == pytest.approx(
                    cs.E / (1.0 - 2.0 / r), rel=1e-7
                ), name
                assert x_t[2] == pytest.approx(
                    oracle.s_alpha * math.sqrt(cs.K) / r**2, rel=1e-7
                ), name
                assert x_t[1] ** 2 == pytest.approx(
                    ns.rt_squared(r, cs, m1_params), rel=1e-6, abs=1e-9
                ), name

    def test_geodesic_equation_moderate(self, schw, elliptic_runs):
        for name, (oracle, _, vth, traj) in elliptic_runs.items():
            t = min(1.5, traj.t_last * 0.5)
            res = geodesic_residual(
                schw, lambda s: oracle.evaluate(s, vth), t, h=5e-3
            )
            assert res < 1e-6, (name, res)

    def test_out_of_range_raises(self, elliptic_runs):
        oracle, _, vth, _ = elliptic_runs["ex2_inner"]
        with pytest.raises(DomainError):
            oracle.evaluate(1e9, vth)
        with pytest.raises(DomainError):
            oracle.relation_residual(
                0.0, np.array([0.0, 11.0, 1.0, 0.0]), vth
            )  # r above the branch start


BRANCHES = {name: (example, params) for name, example, params, _, _ in ELLIPTIC_CASES}
for r0 in (2.01, 2.9, 3.1, 100.0):
    BRANCHES[f"ex2_r0_{r0}"] = (2, dict(m=1.0, r0=r0, alpha0=1.0))
for r0 in (2.05, 4.1):
    BRANCHES[f"ex3_r0_{r0}"] = (3, dict(m=1.0, r0=r0, theta_range=(1.0, 2.0), periodic=False))


@pytest.mark.parametrize("example, params", BRANCHES.values(), ids=BRANCHES.keys())
def test_integrals_against_quad(example, params):
    """T and Tau of the tanh-sinh rule against QUADPACK, along the whole branch."""
    oracle = ns.make_oracle(example, "auto", ns.OracleParams(**params))
    m, c, k2 = oracle.m, oracle.c, oracle.k2
    lo, mid, hi = oracle.u_lo, oracle.u_mid, oracle.u_hi

    def u(xi):
        if oracle.branch == "sec":
            return mid + (hi - mid) / math.cos(0.5 * xi) ** 2
        return lo + 0.5 * (mid - lo) * (1.0 - math.cos(xi))

    def dT(xi):
        return c / (u(xi) ** 2 * math.sqrt(1.0 - k2 * math.sin(0.5 * xi) ** 2))

    def reference(integrand, xi):
        # QUADPACK warns about roundoff this close to machine precision
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            value = quad(integrand, oracle.xi_start, xi, epsabs=0.0, epsrel=2e-14, limit=500)[0]
        return abs(value)  # both integrals grow along the branch

    for frac in (0.5, 0.999, 0.99999, 1.0):
        xi = oracle.xi_start + frac * (oracle.xi_end - oracle.xi_start)
        T, Tau = oracle._integrals(xi)
        ref_T = reference(dT, xi)
        ref_Tau = reference(lambda x: dT(x) / (1.0 - 2.0 * m * u(x)), xi)
        assert abs(T - ref_T) <= 1e-12 * ref_T, (frac, T, ref_T)
        # the 1/(1 - 2mu) factor peaks toward the horizon cap at xi_end
        tau_tol = 1e-12 if frac <= 0.999 else 1e-10
        assert abs(Tau - ref_Tau) <= tau_tol * ref_Tau, (frac, Tau, ref_Tau)


class TestConsistencyGuard:
    def test_wrong_mass_detected(self, ex1_oracle, ex1_curve):
        with pytest.raises(OracleMismatchError):
            ns.check_oracle_consistency(
                ex1_oracle, ns.SchwarzschildParams(m=1.1), ex1_curve
            )

    def test_wrong_curve_detected(self, ex1_oracle, photon_curve):
        with pytest.raises(OracleMismatchError):
            ns.check_oracle_consistency(
                ex1_oracle, ns.SchwarzschildParams(m=1.0), photon_curve
            )

    def test_matching_passes(self, ex1_oracle, ex1_curve):
        ns.check_oracle_consistency(
            ex1_oracle, ns.SchwarzschildParams(m=1.0), ex1_curve
        )
