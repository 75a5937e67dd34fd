import dataclasses
import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import nullsheet as ns
from nullsheet.cli import run_pipeline
from nullsheet.config import build_curve, build_spacetime, load_config
from nullsheet.errors import DomainError, OracleMismatchError
from nullsheet.oracles import OracleKind


def second_difference(f, t, h=1e-3):
    """O(h^4) five-point stencils for f'(t) and f''(t), component-wise."""
    fm2, fm1, f0, fp1, fp2 = (f(t + k * h) for k in (-2, -1, 0, 1, 2))
    d1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    d2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h * h)
    return f0, d1, d2


def geodesic_residual(spacetime, evaluate, t, h=1e-3):
    """|y'' - acceleration| of the positions ``evaluate`` gives, in the chart the acceleration takes."""
    chart = spacetime.step_chart

    def stepped(s):
        y = evaluate(s)
        return y if chart is None else chart.into(np.concatenate([y, np.zeros_like(y)]))[: len(y)]

    y, y_t, y_tt = second_difference(stepped, t, h)
    a = spacetime.acceleration_at(y[None], y_t[None], np.empty((1, len(y))))
    return np.abs(y_tt - a[0]).max()


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
        traj = ns.integrate(schw, curve.phi(vth), curve.psi(vth), t_end if t_end else 40.0)
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
                oracle.relation_residual(t, traj.sample(t)[:4], vth) for t in ts
            )
            assert worst < 1e-6, (name, worst)

    def test_evaluate_matches_integration(self, elliptic_runs):
        for name, (oracle, _, vth, traj) in elliptic_runs.items():
            for t in np.linspace(0.0, traj.t_last * 0.97, 12):
                ref = oracle.evaluate(t, vth)
                got = traj.sample(t)[:4]
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
    """T and Tau of the branch's table and Gauss-Legendre rule against QUADPACK, along the whole branch."""
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


@pytest.mark.parametrize("example, params", BRANCHES.values(), ids=BRANCHES.keys())
def test_newton_stops_within_a_few_integrand_calls(example, params):
    """Newton for xi(T) stops within 8 calls of the integrands per node.

    One node at a time, over the whole certified range of T up to within
    1e-10 of its end: each node ends with T within the Newton tolerance, or
    with a step left below one ulp of xi.
    """
    oracle = ns.make_oracle(example, "auto", ns.OracleParams(**params))
    integrands, calls = oracle._integrands, []

    def counted(xi):
        calls.append(xi)
        return integrands(xi)

    oracle._integrands = counted
    T_end = oracle._T_end
    targets = np.concatenate([
        np.linspace(0.0, 1.0, 41) * T_end, T_end - np.array([1e-3, 1e-6, 1e-8, 1e-9, 1e-10])
    ])
    for target in targets:
        calls.clear()
        tol = 1e-13 * (1.0 + target)
        xi, T, _ = (float(a[0]) for a in oracle._xi_of_T(np.array([target]), np.array([tol])))
        assert len(calls) <= 8, (target, len(calls))
        dT, dTau = integrands(xi)
        err = abs(T - target)
        assert err * max(1.0, abs(dTau / dT)) < tol or err <= dT * np.finfo(float).eps * abs(xi), (
            target, err, xi
        )


@pytest.mark.parametrize("example, params", BRANCHES.values(), ids=BRANCHES.keys())
def test_table_sums_round_like_fsum(example, params):
    """T and Tau at every panel edge are within 1 ulp of math.fsum over the panels before it."""
    oracle = ns.make_oracle(example, "auto", ns.OracleParams(**params))
    edges = oracle._edges
    for panels, table in zip(oracle._quadrature(edges[:-1], edges[1:]), (oracle._T, oracle._Tau)):
        panels = panels.tolist()
        for k, value in enumerate(table.tolist()):
            exact = math.fsum(panels[:k])
            assert abs(value - exact) <= math.ulp(exact), (k, value, exact)


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

    def test_message_names_the_first_vartheta_that_differs(self, ex1_oracle, ex1_curve):
        # psi differs from the oracle's past the middle of the 9 varthetas,
        # and its first component is nan at the last, which fails too
        psi = ex1_curve.psi

        def bent(v):
            out = psi(v)
            out[..., 1] += np.where(np.asarray(v) > 3.0, 1e-6, 0.0)
            out[..., 0] = np.where(np.asarray(v) > 6.0, np.nan, out[..., 0])
            return out

        curve = dataclasses.replace(ex1_curve, psi=bent, periodic=False)
        first = np.linspace(curve.theta_min, curve.theta_max, 9)[4]
        with pytest.raises(OracleMismatchError, match=rf"at vartheta = {first}: "
                           r"\|dphi\| = 0\.000e\+00, \|dpsi\| = 1\.000e-06$"):
            ns.check_oracle_consistency(ex1_oracle, ns.SchwarzschildParams(m=1.0), curve)


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "source",
    ["radial_null", "photon_sphere", "boosted_circular", "infall-ring-0", "infall-ring-1",
     "infall-ring-2"],
)
def test_array_call_equals_a_call_per_node(source, tmp_path):
    """One call over a mesh's live nodes gives each node's bits, and its ``outside``
    marks the nodes where a call per node raises DomainError."""
    if source.startswith("infall-ring"):
        workload = _perfbench_workloads().InfallRing(int(source[-1]), tmp_path, chars=16)
        path = workload.config
    else:
        path = SHIPPED / f"{source}.yaml"
    cfg = load_config(path)
    oracle = ns.make_oracle(cfg.oracle.example, cfg.oracle.case, ns.OracleParams(**cfg.oracle.params))
    mesh = run_pipeline(cfg, build_spacetime(cfg), build_curve(cfg)).mesh
    i, j = np.nonzero(~mesh.truncated)
    t, vartheta, x = mesh.t_grid[i], mesh.vartheta[i, j], mesh.x[i, j]
    # and a node before t = 0 and one with r far beyond the start
    far = x[0].copy()
    far[1] = 1e3
    t = np.append(t, [-1e3, t[0]])
    vartheta = np.append(vartheta, [vartheta[0]] * 2)
    x = np.vstack([x, x[0], far])

    per_node = []
    for t_k, vartheta_k, x_k in zip(t.tolist(), vartheta.tolist(), x):
        try:
            per_node.append((oracle.evaluate(t_k, vartheta_k),
                             oracle.relation_residual(t_k, x_k, vartheta_k)))
        except DomainError:
            per_node.append(None)
    outside = oracle.outside(t, vartheta, x)
    assert outside.tolist() == [value is None for value in per_node]
    keep = ~outside
    ref = oracle.evaluate(t[keep], vartheta[keep])
    residual = oracle.relation_residual(t[keep], x[keep], vartheta[keep])
    assert ref.shape == (keep.sum(), 4) and residual.shape == (keep.sum(),)
    for k, (alone_ref, alone_residual) in enumerate(v for v in per_node if v is not None):
        assert alone_ref.tobytes() == ref[k].tobytes()
        assert np.float64(alone_residual).tobytes() == residual[k].tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_conserved_over_the_nodes_equals_a_call_per_node(seed, tmp_path):
    """``outside`` and ``evaluate`` take E and sqrt(K) from one ``conserved``
    call over all the nodes of an infall-ring compare: the bits of a call per node."""
    workload = _perfbench_workloads().InfallRing(seed, tmp_path)
    cfg = load_config(workload.config)
    oracle = ns.make_oracle(cfg.oracle.example, cfg.oracle.case, ns.OracleParams(**cfg.oracle.params))
    assert oracle.kind is OracleKind.EX2_INNER
    mesh = run_pipeline(cfg, build_spacetime(cfg), build_curve(cfg)).mesh
    i, j = np.nonzero(~mesh.truncated)
    t, vartheta = mesh.t_grid[i], mesh.vartheta[i, j]
    conserved, calls = oracle.conserved, []
    oracle.conserved = lambda v: calls.append((v, conserved(v))) or calls[-1][1]
    keep = ~oracle.outside(t, vartheta)
    oracle.evaluate(t[keep], vartheta[keep])
    assert [len(v) for v, _ in calls] == [len(t), keep.sum()]
    for v, c in calls:
        E, sqrt_k = np.broadcast_to(c.E, v.shape), np.broadcast_to(np.sqrt(c.K), v.shape)
        for k, v_k in enumerate(v.tolist()):
            alone = conserved(v_k)
            assert np.float64(alone.E).tobytes() == E[k].tobytes()
            assert np.float64(math.sqrt(alone.K)).tobytes() == sqrt_k[k].tobytes()


def _max_tau_error(cfg, rel_tol):
    """Max |tau - oracle tau| over the nodes a compare of ``cfg`` checks, at ``rel_tol``."""
    cfg = dataclasses.replace(
        cfg, solver=dataclasses.replace(cfg.solver, rel_tol=rel_tol, abs_tol=rel_tol / 100)
    )
    oracle = ns.make_oracle(cfg.oracle.example, cfg.oracle.case, ns.OracleParams(**cfg.oracle.params))
    mesh = run_pipeline(cfg, build_spacetime(cfg), build_curve(cfg)).mesh
    i, j = np.nonzero(~mesh.truncated)
    t, vartheta, x = mesh.t_grid[i], mesh.vartheta[i, j], mesh.x[i, j]
    keep = ~oracle.outside(t, vartheta, x)
    return np.abs(x[keep, 0] - oracle.evaluate(t[keep], vartheta[keep])[:, 0]).max()


@pytest.mark.parametrize("source", ["radial_null", "infall-ring-0"])
def test_tau_error_is_proportional_to_the_tolerance(source, tmp_path):
    """The max tau error falls at least 16x per two decades of ``rel_tol``, and stays
    within 200 rel_tol, at 32 x 11 with ``abs_tol = rel_tol/100``.

    Measured: radial_null 4.0e-8, 7.8e-10, 2.4e-11 at rel_tol 1e-8, 1e-10, 1e-12
    (falls 51x and 32x; at most 24 rel_tol); infall-ring seed 0 8.3e-7, 7.5e-9,
    8.7e-11 (falls 110x and 86x; at most 87 rel_tol).  Next to the horizon tau
    carries r's error times 2m/(r - 2m), some 380 at this ring's nearest node
    (r = 2.005m), so the ceiling holds for this ring's nodes, not for every ring.
    """
    if source.startswith("infall-ring"):
        path = _perfbench_workloads().InfallRing(int(source[-1]), tmp_path).config
    else:
        path = SHIPPED / f"{source}.yaml"
    cfg = load_config(path)
    assert (cfg.initial_data.samples, cfg.output.t_samples) == (32, 11)
    tols = (1e-8, 1e-10, 1e-12)
    errors = [_max_tau_error(cfg, rel_tol) for rel_tol in tols]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse >= 16.0 * fine, errors
    for error, rel_tol in zip(errors, tols):
        assert error <= 200.0 * rel_tol, errors


def test_tau_next_to_the_horizon_cap_against_quad():
    """tau 1e-6 before the certified end of infall-ring's sec branch, against QUADPACK.

    At r = 2.0000034m, dTau/dT = 1/(1 - 2mu) is some 6e5, so Newton must stop
    on Tau's error, not on T's alone.  The reference finds xi where T = t
    sqrt(K) by brentq on a quad of dT/dxi, and Tau there by a quad of
    dTau/dxi corrected to first order for what brentq leaves of T.
    """
    from scipy.optimize import brentq

    oracle = ns.make_oracle(2, "auto", ns.OracleParams(
        m=1.0, r0=2.5, f="1 + 0.25*sin(vartheta)", alpha0="1.2", sign_alpha=1,
    ))
    assert oracle.branch == "sec"
    m, c, k2, mid, hi = oracle.m, oracle.c, oracle.k2, oracle.u_mid, oracle.u_hi

    def u(xi):
        return mid + (hi - mid) / math.cos(0.5 * xi) ** 2

    def dT(xi):
        return c / (u(xi) ** 2 * math.sqrt(1.0 - k2 * math.sin(0.5 * xi) ** 2))

    def dTau(xi):
        return dT(xi) / (1.0 - 2.0 * m * u(xi))

    def integral(integrand, xi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(integrand, 0.0, xi, epsabs=0.0, epsrel=2e-14, limit=500)[0]

    for vartheta in (0.0, 2.5, 4.0):
        conserved = oracle.conserved(vartheta)
        sqrt_k = math.sqrt(conserved.K)
        t = (1.0 - 1e-6) * float(oracle._T_end) / sqrt_k
        target = t * sqrt_k
        xi = brentq(lambda x: integral(dT, x) - target, 0.0, oracle.xi_end,
                    xtol=1e-16, rtol=8.9e-16)
        Tau = integral(dTau, xi) + (target - integral(dT, xi)) * dTau(xi) / dT(xi)
        ref = oracle._data.tau_init(vartheta) + conserved.E / sqrt_k * Tau
        tau, r = oracle.evaluate(np.array([t]), np.array([vartheta]))[0, :2]
        assert r == pytest.approx(2.0000034, abs=1e-7)
        assert abs(tau - ref) <= 1e-9, (vartheta, tau, ref)
