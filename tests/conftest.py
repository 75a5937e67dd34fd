import math
import random

import pytest

import nullsheet as ns


@pytest.fixture(scope="session")
def m1_params():
    return ns.SchwarzschildParams(m=1.0)


@pytest.fixture(scope="session")
def schw(m1_params):
    return ns.schwarzschild(m1_params)


@pytest.fixture(scope="session")
def flat():
    return ns.minkowski()


@pytest.fixture(scope="session")
def ex1_oracle():
    return ns.make_oracle(
        1,
        "auto",
        ns.OracleParams(
            m=1.0,
            r0=10.0,
            r1=1.0,
            tau0=0.0,
            alpha0="pi/2 + 0.3*sin(vartheta)",
            sign=1,
        ),
    )


@pytest.fixture(scope="session")
def photon_oracle():
    return ns.make_oracle(
        2,
        "auto",
        ns.OracleParams(m=1.0, r0=3.0, f=1.0, tau0=0.0, alpha0=1.0, sign_alpha=1),
    )


@pytest.fixture(scope="session")
def ex3_circular_oracle():
    return ns.make_oracle(
        3,
        "auto",
        ns.OracleParams(
            m=1.0, r0=4.0, beta0=0.5, sign_alpha=1,
            theta_range=(0.5, 8.0), periodic=False,
        ),
    )


@pytest.fixture(scope="session")
def ex1_curve(ex1_oracle):
    return ex1_oracle.initial_curve()


@pytest.fixture(scope="session")
def photon_curve(photon_oracle):
    return photon_oracle.initial_curve()


@pytest.fixture(scope="session")
def ex3_circular_curve(ex3_circular_oracle):
    return ex3_circular_oracle.initial_curve()


def integrate_curve(spacetime, curve, vartheta, t_end, **kwargs):
    opts = ns.SolverOptions(**kwargs) if kwargs else None
    return ns.integrate(spacetime, curve.phi(vartheta), curve.psi(vartheta), t_end, opts)


@pytest.fixture(scope="session")
def ex1_trajectory(schw, ex1_curve):
    return integrate_curve(schw, ex1_curve, 1.3, 20.0)


@pytest.fixture(scope="session")
def photon_trajectory(schw, photon_curve):
    return integrate_curve(schw, photon_curve, 2.0, 5.0)


@pytest.fixture(scope="session")
def ex3_circular_trajectory(schw, ex3_circular_curve):
    return integrate_curve(schw, ex3_circular_curve, 1.0, 5.0)


@pytest.fixture(scope="session")
def infall_rings():
    """Periodic rings of infalling null data at r0 = 2.5m, as the benchmark's infall-ring.

    Seed -> curve: example 2 with f = 1 + a sin(vartheta + p), a and p drawn
    from the seed as ``perfbench/workloads.py`` draws them.
    """
    rings = {}
    for seed in range(3):
        rng = random.Random(seed)
        a, p = rng.uniform(0.2, 0.3), rng.uniform(0.0, 2.0 * math.pi)
        f = f"1 + {a!r}*sin(vartheta + {p!r})"
        rings[seed] = ns.curve_from_expressions(
            ["0", "2.5", "1.2", "vartheta"], [f, "0", f"sqrt(1.25)/6.25*abs({f})", "0"],
            (0.0, 2.0 * math.pi), periodic=True,
        )
    return rings
