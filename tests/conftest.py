import hypothesis
import numpy as np
import pytest

import bsde_lab as bl
from bsde_lab.generator import GENERATOR_FAMILIES

hypothesis.settings.register_profile(
    "ci", max_examples=25, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("ci")


@pytest.fixture
def add_driver(monkeypatch):
    """add_driver(name, fn, k, d) adds, for the test, a DriverFamily record
    that states no facts and evaluates fn(t, brownian, y, z); it returns the
    family's spec of dimensions k and d."""
    def add(name, fn, k=1, d=1):
        monkeypatch.setitem(GENERATOR_FAMILIES, name, bl.DriverFamily(
            lambda k=1, d=1: bl.GeneratorSpec(name, k=k, d=d),
            lambda gen, t, brownian, y, z: fn(t, brownian, y, z)))
        return bl.GeneratorSpec(name, k=k, d=d)
    return add


@pytest.fixture(scope="session")
def small_ensemble():
    return bl.generate_ensemble(M=512, N=20, d=1, T=1.0, seed=7)


@pytest.fixture(scope="session")
def small_ensemble_2d():
    return bl.generate_ensemble(M=256, N=10, d=2, T=1.0, seed=9)


def random_concave_tabulated(rng: np.random.Generator,
                             n_pts: int = 8) -> bl.ModulusSpec:
    """Random piecewise-linear concave nondecreasing modulus with rho(0) = 0
    and a strictly positive first slope."""
    du = rng.uniform(0.05, 0.3, n_pts)
    us = np.concatenate([[0.0], np.cumsum(du)])
    slopes = np.sort(rng.uniform(0.1, 2.0, n_pts))[::-1]
    vs = np.concatenate([[0.0], np.cumsum(slopes * du)])
    return bl.tabulated_modulus(list(zip(us, vs)), domain_cap=us[-1])
