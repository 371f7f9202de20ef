import ctypes
from pathlib import Path

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
    """add_driver(name, fn, k) adds, for the test, a DriverFamily record
    that states no facts and evaluates fn(t, brownian, y, z); it returns the
    family's spec of dimension k."""
    def add(name, fn, k=1):
        monkeypatch.setitem(GENERATOR_FAMILIES, name, bl.DriverFamily(
            lambda k=1: bl.GeneratorSpec(name, k=k),
            lambda gen, t, brownian, y, z: fn(t, brownian, y, z)))
        return bl.GeneratorSpec(name, k=k)
    return add


def _openblas_thread_setters():
    """(get, set) of the thread count of each OpenBLAS this process loaded."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    paths = {line.split()[-1] for line in maps.read_text().splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            if get is not None:
                put = getattr(lib, name.format("set"))
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                found.append((get, put))
                break
    return found


@pytest.fixture
def one_blas_thread():
    """OpenBLAS at one thread for the test, as the byte-identity checks run
    it.  A threaded product cuts its paths among the threads where the path
    count says, and OpenBLAS sums the last one to three rows of each piece
    in another order: so a solve's bits can depend on the thread count."""
    setters = _openblas_thread_setters()
    saved = [get() for get, _ in setters]
    for _, put in setters:
        put(1)
    yield
    for (_, put), n in zip(setters, saved):
        put(n)




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
