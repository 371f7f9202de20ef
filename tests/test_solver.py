import dataclasses
import functools
import hashlib
import itertools
import math
import re
import struct
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsde_lab as bl
import bsde_lab.paths as paths_module
import bsde_lab.solver as solver_module
from bsde_lab.cli import save_picard_report_csv
from bsde_lab.paths import (FileFormatError, format_number, save_solution_csv,
                            write_csv)
from bsde_lab.solver import (TERMINAL_KINDS, PicardDivergenceError,
                             RegressedZ, SingularRegressionError,
                             _blocked_product, _cholesky, _finite, _fitted,
                             _solve, polynomial_features, terminal_values)


BASIS = bl.BasisSpec(degree=3)


def _moments(feats, other):
    """feats (n_basis, M) @ other (M, c) by the sweep's blocked sums, once
    they are finite."""
    out = np.zeros((feats.shape[0], other.shape[1]))
    return _finite(_blocked_product(feats, other, out))


def _factor(feats, ridge):
    """The sweep's Cholesky factor of the ridge Gram matrix of whole-array
    features (n_basis, M)."""
    return _cholesky(_moments(feats, feats.T), ridge)


def _project(feats, factor, targets):
    """Fitted values and coefficients of targets (M, c), as the sweep
    regresses them on whole-array features."""
    coeffs = _solve(factor, _moments(feats, targets))
    return _fitted(coeffs, feats), coeffs


# ----------------------------------------------------------------- terminals

def test_terminal_kinds(small_ensemble, monkeypatch):
    ens = small_ensemble
    xi = terminal_values(bl.coordinate_terminal(0), ens, 1)
    b_T = ens.final_state
    assert np.array_equal(xi, b_T[:, [0]])
    xi = terminal_values(bl.square_norm_terminal(), ens, 1)
    assert np.allclose(xi[:, 0], b_T[:, 0] ** 2)
    xi = terminal_values(bl.constant_terminal([1.0, 2.0]), ens, 2)
    assert xi.shape == (ens.M, 2)
    assert np.all(xi == [1.0, 2.0])
    # a scalar constant fills the driver's k coordinates
    xi = terminal_values(bl.constant_terminal(1.5), ens, 3)
    assert xi.shape == (ens.M, 3) and np.all(xi == 1.5)
    # a user-defined kind is one more record
    monkeypatch.setitem(TERMINAL_KINDS, "sin_bt", bl.TerminalKind(
        lambda: bl.TerminalSpec("sin_bt"),
        lambda term, b_T, k: np.sin(b_T[:, [0]])))
    xi = terminal_values(bl.TerminalSpec("sin_bt"), ens, 1)
    assert np.allclose(xi[:, 0], np.sin(b_T[:, 0]))


def test_terminal_of_the_wrong_shape_is_rejected(small_ensemble, monkeypatch):
    monkeypatch.setitem(TERMINAL_KINDS, "flat", bl.TerminalKind(
        lambda: bl.TerminalSpec("flat"), lambda term, b_T, k: b_T[:, 0]))
    m = small_ensemble.M
    with pytest.raises(bl.paths.DimensionError, match=re.escape(
            f"terminal kind 'flat' gives xi of shape ({m},), but "
            f"generator.k = 1 needs ({m}, 1)")):
        terminal_values(bl.TerminalSpec("flat"), small_ensemble, 1)
    # a terminal of the right shape for another k is of the wrong shape here
    for term, k in ((bl.coordinate_terminal(0), 2),
                    (bl.square_norm_terminal(), 3),
                    (bl.constant_terminal([1.0]), 3)):
        with pytest.raises(bl.paths.DimensionError,
                           match=f"terminal kind '{term.kind}' .* generator.k = {k}"):
            terminal_values(term, small_ensemble, k)


def test_terminal_coordinate_out_of_range(small_ensemble):
    for j in (3, 1, -1):
        with pytest.raises(bl.paths.DimensionError, match=f"j = {j} is out of range"):
            terminal_values(bl.coordinate_terminal(j), small_ensemble, 1)


# ---------------------------------------------------------------- regression

def test_basis_size():
    assert bl.BasisSpec(degree=3).size(1) == 4
    assert bl.BasisSpec(degree=3).size(2) == 10
    assert polynomial_features(np.zeros((5, 2)), 3).shape == (10, 5)


def _power_table_features(state, degree):
    """The feature builder before the product plan: per-coordinate power
    tables multiplied into each monomial's row, kept as the bit-level
    reference."""
    m, d = state.shape
    exps = solver_module._monomial_exponents(d, degree)
    feats = np.empty((len(exps), m))
    powers = [np.vander(state[:, i], degree + 1, increasing=True)
              for i in range(d)]
    for row, e in enumerate(exps):
        f = np.ones(m)
        for i, ei in enumerate(e):
            if ei:
                f = f * powers[i][:, ei]
        feats[row] = f
    return feats


_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e100, -1e100]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(0, 6), st.data())
def test_features_are_bytes_of_the_power_table_products(d, degree, data):
    m = data.draw(st.integers(1, 12))
    cells = data.draw(st.lists(_CELLS, min_size=m * d, max_size=m * d))
    state = np.array(cells).reshape(m, d)
    with np.errstate(all="ignore"):
        feats = polynomial_features(state, degree)
        ref = _power_table_features(state, degree)
    assert feats.shape == ref.shape and feats.flags.c_contiguous
    assert feats.tobytes() == ref.tobytes()


def test_features_across_row_blocks_match_the_power_table_products():
    rng = np.random.default_rng(4)
    state = rng.normal(size=(2 * solver_module._ROW_BLOCK + 5, 4, 3))[:, 1, :]
    state[:5, 1] = [0.0, -0.0, 5e-324, 1e100, -1e100]
    with np.errstate(all="ignore"):
        feats = polynomial_features(state, 4)
        ref = _power_table_features(state, 4)
    assert feats.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monomials_are_the_brute_force_enumeration(d):
    # the reference filters all (degree + 1)^d exponent tuples
    for degree in range(7):
        ref = [e for e in itertools.product(range(degree + 1), repeat=d)
               if sum(e) <= degree]
        ref.sort(key=lambda e: (sum(e), e))
        assert solver_module._monomial_exponents(d, degree) == ref


@pytest.mark.parametrize("d, degree", [(20, 2), (30, 1)])
def test_a_product_plan_in_many_dimensions_is_quick(d, degree):
    # 3^20 and 2^30 exponent tuples to filter, for 231 and 31 monomials:
    # the plan must enumerate only the monomials
    solver_module._product_plan.cache_clear()
    start = time.perf_counter()
    n_basis, linear, products = solver_module._product_plan(d, degree)
    assert time.perf_counter() - start < 0.5
    assert n_basis == bl.BasisSpec(degree).size(d)
    assert n_basis == 1 + len(linear) + len(products)


def test_regress_constant_targets():
    rng = np.random.default_rng(0)
    state = rng.normal(size=(500, 1))
    targets = np.full((500, 1), 3.25)
    feats = polynomial_features(state, BASIS.degree)
    fitted, _ = _project(feats, _factor(feats, BASIS.ridge_for(500)),
                         targets)
    assert np.allclose(fitted, 3.25, atol=1e-9)


def test_regress_exact_linear_representation():
    rng = np.random.default_rng(1)
    state = rng.normal(size=(400, 1))
    targets = 3.0 * state
    feats = polynomial_features(state, 2)
    fitted, coeffs = _project(feats, _factor(feats, 0.0), targets)
    assert np.allclose(fitted, targets, atol=1e-10)
    assert coeffs[1, 0] == pytest.approx(3.0, abs=1e-10)


def test_regress_martingale_projection():
    ens = bl.generate_ensemble(M=2 ** 14, N=2, d=1, T=1.0, seed=21)
    t_idx = 1
    state = ens.all_states()[:, t_idx]
    targets = ens.final_state
    feats = polynomial_features(state, BASIS.degree)
    fitted, _ = _project(feats, _factor(feats, BASIS.ridge_for(ens.M)),
                         targets)
    sd = math.sqrt(1.0 - ens.grid.times[t_idx])
    rms = float(np.sqrt(np.mean((fitted - state) ** 2)))
    assert rms <= 3.0 * sd / math.sqrt(ens.M) * math.sqrt(BASIS.size(1)) \
        or rms <= 3.0 * sd * ens.M ** -0.5 * 2.0


def test_regress_singular_without_ridge():
    state = np.zeros((100, 1))  # rank-deficient features beyond the constant
    with pytest.raises(SingularRegressionError, match="ridge"):
        _factor(polynomial_features(state, 2), 0.0)


def test_regress_needs_more_samples_than_basis():
    with pytest.raises(ValueError):
        BASIS.require_samples(3, 1)


def test_solves_need_more_paths_than_basis_functions():
    # M = 4 paths against the 4 cubic monomials in d = 1 would interpolate
    ens = bl.generate_ensemble(M=4, N=3, d=1, T=1.0, seed=5)
    with pytest.raises(ValueError, match="M = 4 paths must exceed the 4 basis"):
        bl.picard_solve(bl.zero_generator(1), bl.coordinate_terminal(0),
                        ens, BASIS)


# ------------------------------------------------------------- frozen sweeps
# With a driver that does not read y, every sweep gives the same pair, so the
# solve is its first sweep.

def test_zero_generator_constant_terminal_is_exact(small_ensemble):
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.constant_terminal(2.5), small_ensemble,
                             BASIS)
    # the default ridge shrinks the fitted constant by ~1e-10 relative,
    # so "exact" means zero up to that regularization noise
    assert np.allclose(sol.y, 2.5, atol=1e-8)
    assert np.allclose(sol.z, 0.0, atol=1e-7)


def test_zero_generator_coordinate_terminal_tracks_martingale():
    ens = bl.generate_ensemble(M=2 ** 13, N=25, d=1, T=1.0, seed=31)
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), ens, BASIS)
    err = np.sqrt(np.mean((sol.y[:, :, 0] - ens.all_states()[:, :, 0]) ** 2))
    assert err <= 0.05
    assert abs(np.mean(sol.z) - 1.0) <= 0.05


def test_drift_only_generator_matches_ode(small_ensemble):
    gen = bl.linear_generator(a=0.0, b=0.0, c=0.2, k=1)
    sol, _ = bl.picard_solve(gen, bl.constant_terminal(0.0), small_ensemble,
                             BASIS)
    times = small_ensemble.grid.times
    expected = 0.2 * (1.0 - times)
    assert np.allclose(sol.y[:, :, 0], expected[None, :], atol=1e-8)
    assert np.allclose(sol.z, 0.0, atol=1e-8)


def test_terminal_pinning_is_exact(small_ensemble):
    gen = bl.example1_generator(p=2.0)
    xi = terminal_values(bl.coordinate_terminal(0), small_ensemble, 1)
    sol, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), small_ensemble,
                             BASIS)
    assert np.array_equal(sol.y[:, -1, :], xi)


def test_martingale_consistency_for_zero_generator(small_ensemble):
    """With g = 0 the fitted y at step i is exactly the projection of y at
    step i+1, so re-regressing reproduces it to numerical zero."""
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.square_norm_terminal(), small_ensemble,
                             BASIS)
    i = small_ensemble.grid.N // 2
    feats = polynomial_features(small_ensemble.all_states()[:, i],
                                BASIS.degree)
    refit, _ = _project(feats, _factor(
        feats, BASIS.ridge_for(small_ensemble.M)), sol.y[:, i + 1, :])
    assert np.allclose(refit, sol.y[:, i, :], atol=1e-10)


# ---------------------------------------------------------------- fixed point

def test_picard_zero_generator_converges_at_one(small_ensemble):
    gen = bl.zero_generator(1)
    sol, rep = bl.picard_solve(gen, bl.constant_terminal(1.0), small_ensemble,
                               BASIS, p=2.0)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.entries[0].dist_y == 0.0


def test_picard_linear_generator_hits_exponential():
    ens = bl.generate_ensemble(M=4096, N=50, d=1, T=1.0, seed=41)
    gen = bl.linear_generator(a=0.5, b=0.0, c=0.0, k=1)
    sol, rep = bl.picard_solve(gen, bl.constant_terminal(1.0), ens, BASIS,
                               p=2.0, tol=1e-6)
    assert rep.converged
    y0 = float(np.mean(sol.y[:, 0, 0]))
    assert y0 == pytest.approx(math.exp(0.5), rel=5e-3)


def test_picard_max_iter_exhaustion_returns_best(small_ensemble):
    gen = bl.linear_generator(a=3.0, b=0.0, c=0.0, k=1)
    sol, rep = bl.picard_solve(gen, bl.constant_terminal(1.0), small_ensemble,
                               BASIS, p=2.0, tol=1e-14, max_iter=2)
    assert not rep.converged
    assert rep.iterations == 2
    assert np.all(np.isfinite(sol.y))


def test_picard_divergence_aborts(add_driver):
    ens = bl.generate_ensemble(M=256, N=10, d=1, T=1.0, seed=5)
    gen = add_driver("amplify", lambda t, b, y, z: 40.0 * y)
    with pytest.raises(PicardDivergenceError):
        bl.picard_solve(gen, bl.constant_terminal(1.0), ens, BASIS,
                        p=2.0, tol=1e-12, max_iter=12)


def test_non_finite_sweep_aborts_with_time_index(add_driver):
    ens = bl.generate_ensemble(M=128, N=10, d=1, T=1.0, seed=5)
    gen = add_driver("nan_early", lambda t, b, y, z: np.where(
        t < 0.35, np.full_like(y, np.nan), np.zeros_like(y)))
    with pytest.raises(RuntimeError, match="time index 3"):
        bl.picard_solve(gen, bl.constant_terminal(1.0), ens, BASIS)


def test_non_finite_sweep_is_a_picard_divergence(add_driver):
    ens = bl.generate_ensemble(M=128, N=10, d=1, T=1.0, seed=5)
    gen = add_driver("nan_late", lambda t, b, y, z: np.where(
        t > 0.65, np.full_like(y, np.nan), np.zeros_like(y)))
    with pytest.raises(PicardDivergenceError, match="time index 9"):
        bl.picard_solve(gen, bl.constant_terminal(1.0), ens, BASIS, p=2.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("overflow", ["init", "horizon"])
def test_non_finite_regression_moments_are_a_picard_divergence(overflow):
    # an init of 1e308 overflows the cross-moments of the first step's driver
    # term; at T = 1e300 the cubic features, hence the Gram matrix, overflow
    horizon = 1e300 if overflow == "horizon" else 1.0
    init = 1e308 if overflow == "init" else None
    ens = bl.generate_ensemble(M=128, N=4, d=1, T=horizon, seed=5)
    with pytest.raises(PicardDivergenceError,
                       match="non-finite regression moments at time index"):
        bl.picard_solve(bl.example1_generator(2.0), bl.coordinate_terminal(0),
                        ens, BASIS, init=init)


def test_picard_constant_init_same_limit(small_ensemble):
    gen = bl.example1_generator(p=2.0)
    term = bl.coordinate_terminal(0)
    sol_a, _ = bl.picard_solve(gen, term, small_ensemble, BASIS, p=2.0,
                               tol=1e-8, max_iter=25)
    sol_b, _ = bl.picard_solve(gen, term, small_ensemble, BASIS, p=2.0,
                               tol=1e-8, max_iter=25, init=1.0)
    dy, _ = bl.analysis.iterate_distance_arrays(sol_a.y, sol_b.y, sol_a.z,
                                                sol_b.z, sol_a.grid.dt, 2.0)
    assert dy <= 1e-6


def test_picard_report_lengths(small_ensemble):
    gen = bl.example1_generator(p=2.0)
    _, rep = bl.picard_solve(gen, bl.coordinate_terminal(0), small_ensemble,
                             BASIS, p=2.0, tol=1e-12, max_iter=4)
    assert rep.iterations == 4
    assert [(e.window, e.iteration) for e in rep.entries] == [
        (0, 1), (0, 2), (0, 3), (0, 4)]


def test_picard_determinism(small_ensemble):
    gen = bl.example1_generator(p=2.0)
    term = bl.coordinate_terminal(0)
    a, rep_a = bl.picard_solve(gen, term, small_ensemble, BASIS, p=2.0)
    b, rep_b = bl.picard_solve(gen, term, small_ensemble, BASIS, p=2.0)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.z, b.z)
    assert rep_a.entries == rep_b.entries


def test_picard_split_windows_match_unsplit():
    ens = bl.generate_ensemble(M=4096, N=50, d=1, T=1.0, seed=43)
    gen = bl.linear_generator(a=0.5, b=0.0, c=0.2, k=1)
    term = bl.constant_terminal(1.0)
    target = math.exp(0.5) + 0.4 * (math.exp(0.5) - 1.0)

    whole, rep_whole = bl.picard_solve(gen, term, ens, BASIS, p=2.0, tol=1e-8)
    split, rep_split = bl.picard_solve(gen, term, ens, BASIS, p=2.0, tol=1e-8,
                                       split=0.5)
    assert rep_split.converged and len(rep_split.windows) == 2
    y0_whole = float(np.mean(whole.y[:, 0, 0]))
    y0_split = float(np.mean(split.y[:, 0, 0]))
    assert y0_whole == pytest.approx(target, rel=5e-3)
    assert y0_split == pytest.approx(target, rel=5e-3)


def test_picard_validates_parameters(small_ensemble):
    gen = bl.zero_generator(1)
    term = bl.constant_terminal(1.0)
    with pytest.raises(ValueError):
        bl.picard_solve(gen, term, small_ensemble, BASIS, tol=0.0)
    with pytest.raises(ValueError):
        bl.picard_solve(gen, term, small_ensemble, BASIS, max_iter=0)


def test_stability_warning_for_coarse_grid():
    ens = bl.generate_ensemble(M=256, N=2, d=1, T=2.0, seed=3)
    gen = bl.linear_generator(a=0.0, b=1.0, c=0.0, k=1)  # C = 1, dt = 1
    with pytest.warns(RuntimeWarning, match="unstable"):
        bl.picard_solve(gen, bl.constant_terminal(1.0), ens, BASIS)


# -------------------------------------------------------------------- exports

def test_solution_csv_layout(tmp_path, small_ensemble):
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.constant_terminal(1.0), small_ensemble,
                             BASIS)
    target = tmp_path / "solution.csv"
    save_solution_csv(sol, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "path,step,t,y_1,z_11"
    n_rows = small_ensemble.M * (small_ensemble.grid.N + 1)
    assert len(lines) == n_rows + 1


def test_solution_csv_bytes(tmp_path):
    y = np.array([[[0.1, 2.0], [1.0 / 3.0, -0.0]]])
    z = np.array([[[[0.5], [1e-20]]]])
    sol = bl.DiscreteSolution(y=y, z_source=z, grid=bl.TimeGrid(T=0.3, N=1))
    target = tmp_path / "solution.csv"
    save_solution_csv(sol, target)
    assert target.read_text() == (
        "path,step,t,y_1,y_2,z_11,z_21\n"
        "0,0,0,0.10000000000000001,2,0.5,9.9999999999999995e-21\n"
        "0,1,0.29999999999999999,0.33333333333333331,-0,0,0\n")


# Cells whose renderings differ in form: signed zero, the least subnormal,
# exponents, integer values and a repeating binary fraction.
_CELLS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e300, 3.0,
                                    -2.0, 1.0 / 3.0, 1e16, 0.1]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 5), k=st.integers(1, 3),
       d=st.integers(1, 3), horizon=st.floats(1e-3, 1e3),
       chunk_rows=st.integers(1, 40), data=st.data())
def test_solution_csv_is_the_generic_rendering(tmp_path_factory, m, n, k, d,
                                                horizon, chunk_rows, data):
    cells = data.draw(st.lists(_CELLS, min_size=m * (n + 1) * k + m * n * k * d,
                               max_size=m * (n + 1) * k + m * n * k * d))
    y = np.array(cells[:m * (n + 1) * k]).reshape(m, n + 1, k)
    z = np.array(cells[m * (n + 1) * k:]).reshape(m, n, k, d)
    sol = bl.DiscreteSolution(y=y, z_source=z, grid=bl.TimeGrid(T=horizon, N=n))
    out = tmp_path_factory.mktemp("solution")
    # a small chunk puts chunk boundaries inside the solution
    with mock.patch.object(paths_module, "_SOLUTION_CHUNK_ROWS", chunk_rows):
        save_solution_csv(sol, out / "fast.csv")
    header = (["path", "step", "t"] + [f"y_{i + 1}" for i in range(k)]
              + [f"z_{i + 1}{j + 1}" for i in range(k) for j in range(d)])
    zeros = np.zeros((1, k * d))
    write_csv(out / "generic.csv", header, [
        (pth, step, t, *y_row, *z_row)
        for pth in range(m)
        for step, (t, y_row, z_row) in enumerate(zip(
            sol.grid.times.tolist(), y[pth].tolist(),
            np.vstack([z[pth].reshape(n, k * d), zeros]).tolist()))])
    assert (out / "fast.csv").read_bytes() == (out / "generic.csv").read_bytes()
    # the % format renders each cell as the format spec did
    assert all(format_number(c) == "{:.17g}".format(c) for c in cells)


# sha256 of an ensemble file and of a solution.csv of its own numbers
# (y = B, z = B dB), both recorded before the writer and the generator were
# rewritten.
@pytest.mark.parametrize("antithetic, ensemble_sha, solution_sha", [
    (False, "48da2b3961c20de24ffec081ff480dafd3f0fd72b40d2d703d8fef9fd193a8b4",
     "f253c344b6e78566adf87085337e6e07386e152d01f455201ac15cb8f4b87ac0"),
    (True, "3d4377273da397afd2c7cf75c84692f59c7bb6b5e2d4f8e63aabd3b06b142139",
     "b4028ed3f48931e13196533a64c58b668cccf2f3ab446ad13655b47436de9efb"),
])
@pytest.mark.usefixtures("one_blas_thread")
def test_ensemble_and_solution_bytes_are_pinned(tmp_path, antithetic,
                                                ensemble_sha, solution_sha):
    ens = bl.generate_ensemble(301, 6, 3, 1.5, seed=11, antithetic=antithetic)
    bl.save_ensemble(ens, tmp_path / "paths.bsde")
    b = ens.all_states()
    sol = bl.DiscreteSolution(
        y=b[:, :, :2], z_source=b[:, :-1, :2, None] * ens.increments[:, :, None, :],
        grid=ens.grid)
    save_solution_csv(sol, tmp_path / "solution.csv")
    # the CSV export of the binary file is the same text
    bl.save_solution(sol, tmp_path / "solution.bsol")
    save_solution_csv(bl.load_solution(tmp_path / "solution.bsol"),
                      tmp_path / "exported.csv")
    digest = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("paths.bsde", "solution.csv", "exported.csv")]
    assert digest == [ensemble_sha, solution_sha, solution_sha]


def _random_solution(m, n, k, d, layout=np.ascontiguousarray, seed=0):
    """A solution of standard normals; layout shapes its path-major arrays."""
    rng = np.random.default_rng(seed)
    return bl.DiscreteSolution(y=layout(rng.standard_normal((m, n + 1, k))),
                               z_source=layout(rng.standard_normal((m, n, k, d))),
                               grid=bl.TimeGrid(T=1.5, N=n))


@pytest.mark.parametrize("k, d", [(1, 1), (2, 3)])
def test_solution_file_round_trip_is_bit_exact(tmp_path, k, d):
    # 2500 paths span three blocks of the writer, the last one partial
    sol = _random_solution(2500, 7, k, d)
    bl.save_solution(sol, tmp_path / "s.bsol")
    back = bl.load_solution(tmp_path / "s.bsol")
    assert back.grid == sol.grid
    assert back.y.tobytes() == sol.y.tobytes()
    assert back.z.tobytes() == sol.z.tobytes()
    # loaded step-major, as the solvers return it
    assert back.y[:, 3].flags.c_contiguous and back.z[:, 3].flags.c_contiguous


def test_solution_file_is_path_major(tmp_path):
    sol = _random_solution(5, 3, 2, 3)
    bl.save_solution(sol, tmp_path / "s.bsol")
    raw = (tmp_path / "s.bsol").read_bytes()
    assert raw[:40] == struct.pack("<4sIQQIId", b"BSOL", 1, 5, 3, 2, 3, 1.5)
    records = np.frombuffer(raw[40:], dtype="<f8").reshape(5, 4 * 2 + 3 * 2 * 3)
    for j in range(5):
        assert np.array_equal(records[j], np.concatenate([sol.y[j].ravel(),
                                                          sol.z[j].ravel()]))


@pytest.mark.usefixtures("one_blas_thread")
def test_solution_file_bytes_are_pinned(tmp_path):
    # the solution of test_ensemble_and_solution_bytes_are_pinned (not
    # antithetic); the hash is that of the header and the records built
    # directly with struct and numpy
    ens = bl.generate_ensemble(301, 6, 3, 1.5, seed=11)
    b = ens.all_states()
    sol = bl.DiscreteSolution(
        y=b[:, :, :2], z_source=b[:, :-1, :2, None] * ens.increments[:, :, None, :],
        grid=ens.grid)
    bl.save_solution(sol, tmp_path / "s.bsol")
    assert hashlib.sha256((tmp_path / "s.bsol").read_bytes()).hexdigest() == (
        "89709d87957bab938c536c8082b598290d26c4a57b7a785ba4835d172741a310")


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_solution_file_bytes_do_not_depend_on_the_layout(tmp_path, layout):
    ens = bl.generate_ensemble(1500, 4, 2, 1.0, seed=5)
    z = np.empty((4, 1500, 2, 2)).transpose(1, 0, 2, 3)
    z[...] = ens.increments[:, :, :, None] * ens.increments[:, :, None, :]
    b = ens.all_states()
    step_major = bl.DiscreteSolution(y=b, z_source=z, grid=ens.grid)
    hand = bl.DiscreteSolution(y=layout(b), z_source=layout(z), grid=ens.grid)
    bl.save_solution(step_major, tmp_path / "a.bsol")
    bl.save_solution(hand, tmp_path / "b.bsol")
    assert (tmp_path / "a.bsol").read_bytes() == (tmp_path / "b.bsol").read_bytes()


def test_solution_file_io_holds_no_second_copy(tmp_path):
    # A whole path-major copy of (y, z) would add one payload to either peak.
    m, n = 16384, 50
    sol = _random_solution(m, n, 1, 1, seed=3)
    step_major = bl.DiscreteSolution(
        y=np.ascontiguousarray(sol.y.transpose(1, 0, 2)).transpose(1, 0, 2),
        z_source=np.ascontiguousarray(sol.z.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
        grid=sol.grid)
    payload = sol.y.nbytes + sol.z.nbytes
    target = tmp_path / "s.bsol"
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        bl.save_solution(step_major, target)
        _, saved = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start_load, _ = tracemalloc.get_traced_memory()
        back = bl.load_solution(target)
        _, loaded = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert saved - start < 0.1 * payload
    assert loaded - start_load - payload < 0.1 * payload
    assert back.y.tobytes() == sol.y.tobytes()


# Each binary file: a writer of a small sample of it, and its reader.  The
# two headers hold magic, version, M, N, one u32 size (k of a solution, d of
# an ensemble) and T at the same offsets, so each damage fits both.
_BINARY_FILES = {
    "solution": (lambda target: bl.save_solution(_random_solution(4, 3, 1, 2),
                                                 target), bl.load_solution),
    "ensemble": (lambda target: bl.save_ensemble(
        bl.generate_ensemble(4, 3, 1, 1.5, seed=2), target), bl.load_ensemble),
}
_OTHER_MAGIC = {b"BSOL": b"BSDE", b"BSDE": b"BSOL"}
_DAMAGES = [
    ("magic", lambda raw: _OTHER_MAGIC[raw[:4]] + raw[4:], "bad magic"),
    ("version", lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:],
     "unsupported format version 2"),
    ("empty_M", lambda raw: raw[:8] + struct.pack("<Q", 0) + raw[16:],
     "must be >= 1"),
    ("horizon", lambda raw: raw[:32] + struct.pack("<d", -1.0) + raw[40:],
     "horizon T must be positive"),
    ("sizes", lambda raw: raw[:24] + struct.pack("<I", 2) + raw[28:],
     "header implies"),
    ("trailing", lambda raw: raw + bytes(8), "header implies"),
    ("truncated", lambda raw: raw[:-1], "header implies"),
    ("header", lambda raw: raw[:39], "shorter than the {file} header"),
]


@pytest.mark.parametrize("file, damage, message", [
    pytest.param(file, damage, message,
                 id=case if file == "solution" else f"{file}_{case}")
    for file in _BINARY_FILES for case, damage, message in _DAMAGES])
def test_bad_solution_file_rejected(tmp_path, file, damage, message):
    save, load = _BINARY_FILES[file]
    target = tmp_path / "damaged"
    save(target)
    target.write_bytes(damage(target.read_bytes()))
    with pytest.raises(FileFormatError, match=message.format(file=file)):
        load(target)


def test_failed_csv_write_leaves_the_old_file(tmp_path):
    target = tmp_path / "report.csv"
    target.write_text("old\n")

    def rows():
        yield (1.0, 2.0)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_csv(target, ["a", "b"], rows())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_picard_report_csv(tmp_path, small_ensemble):
    gen = bl.zero_generator(1)
    _, rep = bl.picard_solve(gen, bl.constant_terminal(1.0), small_ensemble,
                             BASIS)
    target = tmp_path / "report.csv"
    save_picard_report_csv(rep, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "window,iter,dist_y,dist_z,sp_norm,converged"
    assert lines[1].startswith("0,1,0,") and lines[1].endswith("true")


def test_picard_report_flags_each_window(tmp_path):
    # window 0 ([T/2, T]) ends at dist_y ~ 5.8e-5, window 1 at ~ 2.2e-4
    ens = bl.generate_ensemble(M=512, N=10, d=1, T=1.0, seed=5)
    gen = bl.linear_generator(a=1.0, c=0.5)
    _, rep = bl.picard_solve(gen, bl.constant_terminal(1.0), ens,
                             bl.BasisSpec(degree=2), tol=1e-4, max_iter=4,
                             split=0.5)
    assert len(rep.windows) == 2
    assert rep.window_converged == [True, False]
    assert not rep.converged
    target = tmp_path / "report.csv"
    save_picard_report_csv(rep, target)
    rows = [line.split(",") for line in target.read_text().splitlines()[1:]]
    assert [(r[0], r[-1]) for r in rows] == [("0", "true")] * 4 + [("1", "false")] * 4


def _zero_pair(ens, basis=BASIS):
    """A zero scalar y on ens, stored step-major as the solver's, and a
    RegressedZ of zero coefficients (N, n_basis, d) on basis."""
    y = np.zeros((ens.grid.N + 1, ens.M, 1)).transpose(1, 0, 2)
    zc = np.zeros((ens.grid.N, basis.size(ens.d), ens.d))
    return y, RegressedZ(zc, basis, ens)


def test_picard_solve_is_the_frozen_iteration(small_ensemble):
    # one window: the returned pair is the third sweep, each sweep frozen at
    # the y of the one before, the first at the constant init
    gen = bl.example1_generator(2.0)
    term = bl.coordinate_terminal(0)
    sol, rep = bl.picard_solve(gen, term, small_ensemble, BASIS, tol=1e-30,
                               max_iter=2, init=0.25)
    assert rep.iterations == 2 and not rep.converged
    n = small_ensemble.grid.N
    y, z = _zero_pair(small_ensemble)
    y[...] = 0.25
    y[:, -1] = terminal_values(term, small_ensemble, 1)
    for _ in range(3):
        solver_module._backward_sweep(gen, y, z, 0, n, [None] * n)
    assert np.array_equal(sol.y, y)
    assert np.array_equal(sol.z_source.coeffs, z.coeffs)
    assert sol.z_source.basis is BASIS and sol.z_source.ens is small_ensemble


# sha256 of picard_solve's y and z bytes, hashed in their logical (M, ...)
# order.  Re-recorded when the ridge systems moved from scipy's
# cho_factor/cho_solve to np.linalg.cholesky and two np.linalg.solve calls:
# the order of the solve's operations changed, so y and z moved by at most
# 6.1e-14 (degree0, one basis function, kept its bytes).  degree0 alone was
# re-recorded when (y, z) came to be stored step-major: its one feature
# column times the now contiguous (M, 2) slice y[:, i+1] goes through
# another BLAS product than the strided slice did, which sums in another
# order.  y moved by 4.6e-14 and z by 6.5e-15, in 5 iterations as before.
# example1, zero_d3, split and degree5 were re-recorded when the features
# came to be stored feature-major, (n_basis, M): the regression's products
# then go through other BLAS kernels, which sum in another order.  y moved
# by at most 7.5e-14 and z by 4.6e-13, in as many iterations as before;
# degree0, one row of ones, kept its bytes.
def _solve_case(name):
    ens1 = bl.generate_ensemble(M=2048, N=20, d=1, T=1.0, seed=101)
    if name == "example1":
        return bl.picard_solve(bl.example1_generator(2.0),
                               bl.coordinate_terminal(0), ens1, BASIS,
                               tol=1e-6)
    if name == "split":
        return bl.picard_solve(bl.linear_generator(a=0.5, b=0.3, c=0.2),
                               bl.coordinate_terminal(0), ens1, BASIS,
                               tol=1e-8, split=0.4)
    if name == "zero_d3":
        ens = bl.generate_ensemble(M=9000, N=6, d=3, T=1.0, seed=102)
        return bl.picard_solve(bl.zero_generator(1),
                               bl.square_norm_terminal(), ens, BASIS)
    ens = bl.generate_ensemble(M=1024, N=8, d=2, T=1.0, seed=103)
    gen = bl.linear_generator(a=[[0.3, 0.1], [0.0, -0.2]], b=0.4,
                              c=[0.1, 0.2], k=2)
    return bl.picard_solve(gen, bl.constant_terminal([1.0, 2.0]), ens,
                           bl.BasisSpec(int(name[-1])), tol=1e-8)


@pytest.mark.parametrize("name, iterations, sha", [
    ("example1", 7,
     "997e4b97873f62d6767af3984c6160c046cef5a26acc52502bea3e450f4a8b44"),
    ("zero_d3", 1,
     "e671a0733473988fa9288eab7358bc8250c8d09e0a0f2f009ca8b4c6708f199e"),
    ("split", 9,
     "75e11efc0f4c2b6f43d4e92f63d421504af291e1617917c343f46b2841218392"),
    ("degree0", 5,
     "91e8670ad03ac4e3f6cd9d3849dc164ac868bd36970f76fddd6bc2cdb93c4627"),
    ("degree5", 5,
     "e1cf794a36326bf5ebaa780945b406b0dfe236559fb6e688a1ec5b64e1b2e379"),
])
@pytest.mark.usefixtures("one_blas_thread")
def test_picard_solve_bytes_are_pinned(name, iterations, sha):
    sol, rep = _solve_case(name)
    assert rep.iterations == iterations
    digest = hashlib.sha256(sol.y.tobytes())
    digest.update(sol.z.tobytes())
    assert digest.hexdigest() == sha


@pytest.mark.parametrize("name, sha", [
    ("example1",
     "cfa8ae2092d8a7604aaf71b6be74eb3af77a22ea63ef49bdf255f6e5dcef6127"),
    ("zero_d3",
     "77dfdd05bbc15615cccafae2712317ad027a6c829cc086611a0882a9c87298e4"),
    ("split",
     "7b4cf168c9856bb9b54e399ccfb8b258e971419b2acba78cae6fe7d7feb1af4a"),
    ("degree0",
     "c86e7d410baa15dbc20c3255db06238ee039dd05613a981b7d227dce4c09bd7d"),
    ("degree5",
     "38f04cdc3e72c85c6391a0f88a63512cc14e9ae1ac31e35bd1666841412e291a"),
])
@pytest.mark.usefixtures("one_blas_thread")
def test_picard_report_bytes_are_pinned(name, sha):
    # the folded distances and the S^p norm of every entry, which the y and
    # z bytes above do not cover
    _, rep = _solve_case(name)
    rows = np.array([(e.dist_y, e.dist_z, e.sp_norm) for e in rep.entries])
    assert hashlib.sha256(rows.tobytes()).hexdigest() == sha


def test_backward_sweep_overwrites_the_iterate_and_returns_nothing(
        small_ensemble):
    ens = small_ensemble
    y = np.full((ens.M, ens.grid.N + 1, 1), 0.25)
    y[:, -1] = ens.final_state[:, :1]
    z = RegressedZ(np.zeros((ens.grid.N, BASIS.size(1), 1)), BASIS, ens)
    assert solver_module._backward_sweep(
        bl.example1_generator(2.0), y, z, 0, ens.grid.N,
        [None] * ens.grid.N) is None
    # against a sweep on a fresh pair, y stored step-major as the solver's
    ref_y, ref_z = _zero_pair(ens)
    ref_y[...] = 0.25
    ref_y[:, -1] = ens.final_state[:, :1]
    solver_module._backward_sweep(bl.example1_generator(2.0), ref_y, ref_z,
                                  0, ens.grid.N, [None] * ens.grid.N)
    assert np.array_equal(y, ref_y) and np.array_equal(z.coeffs, ref_z.coeffs)


@pytest.mark.parametrize("gen, term, d, split, bound", [
    (bl.zero_generator(1), bl.square_norm_terminal(), 3, None, 2.1),
    (bl.example1_generator(2.0), bl.coordinate_terminal(0), 1, None, 1.7),
    (bl.example1_generator(2.0), bl.coordinate_terminal(0), 1, 0.5, 1.7),
], ids=["zero_d3", "example1", "split"])
def test_picard_solve_holds_one_iterate_pair(gen, term, d, split, bound):
    # One (y, z) pair is Y + Z bytes.  The solve holds y, z's coefficients,
    # two (M,) distance accumulators and the temporaries of one step: each
    # measured sweep folds its distance into the accumulators as it
    # overwrites the iterate, so no copy of a window is kept.  Measured: 0.90
    # pairs for zero_d3, 1.04 for example1 and 1.09 for split (1.67, 1.52
    # and 1.57 while z was held per path).  A copy of the window, as the
    # solve kept before (2.91, 2.47 and 2.05), a second full pair, or
    # full-window distance temporaries would lift the peak past the bound.
    m, n = 4096, 20
    ens = bl.generate_ensemble(M=m, N=n, d=d, T=1.0, seed=7)
    pair = m * (n + 1) * 8 + m * n * d * 8
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        bl.picard_solve(gen, term, ens, BASIS, tol=1e-6, split=split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / pair < bound


@pytest.mark.parametrize("j, p", [(2, 2.0), (5, 3.0)])
def test_in_sweep_distances_are_the_two_solution_distances(small_ensemble,
                                                           j, p):
    # the j-th measured iterate against the (j-1)-th, each the result of a
    # solve that stops there: tol is never reached
    gen, term = bl.example1_generator(2.0), bl.coordinate_terminal(0)
    prev, _ = bl.picard_solve(gen, term, small_ensemble, BASIS, p=p,
                              tol=1e-30, max_iter=j - 1)
    sol, rep = bl.picard_solve(gen, term, small_ensemble, BASIS, p=p,
                               tol=1e-30, max_iter=j)
    assert rep.iterations == j and not rep.converged
    dy, dz = bl.analysis.iterate_distance_arrays(sol.y, prev.y, sol.z, prev.z,
                                                 sol.grid.dt, p)
    last = rep.entries[-1]
    assert last.dist_y == dy > 0.0
    assert last.sp_norm == bl.analysis.sp_norm(sol.y, p)
    # the sweep sums the squares of dz backward in time, the reference forward
    assert last.dist_z == pytest.approx(dz, rel=1e-14, abs=0.0)


def test_sweep_accumulators_leave_the_iterate_bytes(small_ensemble):
    # one window of a split grid, swept with and without accumulators from
    # the same pair: the same (y, z), and the accumulators hold the distance
    # to the pair the sweep overwrote
    ens, gen, p = small_ensemble, bl.example1_generator(2.0), 2.0
    n = ens.grid.N
    i_lo, i_hi = solver_module._window_indices(ens.grid, 0.5)[-1]
    assert 0 == i_lo < i_hi < n
    swept = []
    for acc in (None, (np.zeros(ens.M), np.zeros(ens.M))):
        y, regressed = _zero_pair(ens)
        y[...] = 0.25
        y[:, i_hi] = ens.all_states()[:, i_hi, :1]
        regressed.coeffs[...] = 0.5
        old_y, old_zc = y.copy(), regressed.coeffs.copy()
        solver_module._backward_sweep(gen, y, regressed, i_lo, i_hi,
                                      [None] * n, acc)
        swept.append((y, regressed.coeffs))
    (y_ref, zc_ref), (y, zc) = swept
    assert y.tobytes() == y_ref.tobytes() and zc.tobytes() == zc_ref.tobytes()
    z, old_z = (bl.DiscreteSolution(y, RegressedZ(c, BASIS, ens),
                                    ens.grid).z for c in (zc, old_zc))
    sup_dy, sum_dz = acc
    win_y, win_z = slice(i_lo, i_hi + 1), slice(i_lo, i_hi)
    dy, dz = bl.analysis.iterate_distance_arrays(
        y[:, win_y], old_y[:, win_y], z[:, win_z], old_z[:, win_z],
        ens.grid.dt, p)
    assert bl.analysis.sup_power_mean(sup_dy, p) == dy > 0.0
    assert bl.analysis.integral_power_mean(sum_dz, ens.grid.dt, p) == \
        pytest.approx(dz, rel=1e-14, abs=0.0)


def _step_major(a):
    """Whether each time step's slice a[:, i] is contiguous."""
    return all(a[:, i].flags.c_contiguous for i in range(a.shape[1]))


def test_ensembles_and_solutions_are_stored_step_major(tmp_path):
    m, n, d = 300, 6, 2
    ens = bl.generate_ensemble(M=m, N=n, d=d, T=1.0, seed=9, antithetic=True)
    bl.save_ensemble(ens, tmp_path / "e.bsde")
    loaded = bl.load_ensemble(tmp_path / "e.bsde")
    for e in (ens, loaded):
        assert e.increments.shape == (m, n, d)
        assert e.all_states().shape == (m, n + 1, d)
        assert _step_major(e.increments) and _step_major(e.all_states())
    gen = bl.linear_generator(a=[[0.3, 0.1], [0.0, -0.2]], b=0.4,
                              c=[0.1, 0.2], k=2)
    term = bl.constant_terminal([1.0, 2.0])
    sol, _ = bl.picard_solve(gen, term, loaded, BASIS, tol=1e-8)
    assert sol.y.shape == (m, n + 1, 2) and sol.z.shape == (m, n, 2, d)
    assert _step_major(sol.y) and _step_major(sol.z)


def test_a_path_major_ensemble_gives_the_same_solution():
    # The layout is where the numbers are stored, not an option: an ensemble
    # built by hand from path-major increments solves as the step-major one
    # does.  The bits agree here; the tolerance leaves room for a BLAS that
    # sums strided operands in another order.
    ens = bl.generate_ensemble(M=1024, N=8, d=2, T=1.0, seed=103)
    hand = bl.PathEnsemble(M=ens.M, d=ens.d, grid=ens.grid, seed=ens.seed,
                           increments=np.ascontiguousarray(ens.increments))
    assert hand.increments.flags.c_contiguous
    assert not _step_major(hand.increments)
    gen = bl.linear_generator(a=[[0.3, 0.1], [0.0, -0.2]], b=0.4,
                              c=[0.1, 0.2], k=2)
    term = bl.constant_terminal([1.0, 2.0])
    sol, rep = bl.picard_solve(gen, term, ens, BASIS, tol=1e-8)
    sol_h, rep_h = bl.picard_solve(gen, term, hand, BASIS, tol=1e-8)
    assert rep_h.iterations == rep.iterations
    assert np.max(np.abs(sol_h.y - sol.y)) <= 1e-13
    assert np.max(np.abs(sol_h.z - sol.z)) <= 1e-13


@pytest.mark.parametrize("name", ["example1", "split"])
def test_each_step_factors_its_gram_matrix_once_per_solve(name):
    with mock.patch.object(np.linalg, "cholesky",
                           wraps=np.linalg.cholesky) as factor:
        sol, rep = _solve_case(name)
    assert rep.iterations + 1 >= 8
    assert factor.call_count == sol.grid.N


def _y_free_case(name):
    """A solve whose driver does not read y, and its solve arguments."""
    if name == "zero_d3":
        ens = bl.generate_ensemble(M=2048, N=10, d=3, T=1.0, seed=104)
        return bl.zero_generator(1), bl.coordinate_terminal(0), ens, {}
    if name == "zero_split_init":
        ens = bl.generate_ensemble(M=1024, N=20, d=1, T=1.0, seed=105)
        return (bl.zero_generator(1), bl.square_norm_terminal(), ens,
                {"split": 0.5, "init": 0.3})
    if name == "linear_a0":
        ens = bl.generate_ensemble(M=1024, N=20, d=1, T=1.0, seed=106)
        return (bl.linear_generator(a=0.0, b=0.5, c=0.2),
                bl.coordinate_terminal(0), ens, {})
    ens = bl.generate_ensemble(M=1024, N=8, d=2, T=1.0, seed=107)
    return (bl.linear_generator(a=[[0.0, 0.0], [0.0, 0.0]], b=0.4,
                                c=[0.1, 0.2], k=2),
            bl.constant_terminal([1.0, 2.0]), ens, {"init": [-0.5, 0.5]})


_Y_FREE = ["zero_d3", "zero_split_init", "linear_a0", "matrix_a0"]


@pytest.mark.parametrize("name", _Y_FREE)
def test_a_y_free_solve_is_the_two_sweep_solve(name, monkeypatch):
    # Forcing reads_y to True runs each window's unmeasured sweep and then
    # a measured one, as for any driver: the one-sweep solve must give the
    # same bytes and the same report, zero distances included.
    gen, term, ens, kwargs = _y_free_case(name)
    sol, rep = bl.picard_solve(gen, term, ens, BASIS, **kwargs)
    family = bl.generator.GENERATOR_FAMILIES[gen.family]
    assert family.reads_y(gen) is False
    monkeypatch.setitem(bl.generator.GENERATOR_FAMILIES, gen.family,
                        dataclasses.replace(family, reads_y=lambda gen: True))
    ref, ref_rep = bl.picard_solve(gen, term, ens, BASIS, **kwargs)
    assert sol.y.tobytes() == ref.y.tobytes()
    assert sol.z.tobytes() == ref.z.tobytes()
    assert rep.entries == ref_rep.entries
    assert rep.windows == ref_rep.windows
    assert rep.window_converged == ref_rep.window_converged
    assert [(e.dist_y, e.dist_z) for e in rep.entries] == \
        [(0.0, 0.0)] * len(rep.windows)
    assert rep.converged


@pytest.mark.parametrize("name", _Y_FREE + ["example1", "linear_a",
                                           "linear_a_split"])
def test_sweeps_per_solve(name):
    # a driver that does not read y is solved in one sweep per window; any
    # other takes an unmeasured sweep per window plus one per iteration
    if name in _Y_FREE:
        gen, term, ens, kwargs = _y_free_case(name)
    else:
        ens = bl.generate_ensemble(M=1024, N=20, d=1, T=1.0, seed=108)
        gen = (bl.example1_generator(2.0) if name == "example1"
               else bl.linear_generator(a=0.5, c=0.2))
        term = bl.coordinate_terminal(0)
        kwargs = {"split": 0.5} if name == "linear_a_split" else {}
    with mock.patch.object(solver_module, "_backward_sweep",
                           wraps=solver_module._backward_sweep) as sweep:
        _, rep = bl.picard_solve(gen, term, ens, BASIS, tol=1e-6, **kwargs)
    if name in _Y_FREE:
        assert sweep.call_count == len(rep.windows) == rep.iterations
    else:
        assert rep.iterations > len(rep.windows)
        assert sweep.call_count == rep.iterations + len(rep.windows)


# ------------------------------------------------ z held as coefficients

def test_a_zero_driver_solve_holds_no_per_path_z():
    # The solve keeps z as each step's coefficients, and a driver whose
    # lipschitz_z is 0 never has z fitted per path.  Measured: 14.2 MB
    # beyond the ensemble, against 34.2 MB while z was held per path; the
    # per-path z store alone is 19.7 MB.
    m, n, d = 16384, 50, 3
    ens = bl.generate_ensemble(M=m, N=n, d=d, T=1.0, seed=43)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sol, _ = bl.picard_solve(bl.zero_generator(1), bl.coordinate_terminal(0),
                                 ens, BASIS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < m * n * 1 * d * 8
    assert sol.z_source.coeffs.shape == (n, BASIS.size(d), d)


def test_records_holding_arrays_compare_by_identity():
    # two ensembles of one seed, and the solves on them, hold equal arrays:
    # == is identity, a bool, where comparing the arrays would raise
    a, b = (bl.generate_ensemble(M=64, N=4, d=2, T=1.0, seed=3)
            for _ in range(2))
    sol_a, sol_b = (bl.picard_solve(bl.zero_generator(1),
                                    bl.square_norm_terminal(), ens, BASIS)[0]
                    for ens in (a, b))
    for x, y in ((a, b), (sol_a.z_source, sol_b.z_source), (sol_a, sol_b)):
        assert (x == x) is True and (x == y) is False and (x != y) is True
        assert len({x, y, x}) == 2


def _z_free_drivers():
    """Every builtin spec whose exact lipschitz_z is 0."""
    return [bl.zero_generator(1), bl.zero_generator(3),
            bl.linear_generator(a=0.5, c=0.2),
            bl.linear_generator(a=0.0, b=0.0, c=-1.0),
            bl.linear_generator(a=[[0.3, 0.1], [0.0, -0.2]], c=[0.1, 0.2], k=2),
            bl.linear_generator(a=[[0.0, 0.0], [0.0, 0.0]], b=-0.0, k=2)]


@pytest.mark.parametrize("gen", _z_free_drivers(),
                         ids=["zero", "zero_k3", "linear", "linear_a0",
                              "linear_matrix", "linear_matrix_a0"])
def test_a_driver_whose_lipschitz_z_is_zero_does_not_read_z(gen):
    # the sweep gives such a driver zeros for z, so lipschitz_z == 0 must be
    # exact: the driver on any z is the driver on zeros, bit for bit
    assert bl.generator.GENERATOR_FAMILIES[gen.family].lipschitz_z(gen) == 0.0
    rng = np.random.default_rng(5)
    m, d = 1000, 2
    t, b = 0.3, rng.standard_normal((m, d))
    y = rng.standard_normal((m, gen.k))
    z = 10.0 * rng.standard_normal((m, gen.k, d))
    got = bl.generator.eval_generator_batch(gen, t, b, y, z)
    zero = bl.generator.eval_generator_batch(
        gen, t, b, y, np.broadcast_to(0.0, (m, gen.k, d)))
    assert got.tobytes() == zero.tobytes()
    assert got.tobytes() == bl.generator.eval_generator_batch(
        gen, t, b, y, np.zeros((m, gen.k, d))).tobytes()


def test_a_family_that_states_no_lipschitz_z_gets_the_fitted_z(add_driver):
    # lipschitz_z None: each step's driver reads the z the sweep fits, which
    # is the z the solution rebuilds from its coefficients
    seen = []

    def driver(t, b, y, z):
        seen.append(z.copy())
        return 0.1 * np.sin(z[:, :, 0])

    gen = add_driver("user_reads_z", driver)
    ens = bl.generate_ensemble(M=1024, N=6, d=1, T=1.0, seed=44)
    sol, rep = bl.picard_solve(gen, bl.coordinate_terminal(0), ens, BASIS,
                               tol=1e-12)
    assert rep.converged
    last = seen[-ens.grid.N:][::-1]  # the last sweep, forward in time
    assert all(z_i.tobytes() == sol.z[:, i].tobytes()
               for i, z_i in enumerate(last))
    assert np.all(np.abs(sol.z[:, :, 0, 0].mean(axis=0) - 1.0) < 0.2)


def test_a_regressed_z_writes_the_bytes_of_its_per_path_array(tmp_path):
    # 9000 paths put a group boundary of the writers and a block boundary of
    # the rebuild inside the solution
    ens = bl.generate_ensemble(M=9000, N=4, d=2, T=1.0, seed=45)
    gen = bl.linear_generator(a=[[0.3, 0.1], [0.0, -0.2]], b=0.4,
                              c=[0.1, 0.2], k=2)
    sol, _ = bl.picard_solve(gen, bl.constant_terminal([1.0, 2.0]), ens,
                             BASIS, tol=1e-8)
    per_path = bl.DiscreteSolution(y=sol.y, z_source=sol.z, grid=sol.grid)
    assert sol.z_shape == per_path.z_shape == (9000, 4, 2, 2)
    for name, writer in (("bsol", bl.save_solution), ("csv", save_solution_csv)):
        writer(sol, tmp_path / f"a.{name}")
        writer(per_path, tmp_path / f"b.{name}")
        assert (tmp_path / f"a.{name}").read_bytes() == \
            (tmp_path / f"b.{name}").read_bytes()
    back = bl.load_solution(tmp_path / "a.bsol")
    assert back.z.tobytes() == sol.z.tobytes()
    rows = slice(8000, 8500)
    for (i, _, z_i), (j, _, ref) in zip(
            sol.z_along(ens.forward_states(1, 3), rows),
            back.z_along(ens.forward_states(1, 3), rows)):
        assert i == j and z_i.tobytes() == ref.tobytes()


# ------------------------------------------------------------ feature slabs

def _whole_buffer_sweep(gen, y, z, i_lo, i_hi, factors, acc=None):
    """The sweep as it was before it streamed its paths through feature
    slabs: each step's features in one (n_basis, M) array, regressed as
    whole arrays by _factor and _project.  Kept as the bit-level reference
    of _backward_sweep, with its signature."""
    ens, basis = z.ens, z.basis
    m, k, d = ens.M, y.shape[2], ens.d
    dt = ens.grid.dt
    c_lip = bl.generator.GENERATOR_FAMILIES[gen.family].lipschitz_z
    reads_z = c_lip is None or c_lip(gen) != 0.0
    for i, b_i in ens.backward_states(i_lo, i_hi):
        feats = polynomial_features(b_i, basis.degree)
        try:
            if factors[i] is None:
                factors[i] = _factor(feats, basis.ridge_for(m))
            cont, _ = _project(feats, factors[i], y[:, i + 1])
            z_targets = ((y[:, i + 1] - cont)[:, :, None]
                         * ens.increments[:, i, None, :]) / dt
            z_fit, coeffs = _project(feats, factors[i],
                                     z_targets.reshape(m, k * d))
        except FloatingPointError as exc:
            raise PicardDivergenceError(f"{exc} at time index {i}") from exc
        z_i = z_fit.reshape(m, k, d)
        with np.errstate(over="ignore", invalid="ignore"):
            g = bl.generator.eval_generator_batch(
                gen, ens.grid.times[i], b_i, y[:, i],
                z_i if reads_z else np.broadcast_to(0.0, (m, k, d)))
            y_i = cont + g * dt
            if not np.all(np.isfinite(y_i)):
                raise PicardDivergenceError(
                    f"non-finite solution values at time index {i}")
            if acc is not None:
                bl.analysis.fold_sup(acc[0], y_i - y[:, i])
                old_z = _fitted(z.coeffs[i], feats).reshape(m, k, d)
                bl.analysis.fold_squares(acc[1], z_i - old_z)
        y[:, i] = y_i
        z.coeffs[i] = coeffs


# two whole row blocks and a ragged third: one slab at d = 1 and degree <= 3,
# two at degree 5, three at d >= 2 and degree >= 3
_SLAB_M = 2 * solver_module._ROW_BLOCK + 777


@functools.cache
def _slab_ensemble(d):
    return bl.generate_ensemble(M=_SLAB_M, N=4, d=d, T=1.0, seed=110 + d)


_SLAB_DRIVERS = {"example1": bl.example1_generator(2.0),
                 "linear_b": bl.linear_generator(a=0.5, b=0.4, c=0.2),
                 "zero": bl.zero_generator(1)}


def _against_the_whole_buffer_sweep(monkeypatch, *args, **kwargs):
    """picard_solve(*args, **kwargs) and the same solve by
    _whole_buffer_sweep."""
    got = bl.picard_solve(*args, **kwargs)
    monkeypatch.setattr(solver_module, "_backward_sweep", _whole_buffer_sweep)
    return got, bl.picard_solve(*args, **kwargs)


def _same_solve(got, ref):
    (sol, rep), (ref_sol, ref_rep) = got, ref
    assert sol.y.tobytes() == ref_sol.y.tobytes()
    assert sol.z_source.coeffs.tobytes() == ref_sol.z_source.coeffs.tobytes()
    assert rep.entries == ref_rep.entries
    assert rep.window_converged == ref_rep.window_converged


@pytest.mark.parametrize("driver", list(_SLAB_DRIVERS))
@pytest.mark.parametrize("degree", [0, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_slab_streamed_solve_is_the_whole_buffer_solve(d, degree, driver,
                                                         monkeypatch,
                                                         one_blas_thread):
    ens = _slab_ensemble(d)
    got, ref = _against_the_whole_buffer_sweep(
        monkeypatch, _SLAB_DRIVERS[driver], bl.coordinate_terminal(0), ens,
        bl.BasisSpec(degree), tol=1e-8, max_iter=3)
    _same_solve(got, ref)
    assert got[1].iterations == (1 if driver == "zero" else 3)


def test_a_slab_streamed_split_solve_is_the_whole_buffer_solve(
        monkeypatch, one_blas_thread):
    got, ref = _against_the_whole_buffer_sweep(
        monkeypatch, _SLAB_DRIVERS["linear_b"], bl.square_norm_terminal(),
        _slab_ensemble(2), BASIS, tol=1e-8, max_iter=3, split=0.5)
    _same_solve(got, ref)
    assert len(got[1].windows) == 2


@pytest.mark.parametrize("d, degree, slabs", [
    (1, 0, 1), (1, 3, 1), (1, 5, 2), (2, 3, 3), (3, 3, 3), (3, 5, 3)])
def test_a_slab_is_whole_row_blocks_within_its_budget(d, degree, slabs):
    basis = bl.BasisSpec(degree)
    n_basis = basis.size(d)
    slab = solver_module._FeatureSlab(basis, d, _SLAB_M)
    assert -(-_SLAB_M // slab.width) == slabs
    if slab.width < _SLAB_M:
        assert slab.width % solver_module._ROW_BLOCK == 0
    assert (8 * n_basis * slab.width <= solver_module._SLAB_BYTES
            or slab.width == solver_module._ROW_BLOCK)
    # each feature row starts on a 64-byte cache line
    assert slab._buf.ctypes.data % 64 == 0 and slab._buf.strides[0] % 64 == 0


@pytest.mark.parametrize("case, builds_per_step", [
    ("example1_d1", 1), ("zero_d3", 2 * 3), ("linear_b_d3", 3 * 3)])
def test_features_are_built_once_per_slab_and_pass(case, builds_per_step,
                                                   monkeypatch):
    # One slab (example1's 4 features of 16384 paths are 512 KiB) is built
    # once per step of a sweep, as the one (n_basis, M) buffer was.  Three
    # slabs are built in each pass: two, and a third for the z fits.
    driver, d = case.rsplit("_", 1)
    ens = (bl.generate_ensemble(M=16384, N=6, d=1, T=1.0, seed=112)
           if case == "example1_d1" else _slab_ensemble(int(d[1:])))
    calls = []
    features = solver_module.polynomial_features

    def counting(*args, **kwargs):
        calls.append(None)
        return features(*args, **kwargs)

    monkeypatch.setattr(solver_module, "polynomial_features", counting)
    with mock.patch.object(solver_module, "_backward_sweep",
                           wraps=solver_module._backward_sweep) as sweep:
        _, rep = bl.picard_solve(_SLAB_DRIVERS[driver],
                                 bl.coordinate_terminal(0), ens, BASIS,
                                 tol=1e-8, max_iter=3)
    assert sweep.call_count == (1 if driver == "zero" else 4)
    assert len(calls) == builds_per_step * ens.grid.N * sweep.call_count


def test_a_sweep_holds_one_slab_of_features():
    # A d = 3, degree-3 sweep over five slabs against a degree-0 sweep of the
    # same ensemble, whose every other buffer is the same size: the features
    # add at most one slab of 20 x 8192 to the peak.  Measured 1.06 MB; the
    # (20, M) array the sweep held before is 5.4 MB, and added 5.1 MB.
    m, n = 4 * solver_module._ROW_BLOCK + 777, 4
    ens = bl.generate_ensemble(M=m, N=n, d=3, T=1.0, seed=113)
    peaks = []
    for degree in (0, 3):
        y, z = _zero_pair(ens, bl.BasisSpec(degree))
        y[:, -1] = ens.final_state[:, :1]
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            solver_module._backward_sweep(bl.zero_generator(1), y, z, 0, n,
                                          [None] * n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - start)
    n_basis = BASIS.size(3)
    assert peaks[1] - peaks[0] < 8 * n_basis * (solver_module._ROW_BLOCK + 8)
