import dataclasses
import hashlib
import math
import re
import struct
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
                             SingularRegressionError, _gram_factor, _project,
                             polynomial_features, terminal_values)


BASIS = bl.BasisSpec(degree=3)


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


def test_regress_constant_targets():
    rng = np.random.default_rng(0)
    state = rng.normal(size=(500, 1))
    targets = np.full((500, 1), 3.25)
    feats = polynomial_features(state, BASIS.degree)
    fitted, _ = _project(feats, _gram_factor(feats, BASIS.ridge_for(500)),
                         targets)
    assert np.allclose(fitted, 3.25, atol=1e-9)


def test_regress_exact_linear_representation():
    rng = np.random.default_rng(1)
    state = rng.normal(size=(400, 1))
    targets = 3.0 * state
    feats = polynomial_features(state, 2)
    fitted, coeffs = _project(feats, _gram_factor(feats, 0.0), targets)
    assert np.allclose(fitted, targets, atol=1e-10)
    assert coeffs[1, 0] == pytest.approx(3.0, abs=1e-10)


def test_regress_martingale_projection():
    ens = bl.generate_ensemble(M=2 ** 14, N=2, d=1, T=1.0, seed=21)
    t_idx = 1
    state = ens.all_states()[:, t_idx]
    targets = ens.final_state
    feats = polynomial_features(state, BASIS.degree)
    fitted, _ = _project(feats, _gram_factor(feats, BASIS.ridge_for(ens.M)),
                         targets)
    sd = math.sqrt(1.0 - ens.grid.times[t_idx])
    rms = float(np.sqrt(np.mean((fitted - state) ** 2)))
    assert rms <= 3.0 * sd / math.sqrt(ens.M) * math.sqrt(BASIS.size(1)) \
        or rms <= 3.0 * sd * ens.M ** -0.5 * 2.0


def test_regress_singular_without_ridge():
    state = np.zeros((100, 1))  # rank-deficient features beyond the constant
    with pytest.raises(SingularRegressionError, match="ridge"):
        _gram_factor(polynomial_features(state, 2), 0.0)


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
    refit, _ = _project(feats, _gram_factor(
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
    sol = bl.DiscreteSolution(y=y, z=z, grid=bl.TimeGrid(T=0.3, N=1))
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
    sol = bl.DiscreteSolution(y=y, z=z, grid=bl.TimeGrid(T=horizon, N=n))
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
def test_ensemble_and_solution_bytes_are_pinned(tmp_path, antithetic,
                                                ensemble_sha, solution_sha):
    ens = bl.generate_ensemble(301, 6, 3, 1.5, seed=11, antithetic=antithetic)
    bl.save_ensemble(ens, tmp_path / "paths.bsde")
    b = ens.all_states()
    sol = bl.DiscreteSolution(
        y=b[:, :, :2], z=b[:, :-1, :2, None] * ens.increments[:, :, None, :],
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
                               z=layout(rng.standard_normal((m, n, k, d))),
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


def test_solution_file_bytes_are_pinned(tmp_path):
    # the solution of test_ensemble_and_solution_bytes_are_pinned (not
    # antithetic); the hash is that of the header and the records built
    # directly with struct and numpy
    ens = bl.generate_ensemble(301, 6, 3, 1.5, seed=11)
    b = ens.all_states()
    sol = bl.DiscreteSolution(
        y=b[:, :, :2], z=b[:, :-1, :2, None] * ens.increments[:, :, None, :],
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
    step_major = bl.DiscreteSolution(y=b, z=z, grid=ens.grid)
    hand = bl.DiscreteSolution(y=layout(b), z=layout(z), grid=ens.grid)
    bl.save_solution(step_major, tmp_path / "a.bsol")
    bl.save_solution(hand, tmp_path / "b.bsol")
    assert (tmp_path / "a.bsol").read_bytes() == (tmp_path / "b.bsol").read_bytes()


def test_solution_file_io_holds_no_second_copy(tmp_path):
    # A whole path-major copy of (y, z) would add one payload to either peak.
    m, n = 16384, 50
    sol = _random_solution(m, n, 1, 1, seed=3)
    step_major = bl.DiscreteSolution(
        y=np.ascontiguousarray(sol.y.transpose(1, 0, 2)).transpose(1, 0, 2),
        z=np.ascontiguousarray(sol.z.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
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


def _zero_pair(ens):
    """A zero scalar (y, z) on ens, stored step-major as the solver's."""
    sol = bl.DiscreteSolution.zeros(ens.M, 1, ens.d, ens.grid)
    return sol.y, sol.z


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
        solver_module._backward_sweep(gen, y, z, small_ensemble, BASIS, 0, n,
                                      [None] * n)
    assert np.array_equal(sol.y, y) and np.array_equal(sol.z, z)


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
def test_picard_solve_bytes_are_pinned(name, iterations, sha):
    sol, rep = _solve_case(name)
    assert rep.iterations == iterations
    digest = hashlib.sha256(sol.y.tobytes())
    digest.update(sol.z.tobytes())
    assert digest.hexdigest() == sha


def test_backward_sweep_overwrites_the_iterate_and_returns_nothing(
        small_ensemble):
    ens = small_ensemble
    y = np.full((ens.M, ens.grid.N + 1, 1), 0.25)
    y[:, -1] = ens.final_state[:, :1]
    z = np.zeros((ens.M, ens.grid.N, 1, 1))
    assert solver_module._backward_sweep(
        bl.example1_generator(2.0), y, z, ens, BASIS, 0, ens.grid.N,
        [None] * ens.grid.N) is None
    # against a sweep on a fresh pair, stored step-major as the solver's
    ref_y, ref_z = _zero_pair(ens)
    ref_y[...] = 0.25
    ref_y[:, -1] = ens.final_state[:, :1]
    solver_module._backward_sweep(bl.example1_generator(2.0), ref_y, ref_z,
                                  ens, BASIS, 0, ens.grid.N, [None] * ens.grid.N)
    assert np.array_equal(y, ref_y) and np.array_equal(z, ref_z)


@pytest.mark.parametrize("gen, term, d, split, bound", [
    (bl.zero_generator(1), bl.square_norm_terminal(), 3, None, 2.1),
    (bl.example1_generator(2.0), bl.coordinate_terminal(0), 1, None, 1.7),
    (bl.example1_generator(2.0), bl.coordinate_terminal(0), 1, 0.5, 1.7),
], ids=["zero_d3", "example1", "split"])
def test_picard_solve_holds_one_iterate_pair(gen, term, d, split, bound):
    # One (y, z) pair is Y + Z bytes.  The solve holds it, two (M,)
    # distance accumulators and the temporaries of one step: each measured
    # sweep folds its distance into the accumulators as it overwrites the
    # iterate, so no copy of a window is kept.  Measured: 1.67 pairs for
    # zero_d3 and 1.52 for example1 and split.  A copy of the window, as the
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
        y, z = _zero_pair(ens)
        y[...] = 0.25
        y[:, i_hi] = ens.all_states()[:, i_hi, :1]
        z[...] = 0.5
        old_y, old_z = y.copy(), z.copy()
        solver_module._backward_sweep(gen, y, z, ens, BASIS, i_lo, i_hi,
                                      [None] * n, acc)
        swept.append((y, z))
    (y_ref, z_ref), (y, z) = swept
    assert y.tobytes() == y_ref.tobytes() and z.tobytes() == z_ref.tobytes()
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
