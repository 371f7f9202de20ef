import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsde_lab as bl
import bsde_lab.solver as solver_module
from bsde_lab.solver import (TERMINAL_KINDS, PicardDivergenceError,
                             SingularRegressionError, format_number,
                             polynomial_features, save_picard_report_csv,
                             save_solution_csv, terminal_values, write_csv)


BASIS = bl.BasisSpec(degree=3)


# ----------------------------------------------------------------- terminals

def test_terminal_kinds(small_ensemble, monkeypatch):
    ens = small_ensemble
    xi = terminal_values(bl.coordinate_terminal(0), ens)
    assert np.array_equal(xi, ens.values[:, -1, [0]])
    xi = terminal_values(bl.square_norm_terminal(), ens)
    assert np.allclose(xi[:, 0], ens.values[:, -1, 0] ** 2)
    xi = terminal_values(bl.constant_terminal([1.0, 2.0]), ens)
    assert xi.shape == (ens.M, 2)
    assert np.all(xi == [1.0, 2.0])
    # a user-defined kind is one more record
    monkeypatch.setitem(TERMINAL_KINDS, "sin_bt", bl.TerminalKind(
        lambda: bl.TerminalSpec("sin_bt"), lambda term, b_T: np.sin(b_T[:, [0]])))
    xi = terminal_values(bl.TerminalSpec("sin_bt"), ens)
    assert np.allclose(xi[:, 0], np.sin(ens.values[:, -1, 0]))


def test_terminal_of_the_wrong_shape_is_rejected(small_ensemble, monkeypatch):
    monkeypatch.setitem(TERMINAL_KINDS, "flat", bl.TerminalKind(
        lambda: bl.TerminalSpec("flat"), lambda term, b_T: b_T[:, 0]))
    with pytest.raises(ValueError, match="terminal kind 'flat' returned wrong shape"):
        terminal_values(bl.TerminalSpec("flat"), small_ensemble)


def test_terminal_coordinate_out_of_range(small_ensemble):
    for j in (3, 1, -1):
        with pytest.raises(bl.paths.DimensionError, match=f"j = {j} is out of range"):
            terminal_values(bl.coordinate_terminal(j), small_ensemble)


# ---------------------------------------------------------------- regression

def test_basis_size():
    assert bl.BasisSpec(degree=3).size(1) == 4
    assert bl.BasisSpec(degree=3).size(2) == 10
    assert polynomial_features(np.zeros((5, 2)), 3).shape == (5, 10)


def _power_table_features(state, degree):
    """The feature builder before the product plan: per-coordinate power
    tables multiplied into each column, kept as the bit-level reference."""
    m, d = state.shape
    exps = solver_module._monomial_exponents(d, degree)
    feats = np.empty((m, len(exps)))
    powers = [np.vander(state[:, i], degree + 1, increasing=True)
              for i in range(d)]
    for col, e in enumerate(exps):
        f = np.ones(m)
        for i, ei in enumerate(e):
            if ei:
                f = f * powers[i][:, ei]
        feats[:, col] = f
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
    fitted, _ = bl.regress_conditional_expectation(targets, state, BASIS)
    assert np.allclose(fitted, 3.25, atol=1e-9)


def test_regress_exact_linear_representation():
    rng = np.random.default_rng(1)
    state = rng.normal(size=(400, 1))
    targets = 3.0 * state
    fitted, coeffs = bl.regress_conditional_expectation(
        targets, state, bl.BasisSpec(degree=2, ridge=0.0))
    assert np.allclose(fitted, targets, atol=1e-10)
    assert coeffs[1, 0] == pytest.approx(3.0, abs=1e-10)


def test_regress_martingale_projection():
    ens = bl.generate_ensemble(M=2 ** 14, N=2, d=1, T=1.0, seed=21)
    t_idx = 1
    state = ens.values[:, t_idx, :]
    targets = ens.values[:, -1, :]
    fitted, _ = bl.regress_conditional_expectation(targets, state, BASIS)
    sd = math.sqrt(1.0 - ens.grid.times[t_idx])
    rms = float(np.sqrt(np.mean((fitted - state) ** 2)))
    assert rms <= 3.0 * sd / math.sqrt(ens.M) * math.sqrt(BASIS.size(1)) \
        or rms <= 3.0 * sd * ens.M ** -0.5 * 2.0


def test_regress_singular_without_ridge():
    state = np.zeros((100, 1))  # rank-deficient features beyond the constant
    targets = np.ones((100, 1))
    with pytest.raises(SingularRegressionError, match="ridge"):
        bl.regress_conditional_expectation(targets, state,
                                           bl.BasisSpec(degree=2, ridge=0.0))


def test_regress_reads_2d_inputs_as_samples_by_columns():
    # one sample of a 3-D state is one row, not three 1-D samples (which a
    # degree-1 basis in d = 1 would fit)
    with pytest.raises(ValueError, match="share the sample axis"):
        bl.regress_conditional_expectation(np.ones((3, 1)), [[0.1, 0.2, 0.3]],
                                           bl.BasisSpec(degree=1))
    state = np.random.default_rng(2).normal(size=(50, 1))
    fitted, coeffs = bl.regress_conditional_expectation(state ** 2, state, BASIS)
    flat = bl.regress_conditional_expectation(state[:, 0] ** 2, state[:, 0],
                                              BASIS)
    assert np.array_equal(fitted, flat[0]) and np.array_equal(coeffs, flat[1])


def test_regress_needs_more_samples_than_basis():
    with pytest.raises(ValueError):
        bl.regress_conditional_expectation(np.ones((3, 1)), np.ones((3, 1)),
                                           BASIS)


@pytest.mark.parametrize("solve", [
    lambda gen, term, ens: bl.picard_solve(gen, term, ens, BASIS),
    lambda gen, term, ens: bl.solve_frozen_bsde(gen, None, term, ens, BASIS),
], ids=["picard_solve", "solve_frozen_bsde"])
def test_solves_need_more_paths_than_basis_functions(solve):
    # M = 4 paths against the 4 cubic monomials in d = 1 would interpolate
    ens = bl.generate_ensemble(M=4, N=3, d=1, T=1.0, seed=5)
    with pytest.raises(ValueError, match="M = 4 paths must exceed the 4 basis"):
        solve(bl.zero_generator(1, 1), bl.coordinate_terminal(0), ens)


# ------------------------------------------------------------- frozen sweeps

def test_zero_generator_constant_terminal_is_exact(small_ensemble):
    gen = bl.zero_generator(1, 1)
    sol = bl.solve_frozen_bsde(gen, None, bl.constant_terminal(2.5),
                               small_ensemble, BASIS)
    # the default ridge shrinks the fitted constant by ~1e-10 relative,
    # so "exact" means zero up to that regularization noise
    assert np.allclose(sol.y, 2.5, atol=1e-8)
    assert np.allclose(sol.z, 0.0, atol=1e-7)


def test_zero_generator_coordinate_terminal_tracks_martingale():
    ens = bl.generate_ensemble(M=2 ** 13, N=25, d=1, T=1.0, seed=31)
    gen = bl.zero_generator(1, 1)
    sol = bl.solve_frozen_bsde(gen, None, bl.coordinate_terminal(0), ens, BASIS)
    err = np.sqrt(np.mean((sol.y[:, :, 0] - ens.values[:, :, 0]) ** 2))
    assert err <= 0.05
    assert abs(np.mean(sol.z) - 1.0) <= 0.05


def test_drift_only_generator_matches_ode(small_ensemble):
    gen = bl.linear_generator(a=0.0, b=0.0, c=0.2, k=1, d=1)
    sol = bl.solve_frozen_bsde(gen, None, bl.constant_terminal(0.0),
                               small_ensemble, BASIS)
    times = small_ensemble.grid.times
    expected = 0.2 * (1.0 - times)
    assert np.allclose(sol.y[:, :, 0], expected[None, :], atol=1e-8)
    assert np.allclose(sol.z, 0.0, atol=1e-8)


def test_terminal_pinning_is_exact(small_ensemble):
    gen = bl.example1_generator(p=2.0, d=1)
    xi = terminal_values(bl.coordinate_terminal(0), small_ensemble)
    sol = bl.solve_frozen_bsde(gen, None, bl.coordinate_terminal(0),
                               small_ensemble, BASIS)
    assert np.array_equal(sol.y[:, -1, :], xi)


def test_martingale_consistency_for_zero_generator(small_ensemble):
    """With g = 0 the fitted y at step i is exactly the projection of y at
    step i+1, so re-regressing reproduces it to numerical zero."""
    gen = bl.zero_generator(1, 1)
    sol = bl.solve_frozen_bsde(gen, None, bl.square_norm_terminal(),
                               small_ensemble, BASIS)
    i = small_ensemble.grid.N // 2
    refit, _ = bl.regress_conditional_expectation(
        sol.y[:, i + 1, :], small_ensemble.values[:, i, :], BASIS)
    assert np.allclose(refit, sol.y[:, i, :], atol=1e-10)


# ---------------------------------------------------------------- fixed point

def test_picard_zero_generator_converges_at_one(small_ensemble):
    gen = bl.zero_generator(1, 1)
    sol, rep = bl.picard_solve(gen, bl.constant_terminal(1.0), small_ensemble,
                               BASIS, p=2.0)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.dist_y[0] == 0.0


def test_picard_linear_generator_hits_exponential():
    ens = bl.generate_ensemble(M=4096, N=50, d=1, T=1.0, seed=41)
    gen = bl.linear_generator(a=0.5, b=0.0, c=0.0, k=1, d=1)
    sol, rep = bl.picard_solve(gen, bl.constant_terminal(1.0), ens, BASIS,
                               p=2.0, tol=1e-6)
    assert rep.converged
    y0 = float(np.mean(sol.y[:, 0, 0]))
    assert y0 == pytest.approx(math.exp(0.5), rel=5e-3)


def test_picard_max_iter_exhaustion_returns_best(small_ensemble):
    gen = bl.linear_generator(a=3.0, b=0.0, c=0.0, k=1, d=1)
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
        bl.solve_frozen_bsde(gen, None, bl.constant_terminal(1.0), ens, BASIS)


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
    gen = bl.example1_generator(p=2.0, d=1)
    term = bl.coordinate_terminal(0)
    sol_a, _ = bl.picard_solve(gen, term, small_ensemble, BASIS, p=2.0,
                               tol=1e-8, max_iter=25)
    sol_b, _ = bl.picard_solve(gen, term, small_ensemble, BASIS, p=2.0,
                               tol=1e-8, max_iter=25, init=1.0)
    dist = bl.picard_distance(sol_a, sol_b, 2.0)
    assert dist.dy <= 1e-6


def test_picard_report_lengths(small_ensemble):
    gen = bl.example1_generator(p=2.0, d=1)
    _, rep = bl.picard_solve(gen, bl.coordinate_terminal(0), small_ensemble,
                             BASIS, p=2.0, tol=1e-12, max_iter=4)
    assert rep.iterations == 4
    assert len(rep.dist_y) == len(rep.dist_z) == len(rep.sp_norms) == 4


def test_picard_determinism(small_ensemble):
    gen = bl.example1_generator(p=2.0, d=1)
    term = bl.coordinate_terminal(0)
    a, rep_a = bl.picard_solve(gen, term, small_ensemble, BASIS, p=2.0)
    b, rep_b = bl.picard_solve(gen, term, small_ensemble, BASIS, p=2.0)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.z, b.z)
    assert rep_a.dist_y == rep_b.dist_y


def test_picard_split_windows_match_unsplit():
    ens = bl.generate_ensemble(M=4096, N=50, d=1, T=1.0, seed=43)
    gen = bl.linear_generator(a=0.5, b=0.0, c=0.2, k=1, d=1)
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
    gen = bl.zero_generator(1, 1)
    term = bl.constant_terminal(1.0)
    with pytest.raises(ValueError):
        bl.picard_solve(gen, term, small_ensemble, BASIS, tol=0.0)
    with pytest.raises(ValueError):
        bl.picard_solve(gen, term, small_ensemble, BASIS, max_iter=0)


def test_stability_warning_for_coarse_grid():
    ens = bl.generate_ensemble(M=256, N=2, d=1, T=2.0, seed=3)
    gen = bl.linear_generator(a=0.0, b=1.0, c=0.0, k=1, d=1)  # C = 1, dt = 1
    with pytest.warns(RuntimeWarning, match="unstable"):
        bl.picard_solve(gen, bl.constant_terminal(1.0), ens, BASIS)


# -------------------------------------------------------------------- exports

def test_solution_csv_layout(tmp_path, small_ensemble):
    gen = bl.zero_generator(1, 1)
    sol = bl.solve_frozen_bsde(gen, None, bl.constant_terminal(1.0),
                               small_ensemble, BASIS)
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
    with mock.patch.object(solver_module, "_SOLUTION_CHUNK_ROWS", chunk_rows):
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
    sol = bl.DiscreteSolution(
        y=ens.values[:, :, :2],
        z=ens.values[:, :-1, :2, None] * ens.increments[:, :, None, :],
        grid=ens.grid)
    save_solution_csv(sol, tmp_path / "solution.csv")
    digest = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("paths.bsde", "solution.csv")]
    assert digest == [ensemble_sha, solution_sha]


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
    gen = bl.zero_generator(1, 1)
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


def test_picard_solve_is_the_frozen_iteration(small_ensemble):
    # one window: the returned pair is the third sweep, each sweep frozen at
    # the y of the one before, the first at the constant init
    gen = bl.example1_generator(2.0)
    term = bl.coordinate_terminal(0)
    sol, rep = bl.picard_solve(gen, term, small_ensemble, BASIS, tol=1e-30,
                               max_iter=2, init=0.25)
    assert rep.iterations == 2 and not rep.converged
    prev = np.full((small_ensemble.M, small_ensemble.grid.N + 1, 1), 0.25)
    for _ in range(3):
        ref = bl.solve_frozen_bsde(gen, prev, term, small_ensemble, BASIS)
        prev = ref.y
    assert np.array_equal(sol.y, ref.y) and np.array_equal(sol.z, ref.z)


# sha256 of picard_solve's y and z bytes.  Re-recorded when the ridge systems
# moved from scipy's cho_factor/cho_solve to np.linalg.cholesky and two
# np.linalg.solve calls: the order of the solve's operations changed, so y and
# z moved by at most 6.1e-14 (degree0, one basis function, kept its bytes).
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
        return bl.picard_solve(bl.zero_generator(1, 3),
                               bl.square_norm_terminal(), ens, BASIS)
    ens = bl.generate_ensemble(M=1024, N=8, d=2, T=1.0, seed=103)
    gen = bl.linear_generator(a=[[0.3, 0.1], [0.0, -0.2]], b=0.4,
                              c=[0.1, 0.2], k=2, d=2)
    return bl.picard_solve(gen, bl.constant_terminal([1.0, 2.0]), ens,
                           bl.BasisSpec(int(name[-1])), tol=1e-8)


@pytest.mark.parametrize("name, iterations, sha", [
    ("example1", 7,
     "c693b282c69507e3dc4cb3bc6b5f1d501346a27b2af0a81399c1786dd23bc5a5"),
    ("zero_d3", 1,
     "3473ccb3d6ca1c6632f9ca8ab33d5e06e7ec5e3bf76130090afb4efeeb3ac9b9"),
    ("split", 9,
     "2d170cc44178ddc7db676facb50c192c32a75dbf0640850ab77bd74f0ceb0f5e"),
    ("degree0", 5,
     "6f73042fcf5c93e8054fdeb6af768aa92ccca3b6346a5fac513e01b6e91b757d"),
    ("degree5", 5,
     "15655e1395054b6c3c79c10eba20351a8cad4b45465c875b7121fa1f2ad18331"),
])
def test_picard_solve_bytes_are_pinned(name, iterations, sha):
    sol, rep = _solve_case(name)
    assert rep.iterations == iterations
    digest = hashlib.sha256(sol.y.tobytes())
    digest.update(sol.z.tobytes())
    assert digest.hexdigest() == sha


def test_solve_frozen_bsde_leaves_the_frozen_field_unchanged(small_ensemble):
    frozen = np.full((small_ensemble.M, small_ensemble.grid.N + 1, 1), 0.25)
    bl.solve_frozen_bsde(bl.example1_generator(2.0), frozen,
                         bl.coordinate_terminal(0), small_ensemble, BASIS)
    assert np.all(frozen == 0.25)


def test_backward_sweep_overwrites_the_iterate_and_returns_nothing(
        small_ensemble):
    ens = small_ensemble
    y = np.full((ens.M, ens.grid.N + 1, 1), 0.25)
    y[:, -1] = ens.values[:, -1, :1]
    z = np.zeros((ens.M, ens.grid.N, 1, 1))
    assert solver_module._backward_sweep(
        bl.example1_generator(2.0), y, z, ens, BASIS, 0, ens.grid.N,
        [None] * ens.grid.N) is None
    ref = bl.solve_frozen_bsde(bl.example1_generator(2.0),
                               np.full_like(y, 0.25), bl.coordinate_terminal(0),
                               ens, BASIS)
    assert np.array_equal(y, ref.y) and np.array_equal(z, ref.z)


@pytest.mark.parametrize("gen, term, d, bound", [
    (bl.zero_generator(1, 3), bl.square_norm_terminal(), 3, 3.5),
    (bl.example1_generator(2.0), bl.coordinate_terminal(0), 1, 4.5),
], ids=["zero_d3", "example1"])
def test_picard_solve_holds_one_iterate_pair(gen, term, d, bound):
    # One (y, z) pair is Y + Z bytes.  The solve holds it, the window copy its
    # distance needs (another pair) and the temporaries of one step and of
    # the distance; a second full pair, as a sweep returning a fresh iterate
    # keeps, would lift the peak by one more.
    m, n = 4096, 20
    ens = bl.generate_ensemble(M=m, N=n, d=d, T=1.0, seed=7)
    pair = m * (n + 1) * 8 + m * n * d * 8
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        bl.picard_solve(gen, term, ens, BASIS, tol=1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / pair < bound


@pytest.mark.parametrize("name", ["example1", "split"])
def test_each_step_factors_its_gram_matrix_once_per_solve(name):
    with mock.patch.object(np.linalg, "cholesky",
                           wraps=np.linalg.cholesky) as factor:
        sol, rep = _solve_case(name)
    assert rep.iterations + 1 >= 8
    assert factor.call_count == sol.grid.N
