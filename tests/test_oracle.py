import math
import tracemalloc

import numpy as np
import pytest

import bsde_lab as bl
from bsde_lab.oracle import match_oracle, oracle_paths


def _one_path(values, horizon=1.0):
    """A one-path ensemble in d = 1 whose Brownian values on the grid of
    len(values) - 1 steps are values, values[0] = 0."""
    values = np.asarray(values, dtype=float).reshape(1, -1, 1)
    return bl.PathEnsemble(M=1, d=1, grid=bl.TimeGrid(T=horizon,
                                                      N=values.shape[1] - 1),
                           seed=0, increments=np.diff(values, axis=1),
                           values=values)


def test_martingale_coordinate_terminal_pinning():
    form = match_oracle(bl.zero_generator(), bl.coordinate_terminal(0))
    y, z = oracle_paths(form, _one_path([0.0, 0.7]))
    assert y[0, 1, 0] == 0.7
    assert np.array_equal(z[0, 0], [[1.0]])


def test_martingale_square_at_origin():
    form = match_oracle(bl.zero_generator(), bl.square_norm_terminal())
    y, z = oracle_paths(form, _one_path([0.0, 0.3]))
    assert y[0, 0, 0] == 1.0
    assert z[0, 0, 0, 0] == 0.0


def test_linear_drift_value():
    form = match_oracle(bl.linear_generator(a=0.5, c=0.0),
                        bl.constant_terminal(1.0))
    y, z = oracle_paths(form, _one_path([0.0, 0.3]))
    assert y[0, 0, 0] == pytest.approx(math.exp(0.5), rel=1e-14)
    assert np.all(z == 0.0)


def test_linear_drift_zero_a_limit():
    form = match_oracle(bl.linear_generator(a=0.0, c=0.3),
                        bl.constant_terminal(1.0))
    y, _ = oracle_paths(form, _one_path([0.0, 0.1, 0.2, 0.3, 0.4], horizon=2.0))
    assert y[0, 1, 0] == pytest.approx(1.0 + 0.3 * 1.5, rel=1e-14)  # t = 0.5


@pytest.mark.parametrize("name,params", [
    ("martingale_coordinate",
     {"gen": bl.zero_generator(), "term": bl.coordinate_terminal(0)}),
    ("martingale_square",
     {"gen": bl.zero_generator(), "term": bl.square_norm_terminal()}),
    ("linear_drift", {"gen": bl.linear_generator(a=0.5, c=0.2),
                      "term": bl.constant_terminal(1.0)}),
])
def test_discrete_residual_has_small_conditional_mean(name, params,
                                                      small_ensemble):
    """The one-step equation y_i = y_{i+1} + g dt - z_i dB_i should hold with
    a residual whose mean is O(dt^2) per step."""
    ens = small_ensemble
    gen = params["gen"]
    y, z = oracle_paths(match_oracle(gen, params["term"]), ens)
    dt = ens.grid.dt
    g = gen.a * y[:, :-1, 0] + gen.c  # the zero driver has a = c = 0
    resid = (y[:, 1:, 0] - y[:, :-1, 0] + g * dt
             - np.sum(z[:, :, 0, :] * ens.increments, axis=2))
    mean_abs = np.abs(resid.mean(axis=0))
    se = resid.std(axis=0) / math.sqrt(ens.M) + dt ** 2
    assert np.all(mean_abs <= 5.0 * se + 5.0 * dt ** 2), name


def test_compare_identical_is_zero(small_ensemble):
    form = match_oracle(bl.zero_generator(), bl.square_norm_terminal())
    y, z = oracle_paths(form, small_ensemble)
    sol = bl.DiscreteSolution(y=y, z=z, grid=small_ensemble.grid)
    errs = bl.compare_to_oracle(sol, form, small_ensemble, p=2.0)
    assert errs.sp_error == 0.0
    assert errs.z_rms_error == 0.0


def test_compare_constant_shift(small_ensemble):
    form = match_oracle(bl.zero_generator(), bl.coordinate_terminal(0))
    y, z = oracle_paths(form, small_ensemble)
    sol = bl.DiscreteSolution(y=y + 0.25, z=z, grid=small_ensemble.grid)
    errs = bl.compare_to_oracle(sol, form, small_ensemble, p=2.0)
    assert errs.sp_error == pytest.approx(0.25, rel=1e-12)
    assert errs.z_rms_error == 0.0


def test_compare_holds_one_time_step_of_the_oracle():
    # The oracle is evaluated step by step: beside per-step temporaries the
    # comparison holds only the (M, N) z squares, 1/(1 + 1/d) of z for k = 1.
    # A full-size oracle (y, z) and z difference would take about twice y + z.
    ens = bl.generate_ensemble(M=4096, N=20, d=3, T=1.0, seed=5)
    form = match_oracle(bl.zero_generator(1, 3), bl.coordinate_terminal(0))
    y, z = oracle_paths(form, ens)
    sol = bl.DiscreteSolution(y=y + 0.25, z=z + 0.5, grid=ens.grid)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        errs = bl.compare_to_oracle(sol, form, ens, p=2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / (sol.y.nbytes + sol.z.nbytes) < 0.6
    assert errs.sp_error == pytest.approx(0.25, rel=1e-12)
    assert errs.z_rms_error == pytest.approx(math.sqrt(3 * 0.25), rel=1e-12)


def test_compare_shape_mismatch(small_ensemble):
    form = match_oracle(bl.zero_generator(), bl.coordinate_terminal(0))
    y, z = oracle_paths(form, small_ensemble)
    sol = bl.DiscreteSolution(y=y[:, :-1], z=z, grid=small_ensemble.grid)
    with pytest.raises(ValueError):
        bl.compare_to_oracle(sol, form, small_ensemble, p=2.0)


def test_square_oracle_requires_one_dimension(small_ensemble_2d):
    assert match_oracle(bl.zero_generator(1, 2), bl.square_norm_terminal()) is None
    form = match_oracle(bl.zero_generator(), bl.square_norm_terminal())
    with pytest.raises(ValueError, match="one-dimensional"):
        oracle_paths(form, small_ensemble_2d)


def test_drift_oracle_needs_a_one_entry_terminal():
    # a k = 1 driver has no closed form against a two-entry constant
    # terminal; the match used to keep its first entry as v
    assert match_oracle(bl.linear_generator(a=0.5),
                        bl.constant_terminal([1.0, 2.0])) is None


@pytest.mark.parametrize("j", [2, -1])
def test_coordinate_oracle_index_out_of_range(j, small_ensemble_2d):
    form = match_oracle(bl.zero_generator(1, 2), bl.coordinate_terminal(j))
    with pytest.raises(ValueError, match=f"j = {j} is out of range for d = 2"):
        oracle_paths(form, small_ensemble_2d)
