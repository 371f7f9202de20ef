import math
import tracemalloc

import numpy as np
import pytest

import bsde_lab as bl
from bsde_lab.oracle import match_oracle, oracle_paths
from bsde_lab.solver import terminal_values


def _one_path(increments, horizon=1.0):
    """A one-path ensemble in d = 1 on len(increments) steps whose Brownian
    values are the running sums of increments, from 0."""
    increments = np.asarray(increments, dtype=float).reshape(1, -1, 1)
    return bl.PathEnsemble(M=1, d=1, grid=bl.TimeGrid(T=horizon,
                                                      N=increments.shape[1]),
                           seed=0, increments=increments)


def test_martingale_coordinate_terminal_pinning():
    form = match_oracle(bl.zero_generator(), bl.coordinate_terminal(0))
    y, z = oracle_paths(form, _one_path([0.7]))
    assert y[0, 1, 0] == 0.7
    assert np.array_equal(z[0, 0], [[1.0]])


def test_martingale_square_at_origin():
    form = match_oracle(bl.zero_generator(), bl.square_norm_terminal())
    y, z = oracle_paths(form, _one_path([0.3]))
    assert y[0, 0, 0] == 1.0
    assert z[0, 0, 0, 0] == 0.0


def test_linear_drift_value():
    form = match_oracle(bl.linear_generator(a=0.5, c=0.0),
                        bl.constant_terminal(1.0))
    y, z = oracle_paths(form, _one_path([0.3]))
    assert y[0, 0, 0] == pytest.approx(math.exp(0.5), rel=1e-14)
    assert np.all(z == 0.0)


def test_linear_drift_zero_a_limit():
    form = match_oracle(bl.linear_generator(a=0.0, c=0.3),
                        bl.constant_terminal(1.0))
    y, _ = oracle_paths(form, _one_path([0.1] * 4, horizon=2.0))
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
    sol = bl.DiscreteSolution(y=y, z_source=z, grid=small_ensemble.grid)
    errs = bl.compare_to_oracle(sol, form, small_ensemble, p=2.0)
    assert errs.sp_error == 0.0
    assert errs.z_rms_error == 0.0


def test_compare_constant_shift(small_ensemble):
    form = match_oracle(bl.zero_generator(), bl.coordinate_terminal(0))
    y, z = oracle_paths(form, small_ensemble)
    sol = bl.DiscreteSolution(y=y + 0.25, z_source=z, grid=small_ensemble.grid)
    errs = bl.compare_to_oracle(sol, form, small_ensemble, p=2.0)
    assert errs.sp_error == pytest.approx(0.25, rel=1e-12)
    assert errs.z_rms_error == 0.0


def test_compare_holds_one_time_step_of_the_oracle():
    # The oracle is evaluated step by step and folded per path, as the sweep
    # folds its Picard distances: beside per-step temporaries the comparison
    # holds two (M,) accumulators, less than one (M, N) array of z squares.
    # A full-size oracle (y, z) and z difference would take about twice y + z.
    ens = bl.generate_ensemble(M=4096, N=20, d=3, T=1.0, seed=5)
    form = match_oracle(bl.zero_generator(1), bl.coordinate_terminal(0))
    y, z = oracle_paths(form, ens)
    sol = bl.DiscreteSolution(y=y + 0.25, z_source=z + 0.5, grid=ens.grid)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        errs = bl.compare_to_oracle(sol, form, ens, p=2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < ens.M * ens.grid.N * 8
    assert errs.sp_error == pytest.approx(0.25, rel=1e-12)
    assert errs.z_rms_error == pytest.approx(math.sqrt(3 * 0.25), rel=1e-12)


def test_compare_z_rms_is_the_mean_over_every_cell():
    # the per-path sums over steps, then their mean over paths, are the mean
    # over all (path, step) cells up to the order of the additions
    ens = bl.generate_ensemble(M=1024, N=12, d=2, T=1.0, seed=8)
    form = match_oracle(bl.zero_generator(1), bl.square_norm_terminal())
    sol, _ = bl.picard_solve(bl.zero_generator(1), bl.square_norm_terminal(),
                             ens, bl.BasisSpec(2))
    errs = bl.compare_to_oracle(sol, form, ens, p=2.0)
    y, z = oracle_paths(form, ens)
    cells = np.sum((sol.z - z) ** 2, axis=(2, 3))
    assert errs.z_rms_error > 0.0
    assert errs.z_rms_error == pytest.approx(math.sqrt(np.mean(cells)),
                                             rel=1e-14, abs=0.0)
    sup = np.max(np.abs(sol.y - y)[..., 0], axis=1)
    assert errs.sp_error == pytest.approx(math.sqrt(np.mean(sup ** 2)),
                                          rel=1e-14, abs=0.0)


@pytest.mark.parametrize("term, sp_hex, z_hex", [
    (bl.coordinate_terminal(0), "0x1.82f9a5b13c58ep-5", "0x1.7c1d3dadae394p-4"),
    (bl.square_norm_terminal(), "0x1.8a0a6f3f471b3p-3", "0x1.8aa1f7e032a70p-2"),
], ids=["coordinate", "square_norm"])
def test_compare_walks_the_ensemble_once(term, sp_hex, z_hex, monkeypatch):
    # 9000 paths put a block boundary of z's fit inside the comparison; the
    # fitted z is read on the comparison's own walk, and the errors are the
    # pinned bits, which a per-path copy of z gives too
    ens = bl.generate_ensemble(M=9000, N=6, d=3, T=1.0, seed=109)
    sol, _ = bl.picard_solve(bl.zero_generator(1), term, ens, bl.BasisSpec(3))
    form = match_oracle(bl.zero_generator(1), term)
    per_path = bl.compare_to_oracle(
        bl.DiscreteSolution(y=sol.y, z_source=sol.z, grid=sol.grid), form,
        ens, p=2.0)
    walks = []
    forward = bl.PathEnsemble.forward_states
    monkeypatch.setattr(bl.PathEnsemble, "forward_states",
                        lambda self, *args: walks.append(args)
                        or forward(self, *args))
    errs = bl.compare_to_oracle(sol, form, ens, p=2.0)
    assert walks == [(0, ens.grid.N)]
    assert (errs.sp_error.hex(), errs.z_rms_error.hex()) == (sp_hex, z_hex)
    assert errs == per_path


def test_compare_shape_mismatch(small_ensemble):
    form = match_oracle(bl.zero_generator(), bl.coordinate_terminal(0))
    y, z = oracle_paths(form, small_ensemble)
    sol = bl.DiscreteSolution(y=y[:, :-1], z_source=z, grid=small_ensemble.grid)
    with pytest.raises(ValueError):
        bl.compare_to_oracle(sol, form, small_ensemble, p=2.0)


@pytest.mark.parametrize("m", [512, 256])
def test_compare_rejects_a_z_regressed_on_another_ensemble(small_ensemble, m):
    # another seed's ensemble of the same shape would fit z on its states
    # against y from the solve's paths; one of another M, too
    term = bl.coordinate_terminal(0)
    sol, _ = bl.picard_solve(bl.zero_generator(1), term, small_ensemble,
                             bl.BasisSpec(3))
    form = match_oracle(bl.zero_generator(1), term)
    other = bl.generate_ensemble(M=m, N=20, d=1, T=1.0, seed=8)
    with pytest.raises(ValueError, match="regressed on another ensemble"):
        bl.compare_to_oracle(sol, form, other, p=2.0)
    assert bl.compare_to_oracle(sol, form, small_ensemble, p=2.0).sp_error < 0.1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_square_oracle_holds_in_every_dimension(d):
    # y = |B_t|^2 + d (T - t) ends at xi = |B_T|^2, and E[y_T] = y_0
    ens = bl.generate_ensemble(M=2048, N=10, d=d, T=1.0, seed=11)
    form = match_oracle(bl.zero_generator(), bl.square_norm_terminal())
    y, z = oracle_paths(form, ens)
    assert np.array_equal(y[:, -1], terminal_values(bl.square_norm_terminal(), ens,
                                                    1))
    assert np.all(y[:, 0] == d)
    assert np.array_equal(z, 2.0 * ens.all_states()[:, :-1, None, :])
    assert np.mean(y[:, -1]) == pytest.approx(d, rel=0.15)


def test_drift_oracle_needs_a_one_entry_terminal():
    # a k = 1 driver has no closed form against a two-entry constant
    # terminal; the match used to keep its first entry as v
    assert match_oracle(bl.linear_generator(a=0.5),
                        bl.constant_terminal([1.0, 2.0])) is None


@pytest.mark.parametrize("j", [2, -1])
def test_coordinate_oracle_index_out_of_range(j, small_ensemble_2d):
    form = match_oracle(bl.zero_generator(1), bl.coordinate_terminal(j))
    with pytest.raises(ValueError, match=f"j = {j} is out of range for d = 2"):
        oracle_paths(form, small_ensemble_2d)
