import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsde_lab as bl
import bsde_lab.paths as paths_module
import bsde_lab.solver as solver_module
from bsde_lab.paths import FileFormatError, TimeGrid


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, N=10)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, N=0)
    grid = TimeGrid(T=2.0, N=4)
    assert grid.times[0] == 0.0 and grid.times[-1] == 2.0
    assert np.all(np.diff(grid.times) > 0.0)


_SQUARE_SHAPES = [(k,) for k in range(1, 8)] + [
    (1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (1, 7), (7, 1)]


@pytest.mark.parametrize("trailing", _SQUARE_SHAPES,
                         ids=["x".join(map(str, t)) for t in _SQUARE_SHAPES])
def test_sum_squares_is_bytes_of_numpys_reductions(trailing):
    # below 8 columns numpy sums left to right, as sum_squares does
    rng = np.random.default_rng(len(trailing) * 10 + trailing[-1])
    a = rng.normal(size=(257, *trailing)) * rng.choice(
        [1e-150, 1e-3, 1.0, 1e3, 1e100], size=(257, *trailing))
    a.reshape(257, -1)[:4, 0] = [0.0, -0.0, 5e-324, -1e100]
    axes = tuple(range(1, a.ndim))
    got = paths_module.sum_squares(a)
    assert got.tobytes() == np.sum(a * a, axis=axes).tobytes()
    if a.ndim == 2:
        assert np.sqrt(got).tobytes() == np.linalg.norm(a, axis=1).tobytes()


@pytest.mark.parametrize("trailing", [(), (1,), (1, 1)])
def test_a_one_column_norm_is_bytes_of_the_root_of_its_square(trailing):
    # sqrt(fl(x * x)) is |x| exactly wherever x * x is a normal double and
    # finite: 2^-511 <= |x| < 2^512
    rng = np.random.default_rng(30)
    x = (rng.uniform(1.0, 2.0, 200_000)
         * np.exp2(rng.integers(-511, 512, 200_000))
         * rng.choice([-1.0, 1.0], 200_000))
    x[:4] = [2.0 ** -511, -(2.0 ** -511), np.nextafter(2.0 ** 512, 0.0), 0.0]
    a = x.reshape(-1, *trailing)
    got = paths_module.norms(a)
    assert got.shape == (len(x),)
    assert got.tobytes() == np.sqrt(paths_module.sum_squares(a)).tobytes()


def test_a_one_column_norm_is_exact_where_its_square_is_not():
    a = np.array([[1e-200], [-1e300], [5e-324], [-np.finfo(float).max]])
    with np.errstate(under="ignore", over="ignore"):
        assert np.sqrt(paths_module.sum_squares(a)).tolist() == \
            [0.0, np.inf, 0.0, np.inf]
    assert paths_module.norms(a).tolist() == \
        [1e-200, 1e300, 5e-324, np.finfo(float).max]


@pytest.mark.parametrize("trailing", [(2,), (3,), (2, 2), (1, 3), (3, 1)])
def test_a_norm_of_several_columns_is_the_root_of_sum_squares(trailing):
    rng = np.random.default_rng(sum(trailing))
    a = rng.normal(size=(257, *trailing))
    assert paths_module.norms(a).tobytes() == \
        np.sqrt(paths_module.sum_squares(a)).tobytes()


def test_paths_start_at_zero(small_ensemble):
    assert np.all(next(small_ensemble.forward_states())[1] == 0.0)


def test_values_cumulate_increments(small_ensemble):
    diffs = np.diff(small_ensemble.all_states(), axis=1)
    assert np.allclose(diffs, small_ensemble.increments, atol=1e-15)


def test_same_seed_identical():
    a = bl.generate_ensemble(64, 12, 2, 1.5, seed=123)
    b = bl.generate_ensemble(64, 12, 2, 1.5, seed=123)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.all_states(), b.all_states())


def test_different_seed_differs():
    a = bl.generate_ensemble(16, 4, 1, 1.0, seed=1)
    b = bl.generate_ensemble(16, 4, 1, 1.0, seed=2)
    assert not np.array_equal(a.increments, b.increments)


def test_parameter_validation():
    with pytest.raises(ValueError):
        bl.generate_ensemble(0, 4, 1, 1.0, seed=1)
    with pytest.raises(ValueError):
        bl.generate_ensemble(4, 4, 1, 1.0, seed=-1)
    with pytest.raises(ValueError):
        bl.generate_ensemble(4, 4, 1, 1.0, seed=2 ** 64)


def test_increment_moments_large_single_step():
    ens = bl.generate_ensemble(100_000, 1, 1, 1.0, seed=5)
    var = float(np.var(ens.increments))
    assert 0.99 <= var <= 1.01
    mean = float(np.mean(ens.increments))
    assert abs(mean) <= 5.0 / math.sqrt(100_000)


def test_increment_moments_multi_step(small_ensemble):
    inc = small_ensemble.increments
    dt = small_ensemble.grid.dt
    n = inc.size
    assert abs(inc.mean()) <= 5.0 * math.sqrt(dt / n)
    assert abs(inc.var() - dt) <= 5.0 * dt * math.sqrt(2.0 / n)


def test_cross_coordinate_correlation(small_ensemble_2d):
    inc = small_ensemble_2d.increments
    x = inc[:, :, 0].ravel()
    y = inc[:, :, 1].ravel()
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) <= 5.0 / math.sqrt(x.size)


def test_antithetic_pairs_negate():
    ens = bl.generate_ensemble(8, 5, 2, 1.0, seed=11, antithetic=True)
    for j in range(0, 8, 2):
        assert np.array_equal(ens.increments[j + 1], -ens.increments[j])


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("seed", [0, 20240817, 2 ** 64 - 1])
def test_each_path_is_its_jumped_philox_substream(antithetic, seed):
    # the paths of two blocks, the second one partial (1030 at a block of 1024)
    m, n, d, horizon = paths_module._PATH_BLOCK + 6, 5, 3, 0.7
    ens = bl.generate_ensemble(m, n, d, horizon, seed=seed,
                               antithetic=antithetic)
    for j in range(m):
        drawn = j - 1 if antithetic and j % 2 else j
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(drawn))
        expected = math.sqrt(horizon / n) * rng.standard_normal((n, d))
        if drawn != j:
            expected = -expected
        assert ens.increments[j].tobytes() == expected.tobytes()


def _reference_states(increments):
    """B_0 = 0 and B_{i+1} = B_i + increments[:, i], one np.add a step."""
    m, n, d = increments.shape
    states = [np.zeros((m, d))]
    for i in range(n):
        states.append(np.add(states[-1], increments[:, i]))
    return states


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 10, 50])
@pytest.mark.parametrize("layout", [None, np.ascontiguousarray],
                         ids=["step_major", "path_major"])
def test_every_accessor_is_the_running_sum_bit_for_bit(n, layout):
    ens = bl.generate_ensemble(5, n, 2, 1.0, seed=n)
    if layout is not None:
        ens = bl.PathEnsemble(M=ens.M, d=ens.d, grid=ens.grid, seed=ens.seed,
                              increments=layout(ens.increments))
    states = _reference_states(ens.increments)
    ref = [b.tobytes() for b in states]
    assert ens.all_states().tobytes() == np.stack(states, axis=1).tobytes()
    assert ens.final_state.tobytes() == ref[n]
    for i in range(n + 1):
        for stop in (i, i + 1, n + 1):
            got = [(j, b.tobytes()) for j, b in ens.forward_states(i, stop)]
            assert got == [(j, ref[j]) for j in range(i, stop)]
    # the whole horizon, and every window of a split solve at every width
    windows = {(0, n)} | {w for width in range(1, n + 1) for w in
                          solver_module._window_indices(
                              ens.grid, ens.grid.T - width * ens.grid.dt)}
    for lo, hi in sorted(windows):
        got = [(j, b.tobytes()) for j, b in ens.backward_states(lo, hi)]
        assert got == [(j, ref[j]) for j in range(hi - 1, lo - 1, -1)]


def test_the_states_an_ensemble_gives_are_read_only(small_ensemble):
    ens = small_ensemble
    _, forward = next(ens.forward_states())
    _, backward = next(ens.backward_states(0, ens.grid.N))
    for state in (ens.final_state, forward, backward):
        with pytest.raises(ValueError, match="read-only"):
            state[0] = 1.0
    with pytest.raises(IndexError, match="outside"):
        next(ens.forward_states(ens.grid.N + 1))
    with pytest.raises(IndexError, match="outside"):
        next(ens.forward_states(-1))
    with pytest.raises(IndexError, match="outside"):
        next(ens.backward_states(0, ens.grid.N + 2))


@pytest.mark.parametrize("walk, window, named", [
    ("forward_states", (0, 10), "window end 10 is outside"),
    ("forward_states", (3, 1), "window end 1 is outside"),
    ("backward_states", (-1, 3), "time index -1 is outside"),
])
def test_a_walk_checks_its_window_before_its_first_state(walk, window, named):
    # at N = 3 each window once gave states before it failed, or gave none
    states = getattr(bl.generate_ensemble(4, 3, 1, 1.0, seed=1), walk)(*window)
    with pytest.raises(IndexError, match=named):
        next(states)


@pytest.mark.parametrize("bad, path, index, shown", [
    ({37: math.nan}, 3, 8, "[nan]"),
    ({37: -math.inf}, 3, 8, "[-inf]"),
    ({37: 1e308, 38: 1e308}, 3, 9, "[1e+308]"),
], ids=["nan", "inf", "overflow"])
def test_a_paths_file_that_is_not_finite_names_its_path_and_step(
        tmp_path, bad, path, index, shown):
    # in M = 512 paths of N = 10 steps and d = 1, payload entry 37 is path 3,
    # step 7; the solvers would blame a regression at the last step
    target = tmp_path / "e.bsde"
    bl.save_ensemble(bl.generate_ensemble(512, 10, 1, 1.0, seed=3), target)
    raw = bytearray(target.read_bytes())
    for entry, value in bad.items():
        struct.pack_into("<d", raw, paths_module._ENSEMBLE.header.size
                         + 8 * entry, value)
    target.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match=re.escape(
            f"path {path} is not finite from time index {index} on: its "
            f"increment at step {index - 1} is {shown}")):
        bl.load_ensemble(target)

def test_round_trip(tmp_path, small_ensemble):
    target = tmp_path / "paths.bsde"
    bl.save_ensemble(small_ensemble, target)
    back = bl.load_ensemble(target)
    assert back.M == small_ensemble.M
    assert back.d == small_ensemble.d
    assert back.seed == small_ensemble.seed
    assert back.grid.T == small_ensemble.grid.T
    assert np.array_equal(back.increments, small_ensemble.increments)
    assert np.array_equal(back.all_states(), small_ensemble.all_states())


class _FullDisk:
    """A file whose second write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError("no space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_failed_save_leaves_the_old_file(tmp_path, small_ensemble, monkeypatch):
    target = tmp_path / "paths.bsde"
    target.write_bytes(b"old")
    monkeypatch.setattr(paths_module, "open",
                        lambda *args: _FullDisk(open(*args)), raising=False)
    with pytest.raises(OSError, match="no space"):
        bl.save_ensemble(small_ensemble, target)
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["paths.bsde"]


@settings(max_examples=10)
@given(m=st.integers(1, 8), n=st.integers(1, 6), d=st.integers(1, 3),
       horizon=st.floats(0.01, 100.0), seed=st.integers(0, 2 ** 64 - 1),
       antithetic=st.booleans())
def test_round_trip_property(tmp_path_factory, m, n, d, horizon, seed,
                             antithetic):
    ens = bl.generate_ensemble(m, n, d, horizon, seed=seed,
                               antithetic=antithetic)
    target = tmp_path_factory.mktemp("ens") / "e.bsde"
    bl.save_ensemble(ens, target)
    back = bl.load_ensemble(target)
    assert (back.M, back.d, back.grid, back.seed, back.antithetic) == (
        m, d, ens.grid, seed, antithetic)
    assert np.array_equal(back.increments, ens.increments)
    assert np.array_equal(back.all_states(), ens.all_states())


def _flags(target):
    return struct.unpack_from("<I", target.read_bytes(), 28)[0]


def test_antithetic_is_header_flag_bit_zero(tmp_path):
    target = tmp_path / "e.bsde"
    bl.save_ensemble(bl.generate_ensemble(4, 3, 1, 1.0, seed=2), target)
    assert _flags(target) == 0
    bl.save_ensemble(bl.generate_ensemble(4, 3, 1, 1.0, seed=2,
                                          antithetic=True), target)
    assert _flags(target) == 1
    assert bl.load_ensemble(target).antithetic


@pytest.mark.parametrize("flags", [2, 3, 1 << 31])
def test_unknown_header_flags_rejected(tmp_path, flags):
    target = tmp_path / "e.bsde"
    bl.save_ensemble(bl.generate_ensemble(4, 3, 1, 1.0, seed=2), target)
    raw = bytearray(target.read_bytes())
    struct.pack_into("<I", raw, 28, flags)
    target.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="flags"):
        bl.load_ensemble(target)


def _traced_peak(fn, *args):
    """Bytes that fn(*args) allocates at its peak, beyond what it started with."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start


def test_ensemble_io_holds_no_second_copy(tmp_path):
    # Saving gathers one block of paths at a time; loading scatters them into
    # the increments and sums the checkpoints step by step.  A whole-payload
    # tobytes() or astype() copy would add one payload to either peak.
    ens = bl.generate_ensemble(16384, 50, 1, 1.0, seed=3)
    payload = ens.increments.nbytes
    target = tmp_path / "e.bsde"
    _, saved = _traced_peak(bl.save_ensemble, ens, target)
    assert saved < 0.1 * payload
    back, loaded = _traced_peak(bl.load_ensemble, target)
    # the checkpoints at steps 0, 8, ..., 48 and 50
    checkpoints = 8 * back.final_state.nbytes
    assert loaded - back.increments.nbytes - checkpoints < 0.1 * payload
    assert np.array_equal(back.increments, ens.increments)


@pytest.mark.parametrize("acquire", ["generate", "load"])
def test_acquisition_holds_the_increments_and_checkpoints(tmp_path, acquire):
    # An ensemble holds its increments and about N / c + 1 state slices,
    # c = ceil(sqrt(N)); a second (N+1)-slice array of the states, or a
    # whole-payload copy, would lift the peak past the bound.
    m, n, d = 16384, 50, 1
    c = math.ceil(math.sqrt(n))
    target = tmp_path / "e.bsde"
    bl.save_ensemble(bl.generate_ensemble(m, n, d, 1.0, seed=3), target)
    if acquire == "generate":
        ens, peak = _traced_peak(bl.generate_ensemble, m, n, d, 1.0, 3)
    else:
        ens, peak = _traced_peak(bl.load_ensemble, target)
    payload = ens.increments.nbytes
    assert peak < payload + (2 * c + 1) * m * d * 8 + 0.1 * payload


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_saved_bytes_do_not_depend_on_the_layout(tmp_path, layout):
    ens = bl.generate_ensemble(3000, 7, 3, 1.0, seed=5, antithetic=True)
    hand = bl.PathEnsemble(M=ens.M, d=ens.d, grid=ens.grid, seed=ens.seed,
                           increments=layout(ens.increments), antithetic=True)
    bl.save_ensemble(ens, tmp_path / "a.bsde")
    bl.save_ensemble(hand, tmp_path / "b.bsde")
    assert (tmp_path / "a.bsde").read_bytes() == (tmp_path / "b.bsde").read_bytes()


@pytest.mark.parametrize("m, n, d, found, need", [
    (5, 4, 1, (8, 4, 1), (5, 4, 1)),
    (8, 3, 1, (8, 4, 1), (8, 3, 1)),
    (8, 4, 2, (8, 4, 1), (8, 4, 2)),
], ids=["M", "N", "d"])
def test_a_hand_built_ensemble_must_match_its_sizes(m, n, d, found, need):
    ens = bl.generate_ensemble(8, 4, 1, 1.0, seed=2)
    with pytest.raises(ValueError, match=re.escape(
            f"increments have shape {found}, but M = {m}, N = {n} and d = {d} "
            f"need {need}")):
        bl.PathEnsemble(M=m, d=d, grid=TimeGrid(T=1.0, N=n), seed=2,
                        increments=ens.increments)


@pytest.mark.parametrize("m, d", [(0, 1), (4, 0)])
def test_empty_header_sizes_rejected(tmp_path, m, d):
    target = tmp_path / "e.bsde"
    header = paths_module._ENSEMBLE.header
    target.write_bytes(header.pack(b"BSDE", 1, m, 3, d, 0, 1.0, 2))
    with pytest.raises(FileFormatError, match="must be >= 1"):
        bl.load_ensemble(target)


@pytest.mark.parametrize("n, horizon, message", [
    (0, 1.0, "N = 0"), (3, math.nan, "horizon T"), (3, 0.0, "horizon T"),
    (3, -1.0, "horizon T")], ids=["N0", "T_nan", "T0", "T_negative"])
def test_a_header_grid_that_is_no_grid_is_rejected(tmp_path, n, horizon, message):
    target = tmp_path / "e.bsde"
    header = paths_module._ENSEMBLE.header
    target.write_bytes(header.pack(b"BSDE", 1, 4, n, 1, 0, horizon, 2)
                       + bytes(4 * n * 8))
    with pytest.raises(FileFormatError, match=message):
        bl.load_ensemble(target)
