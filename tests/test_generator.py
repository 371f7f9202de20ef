import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import bsde_lab as bl
from bsde_lab.generator import (GENERATOR_FAMILIES, ProcessSpec,
                                abs_brownian_coordinate_process,
                                constant_process, eval_generator_batch,
                                eval_process)
from bsde_lab.paths import sum_squares


def _box(seed: int, d: int = 1):
    """An ensemble whose sampling box draws from Philox(seed + 1) over T = 1
    in d dimensions: all that the sampled checks of the driver read of it."""
    return bl.generate_ensemble(M=1, N=1, d=d, T=1.0, seed=seed)


# ----------------------------------------------------------------- evaluation

def test_zero_generator_returns_zero_vector():
    gen = bl.zero_generator(k=3)
    out = eval_generator_batch(gen, 0.3, np.zeros((1, 2)), np.ones((1, 3)),
                               np.ones((1, 3, 2)))
    assert np.array_equal(out, np.zeros((1, 3)))


def test_example1_evaluation():
    gen = bl.example1_generator(p=2.0)
    out = eval_generator_batch(gen, 0.0, np.zeros((1, 1)),
                               np.array([[math.exp(-4)]]), np.zeros((1, 1, 1)))
    assert out[0, 0] == pytest.approx(2.0 * math.exp(-4), rel=1e-14)


@pytest.mark.parametrize("p, delta, d", [(2.0, math.exp(-2.0), 1),
                                         (3.0, 0.1, 2)])
def test_example1_is_bytes_of_its_three_terms(p, delta, d):
    # h(|y|) + |z| + |B_t|, summed left to right, byte for byte: at y = 0,
    # on both sides of delta and at delta itself
    gen = bl.example1_generator(p, delta)
    h = bl.example1_h_modulus(p, delta)
    rng = np.random.default_rng(5)
    y = rng.uniform(-1.0, 1.0, (64, 1))
    y[:6, 0] = [0.0, -0.0, delta, -delta, np.nextafter(delta, 1.0),
                -np.nextafter(delta, 0.0)]
    z = rng.standard_normal((64, 1, d))
    brownian = rng.standard_normal((64, d))
    got = eval_generator_batch(gen, 0.5, brownian, y, z)
    ref = (bl.eval_modulus(h, np.abs(y[:, 0])) + np.sqrt(sum_squares(z))) \
        + np.sqrt(sum_squares(brownian))
    assert got.shape == (64, 1)
    assert got[:, 0].tobytes() == ref.tobytes()


def test_example1_is_finite_where_the_square_of_z_overflows():
    # |z| is the absolute value of z's one column, which is exact where
    # sqrt(z * z) would be inf (and 0 where z * z underflows)
    gen = bl.example1_generator(2.0)
    y = np.zeros((3, 1))
    z = np.array([1e200, -1e300, 1e-200]).reshape(3, 1, 1)
    got = eval_generator_batch(gen, 0.5, np.zeros((3, 1)), y, z)
    assert np.all(np.isfinite(got))
    assert got[:, 0].tolist() == [1e200, 1e300, 1e-200]


def test_linear_generator_scalar_a():
    gen = bl.linear_generator(a=1.0, b=0.0, c=0.0, k=1)
    out = eval_generator_batch(gen, 0.0, np.zeros((1, 2)), np.array([[3.0]]),
                               np.ones((1, 1, 2)))
    assert out[0, 0] == 3.0


def test_linear_generator_matrix_and_z_norm():
    a = [[0.0, 1.0], [1.0, 0.0]]
    gen = bl.linear_generator(a=a, b=2.0, c=[0.5, -0.0], k=2)
    z = np.array([[3.0], [4.0]])  # Frobenius norm 5
    out = eval_generator_batch(gen, 0.0, np.zeros((1, 1)),
                               np.array([[1.0, 2.0]]), z[None])
    assert out[0] == pytest.approx([2.0 + 10.0 + 0.5, 1.0 + 10.0])


def test_dimension_mismatch_rejected():
    gen = bl.zero_generator(k=1)
    with pytest.raises(ValueError):
        eval_generator_batch(gen, 0.0, np.zeros((1, 1)), np.zeros((1, 1)),
                             np.zeros((1, 1, 2)))


def test_custom_generator_registry(add_driver):
    # a user-defined driver is one more record in GENERATOR_FAMILIES
    gen = add_driver("double_y", lambda t, b, y, z: 2.0 * y, k=2)
    out = eval_generator_batch(gen, 0.0, np.zeros((1, 1)),
                               np.array([[1.0, -1.0]]), np.zeros((1, 2, 1)))
    assert np.array_equal(out, [[2.0, -2.0]])
    with pytest.raises(ValueError, match="unknown generator family 'never_added'"):
        bl.GeneratorSpec("never_added")


def test_generator_of_the_wrong_shape_is_rejected(add_driver):
    gen = add_driver("flat", lambda t, b, y, z: y[:, 0])
    with pytest.raises(ValueError, match="family 'flat' returned wrong shape"):
        eval_generator_batch(gen, 0.0, np.zeros((2, 1)), np.zeros((2, 1)),
                             np.zeros((2, 1, 1)))


def test_example1_is_scalar_only():
    gen = bl.example1_generator(p=2.0)
    assert gen.k == 1


# ------------------------------------------------------------------- H1 check

def test_h1_linear_against_linear_modulus():
    mu, p = 0.7, 2.0
    gen = bl.linear_generator(a=mu, k=1)
    mod = bl.linear_modulus(mu ** p, domain_cap=200.0)
    for seed in range(4):
        rep = bl.check_h1(gen, mod, p, _box(seed))
        assert rep.max_ratio <= 1.0 + 1e-12
        assert rep.passed


def test_h1_zero_generator_ratio_zero():
    rep = bl.check_h1(bl.zero_generator(1),
                      bl.linear_modulus(1.0, 200.0), 2.0, _box(0))
    assert rep.max_ratio == 0.0


def test_h1_example1_against_chain_modulus():
    gen = bl.example1_generator(p=2.0)
    h = bl.example1_h_modulus(2.0, domain_cap=10.0)
    mod = bl.power_root(h, 2.0)
    rep = bl.check_h1(gen, mod, 2.0, _box(2))
    assert rep.passed, rep.max_ratio


def test_h1_vanishing_modulus_reports_infinite_ratio():
    gen = bl.linear_generator(a=1.0, k=1)
    rep = bl.check_h1(gen, bl.linear_modulus(0.0, 200.0), 2.0, _box(0))
    assert math.isinf(rep.max_ratio)
    assert not rep.passed
    assert rep.witness["ratio"] == math.inf


def test_h1_witness_reproduces_ratio():
    gen = bl.example1_generator(p=2.0)
    mod = bl.linear_modulus(0.3, domain_cap=200.0)
    rep = bl.check_h1(gen, mod, 2.0, _box(1))
    w = rep.witness
    g1, g2 = (eval_generator_batch(gen, w["t"], w["brownian"][None], y[None],
                                   w["z"][None]) for y in (w["y1"], w["y2"]))
    num = np.linalg.norm(g1 - g2) ** 2.0
    den = bl.eval_modulus(mod, float(np.linalg.norm(w["y1"] - w["y2"])) ** 2.0)
    assert num / den == pytest.approx(rep.max_ratio, rel=1e-12)


# ------------------------------------------------------------- H2 (Lipschitz)

@pytest.mark.parametrize("gen,expected", [
    (bl.zero_generator(1), 0.0),
    (bl.example1_generator(p=2.0), 1.0),
    (bl.linear_generator(a=1.0, b=0.4, k=1), 0.4),
])
def test_lipschitz_analytic_values(gen, expected):
    rep = bl.estimate_lipschitz_z(gen, _box(0))
    assert rep.analytic == expected


def test_lipschitz_sampled_below_analytic():
    for seed in range(3):
        for gen in (bl.example1_generator(p=2.0),
                    bl.linear_generator(a=0.3, b=1.7, k=1)):
            rep = bl.estimate_lipschitz_z(gen, _box(seed, d=2))
            assert rep.sampled <= rep.analytic + 1e-9


@pytest.mark.parametrize("gen, expected", [
    (bl.zero_generator(2), False),
    (bl.linear_generator(a=0.0, b=0.5, c=0.2), False),
    (bl.linear_generator(a=-0.0), False),
    (bl.linear_generator(a=0.5), True),
    (bl.linear_generator(a=[[0.0, 0.0], [0.0, 0.0]], b=1.0, k=2), False),
    (bl.linear_generator(a=[[0.0, 0.0], [1e-300, 0.0]], k=2), True),
    (bl.example1_generator(2.0), True),
], ids=["zero", "linear_a0", "linear_a_minus0", "linear_a", "matrix_a0",
        "matrix_a", "example1"])
def test_reads_y_of_each_family(gen, expected):
    assert GENERATOR_FAMILIES[gen.family].reads_y(gen) is expected


def test_reads_y_defaults_to_true(add_driver):
    gen = add_driver("constant_one", lambda t, b, y, z: np.ones_like(y))
    assert GENERATOR_FAMILIES[gen.family].reads_y(gen) is True


# ------------------------------------------------------------------------- H3

def test_h3_zero(small_ensemble):
    rep = bl.check_h3(bl.zero_generator(1), small_ensemble, 2.0)
    assert rep.estimate == 0.0


def test_h3_constant_driver(small_ensemble):
    gen = bl.linear_generator(a=0.0, b=0.0, c=0.2, k=1)
    rep = bl.check_h3(gen, small_ensemble, 2.0)
    assert rep.estimate == pytest.approx(0.04, rel=1e-12)
    assert not rep.unstable


def _abs_brownian_square_integral_oracle() -> float:
    """E[(int_0^1 |B_t| dt)^2] by brute-force double integration of
    E|B_s B_t| = sqrt(st) (2/pi) (r asin r + sqrt(1 - r^2)), r = sqrt(s/t)."""

    def kernel(s, t):
        if s > t:
            s, t = t, s
        if s <= 0.0:
            return 0.0
        r = math.sqrt(s / t)
        return math.sqrt(s * t) * (2.0 / math.pi) * (
            r * math.asin(r) + math.sqrt(1.0 - r * r))

    val, _ = integrate.dblquad(kernel, 0.0, 1.0, 0.0, 1.0, epsabs=1e-10)
    return val


def test_h3_example1_against_quadrature_oracle():
    ens = bl.generate_ensemble(M=16384, N=50, d=1, T=1.0, seed=101)
    gen = bl.example1_generator(p=2.0)
    rep = bl.check_h3(gen, ens, 2.0)  # g(t, 0, 0) = |B_t|
    oracle = _abs_brownian_square_integral_oracle()
    assert oracle == pytest.approx(0.375, abs=1e-6)
    assert abs(rep.estimate - oracle) <= 3.0 * rep.standard_error
    assert not rep.unstable


def test_h3_folds_the_trapezoid_rule_without_a_buffer():
    # Each step's panel goes into one per-path sum as the forward walk
    # reaches it.  An (M, N+1) array of the driver norms alone would hold 51
    # slices of M numbers; the fold holds a handful (measured: 9, 1.18 MB).
    m, n = 16384, 50
    ens = bl.generate_ensemble(M=m, N=n, d=1, T=1.0, seed=3)
    gen = bl.example1_generator(2.0)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        rep = bl.check_h3(gen, ens, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 16 * m * 8
    # against the trapezoid rule over a built buffer, which sums in another
    # order
    zeros = np.zeros((m, 1)), np.zeros((m, 1, 1))
    vals = np.stack([np.linalg.norm(eval_generator_batch(
        gen, ens.grid.times[i], b_i, *zeros), axis=1)
        for i, b_i in ens.forward_states()], axis=1)
    ref = np.mean(np.trapezoid(vals, dx=ens.grid.dt, axis=1) ** 2.0)
    assert rep.estimate == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_h3_rejects_non_finite(small_ensemble, add_driver):
    # a driver that is not finite at (y, z) = 0, or whose finite values
    # overflow their norm, gives a non-finite, unstable estimate
    for value in (np.inf, np.nan, 1e200):
        gen = add_driver("blow_up", lambda t, b, y, z: np.full((b.shape[0], 1), value))
        rep = bl.check_h3(gen, small_ensemble, 2.0)
        assert not math.isfinite(rep.estimate) and rep.unstable


# ------------------------------------------------------------------- envelope

def test_envelope_zero_generator(small_ensemble):
    gen = bl.zero_generator(1)
    env = bl.auto_envelope(gen, 2.0, 1)
    rep = bl.verify_envelope(gen, env, 2.0, small_ensemble)
    assert rep.passed
    assert rep.max_defect <= 0.0


def test_envelope_example1_passes(small_ensemble):
    gen = bl.example1_generator(p=2.0)
    env = bl.auto_envelope(gen, 2.0, 1)
    rep = bl.verify_envelope(gen, env, 2.0, small_ensemble)
    assert rep.passed, rep.max_defect


def test_envelope_tolerance_is_relative_to_the_bound(small_ensemble):
    # |a y| near 5e7 leaves a round-off defect of about 7e-9 > tol = 1e-9,
    # which passes; an a that the envelope understates by 1e-6 relative fails
    gen = bl.linear_generator(a=1e7)
    env = bl.auto_envelope(gen, 2.0, 1)
    rep = bl.verify_envelope(gen, env, 2.0, small_ensemble)
    assert rep.passed and rep.max_defect > rep.tol
    steeper = bl.linear_generator(a=1e7 * (1 + 1e-6))
    assert not bl.verify_envelope(steeper, env, 2.0, small_ensemble).passed

@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("gen, mu", [
    (bl.zero_generator(1), lambda p: 0.0),
    (bl.linear_generator(a=0.5, c=0.2), lambda p: 0.5 ** p),
    (bl.linear_generator(a=[[0.5, 0.1], [0.0, 0.3]], b=0.2, c=[0.2, 0.1], k=2),
     lambda p: float(np.linalg.norm([[0.5, 0.1], [0.0, 0.3]], 2)) ** p),
])
def test_auto_envelope_psi_linear_families(gen, mu, p):
    psi = bl.auto_envelope(gen, p, 1).psi
    assert psi.family == "linear"
    assert psi.mu == mu(p)
    assert psi.domain_cap == 5.0 ** p


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_auto_envelope_psi_example1(p):
    psi = bl.auto_envelope(bl.example1_generator(p=2.0), p, 1).psi
    h = bl.example1_h_modulus(2.0, domain_cap=5.0)
    expected = bl.power_root(h, p)
    assert psi.family == "tabulated"
    assert psi.domain_cap == 5.0 ** p
    assert psi.breakpoints == expected.breakpoints


def test_envelope_low_lambda_fails_with_large_z_witness(small_ensemble):
    gen = bl.example1_generator(p=2.0)
    env = bl.auto_envelope(gen, 2.0, 1)
    starved = bl.EnvelopeA(psi=env.psi, lam=0.5, phi=env.phi, f=env.f)
    rep = bl.verify_envelope(gen, starved, 2.0, small_ensemble)
    assert not rep.passed
    assert np.linalg.norm(rep.witness["z"]) > 2.5


def test_envelope_monotone_in_lambda(small_ensemble):
    gen = bl.example1_generator(p=2.0)
    env = bl.auto_envelope(gen, 2.0, 1)
    defects = []
    for lam in (0.0, 0.5, 1.0, 2.0):
        e = bl.EnvelopeA(psi=env.psi, lam=lam, phi=env.phi, f=env.f)
        defects.append(bl.verify_envelope(gen, e, 2.0,
                                          small_ensemble).max_defect)
    assert all(a >= b for a, b in zip(defects, defects[1:]))


def test_envelope_rejects_bad_psi(small_ensemble):
    gen = bl.zero_generator(1)
    env = bl.EnvelopeA(psi=bl.power_modulus(1.0, 2.0), lam=0.0)
    with pytest.raises(ValueError):
        bl.verify_envelope(gen, env, 2.0, small_ensemble)


def test_process_kinds(small_ensemble_2d):
    ens = small_ensemble_2d
    path_idx, t_idx = np.array([0, 5, 7]), np.array([10, 3, 0])
    brownian = ens.all_states()[path_idx, t_idx]
    assert np.array_equal(eval_process(ProcessSpec(), brownian), np.zeros(3))
    assert np.array_equal(eval_process(ProcessSpec("constant", value=0.5),
                                       brownian), np.full(3, 0.5))
    out = eval_process(ProcessSpec("abs_brownian_coordinate", index=1), brownian)
    assert np.array_equal(out, np.abs(brownian[:, 1]))


@pytest.mark.parametrize("index", [2, -1])
def test_abs_brownian_coordinate_out_of_range(small_ensemble_2d, index):
    spec = ProcessSpec("abs_brownian_coordinate", index=index)
    with pytest.raises(bl.paths.DimensionError,
                       match=f"index = {index} is out of range for d = 2"):
        eval_process(spec, np.zeros((1, small_ensemble_2d.d)))


@pytest.mark.parametrize("case, pinned", [
    ("example1_auto", ("0x1.dc413d7e00000p-19", True, "0x1.4cccccccccccdp-1",
                       487, ["0x1.02acd1ee19480p-3"],
                       ["-0x1.f6917d91d2de1p+1"])),
    ("abs_coordinate_d2", ("0x1.995823ee017c6p+1", False,
                           "0x1.0000000000000p+0", 246,
                           ["-0x1.6440731963720p-1"],
                           ["0x1.1345d9baaa852p+2", "-0x1.bd316558216bep+1"])),
])
def test_envelope_reads_the_drawn_states_bit_for_bit(small_ensemble,
                                                     small_ensemble_2d,
                                                     case, pinned):
    # The Brownian values of the draws come from one forward walk.  The
    # pinned bits were recorded when each draw was summed on its own from
    # the checkpoint below it, so they show the walk reads the same states.
    gen = bl.example1_generator(2.0)
    if case == "example1_auto":
        ens, env = small_ensemble, bl.auto_envelope(gen, 2.0, 1)
    else:
        ens = small_ensemble_2d
        env = bl.EnvelopeA(psi=bl.auto_envelope(gen, 2.0, 1).psi, lam=1.0,
                           phi=abs_brownian_coordinate_process(1),
                           f=constant_process(0.5))
    rep = bl.verify_envelope(gen, env, 2.0, ens)
    w = rep.witness
    assert (rep.max_defect.hex(), rep.passed, w["t"].hex(), w["path"],
            [x.hex() for x in w["y"]], [x.hex() for x in w["z"].ravel()]) \
        == pinned
    assert w["defect"] == rep.max_defect
