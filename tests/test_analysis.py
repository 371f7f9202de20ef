import math
import tracemalloc

import numpy as np
import pytest

import bsde_lab as bl
from bsde_lab.analysis import (BihariOrderingError, iterate_distance_arrays,
                               lp_norm_arrays)
from bsde_lab.generator import (abs_brownian_coordinate_process, constant_process,
                                eval_generator_batch, eval_process)
from bsde_lab.paths import TimeGrid

from conftest import random_concave_tabulated


# --------------------------------------------------------------------- norms

def test_sp_norm_of_constant_process():
    y = np.full((100, 11, 1), 2.0)
    z = np.zeros((100, 10, 1, 1))
    assert lp_norm_arrays(y, z, 0.1, p=2.0) == (2.0, 0.0)


def test_sp_norm_deterministic_ramp():
    times = np.linspace(0.0, 1.0, 11)
    y = np.tile(times[None, :, None], (50, 1, 1))
    z = np.zeros((50, 10, 1, 1))
    for p in (1.5, 2.0, 4.0):
        sp, _ = lp_norm_arrays(y, z, 0.1, p=p)
        assert sp == pytest.approx(1.0, rel=1e-12)


def test_mp_norm_constant_z():
    y = np.zeros((50, 11, 1))
    z = np.full((50, 10, 1, 1), 3.0)
    _, mp = lp_norm_arrays(y, z, 0.1, p=2.0)
    assert mp == pytest.approx(3.0, rel=1e-12)  # (int 9 dt)^(1/2) over [0,1]


# ----------------------------------------------------------------- distances

def test_distance_identical_solutions():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(40, 6, 2))
    z = rng.normal(size=(40, 5, 2, 3))
    assert iterate_distance_arrays(y, y, z, z, 0.2, p=2.0) == (0.0, 0.0)


def test_distance_constant_shift_is_power():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(40, 6, 1))
    z = rng.normal(size=(40, 5, 1, 1))
    for p in (2.0, 3.0):
        dy, _ = iterate_distance_arrays(y, y + 0.5, z, z, 0.2, p)
        assert dy == pytest.approx(0.5 ** p, rel=1e-12)


def test_distance_matches_brute_force():
    rng = np.random.default_rng(2)
    p = 2.5
    m, n, k, d = 7, 4, 2, 3
    grid = TimeGrid(T=1.0, N=n)
    y_a, y_b = rng.normal(size=(2, m, n + 1, k))
    z_a, z_b = rng.normal(size=(2, m, n, k, d))
    dy, dz = iterate_distance_arrays(y_a, y_b, z_a, z_b, grid.dt, p)

    dy_brute = 0.0
    dz_brute = 0.0
    for i in range(m):
        sup = max(math.sqrt(sum((y_a[i, j, c] - y_b[i, j, c]) ** 2
                                for c in range(k)))
                  for j in range(n + 1))
        dy_brute += sup ** p
        quad = sum(sum((z_a[i, j, c, e] - z_b[i, j, c, e]) ** 2
                       for c in range(k) for e in range(d)) * grid.dt
                   for j in range(n))
        dz_brute += quad ** (p / 2.0)
    assert dy == pytest.approx(dy_brute / m, rel=1e-12)
    assert dz == pytest.approx(dz_brute / m, rel=1e-12)


def test_distance_symmetry():
    rng = np.random.default_rng(3)
    y_a, y_b = rng.normal(size=(2, 5, 4, 1))
    z_a, z_b = rng.normal(size=(2, 5, 3, 1, 1))
    assert iterate_distance_arrays(y_a, y_b, z_a, z_b, 1 / 3, 2.0) == \
        iterate_distance_arrays(y_b, y_a, z_b, z_a, 1 / 3, 2.0)


# ----------------------------------------------------------------- recursion

def test_bihari_factorial_closed_form():
    curve = bl.bihari_recursion(bl.linear_modulus(1.0, domain_cap=2.0),
                                m_bound=1.0, horizon=1.0, t_split=0.0,
                                n_max=10)
    for n in range(11):
        assert curve.values[n, 0] == pytest.approx(
            1.0 / math.factorial(n + 1), abs=1e-6)


def test_bihari_zero_bound_stays_zero():
    curve = bl.bihari_recursion(bl.linear_modulus(1.0, domain_cap=2.0),
                                m_bound=0.0, horizon=1.0, t_split=0.0, n_max=5)
    assert np.all(curve.values == 0.0)


def test_bihari_ordering_invariant_random_moduli():
    rng = np.random.default_rng(4)
    for _ in range(5):
        mod = random_concave_tabulated(rng)
        m_bound = float(bl.eval_modulus(mod, mod.domain_cap)) + 1.0
        curve = bl.bihari_recursion(mod, m_bound=m_bound, horizon=0.5,
                                    t_split=0.0, n_max=8, quad_steps=256)
        assert np.all(curve.values >= 0.0)
        assert np.all(np.diff(curve.values, axis=0) <= 1e-12)
        assert np.all(curve.values <= m_bound + 1e-12)


def test_bihari_rejects_bound_violation():
    # (T - t) mod(M) > M: linear modulus, long horizon
    with pytest.raises(BihariOrderingError):
        bl.bihari_recursion(bl.linear_modulus(1.0, domain_cap=4.0),
                            m_bound=1.0, horizon=3.0, t_split=0.0, n_max=2)


def test_bihari_validation():
    mod = bl.linear_modulus(1.0)
    with pytest.raises(ValueError):
        bl.bihari_recursion(mod, 1.0, horizon=1.0, t_split=1.0, n_max=2)
    with pytest.raises(ValueError):
        bl.bihari_recursion(bl.power_modulus(1.0, 2.0), 1.0, 1.0, 0.0, 2)


# ----------------------------------------------------------------- constants

def test_constants_c_p():
    cb = bl.compute_constants(2.0, 0.0, 1.0, 0.0)
    assert cb.c_p == 1.0


def test_constants_z_bound_prefactor():
    cb = bl.compute_constants(2.0, 0.0, 1.0, 0.0)
    assert cb.c_lambda_p_T == 256.0


def test_constants_t1_substitution():
    ln2 = math.log(2.0)
    cb = bl.compute_constants(2.0, 0.0, 2.0, 0.5, c1=ln2, c3=ln2)
    assert cb.t1 == 1.0


def test_constants_derived_fields():
    cb = bl.compute_constants(2.0, 1.0, 1.0, 1.0, k_prime_p=2.0,
                              terminal_moment=1.0, h3_moment=0.5)
    assert cb.theta == 32.0
    assert cb.d_lambda_p_theta == 34.0
    assert cb.c1 == cb.c3 == 136.0
    assert cb.c2 == 4.0
    assert cb.mu0 == pytest.approx(4.0 * math.exp(136.0) * 1.5, rel=1e-12)
    assert cb.m_bound == pytest.approx(2.0 * cb.mu0 + 2.0, rel=1e-12)
    assert 0.0 <= cb.t1 < 1.0


def test_constants_validation():
    with pytest.raises(ValueError):
        bl.compute_constants(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        bl.compute_constants(2.0, 0.0, 1.0, 0.0, c1=0.0)
    with pytest.raises(ValueError):
        bl.compute_constants(2.0, 0.0, 1.0, 0.0, c3=-1.0)


@pytest.mark.parametrize("given", [
    {"k_prime_p": 0.0}, {"k_prime_p": -1.0}, {"c3": -1.0},
    {"c2": -1.0}, {"c1": -1.0}])
def test_constants_martingale_moments_must_be_positive(given):
    with pytest.raises(ValueError, match="must be positive"):
        bl.compute_constants(2.0, 0.0, 1.0, 0.0, **given)


@pytest.mark.parametrize("p, horizon, given", [
    (1.5, 1.0, {}), (2.0, 1e300, {}),
    (2.0, 1.0, {"c3": 1.0, "terminal_moment": 1e308}),
    (2.0, 1.0, {"c2": 1.5e308, "c3": 1e-9})])
def test_constants_overflow_is_one_overflow_error(p, horizon, given):
    # p = 1.5 sends e^(c3 T) past the float range and T = 1e300 already T^p;
    # the third case has a finite e^(c3 T) but an infinite product mu0, and
    # the last a finite mu0 ~ 1.5e308 but an infinite M = 2 mu0 + 2 A T
    with pytest.raises(OverflowError, match="derived constants overflow"):
        bl.compute_constants(p, 0.0, horizon, 0.0, **{"terminal_moment": 1.0,
                                                      **given})


@pytest.mark.parametrize("given, cause", [
    ({"h3_moment": math.inf}, "E[(int |g(t,0,0)| dt)^p] is not finite"),
    ({"terminal_moment": math.inf}, "E|xi|^p is not finite"),
    ({"terminal_moment": math.nan, "h3_moment": math.inf},
     "E|xi|^p is not finite; E[(int |g(t,0,0)| dt)^p] is not finite"),
    ({"terminal_moment": 1e308, "c3": 1.0}, "reduce c3 or the horizon"),
], ids=["h3", "terminal", "both", "finite_moments"])
def test_constants_overflow_names_its_cause(given, cause):
    # a non-finite moment is the input to blame; with finite moments the
    # overflow comes from e^(c3 T)
    with pytest.raises(OverflowError) as exc:
        bl.compute_constants(2.0, 0.0, 1.0, 0.0, **given)
    assert str(exc.value) == ("the derived constants overflow at p = 2.0, "
                              f"T = 1.0; {cause}")


def test_constants_overflow_names_lambda_when_its_square_overflows():
    # lambda^2 enters the z-bound prefactor and the derived c1 and c3; its
    # overflow is lambda's, not that of a c3 the caller did not give
    with pytest.raises(OverflowError) as exc:
        bl.compute_constants(2.0, 1e200, 1.0, 0.0)
    assert str(exc.value) == (
        "the derived constants overflow at p = 2.0, T = 1.0; reduce the "
        "z-Lipschitz constant lambda = 1e+200")


@pytest.mark.parametrize("args, given", [
    ((2.0, 0.0, 2.0, 0.5), {"c1": math.log(2.0), "c3": math.log(2.0)}),
    ((2.0, 1.0, 1.0, 1.0), {}),
    ((3.0, 0.3, 1.0, 0.0), {"k_prime_p": 0.5}),
    ((2.0, 0.0, 0.004, 0.5), {}),
    ((2.0, 0.0, 1.0, 4.0), {"c1": 1.0, "c3": 2.0}),
])
def test_split_time_is_the_t1_of_the_constants(args, given):
    assert bl.analysis.split_time(*args, **given) == \
        bl.compute_constants(*args, **given).t1


def test_split_time_is_defined_where_mu0_overflows():
    # at p = 1.5, lambda = 1 the default c3 = 2 k'_p d is 1036, which sends
    # e^(c3 T) past the float range, so the bundle overflows; T1 does not
    # read mu0
    given = {"terminal_moment": 1.0, "h3_moment": 0.5}
    with pytest.raises(OverflowError, match="derived constants overflow"):
        bl.compute_constants(1.5, 1.0, 1.0, 0.5, **given)
    assert bl.analysis.split_time(1.5, 1.0, 1.0, 0.5, **given) == \
        pytest.approx(1.0 - math.log(2.0) / 1036.0, rel=1e-15)


@pytest.mark.parametrize("given", [{"h3_moment": math.inf},
                                   {"terminal_moment": math.nan}])
def test_split_time_needs_finite_moments(given):
    # the bound T1 rests on needs both moments finite, whatever T1 is
    with pytest.raises(OverflowError) as exc:
        bl.analysis.split_time(2.0, 0.0, 1.0, 0.0, **given)
    with pytest.raises(OverflowError) as ref:
        bl.compute_constants(2.0, 0.0, 1.0, 0.0, **given)
    assert str(exc.value) == str(ref.value)


@pytest.mark.parametrize("p, given", [(1.001, {}),
                                      (2.0, {"c1": 1e300, "c3": 1e300})],
                         ids=["exponent_overflows", "no_room_below_T"])
def test_split_time_without_a_local_interval_is_an_overflow(p, given):
    # theta^(1/(p-1)) overflows at p = 1.001; ln2 / 1e300 is below half an
    # ulp of T
    with pytest.raises(OverflowError, match="leave no local interval"):
        bl.analysis.split_time(p, 0.0, 1.0, 0.0, **given)


def test_split_time_validation():
    with pytest.raises(ValueError, match="needs p > 1"):
        bl.analysis.split_time(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="must be positive"):
        bl.analysis.split_time(2.0, 0.0, 1.0, 0.0, c3=0.0)


# -------------------------------------------------------------- energy check

def test_lemma1_zero_everything(small_ensemble):
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.constant_terminal(0.0), small_ensemble,
                             bl.BasisSpec(3), p=2.0)
    rep = bl.check_lemma1(sol, gen, 2.0, 0, small_ensemble)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_lemma1_energy_identity_brownian_terminal():
    ens = bl.generate_ensemble(M=2 ** 13, N=50, d=1, T=1.0, seed=77)
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), ens,
                             bl.BasisSpec(3), p=2.0)
    for t_index in (0, 25):
        rep = bl.check_lemma1(sol, gen, 2.0, t_index, ens)
        assert abs(rep.slack) <= 3.0 * rep.standard_error
        # LHS at t = 0 is the full energy E[B_T^2] = T
        if t_index == 0:
            assert rep.lhs == pytest.approx(1.0, abs=0.05)


def test_lemma1_inequality_example1(small_ensemble):
    gen = bl.example1_generator(p=2.0)
    sol, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), small_ensemble,
                             bl.BasisSpec(3), p=2.0)
    for t_index in range(0, small_ensemble.grid.N + 1, 5):
        rep = bl.check_lemma1(sol, gen, 2.0, t_index, small_ensemble)
        assert rep.slack >= -3.0 * rep.standard_error


def test_lemma1_index_validation(small_ensemble):
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.constant_terminal(0.0), small_ensemble,
                             bl.BasisSpec(3), p=2.0)
    with pytest.raises(ValueError):
        bl.check_lemma1(sol, gen, 2.0, small_ensemble.grid.N + 1,
                        small_ensemble)


@pytest.mark.parametrize("m", [512, 256])
@pytest.mark.parametrize("check", ["lemma1", "apriori"])
def test_the_checks_reject_a_z_regressed_on_another_ensemble(small_ensemble,
                                                             check, m):
    # each check walks the solution's z along the ensemble it is given
    gen = bl.example1_generator(p=2.0)
    sol, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), small_ensemble,
                             bl.BasisSpec(3), p=2.0)
    env = bl.auto_envelope(gen, 2.0, 1)
    cb = bl.compute_constants(2.0, 1.0, 1.0, 0.0, terminal_moment=1.0)
    run = {"lemma1": lambda ens: bl.check_lemma1(sol, gen, 2.0, 0, ens),
           "apriori": lambda ens: bl.check_apriori_bounds(sol, env, cb, 2.0,
                                                          0, ens)}[check]
    other = bl.generate_ensemble(M=m, N=20, d=1, T=1.0, seed=8)
    with pytest.raises(ValueError, match="regressed on another ensemble"):
        run(other)
    run(small_ensemble)


# ------------------------------------------------------------ a-priori bounds

def test_apriori_zero_instance(small_ensemble):
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.constant_terminal(0.0), small_ensemble,
                             bl.BasisSpec(3), p=2.0)
    env = bl.auto_envelope(gen, 2.0, 1)
    cb = bl.compute_constants(2.0, 0.0, 1.0, 0.0)
    rep = bl.check_apriori_bounds(sol, env, cb, 2.0, 0, small_ensemble)
    assert rep.prop1_holds and rep.prop2_holds
    assert rep.prop1_lhs == pytest.approx(0.0, abs=1e-12)


def test_apriori_brownian_terminal_default_constants(small_ensemble):
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), small_ensemble,
                             bl.BasisSpec(3), p=2.0)
    env = bl.auto_envelope(gen, 2.0, 1)
    cb = bl.compute_constants(2.0, 0.0, 1.0, 0.0, terminal_moment=1.0)
    rep = bl.check_apriori_bounds(sol, env, cb, 2.0, 0, small_ensemble)
    assert rep.prop1_holds and rep.prop2_holds


@pytest.mark.parametrize("t_index, pinned", [
    (0, ("0x1.e7306292f677bp+1", "0x1.1e1847225308cp+14",
         "0x1.6069fb39d5616p+4", "0x1.3e2c9b14c7656p+199")),
    (7, ("0x1.2d9e88e18b3ecp+0", "0x1.7428855ea5ba2p+12",
         "0x1.c276e6e4e8734p+2", "0x1.09b3f6dc007c2p+130")),
    (20, ("0x0.0p+0", "0x1.92f4f611093d4p+9",
          "0x1.e16806c1bfce5p-1", "0x1.e16806c1bfce5p+1")),
])
def test_apriori_bounds_read_the_walked_states_bit_for_bit(small_ensemble,
                                                           t_index, pinned):
    # phi and f are read on one forward walk from t_index.  The pinned bits
    # were recorded when each state was summed on its own from the
    # checkpoint below it, so they show the walk reads the same states.
    gen = bl.example1_generator(2.0)
    sol, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), small_ensemble,
                             bl.BasisSpec(3), p=2.0)
    env = bl.EnvelopeA(psi=bl.auto_envelope(gen, 2.0, 1).psi, lam=1.0,
                       phi=constant_process(0.25),
                       f=abs_brownian_coordinate_process(0))
    cb = bl.compute_constants(2.0, 1.0, 1.0, 0.5, terminal_moment=1.0)
    rep = bl.check_apriori_bounds(sol, env, cb, 2.0, t_index, small_ensemble)
    got = (rep.prop1_lhs, rep.prop1_rhs, rep.prop2_lhs, rep.prop2_rhs)
    assert tuple(x.hex() for x in got) == pinned
    assert rep.prop1_holds and rep.prop2_holds


def test_apriori_collapsed_constant_reports_violation(small_ensemble):
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), small_ensemble,
                             bl.BasisSpec(3), p=2.0)
    env = bl.auto_envelope(gen, 2.0, 1)
    cb = bl.compute_constants(2.0, 0.0, 1.0, 0.0, k_prime_p=1e-6,
                              terminal_moment=1.0)
    rep = bl.check_apriori_bounds(sol, env, cb, 2.0, 0, small_ensemble)
    assert not rep.prop2_holds  # advisory semantics: reported, not raised


# ------------------------------------------------- the checks fold by step

def _random_solution(ens, seed):
    """A step-major (y, z) of ens's shape, as the solver lays it out, with
    some y exactly zero: what the checks read of a solution."""
    rng = np.random.default_rng(seed)
    n, m = ens.grid.N, ens.M
    y = rng.standard_normal((n + 1, m, 1))
    y[:, ::17] = 0.0
    z = rng.standard_normal((n, m, 1, ens.d))
    return bl.DiscreteSolution(y=y.transpose(1, 0, 2), z_source=z.transpose(1, 0, 2, 3),
                               grid=ens.grid)


def _buffered_lemma1(sol, gen, p, t_index, ens):
    """check_lemma1's (lhs, rhs, slack, standard_error) from (M, N) arrays
    of the whole solution, summed over time at the end."""
    grid, m = sol.grid, sol.y.shape[0]
    c_p = p * min(p - 1.0, 1.0) / 2.0
    y_norm = np.linalg.norm(sol.y, axis=2)
    weight = np.zeros_like(y_norm)
    weight[y_norm > 0.0] = y_norm[y_norm > 0.0] ** (p - 2.0)
    zsq = np.sum(sol.z ** 2, axis=(2, 3))
    inner = np.zeros((m, grid.N))
    for i, b_i in ens.forward_states(t_index, grid.N):
        g = eval_generator_batch(gen, grid.times[i], b_i, sol.y[:, i], sol.z[:, i])
        inner[:, i] = np.sum(sol.y[:, i] * g, axis=1)
    rng = slice(t_index, grid.N)
    lhs = y_norm[:, t_index] ** p + c_p * np.sum(weight[:, rng] * zsq[:, rng],
                                                 axis=1) * grid.dt
    rhs = y_norm[:, -1] ** p + p * np.sum(weight[:, rng] * inner[:, rng],
                                          axis=1) * grid.dt
    return (np.mean(lhs), np.mean(rhs), np.mean(rhs - lhs),
            np.std(rhs - lhs) / math.sqrt(m))


def _buffered_apriori(sol, env, cb, p, t_index, ens):
    """check_apriori_bounds' (prop1_rhs, prop2_rhs) from (M, N) arrays of
    the processes and of |y|^p, summed over time at the end."""
    grid, m = sol.grid, sol.y.shape[0]
    rng = slice(t_index, grid.N)
    phi, f_proc = np.empty((m, grid.N)), np.empty((m, grid.N))
    for i, b_i in ens.forward_states(t_index, grid.N):
        phi[:, i] = eval_process(env.phi, b_i)
        f_proc[:, i] = eval_process(env.f, b_i)
    e_sup = bl.analysis.sup_moment(sol.y[:, t_index:], p)
    int_phi_p = np.mean(np.sum(phi[:, rng] ** p, axis=1) * grid.dt)
    int_f_pow = np.mean((np.sum(f_proc[:, rng], axis=1) * grid.dt) ** p)
    prop1_rhs = cb.c_lambda_p_T * (e_sup + bl.eval_modulus(env.psi, e_sup)
                                   + int_phi_p + int_f_pow)
    y_norm = np.linalg.norm(sol.y, axis=2)
    mean_y_p = np.mean(y_norm ** p, axis=0)
    int_psi = np.sum(bl.eval_modulus(env.psi, mean_y_p[rng])) * grid.dt
    m_p = 2.0 * cb.k_prime_p
    prop2_rhs = math.exp(2.0 * cb.k_prime_p * cb.d_lambda_p_theta
                         * (grid.T - grid.times[t_index])) * (
        m_p * np.mean(y_norm[:, -1] ** p) + m_p * int_f_pow + 0.5 * int_phi_p
        + 0.5 * int_psi)
    return prop1_rhs, prop2_rhs


def _peak_bytes(fn):
    """fn's result and the peak of memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start


@pytest.mark.parametrize("t_index", [0, 31, 50])
def test_energy_and_apriori_checks_fold_without_a_buffer(t_index):
    # Each check adds one step's terms to (M,) sums as the walk reaches it.
    # An (M, N) array of one term alone holds 50 slices of M numbers; the
    # folds hold a handful (measured: 1.20 MB and 0.79 MB).  Against the
    # buffered sums, which add in another order, they agree to N round-offs.
    m, n, p = 16384, 50, 3.0
    ens = bl.generate_ensemble(M=m, N=n, d=1, T=1.0, seed=41)
    sol = _random_solution(ens, 42)
    gen = bl.example1_generator(2.0)
    env = bl.EnvelopeA(psi=bl.auto_envelope(gen, p, 1).psi, lam=1.0,
                       phi=constant_process(0.25),
                       f=abs_brownian_coordinate_process(0))
    cb = bl.compute_constants(p, 1.0, 1.0, 0.5, terminal_moment=1.0)
    tol = n * np.finfo(float).eps

    lemma, peak = _peak_bytes(lambda: bl.check_lemma1(sol, gen, p, t_index, ens))
    assert peak < 16 * m * 8
    got = (lemma.lhs, lemma.rhs, lemma.slack, lemma.standard_error)
    scale = max(abs(lemma.lhs), abs(lemma.rhs))
    for x, ref in zip(got, _buffered_lemma1(sol, gen, p, t_index, ens)):
        assert abs(x - ref) <= tol * scale

    bounds, peak = _peak_bytes(
        lambda: bl.check_apriori_bounds(sol, env, cb, p, t_index, ens))
    assert peak < 16 * m * 8
    for x, ref in zip((bounds.prop1_rhs, bounds.prop2_rhs),
                      _buffered_apriori(sol, env, cb, p, t_index, ens)):
        assert x == pytest.approx(ref, rel=tol, abs=0.0)


def test_norms_and_distances_share_the_two_moments():
    rng = np.random.default_rng(4)
    y_a, y_b = rng.standard_normal((2, 64, 6, 2))
    z_a, z_b = rng.standard_normal((2, 64, 5, 2, 3))
    dt, p = 0.2, 3.0
    sup = np.mean(np.max(np.linalg.norm(y_a, axis=2), axis=1) ** p)
    zint = np.mean((np.sum(z_a ** 2, axis=(1, 2, 3)) * dt) ** (p / 2))
    assert bl.analysis.sup_moment(y_a, p) == pytest.approx(sup, rel=1e-14)
    assert bl.analysis.z_moment(z_a, dt, p) == pytest.approx(zint, rel=1e-14)
    assert bl.analysis.lp_norm_arrays(y_a, z_a, dt, p) == (
        bl.analysis.sp_norm(y_a, p), bl.analysis.z_moment(z_a, dt, p) ** (1 / p))
    assert bl.analysis.iterate_distance_arrays(y_a, y_b, z_a, z_b, dt, p) == (
        bl.analysis.sup_moment(y_a - y_b, p),
        bl.analysis.z_moment(z_a - z_b, dt, p))
