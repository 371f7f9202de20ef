import math

import numpy as np
import pytest

import bsde_lab as bl
from bsde_lab.analysis import (BihariOrderingError, iterate_distance_arrays,
                               lp_norm_arrays)
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
    {"k_prime_p": 0.0}, {"k_prime_p": -1.0}, {"k_doubleprime_p": -1.0},
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


def test_apriori_collapsed_constant_reports_violation(small_ensemble):
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), small_ensemble,
                             bl.BasisSpec(3), p=2.0)
    env = bl.auto_envelope(gen, 2.0, 1)
    cb = bl.compute_constants(2.0, 0.0, 1.0, 0.0, k_prime_p=1e-6,
                              terminal_moment=1.0)
    rep = bl.check_apriori_bounds(sol, env, cb, 2.0, 0, small_ensemble)
    assert not rep.prop2_holds  # advisory semantics: reported, not raised


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
