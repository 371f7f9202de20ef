import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bsde_lab as bl
from bsde_lab.generator import GENERATOR_FAMILIES
from bsde_lab.modulus import (CONVERGENT, DIVERGENT, MODULUS_FAMILIES,
                              ModulusShapeError, require_concave)

from conftest import random_concave_tabulated


# ---------------------------------------------------------------- evaluation

def test_linear_eval():
    mod = bl.linear_modulus(3.0, domain_cap=10.0)
    assert bl.eval_modulus(mod, 2.0) == 6.0


def test_example1h_eval_inner_branch():
    mod = bl.example1_h_modulus(2.0, delta=math.exp(-2))
    assert bl.eval_modulus(mod, math.exp(-4)) == pytest.approx(
        2.0 * math.exp(-4), rel=1e-14)


def test_example1h_eval_tangent_branch():
    p, delta = 2.0, math.exp(-2)
    mod = bl.example1_h_modulus(p, delta=delta)
    h_delta = delta * math.sqrt(2.0)
    slope = math.sqrt(2.0) - 0.5 / math.sqrt(2.0)  # h'(delta-) at p=2
    x = 2.0 * delta
    assert bl.eval_modulus(mod, x) == pytest.approx(
        slope * (x - delta) + h_delta, rel=1e-14)


def _masked_example1h(mod, u):
    """h evaluated branch by branch on the masked entries of u, each branch
    on its own entries only: the bit-level reference."""
    out = np.zeros_like(u)
    small = (u > 0.0) & (u <= mod.delta)
    big = u > mod.delta
    out[small] = u[small] * (-np.log(u[small])) ** (1.0 / mod.p)
    h_delta = mod.delta * (-math.log(mod.delta)) ** (1.0 / mod.p)
    slope = (-math.log(mod.delta)) ** (1.0 / mod.p) - (1.0 / mod.p) * (
        -math.log(mod.delta)) ** (1.0 / mod.p - 1.0)
    out[big] = slope * (u[big] - mod.delta) + h_delta
    return out


@pytest.mark.parametrize("p, delta", [(2.0, math.exp(-2.0)), (3.0, 0.1),
                                      (1.5, 1e-3)])
def test_example1h_eval_is_bytes_of_the_masked_formula(p, delta):
    # the family evaluates h by index on the entries at or below delta; any
    # layout of u, and entries all on one side of delta, give the masked bytes
    mod = bl.example1_h_modulus(p, delta=delta)
    evaluate = MODULUS_FAMILIES["example1h"].evaluate
    rng = np.random.default_rng(12)
    u = np.concatenate([[0.0, 5e-324, delta, np.nextafter(delta, 0.0),
                         np.nextafter(delta, 1.0), 1e300],
                        rng.uniform(0.0, delta, 50),
                        rng.uniform(delta, 20.0, 50)])
    tiny = np.array([0.0, -0.0, 5e-324, 1e-310, np.finfo(float).tiny, delta])
    for arr in (u, u[u > delta], u[u <= delta], u[::3], u.reshape(2, -1),
                u.reshape(2, -1).T, u.reshape(2, -1)[:, ::-3], tiny):
        before = arr.tobytes()
        read_only = arr.view()
        read_only.flags.writeable = False  # the family writes nothing into u
        ref = _masked_example1h(mod, arr)
        for got in (evaluate(mod, read_only), bl.eval_modulus(mod, read_only)):
            assert got.shape == arr.shape
            assert got.tobytes() == ref.tobytes()
        assert arr.tobytes() == before


@pytest.mark.parametrize("mod", [
    bl.linear_modulus(2.5),
    bl.power_modulus(1.3, 0.5),
    bl.example1_h_modulus(3.0),
    bl.tabulated_modulus([(0.0, 0.0), (0.5, 0.4), (1.0, 0.6)]),
])
def test_zero_maps_to_zero(mod):
    assert bl.eval_modulus(mod, 0.0) == 0.0


def _eval_peak(evaluate, mod, u):
    """The tracemalloc peak of one evaluate(mod, u), in bytes."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        evaluate(mod, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_example1h_scratch_on_zeros_is_that_of_real_iterates():
    # h(0) = 0 is written through a mask: an all-zero u, a solve's starting
    # iterate, gathers nothing by index, so its scratch is at most that of
    # |y| on an example1 solve's iterate plus two boolean masks
    ens = bl.generate_ensemble(M=16384, N=10, d=1, T=1.0, seed=20240817)
    sol, _ = bl.picard_solve(bl.example1_generator(2.0),
                             bl.coordinate_terminal(0), ens, bl.BasisSpec(3))
    mod = bl.example1_h_modulus(2.0)
    evaluate = MODULUS_FAMILIES["example1h"].evaluate
    real = np.abs(sol.y[:, ens.grid.N // 2, 0])
    assert 0.0 < np.mean(real <= mod.delta) < 0.5
    zeros = np.zeros(ens.M)
    assert evaluate(mod, zeros).tobytes() == zeros.tobytes()
    assert _eval_peak(evaluate, mod, zeros) <= \
        _eval_peak(evaluate, mod, real) + 2 * ens.M


def test_negative_argument_rejected():
    # the sign is checked before finiteness, so a negative entry is named
    # whatever non-finite entries lie beside it
    for bad in (-0.1, -math.inf, [0.2, -5e-324], [math.nan, -1.0],
                [-1.0, math.nan], [math.inf, -1.0]):
        with pytest.raises(ValueError,
                           match="^modulus argument must be nonnegative$"):
            bl.eval_modulus(bl.linear_modulus(1.0), bad)


@pytest.mark.parametrize("mod", [
    bl.linear_modulus(2.5),
    bl.power_modulus(1.3, 0.5),
    bl.example1_h_modulus(3.0),
    bl.tabulated_modulus([(0.0, 0.0), (0.5, 0.4), (1.0, 0.6)]),
])
def test_empty_and_zero_dimensional_arguments_accepted(mod):
    for shape in ((0,), (3, 0)):
        assert bl.eval_modulus(mod, np.empty(shape)).shape == shape
    assert isinstance(bl.eval_modulus(mod, np.float64(0.25)), float)
    assert bl.eval_modulus(mod, np.array(0.25)) == bl.eval_modulus(mod, [0.25])[0]


@pytest.mark.parametrize("mod", [
    bl.linear_modulus(1.0),
    bl.example1_h_modulus(2.0),
    bl.tabulated_modulus([(0.0, 0.0), (0.5, 0.4), (1.0, 0.6)]),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_argument_rejected(mod, bad):
    for arg in ([bad, 0.1], bad, [0.0, bad, -0.0]):
        with pytest.raises(ValueError, match="^modulus argument must be finite$"):
            bl.eval_modulus(mod, arg)


def test_tabulated_exact_at_breakpoints_and_linear_beyond():
    mod = bl.tabulated_modulus([(0.0, 0.0), (1.0, 2.0), (2.0, 3.0)])
    assert bl.eval_modulus(mod, 1.0) == 2.0
    assert bl.eval_modulus(mod, 2.0) == 3.0
    # final slope is 1, extended past the last breakpoint
    assert bl.eval_modulus(mod, 3.5) == pytest.approx(4.5, rel=1e-14)


def test_eval_vectorized_matches_scalar():
    mod = bl.example1_h_modulus(2.0)
    us = np.linspace(0.0, 0.9, 17)
    vec = bl.eval_modulus(mod, us)
    assert vec.shape == us.shape
    for u, v in zip(us, vec):
        assert v == bl.eval_modulus(mod, float(u))


def test_example1h_delta_validation():
    with pytest.raises(ValueError):
        bl.example1_h_modulus(2.0, delta=0.9)  # above exp(-1/p)
    with pytest.raises(ValueError):
        bl.example1_h_modulus(0.9)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        bl.tabulated_modulus([(0.0, 0.0)])
    with pytest.raises(ValueError):
        bl.tabulated_modulus([(0.1, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        bl.tabulated_modulus([(0.0, 0.0), (0.5, -1.0)])
    with pytest.raises(ValueError):
        bl.tabulated_modulus([(0.0, 0.0), (0.5, 1.0), (0.5, 2.0)])


# One instance of each builtin family, and the sha256 of its evaluation on
# _PIN_GRID and of osgood_classify(mod, 1.5).increments, both as float64 bytes.
_PINNED = {
    "linear": (bl.linear_modulus(0.5, domain_cap=2.0),
               "08b8bd0b9f871aa8c67568235ac04fd90706d6cd43553d7e3845efa3d49eee8c",
               "9cee6963f8406c69599858fe85d6e7839ed32e352483d8620d9b675114c9f3b6"),
    "power": (bl.power_modulus(2.0, 0.5, domain_cap=2.0),
              "4a204b0ad9102e3308050d987ba561d74cf3c0a4614336a1541934f856209572",
              "c510006b0690d60a7943d1b00a03f5acf429f5e4d7c117ef15acfc9ed5e49b73"),
    "example1h": (bl.example1_h_modulus(3.0, 0.1, domain_cap=2.0),
                  "448e99e296ede3a6dfdd9cfab5d1785423faab959f087b6c4186b6c5d620c924",
                  "9bb798e02cc4ae7f4871f41d8d0ae15e8b82f05da748a2a0efa05c54034df1f0"),
    "tabulated": (bl.tabulated_modulus([(0.0, 0.0), (0.5, 1.0), (2.0, 1.5)]),
                  "f4e7a5c0940e7bc44eef32a960e4268f6d8751615d033401b98d6f5c7e2235ad",
                  "655bb4838bf3bb02686e5fe00bd5eb36ec1e7b94287b46bb0ef36873102734a1"),
}
_PIN_GRID = np.concatenate([np.linspace(0.0, 3.0, 1001),
                            np.geomspace(1e-12, 3.0, 1001)])


@pytest.mark.parametrize("family", sorted(_PINNED))
def test_family_records_are_pinned(family):
    mod, eval_sha, osgood_sha = _PINNED[family]
    grid = _PIN_GRID.copy()
    vals = bl.eval_modulus(mod, grid)
    assert hashlib.sha256(vals.tobytes()).hexdigest() == eval_sha
    assert np.array_equal(grid, _PIN_GRID)
    increments = bl.osgood_classify(mod, 1.5).increments
    assert hashlib.sha256(increments.tobytes()).hexdigest() == osgood_sha


def test_the_decade_rule_keeps_its_bytes():
    # sha256 of the nodes' bytes, then the weights', recorded while the rule
    # was built at import
    nodes, weights = bl.modulus._decade_rule()
    assert nodes.shape == weights.shape == (512,)
    assert hashlib.sha256(nodes.tobytes() + weights.tobytes()).hexdigest() == \
        "22ea5d80d3911d0cbf3b3f035b9ccb27593e10f192c7a891d737232f50ca5350"


def test_pins_cover_every_builtin_family():
    assert sorted(_PINNED) == sorted(bl.modulus.MODULUS_FAMILIES)


# --------------------------------------------------------------- shape check

def test_shape_linear_all_flags():
    rep = bl.check_shape(bl.linear_modulus(1.0, domain_cap=10.0))
    assert rep.all_ok
    assert rep.worst_violation <= 0.0


def test_shape_passes_a_steep_linear_modulus():
    # each defect is relative to the modulus at its point: the round-off of
    # 1e6 u near u = 100 is about 1e-8 absolute
    rep = bl.check_shape(bl.linear_modulus(1e6, 100.0))
    assert rep.all_ok and rep.worst_violation <= 0.0


def test_shape_square_fails_concavity():
    rep = bl.check_shape(bl.power_modulus(1.0, 2.0, domain_cap=10.0))
    assert not rep.is_concave
    assert rep.worst_violation > 0.0


def test_shape_example1h_on_fine_grid():
    rep = bl.check_shape(bl.example1_h_modulus(2.0, delta=math.exp(-2)))
    assert rep.all_ok


def test_require_concave_rejects_a_convex_or_decreasing_modulus():
    for mod in (bl.power_modulus(1.0, 2.0),
                bl.tabulated_modulus([(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)])):
        with pytest.raises(ModulusShapeError, match="must be concave"):
            require_concave(mod)
    assert issubclass(ModulusShapeError, ValueError)
    require_concave(bl.example1_h_modulus(2.0, domain_cap=5.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("family", ["zero", "linear", "example1"])
def test_builtin_default_moduli_meet_the_precondition(family, p):
    gen = GENERATOR_FAMILIES[family].factory(
        **({"a": 0.5, "c": 0.1} if family == "linear" else {}))
    require_concave(GENERATOR_FAMILIES[family].h1_modulus(gen, p, 10.0))
    require_concave(bl.auto_envelope(gen, p, 1).psi)


def test_shape_worst_violation_sign_contract():
    # decreasing tail: fails monotonicity with a positive worst_violation
    mod = bl.tabulated_modulus([(0.0, 0.0), (0.5, 1.0), (1.0, 0.2)])
    rep = bl.check_shape(mod)
    assert not rep.is_nondecreasing
    assert rep.worst_violation > 0.0


# ------------------------------------------------------ osgood classification

def test_osgood_truth_table_builtin():
    assert bl.osgood_classify(bl.linear_modulus(1.0)).classification == DIVERGENT
    assert bl.osgood_classify(
        bl.power_modulus(1.0, 0.5)).classification == CONVERGENT
    h = bl.example1_h_modulus(2.0)
    assert bl.osgood_classify(h, weight_exponent=2.0).classification == DIVERGENT
    assert bl.osgood_classify(h, weight_exponent=3.0).classification == CONVERGENT


def test_osgood_numeric_rules_on_tabulated():
    lin_tab = bl.power_root(bl.linear_modulus(1.0, 4.0), 1.0)
    rep = bl.osgood_classify(lin_tab)
    assert rep.classification == DIVERGENT and rep.rule == "slope"
    sqrt_tab = bl.power_root(bl.power_modulus(1.0, 0.5, 4.0), 1.0)
    rep = bl.osgood_classify(sqrt_tab)
    assert rep.classification == CONVERGENT and rep.rule == "geometric"


def test_osgood_vanishing_modulus_flags_unbounded():
    rep = bl.osgood_classify(bl.linear_modulus(0.0))
    assert rep.classification == DIVERGENT
    assert rep.integrand_unbounded


def test_osgood_sample_curve_monotone():
    rep = bl.osgood_classify(bl.linear_modulus(1.0, 8.0))
    assert rep.eps.shape == rep.integrals.shape == (8,)
    assert np.all(np.diff(rep.integrals) > 0.0)
    # harmonic integral: every decade contributes ln 10
    assert np.allclose(rep.increments, math.log(10.0), rtol=1e-6)


def _decade_edges(u0, decades=8):
    return u0 * 10.0 ** -np.arange(1, decades + 1), u0 * 10.0 ** -np.arange(decades)


@pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
def test_osgood_increments_linear_closed_form(mu):
    rep = bl.osgood_classify(bl.linear_modulus(mu, 4.0))
    assert np.allclose(rep.increments, math.log(10.0) / mu, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("w", [1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_osgood_increments_power_closed_form(alpha, w):
    c = 2.0
    rep = bl.osgood_classify(bl.power_modulus(c, alpha, 3.0), weight_exponent=w)
    lo, hi = _decade_edges(3.0)
    beta = w * (1.0 - alpha)
    exact = (hi ** beta - lo ** beta) / (beta * c ** w)
    assert np.allclose(rep.increments, exact, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("w", [2.0, 3.0])
def test_osgood_increments_example1h_closed_form(w):
    # below delta, u^(w-1)/h(u)^w = 1/(u L^q) with L = -ln u and q = w/p
    delta = math.exp(-2.0)
    h = bl.example1_h_modulus(2.0, delta=delta, domain_cap=delta)
    rep = bl.osgood_classify(h, weight_exponent=w)
    lo, hi = _decade_edges(delta)
    q = w / h.p
    l_lo, l_hi = -np.log(lo), -np.log(hi)
    exact = (np.log(l_lo / l_hi) if q == 1.0
             else (l_lo ** (1.0 - q) - l_hi ** (1.0 - q)) / (1.0 - q))
    assert np.allclose(rep.increments, exact, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("w", [1.0, 2.0])
def test_osgood_increments_match_trapezoid_on_tabulated(w):
    mod = random_concave_tabulated(np.random.default_rng(17))
    rep = bl.osgood_classify(mod, weight_exponent=w)
    lo, hi = _decade_edges(mod.domain_cap)
    for j in range(8):
        s = np.linspace(math.log(lo[j]), math.log(hi[j]), 200_001)
        u = np.exp(s)
        f = (u / bl.eval_modulus(mod, u)) ** w
        ref = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(s)))
        assert rep.increments[j] == pytest.approx(ref, rel=1e-5)


def test_osgood_validation():
    mod = bl.linear_modulus(1.0)
    with pytest.raises(ValueError):
        bl.osgood_classify(mod, weight_exponent=0.5)


def test_h1star_equivalence_on_builtins():
    """Classification of kappa at weight p agrees with the transformed
    modulus at weight 1."""
    p = 2.0
    for kappa in (bl.linear_modulus(1.0), bl.power_modulus(1.0, 0.5),
                  bl.power_modulus(1.0, 1.5), bl.example1_h_modulus(2.0)):
        lhs = bl.osgood_classify(kappa, weight_exponent=p).classification
        rho = bl.power_root(kappa, p)
        rhs = bl.osgood_classify(rho, weight_exponent=1.0).classification
        assert lhs == rhs, kappa.family


# ------------------------------------------------------- linear growth bound

def test_linear_growth_examples():
    assert bl.linear_growth_coefficient(
        bl.linear_modulus(1.0, domain_cap=10.0)) == pytest.approx(10.0 / 11.0)
    assert bl.linear_growth_coefficient(
        bl.power_modulus(1.0, 0.5, domain_cap=10.0)) == pytest.approx(0.5, abs=1e-5)
    assert bl.linear_growth_coefficient(bl.linear_modulus(0.0)) == 0.0


def test_linear_growth_bound_holds_on_grid():
    mod = bl.example1_h_modulus(2.0, domain_cap=5.0)
    a = bl.linear_growth_coefficient(mod)
    us = np.linspace(0.0, 5.0, 1000)
    assert np.all(bl.eval_modulus(mod, us) <= a * (us + 1.0) + 1e-12)


def test_linear_growth_rejects_convex():
    with pytest.raises(ValueError):
        bl.linear_growth_coefficient(bl.power_modulus(1.0, 2.0))


# ------------------------------------------------------------ concave majorant

def test_majorant_of_square_is_chord():
    samples = [(u / 10.0, (u / 10.0) ** 2) for u in range(11)]
    out = bl.concave_majorant(samples)
    assert out.breakpoints == ((0.0, 0.0), (1.0, 1.0))


def test_majorant_of_hinge_is_chord():
    samples = [(u / 10.0, max(0.0, 2.0 * (u / 10.0 - 0.5))) for u in range(11)]
    out = bl.concave_majorant(samples)
    assert out.breakpoints == ((0.0, 0.0), (1.0, 1.0))


def test_majorant_identical_on_concave_input():
    pts = [(0.0, 0.0), (0.25, 0.6), (0.5, 1.0), (1.0, 1.5)]
    out = bl.concave_majorant(pts)
    assert out.breakpoints == tuple(pts)


def test_majorant_flattens_decreasing_tail():
    out = bl.concave_majorant([(0.0, 0.0), (1.0, 5.0), (2.0, 1.0)])
    assert out.breakpoints == ((0.0, 0.0), (1.0, 5.0), (2.0, 5.0))
    rep = bl.check_shape(out)
    assert rep.is_concave and rep.is_nondecreasing


def test_majorant_validation():
    with pytest.raises(ValueError):
        bl.concave_majorant([(0.0, 0.0)])
    with pytest.raises(ValueError):
        bl.concave_majorant([(0.5, 0.0), (0.2, 1.0)])
    with pytest.raises(ValueError):
        bl.concave_majorant([(0.0, 0.0), (1.0, -0.5)])
    with pytest.raises(ValueError):
        bl.concave_majorant([(0.0, 0.1), (1.0, 0.5)])


@given(st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(0.0, 5.0)),
                min_size=2, max_size=30))
def test_majorant_dominates_and_is_idempotent(raw):
    us = np.unique([u for u, _ in raw])
    if us.size < 1:
        return
    samples = [(0.0, 0.0)] + [(float(u), float(v)) for u, (_, v)
                              in zip(us, raw[: us.size])]
    out = bl.concave_majorant(samples)
    for u, v in samples:
        assert bl.eval_modulus(out, u) >= v - 1e-12
    again = bl.concave_majorant(list(out.breakpoints))
    assert again.breakpoints == out.breakpoints


# ------------------------------------------------------------------ transforms

def test_power_root_identity_outcome():
    out = bl.power_root(bl.linear_modulus(1.0), 2.0)
    us = np.linspace(0.0, 1.0, 50)
    assert np.allclose(bl.eval_modulus(out, us), us, atol=1e-12)


def test_h1star_on_linear_is_identity():
    out = bl.power_root(bl.linear_modulus(1.0), 2.0)
    us = np.linspace(0.0, 1.0, 50)
    assert np.allclose(bl.eval_modulus(out, us), us, atol=1e-12)


def test_h1pp_chain_on_linear():
    res = bl.h1pp_to_h1(bl.linear_modulus(1.0), p=2.0, q=2.0)
    us = np.linspace(0.0, 1.0, 50)
    assert np.allclose(bl.eval_modulus(res.modulus, us), 2.0 * us, atol=1e-12)
    assert not res.domination.skipped
    assert res.domination.holds
    assert res.rho2_over_rho1_sup == pytest.approx(1.0, abs=1e-9)


def test_h1pp_skips_domination_when_rho2_vanishes_at_one():
    # identically zero kappa forces rho2(1) = 0; rho_bar degenerates to u
    # and the domination report is skipped with a note
    kappa = bl.tabulated_modulus([(0.0, 0.0), (3.0, 0.0)], domain_cap=3.0)
    res = bl.h1pp_to_h1(kappa, p=2.0, q=2.0)
    assert res.domination.skipped
    us = np.linspace(0.0, 1.0, 20)
    assert np.allclose(bl.eval_modulus(res.modulus, us), us, atol=1e-12)


def test_transform_parameter_validation():
    mod = bl.linear_modulus(1.0)
    with pytest.raises(ValueError):
        bl.power_root(mod, 0.0)
    with pytest.raises(ValueError):
        bl.h1pp_to_h1(mod, p=2.0, q=1.5)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_power_root_preserves_shape(r):
    rng = np.random.default_rng(42)
    for _ in range(5):
        mod = random_concave_tabulated(rng)
        out = bl.power_root(mod, r)
        assert bl.check_shape(out).all_ok


@pytest.mark.parametrize("r", [0.5, 0.75])
def test_power_root_preserves_divergence(r):
    rng = np.random.default_rng(43)
    for _ in range(5):
        mod = random_concave_tabulated(rng)
        assert bl.osgood_classify(mod).classification == DIVERGENT
        out = bl.power_root(mod, r)
        assert bl.osgood_classify(out).classification == DIVERGENT


# -------------------------------------------------------------- serialization

def test_tabulated_csv_round_trip(tmp_path):
    mod = bl.tabulated_modulus([(0.0, 0.0), (0.5, 0.7), (1.5, 1.1)],
                               domain_cap=2.0)
    target = tmp_path / "mod.csv"
    bl.paths.write_csv(target, ["u", "v"], mod.breakpoints)
    back = bl.modulus.load_tabulated_csv(target, domain_cap=2.0)
    assert back.breakpoints == mod.breakpoints
    assert target.read_text().splitlines()[0] == "u,v"


def test_tabulated_csv_is_lf_and_round_trips_17_digits(tmp_path):
    mod = bl.tabulated_modulus([(0.0, 0.0), (0.1, 1.0 / 3.0), (1.5, 0.7)])
    target = tmp_path / "mod.csv"
    bl.paths.write_csv(target, ["u", "v"], mod.breakpoints)
    assert target.read_bytes() == (b"u,v\n0,0\n0.10000000000000001,"
                                   b"0.33333333333333331\n1.5,0.69999999999999996\n")
    assert bl.modulus.load_tabulated_csv(target).breakpoints == mod.breakpoints


class _FailingFile:
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


def test_failed_tabulated_csv_write_leaves_the_old_file(tmp_path, monkeypatch):
    import bsde_lab.paths as paths_module
    mod = bl.tabulated_modulus([(0.0, 0.0), (1.0, 1.0)])
    target = tmp_path / "mod.csv"
    target.write_text("old\n")
    monkeypatch.setattr(paths_module, "open",
                        lambda *args: _FailingFile(open(*args)), raising=False)
    with pytest.raises(OSError, match="no space"):
        bl.paths.write_csv(target, ["u", "v"], mod.breakpoints)
    assert target.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["mod.csv"]


def test_tabulated_modulus_reads_a_csv_path(tmp_path):
    target = tmp_path / "mod.csv"
    target.write_text("u,v\n0,0\n0.5,0.7\n1.5,1.1\n")
    assert bl.tabulated_modulus(csv_path=str(target), domain_cap=2.0) == \
        bl.tabulated_modulus([(0.0, 0.0), (0.5, 0.7), (1.5, 1.1)], domain_cap=2.0)


@pytest.mark.parametrize("kwargs", [{}, {"breakpoints": [(0, 0), (1, 1)],
                                         "csv_path": "mod.csv"}])
def test_tabulated_modulus_takes_exactly_one_source(kwargs):
    with pytest.raises(ValueError, match="exactly one of breakpoints and csv_path"):
        bl.tabulated_modulus(**kwargs)


def test_tabulated_csv_header_required(tmp_path):
    target = tmp_path / "bad.csv"
    target.write_text("a,b\n0,0\n1,1\n")
    with pytest.raises(ValueError):
        bl.modulus.load_tabulated_csv(target)
