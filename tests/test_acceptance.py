"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The heavy fixtures (the reference ensemble and the Example-1 solves) are
shared across criteria.
"""

import json
import math
import time

import numpy as np
import pytest

import bsde_lab as bl
from bsde_lab.cli import parse_config, run
from bsde_lab.modulus import CONVERGENT, DIVERGENT

from conftest import random_concave_tabulated

SEED = 20240817
BASIS = bl.BasisSpec(degree=3)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {name}: {tag}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


@pytest.fixture(scope="module")
def ensemble():
    return bl.generate_ensemble(M=2 ** 14, N=50, d=1, T=1.0, seed=SEED)


@pytest.fixture(scope="module")
def martingale_run(ensemble):
    gen = bl.zero_generator(1)
    term = bl.coordinate_terminal(0)
    start = time.perf_counter()
    sol, rep = bl.picard_solve(gen, term, ensemble, BASIS, p=2.0)
    elapsed = time.perf_counter() - start
    return sol, rep, elapsed


@pytest.fixture(scope="module")
def example1_run(ensemble):
    gen = bl.example1_generator(p=2.0)
    sol, rep = bl.picard_solve(gen, bl.coordinate_terminal(0), ensemble,
                               BASIS, p=2.0, tol=1e-6, max_iter=25)
    return gen, sol, rep


def test_criterion_01_martingale_oracle(ensemble, martingale_run):
    sol, rep, elapsed = martingale_run
    form = bl.match_oracle(bl.zero_generator(1), bl.coordinate_terminal(0))
    errs = bl.compare_to_oracle(sol, form, ensemble, p=2.0)
    ok = errs.sp_error <= 0.05 and errs.z_rms_error <= 0.10 and elapsed <= 60.0
    _verdict(1, "martingale oracle", ok,
             f"sp={errs.sp_error:.4f} z_rms={errs.z_rms_error:.4f} "
             f"time={elapsed:.1f}s")


def test_criterion_02_quadratic_oracle(ensemble):
    gen = bl.zero_generator(1)
    sol, _ = bl.picard_solve(gen, bl.square_norm_terminal(), ensemble, BASIS,
                             p=2.0)
    form = bl.match_oracle(gen, bl.square_norm_terminal())
    errs = bl.compare_to_oracle(sol, form, ensemble, p=2.0)
    y_ref, z_ref = bl.oracle.oracle_paths(form, ensemble)
    ref_norm, _ = bl.analysis.lp_norm_arrays(y_ref, z_ref, ensemble.grid.dt,
                                             2.0)
    rel = errs.sp_error / ref_norm
    _verdict(2, "quadratic oracle", rel <= 0.05, f"relative sp error={rel:.4f}")


def test_criterion_03_linear_drift_oracle(ensemble):
    gen = bl.linear_generator(a=0.5, b=0.0, c=0.2, k=1)
    sol, rep = bl.picard_solve(gen, bl.constant_terminal(1.0), ensemble,
                               BASIS, p=2.0, tol=1e-4)
    target = math.exp(0.5) + 0.4 * (math.exp(0.5) - 1.0)
    y0 = float(np.mean(sol.y[:, 0, 0]))
    ok = (abs(y0 - target) / target <= 0.02
          and rep.converged and rep.iterations <= 10)
    _verdict(3, "linear drift oracle", ok,
             f"y0={y0:.5f} target={target:.5f} iters={rep.iterations}")


def test_criterion_04_example1_contraction(ensemble):
    gen = bl.example1_generator(p=2.0)
    _, rep = bl.picard_solve(gen, bl.coordinate_terminal(0), ensemble, BASIS,
                             p=2.0, tol=1e-12, max_iter=6)
    dy = rep.dist_y
    nonincreasing = all(dy[i] >= dy[i + 1] for i in range(1, 4))
    contracted = dy[4] <= 0.1 * dy[0]
    _verdict(4, "fixed-point contraction", nonincreasing and contracted,
             f"dist_y(1)={dy[0]:.3e} dist_y(5)={dy[4]:.3e}")


def test_criterion_05_uniqueness(ensemble, example1_run):
    gen, sol_zero, _ = example1_run
    sol_one, _ = bl.picard_solve(gen, bl.coordinate_terminal(0), ensemble,
                                 BASIS, p=2.0, tol=1e-6, max_iter=25,
                                 init=1.0)
    dy, _ = bl.analysis.iterate_distance_arrays(
        sol_zero.y, sol_one.y, sol_zero.z, sol_one.z, sol_zero.grid.dt, 2.0)
    s2_dist = math.sqrt(dy)

    def norm_se(sol):
        sup = np.max(np.abs(sol.y[:, :, 0]), axis=1) ** 2
        se_mean = float(np.std(sup) / math.sqrt(sup.size))
        return se_mean / (2.0 * math.sqrt(float(np.mean(sup))))

    bound = 3.0 * max(norm_se(sol_zero), norm_se(sol_one))
    _verdict(5, "uniqueness across initializations", s2_dist <= bound,
             f"s2 distance={s2_dist:.2e} bound={bound:.2e}")


def test_criterion_06_bihari(ensemble):
    lin = bl.linear_modulus(1.0, domain_cap=2.0)
    curve = bl.bihari_recursion(lin, m_bound=1.0, horizon=1.0, t_split=0.0,
                                n_max=10)
    factorial_dev = max(abs(curve.values[n, 0] - 1.0 / math.factorial(n + 1))
                        for n in range(11))

    gen = bl.example1_generator(p=2.0)
    h = bl.example1_h_modulus(2.0, domain_cap=5.0)
    chain = bl.power_root(h, 2.0)
    growth_a = bl.linear_growth_coefficient(chain)
    xi = ensemble.final_state[:, 0]
    cb = bl.compute_constants(
        2.0, bl.estimate_lipschitz_z(gen, ensemble).analytic, 1.0, growth_a,
        terminal_moment=float(np.mean(xi ** 2)),
        h3_moment=bl.check_h3(gen, ensemble, 2.0).estimate)
    curve2 = bl.bihari_recursion(chain, m_bound=cb.m_bound, horizon=1.0,
                                 t_split=cb.t1, n_max=60)
    at_t1 = curve2.values[:, 0]
    monotone = bool(np.all(np.diff(at_t1) <= 1e-12))
    ok = factorial_dev <= 1e-6 and monotone and at_t1[60] <= 1e-3
    _verdict(6, "integral recursion", ok,
             f"factorial dev={factorial_dev:.1e} phi_60(T1)={at_t1[60]:.1e}")


def test_criterion_07_osgood_truth_table():
    checks = [
        bl.osgood_classify(bl.linear_modulus(1.0)).classification == DIVERGENT,
        bl.osgood_classify(bl.power_modulus(1.0, 0.5)).classification == CONVERGENT,
        bl.osgood_classify(bl.example1_h_modulus(2.0),
                           weight_exponent=2.0).classification == DIVERGENT,
        bl.osgood_classify(bl.example1_h_modulus(2.0),
                           weight_exponent=3.0).classification == CONVERGENT,
    ]
    _verdict(7, "integral divergence truth table", all(checks),
             f"{sum(checks)}/4 classifications correct")


def test_criterion_08_power_root_properties():
    rng = np.random.default_rng(SEED)
    moduli = [random_concave_tabulated(rng) for _ in range(50)]
    shape_ok = all(
        bl.check_shape(bl.power_root(mod, r)).all_ok
        for mod in moduli for r in (1.5, 2.0, 3.0))
    divergence_ok = all(
        bl.osgood_classify(bl.power_root(mod, r)).classification == DIVERGENT
        for mod in moduli for r in (0.5, 0.75)
        if bl.osgood_classify(mod).classification == DIVERGENT)
    _verdict(8, "power-root transform properties", shape_ok and divergence_ok,
             "150 shape checks, 100 divergence checks")


def test_criterion_09_energy_inequality(ensemble, martingale_run,
                                        example1_run):
    sol_z, _, _ = martingale_run
    gen_z = bl.zero_generator(1)
    identity_ok = True
    details = []
    for t_index in (0, 25):
        rep = bl.check_lemma1(sol_z, gen_z, 2.0, t_index, ensemble)
        identity_ok &= abs(rep.slack) <= 3.0 * rep.standard_error
        details.append(f"t{t_index}: slack={rep.slack:.4f} se={rep.standard_error:.4f}")
    gen_e, sol_e, _ = example1_run
    inequality_ok = True
    for t_index in (0, 25):
        rep = bl.check_lemma1(sol_e, gen_e, 2.0, t_index, ensemble)
        inequality_ok &= rep.slack >= -3.0 * rep.standard_error
    _verdict(9, "energy inequality in expectation",
             identity_ok and inequality_ok, "; ".join(details))


def test_criterion_10_constants_exact():
    cb = bl.compute_constants(2.0, 0.0, 1.0, 0.0)
    exact = cb.c_p == 1.0 and cb.c_lambda_p_T == 256.0
    cb2 = bl.compute_constants(2.0, 0.0, 2.0, 0.5, c1=math.log(2.0),
                               c3=math.log(2.0))
    exact = exact and cb2.t1 == 1.0
    _verdict(10, "constants by substitution", exact,
             f"c_p={cb.c_p} c_lambda={cb.c_lambda_p_T} t1={cb2.t1}")


def test_criterion_11_determinism(tmp_path):
    doc = {
        "paths": {"M": 2 ** 14, "N": 50, "d": 1, "T": 1.0, "seed": SEED},
        "solver": {"p": 2.0, "basis_degree": 3,
                   "deterministic_reduction": True},
        "generator": {"family": "zero", "k": 1},
        "terminal": {"kind": "coordinate", "params": {"j": 0}},
        "output_dir": str(tmp_path / "a"),
    }
    names = ("solution.bsol", "picard_report.csv", "oracle_errors.csv",
             "solution.csv")
    for run_dir in ("a", "b"):
        doc["output_dir"] = str(tmp_path / run_dir)
        cfg = parse_config(json.dumps(doc))
        assert [run(cmd, cfg) for cmd in
                ("solve", "oracle-compare", "solution-csv")] == [0, 0, 0]

    identical = all(
        (tmp_path / "a" / name).read_bytes() ==
        (tmp_path / "b" / name).read_bytes()
        for name in names)
    _verdict(11, "byte-identical reruns", identical, ", ".join(names))
