"""Closed-form reference solutions for validating the numerical solver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analysis
from .paths import PathEnsemble


def _coordinate(j: int, tau: np.ndarray, b: np.ndarray):
    """g = 0, xi = B_T^(j): y = B_t^(j), z = e_j."""
    lead, d = b.shape[:-1], b.shape[-1]
    if not 0 <= j < d:
        raise ValueError(f"coordinate index j = {j} is out of range for d = {d}")
    z = np.zeros(lead + (1, d))
    z[..., 0, j] = 1.0
    return b[..., [j]], z


def _square(tau: np.ndarray, b: np.ndarray):
    """g = 0, xi = |B_T|^2: y = |B_t|^2 + d (T - t), z = 2 B_t."""
    y = np.sum(b * b, axis=-1, keepdims=True) + b.shape[-1] * tau[..., None]
    return y, 2.0 * b[..., None, :]


def _drift(a: float, c: float, v: float, tau: np.ndarray, b: np.ndarray):
    """g = a y + c, xi = v constant, k = 1: z = 0 and the deterministic
    y = e^(a tau) v + c/a (e^(a tau) - 1), or v + c tau at a = 0, with one
    math.exp per time to maturity (np.exp may differ by an ulp)."""
    lead, d = b.shape[:-1], b.shape[-1]
    vals = np.array([v + c * s if abs(a) < 1e-12
                     else (g := math.exp(a * s)) * v + c / a * (g - 1.0)
                     for s in tau.ravel()])
    y = np.broadcast_to(vals.reshape(tau.shape)[..., None], lead + (1,))
    return y.copy(), np.zeros(lead + (1, d))


def match_oracle(gen, term):
    """The closed form (tau, b) -> (y, z) of a GeneratorSpec / TerminalSpec
    pair, or None when the pair has none: the exact solution at Brownian
    values b (..., d) with time to maturity tau, an array that broadcasts
    against b's leading shape, as y (..., 1) and z (..., 1, d)."""
    if gen.family == "zero" and term.kind == "coordinate":
        return partial(_coordinate, term.j)
    if gen.family == "zero" and term.kind == "square_norm":
        return _square
    if (gen.family == "linear" and term.kind == "constant" and gen.k == 1
            and np.size(term.value) == 1 and np.isscalar(gen.a)
            and gen.b == 0.0 and np.isscalar(gen.c)):
        return partial(_drift, gen.a, gen.c, float(np.ravel(term.value)[0]))
    return None


def oracle_paths(closed_form, ens: PathEnsemble):
    """The closed form along every path: y (M, N+1, 1), z (M, N, 1, d), each
    built one time step per row of a step-major buffer, the layout of the
    ensemble and of the solutions, so a comparison subtracts arrays laid out
    alike."""
    y, z = closed_form((ens.grid.T - ens.grid.times)[:, None],
                       ens.all_states().transpose(1, 0, 2))
    return y.transpose(1, 0, 2), z[:-1].transpose(1, 0, 2, 3)


@dataclass(frozen=True)
class OracleErrors:
    sp_error: float
    z_rms_error: float


def compare_to_oracle(sol, closed_form, ens: PathEnsemble,
                      p: float) -> OracleErrors:
    """S^p norm of the pathwise y error plus RMS of the z error over path, step:
    the closed form one time step at a time, on one forward walk of the
    ensemble that the solution's z is read along, folded per path as the
    sweep does."""
    sol.require_ensemble(ens)
    tau = ens.grid.T - ens.grid.times
    m, n = ens.M, ens.grid.N
    if sol.y.shape != (m, n + 1, 1) or sol.z_shape != (m, n, 1, ens.d):
        raise ValueError("solution shape disagrees with the oracle/ensemble")
    sup, total = np.zeros(m), np.zeros(m)
    for i, b_i, z_i in sol.z_along(ens.forward_states(0, n)):
        y_ref, z_ref = closed_form(np.asarray(tau[i]), b_i)
        analysis.fold_sup(sup, sol.y[:, i] - y_ref)
        analysis.fold_squares(total, z_i - z_ref)
    y_ref, _ = closed_form(np.asarray(tau[n]), ens.final_state)
    analysis.fold_sup(sup, sol.y[:, n] - y_ref)
    return OracleErrors(sp_error=analysis.sup_power_mean(sup, p) ** (1.0 / p),
                        z_rms_error=math.sqrt(float(np.mean(total)) / n))
