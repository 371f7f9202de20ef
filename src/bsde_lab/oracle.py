"""Closed-form reference solutions for validating the numerical solver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analysis
from .paths import PathEnsemble
from .solver import _ROW_BLOCK


def _coordinate(j: int, tau: np.ndarray, b: np.ndarray):
    """g = 0, xi = B_T^(j): y = B_t^(j), a view of b, and z = e_j, one
    read-only broadcast."""
    lead, d = b.shape[:-1], b.shape[-1]
    if not 0 <= j < d:
        raise ValueError(f"coordinate index j = {j} is out of range for d = {d}")
    e_j = np.zeros(d)
    e_j[j] = 1.0
    return b[..., j:j + 1], np.broadcast_to(e_j, lead + (1, d))


def _square(tau: np.ndarray, b: np.ndarray):
    """g = 0, xi = |B_T|^2: y = |B_t|^2 + d (T - t), z = 2 B_t."""
    y = np.sum(b * b, axis=-1, keepdims=True) + b.shape[-1] * tau[..., None]
    return y, 2.0 * b[..., None, :]


def _drift(a: float, c: float, v: float, tau: np.ndarray, b: np.ndarray):
    """g = a y + c, xi = v constant, k = 1: z = 0 and the deterministic
    y = e^(a tau) v + c/a (e^(a tau) - 1), or v + c tau at a = 0, with one
    math.exp per time to maturity (np.exp may differ by an ulp).  Both are
    read-only broadcasts."""
    lead, d = b.shape[:-1], b.shape[-1]
    vals = np.array([v + c * s if abs(a) < 1e-12
                     else (g := math.exp(a * s)) * v + c / a * (g - 1.0)
                     for s in tau.ravel()])
    y = np.broadcast_to(vals.reshape(tau.shape)[..., None], lead + (1,))
    return y, np.broadcast_to(0.0, lead + (1, d))


def match_oracle(gen, term):
    """The closed form (tau, b) -> (y, z) of a GeneratorSpec / TerminalSpec
    pair, or None when the pair has none: the exact solution at Brownian
    values b (..., d) with time to maturity tau, an array that broadcasts
    against b's leading shape, as y (..., 1) and z (..., 1, d).  Either may
    be a read-only view of b or a broadcast: a closed form never writes into
    b, and nothing writes into what it returns."""
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
    """The closed form along every path: y (M, N+1, 1), z (M, N, 1, d), of
    every step at once on one step-major array of the states, the layout of
    the ensemble and of the solutions, so a comparison subtracts arrays laid
    out alike.  Either may be a view of that array or a broadcast, as the
    closed form returns it."""
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
    sweep does, one block of _ROW_BLOCK paths at a time.  The folds are per
    path, so the errors do not depend on the block."""
    sol.require_ensemble(ens)
    if sol.y.shape[2] != 1:
        raise ValueError(f"the closed forms have k = 1, but the solution's y "
                         f"has shape {sol.y.shape}")
    tau = ens.grid.T - ens.grid.times
    m, n = ens.M, ens.grid.N
    sup, total = np.zeros(m), np.zeros(m)
    blocks = [slice(lo, lo + _ROW_BLOCK) for lo in range(0, m, _ROW_BLOCK)]
    for i, b_i, z_i in sol.z_along(ens.forward_states(0, n)):
        for rows in blocks:
            y_ref, z_ref = closed_form(np.asarray(tau[i]), b_i[rows])
            analysis.fold_sup(sup[rows], sol.y[rows, i] - y_ref)
            analysis.fold_squares(total[rows], z_i[rows] - z_ref)
    for rows in blocks:
        y_ref, _ = closed_form(np.asarray(tau[n]), ens.final_state[rows])
        analysis.fold_sup(sup[rows], sol.y[rows, n] - y_ref)
    return OracleErrors(sp_error=analysis.sup_power_mean(sup, p) ** (1.0 / p),
                        z_rms_error=math.sqrt(float(np.mean(total)) / n))
