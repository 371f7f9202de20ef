"""Closed-form reference solutions for validating the numerical solver."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import PathEnsemble

_ORACLE_KINDS = ("martingale_coordinate", "martingale_square", "linear_drift")


@dataclass(frozen=True)
class OracleInstance:
    """A driver/terminal pair with a known discrete solution.

    martingale_coordinate: g = 0, xi = B_T^(j)   -> y = B_t^(j), z = e_j
    martingale_square:     g = 0, xi = |B_T|^2, d = 1 -> y = B_t^2 + (T - t), z = 2 B_t
    linear_drift:          g = a y + c, xi = v constant, k = 1 -> y deterministic, z = 0
    """

    kind: str
    T: float
    j: int = 0
    a: float = 0.0
    c: float = 0.0
    v: float = 1.0

    def __post_init__(self):
        if self.kind not in _ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind '{self.kind}'")
        if self.T <= 0.0:
            raise ValueError("oracle horizon must be positive")


def match_oracle(gen, term, horizon: float) -> OracleInstance | None:
    """The closed form for a GeneratorSpec / TerminalSpec pair on [0, horizon],
    or None when the pair has none."""
    if gen.family == "zero" and term.kind == "coordinate":
        return OracleInstance("martingale_coordinate", T=horizon, j=term.j)
    if gen.family == "zero" and term.kind == "square_norm" and gen.d == 1:
        return OracleInstance("martingale_square", T=horizon)
    if (gen.family == "linear" and term.kind == "constant" and gen.k == 1
            and np.isscalar(gen.a) and gen.b == 0.0 and np.isscalar(gen.c)):
        return OracleInstance("linear_drift", T=horizon, a=gen.a, c=gen.c,
                              v=float(term.value[0]))
    return None


def _drift_value(inst: OracleInstance, tau: float) -> float:
    if abs(inst.a) < 1e-12:
        return inst.v + inst.c * tau
    growth = math.exp(inst.a * tau)
    return growth * inst.v + inst.c / inst.a * (growth - 1.0)


def _closed_form(inst: OracleInstance, tau: np.ndarray, b: np.ndarray):
    """Exact (y, z) at Brownian values b (..., d) with time to maturity tau,
    an array that broadcasts against b's leading shape: y (..., 1), z (..., 1, d)."""
    lead, d = b.shape[:-1], b.shape[-1]
    if inst.kind == "martingale_coordinate":
        if not 0 <= inst.j < d:
            raise ValueError(f"coordinate index j = {inst.j} is out of range "
                             f"for d = {d}")
        z = np.zeros(lead + (1, d))
        z[..., 0, inst.j] = 1.0
        return b[..., [inst.j]], z
    if inst.kind == "martingale_square":
        if d != 1:
            raise ValueError("the squared-norm oracle is one-dimensional")
        return b[..., [0]] ** 2 + tau[..., None], 2.0 * b[..., None, :]
    vals = np.array([_drift_value(inst, s) for s in tau.ravel()])
    y = np.broadcast_to(vals.reshape(tau.shape)[..., None], lead + (1,))
    return y.copy(), np.zeros(lead + (1, d))


def _time_to_maturity(inst: OracleInstance, ens: PathEnsemble) -> np.ndarray:
    if abs(ens.grid.T - inst.T) > 1e-12:
        raise ValueError("ensemble horizon disagrees with the oracle")
    return ens.grid.T - ens.grid.times


def oracle_paths(inst: OracleInstance, ens: PathEnsemble):
    """Oracle evaluated along every path: y (M, N+1, 1), z (M, N, 1, d).

    Both are built one time step per row of a step-major buffer, the layout
    of the ensemble and of the solvers' solutions, so a comparison subtracts
    arrays laid out alike.
    """
    y, z = _closed_form(inst, _time_to_maturity(inst, ens)[:, None],
                        ens.values.transpose(1, 0, 2))
    return y.transpose(1, 0, 2), z[:-1].transpose(1, 0, 2, 3)


@dataclass(frozen=True)
class OracleErrors:
    sp_error: float
    z_rms_error: float


def compare_to_oracle(sol, inst: OracleInstance, ens: PathEnsemble,
                      p: float) -> OracleErrors:
    """S^p norm of the pathwise y error plus RMS of the z error over path, step,
    with the oracle taken one time step at a time."""
    tau = _time_to_maturity(inst, ens)
    m, n = ens.M, ens.grid.N
    if sol.y.shape != (m, n + 1, 1) or sol.z.shape != (m, n, 1, ens.d):
        raise ValueError("solution shape disagrees with the oracle/ensemble")
    sup = np.zeros(m)
    z_sq = np.empty((m, n))  # path-major: the mean sums in the order it always did
    for i in range(n + 1):
        y_ref, z_ref = _closed_form(inst, np.asarray(tau[i]), ens.values[:, i])
        np.maximum(sup, np.linalg.norm(sol.y[:, i] - y_ref, axis=1), out=sup)
        if i < n:
            dz = sol.z[:, i] - z_ref
            dz *= dz
            z_sq[:, i] = np.sum(dz, axis=(1, 2))
    sp_error = float(np.mean(sup ** p)) ** (1.0 / p)
    z_rms = float(np.sqrt(np.mean(z_sq)))
    return OracleErrors(sp_error=sp_error, z_rms_error=z_rms)
