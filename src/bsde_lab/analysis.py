"""Solution-space norms, iterate distances, derived constants, the nonlinear
integral recursion, and Monte Carlo checks of the a-priori inequalities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generator import EnvelopeA, GeneratorSpec, eval_generator_batch, eval_process
from .modulus import ModulusSpec, eval_modulus, require_concave
from .paths import PathEnsemble, norms, sum_squares


class BihariOrderingError(RuntimeError):
    """The recursion lost its pointwise ordering beyond quadrature tolerance."""


class BihariBoundError(BihariOrderingError):
    """phi_0 = (T - T1) mod(M) exceeds the uniform bound M."""


class BihariOverflowError(BihariBoundError):
    """phi_0 = (T - T1) mod(M) overflows a double."""


def fold_sup(sup: np.ndarray, step: np.ndarray) -> None:
    """sup = max(sup, |step|) per path, in place: sup (M,), step (M, k)."""
    np.maximum(sup, norms(step), out=sup)


def fold_squares(total: np.ndarray, step: np.ndarray) -> None:
    """total += |step|^2 per path, in place: total (M,), step (M, k, d)."""
    total += sum_squares(step)


def sup_power_mean(sup: np.ndarray, p: float) -> float:
    """E[sup^p] from the per-path sups that fold_sup leaves."""
    return float(np.mean(sup ** p))


def integral_power_mean(total: np.ndarray, dt: float, p: float) -> float:
    """E[(total dt)^(p/2)] from the per-path sums that fold_squares leaves."""
    return float(np.mean((total * dt) ** (p / 2.0)))


def sup_moment(y: np.ndarray, p: float) -> float:
    """E[sup_t |y_t|^p] of y (M, N+1, k).

    The sup is a running max over the time steps, so one (M,) array is all
    the reduction holds, whatever N.
    """
    sup = np.zeros(y.shape[0])
    for i in range(y.shape[1]):
        fold_sup(sup, y[:, i])
    return sup_power_mean(sup, p)


def z_moment(z: np.ndarray, dt: float, p: float) -> float:
    """E[(int |z_t|^2 dt)^(p/2)] of z (M, N, k, d).

    The integral is a running sum over the time steps, one step's squares
    at a time.
    """
    total = np.zeros(z.shape[0])
    for i in range(z.shape[1]):
        fold_squares(total, z[:, i])
    return integral_power_mean(total, dt, p)


def sp_norm(y: np.ndarray, p: float) -> float:
    """S^p norm estimate of y (M, N+1, k)."""
    return sup_moment(y, p) ** (1.0 / p)


def lp_norm_arrays(y: np.ndarray, z: np.ndarray, dt: float, p: float):
    """(sp, mp) norm estimates from raw arrays y (M,N+1,k), z (M,N,k,d)."""
    return sp_norm(y, p), z_moment(z, dt, p) ** (1.0 / p)


def iterate_distance_arrays(y_a, y_b, z_a, z_b, dt: float, p: float):
    """Raw p-power distances: (E[sup |dy|^p], E[(int |dz|^2 dt)^(p/2)]) of
    the differences, each reduced one time step at a time, forward in time.
    picard_solve folds the same steps inside its sweep, backward in time, so
    its dist_z may differ from this one in the last digits."""
    return sup_moment(y_a - y_b, p), z_moment(z_a - z_b, dt, p)


@dataclass(frozen=True)
class BihariCurve:
    """phi_n sampled on [T1, T]; row n of values is phi_n."""

    times: np.ndarray
    values: np.ndarray  # (n_max + 1, len(times))


def bihari_recursion(mod: ModulusSpec, m_bound: float, horizon: float,
                     t_split: float, n_max: int,
                     quad_steps: int = 2048) -> BihariCurve:
    """Iterate phi_{n+1}(t) = int_t^T mod(phi_n(s)) ds from phi_0 = (T-t) mod(M).

    Composite trapezoid on quad_steps panels; the pointwise ordering
    0 <= phi_{n+1} <= phi_n <= M is enforced and its violation beyond
    quadrature tolerance raises BihariOrderingError (BihariBoundError when
    phi_0 exceeds M, BihariOverflowError when it overflows).
    """
    require_concave(mod)
    if not t_split < horizon:
        raise ValueError("needs T1 < T")
    if m_bound < 0.0:
        raise ValueError("the uniform bound must be nonnegative")
    if n_max < 0 or quad_steps < 2:
        raise ValueError("n_max >= 0 and quad_steps >= 2 required")

    try:
        rows = np.empty((n_max + 1, quad_steps + 1))
    except ValueError as exc:  # a shape numpy refuses: more than memory holds
        raise MemoryError(f"Bihari iterates: {exc}") from exc
    times = np.linspace(t_split, horizon, quad_steps + 1)
    h = (horizon - t_split) / quad_steps
    with np.errstate(over="ignore", invalid="ignore"):
        rows[0] = (horizon - times) * eval_modulus(mod, m_bound)
    if not np.all(np.isfinite(rows[0])):
        raise BihariOverflowError(f"phi_0 = (T - T1) mod(M) overflows a double "
                                  f"at M = {m_bound}")
    tol = 1e-9 * max(1.0, float(rows[0].max()))
    if rows[0].max() > m_bound + tol:
        raise BihariBoundError(
            "phi_0 exceeds the uniform bound: (T - T1) mod(M) > M")
    for n in range(n_max):
        vals = eval_modulus(mod, rows[n])
        panel = 0.5 * h * (vals[:-1] + vals[1:])
        nxt = np.concatenate([np.cumsum(panel[::-1])[::-1], [0.0]])
        if np.any(nxt > rows[n] + tol):
            raise BihariOrderingError(
                f"ordering phi_{n + 1} <= phi_{n} violated beyond tolerance")
        rows[n + 1] = np.minimum(nxt, rows[n])
    return BihariCurve(times=times, values=rows)


@dataclass(frozen=True)
class ConstantsBundle:
    p: float
    lam: float
    T: float
    A: float
    k_prime_p: float
    c2: float
    theta: float
    c_p: float
    c_lambda_p_T: float
    d_lambda_p_theta: float
    c1: float
    c3: float
    mu0: float
    m_bound: float
    t1: float


def _check_constant_inputs(p, lam, horizon, growth_a, *positive) -> None:
    if p <= 1.0:
        raise ValueError("needs p > 1")
    if lam < 0.0 or growth_a < 0.0 or horizon <= 0.0:
        raise ValueError("lambda, A must be >= 0 and T > 0")
    if any(c is not None and c <= 0.0 for c in positive):
        raise ValueError("k'_p, c1, c2 and c3 must be positive")


def _exponents(p: float, lam: float, k_prime_p: float, c1, c3):
    """(theta, d, c1, c3): theta = 2^(p+2) k'_p, d = (p-1) theta^(1/(p-1)) +
    p lam^2 / [1 ^ (p-1)], and the growth exponents, which default to
    2 k'_p d.  A power that overflows raises OverflowError."""
    theta = 2.0 ** (p + 2.0) * k_prime_p
    d_lpt = ((p - 1.0) * theta ** (1.0 / (p - 1.0))
             + p * lam ** 2 / min(1.0, p - 1.0))
    return (theta, d_lpt, 2.0 * k_prime_p * d_lpt if c1 is None else c1,
            2.0 * k_prime_p * d_lpt if c3 is None else c3)


def _t1(horizon: float, c1: float, c3: float, growth_a: float) -> float:
    """T1 = max(T - ln2/c1, T - ln2/c3, T - 1/(2A), 0), the term in A only
    when A > 0."""
    candidates = [horizon - math.log(2.0) / c1, horizon - math.log(2.0) / c3, 0.0]
    if growth_a > 0.0:
        candidates.append(horizon - 1.0 / (2.0 * growth_a))
    return max(candidates)


def _overflow(p: float, horizon: float, lam: float, terminal_moment: float,
              h3_moment: float) -> OverflowError:
    """The overflow of the derived constants, naming its causes: a moment
    that is not finite, a lambda whose square overflows, else c3 T."""
    causes = [f"{name} is not finite" for name, moment in (
        ("E|xi|^p", terminal_moment),
        ("E[(int |g(t,0,0)| dt)^p]", h3_moment)) if not math.isfinite(moment)]
    if math.isinf(lam * lam):
        causes.append(f"reduce the z-Lipschitz constant lambda = {lam}")
    return OverflowError(f"the derived constants overflow at p = {p}, "
                         f"T = {horizon}; "
                         + ("; ".join(causes) or "reduce c3 or the horizon"))


def split_time(p: float, lam: float, horizon: float, growth_a: float,
               k_prime_p: float = 2.0, c1: float | None = None,
               c3: float | None = None, terminal_moment: float = 0.0,
               h3_moment: float = 0.0) -> float:
    """compute_constants' T1, from c1, c3 and A alone: it is defined where
    mu0 = c2 e^(c3 T) (...) overflows at finite moments.  The bound it rests
    on needs both moments finite, so one that is not is compute_constants'
    OverflowError; exponents that leave no local interval below T are
    another."""
    _check_constant_inputs(p, lam, horizon, growth_a, k_prime_p, c1, c3)
    if not (math.isfinite(terminal_moment) and math.isfinite(h3_moment)):
        raise _overflow(p, horizon, lam, terminal_moment, h3_moment)
    try:
        _, _, c1, c3 = _exponents(p, lam, k_prime_p, c1, c3)
    except OverflowError:
        c1 = c3 = math.inf
    t1 = _t1(horizon, c1, c3, growth_a)
    if not t1 < horizon:
        raise OverflowError(f"the growth exponents c1 = {c1}, c3 = {c3} at "
                            f"p = {p}, lambda = {lam} leave no local interval "
                            f"below T = {horizon}")
    return t1


def compute_constants(p: float, lam: float, horizon: float, growth_a: float,
                      k_prime_p: float = 2.0, c1: float | None = None,
                      c3: float | None = None, c2: float | None = None,
                      terminal_moment: float = 0.0,
                      h3_moment: float = 0.0) -> ConstantsBundle:
    """Fill every derived constant by direct substitution.

    c(p) = p [(p-1) ^ 1] / 2, the z-bound prefactor 2^(p+4)(3 + 2 lam^2 T + T^p),
    theta = 2^(p+2) k'_p, d = (p-1) theta^(1/(p-1)) + p lam^2 / [1 ^ (p-1)],
    mu0 = c2 e^(c3 T) (E|xi|^p + E[(int |g(t,0,0)| dt)^p]), M = 2 mu0 + 2 A T,
    T1 = max(T - ln2/c1, T - ln2/c3, T - 1/(2A), 0).  The growth-exponent
    proxies default to c1 = c3 = 2 k'_p d and c2 = 2 k'_p; all are overridable.
    """
    _check_constant_inputs(p, lam, horizon, growth_a, k_prime_p, c1, c2, c3)
    c_p = p * min(p - 1.0, 1.0) / 2.0
    try:
        c_lambda_p_t = 2.0 ** (p + 4.0) * (3.0 + 2.0 * lam ** 2 * horizon
                                          + horizon ** p)
        theta, d_lpt, c1, c3 = _exponents(p, lam, k_prime_p, c1, c3)
        if c2 is None:
            c2 = 2.0 * k_prime_p
        mu0 = c2 * math.exp(c3 * horizon) * (terminal_moment + h3_moment)
        m_bound = 2.0 * mu0 + 2.0 * growth_a * horizon
    except OverflowError:
        m_bound = math.inf
    # m_bound is not finite whenever mu0 is not, and also when 2 mu0 overflows
    if not math.isfinite(m_bound):
        raise _overflow(p, horizon, lam, terminal_moment, h3_moment)
    return ConstantsBundle(p=p, lam=lam, T=horizon, A=growth_a,
                           k_prime_p=k_prime_p, c2=c2, theta=theta, c_p=c_p,
                           c_lambda_p_T=c_lambda_p_t, d_lambda_p_theta=d_lpt,
                           c1=c1, c3=c3, mu0=mu0, m_bound=m_bound,
                           t1=_t1(horizon, c1, c3, growth_a))


def _power_indicator(y_norm: np.ndarray, p: float) -> np.ndarray:
    """|y|^(p-2) 1_{y != 0}, safe at zero for any p > 1."""
    out = np.zeros_like(y_norm)
    pos = y_norm > 0.0
    out[pos] = y_norm[pos] ** (p - 2.0)
    return out


@dataclass(frozen=True)
class Lemma1Report:
    lhs: float
    rhs: float
    slack: float
    standard_error: float
    t_index: int


def check_lemma1(sol, gen: GeneratorSpec, p: float, t_index: int,
                 ens: PathEnsemble) -> Lemma1Report:
    """Expectation form of the energy inequality at one grid time.

    LHS = E|y_t|^p + c(p) E[int_t^T |y|^(p-2) 1 |z|^2 ds], RHS = E|xi|^p +
    p E[int_t^T |y|^(p-2) 1 <y, g> ds]; the stochastic-integral term has zero
    mean and drops out.  Left-endpoint sums match the solver's adapted,
    piecewise-constant z.  slack = RHS - LHS with its pathwise standard error.
    """
    sol.require_ensemble(ens)
    grid = sol.grid
    if not 0 <= t_index <= grid.N:
        raise ValueError("t_index out of range")
    c_p = p * min(p - 1.0, 1.0) / 2.0
    dt = grid.dt
    m = sol.y.shape[0]

    # the two integrals, each step's term added per path as the walk reaches it
    energy, drift = np.zeros(m), np.zeros(m)
    for i, b_i, z_i in sol.z_along(ens.forward_states(t_index, grid.N)):
        y_i = sol.y[:, i]
        g = eval_generator_batch(gen, grid.times[i], b_i, y_i, z_i)
        weight = _power_indicator(np.linalg.norm(y_i, axis=1), p)
        energy += weight * sum_squares(z_i)
        drift += weight * np.sum(y_i * g, axis=1)

    lhs_path = np.linalg.norm(sol.y[:, t_index], axis=1) ** p + c_p * energy * dt
    rhs_path = np.linalg.norm(sol.y[:, -1], axis=1) ** p + p * drift * dt
    slack_path = rhs_path - lhs_path
    return Lemma1Report(lhs=float(np.mean(lhs_path)), rhs=float(np.mean(rhs_path)),
                        slack=float(np.mean(slack_path)),
                        standard_error=float(np.std(slack_path) / math.sqrt(m)),
                        t_index=t_index)


@dataclass(frozen=True)
class AprioriReport:
    """Both sides of the two a-priori moment bounds, advisory only: the true
    prefactors depend on martingale-moment constants the caller supplies."""

    prop1_lhs: float
    prop1_rhs: float
    prop1_holds: bool
    prop2_lhs: float
    prop2_rhs: float
    prop2_holds: bool


def check_apriori_bounds(sol, env: EnvelopeA, cb: ConstantsBundle, p: float,
                         t_index: int, ens: PathEnsemble) -> AprioriReport:
    sol.require_ensemble(ens)
    grid = sol.grid
    if not 0 <= t_index <= grid.N:
        raise ValueError("t_index out of range")
    dt = grid.dt
    m = sol.y.shape[0]

    # per-path sums of phi^p, f and |z|^2, and E|y_t|^p at each step, folded
    # on one forward walk, which the solution's z is read along
    phi_p, f_sum, z_sq, mean_y_p = np.zeros(m), np.zeros(m), np.zeros(m), []
    for i, b_i, z_i in sol.z_along(ens.forward_states(t_index, grid.N)):
        phi_p += eval_process(env.phi, b_i) ** p
        f_sum += eval_process(env.f, b_i)
        fold_squares(z_sq, z_i)
        mean_y_p.append(np.mean(np.linalg.norm(sol.y[:, i], axis=1) ** p))

    e_sup = sup_moment(sol.y[:, t_index:], p)
    int_phi_p = float(np.mean(phi_p * dt))
    int_f_pow = float(np.mean((f_sum * dt) ** p))

    prop1_lhs = integral_power_mean(z_sq, dt, p)
    prop1_rhs = cb.c_lambda_p_T * (e_sup + eval_modulus(env.psi, e_sup)
                                   + int_phi_p + int_f_pow)

    xi_moment = float(np.mean(np.linalg.norm(sol.y[:, -1], axis=1) ** p))
    int_psi = float(np.sum(eval_modulus(env.psi, np.array(mean_y_p))) * dt)
    m_p = 2.0 * cb.k_prime_p
    big_k = 2.0 * cb.k_prime_p * cb.d_lambda_p_theta
    prop2_lhs = e_sup
    prop2_rhs = math.exp(big_k * (grid.T - grid.times[t_index])) * (
        m_p * xi_moment + m_p * int_f_pow + 0.5 * int_phi_p + 0.5 * int_psi)

    return AprioriReport(prop1_lhs=prop1_lhs, prop1_rhs=prop1_rhs,
                         prop1_holds=prop1_lhs <= prop1_rhs,
                         prop2_lhs=prop2_lhs, prop2_rhs=prop2_rhs,
                         prop2_holds=prop2_lhs <= prop2_rhs)
