"""BSDE generators g(t, B_t, y, z) and sampled checks of the driver hypotheses.

Randomness in a generator enters only through the current Brownian value, so
every builtin family is a deterministic function of (t, B_t, y, z).  A
user-defined driver is one more DriverFamily record in GENERATOR_FAMILIES.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .modulus import (ModulusSpec, eval_modulus, example1_h_modulus, linear_modulus,
                      power_root, require_concave)
from .paths import DimensionError, PathEnsemble, sum_squares

@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    k: int = 1
    a: float | tuple = 0.0
    b: float = 0.0
    c: float | tuple = 0.0
    p: float = 2.0
    delta: float = math.exp(-2.0)

    def __post_init__(self):
        if self.family not in GENERATOR_FAMILIES:
            raise ValueError(f"unknown generator family '{self.family}'")
        if self.k < 1:
            raise ValueError("generator dims must be >= 1")


def zero_generator(k: int = 1) -> GeneratorSpec:
    return GeneratorSpec("zero", k=k)


def linear_generator(a: float | list = 0.0, b: float = 0.0, c: float | list = 0.0,
                     k: int = 1) -> GeneratorSpec:
    """g = a y + b |z| + c with scalar or k-by-k a and constant c in R^k."""
    if not np.isscalar(a):
        a = tuple(tuple(float(x) for x in row) for row in np.asarray(a, dtype=float))
        if np.asarray(a).shape != (k, k):
            raise ValueError("matrix coefficient a must be k-by-k")
    else:
        a = float(a)
    if not np.isscalar(c):
        c = tuple(float(x) for x in np.asarray(c, dtype=float))
        if len(c) != k:
            raise ValueError("constant term c must live in R^k")
    else:
        c = float(c)
    return GeneratorSpec("linear", k=k, a=a, b=float(b), c=c)


def example1_generator(p: float = 2.0, delta: float | None = None) -> GeneratorSpec:
    """g = h(|y|) + |z| + |B_t| with the logarithmic modulus h; scalar (k = 1)."""
    h = example1_h_modulus(p, delta)  # validates (p, delta)
    return GeneratorSpec("example1", k=1, p=h.p, delta=h.delta)


def _frobenius(z: np.ndarray) -> np.ndarray:
    """Per-path norm of z (M, ...), its square root taken in place."""
    total = sum_squares(z)
    return np.sqrt(total, out=total)


def eval_generator_batch(gen: GeneratorSpec, t, brownian: np.ndarray,
                         y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized driver evaluation over a batch of states.

    brownian (M, d), y (M, k), z (M, k, d) -> (M, k).  t may be a scalar or an
    (M,) array; builtin families do not depend on it directly.
    """
    m, d = brownian.shape[0], brownian.shape[-1]
    if brownian.shape != (m, d) or y.shape != (m, gen.k) or z.shape != (m, gen.k, d):
        raise ValueError("dimension mismatch between generator and batch arrays")
    out = GENERATOR_FAMILIES[gen.family].evaluate(gen, t, brownian, y, z)
    if out.shape != (m, gen.k):
        raise ValueError(f"generator family '{gen.family}' returned wrong shape")
    return out


def _eval_linear(gen, t, brownian, y, z):
    out = gen.a * y if np.isscalar(gen.a) else y @ np.asarray(gen.a).T
    return out + gen.b * _frobenius(z)[:, None] + np.asarray(gen.c, dtype=float)


@cache
def _example1_h(p: float, delta: float) -> ModulusSpec:
    """example1's h, built and validated once per (p, delta)."""
    return example1_h_modulus(p, delta)


def _eval_example1(gen, t, brownian, y, z):
    out = eval_modulus(_example1_h(gen.p, gen.delta), np.abs(y[:, 0]))
    out += _frobenius(z)
    out += _frobenius(brownian)
    return out[:, None]


# The sampling box of every sampled check: _SAMPLE_COUNT uniform draws from
# [0, T] x [-s sqrt(T), s sqrt(T)]^d x [-R, R]^k x [-R, R]^(k d), with T and d
# those of the ensemble, s = _BROWNIAN_SCALE and R = SAMPLE_RADIUS.  They come
# from Philox(key = the ensemble's seed + 1): key = seed is the substream of
# the ensemble's path 0.
SAMPLE_RADIUS = 5.0
_BROWNIAN_SCALE = 3.0
_SAMPLE_COUNT = 8192


def _box_rng(ens: PathEnsemble) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(key=ens.seed + 1))


def _draw_box(ens: PathEnsemble):
    """(rng, t, brownian): the box's times and Brownian values, and the
    generator that draws the rest of the box."""
    rng = _box_rng(ens)
    horizon = ens.grid.T
    t = rng.uniform(0.0, horizon, _SAMPLE_COUNT)
    b_half = _BROWNIAN_SCALE * math.sqrt(horizon)
    brownian = rng.uniform(-b_half, b_half, (_SAMPLE_COUNT, ens.d))
    return rng, t, brownian


def _auto_tol(gen: GeneratorSpec, mod: ModulusSpec | None) -> float:
    if mod is not None and mod.family == "tabulated":
        # piecewise-linear chords undercut a strictly concave modulus by ~1e-4
        return 1e-3
    # a family that states its constants is a closed form, exact to round-off
    return 1e-9 if GENERATOR_FAMILIES[gen.family].lipschitz_z is not None else 1e-6


@dataclass(frozen=True)
class H1Report:
    max_ratio: float
    witness: dict
    passed: bool
    tol: float


# a sampled check reports an overflow as the non-finite value it leaves
@np.errstate(over="ignore", invalid="ignore")
def check_h1(gen: GeneratorSpec, mod: ModulusSpec, p: float,
             ens: PathEnsemble) -> H1Report:
    """Sampled test of |g(y1,z) - g(y2,z)|^p <= mod(|y1 - y2|^p) (1 + _auto_tol).

    Returns the largest observed ratio and its witness; a vanishing modulus
    against a nonzero numerator reports ratio = +inf.
    """
    if p <= 1.0:
        raise ValueError("check_h1 needs p > 1")
    tol = _auto_tol(gen, mod)
    rng, t, brownian = _draw_box(ens)
    n = _SAMPLE_COUNT
    y1 = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (n, gen.k))
    y2 = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (n, gen.k))
    z = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (n, gen.k, ens.d))

    g1 = eval_generator_batch(gen, t, brownian, y1, z)
    g2 = eval_generator_batch(gen, t, brownian, y2, z)
    num = np.linalg.norm(g1 - g2, axis=1) ** p
    dy = np.linalg.norm(y1 - y2, axis=1)
    den = eval_modulus(mod, dy ** p)

    valid = dy > 0.0
    ratio = np.zeros(n)
    pos = valid & (den > 0.0)
    ratio[pos] = num[pos] / den[pos]
    ratio[valid & (den <= 0.0) & (num > 0.0)] = np.inf

    i = int(np.argmax(ratio))
    witness = {"t": float(t[i]), "brownian": brownian[i].copy(), "y1": y1[i].copy(),
               "y2": y2[i].copy(), "z": z[i].copy(), "ratio": float(ratio[i])}
    max_ratio = float(ratio[i])
    return H1Report(max_ratio, witness, max_ratio <= 1.0 + tol, tol)


@dataclass(frozen=True)
class LipschitzZReport:
    sampled: float
    analytic: float | None


@np.errstate(over="ignore", invalid="ignore")
def estimate_lipschitz_z(gen: GeneratorSpec,
                         ens: PathEnsemble) -> LipschitzZReport:
    """Sampled max of |g(y,z1) - g(y,z2)| / |z1 - z2|, and the exact one if known."""
    rng, t, brownian = _draw_box(ens)
    n = _SAMPLE_COUNT
    y = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (n, gen.k))
    z1 = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (n, gen.k, ens.d))
    z2 = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (n, gen.k, ens.d))

    g1 = eval_generator_batch(gen, t, brownian, y, z1)
    g2 = eval_generator_batch(gen, t, brownian, y, z2)
    dz = _frobenius(z1 - z2)
    valid = dz > 0.0
    ratio = np.linalg.norm(g1 - g2, axis=1)[valid] / dz[valid]
    sampled = float(np.max(ratio)) if ratio.size else 0.0
    exact = GENERATOR_FAMILIES[gen.family].lipschitz_z
    return LipschitzZReport(sampled, None if exact is None else exact(gen))


@dataclass(frozen=True)
class H3Report:
    """Monte Carlo estimate of E[(int_0^T |g(t, 0, 0)| dt)^p].

    Finiteness cannot be certified by sampling; `unstable` flags non-finite
    estimates, and those that move by more than half on the first half paths.
    """

    estimate: float
    standard_error: float
    half_estimate: float
    unstable: bool


@np.errstate(over="ignore", invalid="ignore")
def check_h3(gen: GeneratorSpec, ens: PathEnsemble, p: float) -> H3Report:
    """The trapezoid rule on the grid, each step's panel added to one
    per-path running sum as the forward walk reaches it."""
    grid, times = ens.grid, ens.grid.times
    y0 = np.zeros((ens.M, gen.k))
    z0 = np.zeros((ens.M, gen.k, ens.d))
    total, prev = np.zeros(ens.M), None
    for i, b_i in ens.forward_states():
        g = np.linalg.norm(eval_generator_batch(gen, times[i], b_i, y0, z0), axis=1)
        if prev is not None:
            total += grid.dt * (prev + g) / 2.0
        prev = g
    per_path = total ** p
    estimate = float(np.mean(per_path))
    se = float(np.std(per_path) / math.sqrt(ens.M))
    half = float(np.mean(per_path[: max(1, ens.M // 2)]))
    unstable = not math.isfinite(estimate) or \
        abs(half - estimate) > 0.5 * max(abs(estimate), 1e-300)
    return H3Report(estimate, se, half, unstable)


@dataclass(frozen=True)
class ProcessSpec:
    """Descriptor for the nonnegative envelope processes phi_t and f_t."""

    kind: str = "zero"
    value: float = 0.0
    index: int = 0

    def __post_init__(self):
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"unknown process kind '{self.kind}'")
        if self.kind == "constant" and self.value < 0.0:
            raise ValueError("constant process must be nonnegative")


def zero_process() -> ProcessSpec:
    return ProcessSpec("zero")


def constant_process(value: float = 0.0) -> ProcessSpec:
    return ProcessSpec("constant", value=value)


def abs_brownian_coordinate_process(index: int = 0) -> ProcessSpec:
    return ProcessSpec("abs_brownian_coordinate", index=index)


def _eval_abs_brownian_coordinate(spec, brownian):
    d = brownian.shape[1]
    if not 0 <= spec.index < d:
        raise DimensionError(f"abs_brownian_coordinate index = {spec.index} "
                             f"is out of range for d = {d}")
    return np.abs(brownian[:, spec.index])


@dataclass(frozen=True)
class ProcessKind:
    """A process kind: the factory its config block calls and the batched
    evaluate(spec, brownian), which maps Brownian values (n, d) to the
    process at them, (n,): a process is a function of B_t, as a terminal is
    of B_T."""

    factory: Callable[..., ProcessSpec]
    evaluate: Callable[..., np.ndarray]


PROCESS_KINDS = {
    "zero": ProcessKind(zero_process,
                        lambda spec, brownian: np.zeros(len(brownian))),
    "constant": ProcessKind(constant_process, lambda spec, brownian:
                            np.full(len(brownian), spec.value)),
    "abs_brownian_coordinate": ProcessKind(abs_brownian_coordinate_process,
                                           _eval_abs_brownian_coordinate),
}


def eval_process(spec: ProcessSpec, brownian: np.ndarray) -> np.ndarray:
    return PROCESS_KINDS[spec.kind].evaluate(spec, brownian)


@dataclass(frozen=True)
class EnvelopeA:
    """Growth envelope |g| <= psi^(1/p)(|y|^p) + lam |z| + phi_t + f_t."""

    psi: ModulusSpec
    # a config names it lambda, the one key that is not its field's name
    lam: float = field(default=0.0, metadata={"key": "lambda"})
    phi: ProcessSpec = ProcessSpec()
    f: ProcessSpec = ProcessSpec()

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("envelope coefficient lambda must be >= 0")


@dataclass(frozen=True)
class EnvelopeReport:
    max_defect: float
    witness: dict
    passed: bool
    tol: float


@np.errstate(over="ignore", invalid="ignore")
def verify_envelope(gen: GeneratorSpec, env: EnvelopeA, p: float,
                    ens: PathEnsemble) -> EnvelopeReport:
    """Sampled defect |g| - [psi^(1/p)(|y|^p) + lam |z| + phi + f], max over
    draws, with its witness.  The tolerance is relative: a draw passes when its
    defect is at most tol * max(1, bound), so round-off on large values passes."""
    require_concave(env.psi)
    tol = _auto_tol(gen, env.psi)
    rng = _box_rng(ens)
    n = _SAMPLE_COUNT
    path_idx = rng.integers(0, ens.M, n)
    t_idx = rng.integers(0, ens.grid.N + 1, n)
    y = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (n, gen.k))
    z = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, (n, gen.k, ens.d))

    t = ens.grid.times[t_idx]
    brownian = np.empty((n, ens.d))
    for i, b_i in ens.forward_states():
        drawn = t_idx == i
        brownian[drawn] = b_i[path_idx[drawn]]
    g = np.linalg.norm(eval_generator_batch(gen, t, brownian, y, z), axis=1)
    bound = (eval_modulus(env.psi, np.linalg.norm(y, axis=1) ** p) ** (1.0 / p)
             + env.lam * _frobenius(z)
             + eval_process(env.phi, brownian) + eval_process(env.f, brownian))
    defect = g - bound
    i = int(np.argmax(defect))
    witness = {"t": float(t[i]), "path": int(path_idx[i]), "y": y[i].copy(),
               "z": z[i].copy(), "defect": float(defect[i])}
    passed = bool(np.all(defect <= tol * np.maximum(1.0, bound)))
    return EnvelopeReport(float(defect[i]), witness, passed, tol)


def auto_envelope(gen: GeneratorSpec, p: float, d: int) -> EnvelopeA | None:
    """The family's canonical envelope on |y| <= SAMPLE_RADIUS for a
    d-dimensional Brownian motion; None when the family does not state one."""
    envelope = GENERATOR_FAMILIES[gen.family].envelope
    return None if envelope is None else envelope(gen, p, SAMPLE_RADIUS, d)


def _linear_h1(gen: GeneratorSpec, p: float, radius: float) -> ModulusSpec:
    a_norm = abs(gen.a) if np.isscalar(gen.a) else \
        float(np.linalg.norm(np.asarray(gen.a), 2))
    return linear_modulus(a_norm ** p, domain_cap=radius ** p)


def _linear_envelope(gen: GeneratorSpec, p: float, radius: float, d: int) -> EnvelopeA:
    c_norm = abs(gen.c) if np.isscalar(gen.c) else \
        float(np.linalg.norm(np.asarray(gen.c)))
    return EnvelopeA(psi=_linear_h1(gen, p, radius), phi=constant_process(c_norm),
                     lam=GENERATOR_FAMILIES[gen.family].lipschitz_z(gen))


def _example1_h1(gen: GeneratorSpec, p: float, radius: float) -> ModulusSpec:
    h = example1_h_modulus(gen.p, gen.delta, domain_cap=radius)
    return power_root(h, p)


def _example1_envelope(gen: GeneratorSpec, p: float, radius: float, d: int) -> EnvelopeA:
    if d != 1:
        raise DimensionError(f"the example1 envelope bounds |B_t| by |B_t^1|: it "
                             f"needs d = 1, not {d}, or an envelope block")
    return EnvelopeA(psi=_example1_h1(gen, p, radius), lam=1.0,
                     f=abs_brownian_coordinate_process(0))


@dataclass(frozen=True)
class DriverFamily:
    """A driver family: the factory its config block calls, the batched
    evaluate(gen, t, brownian, y, z), and the facts the L^p theorem rests on,
    None where unknown: the exact z-Lipschitz constant lipschitz_z(gen), an H1
    modulus h1_modulus(gen, p, radius) on [0, radius^p] for |y1 - y2| <= radius,
    and a growth envelope(gen, p, radius, d) on |y| <= radius in dimension d.

    reads_y(gen) says whether the driver depends on y at all.  picard_solve
    solves a driver that does not in one sweep per window, so False must be
    exact; True, the default for a family that does not state it, is always
    safe and only costs the sweeps that measure a zero distance."""

    factory: Callable[..., GeneratorSpec]
    evaluate: Callable[..., np.ndarray]
    lipschitz_z: Callable[[GeneratorSpec], float] | None = None
    h1_modulus: Callable[..., ModulusSpec] | None = None
    envelope: Callable[..., EnvelopeA] | None = None
    reads_y: Callable[[GeneratorSpec], bool] = lambda gen: True


GENERATOR_FAMILIES = {
    # H1 moduli: zero takes rho(u) = u (any modulus bounds it; the identity also
    # passes the shape and divergence checks), linear ||a||^p u, and example1
    # the H1* -> H1 transform of its h taken on [0, radius]
    "zero": DriverFamily(
        zero_generator, lambda gen, t, b, y, z: np.zeros((b.shape[0], gen.k)),
        lambda gen: 0.0,
        lambda gen, p, radius: linear_modulus(1.0, domain_cap=radius ** p),
        lambda gen, p, radius, d: EnvelopeA(
            psi=linear_modulus(0.0, domain_cap=radius ** p), lam=0.0),
        reads_y=lambda gen: False),
    "linear": DriverFamily(linear_generator, _eval_linear,
                           lambda gen: abs(gen.b) * math.sqrt(gen.k),
                           _linear_h1, _linear_envelope,
                           reads_y=lambda gen: bool(
                               np.any(np.asarray(gen.a) != 0.0))),
    "example1": DriverFamily(example1_generator, _eval_example1,
                             lambda gen: 1.0, _example1_h1, _example1_envelope,
                             reads_y=lambda gen: True),
}
