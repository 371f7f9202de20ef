"""Backward regression Monte Carlo solver wrapped in a frozen-argument
fixed-point iteration, with optional horizon splitting.

Each sweep solves the linearized equation whose y argument is frozen at the
previous iterate: backward in time, z comes from regressing the martingale
increment of the next value against polynomial features of the Brownian
state, then y is the regressed continuation plus an explicit driver step.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import analysis
from .generator import GENERATOR_FAMILIES, GeneratorSpec, eval_generator_batch
from .paths import DimensionError, DiscreteSolution, PathEnsemble, TimeGrid


class SingularRegressionError(RuntimeError):
    pass


class PicardDivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class TerminalSpec:
    kind: str
    j: int = 0
    value: float | tuple = 0.0

    def __post_init__(self):
        if self.kind not in TERMINAL_KINDS:
            raise ValueError(f"unknown terminal kind '{self.kind}'")


def coordinate_terminal(j: int = 0) -> TerminalSpec:
    return TerminalSpec("coordinate", j=j)


def square_norm_terminal() -> TerminalSpec:
    return TerminalSpec("square_norm")


def constant_terminal(value: float | list = 0.0) -> TerminalSpec:
    """xi = value: a scalar, repeated over the driver's k coordinates, or a
    non-empty vector, which must have k entries."""
    if np.isscalar(value):
        return TerminalSpec("constant", value=float(value))
    if len(value) == 0:
        raise ValueError("constant terminal value needs at least one entry")
    return TerminalSpec("constant", value=tuple(float(v) for v in value))


def _eval_coordinate(term: TerminalSpec, b_T: np.ndarray, k: int) -> np.ndarray:
    if not 0 <= term.j < b_T.shape[1]:
        raise DimensionError(f"terminal coordinate j = {term.j} is out of "
                             f"range for d = {b_T.shape[1]}")
    return b_T[:, [term.j]]


def _eval_constant(term: TerminalSpec, b_T: np.ndarray, k: int) -> np.ndarray:
    return np.tile(term.value, (b_T.shape[0], k if np.isscalar(term.value) else 1))


@dataclass(frozen=True)
class TerminalKind:
    """A terminal kind: the factory its config block calls and the batched
    evaluate(term, b_T, k), which maps B_T (M, d) to xi (M, k) for the
    driver's k."""

    factory: Callable[..., TerminalSpec]
    evaluate: Callable[[TerminalSpec, np.ndarray, int], np.ndarray]


TERMINAL_KINDS = {
    "coordinate": TerminalKind(coordinate_terminal, _eval_coordinate),
    "square_norm": TerminalKind(
        square_norm_terminal,
        lambda term, b_T, k: np.sum(b_T * b_T, axis=1, keepdims=True)),
    "constant": TerminalKind(constant_terminal, _eval_constant),
}


def terminal_values(term: TerminalSpec, ens: PathEnsemble, k: int) -> np.ndarray:
    """Evaluate xi as a function of B_T for a driver of k coordinates, shaped
    (M, k): the one place a terminal can disagree with its driver."""
    out = TERMINAL_KINDS[term.kind].evaluate(term, ens.final_state, k)
    if out.shape != (ens.M, k):
        raise DimensionError(f"terminal kind '{term.kind}' gives xi of shape "
                             f"{out.shape}, but generator.k = {k} needs "
                             f"({ens.M}, {k})")
    return out


@dataclass(frozen=True)
class BasisSpec:
    """Total-degree polynomial basis in the d Brownian coordinates.

    ridge=None picks the default 1e-10 * M at solve time; the basis holds
    C(d + degree, degree) monomials.
    """

    degree: int = 3
    ridge: float | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("basis degree must be >= 0")
        if self.ridge is not None and self.ridge < 0.0:
            raise ValueError("ridge must be nonnegative")

    def size(self, d: int) -> int:
        return comb(d + self.degree, self.degree)

    def ridge_for(self, m: int) -> float:
        return 1e-10 * m if self.ridge is None else self.ridge

    def require_samples(self, m: int, d: int) -> None:
        """ValueError unless m samples exceed the basis size in d dimensions."""
        if m <= self.size(d):
            raise ValueError(f"M = {m} paths must exceed the {self.size(d)} "
                             f"basis functions of degree {self.degree} in d = {d}")


# Paths per block of the regression's reductions.
_ROW_BLOCK = 8192
# Bytes of the features of one slab of paths (_FeatureSlab): held in a core's
# L2 cache while the products of a time step read it.
_SLAB_BYTES = 1 << 20


def _monomial_exponents(d: int, degree: int) -> list[tuple[int, ...]]:
    exps = [tuple(map(c.count, range(d))) for total in range(degree + 1)
            for c in itertools.combinations_with_replacement(range(d), total)]
    return sorted(exps, key=lambda e: (sum(e), e))


@functools.cache
def _product_plan(d: int, degree: int):
    """How polynomial_features fills its rows: (n_basis, linear, products).

    linear holds (row, j) for the row x_j; products holds (row, left, right)
    for each monomial of degree >= 2, whose row is left * right.  For a mixed
    monomial, right is the pure power of its last nonzero coordinate and left
    the monomial without it; a pure power is x_j^(k-1) * x_j.  Both factors
    come earlier in row order.  These are the products, in the same order,
    that multiplying per-coordinate power tables performs, so the features
    are bit for bit theirs.
    """
    exps = _monomial_exponents(d, degree)
    index = {e: row for row, e in enumerate(exps)}
    linear, products = [], []
    for row, e in enumerate(exps):
        if sum(e) == 0:
            continue
        j = max(i for i, ei in enumerate(e) if ei)
        pure = tuple(e[j] if i == j else 0 for i in range(d))
        if sum(e) == 1:
            linear.append((row, j))
        elif e == pure:
            lower = tuple(ei - (i == j) for i, ei in enumerate(e))
            unit = tuple(int(i == j) for i in range(d))
            products.append((row, index[lower], index[unit]))
        else:
            rest = tuple(0 if i == j else ei for i, ei in enumerate(e))
            products.append((row, index[rest], index[pure]))
    return len(exps), tuple(linear), tuple(products)


def polynomial_features(state: np.ndarray, degree: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Monomials of total degree <= degree in the columns of state (M, d): one
    contiguous row each of (n_basis, M), by degree and then exponent tuple.
    They are written into out, when given, and returned."""
    state = np.atleast_2d(state)
    m, d = state.shape
    n_basis, linear, products = _product_plan(d, degree)
    feats = np.empty((n_basis, m)) if out is None else out
    feats[0] = 1.0
    for row, j in linear:
        feats[row] = state[:, j]
    # a power that overflows is left infinite: _blocked_product reports it
    with np.errstate(over="ignore"):
        for row, left, right in products:
            np.multiply(feats[left], feats[right], out=feats[row])
    return feats


class _FeatureSlab:
    """One reused buffer of the features of basis on a slab of m paths in d
    dimensions: a whole number of _ROW_BLOCK paths, at least one, whose
    features fit _SLAB_BYTES, or all m if fewer.  The regression's products
    read a slab while it is still in cache; its slabs are cut at block
    boundaries, so they sum each product over the blocks of the whole."""

    def __init__(self, basis: BasisSpec, d: int, m: int):
        n_basis = basis.size(d)
        blocks = max(1, _SLAB_BYTES // (8 * n_basis * _ROW_BLOCK))
        self.width = max(1, min(m, blocks * _ROW_BLOCK))
        self.basis = basis
        # rows a power of two bytes apart map to the same cache sets, which
        # made the product a third slower at 8192 paths, so the row stride is
        # padded; it is a whole number of 64-byte lines and the buffer starts
        # on a line, which halves the time of a feature's multiply
        stride = -(-self.width // 8) * 8 + 8
        raw = np.empty(n_basis * stride + 8)
        lo = -raw.ctypes.data % 64 // 8
        self._buf = raw[lo:lo + n_basis * stride].reshape(n_basis, stride)
        self._holds = None

    def over(self, states: np.ndarray, key):
        """(rows, features of states[rows]) for each slab of states (m, d),
        in path order.  A slab's features are built unless the buffer holds
        them for the same key, as on a second pass of a one-slab step."""
        for lo in range(0, len(states), self.width):
            rows = slice(lo, lo + self.width)
            block = states[rows]
            feats = self._buf[:, :len(block)]
            if self._holds != (key, lo):
                polynomial_features(block, self.basis.degree, out=feats)
                self._holds = (key, lo)
            yield rows, feats


def _blocked_product(feats: np.ndarray, other: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """Add feats (n_basis, m) @ other (m, c), summed over blocks of _ROW_BLOCK
    paths in a fixed order, into out (n_basis, c), and return it: the one
    summation rule of the regression's moments.  A slab loop adds each
    slab's blocks into one out, in path order, so its sums have the bits of
    the whole-array product.  The sums are not checked: see _finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, feats.shape[1], _ROW_BLOCK):
            out += feats[:, lo:lo + _ROW_BLOCK] @ other[lo:lo + _ROW_BLOCK]
    return out


def _finite(moments: np.ndarray) -> np.ndarray:
    """moments, once summed over every path; FloatingPointError if a sum is
    not finite."""
    if not np.all(np.isfinite(moments)):
        raise FloatingPointError("non-finite regression moments")
    return moments


def _cholesky(gram: np.ndarray, ridge: float):
    """Lower Cholesky factor of the ridge Gram matrix gram + ridge I."""
    try:
        return np.linalg.cholesky(gram + ridge * np.eye(gram.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularRegressionError(
            "normal equations are singular; pass a ridge > 0") from exc


def _solve(factor, rhs: np.ndarray) -> np.ndarray:
    """Coefficients (n_basis, c) of the normal equations of cross-moments
    rhs (n_basis, c), given the Gram factor."""
    return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))


def _fitted(coeffs: np.ndarray, feats: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """Fitted values (M, m) of coefficients (n_basis, m) on feats (n_basis, M),
    written, when out (m, M) is given, into out, whose transpose they are:
    the one product by which the sweep fits y and z and RegressedZ rebuilds z.
    Each value is one path's sum over its own features, so a block of paths
    gets the bits of the whole."""
    # the same sums as feats.T @ coeffs, over twice as fast: BLAS
    # reads feats along its contiguous rows
    return np.matmul(coeffs.T, feats, out=out).T


@dataclass(frozen=True, eq=False)
class RegressedZ:
    """z held as each time step's regression coefficients, coeffs (N, n_basis,
    k d), on the features of basis of the Brownian states of ens: z_i =
    _fitted(coeffs[i], features(B_i)), shaped (M, k, d), the product by which
    the sweep fitted it, so every rebuilt z_i has the bits the sweep had.
    picard_solve makes one of zeros, which its sweeps fill."""

    coeffs: np.ndarray = field(repr=False)
    basis: BasisSpec
    ens: PathEnsemble = field(repr=False)

    @property
    def shape(self) -> tuple:
        """(M, N, k, d), the shape of the per-path z these coefficients give."""
        n, _, kd = self.coeffs.shape
        return self.ens.M, n, kd // self.ens.d, self.ens.d

    def along(self, walk, rows: slice):
        """(i, b_i, z_i) for each (i, b_i) of walk, a walk of the ensemble's
        Brownian states such as forward_states: z_i (m, k, d) of the paths
        in rows, fitted on their states b_i[rows] one feature slab at a
        time.  Each z_i is a view of one (k d, m) buffer, which the next
        step overwrites."""
        m, _, k, d = self.shape
        m = len(range(*rows.indices(m)))
        slab = _FeatureSlab(self.basis, d, m)
        z_t = np.empty((k * d, m))
        for i, b_i in walk:
            for sub, feats in slab.over(b_i[rows], i):
                _fitted(self.coeffs[i], feats, out=z_t[:, sub])
            yield i, b_i, z_t.T.reshape(m, k, d)


@dataclass(frozen=True)
class PicardEntry:
    window: int
    iteration: int
    dist_y: float
    dist_z: float
    sp_norm: float


@dataclass
class PicardReport:
    """Distances of every measured iterate; window_converged holds one flag
    per horizon window, in the order of windows."""

    entries: list[PicardEntry] = field(default_factory=list)
    windows: list[tuple[int, int]] = field(default_factory=list)
    window_converged: list[bool] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.entries)

    @property
    def converged(self) -> bool:
        """True when every window converged."""
        return all(self.window_converged)


def _backward_sweep(gen: GeneratorSpec, y: np.ndarray, z: RegressedZ,
                    i_lo: int, i_hi: int, factors: list,
                    acc: tuple | None = None) -> None:
    """One frozen-argument sweep on grid indices [i_lo, i_hi], in place.

    y[:, i_hi] is the terminal value, and z is the RegressedZ the sweep
    fills, on z.basis and the states of z.ens.  Step i reads the frozen
    y[:, i], which only its own driver term needs, then overwrites y[:, i]
    and z.coeffs[i].  It fits the per-path z_i only where something reads
    it: the driver, unless its family's lipschitz_z is exactly 0, when it is
    given zeros, and acc's z fold.  The z target and the y update are
    inline, as each has one rule.

    factors holds the Gram factor of each time index, or None where none has
    been built; the sweep fills what it builds, so later sweeps of the same
    solve reuse it.

    Each step streams its paths through one _FeatureSlab in two passes: the
    first builds a slab's features and adds its Gram and y cross-moments,
    the second fits the continuation, the residual and the z targets and
    adds the z cross-moments; the z fits, where any, take a third.  A pass
    rebuilds a slab's features unless the slab still holds them, so a
    one-slab step builds them once; keeping them would hold M * n_basis
    numbers per time step.

    acc, when given, is two (M,) arrays (sup_dy, sum_dz) into which each
    step folds, just before it overwrites the old iterate, the change of y
    (a running max of its norm) and the change of z (a running sum of its
    squares), the old z_i refit from z.coeffs[i] on the step's features.

    Every (M, k) and (M, k, d) array a step writes is one buffer of the
    sweep, which each step overwrites through the same ufuncs, in the same
    order, that would build it anew; a z buffer exists only where a step
    fills it.
    """
    ens, basis = z.ens, z.basis
    m, k, d = ens.M, y.shape[2], ens.d
    n_basis = basis.size(d)
    dt, times = ens.grid.dt, ens.grid.times
    c_lip = GENERATOR_FAMILIES[gen.family].lipschitz_z
    reads_z = c_lip is None or c_lip(gen) != 0.0
    zero_z = np.broadcast_to(0.0, (m, k, d))
    slab = _FeatureSlab(basis, d, m)
    gram = np.empty((n_basis, n_basis))
    rhs_y, rhs_z = np.empty((n_basis, k)), np.empty((n_basis, k * d))
    # cont and the fitted z are the transposes of (k, M) and (k d, M)
    # buffers, the layout _fitted writes
    cont_t, resid, y_i = np.empty((k, m)), np.empty((m, k)), np.empty((m, k))
    cont = cont_t.T
    z_targets = np.empty((m, k, d))
    z_flat = z_targets.reshape(m, k * d)
    z_t = np.empty((k * d, m)) if reads_z or acc is not None else None
    if acc is not None:
        sup_dy, sum_dz = acc
        old_z_t, dy = np.empty((k * d, m)), np.empty((m, k))
    for i, b_i in ens.backward_states(i_lo, i_hi):
        y_next, new_factor = y[:, i + 1], factors[i] is None
        gram[...], rhs_y[...], rhs_z[...] = 0.0, 0.0, 0.0
        try:
            for rows, feats in slab.over(b_i, i):
                if new_factor:
                    _blocked_product(feats, feats.T, out=gram)
                _blocked_product(feats, y_next[rows], out=rhs_y)
            if new_factor:
                factors[i] = _cholesky(_finite(gram), basis.ridge_for(m))
            coeffs_y = _solve(factors[i], _finite(rhs_y))
            for rows, feats in slab.over(b_i, i):
                _fitted(coeffs_y, feats, out=cont_t[:, rows])
                # martingale residual keeps the z targets mean-zero given
                # the state
                np.subtract(y_next[rows], cont[rows], out=resid[rows])
                np.multiply(resid[rows, :, None],
                            ens.increments[rows, i, None, :],
                            out=z_targets[rows])
                np.divide(z_targets[rows], dt, out=z_targets[rows])
                _blocked_product(feats, z_flat[rows], out=rhs_z)
            coeffs = _solve(factors[i], _finite(rhs_z))
        except FloatingPointError as exc:
            raise PicardDivergenceError(f"{exc} at time index {i}") from exc
        if z_t is not None:
            for rows, feats in slab.over(b_i, i):
                _fitted(coeffs, feats, out=z_t[:, rows])
                if acc is not None:
                    _fitted(z.coeffs[i], feats, out=old_z_t[:, rows])
            z_i = z_t.T.reshape(m, k, d)
        # an overflow is left non-finite: the check below, or picard_solve's
        # check of the distance folded here, reports it
        with np.errstate(over="ignore", invalid="ignore"):
            g = eval_generator_batch(gen, times[i], b_i, y[:, i],
                                     z_i if reads_z else zero_z)
            np.multiply(g, dt, out=y_i)
            np.add(cont, y_i, out=y_i)
            if not np.all(np.isfinite(y_i)):
                raise PicardDivergenceError(
                    f"non-finite solution values at time index {i}")
            if acc is not None:
                analysis.fold_sup(sup_dy, np.subtract(y_i, y[:, i], out=dy))
                old_z = old_z_t.T.reshape(m, k, d)
                analysis.fold_squares(sum_dz,
                                      np.subtract(z_i, old_z, out=old_z))
        y[:, i] = y_i
        z.coeffs[i] = coeffs


def _window_indices(grid: TimeGrid, t_split: float) -> list[tuple[int, int]]:
    """Backward partition of [0, N] into windows of length about T - t_split."""
    width = grid.T - t_split
    if width <= 0.0:
        raise ValueError("horizon split needs T1 < T")
    step = max(1, round(width / grid.dt))
    bounds = list(range(grid.N, 0, -step))
    if bounds[-1] != 0:
        bounds.append(0)
    return [(lo, hi) for hi, lo in zip(bounds[:-1], bounds[1:])]


def picard_solve(gen: GeneratorSpec, terminal: TerminalSpec, ens: PathEnsemble,
                 basis: BasisSpec, p: float = 2.0, tol: float = 1e-4,
                 max_iter: int = 25, init=None, split: float | None = None):
    """Iterate frozen-argument sweeps until the iterate distance falls below tol.

    dist_y(n) estimates E[sup_t |y^(n+1) - y^n|^p] on the common ensemble; the
    loop stops once it reaches tol or max_iter distances have been measured.
    Exhausting max_iter in a window keeps its last iterate and marks the
    window unconverged, while a distance growing fivefold on two consecutive
    measurements aborts.  init is None for the zero field or a constant
    (scalar or length-k) starting field.  A driver that does not read y
    (DriverFamily.reads_y) is solved by one sweep per window, whose entry
    records dist_y = dist_z = 0 exactly, and init cannot change its solve.
    With split = T1, windows of length T - T1 are processed backward from T,
    each chained to the previous window's boundary values.

    Returns (DiscreteSolution, PicardReport); the solution holds z as a
    RegressedZ, each step's coefficients.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    xi = terminal_values(terminal, ens, gen.k)
    basis.require_samples(ens.M, ens.d)
    k = gen.k

    family = GENERATOR_FAMILIES[gen.family]
    c_lip = family.lipschitz_z
    if c_lip is not None and ens.grid.dt * c_lip(gen) > 0.5:
        warnings.warn("explicit z step may be unstable: dt * C > 0.5",
                      RuntimeWarning)

    vals = np.asarray(0.0 if init is None else init, dtype=float).reshape(-1)
    if vals.size not in (1, k):
        raise ValueError("constant initial field must have length k")
    grid = ens.grid
    # (y, z) is at once the frozen argument of every sweep, the new iterate
    # and, window by window, the solution: each sweep overwrites it in place,
    # and a window's terminal value y[:, i_hi] is xi or the earlier window's.
    # y is step-major like the ensemble, so y[:, i] is contiguous.
    y = np.empty((grid.N + 1, ens.M, k)).transpose(1, 0, 2)
    z = RegressedZ(np.zeros((grid.N, basis.size(ens.d), k * ens.d)), basis,
                   ens)
    y[...] = vals
    y[:, -1] = xi
    windows = [(0, grid.N)] if split is None else _window_indices(grid, split)
    report = PicardReport(windows=windows)
    # Gram factors depend on the ensemble and the basis only: one per step.
    factors = [None] * grid.N
    # A driver that does not read y gives every sweep the same result, so the
    # unmeasured sweep each window starts with is its limit.
    reads_y = family.reads_y(gen)

    for w_idx, (i_lo, i_hi) in enumerate(windows):
        _backward_sweep(gen, y, z, i_lo, i_hi, factors)
        converged = False
        growth_streak = 0
        dists: list[float] = []
        while not converged and len(dists) < max_iter:
            if reads_y:
                # each measured sweep folds the distance to the iterate it
                # overwrites, so no copy of the old iterate is kept
                sup_dy, sum_dz = np.zeros(ens.M), np.zeros(ens.M)
                _backward_sweep(gen, y, z, i_lo, i_hi, factors,
                                (sup_dy, sum_dz))
                dy = analysis.sup_power_mean(sup_dy, p)
                dz = analysis.integral_power_mean(sum_dz, grid.dt, p)
            else:
                # a second sweep would rebuild these bytes and measure 0
                dy = dz = 0.0
            dists.append(dy)
            report.entries.append(PicardEntry(
                w_idx, report.iterations + 1, dy, dz,
                analysis.sp_norm(y[:, i_lo:i_hi + 1], p)))
            if not math.isfinite(dy):
                raise PicardDivergenceError(
                    f"iterate distance became non-finite in window {w_idx}")
            if len(dists) >= 2 and dy > 5.0 * dists[-2]:
                growth_streak += 1
                if growth_streak >= 2:
                    raise PicardDivergenceError(
                        f"iterate distance grew fivefold twice in a row "
                        f"(window {w_idx}, dist_y={dy:.3e})")
            else:
                growth_streak = 0
            converged = dy <= tol
        report.window_converged.append(converged)

    return DiscreteSolution(y=y, z_source=z, grid=grid), report
