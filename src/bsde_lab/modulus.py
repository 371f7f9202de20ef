"""Moduli of continuity: evaluation, shape checks, Osgood classification, transforms.

A modulus here is a nonnegative function on [0, U] with value 0 at 0, used to
bound increments of a BSDE driver in its y argument.  Each family is one
ModulusFamily record in MODULUS_FAMILIES (its factory, evaluator and exact
Osgood verdict), so a family added there is reachable from a config with no
other edit.  The builtin families:

* ``linear``      rho(u) = mu * u
* ``power``       rho(u) = c * u**alpha, alpha in (0, 2]
* ``example1h``   h(x) = x * |ln x|**(1/p) on (0, delta], continued by its
                  tangent line beyond delta
* ``tabulated``   piecewise-linear through breakpoints (u_i, v_i) with
                  u_0 = v_0 = 0, extended linearly past the last breakpoint
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DIVERGENT = "divergent"
CONVERGENT = "convergent"
INCONCLUSIVE = "inconclusive"

@dataclass(frozen=True)
class ModulusSpec:
    """One modulus of continuity.  Use the factory helpers below."""

    family: str
    domain_cap: float = 1.0
    mu: float = 0.0
    c: float = 1.0
    alpha: float = 1.0
    p: float = 2.0
    delta: float = math.exp(-2.0)
    breakpoints: tuple = ()

    def __post_init__(self):
        if self.family not in MODULUS_FAMILIES:
            raise ValueError(f"unknown modulus family '{self.family}'")
        if not (self.domain_cap > 0.0 and math.isfinite(self.domain_cap)):
            raise ValueError("domain_cap must be a positive finite real")


def linear_modulus(mu: float = 0.0, domain_cap: float = 1.0) -> ModulusSpec:
    if mu < 0.0:
        raise ValueError("linear modulus needs mu >= 0")
    return ModulusSpec("linear", domain_cap=domain_cap, mu=float(mu))


def power_modulus(c: float = 1.0, alpha: float = 1.0,
                  domain_cap: float = 1.0) -> ModulusSpec:
    if c <= 0.0:
        raise ValueError("power modulus needs c > 0")
    if not 0.0 < alpha <= 2.0:
        raise ValueError("power modulus needs alpha in (0, 2]")
    return ModulusSpec("power", domain_cap=domain_cap, c=float(c), alpha=float(alpha))


def example1_h_modulus(p: float = 2.0, delta: float | None = None,
                       domain_cap: float = 1.0) -> ModulusSpec:
    """h(x) = x|ln x|^(1/p) below delta, tangent-line continuation above.

    delta must satisfy delta <= exp(-1/p); otherwise h would decrease just
    below delta and the modulus would fail the shape check.
    """
    if p <= 1.0:
        raise ValueError("example1h modulus needs p > 1")
    if delta is None:
        delta = math.exp(-2.0)
    if not 0.0 < delta < 1.0:
        raise ValueError("example1h modulus needs delta in (0, 1)")
    if delta > math.exp(-1.0 / p):
        raise ValueError("example1h modulus needs delta <= exp(-1/p) "
                         "to stay nondecreasing")
    return ModulusSpec("example1h", domain_cap=domain_cap, p=float(p),
                       delta=float(delta))


def tabulated_modulus(breakpoints: list | None = None, csv_path: str | None = None,
                      domain_cap: float | None = None) -> ModulusSpec:
    """Piecewise-linear modulus through (u_i, v_i), given as breakpoints or as
    a `u,v` CSV file (exactly one); the first point must be (0, 0)."""
    if (breakpoints is None) == (csv_path is None):
        raise ValueError("a tabulated modulus takes exactly one of "
                         "breakpoints and csv_path")
    if csv_path is not None:
        return load_tabulated_csv(csv_path, domain_cap=domain_cap)
    for i, point in enumerate(breakpoints):
        if len(point) != 2:
            raise ValueError(f"tabulated breakpoint [{i}] has {len(point)} "
                             f"entries, not 2")
    pts = [(float(u), float(v)) for u, v in breakpoints]
    if len(pts) < 2:
        raise ValueError("tabulated modulus needs at least 2 breakpoints")
    us = [u for u, _ in pts]
    vs = [v for _, v in pts]
    if us[0] != 0.0 or vs[0] != 0.0:
        raise ValueError("tabulated modulus must start at (0, 0)")
    if any(b <= a for a, b in zip(us, us[1:])):
        raise ValueError("tabulated breakpoints must be strictly ascending in u")
    if any(v < 0.0 for v in vs) or not all(map(math.isfinite, us + vs)):
        raise ValueError("tabulated breakpoints must be finite and nonnegative")
    cap = us[-1] if domain_cap is None else float(domain_cap)
    return ModulusSpec("tabulated", domain_cap=cap, breakpoints=tuple(pts))


def _example1_slope(p: float, delta: float) -> float:
    ln = -math.log(delta)
    return ln ** (1.0 / p) - (1.0 / p) * ln ** (1.0 / p - 1.0)


def _eval_example1h(mod: ModulusSpec, u: np.ndarray) -> np.ndarray:
    """The tangent line on every entry, h(0) = 0 through a mask, then
    x|ln x|^(1/p) by index on the entries in (0, delta] only: few of them on
    a solve's iterates, and none on its zero starting iterate."""
    h_delta = mod.delta * (-math.log(mod.delta)) ** (1.0 / mod.p)
    out = np.subtract(u, mod.delta, order="C")  # so out.reshape(-1) is a view
    out *= _example1_slope(mod.p, mod.delta)
    out += h_delta
    flat_u, flat_out = u.reshape(-1), out.reshape(-1)
    np.copyto(flat_out, 0.0, where=flat_u == 0.0)
    low = np.flatnonzero((flat_u > 0.0) & (flat_u <= mod.delta))
    if low.size:
        x = flat_u[low]
        flat_out[low] = x * (-np.log(x)) ** (1.0 / mod.p)
    return out


@lru_cache(maxsize=128)
def _breakpoint_arrays(breakpoints: tuple):
    us = np.array([b[0] for b in breakpoints])
    vs = np.array([b[1] for b in breakpoints])
    return us, vs


def _eval_tabulated(mod: ModulusSpec, u: np.ndarray) -> np.ndarray:
    us, vs = _breakpoint_arrays(mod.breakpoints)
    out = np.interp(u, us, vs)
    beyond = u > us[-1]
    if np.any(beyond):
        slope = (vs[-1] - vs[-2]) / (us[-1] - us[-2])
        out[beyond] = vs[-1] + slope * (u[beyond] - us[-1])
    return out


@dataclass(frozen=True)
class ModulusFamily:
    """A modulus family: the factory its config block calls, evaluate(mod, u)
    on an array u >= 0 of ndim >= 1, which writes nothing into u, and osgood(mod,
    w), the exact verdict on int_0+ u^(w-1)/mod(u)^w du or None if there is none."""

    factory: Callable[..., ModulusSpec]
    evaluate: Callable[[ModulusSpec, np.ndarray], np.ndarray]
    osgood: Callable[[ModulusSpec, float], str | None] = lambda mod, w: None


MODULUS_FAMILIES = {
    "linear": ModulusFamily(linear_modulus, lambda mod, u: mod.mu * u,
                            lambda mod, w: DIVERGENT if mod.mu > 0.0 else None),
    # integrand ~ u^(w(1-alpha)-1) near 0
    "power": ModulusFamily(power_modulus, lambda mod, u: mod.c * u ** mod.alpha,
                           lambda mod, w: CONVERGENT if mod.alpha < 1.0 else DIVERGENT),
    # integrand ~ 1/(u |ln u|^(w/p)) near 0
    "example1h": ModulusFamily(example1_h_modulus, _eval_example1h,
                               lambda mod, w: CONVERGENT if w > mod.p else DIVERGENT),
    "tabulated": ModulusFamily(tabulated_modulus, _eval_tabulated),
}


def eval_modulus(mod: ModulusSpec, u):
    """Evaluate the modulus at finite u >= 0 (scalar or array)."""
    arr = np.asarray(u, dtype=float)
    # min and max are NaN if any entry is; a NaN beside a negative entry
    # still reports the sign, as the sign is checked first
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        if np.any(arr < 0.0):
            raise ValueError("modulus argument must be nonnegative")
        raise ValueError("modulus argument must be finite")
    out = MODULUS_FAMILIES[mod.family].evaluate(mod, np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _grid(cap: float, decades: int = 12, n_geo: int = 64 * 12 + 1,
          n_uni: int = 256) -> np.ndarray:
    """n_geo geometric points on [cap 10^-decades, cap] merged with n_uni
    uniform points on (0, cap].  The defaults, 64 points a decade, are the
    grid the transforms tabulate on."""
    geo = np.geomspace(cap * 10.0 ** -decades, cap, n_geo)
    uni = np.linspace(0.0, cap, n_uni + 1)[1:]
    return np.unique(np.concatenate([geo, uni]))


def _check_grid(cap: float) -> np.ndarray:
    """The grid of check_shape and linear_growth_coefficient."""
    return _grid(cap, 9, 5_000, 5_000)


_SHAPE_TOL = 1e-9  # the relative shape defect that still passes


@dataclass(frozen=True)
class ShapeReport:
    """Defects are signed so that defect <= tol = _SHAPE_TOL means the flag
    passes; each is relative, divided by max(1, |rho|) at its grid point, so
    round-off on large values passes.  worst_violation = max defect - tol,
    hence <= 0 when all pass."""

    is_nondecreasing: bool
    is_concave: bool
    zero_at_zero: bool
    positive_on_positive: bool
    worst_violation: float

    @property
    def all_ok(self) -> bool:
        return (self.is_nondecreasing and self.is_concave
                and self.zero_at_zero and self.positive_on_positive)


def check_shape(mod: ModulusSpec) -> ShapeReport:
    """Scan for monotonicity and midpoint concavity on _check_grid."""
    grid = _check_grid(mod.domain_cap)
    mids = 0.5 * grid[:-1] + 0.5 * grid[1:]  # no overflow near the largest double
    with np.errstate(over="ignore", invalid="ignore"):
        vals = eval_modulus(mod, grid)
        v0 = eval_modulus(mod, 0.0)
        at_mids = eval_modulus(mod, mids)
        # each defect beside the modulus at its grid point
        excess = ((abs(v0), v0),
                  (np.append(v0 - vals[0], vals[:-1] - vals[1:]), vals),
                  (0.5 * (vals[:-1] + vals[1:]) - at_mids, at_mids), (-vals, vals))
        # a non-finite defect, as an overflowing modulus gives, counts as +inf
        d_zero, d_mono, d_conc, d_pos = (
            d if math.isfinite(d := float(np.max(e / np.maximum(1.0, abs(rho)))))
            else math.inf for e, rho in excess)
    worst = max(d_zero, d_mono, d_conc, d_pos) - _SHAPE_TOL
    return ShapeReport(
        is_nondecreasing=d_mono <= _SHAPE_TOL,
        is_concave=d_conc <= _SHAPE_TOL,
        zero_at_zero=d_zero <= _SHAPE_TOL,
        positive_on_positive=d_pos <= _SHAPE_TOL,
        worst_violation=worst,
    )


class ModulusShapeError(ValueError):
    """A modulus that is not concave, nondecreasing and 0 at 0."""


def require_concave(mod: ModulusSpec) -> None:
    """The precondition of every bound resting on mod, checked by check_shape."""
    rep = check_shape(mod)
    if not (rep.is_concave and rep.is_nondecreasing and rep.zero_at_zero):
        why = ", but overflows a double" if math.isinf(rep.worst_violation) else ""
        raise ModulusShapeError(f"the {mod.family} modulus on [0, {mod.domain_cap}] "
                                f"must be concave, nondecreasing and 0 at 0{why}")


@dataclass(frozen=True)
class OsgoodReport:
    classification: str
    rule: str
    eps: np.ndarray
    integrals: np.ndarray
    increments: np.ndarray
    integrand_unbounded: bool


_PANELS = 64
_OSGOOD_DECADES = 8


@lru_cache(maxsize=None)
def _decade_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule in ln u on the decade
    [1, 10]: _PANELS panels of 8 nodes.  Built on first use, so that only a
    process that classifies a modulus imports numpy.polynomial."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    nodes = 10.0 ** ((np.arange(_PANELS)[:, None] + 0.5 * (gl_x + 1.0))
                     / _PANELS).ravel()
    weights = np.tile(0.5 * gl_w * math.log(10.0) / _PANELS, _PANELS)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def osgood_classify(mod: ModulusSpec, weight_exponent: float = 1.0) -> OsgoodReport:
    """Decide whether the weighted integral of 1/mod**w diverges at 0+.

    Computes I(eps) = int_eps^cap u^(w-1)/mod(u)^w du, cap = domain_cap, on
    eps = cap * 10^-j, j = 1.._OSGOOD_DECADES, and classifies from the
    per-decade increments: bounded-below increments over the last half of the
    decades mean divergence, geometrically shrinking increments mean
    convergence.  Builtin analytic families are classified exactly; the sample
    curve is returned either way.  Each increment is
    int (u/mod(u))^w d(ln u), taken by a fixed Gauss-Legendre rule in ln u
    whose nodes for all decades go through eval_modulus at once.
    """
    w = float(weight_exponent)
    if w < 1.0:
        raise ValueError("weight_exponent must be >= 1")

    decade_nodes, decade_weights = _decade_rule()
    eps = mod.domain_cap * 10.0 ** (-np.arange(1, _OSGOOD_DECADES + 1))
    nodes = eps[:, None] * decade_nodes
    increments = np.full(_OSGOOD_DECADES, np.inf)
    with np.errstate(over="ignore"):  # an overflow is judged by its value, inf
        vals = eval_modulus(mod, nodes)
        unbounded = bool(np.any(vals <= 0.0))
        if not unbounded:
            increments = (nodes / vals) ** w @ decade_weights
    if not np.all(np.isfinite(increments)):
        unbounded = True
    integrals = np.cumsum(increments)

    classification, rule = INCONCLUSIVE, "none"
    if unbounded:
        classification, rule = DIVERGENT, "unbounded-integrand"
    elif (exact := MODULUS_FAMILIES[mod.family].osgood(mod, w)) is not None:
        classification, rule = exact, "analytic"
    else:
        first = increments[0]
        half = increments[_OSGOOD_DECADES // 2:]
        ratios = increments[1:] / np.maximum(increments[:-1], 1e-300)
        tail_ratios = ratios[(len(ratios)) // 2:]
        # ratios creeping up toward 1 are the signature of a slowly divergent
        # integrand; only a stable geometric decay counts as Cauchy
        rising = bool(np.all(np.diff(tail_ratios) > 1e-3))
        if first > 0.0 and np.min(half) >= 0.1 * first:
            classification, rule = DIVERGENT, "slope"
        elif first > 0.0 and np.all(tail_ratios <= 0.9) and not rising:
            classification, rule = CONVERGENT, "geometric"

    return OsgoodReport(classification, rule, eps, integrals, increments, unbounded)


def linear_growth_coefficient(mod: ModulusSpec) -> float:
    """Smallest grid-measured A with mod(u) <= A (u + 1) on [0, domain_cap].

    A concave nondecreasing modulus with mod(0) = 0 grows at most linearly,
    so the ratio mod(u)/(u+1) is bounded; non-concave input is rejected.
    """
    require_concave(mod)
    grid = _check_grid(mod.domain_cap)
    return float(np.max(eval_modulus(mod, grid) / (grid + 1.0)))


def concave_majorant(samples) -> ModulusSpec:
    """Least concave nondecreasing majorant of the sample set.

    Upper convex hull of the points, with any decreasing tail flattened at the
    running maximum.  The output dominates the input pointwise and is a fixed
    point of this operation.
    """
    pts = [(float(u), float(v)) for u, v in samples]
    if len(pts) < 2:
        raise ValueError("concave majorant needs at least 2 samples")
    if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
        raise ValueError("samples must be strictly ascending in u")
    if any(u < 0.0 or v < 0.0 for u, v in pts):
        raise ValueError("samples must be nonnegative")
    if pts[0] != (0.0, 0.0):
        raise ValueError("samples must start at (0, 0)")

    def upper_hull(points):
        hull: list[tuple[float, float]] = []
        for u, v in points:
            # pop while the previous vertex lies on or below the chord
            # (non-concave turn); equality drops collinear vertices
            while len(hull) >= 2:
                (u1, v1), (u2, v2) = hull[-2], hull[-1]
                if (v2 - v1) * (u - u2) <= (v - v2) * (u2 - u1):
                    hull.pop()
                else:
                    break
            hull.append((u, v))
        return hull

    hull = upper_hull(pts)
    flat: list[tuple[float, float]] = [hull[0]]
    for u, v in hull[1:]:
        if v < flat[-1][1]:
            flat.append((pts[-1][0], flat[-1][1]))
            break
        flat.append((u, v))
    if len(flat) == 1:
        flat.append((pts[-1][0], flat[0][1]))
    return tabulated_modulus(upper_hull(flat), domain_cap=pts[-1][0])


@dataclass(frozen=True)
class DominationReport:
    """Measured domination rho_bar(u) <= K 2^p kappa(u^(q/p))^(p/q)
    with K = 1 + 1/rho2(1)^p, reported on the sampling grid."""

    skipped: bool
    max_defect: float
    holds: bool
    note: str


@dataclass(frozen=True)
class H1ppTransform:
    modulus: ModulusSpec
    domination: DominationReport
    rho2_over_rho1_sup: float


def _sample_to_tabulated(xs: np.ndarray, vals: np.ndarray, cap: float) -> ModulusSpec:
    keep = np.isfinite(vals)
    xs, vals = xs[keep], np.maximum(vals[keep], 0.0)
    if xs.size < 3:
        raise ValueError("transform grid degenerated to fewer than 3 samples")
    pts = [(0.0, 0.0)] + list(zip(xs.tolist(), vals.tolist()))
    return tabulated_modulus(pts, domain_cap=cap)


def power_root(mod: ModulusSpec, r: float) -> ModulusSpec:
    """u -> mod(u^(1/r))^r on [0, domain_cap^r], sampled onto a tabulated
    modulus.  At r = p it maps an H1* modulus to an H1 one."""
    if r <= 0.0:
        raise ValueError("power_root needs r > 0")
    cap = mod.domain_cap ** r
    xs = _grid(cap)
    vals = eval_modulus(mod, xs ** (1.0 / r)) ** r
    return _sample_to_tabulated(xs, vals, cap)


def h1pp_to_h1(mod: ModulusSpec, p: float, q: float) -> H1ppTransform:
    """The H1'' -> H1 transform: rho1(u) = mod(u^q)^(1/q), rho2 = concave
    majorant of rho1, output rho_bar(u) = rho2(u^(1/p))^p + u, together with
    the measured domination report."""
    if p <= 1.0:
        raise ValueError("h1pp_to_h1 needs p > 1")
    if q < p:
        raise ValueError("h1pp_to_h1 needs q >= p")
    cap1 = mod.domain_cap ** (1.0 / q)
    xs1 = _grid(cap1)
    rho1 = eval_modulus(mod, xs1 ** q) ** (1.0 / q)
    rho2 = concave_majorant([(0.0, 0.0)] + list(zip(xs1.tolist(), rho1.tolist())))
    positive = rho1 > 0.0
    sup_ratio = float(np.max(eval_modulus(rho2, xs1[positive]) / rho1[positive])) \
        if np.any(positive) else math.nan

    cap = cap1 ** p
    xs = _grid(cap)
    rho_bar = eval_modulus(rho2, xs ** (1.0 / p)) ** p + xs
    out = _sample_to_tabulated(xs, rho_bar, cap)

    rho2_at_1 = eval_modulus(rho2, 1.0)
    if rho2_at_1 <= 1e-12:
        domination = DominationReport(True, math.nan, False,
                          "rho2(1) ~ 0: rho_bar(u) ~ u and the integral "
                          "diverges harmonically; domination not applicable")
    else:
        big_k = 1.0 + 1.0 / rho2_at_1 ** p
        rhs = big_k * 2.0 ** p * eval_modulus(mod, xs ** (q / p)) ** (p / q)
        defect = float(np.max(rho_bar - rhs))
        holds = defect <= 1e-9 * max(1.0, float(np.max(rhs)))
        domination = DominationReport(False, defect, holds, f"K={big_k:.6g}")
    return H1ppTransform(out, domination, sup_ratio)


def load_tabulated_csv(path, domain_cap: float | None = None) -> ModulusSpec:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["u", "v"]:
            raise ValueError("tabulated modulus CSV must have header 'u,v'")
        pts = []
        for row in filter(None, reader):
            if len(row) != 2:
                raise ValueError(f"tabulated modulus CSV {path}, line "
                                 f"{reader.line_num}: {len(row)} cells, not 2")
            try:
                pts.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ValueError(f"tabulated modulus CSV {path}, line "
                                 f"{reader.line_num}: {exc}") from None
    return tabulated_modulus(pts, domain_cap=domain_cap)
