"""Config-driven command line: hypothesis checks, solves and their CSV export,
oracle comparisons, constants, the integral recursion, path generation, and
convergence studies.

Configs are strict JSON; unknown keys are rejected by name.  All numeric CSV
output renders with 17 significant digits so reruns are byte-comparable.
"""

import argparse
import inspect
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import analysis, oracle
from .generator import (GENERATOR_FAMILIES, PROCESS_KINDS, SAMPLE_RADIUS,
                        EnvelopeA, GeneratorSpec, ProcessSpec, auto_envelope,
                        check_h1, check_h3, estimate_lipschitz_z,
                        verify_envelope)
from .modulus import (DIVERGENT, MODULUS_FAMILIES, ModulusShapeError,
                      ModulusSpec, check_shape, linear_growth_coefficient,
                      osgood_classify)
from .paths import (DimensionError, PathEnsemble, format_number,
                    generate_ensemble, load_ensemble, load_solution,
                    save_ensemble, save_solution, save_solution_csv, write_csv)
from .solver import (TERMINAL_KINDS, BasisSpec, PicardDivergenceError,
                     PicardReport, SingularRegressionError, TerminalSpec,
                     picard_solve, terminal_values)


class ConfigError(ValueError):
    pass


def _require_keys(block: dict, allowed: set, path: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"'{path}' must be an object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else
                              f"unknown key '{key}'")


def _typed(block: dict, key: str, kind, path: str, default=None):
    """block[key] checked against kind: a type or a union of types (None
    aside), a spec class, whose value is a nested tagged block, or a config
    dataclass, whose value is a block read by _kwargs."""
    if key not in block or block[key] is None:
        return default
    val = block[key]
    name = f"{path}.{key}" if path else key
    kinds = (kind,)
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        kinds = tuple(a for a in typing.get_args(kind) if a is not type(None))
    if (spec := kinds[0]) in _TAGGED:
        return _parse_tagged(val, name, spec)
    if is_dataclass(spec):
        kwargs = _kwargs(spec, val, name)
        try:
            return spec(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    if float in kinds and type(val) is int:
        try:
            val = float(val)
        except OverflowError:
            raise ConfigError(f"field '{name}' does not fit a double") from None
    if not isinstance(val, kinds) or (isinstance(val, bool) and bool not in kinds):
        raise ConfigError(f"field '{name}' must be "
                          + " or ".join(k.__name__ for k in kinds))
    return val


# The range a config field may declare, by the words its error message states.
_RANGES = {
    "> 0": lambda v: v > 0,
    "> 1": lambda v: v > 1,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in [0, 2**64)": lambda v: 0 <= v < 2 ** 64,
    ">= 0 or 'auto'": lambda v: v == "auto" if isinstance(v, str) else v >= 0,
    "an integer >= 1": lambda v: type(v) is int and v >= 1,
}


def _ranged(rule: str, **kwargs):
    """A config dataclass field whose value, or each entry of a list value,
    must be in the range _RANGES[rule]."""
    return field(metadata={"range": rule}, **kwargs)


def _check_range(name: str, value, rule: str) -> None:
    if value == []:
        raise ConfigError(f"{name} is [], but must be a non-empty list")
    named = ([(f"{name}[{i}]", v) for i, v in enumerate(value)]
             if isinstance(value, list) else [(name, value)])
    for where, v in named:
        if not _RANGES[rule](v):
            raise ConfigError(f"{where} is {v!r}, but must be {rule}")


def _kwargs(fn, block: dict, path: str, outer=(), **given) -> dict:
    """Keyword arguments for fn, a config dataclass or a factory, from block.

    Names, types and defaults come from fn's signature, and a dataclass
    field's range (see _ranged) and, where a config names it apart from the
    field, its "key" from its metadata; an absent or null key keeps its
    default.  given holds the arguments the caller read itself, and the
    names in outer belong to the enclosing block, not to this one.
    """
    signature = inspect.signature(fn).parameters
    hints = typing.get_type_hints(fn)
    meta = {f.name: f.metadata for f in fields(fn)} if is_dataclass(fn) else {}
    keys = {n: meta.get(n, {}).get("key", n) for n in signature if n not in outer}
    _require_keys(block, set(keys.values()), path)
    kwargs = dict(given)
    for n, key in keys.items():
        if n in given:
            continue
        name = f"{path}.{key}" if path else key
        if block.get(key) is not None:
            if n not in hints:
                raise ConfigError(f"{name} cannot be read: the factory's "
                                  f"parameter {n} has no type annotation")
            kwargs[n] = _typed(block, key, hints[n], path)
            if (rule := meta.get(n, {}).get("range")) is not None:
                _check_range(name, kwargs[n], rule)
        elif signature[n].default is inspect.Parameter.empty:
            raise ConfigError(f"{name} required")
    return kwargs


@dataclass
class PathsConfig:
    M: int = _ranged(">= 1", default=16384)
    N: int = _ranged(">= 1", default=50)
    d: int = _ranged(">= 1", default=1)
    T: float = _ranged("> 0", default=1.0)
    seed: int = _ranged("in [0, 2**64)", default=0)
    antithetic: bool = False
    paths_file: str | None = None
    # the keys the config states, which a paths file must agree with
    stated: frozenset = field(default=frozenset(), init=False, repr=False)


@dataclass
class SolverConfig:
    p: float = _ranged("> 1", default=2.0)
    basis_degree: int = _ranged(">= 0", default=3)
    ridge: float | None = _ranged(">= 0", default=None)
    picard_tol: float = _ranged("> 0", default=1e-4)
    picard_max_iter: int = _ranged(">= 1", default=25)
    init: float | None = None
    split: float | str | None = _ranged(">= 0 or 'auto'", default=None)
    # accepted for existing configs; the solver has only the blocked reduction
    deterministic_reduction: bool = True


@dataclass
class ConstantsConfig:
    k_prime_p: float = _ranged("> 0", default=2.0)
    c1: float | None = _ranged("> 0", default=None)
    c3: float | None = _ranged("> 0", default=None)
    c2: float | None = _ranged("> 0", default=None)


@dataclass
class BihariConfig:
    M_bound: float | None = _ranged(">= 0", default=None)
    T1: float | None = _ranged(">= 0", default=None)
    n_max: int = _ranged(">= 0", default=60)
    quad_steps: int = _ranged(">= 2", default=2048)


@dataclass
class StudyConfig:
    M_values: list = _ranged("an integer >= 1",
                             default_factory=lambda: [1024, 4096, 16384])
    N_values: list = _ranged("an integer >= 1",
                             default_factory=lambda: [10, 25, 50])


@dataclass(kw_only=True)
class RunConfig:
    """The config document; each field is one top-level block or key."""

    paths: PathsConfig = field(default_factory=PathsConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    generator: GeneratorSpec
    terminal: TerminalSpec | None = None
    modulus: ModulusSpec | None = None
    envelope: EnvelopeA | None = None
    constants: ConstantsConfig = field(default_factory=ConstantsConfig)
    bihari: BihariConfig = field(default_factory=BihariConfig)
    study: StudyConfig = field(default_factory=StudyConfig)
    output_dir: str = "out"


def _block(doc: dict, name: str):
    """doc[name], or {} when the key is absent or null."""
    return {} if doc.get(name) is None else doc[name]


# Each tagged block: the key naming its family, family -> record (read at parse
# time), the keys beside that key and params, and the default family.
_TAGGED = {
    GeneratorSpec: ("family", GENERATOR_FAMILIES, ("k",), None),
    TerminalSpec: ("kind", TERMINAL_KINDS, (), None),
    ModulusSpec: ("family", MODULUS_FAMILIES, ("domain_cap",), None),
    ProcessSpec: ("kind", PROCESS_KINDS, (), "zero"),
}


def _parse_tagged(block, path: str, spec: type):
    """Build a spec from a tagged block through the factory of its family's record.

    block['params'] holds the factory's keyword arguments (see _kwargs).  Each
    outer key, typed by the spec's field of that name, goes to the factory
    when it has that parameter, and the built spec must agree with it.
    """
    tag, table, outer, default = _TAGGED[spec]
    _require_keys(block, {tag, "params", *outer}, path)
    name = _typed(block, tag, str, path, default)
    if name not in table:
        raise ConfigError(f"{path}.{tag} required" if name is None
                          else f"unknown {path} {tag} '{name}'")
    factory = table[name].factory
    given = {n: _typed(block, n, typing.get_type_hints(spec)[n], path) for n in outer}
    accepted = inspect.signature(factory).parameters
    passed = {n: v for n, v in given.items() if v is not None and n in accepted}
    kwargs = _kwargs(factory, _block(block, "params"), f"{path}.params", outer,
                     **passed)
    try:
        built = factory(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for n, v in given.items():
        if v is not None and getattr(built, n) != v:
            raise ConfigError(f"field '{path}.{n}' is {v}, but {tag} '{name}' "
                              f"has {n} = {getattr(built, n)}")
    return built


def _reject_constant(token: str):
    raise ConfigError(f"config holds {token}: numbers must be finite")


def _overflowed(node, path: str = "") -> str | None:
    """The field of the first number in node that overflowed to an infinity,
    as json.loads reads 1e400; None if there is none."""
    if isinstance(node, dict):
        children = [(f"{path}.{k}" if path else k, v) for k, v in node.items()]
    elif isinstance(node, list):
        children = [(f"{path}[{i}]", v) for i, v in enumerate(node)]
    else:
        return path if isinstance(node, float) and math.isinf(node) else None
    for name, child in children:
        if (found := _overflowed(child, name)) is not None:
            return found
    return None


def parse_config(text: str) -> RunConfig:
    """Parse the JSON config document; unknown keys are rejected by name."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if (name := _overflowed(doc)) is not None:
        raise ConfigError(f"field '{name}' does not fit a double")
    cfg = RunConfig(**_kwargs(RunConfig, doc, ""))
    cfg.paths.stated = frozenset(k for k, v in _block(doc, "paths").items()
                                 if v is not None)
    if not cfg.solver.deterministic_reduction:
        raise ConfigError("solver.deterministic_reduction must be true: the "
                          "unblocked reduction path was removed")
    return cfg


def _require_agreement(name: str, found: dict, cfg: RunConfig) -> None:
    """found, the values a file holds, must agree with each key of them that
    the paths block states and with generator.k."""
    checks = [(key, f"paths.{key}", getattr(cfg.paths, key))
              for key in found if key in cfg.paths.stated]
    if "k" in found:
        checks.append(("k", "generator.k", cfg.generator.k))
    for key, source, want in checks:
        if found[key] != want:
            raise ConfigError(f"{name} has {key} = {found[key]}, but {source} "
                              f"is {want}")


def _acquire_ensemble(cfg: RunConfig) -> PathEnsemble:
    """The ensemble in paths_file, once it agrees with the keys the paths
    block states; else a generated one."""
    pc = cfg.paths
    if not pc.paths_file:
        return generate_ensemble(pc.M, pc.N, pc.d, pc.T, pc.seed,
                                 antithetic=pc.antithetic)
    try:
        ens = load_ensemble(pc.paths_file)
    except ValueError as exc:
        raise ConfigError(f"paths file '{pc.paths_file}': {exc}") from exc
    _require_agreement(f"paths file '{pc.paths_file}'", {
        "M": ens.M, "N": ens.grid.N, "d": ens.d, "T": ens.grid.T,
        "seed": ens.seed, "antithetic": ens.antithetic}, cfg)
    return ens


def _h1_modulus(cfg: RunConfig) -> ModulusSpec:
    """The configured modulus, else the family's default for |y1 - y2| up to
    2 SAMPLE_RADIUS, the widest gap two draws of the sampling box can have."""
    if cfg.modulus is not None:
        return cfg.modulus
    h1_modulus = GENERATOR_FAMILIES[cfg.generator.family].h1_modulus
    if h1_modulus is None:
        raise ConfigError("this generator family needs an explicit modulus block")
    return h1_modulus(cfg.generator, cfg.solver.p, 2 * SAMPLE_RADIUS)


def _terminal(cfg: RunConfig, needed_for: str) -> TerminalSpec:
    """cfg.terminal, which needed_for says what needs."""
    if cfg.terminal is None:
        raise ConfigError(f"terminal block required {needed_for}")
    return cfg.terminal


def _bundle(cfg: RunConfig, ens: PathEnsemble):
    """The constants bundle, whose growth coefficient A is that of the H1
    modulus (see _h1_modulus)."""
    gen, sc, cc, term = cfg.generator, cfg.solver, cfg.constants, cfg.terminal
    mod = _h1_modulus(cfg)
    exact = GENERATOR_FAMILIES[gen.family].lipschitz_z
    lam = exact(gen) if exact is not None else estimate_lipschitz_z(
        gen, ens).sampled
    try:
        growth_a = linear_growth_coefficient(mod)
    except ModulusShapeError as exc:
        raise ConfigError(f"modulus: {exc}") from exc
    term_moment = 0.0
    if term is not None:
        xi = terminal_values(term, ens, gen.k)
        term_moment = float(np.mean(np.linalg.norm(xi, axis=1) ** sc.p))
    h3 = check_h3(gen, ens, sc.p)
    return analysis.compute_constants(
        sc.p, lam, ens.grid.T, growth_a, k_prime_p=cc.k_prime_p, c1=cc.c1,
        c3=cc.c3, c2=cc.c2, terminal_moment=term_moment, h3_moment=h3.estimate)


def _resolve_split(cfg: RunConfig, ens: PathEnsemble) -> float | None:
    split = cfg.solver.split
    if split == "auto":
        # T1 = 0 makes [0, T] one local interval: one window
        return _bundle(cfg, ens).t1
    if split is not None and split >= ens.grid.T:
        raise ConfigError(f"solver.split is {split}, but the ensemble's horizon "
                          f"T is {ens.grid.T}: the split needs T1 < T")
    return split


def _output(out: Path, name: str) -> Path:
    """The file name in the output directory out, which is created here, by
    the command's first write, so a command that fails before it leaves no
    directory behind."""
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _cmd_check(cfg: RunConfig, out: Path) -> int:
    ens = _acquire_ensemble(cfg)
    gen, p = cfg.generator, cfg.solver.p
    mod = _h1_modulus(cfg)

    rows = []
    shape = check_shape(mod)
    rows.append(("shape_rho", shape.all_ok, shape.worst_violation,
                 f"nondecreasing={shape.is_nondecreasing};"
                 f"concave={shape.is_concave};zero={shape.zero_at_zero};"
                 f"positive={shape.positive_on_positive}"))
    osg = osgood_classify(mod)
    rows.append(("osgood_rho", osg.classification == DIVERGENT,
                 float(osg.increments[-1]),
                 f"classification={osg.classification};rule={osg.rule}"))
    h1 = check_h1(gen, mod, p, ens)
    rows.append(("h1", h1.passed, h1.max_ratio,
                 f"tol={format_number(h1.tol)}"))
    lip = estimate_lipschitz_z(gen, ens)
    lip_ok = math.isfinite(lip.sampled) and (
        lip.analytic is None or lip.sampled <= lip.analytic * (1 + 1e-9))
    analytic = "" if lip.analytic is None else format_number(lip.analytic)
    rows.append(("h2_lipschitz_z", lip_ok, lip.sampled, f"analytic={analytic}"))
    h3 = check_h3(gen, ens, p)
    rows.append(("h3", math.isfinite(h3.estimate) and not h3.unstable,
                 h3.estimate, f"se={format_number(h3.standard_error)};"
                 f"unstable={h3.unstable}"))
    env = cfg.envelope if cfg.envelope is not None else auto_envelope(gen, p, ens.d)
    if env is not None:
        try:
            er = verify_envelope(gen, env, p, ens)
        except ModulusShapeError as exc:
            raise ConfigError(f"envelope.psi: {exc}") from exc
        rows.append(("envelope", er.passed, er.max_defect,
                     f"tol={format_number(er.tol)}"))
    else:
        rows.append(("envelope", True, 0.0, "skipped: no envelope configured"))

    write_csv(_output(out, "check_report.csv"),
              ["check", "passed", "value", "detail"],
              [(name, str(ok).lower(), val, detail)
               for name, ok, val, detail in rows])
    return 0 if all(ok for _, ok, _, _ in rows) else 1


def _basis(cfg: RunConfig, m: int, d: int, m_field: str) -> BasisSpec:
    """The solver's basis, once m paths (from m_field) exceed its size in d."""
    basis = BasisSpec(degree=cfg.solver.basis_degree, ridge=cfg.solver.ridge)
    try:
        basis.require_samples(m, d)
    except ValueError as exc:
        raise ConfigError(f"{m_field} and solver.basis_degree: {exc}") from exc
    return basis


def _solve(cfg: RunConfig, ens: PathEnsemble):
    term = _terminal(cfg, "to solve")
    sc = cfg.solver
    basis = _basis(cfg, ens.M, ens.d, "paths.M")
    split = _resolve_split(cfg, ens)
    return picard_solve(cfg.generator, term, ens, basis, p=sc.p,
                        tol=sc.picard_tol, max_iter=sc.picard_max_iter,
                        init=sc.init, split=split)


def save_picard_report_csv(report: PicardReport, path) -> None:
    """Columns window,iter,dist_y,dist_z,sp_norm,converged; converged is the
    flag of the row's own window."""
    flags = [str(ok).lower() for ok in report.window_converged]
    write_csv(path, ["window", "iter", "dist_y", "dist_z", "sp_norm", "converged"],
              [(e.window, e.iteration, e.dist_y, e.dist_z, e.sp_norm,
                flags[e.window]) for e in report.entries])


def _cmd_solve(cfg: RunConfig, out: Path) -> int:
    ens = _acquire_ensemble(cfg)
    sol, report = _solve(cfg, ens)
    save_solution(sol, _output(out, "solution.bsol"))
    save_picard_report_csv(report, _output(out, "picard_report.csv"))
    return 0


def _cmd_solution_csv(cfg: RunConfig, out: Path) -> int:
    source = out / "solution.bsol"
    if not source.is_file():
        raise ConfigError(f"solution file '{source}' does not exist: run solve "
                          "with this config first")
    try:
        sol = load_solution(source)
    except ValueError as exc:
        raise ConfigError(f"solution file '{source}': {exc}") from exc
    m, n_plus, k = sol.y.shape
    _require_agreement(f"solution file '{source}'", {
        "M": m, "N": n_plus - 1, "T": sol.grid.T, "k": k, "d": sol.z.shape[3]},
        cfg)
    save_solution_csv(sol, _output(out, "solution.csv"))
    return 0


_ORACLE_COLUMNS = ["sp_error", "z_rms_error", "iters", "converged"]


def _oracle_row(cfg: RunConfig, ens: PathEnsemble) -> tuple:
    """The _ORACLE_COLUMNS of a solve on ens, compared to the closed form of
    the generator and terminal, once the terminal fits generator.k."""
    term = _terminal(cfg, "for oracle comparison")
    terminal_values(term, ens, cfg.generator.k)
    if (closed_form := oracle.match_oracle(cfg.generator, term)) is None:
        raise ConfigError("no closed-form oracle matches this generator/terminal")
    sol, report = _solve(cfg, ens)
    errs = oracle.compare_to_oracle(sol, closed_form, ens, cfg.solver.p)
    return (errs.sp_error, errs.z_rms_error, report.iterations,
            str(report.converged).lower())


def _cmd_oracle_compare(cfg: RunConfig, out: Path) -> int:
    ens = _acquire_ensemble(cfg)
    row = _oracle_row(cfg, ens)
    write_csv(_output(out, "oracle_errors.csv"), _ORACLE_COLUMNS, [row])
    return 0


def _cmd_bihari(cfg: RunConfig, out: Path) -> int:
    mod = _h1_modulus(cfg)
    bc = cfg.bihari
    m_bound, t1, horizon = bc.M_bound, bc.T1, cfg.paths.T
    if m_bound is None or t1 is None or cfg.paths.paths_file:
        ens = _acquire_ensemble(cfg)
        horizon = ens.grid.T
        if m_bound is None or t1 is None:
            cb = _bundle(cfg, ens)
            m_bound = cb.m_bound if m_bound is None else m_bound
            t1 = cb.t1 if t1 is None else t1
    if bc.T1 is not None and bc.T1 >= horizon:
        raise ConfigError(f"bihari.T1 is {bc.T1}, but the horizon T is "
                          f"{horizon}: the recursion needs T1 < T")
    try:
        curve = analysis.bihari_recursion(mod, m_bound, horizon, t1,
                                          bc.n_max, bc.quad_steps)
    except ModulusShapeError as exc:
        raise ConfigError(f"modulus: {exc}") from exc
    except analysis.BihariBoundError as exc:
        if bc.M_bound is None:
            raise
        size = "large" if isinstance(exc, analysis.BihariOverflowError) else "small"
        raise ConfigError(f"bihari.M_bound is {bc.M_bound}, too {size} for "
                          f"this modulus: {exc}") from exc
    header = ["t"] + [f"phi_{n}" for n in range(curve.values.shape[0])]
    write_csv(_output(out, "bihari.csv"), header,
              zip(curve.times, *curve.values))
    return 0


def _cmd_constants(cfg: RunConfig, out: Path) -> int:
    ens = _acquire_ensemble(cfg)
    cb = _bundle(cfg, ens)
    rows = [(f.name, getattr(cb, f.name)) for f in fields(cb)]
    write_csv(_output(out, "constants.csv"), ["name", "value"], rows)
    return 0


def _cmd_gen_paths(cfg: RunConfig, out: Path) -> int:
    ens = generate_ensemble(cfg.paths.M, cfg.paths.N, cfg.paths.d, cfg.paths.T,
                            cfg.paths.seed, antithetic=cfg.paths.antithetic)
    target = cfg.paths.paths_file or str(_output(out, "paths.bsde"))
    save_ensemble(ens, target)
    return 0


def _cmd_convergence_study(cfg: RunConfig, out: Path) -> int:
    if cfg.paths.paths_file:
        raise ConfigError("convergence-study generates one ensemble per (M, N) "
                          "and takes no paths file")
    for key in ("M", "N"):
        if key in cfg.paths.stated:
            raise ConfigError(
                f"paths.{key} is {getattr(cfg.paths, key)}, but convergence-study "
                f"takes {key} from study.{key}_values; leave paths.{key} out")
    _basis(cfg, min(cfg.study.M_values), cfg.paths.d, "study.M_values")
    rows = []
    for m in cfg.study.M_values:
        for n in cfg.study.N_values:
            ens = generate_ensemble(m, n, cfg.paths.d, cfg.paths.T, cfg.paths.seed,
                                    antithetic=cfg.paths.antithetic)
            rows.append((m, n) + _oracle_row(cfg, ens))
    write_csv(_output(out, "convergence.csv"), ["M", "N", *_ORACLE_COLUMNS], rows)
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "solution-csv": _cmd_solution_csv,
    "oracle-compare": _cmd_oracle_compare,
    "bihari": _cmd_bihari,
    "constants": _cmd_constants,
    "gen-paths": _cmd_gen_paths,
    "convergence-study": _cmd_convergence_study,
}


def run(cmd: str, cfg: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status (0 ok,
    1 check failure, 2 usage/config error).  main also maps a spec that does
    not fit the ensemble's dimension and running out of memory to 2, and a
    numerical failure to 1."""
    if cmd not in _HANDLERS:
        raise ConfigError(f"unknown subcommand '{cmd}'")
    paths_file = cfg.paths.paths_file
    # gen-paths writes the paths file, and solution-csv reads no ensemble
    if (paths_file and cmd not in ("gen-paths", "solution-csv")
            and not Path(paths_file).is_file()):
        raise ConfigError(f"paths file '{paths_file}' does not exist")
    return _HANDLERS[cmd](cfg, Path(cfg.output_dir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsde-lab",
        description="Checks, solves, and studies for BSDEs with "
                    "non-Lipschitz drivers.")
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument("--paths-file", default=None,
                        help="reuse a persisted path ensemble")
    parser.add_argument("--output-dir", default=None,
                        help="override the configured output directory")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        if args.paths_file:
            cfg.paths.paths_file = args.paths_file
        if args.output_dir:
            cfg.output_dir = args.output_dir
        return run(args.command, cfg)
    except (ConfigError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (SingularRegressionError, PicardDivergenceError,
            analysis.BihariOrderingError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
