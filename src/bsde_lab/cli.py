"""Config-driven command line: hypothesis checks, solves, oracle comparisons,
constants, the integral recursion, path generation, and convergence studies.

Configs are strict JSON; unknown keys are rejected by name.  All numeric CSV
output renders with 17 significant digits so reruns are byte-comparable.
"""

import argparse
import json
import math
import sys
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis, oracle
from .generator import (EnvelopeA, GeneratorSpec, ProcessSpec, SamplerConfig,
                        auto_envelope, check_h1, check_h3, custom_generator,
                        default_h1_modulus, estimate_lipschitz_z,
                        example1_generator, linear_generator, verify_envelope,
                        zero_generator)
from .modulus import (DIVERGENT, ModulusSpec, check_shape, example1_h_modulus,
                      linear_modulus, load_tabulated_csv,
                      linear_growth_coefficient, osgood_classify,
                      power_modulus, tabulated_modulus)
from .paths import PathEnsemble, generate_ensemble, load_ensemble, save_ensemble
from .solver import (BasisSpec, TerminalSpec, constant_terminal,
                     coordinate_terminal, custom_terminal, picard_solve,
                     save_picard_report_csv, save_solution_csv,
                     square_norm_terminal, terminal_values)

SUBCOMMANDS = ("check", "solve", "oracle-compare", "bihari", "constants",
               "gen-paths", "convergence-study")


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _require_keys(block: dict, allowed: set, path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else
                              f"unknown key '{key}'")


def _typed(block: dict, key: str, kind, path: str, default=None):
    if key not in block or block[key] is None:
        return default
    val = block[key]
    name = f"{path}.{key}" if path else key
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if kind is int and isinstance(val, bool):
        raise ConfigError(f"field '{name}' must be {kind.__name__}")
    if not isinstance(val, kind):
        raise ConfigError(f"field '{name}' must be {kind.__name__}")
    return val


def _field_kind(annotation):
    """The value type a config field holds: X for an `X | None` annotation."""
    return next((a for a in typing.get_args(annotation) if a is not type(None)),
                annotation)


def _parse_fields(block: dict, cls, path: str, **parsed):
    """Build the config dataclass cls from block.

    Key names, types and defaults come from the fields of cls; an absent or
    null key keeps its default.  parsed holds the keys the caller read by hand.
    """
    kinds = {f.name: _field_kind(f.type) for f in fields(cls)}
    _require_keys(block, set(kinds), path)
    return cls(**parsed, **{key: _typed(block, key, kind, path)
                            for key, kind in kinds.items()
                            if key not in parsed and block.get(key) is not None})


@dataclass
class PathsConfig:
    M: int = 16384
    N: int = 50
    d: int = 1
    T: float = 1.0
    seed: int = 0
    antithetic: bool = False
    paths_file: str | None = None


@dataclass
class SolverConfig:
    p: float = 2.0
    basis_degree: int = 3
    ridge: float | None = None
    picard_tol: float = 1e-4
    picard_max_iter: int = 25
    init: float | None = None
    split: float | str | None = None
    # accepted for existing configs; the solver has only the blocked reduction
    deterministic_reduction: bool = True


@dataclass
class ConstantsConfig:
    k_prime_p: float = 2.0
    k_doubleprime_p: float = 2.0
    c1: float | None = None
    c3: float | None = None
    c2: float | None = None


@dataclass
class BihariConfig:
    M_bound: float | None = None
    T1: float | None = None
    n_max: int = 60
    quad_steps: int = 2048


@dataclass
class StudyConfig:
    M_values: list = field(default_factory=lambda: [1024, 4096, 16384])
    N_values: list = field(default_factory=lambda: [10, 25, 50])


@dataclass
class RunConfig:
    paths: PathsConfig
    solver: SolverConfig
    generator: GeneratorSpec
    terminal: TerminalSpec | None
    modulus: ModulusSpec | None
    envelope: EnvelopeA | None
    constants: ConstantsConfig
    bihari: BihariConfig
    study: StudyConfig
    output_dir: str


def _parse_paths(block: dict) -> PathsConfig:
    cfg = _parse_fields(block, PathsConfig, "paths")
    if cfg.M < 1 or cfg.N < 1 or cfg.d < 1:
        raise ConfigError("paths counts M, N, d must all be >= 1")
    if cfg.T <= 0.0:
        raise ConfigError("paths.T must be positive")
    return cfg


def _parse_solver(block: dict) -> SolverConfig:
    init = block.get("init")
    if init is not None:
        if init == "zero":
            init = None
        elif isinstance(init, dict):
            _require_keys(init, {"constant"}, "solver.init")
            init = _typed(init, "constant", float, "solver.init", 0.0)
        elif isinstance(init, (int, float)) and not isinstance(init, bool):
            init = float(init)
        else:
            raise ConfigError("solver.init must be 'zero', a number, or "
                              "{\"constant\": v}")
    split = block.get("split")
    if split is not None and split != "auto":
        if isinstance(split, dict):
            _require_keys(split, {"T1"}, "solver.split")
            split = _typed(split, "T1", float, "solver.split")
        elif isinstance(split, (int, float)) and not isinstance(split, bool):
            split = float(split)
        else:
            raise ConfigError("solver.split must be 'auto', a number, or "
                              "{\"T1\": t}")
    cfg = _parse_fields(block, SolverConfig, "solver", init=init, split=split)
    if not cfg.deterministic_reduction:
        raise ConfigError("solver.deterministic_reduction must be true: the "
                          "unblocked reduction path was removed")
    if cfg.p <= 1.0:
        raise ConfigError("solver.p must exceed 1")
    if cfg.picard_max_iter < 1:
        raise ConfigError("solver.picard_max_iter must be >= 1")
    return cfg


def _parse_generator(block: dict, d: int) -> GeneratorSpec:
    _require_keys(block, {"family", "params", "k", "d"}, "generator")
    family = _typed(block, "family", str, "generator")
    if family is None:
        raise ConfigError("generator.family required")
    params = block.get("params", {}) or {}
    k = _typed(block, "k", int, "generator", 1)
    gd = _typed(block, "d", int, "generator", d)
    if gd != d:
        raise ConfigError("generator.d must match paths.d")
    if family == "zero":
        _require_keys(params, set(), "generator.params")
        return zero_generator(k=k, d=gd)
    if family == "linear":
        _require_keys(params, {"a", "b", "c"}, "generator.params")
        return linear_generator(a=params.get("a", 0.0), b=params.get("b", 0.0),
                                c=params.get("c", 0.0), k=k, d=gd)
    if family == "example1":
        _require_keys(params, {"p", "delta"}, "generator.params")
        return example1_generator(p=_typed(params, "p", float, "generator.params", 2.0),
                                  delta=_typed(params, "delta", float,
                                               "generator.params", None),
                                  d=gd)
    if family == "custom":
        _require_keys(params, {"name"}, "generator.params")
        name = _typed(params, "name", str, "generator.params")
        if name is None:
            raise ConfigError("generator.params.name required for custom")
        return custom_generator(name, k=k, d=gd)
    raise ConfigError(f"unknown generator family '{family}'")


def _parse_terminal(block: dict) -> TerminalSpec:
    _require_keys(block, {"kind", "params", "k"}, "terminal")
    kind = _typed(block, "kind", str, "terminal")
    params = block.get("params", {}) or {}
    k = _typed(block, "k", int, "terminal", 1)
    if kind == "coordinate":
        _require_keys(params, {"j"}, "terminal.params")
        return coordinate_terminal(_typed(params, "j", int, "terminal.params", 0))
    if kind == "square_norm":
        _require_keys(params, set(), "terminal.params")
        return square_norm_terminal()
    if kind == "constant":
        _require_keys(params, {"value"}, "terminal.params")
        value = params.get("value", 0.0)
        return constant_terminal(value, k=k if np.isscalar(value) else None)
    if kind == "custom":
        _require_keys(params, {"name"}, "terminal.params")
        name = _typed(params, "name", str, "terminal.params")
        if name is None:
            raise ConfigError("terminal.params.name required for custom")
        return custom_terminal(name, k=k)
    raise ConfigError(f"unknown terminal kind '{kind}'")


def _parse_modulus(block: dict, path: str = "modulus") -> ModulusSpec:
    _require_keys(block, {"family", "params", "domain_cap"}, path)
    family = _typed(block, "family", str, path)
    params = block.get("params", {}) or {}
    cap = _typed(block, "domain_cap", float, path, 1.0)
    if family == "linear":
        _require_keys(params, {"mu"}, f"{path}.params")
        return linear_modulus(_typed(params, "mu", float, f"{path}.params", 0.0),
                              domain_cap=cap)
    if family == "power":
        _require_keys(params, {"c", "alpha"}, f"{path}.params")
        return power_modulus(_typed(params, "c", float, f"{path}.params", 1.0),
                             _typed(params, "alpha", float, f"{path}.params", 1.0),
                             domain_cap=cap)
    if family == "example1h":
        _require_keys(params, {"p", "delta"}, f"{path}.params")
        return example1_h_modulus(_typed(params, "p", float, f"{path}.params", 2.0),
                                  _typed(params, "delta", float, f"{path}.params", None),
                                  domain_cap=cap)
    if family == "tabulated":
        _require_keys(params, {"breakpoints", "csv_path"}, f"{path}.params")
        if "csv_path" in params:
            return load_tabulated_csv(params["csv_path"], domain_cap=cap)
        pts = params.get("breakpoints")
        if not isinstance(pts, list):
            raise ConfigError(f"field '{path}.params.breakpoints' must be a list")
        return tabulated_modulus(pts, domain_cap=cap)
    raise ConfigError(f"unknown modulus family '{family}'")


def _parse_process(block: dict, path: str) -> ProcessSpec:
    _require_keys(block, {"kind", "params"}, path)
    kind = _typed(block, "kind", str, path, "zero")
    params = block.get("params", {}) or {}
    if kind == "zero":
        _require_keys(params, set(), f"{path}.params")
        return ProcessSpec("zero")
    if kind == "constant":
        _require_keys(params, {"value"}, f"{path}.params")
        return ProcessSpec("constant", value=_typed(params, "value", float,
                                                    f"{path}.params", 0.0))
    if kind == "abs_brownian_coordinate":
        _require_keys(params, {"index"}, f"{path}.params")
        return ProcessSpec("abs_brownian_coordinate",
                           index=_typed(params, "index", int, f"{path}.params", 0))
    if kind == "modulus_of_frozen_path":
        _require_keys(params, {"mod", "exponent"}, f"{path}.params")
        return ProcessSpec("modulus_of_frozen_path",
                           mod=_parse_modulus(params.get("mod", {}),
                                              f"{path}.params.mod"),
                           exponent=_typed(params, "exponent", float,
                                           f"{path}.params", 2.0))
    raise ConfigError(f"unknown process kind '{kind}'")


def _parse_envelope(block: dict) -> EnvelopeA:
    _require_keys(block, {"psi", "lambda", "phi", "f"}, "envelope")
    if "psi" not in block:
        raise ConfigError("envelope.psi required")
    lam = _typed(block, "lambda", float, "envelope", 0.0)
    phi = _parse_process(block.get("phi", {"kind": "zero"}), "envelope.phi")
    f = _parse_process(block.get("f", {"kind": "zero"}), "envelope.f")
    return EnvelopeA(psi=_parse_modulus(block["psi"], "envelope.psi"),
                     lam=lam, phi=phi, f=f)


def _parse_study(block: dict) -> StudyConfig:
    cfg = _parse_fields(block, StudyConfig, "study")
    for key in ("M_values", "N_values"):
        vals = getattr(cfg, key)
        if not vals or not all(isinstance(v, int) and v >= 1 for v in vals):
            raise ConfigError(f"field 'study.{key}' must be a list of "
                              "positive integers")
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse the JSON config document; unknown keys are rejected by name."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(doc, {"paths", "solver", "generator", "terminal", "modulus",
                        "envelope", "constants", "bihari", "study",
                        "output_dir"}, "")
    if "generator" not in doc:
        raise ConfigError("generator required")
    paths = _parse_paths(doc.get("paths") or {})
    solver = _parse_solver(doc.get("solver") or {})
    gen = _parse_generator(doc["generator"], paths.d)
    terminal = _parse_terminal(doc["terminal"]) if "terminal" in doc else None
    modulus = _parse_modulus(doc["modulus"]) if "modulus" in doc else None
    envelope = _parse_envelope(doc["envelope"]) if "envelope" in doc else None
    constants = _parse_fields(doc.get("constants") or {}, ConstantsConfig,
                              "constants")
    bihari = _parse_fields(doc.get("bihari") or {}, BihariConfig, "bihari")
    study = _parse_study(doc.get("study") or {})
    output_dir = _typed(doc, "output_dir", str, "", "out")
    return RunConfig(paths=paths, solver=solver, generator=gen,
                     terminal=terminal, modulus=modulus, envelope=envelope,
                     constants=constants, bihari=bihari, study=study,
                     output_dir=output_dir)


def _acquire_ensemble(cfg: RunConfig) -> PathEnsemble:
    pc = cfg.paths
    if pc.paths_file and Path(pc.paths_file).exists():
        return load_ensemble(pc.paths_file)
    return generate_ensemble(pc.M, pc.N, pc.d, pc.T, pc.seed,
                             antithetic=pc.antithetic)


def _h1_modulus(cfg: RunConfig) -> ModulusSpec:
    """The configured modulus, else the family's: linear on [0, 100], or
    example1's h on [0, 10] through the H1* -> H1 transform."""
    if cfg.modulus is not None:
        return cfg.modulus
    mod = default_h1_modulus(cfg.generator, cfg.solver.p, 100.0, 10.0)
    if mod is None:
        raise ConfigError("custom generators need an explicit modulus block")
    return mod


def _bundle(cfg: RunConfig, ens: PathEnsemble, mod: ModulusSpec | None):
    gen, sc, cc = cfg.generator, cfg.solver, cfg.constants
    lip = estimate_lipschitz_z(gen, SamplerConfig(seed=cfg.paths.seed + 1,
                                                  horizon=cfg.paths.T))
    lam = lip.analytic if lip.analytic is not None else lip.sampled
    growth_a = linear_growth_coefficient(mod) if mod is not None else 0.0
    term_moment = 0.0
    if cfg.terminal is not None:
        xi = terminal_values(cfg.terminal, ens)
        term_moment = float(np.mean(np.linalg.norm(xi, axis=1) ** sc.p))
    h3 = check_h3(gen, ens, sc.p)
    return analysis.compute_constants(
        sc.p, lam, cfg.paths.T, growth_a, k_prime_p=cc.k_prime_p,
        k_doubleprime_p=cc.k_doubleprime_p, c1=cc.c1, c3=cc.c3, c2=cc.c2,
        terminal_moment=term_moment, h3_moment=h3.estimate)


def _resolve_split(cfg: RunConfig, ens: PathEnsemble) -> float | None:
    split = cfg.solver.split
    if split is None:
        return None
    if split == "auto":
        t1 = _bundle(cfg, ens, _h1_modulus(cfg)).t1
        return t1 if t1 > 0.0 else cfg.paths.T / 2.0
    return float(split)


def _write_rows(path: Path, header: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (int, str))
                              else _fmt(c) for c in row) + "\n")


def _cmd_check(cfg: RunConfig, out: Path) -> int:
    ens = _acquire_ensemble(cfg)
    gen, p = cfg.generator, cfg.solver.p
    mod = _h1_modulus(cfg)
    sampler = SamplerConfig(count=8192, seed=cfg.paths.seed + 1,
                            horizon=cfg.paths.T)

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
    h1 = check_h1(gen, mod, p, sampler)
    rows.append(("h1", h1.passed, h1.max_ratio, f"tol={_fmt(h1.tol)}"))
    lip = estimate_lipschitz_z(gen, sampler)
    lip_ok = math.isfinite(lip.sampled) and (
        lip.analytic is None or lip.sampled <= lip.analytic + 1e-9)
    rows.append(("h2_lipschitz_z", lip_ok, lip.sampled,
                 f"analytic={'' if lip.analytic is None else _fmt(lip.analytic)}"))
    h3 = check_h3(gen, ens, p)
    rows.append(("h3", math.isfinite(h3.estimate) and not h3.unstable,
                 h3.estimate, f"se={_fmt(h3.standard_error)};"
                 f"unstable={h3.unstable}"))
    env = cfg.envelope if cfg.envelope is not None else auto_envelope(gen, p)
    if env is not None:
        er = verify_envelope(gen, env, p, ens, sampler)
        rows.append(("envelope", er.passed, er.max_defect, f"tol={_fmt(er.tol)}"))
    else:
        rows.append(("envelope", True, 0.0, "skipped: no envelope configured"))

    _write_rows(out / "check_report.csv",
                ["check", "passed", "value", "detail"],
                [(name, str(ok).lower(), val, detail)
                 for name, ok, val, detail in rows])
    return 0 if all(ok for _, ok, _, _ in rows) else 1


def _solve(cfg: RunConfig, ens: PathEnsemble):
    if cfg.terminal is None:
        raise ConfigError("terminal block required to solve")
    sc = cfg.solver
    split = _resolve_split(cfg, ens)
    basis = BasisSpec(degree=sc.basis_degree, ridge=sc.ridge)
    return picard_solve(cfg.generator, cfg.terminal, ens, basis, p=sc.p,
                        tol=sc.picard_tol, max_iter=sc.picard_max_iter,
                        init=sc.init, split=split)


def _cmd_solve(cfg: RunConfig, out: Path) -> int:
    ens = _acquire_ensemble(cfg)
    sol, report = _solve(cfg, ens)
    save_solution_csv(sol, out / "solution.csv")
    save_picard_report_csv(report, out / "picard_report.csv")
    return 0


def _infer_oracle(cfg: RunConfig) -> oracle.OracleInstance:
    if cfg.terminal is None:
        raise ConfigError("terminal block required for oracle comparison")
    inst = oracle.match_oracle(cfg.generator, cfg.terminal, cfg.paths.T)
    if inst is None:
        raise ConfigError("no closed-form oracle matches this generator/terminal")
    return inst


def _cmd_oracle_compare(cfg: RunConfig, out: Path) -> int:
    inst = _infer_oracle(cfg)
    ens = _acquire_ensemble(cfg)
    sol, report = _solve(cfg, ens)
    errs = oracle.compare_to_oracle(sol, inst, ens, cfg.solver.p)
    _write_rows(out / "oracle_errors.csv",
                ["sp_error", "z_rms_error", "iters", "converged"],
                [(errs.sp_error, errs.z_rms_error, report.iterations,
                  str(report.converged).lower())])
    return 0


def _cmd_bihari(cfg: RunConfig, out: Path) -> int:
    mod = _h1_modulus(cfg)
    bc = cfg.bihari
    m_bound, t1 = bc.M_bound, bc.T1
    if m_bound is None or t1 is None:
        ens = _acquire_ensemble(cfg)
        cb = _bundle(cfg, ens, mod)
        m_bound = cb.m_bound if m_bound is None else m_bound
        t1 = cb.t1 if t1 is None else t1
    curve = analysis.bihari_recursion(mod, m_bound, cfg.paths.T, t1,
                                      bc.n_max, bc.quad_steps)
    header = ["t"] + [f"phi_{n}" for n in range(curve.values.shape[0])]
    rows = [tuple([curve.times[i]] + list(curve.values[:, i]))
            for i in range(curve.times.size)]
    _write_rows(out / "bihari.csv", header, rows)
    return 0


def _cmd_constants(cfg: RunConfig, out: Path) -> int:
    ens = _acquire_ensemble(cfg)
    cb = _bundle(cfg, ens, cfg.modulus)
    rows = [(name, getattr(cb, name)) for name in
            ("p", "lam", "T", "A", "k_prime_p", "k_doubleprime_p", "c2",
             "theta", "c_p", "c_lambda_p_T", "d_lambda_p_theta", "c1", "c3",
             "mu0", "m_bound", "t1")]
    _write_rows(out / "constants.csv", ["name", "value"], rows)
    return 0


def _cmd_gen_paths(cfg: RunConfig, out: Path) -> int:
    ens = generate_ensemble(cfg.paths.M, cfg.paths.N, cfg.paths.d, cfg.paths.T,
                            cfg.paths.seed, antithetic=cfg.paths.antithetic)
    target = cfg.paths.paths_file or str(out / "paths.bsde")
    save_ensemble(ens, target)
    return 0


def _cmd_convergence_study(cfg: RunConfig, out: Path) -> int:
    inst = _infer_oracle(cfg)
    rows = []
    for m in cfg.study.M_values:
        for n in cfg.study.N_values:
            ens = generate_ensemble(m, n, cfg.paths.d, cfg.paths.T,
                                    cfg.paths.seed,
                                    antithetic=cfg.paths.antithetic)
            sol, report = _solve(cfg, ens)
            errs = oracle.compare_to_oracle(sol, inst, ens, cfg.solver.p)
            rows.append((m, n, errs.sp_error, errs.z_rms_error,
                         report.iterations))
    _write_rows(out / "convergence.csv",
                ["M", "N", "sp_error", "z_rms_error", "iters"], rows)
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "solve": _cmd_solve,
    "oracle-compare": _cmd_oracle_compare,
    "bihari": _cmd_bihari,
    "constants": _cmd_constants,
    "gen-paths": _cmd_gen_paths,
    "convergence-study": _cmd_convergence_study,
}


def run(cmd: str, cfg: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status (0 ok,
    1 check failure, 2 usage/config error)."""
    if cmd not in _HANDLERS:
        raise ConfigError(f"unknown subcommand '{cmd}'")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _HANDLERS[cmd](cfg, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsde-lab",
        description="Checks, solves, and studies for BSDEs with "
                    "non-Lipschitz drivers.")
    parser.add_argument("command", choices=SUBCOMMANDS)
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
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
