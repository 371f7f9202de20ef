import dataclasses
import inspect
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import bsde_lab as bl
from bsde_lab import cli
from bsde_lab.cli import ConfigError, main, parse_config, run
from bsde_lab.generator import GENERATOR_FAMILIES, PROCESS_KINDS
from bsde_lab.modulus import DIVERGENT, MODULUS_FAMILIES, ModulusFamily
from bsde_lab.paths import save_solution_csv
from bsde_lab.solver import TERMINAL_KINDS, terminal_values


def _config(tmp_path, **overrides):
    doc = {
        "paths": {"M": 1024, "N": 10, "d": 1, "T": 1.0, "seed": 3},
        "generator": {"family": "zero", "k": 1},
        "terminal": {"kind": "constant", "params": {"value": 1.0}},
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ------------------------------------------------------------------- parsing

def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps({
        "generator": {"family": "zero", "k": 1},
        "terminal": {"kind": "constant", "params": {"value": 1.0}},
        "paths": {"T": 1.0},
    }))
    assert cfg.paths.M == 16384
    assert cfg.paths.N == 50
    assert cfg.solver.basis_degree == 3
    assert cfg.solver.p == 2.0
    assert cfg.solver.picard_tol == 1e-4
    assert cfg.solver.picard_max_iter == 25
    assert cfg.constants.k_prime_p == 2.0


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="stepz"):
        parse_config(json.dumps({
            "generator": {"family": "zero"},
            "paths": {"stepz": 3},
        }))


def test_missing_generator():
    with pytest.raises(ConfigError, match="generator required"):
        parse_config(json.dumps({"paths": {"M": 16}}))


def test_type_mismatch_names_field():
    with pytest.raises(ConfigError, match="paths.M"):
        parse_config(json.dumps({
            "generator": {"family": "zero"},
            "paths": {"M": "many"},
        }))


def test_p_must_exceed_one():
    with pytest.raises(ConfigError):
        parse_config(json.dumps({
            "generator": {"family": "zero"},
            "solver": {"p": 1.0},
        }))


def test_generator_d_is_an_unknown_key(tmp_path, capsys):
    # d is the ensemble's: the generator block does not state it
    path = _write(tmp_path, {"generator": {"family": "zero", "d": 1}})
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown key 'generator.d'\n"


def test_modulus_block_families():
    cfg = parse_config(json.dumps({
        "generator": {"family": "zero"},
        "modulus": {"family": "example1h", "params": {"p": 2.0},
                    "domain_cap": 5.0},
    }))
    assert cfg.modulus.family == "example1h"
    assert cfg.modulus.domain_cap == 5.0
    cfg = parse_config(json.dumps({
        "generator": {"family": "zero"},
        "modulus": {"family": "tabulated",
                    "params": {"breakpoints": [[0.0, 0.0], [1.0, 1.0]]}},
    }))
    assert cfg.modulus.breakpoints == ((0.0, 0.0), (1.0, 1.0))


def test_envelope_block():
    cfg = parse_config(json.dumps({
        "generator": {"family": "example1", "params": {"p": 2.0}},
        "envelope": {
            "psi": {"family": "linear", "params": {"mu": 1.0},
                    "domain_cap": 25.0},
            "lambda": 1.0,
            "f": {"kind": "abs_brownian_coordinate", "params": {"index": 0}},
        },
    }))
    assert cfg.envelope.lam == 1.0
    assert cfg.envelope.f.kind == "abs_brownian_coordinate"
    assert cfg.envelope.phi.kind == "zero"


def test_init_and_split_forms():
    cfg = parse_config(json.dumps({
        "generator": {"family": "zero"},
        "solver": {"init": 1.5, "split": 0.5},
    }))
    assert cfg.solver.init == 1.5
    assert cfg.solver.split == 0.5
    cfg = parse_config(json.dumps({
        "generator": {"family": "zero"},
        "solver": {"split": "auto"},
    }))
    assert cfg.solver.init is None
    assert cfg.solver.split == "auto"
    for key, value in (("init", "zero"), ("init", {"constant": 1.5}),
                       ("split", {"T1": 0.5}), ("split", "half")):
        with pytest.raises(ConfigError, match=f"solver.{key}"):
            parse_config(json.dumps({"generator": {"family": "zero"},
                                     "solver": {key: value}}))


CONFIGS = sorted((Path(__file__).resolve().parent.parent
                  / "scripts" / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_example_configs_parse(path):
    cfg = parse_config(path.read_text())
    assert cfg.terminal is not None


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_example_configs_run_check_and_constants(tmp_path, path):
    commands = ["check", "constants"]
    if path.name == "martingale_study.json":
        commands.append("convergence-study")
    assert [main([cmd, str(path), "--output-dir", str(tmp_path)])
            for cmd in commands] == [0] * len(commands)


def test_example_configs_present():
    assert {p.name for p in CONFIGS} >= {
        "example1.json", "linear_drift.json", "martingale.json",
        "martingale_square.json"}


def test_parse_reads_every_field():
    cfg = parse_config(json.dumps({
        "generator": {"family": "zero"},
        "paths": {"M": 64, "N": 4, "d": 1, "T": 2, "seed": 5,
                  "antithetic": True, "paths_file": "p.bsde"},
        "solver": {"p": 3, "basis_degree": 2, "ridge": 0.5, "picard_tol": 1e-3,
                   "picard_max_iter": 7, "deterministic_reduction": True},
        "constants": {"k_prime_p": 3.0, "c1": 1.0, "c3": 2.0, "c2": 0.5},
        "bihari": {"M_bound": 2.0, "T1": 0.25, "n_max": 5, "quad_steps": 64},
        "study": {"M_values": [32], "N_values": [2, 3]},
    }))
    assert (cfg.paths.M, cfg.paths.N, cfg.paths.T, cfg.paths.seed) == (64, 4, 2.0, 5)
    assert cfg.paths.antithetic and cfg.paths.paths_file == "p.bsde"
    assert isinstance(cfg.paths.T, float) and isinstance(cfg.solver.p, float)
    assert (cfg.solver.p, cfg.solver.basis_degree, cfg.solver.ridge,
            cfg.solver.picard_tol, cfg.solver.picard_max_iter) == (3.0, 2, 0.5, 1e-3, 7)
    assert (cfg.constants.k_prime_p, cfg.constants.c1, cfg.constants.c3,
            cfg.constants.c2) == (3.0, 1.0, 2.0, 0.5)
    assert (cfg.bihari.M_bound, cfg.bihari.T1, cfg.bihari.n_max,
            cfg.bihari.quad_steps) == (2.0, 0.25, 5, 64)
    assert (cfg.study.M_values, cfg.study.N_values) == ([32], [2, 3])


@pytest.mark.parametrize("block, key, value", [
    ("paths", "antithetic", 1),
    ("solver", "basis_degree", 2.5),
    ("solver", "deterministic_reduction", "yes"),
    ("bihari", "n_max", True),
    ("constants", "c1", "big"),
    ("study", "M_values", 8),
])
def test_field_type_errors_name_the_field(block, key, value):
    with pytest.raises(ConfigError, match=f"{block}.{key}"):
        parse_config(json.dumps({"generator": {"family": "zero"},
                                 block: {key: value}}))


def test_study_lists_must_hold_positive_integers():
    for key, values, shown in (
            ("N_values", [4, 0], "N_values[1] is 0"),
            ("N_values", [True, 4], "N_values[0] is True"),
            ("M_values", [64, False], "M_values[1] is False"),
            ("M_values", [], "M_values is [], but must be a non-empty list")):
        with pytest.raises(ConfigError, match=rf"^study\.{re.escape(shown)}"):
            parse_config(json.dumps({"generator": {"family": "zero"},
                                     "study": {key: values}}))


# The five config blocks whose number fields declare a range.
_CONFIG_BLOCKS = {"paths": cli.PathsConfig, "solver": cli.SolverConfig,
                  "constants": cli.ConstantsConfig, "bihari": cli.BihariConfig,
                  "study": cli.StudyConfig}

_TINY = math.ulp(0.0)

# (block, key, a value just outside the field's range, the boundary value or
# the first value inside an open bound)
_RANGE_CASES = [
    ("paths", "M", 0, 1), ("paths", "N", 0, 1), ("paths", "d", 0, 1),
    ("paths", "T", 0.0, _TINY),
    ("paths", "seed", -1, 0), ("paths", "seed", 2 ** 64, 2 ** 64 - 1),
    ("solver", "p", 1.0, math.nextafter(1.0, 2.0)),
    ("solver", "basis_degree", -1, 0),
    ("solver", "ridge", -_TINY, 0.0),
    ("solver", "picard_tol", 0.0, _TINY),
    ("solver", "picard_max_iter", 0, 1),
    ("solver", "split", -_TINY, 0.0), ("solver", "split", "half", "auto"),
    ("constants", "k_prime_p", 0.0, _TINY),
    ("constants", "c1", 0.0, _TINY), ("constants", "c3", 0.0, _TINY),
    ("constants", "c2", 0.0, _TINY),
    ("bihari", "M_bound", -_TINY, 0.0), ("bihari", "T1", -_TINY, 0.0),
    ("bihari", "n_max", -1, 0), ("bihari", "quad_steps", 1, 2),
    ("study", "M_values", [0], [1]), ("study", "N_values", [0], [1]),
]


def test_every_number_field_declares_a_range():
    ranged = set()
    for block, cls in _CONFIG_BLOCKS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            rule = f.metadata.get("range")
            kinds = {hints[f.name], *typing.get_args(hints[f.name])}
            if rule is not None:
                assert rule in cli._RANGES, (block, f.name)
                ranged.add((block, f.name))
            elif kinds & {int, float, list}:
                # init takes any real
                assert (block, f.name) == ("solver", "init")
    assert ranged == {(block, key) for block, key, _, _ in _RANGE_CASES}


@pytest.mark.parametrize("block, key, outside, inside", _RANGE_CASES,
                         ids=[f"{b}.{k}={o!r}" for b, k, o, _ in _RANGE_CASES])
def test_a_value_outside_a_range_is_named(block, key, outside, inside):
    def parse(value):
        return parse_config(json.dumps({"generator": {"family": "zero"},
                                        block: {key: value}}))

    with pytest.raises(ConfigError,
                       match=rf"^{block}\.{key}(\[0\])? is .*, but must be "):
        parse(outside)
    assert getattr(getattr(parse(inside), block), key) == inside


def test_unblocked_reduction_exits_two(tmp_path, capsys):
    path = _write(tmp_path, _config(
        tmp_path, solver={"deterministic_reduction": False}))
    assert main(["solve", str(path)]) == 2
    assert "unblocked reduction path was removed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- subcommands

def test_solve_writes_report_and_solution(tmp_path):
    cfg = parse_config(json.dumps(_config(tmp_path)))
    assert run("solve", cfg) == 0
    report = (tmp_path / "out" / "picard_report.csv").read_text().splitlines()
    assert report[0] == "window,iter,dist_y,dist_z,sp_norm,converged"
    assert report[1].startswith("0,1,0,0,") and report[1].endswith("true")
    sol = bl.load_solution(tmp_path / "out" / "solution.bsol")
    assert (sol.y.shape, sol.z.shape) == ((1024, 11, 1), (1024, 10, 1, 1))
    assert sol.grid == bl.TimeGrid(T=1.0, N=10)
    assert not (tmp_path / "out" / "solution.csv").exists()


def test_constants_csv_values(tmp_path):
    cfg = parse_config(json.dumps(_config(
        tmp_path, paths={"M": 256, "N": 5, "d": 1, "T": 1.0, "seed": 3})))
    assert run("constants", cfg) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "out" / "constants.csv").read_text()
                .splitlines()[1:])
    assert float(rows["c_p"]) == 1.0
    assert float(rows["c_lambda_p_T"]) == 256.0
    assert float(rows["lam"]) == 0.0


def test_constants_take_a_from_the_h1_modulus_bihari_reads(tmp_path):
    # no modulus block: A is the growth of the family's default modulus, as
    # for bihari and split: "auto", not 0
    cfg = parse_config(json.dumps(_config(
        tmp_path, generator={"family": "example1", "params": {"p": 2.0}})))
    assert run("constants", cfg) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "out" / "constants.csv").read_text()
                .splitlines()[1:])
    assert rows["A"] == "1.1239337037538191"
    assert float(rows["A"]) == bl.linear_growth_coefficient(cli._h1_modulus(cfg))


def test_constants_without_a_modulus_to_read_exit_two(tmp_path, capsys,
                                                      add_driver):
    # a family with no default modulus needs the block, as bihari does
    add_driver("cli_no_h1", lambda t, b, y, z: -y)
    path = _write(tmp_path, _config(tmp_path, generator={"family": "cli_no_h1"}))
    assert main(["constants", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: this generator family needs an explicit modulus block\n")
    assert not (tmp_path / "out").exists()


def test_check_example1_passes(tmp_path):
    doc = _config(tmp_path,
                  paths={"M": 2048, "N": 20, "d": 1, "T": 1.0, "seed": 7},
                  generator={"family": "example1", "params": {"p": 2.0},
                             "k": 1})
    del doc["terminal"]
    cfg = parse_config(json.dumps(doc))
    assert run("check", cfg) == 0
    report = (tmp_path / "out" / "check_report.csv").read_text().splitlines()
    assert report[0] == "check,passed,value,detail"
    names = [line.split(",")[0] for line in report[1:]]
    assert names == ["shape_rho", "osgood_rho", "h1", "h2_lipschitz_z", "h3",
                     "envelope"]
    assert all(line.split(",")[1] == "true" for line in report[1:])


def test_check_failure_exits_one(tmp_path):
    doc = _config(tmp_path,
                  paths={"M": 512, "N": 10, "d": 1, "T": 1.0, "seed": 7},
                  generator={"family": "example1", "params": {"p": 2.0},
                             "k": 1},
                  modulus={"family": "linear", "params": {"mu": 1e-6},
                           "domain_cap": 100.0})
    del doc["terminal"]
    cfg = parse_config(json.dumps(doc))
    assert run("check", cfg) == 1


def test_oracle_compare(tmp_path):
    doc = _config(tmp_path,
                  terminal={"kind": "coordinate", "params": {"j": 0}})
    cfg = parse_config(json.dumps(doc))
    assert run("oracle-compare", cfg) == 0
    lines = (tmp_path / "out" / "oracle_errors.csv").read_text().splitlines()
    assert lines[0] == "sp_error,z_rms_error,iters,converged"
    sp_error = float(lines[1].split(",")[0])
    assert sp_error < 0.5


def test_oracle_compare_rejects_unmatched(tmp_path):
    doc = _config(tmp_path,
                  generator={"family": "example1", "params": {"p": 2.0},
                             "k": 1},
                  terminal={"kind": "coordinate", "params": {"j": 0}})
    cfg = parse_config(json.dumps(doc))
    with pytest.raises(ConfigError):
        run("oracle-compare", cfg)


def test_gen_paths_and_reuse(tmp_path):
    doc = _config(tmp_path)
    doc["paths"]["paths_file"] = str(tmp_path / "paths.bsde")
    cfg = parse_config(json.dumps(doc))
    assert run("gen-paths", cfg) == 0
    ens = bl.load_ensemble(tmp_path / "paths.bsde")
    assert ens.M == 1024 and ens.grid.N == 10
    # solve reuses the stored file
    assert run("solve", cfg) == 0


def test_bihari_subcommand(tmp_path):
    doc = _config(tmp_path,
                  modulus={"family": "linear", "params": {"mu": 1.0},
                           "domain_cap": 2.0},
                  bihari={"M_bound": 1.0, "T1": 0.0, "n_max": 4,
                          "quad_steps": 512})
    cfg = parse_config(json.dumps(doc))
    assert run("bihari", cfg) == 0
    lines = (tmp_path / "out" / "bihari.csv").read_text().splitlines()
    assert lines[0] == "t,phi_0,phi_1,phi_2,phi_3,phi_4"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, rel=1e-12)
    assert first[2] == pytest.approx(0.5, rel=1e-3)


def test_convergence_study(tmp_path):
    doc = _config(tmp_path, paths={"d": 1, "T": 1.0, "seed": 3},
                  terminal={"kind": "coordinate", "params": {"j": 0}},
                  study={"M_values": [256, 512], "N_values": [5]})
    cfg = parse_config(json.dumps(doc))
    assert run("convergence-study", cfg) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "M,N,sp_error,z_rms_error,iters,converged"
    assert len(lines) == 3
    assert lines[1].startswith("256,5,") and lines[1].endswith(",true")


def test_every_shipped_study_config_runs_the_study(tmp_path):
    studies = [p for p in CONFIGS if "study" in json.loads(p.read_text())]
    assert studies
    for path in studies:
        out = tmp_path / path.stem
        assert main(["convergence-study", str(path), "--output-dir", str(out)]) == 0
        study = parse_config(path.read_text()).study
        lines = (out / "convergence.csv").read_text().splitlines()
        assert len(lines) == 1 + len(study.M_values) * len(study.N_values)


def test_convergence_study_marks_a_row_that_did_not_converge(tmp_path):
    doc = _config(tmp_path, paths={"d": 1, "T": 1.0, "seed": 3},
                  generator={"family": "linear", "params": {"a": 0.5}},
                  solver={"picard_max_iter": 1},
                  study={"M_values": [256], "N_values": [5]})
    assert run("convergence-study", parse_config(json.dumps(doc))) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[1].startswith("256,5,") and lines[1].endswith(",1,false")


def test_rerun_byte_identical(tmp_path):
    doc = _config(tmp_path, solver={"deterministic_reduction": True},
                  terminal={"kind": "coordinate", "params": {"j": 0}})
    cfg = parse_config(json.dumps(doc))
    outputs = []
    for _ in range(2):
        assert run("solve", cfg) == 0
        assert run("solution-csv", cfg) == 0
        outputs.append([(tmp_path / "out" / name).read_bytes()
                        for name in ("solution.bsol", "solution.csv")])
    assert outputs[1] == outputs[0]


# ------------------------------------------------------------------ main()

def test_main_exit_codes(tmp_path):
    path = _write(tmp_path, _config(tmp_path))
    assert main(["solve", str(path)]) == 0
    bad = _write(tmp_path, {"generator": {"family": "zero"},
                            "paths": {"stepz": 1}}, "bad.json")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_main_output_dir_override(tmp_path):
    path = _write(tmp_path, _config(tmp_path))
    out = tmp_path / "elsewhere"
    assert main(["solve", str(path), "--output-dir", str(out)]) == 0
    assert (out / "picard_report.csv").exists()


def test_main_paths_file_flag(tmp_path):
    ens = bl.generate_ensemble(128, 5, 1, 1.0, seed=9)
    stored = tmp_path / "stored.bsde"
    bl.save_ensemble(ens, stored)
    path = _write(tmp_path, _config(tmp_path))
    assert main(["solve", str(path), "--paths-file", str(stored)]) == 2
    assert not (tmp_path / "out" / "solution.bsol").exists()
    bare = _config(tmp_path)
    del bare["paths"]
    path = _write(tmp_path, bare, "bare.json")
    assert main(["solve", str(path), "--paths-file", str(stored)]) == 0
    sol = bl.load_solution(tmp_path / "out" / "solution.bsol")
    assert (sol.y.shape, sol.z.shape) == ((128, 6, 1), (128, 5, 1, 1))


def _stored(tmp_path, M=300, N=7, d=1, T=2.0, seed=9, antithetic=False):
    stored = tmp_path / "stored.bsde"
    bl.save_ensemble(bl.generate_ensemble(M, N, d, T, seed=seed,
                                          antithetic=antithetic), stored)
    return stored


@pytest.mark.parametrize("key, value, shown", [
    ("M", 256, "M = 300, but paths.M is 256"),
    ("N", 10, "N = 7, but paths.N is 10"),
    ("T", 1.0, "T = 2.0, but paths.T is 1.0"),
    ("seed", 3, "seed = 9, but paths.seed is 3"),
    ("antithetic", True, "antithetic = False, but paths.antithetic is True"),
])
def test_paths_file_disagreeing_with_a_stated_key_exits_two(
        tmp_path, capsys, key, value, shown):
    stored = _stored(tmp_path)
    path = _write(tmp_path, _config(tmp_path, paths={key: value}))
    assert main(["solve", str(path), "--paths-file", str(stored)]) == 2
    assert shown in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.bsol").exists()


def test_paths_file_agreeing_with_every_stated_key_solves(tmp_path):
    stored = _stored(tmp_path, antithetic=True)
    path = _write(tmp_path, _config(tmp_path, paths={
        "M": 300, "N": 7, "d": 1, "T": 2, "seed": 9, "antithetic": True,
        "paths_file": str(stored)}))
    assert main(["solve", str(path)]) == 0
    sol = bl.load_solution(tmp_path / "out" / "solution.bsol")
    assert (sol.y.shape, sol.z.shape) == ((300, 8, 1), (300, 7, 1, 1))


@pytest.mark.parametrize("command", ["solve", "check"])
def test_paths_file_dimension_must_match_a_stated_paths_d(tmp_path, capsys,
                                                         command):
    # d is compared with paths.d only where the config states it; otherwise
    # the file's d is the run's
    stored = _stored(tmp_path, d=3)
    doc = _config(tmp_path, paths={"d": 1})
    path = _write(tmp_path, doc)
    assert main([command, str(path), "--paths-file", str(stored)]) == 2
    assert "d = 3, but paths.d is 1" in capsys.readouterr().err
    del doc["paths"]
    path = _write(tmp_path, doc)
    assert main([command, str(path), "--paths-file", str(stored)]) == 0


def test_paths_file_with_unknown_flags_exits_two(tmp_path, capsys):
    stored = _stored(tmp_path)
    raw = bytearray(stored.read_bytes())
    raw[28] = 2
    stored.write_bytes(bytes(raw))
    doc = _config(tmp_path)
    del doc["paths"]
    path = _write(tmp_path, doc)
    assert main(["solve", str(path), "--paths-file", str(stored)]) == 2
    assert "flags" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "oracle-compare", "check"])
def test_a_paths_file_that_is_not_finite_exits_two(tmp_path, capsys, command):
    # a NaN in payload entry 37 is path 3, step 7: named at load, where the
    # solve used to blame its regression at time index 9
    stored = _stored(tmp_path, M=512, N=10)
    raw = bytearray(stored.read_bytes())
    struct.pack_into("<d", raw, bl.paths._ENSEMBLE.header.size + 8 * 37,
                     math.nan)
    stored.write_bytes(bytes(raw))
    doc = _config(tmp_path, terminal={"kind": "coordinate"})
    del doc["paths"]
    path = _write(tmp_path, doc)
    assert main([command, str(path), "--paths-file", str(stored)]) == 2
    assert capsys.readouterr().err == (
        f"error: paths file '{stored}': path 3 is not finite from time index "
        f"8 on: its increment at step 7 is [nan]\n")
    assert not (tmp_path / "out").exists()

def test_oracle_compare_takes_the_horizon_of_the_paths_file(tmp_path):
    stored = _stored(tmp_path, M=16384, N=10, T=2.0)
    doc = _config(tmp_path, terminal={"kind": "coordinate"})
    del doc["paths"]
    path = _write(tmp_path, doc)
    assert main(["oracle-compare", str(path), "--paths-file", str(stored)]) == 0
    row = (tmp_path / "out" / "oracle_errors.csv").read_text().splitlines()[1]
    sp_error, z_rms_error = (float(v) for v in row.split(",")[:2])
    assert sp_error <= 0.05 and z_rms_error <= 0.10


def test_bihari_with_given_bounds_takes_the_horizon_of_the_paths_file(
        tmp_path):
    stored = _stored(tmp_path, T=2.0)
    doc = _config(tmp_path,
                  modulus={"family": "linear", "params": {"mu": 0.25},
                           "domain_cap": 2.0},
                  bihari={"M_bound": 1.0, "T1": 0.0, "n_max": 2,
                          "quad_steps": 64})
    del doc["paths"]
    path = _write(tmp_path, doc)
    assert main(["bihari", str(path), "--paths-file", str(stored)]) == 0
    rows = (tmp_path / "out" / "bihari.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[0]) == 2.0


@pytest.mark.parametrize("T1", [1.0, 1.5])
def test_bihari_T1_at_or_beyond_the_horizon_exits_two(tmp_path, capsys, T1):
    path = _write(tmp_path, _config(tmp_path, bihari={"T1": T1}))
    assert main(["bihari", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bihari.T1 is {T1}") and "T is 1.0" in err


def test_bihari_given_bound_below_phi_0_exits_two(tmp_path, capsys):
    doc = _config(tmp_path, bihari={"M_bound": 1.0, "T1": 0.0})
    doc["paths"]["T"] = 2.0
    assert main(["bihari", str(_write(tmp_path, doc))]) == 2
    assert capsys.readouterr().err.startswith("error: bihari.M_bound is 1.0")


# mod(M) = 10 M overflows a double at M = 1e308, so phi_0 does too.
_OVERFLOWING_PHI_0 = {"family": "linear", "params": {"mu": 10}}


def test_bihari_given_bound_that_overflows_phi_0_exits_two(tmp_path, capsys):
    doc = _config(tmp_path, modulus=_OVERFLOWING_PHI_0,
                  bihari={"M_bound": 1e308, "T1": 0.5})
    assert main(["bihari", str(_write(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bihari.M_bound is 1e+308, too large")
    assert err.count("\n") == 1


def test_bihari_computed_bound_that_overflows_phi_0_exits_one(tmp_path):
    # c2 = 1e307 and E|xi|^2 = 1 give M = 2 mu0 + 2 A T ~ 2e307
    doc = _config(tmp_path, modulus=_OVERFLOWING_PHI_0, bihari={"T1": 0.5},
                  constants={"c2": 1e307, "c3": 1e-9})
    out = _python("-m", "bsde_lab.cli", "bihari", str(_write(tmp_path, doc)))
    assert out.returncode == 1
    assert out.stderr.startswith("error: phi_0 = (T - T1) mod(M) overflows a double")
    assert out.stderr.count("\n") == 1


def test_bihari_ordering_failure_of_computed_bounds_exits_one(tmp_path,
                                                               capsys):
    doc = _config(tmp_path, bihari={"T1": 0.0},
                  generator={"family": "example1", "params": {"p": 2.0},
                             "k": 1})
    assert main(["bihari", str(_write(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: phi_0 exceeds the uniform bound")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("M_bound", -1.0), ("n_max", -1), ("quad_steps", 1), ("T1", -0.5)])
def test_bihari_settings_out_of_range_exit_two(tmp_path, capsys, key, value):
    path = _write(tmp_path, _config(tmp_path, bihari={key: value}))
    assert main(["bihari", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: bihari.{key}")


@pytest.mark.parametrize("split, rc", [(1.5, 0), (2.0, 2), (2.5, 2)])
def test_split_is_checked_against_the_horizon_of_the_paths_file(
        tmp_path, capsys, split, rc):
    stored = _stored(tmp_path, T=2.0)
    doc = _config(tmp_path, solver={"split": split})
    del doc["paths"]
    path = _write(tmp_path, doc)
    assert main(["solve", str(path), "--paths-file", str(stored)]) == rc
    if rc:
        err = capsys.readouterr().err
        assert err.startswith("error: solver.split") and "T is 2.0" in err


def test_split_auto_at_t1_zero_solves_in_one_window(tmp_path):
    # At this horizon every T1 candidate is negative, so T1 = 0 and [0, T]
    # is one local interval.
    doc = _config(tmp_path, paths={"M": 256, "N": 10, "T": 0.004, "seed": 3},
                  generator={"family": "linear", "params": {"a": 0.5, "c": 0.2}},
                  solver={"split": "auto"})
    path = _write(tmp_path, doc)
    assert main(["constants", str(path)]) == 0
    assert "t1,0\n" in (tmp_path / "out" / "constants.csv").read_text()
    assert main(["solve", str(path)]) == 0
    report = (tmp_path / "out" / "picard_report.csv").read_text().splitlines()
    assert {row.split(",")[0] for row in report[1:]} == {"0"}


_LINEAR = {"family": "linear", "params": {"a": 0.5, "c": 0.2}}


@pytest.mark.parametrize("command, output, generator", [
    ("solve", "picard_report.csv", _LINEAR),
    ("constants", "constants.csv", _LINEAR),
    ("bihari", "bihari.csv", _LINEAR),
    ("check", "check_report.csv", {"family": "cli_time_scaled"}),
])
def test_commands_take_the_horizon_of_the_paths_file(tmp_path, add_driver,
                                                     command, output, generator):
    add_driver("cli_time_scaled",
               lambda t, b, y, z: t[:, None] * y if np.ndim(t) else t * y)
    stored = _stored(tmp_path, M=512, N=10, T=2.0)
    outputs = []
    for paths in ({}, {"T": 2.0}):
        doc = _config(tmp_path, paths=paths, solver={"split": "auto"},
                      generator=generator,
                      modulus={"family": "linear", "params": {"mu": 4.0},
                               "domain_cap": 100.0},
                      bihari={"n_max": 3, "quad_steps": 64})
        path = _write(tmp_path, doc)
        assert main([command, str(path), "--paths-file", str(stored)]) == 0
        outputs.append((tmp_path / "out" / output).read_text())
    assert outputs[0] == outputs[1]


# ------------------------------------------------------ family defaults

_MATRIX_A = [[0.5, 0.1], [0.0, 0.3]]


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("gen, mu", [
    ({"family": "zero", "k": 1}, lambda p: 1.0),
    ({"family": "linear", "params": {"a": 0.5}, "k": 1}, lambda p: 0.5 ** p),
    ({"family": "linear", "params": {"a": _MATRIX_A}, "k": 2},
     lambda p: float(np.linalg.norm(np.asarray(_MATRIX_A), 2)) ** p),
])
def test_default_h1_modulus_linear_families(gen, mu, p):
    cfg = parse_config(json.dumps({"generator": gen, "solver": {"p": p}}))
    mod = cli._h1_modulus(cfg)
    assert mod.family == "linear"
    assert mod.mu == mu(p)
    assert mod.domain_cap == 10.0 ** p


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_default_h1_modulus_example1(p):
    cfg = parse_config(json.dumps({
        "generator": {"family": "example1", "params": {"p": 2.0}},
        "solver": {"p": p}}))
    mod = cli._h1_modulus(cfg)
    h = bl.example1_h_modulus(2.0, domain_cap=10.0)
    expected = bl.power_root(h, p)
    assert mod.family == "tabulated"
    assert mod.domain_cap == 10.0 ** p
    assert mod.breakpoints == expected.breakpoints


def test_default_h1_modulus_custom_needs_block(add_driver):
    add_driver("cli_pin_custom", lambda t, b, y, z: -y)
    cfg = parse_config(json.dumps({"generator": {"family": "cli_pin_custom"}}))
    with pytest.raises(ConfigError, match="explicit modulus"):
        cli._h1_modulus(cfg)


def _abs_z_generator(b: float = 0.5) -> bl.GeneratorSpec:
    return bl.GeneratorSpec("abs_z", k=1, b=b)


def test_a_family_record_is_reachable_from_a_config(tmp_path, monkeypatch):
    monkeypatch.setitem(GENERATOR_FAMILIES, "abs_z", bl.DriverFamily(
        _abs_z_generator,
        lambda gen, t, brownian, y, z: gen.b * np.abs(z[:, :, 0]),
        lipschitz_z=lambda gen: gen.b,
        h1_modulus=lambda gen, p, radius: bl.linear_modulus(
            1.0, domain_cap=radius ** p)))
    path = _write(tmp_path, _config(
        tmp_path, paths={"M": 256, "N": 5, "seed": 3},
        generator={"family": "abs_z", "params": {"b": 0.25}}))
    assert main(["check", str(path)]) == 0
    rows = (tmp_path / "out" / "check_report.csv").read_text().splitlines()
    assert [r for r in rows if r.startswith("h2_lipschitz_z,true,")][0] \
        .endswith(",analytic=0.25")
    assert main(["solve", str(path)]) == 0


def _plain_linear_generator(a: float = 0.0, b: float = 0.0, c: float = 0.0,
                            k: int = 1) -> bl.GeneratorSpec:
    return bl.GeneratorSpec("plain_linear", k=k, a=a, b=b, c=c)


def _last_coordinate_terminal() -> bl.TerminalSpec:
    return bl.TerminalSpec("last_coordinate")


def test_runtime_records_run_like_the_builtins(tmp_path, monkeypatch):
    # the linear driver and the coordinate terminal, as records that state no
    # facts: the driver's z-Lipschitz constant is sampled, its H1 modulus
    # comes from the modulus block, and check skips the envelope
    monkeypatch.setitem(GENERATOR_FAMILIES, "plain_linear", bl.DriverFamily(
        _plain_linear_generator, GENERATOR_FAMILIES["linear"].evaluate))
    monkeypatch.setitem(TERMINAL_KINDS, "last_coordinate", bl.TerminalKind(
        _last_coordinate_terminal, lambda term, b_T, k: b_T[:, -1:]))
    params = {"a": 0.5, "b": 0.25, "c": 0.2}
    outputs = {}
    for generator, terminal in (
            ({"family": "linear", "params": params}, {"kind": "coordinate"}),
            ({"family": "plain_linear", "params": params},
             {"kind": "last_coordinate"})):
        out = tmp_path / generator["family"]
        path = _write(tmp_path, _config(
            tmp_path, paths={"M": 256, "N": 5, "seed": 3}, generator=generator,
            terminal=terminal, output_dir=str(out),
            modulus={"family": "linear", "params": {"mu": 0.25}}))
        assert [main([cmd, str(path)]) for cmd in
                ("check", "solve", "solution-csv", "constants")] == [0, 0, 0, 0]
        outputs[generator["family"]] = {
            name: (out / name).read_text().splitlines() for name in (
                "check_report.csv", "solution.csv", "picard_report.csv",
                "constants.csv")}
    builtin, runtime = outputs["linear"], outputs["plain_linear"]
    for name in ("solution.csv", "picard_report.csv"):
        assert runtime[name] == builtin[name]
    h2 = [r.split(",") for r in runtime["check_report.csv"]
          if r.startswith("h2_lipschitz_z,")][0]
    lam = [r.split(",") for r in runtime["constants.csv"] if r.startswith("lam,")][0]
    assert h2[3] == "analytic=" and h2[2] == lam[1]
    assert float(lam[1]) == pytest.approx(0.25, rel=1e-9)  # sampled, not exact
    assert "lam,0.25" in builtin["constants.csv"]
    assert runtime["check_report.csv"][-1] == \
        "envelope,true,0,skipped: no envelope configured"


def _saturating_modulus(c: float = 1.0, domain_cap: float = 1.0) -> bl.ModulusSpec:
    return bl.ModulusSpec("saturating", domain_cap=domain_cap, c=c)


def test_a_modulus_family_record_is_reachable_from_a_config(tmp_path, monkeypatch):
    monkeypatch.setitem(MODULUS_FAMILIES, "saturating", ModulusFamily(
        _saturating_modulus, lambda mod, u: mod.c * u / (1.0 + u),
        lambda mod, w: DIVERGENT))
    path = _write(tmp_path, _config(
        tmp_path, paths={"M": 256, "N": 5, "seed": 3},
        modulus={"family": "saturating", "params": {"c": 2.0}, "domain_cap": 4.0}))
    cfg = parse_config(path.read_text())
    assert cfg.modulus == _saturating_modulus(2.0, 4.0)
    assert bl.eval_modulus(cfg.modulus, 1.0) == 1.0
    assert main(["check", str(path)]) == 0
    rows = (tmp_path / "out" / "check_report.csv").read_text().splitlines()
    assert [r for r in rows if r.startswith("osgood_rho,true,")][0] \
        .endswith(",classification=divergent;rule=analytic")
    assert main(["constants", str(path)]) == 0
    rows = (tmp_path / "out" / "constants.csv").read_text().splitlines()
    assert rows[4] == "A,0.5"  # max of 2u / (1 + u)^2, at u = 1


def test_bundle_samples_lipschitz_z_only_without_an_exact_constant(
        tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a known constant")

    monkeypatch.setattr(cli, "estimate_lipschitz_z", no_sampling)
    path = _write(tmp_path, _config(tmp_path, paths={"M": 256, "N": 5}))
    assert main(["constants", str(path)]) == 0


# ------------------------------------------------------- tagged blocks

def _scaled_y_generator(b: float = 1.0, k: int = 1) -> bl.GeneratorSpec:
    return bl.GeneratorSpec("scaled_y", k=k, b=b)


def _shifted_terminal(j: int = 0, value: float = 0.0) -> bl.TerminalSpec:
    return bl.TerminalSpec("shifted", j=j, value=(value,))


# Records a test adds at runtime, by (block, family): their table and record.
_RUNTIME_RECORDS = {
    ("generator", "scaled_y"): (GENERATOR_FAMILIES, bl.DriverFamily(
        _scaled_y_generator, lambda gen, t, brownian, y, z: gen.b * y)),
    ("terminal", "shifted"): (TERMINAL_KINDS, bl.TerminalKind(
        _shifted_terminal,
        lambda term, b_T, k: b_T[:, [term.j]] + term.value[0])),
}


@pytest.fixture
def runtime_records(monkeypatch):
    for (_, family), (table, record) in _RUNTIME_RECORDS.items():
        monkeypatch.setitem(table, family, record)


# Where each tagged block sits in a config document.
_BLOCK_SPEC = {"generator": bl.GeneratorSpec, "terminal": bl.TerminalSpec,
               "modulus": bl.ModulusSpec, "envelope.f": bl.ProcessSpec}

# (block, family, params as JSON, the same arguments as the factory takes);
# together the cases give every factory parameter of every family.
_TAGGED_CASES = [
    ("generator", "zero", {}, {}),
    ("generator", "linear", {"a": 0.5, "b": 0.25, "c": 0.1},
     {"a": 0.5, "b": 0.25, "c": 0.1}),
    ("generator", "example1", {"p": 3.0, "delta": 0.1}, {"p": 3.0, "delta": 0.1}),
    ("generator", "scaled_y", {"b": 2.0}, {"b": 2.0}),
    ("terminal", "coordinate", {"j": 2}, {"j": 2}),
    ("terminal", "square_norm", {}, {}),
    ("terminal", "constant", {"value": 2.5}, {"value": 2.5}),
    ("terminal", "shifted", {"j": 1, "value": 0.5}, {"j": 1, "value": 0.5}),
    ("modulus", "linear", {"mu": 0.5}, {"mu": 0.5}),
    ("modulus", "power", {"c": 2.0, "alpha": 0.5}, {"c": 2.0, "alpha": 0.5}),
    ("modulus", "example1h", {"p": 3.0, "delta": 0.1}, {"p": 3.0, "delta": 0.1}),
    ("modulus", "tabulated", {"breakpoints": [[0, 0], [2, 1]]},
     {"breakpoints": [[0, 0], [2, 1]]}),
    ("modulus", "tabulated", {"csv_path": "CSV"}, {"breakpoints": [[0, 0], [2, 1]]}),
    ("envelope.f", "zero", {}, {}),
    ("envelope.f", "constant", {"value": 0.5}, {"value": 0.5}),
    ("envelope.f", "abs_brownian_coordinate", {"index": 0}, {"index": 0}),
]
_FACTORY = {(block, name): record.factory
            for block, table in (("generator", GENERATOR_FAMILIES),
                                 ("terminal", TERMINAL_KINDS),
                                 ("modulus", MODULUS_FAMILIES),
                                 ("envelope.f", PROCESS_KINDS))
            for name, record in table.items()}
_FACTORY.update({key: record.factory
                 for key, (_, record) in _RUNTIME_RECORDS.items()})


def _case_id(case):
    return f"{case[0]}-{case[1]}-{'-'.join(case[2]) or 'none'}"


def _tagged_doc(block, family, params, tmp_path):
    if params.get("csv_path") == "CSV":
        csv = tmp_path / "mod.csv"
        csv.write_text("u,v\n0,0\n2,1\n")
        params = dict(params, csv_path=str(csv))
    tag = "family" if block in ("generator", "modulus") else "kind"
    body = {tag: family, "params": params}
    doc = {"generator": {"family": "zero"}, "paths": {"d": 1}}
    if block == "envelope.f":
        doc["envelope"] = {"psi": {"family": "linear"}, "f": body}
    else:
        doc[block] = body
    return doc


def _tagged_spec(cfg, block):
    return cfg.envelope.f if block == "envelope.f" else getattr(cfg, block)


def test_tagged_cases_cover_every_factory_parameter():
    for block, spec in _BLOCK_SPEC.items():
        tag, table, outer, _ = cli._TAGGED[spec]
        for family, record in table.items():
            factory = record.factory
            named = {key for b, f, params, _ in _TAGGED_CASES
                     if (b, f) == (block, family) for key in params}
            expected = set(inspect.signature(factory).parameters) - set(outer)
            assert named == expected, (block, family)


@pytest.mark.parametrize("case", _TAGGED_CASES, ids=_case_id)
def test_tagged_params_reach_the_factory(case, tmp_path, runtime_records):
    block, family, params, kwargs = case
    cfg = parse_config(json.dumps(_tagged_doc(block, family, params, tmp_path)))
    assert _tagged_spec(cfg, block) == _FACTORY[block, family](**kwargs)


@pytest.mark.parametrize("case", _TAGGED_CASES, ids=_case_id)
def test_tagged_unknown_param_is_named(case, tmp_path, runtime_records):
    block, family, params, _ = case
    doc = _tagged_doc(block, family, dict(params, bogus=1), tmp_path)
    with pytest.raises(ConfigError, match=f"{block}.params.bogus"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("case", _TAGGED_CASES, ids=_case_id)
def test_tagged_mistyped_param_names_the_field(case, tmp_path, runtime_records):
    block, family, params, _ = case
    for key in params:
        bad = 5 if key == "csv_path" else "wrong"
        doc = _tagged_doc(block, family, dict(params, **{key: bad}), tmp_path)
        with pytest.raises(ConfigError, match=f"{block}.params.{key}"):
            parse_config(json.dumps(doc))


@pytest.mark.parametrize("case", _TAGGED_CASES, ids=_case_id)
def test_tagged_omitted_param_keeps_the_factory_default(case, tmp_path,
                                                      runtime_records):
    block, family, params, kwargs = case
    factory = _FACTORY[block, family]
    defaults = inspect.signature(factory).parameters
    for key in params:
        # breakpoints and csv_path are an exactly-one pair: neither can go
        if key in ("breakpoints", "csv_path") \
                or defaults[key].default is inspect.Parameter.empty:
            continue
        rest = {k: v for k, v in params.items() if k != key}
        cfg = parse_config(json.dumps(_tagged_doc(block, family, rest, tmp_path)))
        expected = factory(**{k: v for k, v in kwargs.items() if k != key})
        assert _tagged_spec(cfg, block) == expected


@pytest.mark.parametrize("block, tag", [("generator", "family"),
                                        ("terminal", "kind"),
                                        ("modulus", "family"),
                                        ("envelope.f", "kind")])
def test_tagged_unknown_family_is_named(block, tag, tmp_path):
    doc = _tagged_doc(block, "nosuch", {}, tmp_path)
    with pytest.raises(ConfigError, match=f"unknown {block} {tag} 'nosuch'"):
        parse_config(json.dumps(doc))


def _needs_b_generator(b: float, k: int = 1) -> bl.GeneratorSpec:
    return bl.GeneratorSpec("needs_b", k=k, b=b)


def test_tagged_required_param_is_named(monkeypatch):
    # no builtin factory has a parameter without a default; a record may
    monkeypatch.setitem(GENERATOR_FAMILIES, "needs_b", bl.DriverFamily(
        _needs_b_generator, lambda gen, t, brownian, y, z: gen.b * y))
    with pytest.raises(ConfigError, match="generator.params.b required"):
        parse_config(json.dumps({"generator": {"family": "needs_b"}}))


def test_an_unannotated_factory_parameter_is_named(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setitem(GENERATOR_FAMILIES, "untyped", bl.DriverFamily(
        lambda b=1.0, k=1: bl.GeneratorSpec("untyped", k=k, b=b),
        lambda gen, t, brownian, y, z: gen.b * y))
    path = _write(tmp_path, _config(
        tmp_path, generator={"family": "untyped", "params": {"b": 0.5}}))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: generator.params.b ") and err.count("\n") == 1


@pytest.mark.parametrize("process", [{}, {"params": {}}, {"kind": None}])
def test_empty_process_block_means_zero(process):
    cfg = parse_config(json.dumps({
        "generator": {"family": "zero"},
        "envelope": {"psi": {"family": "linear"}, "phi": process}}))
    assert cfg.envelope.phi == bl.ProcessSpec("zero")
    assert cfg.envelope.f == bl.ProcessSpec("zero")


@pytest.mark.parametrize("block, bad, field", [
    ({"generator": {"family": "example1", "k": 2}}, "generator.k", "k = 1"),
])
def test_k_must_agree_with_the_family(block, bad, field):
    with pytest.raises(ConfigError, match=f"{bad}.*{field}"):
        parse_config(json.dumps(block))


@pytest.mark.parametrize("terminal", [
    {"kind": "coordinate", "k": 3},
    {"kind": "square_norm", "k": 1},
    {"kind": "constant", "params": {"value": [1.0, 2.0]}, "k": 2},
], ids=["coordinate", "square_norm", "constant"])
def test_terminal_k_is_an_unknown_key(tmp_path, capsys, terminal):
    # the driver alone states k: a terminal is evaluated for it
    path = _write(tmp_path, _config(tmp_path, terminal=terminal))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown key 'terminal.k'\n"
    assert not (tmp_path / "out").exists()


def test_k_that_agrees_with_the_family_parses():
    cfg = parse_config(json.dumps({
        "generator": {"family": "linear", "k": 2},
        "terminal": {"kind": "constant", "params": {"value": [1.0, 2.0]}}}))
    assert cfg.generator.k == 2
    assert cfg.terminal == bl.constant_terminal([1.0, 2.0])


def test_solve_rejects_terminal_k_unlike_generator_k(tmp_path, capsys):
    path = _write(tmp_path, _config(
        tmp_path, terminal={"kind": "constant", "params": {"value": [1.0, 2.0]}}))
    assert main(["solve", str(path)]) == 2
    assert "generator.k = 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides", [
    ("constants", {}),
    ("bihari", {}),
    ("oracle-compare", {}),
    ("solve", {}),
    ("solve", {"solver": {"split": "auto"}}),
    ("convergence-study", {"paths": {"seed": 3},
                           "study": {"M_values": [64], "N_values": [4]}}),
], ids=["constants", "bihari", "oracle-compare", "solve", "solve-split-auto",
        "convergence-study"])
def test_every_command_that_reads_the_terminal_rejects_its_k_unlike_generator_k(
        tmp_path, capsys, command, overrides):
    # one line from the one check, terminal_values; the oracle commands name
    # the mismatch, not the missing closed form
    m = 64 if command == "convergence-study" else 1024
    for generator, terminal, width, k in (
            ({"family": "zero", "k": 1}, {"kind": "constant",
                                          "params": {"value": [1.0, 2.0]}}, 2, 1),
            ({"family": "zero", "k": 2}, {"kind": "coordinate"}, 1, 2)):
        path = _write(tmp_path, _config(tmp_path, generator=generator,
                                        terminal=terminal, **overrides))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: terminal kind '{terminal['kind']}' gives xi of shape "
            f"({m}, {width}), but generator.k = {k} needs ({m}, {k})\n")
        assert not (tmp_path / "out").exists()


def test_scalar_constant_terminal_solves_at_any_k(tmp_path):
    path = _write(tmp_path, _config(
        tmp_path, generator={"family": "linear", "params": {"c": 0.5}, "k": 3},
        terminal={"kind": "constant", "params": {"value": 1.5}}))
    assert main(["solve", str(path)]) == 0
    sol = bl.load_solution(tmp_path / "out" / "solution.bsol")
    assert sol.y.shape == (1024, 11, 3)
    assert np.allclose(sol.y[:, -1], 1.5) and np.allclose(sol.y[:, 0], 2.0)


def test_constant_terminal_rejects_vector_of_wrong_length():
    ens = bl.generate_ensemble(M=8, N=2, d=1, T=1.0, seed=0)
    with pytest.raises(bl.paths.DimensionError, match="generator.k = 3"):
        terminal_values(bl.constant_terminal([1.0, 2.0]), ens, 3)
    assert terminal_values(bl.constant_terminal(2.0), ens, 3).shape == (8, 3)


def test_tabulated_domain_cap_defaults_to_last_breakpoint():
    cfg = parse_config(json.dumps({
        "generator": {"family": "zero"},
        "modulus": {"family": "tabulated",
                    "params": {"breakpoints": [[0, 0], [1, 1], [100, 10]]}}}))
    assert cfg.modulus.domain_cap == 100.0
    assert cfg.modulus == bl.tabulated_modulus([(0, 0), (1, 1), (100, 10)])


@pytest.mark.parametrize("overrides, message", [
    ({"modulus": {"family": "linear", "params": {"mu": -1}}}, "mu >= 0"),
    ({"generator": {"family": "example1", "params": {"p": 0.5}}}, "p > 1"),
    ({"generator": {"family": "zero", "k": 0}}, "dims must be >= 1"),
    ({"generator": {"family": "linear", "params": {"a": [[1.0, 2.0]]}, "k": 2}},
     "k-by-k"),
    ({"modulus": {"family": "tabulated",
                  "params": {"breakpoints": [[0, 0], [1, 1]],
                             "csv_path": "m.csv"}}}, "exactly one of"),
    ({"envelope": {"psi": {"family": "linear"}, "lambda": -1.0}}, "lambda"),
    ({"envelope": {"psi": {"family": "linear"},
                   "f": {"kind": "abs_brownian_coordinate",
                         "params": {"index": 1}}}}, "index = 1"),
    # the id keeps its old name; the message names the ensemble's d
    pytest.param({"paths": {"M": 256, "N": 4, "d": 2},
                  "generator": {"family": "example1"}}, "needs d = 1, not 2",
                 id="overrides7-generator.d = 1"),
    ({"paths": {"M": 128, "N": 4, "seed": -1}}, "paths.seed is -1"),
    ({"paths": {"M": 128, "N": 4, "seed": 2 ** 64}},
     f"paths.seed is {2 ** 64}"),
    ({"constants": {"c1": -1}}, "constants.c1 is -1"),
    ({"constants": {"c2": -1}}, "constants.c2 is -1"),
    ({"constants": {"c3": 0}}, "constants.c3 is 0"),
    ({"constants": {"k_prime_p": 0}}, "constants.k_prime_p is 0"),
    ({"constants": {"k_prime_p": -1}}, "constants.k_prime_p is -1"),
    # the id keeps its old name; no constant reads k''_p, so the key is gone
    pytest.param({"constants": {"k_doubleprime_p": -1}},
                 "unknown key 'constants.k_doubleprime_p'",
                 id="overrides15-constants.k_doubleprime_p is -1"),
    ({"terminal": {"kind": "constant", "params": {"value": []}}},
     "terminal: constant terminal value needs at least one entry"),
    ({"modulus": {"family": "tabulated",
                  "params": {"breakpoints": [[0, 0], [1]]}}},
     "modulus: tabulated breakpoint [1] has 1 entries, not 2"),
    ({"modulus": {"family": "tabulated",
                  "params": {"breakpoints": [[0, 0], [1, 1, 5]]}}},
     "modulus: tabulated breakpoint [1] has 3 entries, not 2"),
])
def test_invalid_block_values_exit_two(tmp_path, capsys, overrides, message):
    path = _write(tmp_path, _config(tmp_path, **overrides))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("block, value, named", [
    ("constants", 0, "constants"),
    ("constants", 1, "constants"),
    ("study", [], "study"),
    ("solver", "", "solver"),
    ("bihari", 0, "bihari"),
    ("paths", False, "paths"),
    ("generator", {"family": "zero", "params": []}, "generator.params"),
    ("terminal", {"kind": "constant", "params": 0}, "terminal.params"),
], ids=["constants-0", "constants-1", "study-empty_list", "solver-empty_string",
        "bihari-0", "paths-false", "generator.params-empty_list",
        "terminal.params-0"])
def test_a_block_that_is_not_an_object_exits_two(tmp_path, capsys, block,
                                                  value, named):
    # only an absent key or null means an absent block; 0, [], "" and false
    # are not taken for one
    path = _write(tmp_path, _config(tmp_path, **{block: value}))
    assert main(["constants", str(path)]) == 2
    assert capsys.readouterr().err == f"error: '{named}' must be an object\n"


def test_a_null_block_keeps_every_default(tmp_path):
    doc = _config(tmp_path, constants=None, study=None, solver=None,
                  bihari=None, envelope=None)
    doc["terminal"] = {"kind": "square_norm", "params": None}
    cfg = parse_config(json.dumps(doc))
    assert cfg.terminal == bl.square_norm_terminal()
    assert cfg.constants == cli.ConstantsConfig()
    assert cfg.study == cli.StudyConfig()
    assert cfg.solver == cli.SolverConfig()
    assert cfg.bihari == cli.BihariConfig()
    assert cfg.envelope is None


# The ranged cases carry fixed ids, so a change in the message format does not
# rename them.
@pytest.mark.parametrize("solver, message", [
    pytest.param({"picard_tol": 0}, "solver.picard_tol is 0.0, but must be > 0",
                 id="solver0-solver.picard_tol must be positive"),
    pytest.param({"picard_tol": -1e-6}, "solver.picard_tol is -1e-06, but must be > 0",
                 id="solver1-solver.picard_tol must be positive"),
    ({"split": 1.5}, "solver.split is 1.5"),
    ({"split": {"T1": 1.0}}, "field 'solver.split' must be float or str"),
    ({"split": -0.5}, "solver.split is -0.5"),
    pytest.param({"basis_degree": -1}, "solver.basis_degree is -1, but must be >= 0",
                 id="solver6-solver.basis_degree must be >= 0"),
    pytest.param({"ridge": -1}, "solver.ridge is -1.0, but must be >= 0",
                 id="solver7-solver.ridge must be >= 0"),
])
def test_bad_solver_settings_exit_two(tmp_path, capsys, solver, message):
    path = _write(tmp_path, _config(tmp_path, solver=solver))
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, overrides, m_field", [
    ("solve", {"paths": {"M": 4, "N": 4}}, "paths.M"),
    ("oracle-compare", {"paths": {"M": 10, "N": 4, "d": 3}}, "paths.M"),
    ("convergence-study", {"paths": {"seed": 3},
                           "study": {"M_values": [1024, 3], "N_values": [4]}},
     "study.M_values"),
])
def test_solves_with_no_more_paths_than_basis_functions_exit_two(
        tmp_path, capsys, command, overrides, m_field):
    doc = _config(tmp_path, terminal={"kind": "coordinate"}, **overrides)
    assert main([command, str(_write(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {m_field} and solver.basis_degree: ")
    assert "must exceed the" in err
    assert not (tmp_path / "out").exists()


def test_check_and_constants_sample_lambda_alike(tmp_path, add_driver):
    # a driver with no exact z-Lipschitz constant: both read the sampled one
    add_driver("cli_sin_z", lambda t, b, y, z: 3.0 * np.sin(z[:, :, 0]))
    path = _write(tmp_path, _config(
        tmp_path, paths={"M": 128, "N": 4},
        generator={"family": "cli_sin_z"},
        terminal={"kind": "coordinate"},
        modulus={"family": "linear", "params": {"mu": 1.0}}))
    main(["check", str(path)])  # exits 1 or 0: only its report is read
    assert main(["constants", str(path)]) == 0
    out = tmp_path / "out"
    h2 = [r.split(",") for r in (out / "check_report.csv").read_text()
          .splitlines() if r.startswith("h2_lipschitz_z,")][0]
    lam = [r.split(",") for r in (out / "constants.csv").read_text()
           .splitlines() if r.startswith("lam,")][0]
    assert h2[2] == lam[1]


def test_sampled_checks_take_their_seed_from_the_ensemble(tmp_path):
    stored = _stored(tmp_path, M=256, N=5, T=1.0, seed=7)
    reports = []
    for paths in ({}, {"seed": 7}):
        doc = _config(tmp_path, paths=paths,
                      generator={"family": "example1", "params": {"p": 2.0}})
        del doc["terminal"]
        argv = ["check", str(_write(tmp_path, doc)), "--paths-file", str(stored)]
        assert main(argv) in (0, 1)
        reports.append((tmp_path / "out" / "check_report.csv").read_text())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("process", ["phi", "f"])
def test_check_with_a_frozen_path_envelope_exits_two(tmp_path, capsys,
                                                     process):
    # no command had a frozen iterate to evaluate this kind on, so it is gone
    frozen = {"kind": "modulus_of_frozen_path",
              "params": {"mod": {"family": "linear"}}}
    path = _write(tmp_path, _config(tmp_path, envelope={
        "psi": {"family": "linear"}, process: frozen}))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: unknown envelope.{process} kind 'modulus_of_frozen_path'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "oracle-compare", "constants"])
def test_terminal_coordinate_beyond_d_exits_two(tmp_path, capsys, command):
    path = _write(tmp_path, _config(
        tmp_path, terminal={"kind": "coordinate", "params": {"j": 1}}))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: terminal coordinate j = 1")


@pytest.mark.parametrize("command, overrides, message", [
    ("oracle-compare", {"terminal": {"kind": "coordinate", "params": {"j": -1}}},
     "terminal coordinate j = -1 is out of range for d = 2"),
    ("check", {"envelope": {"psi": {"family": "linear"},
                            "f": {"kind": "abs_brownian_coordinate",
                                  "params": {"index": -1}}}},
     "abs_brownian_coordinate index = -1 is out of range for d = 2"),
])
def test_a_negative_coordinate_index_exits_two(tmp_path, capsys, command,
                                               overrides, message):
    path = _write(tmp_path, _config(
        tmp_path, paths={"M": 256, "N": 4, "d": 2}, **overrides))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("overrides", [
    {"generator": {"family": "linear", "params": {"a": 0.5}, "k": 2},
     "terminal": {"kind": "constant", "params": {"value": [1.0, 2.0]}}},
], ids=["linear_drift-k2"])
def test_oracle_compare_without_an_oracle_of_that_shape_exits_two(
        tmp_path, capsys, overrides):
    path = _write(tmp_path, _config(tmp_path, **overrides))
    assert main(["oracle-compare", str(path)]) == 2
    assert "no closed-form oracle matches" in capsys.readouterr().err


@pytest.mark.parametrize("d", [2, 3])
def test_oracle_compare_square_norm_in_any_dimension(tmp_path, d):
    errors = []
    for m in (4096, 16384):
        out = tmp_path / str(m)
        path = _write(tmp_path, _config(
            tmp_path, paths={"M": m, "N": 10, "d": d, "seed": 3},
            terminal={"kind": "square_norm"}, output_dir=str(out)))
        assert main(["oracle-compare", str(path)]) == 0
        row = (out / "oracle_errors.csv").read_text().splitlines()[1]
        errors.append(float(row.split(",")[0]))
    assert errors[1] < errors[0]


@pytest.mark.parametrize("command", ["check", "solve", "oracle-compare",
                                     "bihari", "constants",
                                     "convergence-study"])
def test_missing_paths_file_exits_two(tmp_path, capsys, command):
    doc = _config(tmp_path, terminal={"kind": "coordinate"},
                  bihari={"M_bound": 1.0, "T1": 0.0, "n_max": 2,
                          "quad_steps": 16},
                  study={"M_values": [64], "N_values": [4]})
    path = _write(tmp_path, doc)
    missing = tmp_path / "absent.bsde"
    assert main([command, str(path), "--paths-file", str(missing)]) == 2
    assert "absent.bsde" in capsys.readouterr().err
    assert not missing.exists()


def test_gen_paths_writes_the_missing_paths_file(tmp_path):
    path = _write(tmp_path, _config(tmp_path))
    target = tmp_path / "new.bsde"
    assert main(["gen-paths", str(path), "--paths-file", str(target)]) == 0
    assert bl.load_ensemble(target).M == 1024
    assert not (tmp_path / "out").exists()  # nothing went to output_dir


def test_gen_paths_into_a_missing_directory_exits_two(tmp_path, capsys):
    path = _write(tmp_path, _config(tmp_path))
    target = tmp_path / "absent" / "new.bsde"
    assert main(["gen-paths", str(path), "--paths-file", str(target)]) == 2
    assert "absent" in capsys.readouterr().err
    assert not (tmp_path / "absent").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("damage", ["garbage", "truncated", "magic"])
def test_bad_paths_file_exits_two(tmp_path, capsys, damage):
    stored = tmp_path / "stored.bsde"
    bl.save_ensemble(bl.generate_ensemble(32, 4, 1, 1.0, seed=1), stored)
    raw = stored.read_bytes()
    stored.write_bytes({"garbage": b"not an ensemble",
                        "truncated": raw[:-8],
                        "magic": b"XXXX" + raw[4:]}[damage])
    path = _write(tmp_path, _config(tmp_path))
    assert main(["solve", str(path), "--paths-file", str(stored)]) == 2
    err = capsys.readouterr().err
    assert "stored.bsde" in err and "Traceback" not in err


def test_solution_csv_exports_the_solved_solution(tmp_path):
    path = _write(tmp_path, _config(
        tmp_path, terminal={"kind": "coordinate", "params": {"j": 0}}))
    assert main(["solve", str(path)]) == 0
    assert main(["solution-csv", str(path)]) == 0
    out = tmp_path / "out"
    save_solution_csv(bl.load_solution(out / "solution.bsol"),
                      tmp_path / "direct.csv")
    assert (out / "solution.csv").read_bytes() == \
        (tmp_path / "direct.csv").read_bytes()
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "path,step,t,y_1,z_11" and len(lines) == 1024 * 11 + 1


def _solution_csv_error(tmp_path, capsys, path) -> str:
    """The one stderr line of a solution-csv run that must exit 2."""
    assert main(["solution-csv", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "solution.bsol" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "solution.csv").exists()
    return err


def test_solution_csv_without_a_solution_file_exits_two(tmp_path, capsys):
    path = _write(tmp_path, _config(tmp_path))
    assert "does not exist" in _solution_csv_error(tmp_path, capsys, path)
    assert not (tmp_path / "out").exists()


# Header: magic (4 bytes), version (u32), M (u64) at byte 8.
@pytest.mark.parametrize("damage, message", [
    (lambda raw: b"XXXX" + raw[4:], "bad magic bytes"),
    (lambda raw: raw[:4] + (99).to_bytes(4, "little") + raw[8:],
     "unsupported format version 99"),
    (lambda raw: raw[:8] + (65).to_bytes(8, "little") + raw[16:],
     "header implies"),
    (lambda raw: raw[:-8], "header implies"),
    (lambda raw: raw[:20], "shorter than the solution header"),
], ids=["magic", "version", "sizes", "truncated_payload", "truncated_header"])
def test_bad_solution_file_exits_two(tmp_path, capsys, damage, message):
    path = _write(tmp_path, _config(
        tmp_path, paths={"M": 64, "N": 4, "d": 1, "T": 1.0, "seed": 3}))
    assert main(["solve", str(path)]) == 0
    target = tmp_path / "out" / "solution.bsol"
    target.write_bytes(damage(target.read_bytes()))
    assert message in _solution_csv_error(tmp_path, capsys, path)


@pytest.mark.parametrize("overrides, shown", [
    ({"paths": {"M": 128, "N": 4, "T": 1.0}}, "M = 64, but paths.M is 128"),
    ({"paths": {"M": 64, "N": 5, "T": 1.0}}, "N = 4, but paths.N is 5"),
    ({"paths": {"M": 64, "N": 4, "T": 2.0}}, "T = 1.0, but paths.T is 2.0"),
    ({"generator": {"family": "zero", "k": 2}}, "k = 1, but generator.k is 2"),
], ids=["M", "N", "T", "k"])
def test_solution_file_of_another_config_exits_two(tmp_path, capsys, overrides,
                                                   shown):
    paths = {"paths": {"M": 64, "N": 4, "T": 1.0}}
    solved = _write(tmp_path, _config(tmp_path, **paths), "solved.json")
    assert main(["solve", str(solved)]) == 0
    other = _write(tmp_path, _config(tmp_path, **{**paths, **overrides}),
                   "other.json")
    assert shown in _solution_csv_error(tmp_path, capsys, other)


def test_solution_csv_reads_no_paths_file(tmp_path):
    stored = _stored(tmp_path, M=64, N=4, T=1.0)
    bare = _config(tmp_path)
    del bare["paths"]
    path = _write(tmp_path, bare)
    assert main(["solve", str(path), "--paths-file", str(stored)]) == 0
    stored.unlink()
    assert main(["solution-csv", str(path), "--paths-file", str(stored)]) == 0
    assert len((tmp_path / "out" / "solution.csv").read_text()
               .splitlines()) == 64 * 5 + 1


@pytest.mark.parametrize("overrides, token", [
    ({"paths": {"M": 64, "N": 4, "T": math.nan}}, "NaN"),
    ({"modulus": {"family": "linear", "params": {"mu": math.nan}}}, "NaN"),
    ({"modulus": {"family": "linear", "params": {"mu": math.inf}}}, "Infinity"),
    ({"solver": {"picard_tol": -math.inf}}, "-Infinity"),
])
def test_non_finite_config_numbers_exit_two(tmp_path, capsys, overrides, token):
    path = _write(tmp_path, _config(tmp_path, **overrides))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and token in err


_DIGITS_400 = "1" + "0" * 400


@pytest.mark.parametrize("overrides, literal, message", [
    ({"paths": {"M": 128, "N": 4, "T": "BIG"}}, "1e400",
     "field 'paths.T' does not fit a double"),
    ({"solver": {"ridge": "BIG"}}, "1e400", "field 'solver.ridge' does not fit a double"),
    ({"solver": {"ridge": "BIG"}}, _DIGITS_400,
     "field 'solver.ridge' does not fit a double"),
    ({"solver": {"init": "BIG"}}, _DIGITS_400, "field 'solver.init' does not fit a double"),
    ({"modulus": {"family": "tabulated",
                  "params": {"breakpoints": [[0, 0], [1, "BIG"]]}}}, "-1e400",
     "field 'modulus.params.breakpoints[1][1]' does not fit a double"),
    ({"modulus": {"family": "tabulated",
                  "params": {"breakpoints": [[0, 0], ["BIG", 1]]}}}, _DIGITS_400,
     "modulus: int too large to convert to float"),
], ids=["T-1e400", "ridge-1e400", "ridge-400-digits", "init-400-digits",
        "breakpoint-minus-1e400", "breakpoint-400-digits"])
def test_numbers_that_do_not_fit_a_double_exit_two(
        tmp_path, capsys, overrides, literal, message):
    text = json.dumps(_config(tmp_path, **overrides)).replace('"BIG"', literal)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("row, cells", [("1", 1), ("1,1,5", 3)],
                         ids=["one-cell", "three-cells"])
def test_a_tabulated_csv_row_of_the_wrong_width_exits_two(tmp_path, capsys,
                                                          row, cells):
    csv = tmp_path / "mod.csv"
    csv.write_text(f"u,v\n0,0\n{row}\n2,1\n")
    path = _write(tmp_path, _config(tmp_path, modulus={
        "family": "tabulated", "params": {"csv_path": str(csv)}}))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: modulus: tabulated modulus CSV {csv}, line 3: {cells} cells, "
        "not 2\n")


def test_a_tabulated_csv_cell_that_is_not_a_number_exits_two(tmp_path,
                                                             capsys):
    csv = tmp_path / "mod.csv"
    csv.write_text("u,v\n0,0\nx,1\n2,1\n")
    path = _write(tmp_path, _config(tmp_path, modulus={
        "family": "tabulated", "params": {"csv_path": str(csv)}}))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: modulus: tabulated modulus CSV {csv}, line 3: could not "
        "convert string to float: 'x'\n")


_CONVEX = {"family": "power", "params": {"alpha": 2.0}}


@pytest.mark.parametrize("command, overrides, block", [
    ("constants", {"modulus": _CONVEX}, "modulus"),
    ("bihari", {"modulus": _CONVEX}, "modulus"),
    ("bihari", {"modulus": _CONVEX,
                "bihari": {"M_bound": 1.0, "T1": 0.5, "n_max": 2}}, "modulus"),
    ("solve", {"modulus": _CONVEX, "solver": {"split": "auto"}}, "modulus"),
    ("check", {"envelope": {"psi": _CONVEX}}, "envelope.psi"),
])
def test_a_modulus_that_is_not_concave_exits_two(
        tmp_path, capsys, command, overrides, block):
    path = _write(tmp_path, _config(tmp_path, paths={"M": 256, "N": 5, "seed": 3},
                                    **overrides))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}: the power modulus on [0, 1.0] must be "
                          "concave, nondecreasing and 0 at 0")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_check_reports_a_modulus_block_that_is_not_concave(tmp_path):
    path = _write(tmp_path, _config(tmp_path, paths={"M": 256, "N": 5, "seed": 3},
                                    modulus=_CONVEX))
    assert main(["check", str(path)]) == 1
    rows = (tmp_path / "out" / "check_report.csv").read_text().splitlines()
    assert rows[1].startswith("shape_rho,false,")


@pytest.mark.parametrize("command, params", [
    ("check", {"a": 1000.0}), ("bihari", {"a": 1000.0}), ("check", {"b": 1e4}),
    ("check", {"a": 1e7})],
    ids=["check-a", "bihari-a", "check-b", "check-a-envelope"])
def test_a_steep_linear_driver_passes_despite_round_off(tmp_path, command,
                                                        params):
    # the default modulus of a = 1000 is 4e6 u on [0, 100], concave up to the
    # round-off of its large values; the sampled z-Lipschitz constant of
    # b = 1e4 exceeds the exact one by about 1e-13 relative; the envelope of
    # a = 1e7 bounds values near 5e7 with a defect of about 7e-9, their
    # round-off
    path = _write(tmp_path, _config(
        tmp_path, paths={"M": 256, "N": 5, "seed": 3},
        generator={"family": "linear", "params": params}))
    assert main([command, str(path)]) == 0


def test_check_reports_an_overflowing_modulus_as_a_shape_failure(tmp_path):
    # c u^0.5 overflows a double on the whole check grid of [0, 1e300]
    doc = _config(tmp_path, paths={"M": 256, "N": 5, "seed": 3},
                  modulus={"family": "power", "params": {"c": 1e300, "alpha": 0.5},
                           "domain_cap": 1e300})
    out = _python("-m", "bsde_lab.cli", "check", str(_write(tmp_path, doc)))
    assert out.returncode == 1
    assert out.stderr == ""
    rows = (tmp_path / "out" / "check_report.csv").read_text().splitlines()
    assert rows[1].startswith("shape_rho,false,inf,nondecreasing=False;"
                              "concave=False;")


@pytest.mark.parametrize("via_flag", [True, False])
def test_convergence_study_rejects_a_paths_file(tmp_path, capsys, via_flag):
    stored = tmp_path / "stored.bsde"
    bl.save_ensemble(bl.generate_ensemble(64, 4, 1, 2.0, seed=1), stored)
    doc = _config(tmp_path, paths={"d": 1, "T": 1.0, "seed": 3},
                  terminal={"kind": "coordinate"},
                  study={"M_values": [64], "N_values": [4]})
    argv = ["convergence-study"]
    if via_flag:
        argv += [str(_write(tmp_path, doc)), "--paths-file", str(stored)]
    else:
        doc["paths"]["paths_file"] = str(stored)
        argv += [str(_write(tmp_path, doc))]
    assert main(argv) == 2
    assert "no paths file" in capsys.readouterr().err
    assert not (tmp_path / "out" / "convergence.csv").exists()


@pytest.mark.parametrize("key, value", [("M", 100000), ("N", 7)])
def test_convergence_study_with_a_stated_paths_size_exits_two(
        tmp_path, capsys, key, value):
    # the study lists replace paths.M and paths.N, so stating either is a
    # mistake, not a setting
    doc = _config(tmp_path, paths={key: value}, terminal={"kind": "coordinate"},
                  study={"M_values": [256], "N_values": [4]})
    assert main(["convergence-study", str(_write(tmp_path, doc))]) == 2
    assert capsys.readouterr().err == (
        f"error: paths.{key} is {value}, but convergence-study takes {key} "
        f"from study.{key}_values; leave paths.{key} out\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"solver": {"ridge": 0.0}}, "singular"),
    ({"generator": {"family": "linear", "params": {"a": 60.0}}}, "fivefold"),
    ({"generator": {"family": "example1"}, "terminal": {"kind": "coordinate"},
      "solver": {"init": 1e308}}, "non-finite regression moments at time index"),
    ({"paths": {"M": 128, "N": 4, "T": 1e300}},
     "non-finite regression moments at time index 3"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failures_exit_one(tmp_path, capsys, overrides, message):
    path = _write(tmp_path, _config(tmp_path, **overrides))
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["constants", "bihari"])
@pytest.mark.parametrize("overrides", [
    {"solver": {"p": 1.5}}, {"paths": {"M": 128, "N": 4, "T": 1e300}}])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_constants_exit_one(tmp_path, capsys, command, overrides):
    doc = _config(tmp_path, generator={"family": "example1"},
                  terminal={"kind": "coordinate"}, **overrides)
    assert main([command, str(_write(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the derived constants overflow")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["constants", "bihari"])
def test_constants_whose_m_bound_overflows_exit_one(tmp_path, capsys, command):
    # mu0 = c2 e^(c3 T) E|xi|^2 is about 1.5e308, a double; M = 2 mu0 + 2 A T
    # is not
    doc = _config(tmp_path, generator={"family": "linear",
                                       "params": {"a": 0.5, "b": 0.25}},
                  modulus={"family": "linear", "params": {"mu": 0.25}},
                  constants={"c2": 1.5e308, "c3": 1e-9},
                  paths={"M": 256, "N": 5, "d": 1, "T": 1.0, "seed": 3})
    assert main([command, str(_write(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the derived constants overflow")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports bsde_lab from the tree under test;
    kwargs go to subprocess.run."""
    src = str(Path(bl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, **kwargs)


def _cap_address_space():
    # 4 GiB: room for the interpreter and numpy, while an allocation of
    # terabytes is refused whatever the host's overcommit policy
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("command, overrides", [
    ("solve", {"paths": {"M": 10 ** 12, "N": 10}}),
    ("bihari", {"modulus": {"family": "linear"},
                "bihari": {"M_bound": 1.0, "T1": 0.0, "n_max": 10 ** 12}}),
], ids=["solve-M", "bihari-n_max"])
def test_running_out_of_memory_exits_two(tmp_path, command, overrides):
    out = _python("-m", "bsde_lab.cli", command,
                  str(_write(tmp_path, _config(tmp_path, **overrides))),
                  preexec_fn=_cap_address_space)
    assert out.returncode == 2
    assert out.stderr.startswith("error: out of memory: ")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("command, overrides", [
    ("solve", {"paths": {"M": 10 ** 30, "N": 10}}),
    ("gen-paths", {"paths": {"M": 10 ** 30, "N": 10}}),
    ("solve", {"paths": {"M": 2 ** 62, "N": 10}}),
    ("convergence-study", {"terminal": {"kind": "coordinate"},
                           "paths": {"seed": 3},
                           "study": {"M_values": [10 ** 30], "N_values": [4]}}),
    ("bihari", {"modulus": {"family": "linear"},
                "bihari": {"M_bound": 1.0, "T1": 0.0, "n_max": 2,
                           "quad_steps": 2 ** 62}}),
], ids=["solve-M", "gen-paths-M", "solve-M-2**62", "convergence-study-M_values",
        "bihari-quad_steps"])
def test_an_array_larger_than_numpy_allows_exits_two(tmp_path, capsys, command,
                                                     overrides):
    # numpy refuses these shapes with a ValueError before it tries to
    # allocate, so no address-space cap is needed
    path = _write(tmp_path, _config(tmp_path, **overrides))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert err.count("\n") == 1


_OVERFLOWS = "error: the derived constants overflow at p = 2.0, T = 1.0; " \
             "E[(int |g(t,0,0)| dt)^p] is not finite\n"


@pytest.mark.parametrize("command, params, solver, err", [
    ("check", {"c": 1e200}, {}, ""),
    ("check", {"b": 1e200}, {}, ""),
    ("constants", {"c": 1e200}, {}, _OVERFLOWS),
    ("bihari", {"c": 1e200}, {}, _OVERFLOWS),
    ("solve", {"c": 1e200}, {"split": "auto"}, _OVERFLOWS),
    ("constants", {"b": 1e200}, {},
     "error: the derived constants overflow at p = 2.0, T = 1.0; reduce the "
     "z-Lipschitz constant lambda = 1e+200\n"),
], ids=["check-c", "check-b", "constants-c", "bihari-c", "solve-split-auto-c",
        "constants-b"])
def test_a_driver_whose_norm_overflows_exits_one(tmp_path, capsys, command,
                                                 params, solver, err):
    # g is finite, but norms of its values overflow a double: the checks
    # that take them fail (h3 as a non-finite, unstable estimate) and no
    # numpy warning reaches stderr
    path = _write(tmp_path, _config(
        tmp_path, paths={"M": 256, "N": 5}, solver=solver,
        generator={"family": "linear", "params": params}))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == err
    if command == "check" and "c" in params:
        rows = (tmp_path / "out" / "check_report.csv").read_text().splitlines()
        assert "h3,false,inf,se=nan;unstable=True" in rows


@pytest.mark.parametrize("command, overrides, message", [
    ("solve", {"generator": {"family": "example1"}, "terminal": {"kind": "coordinate"},
               "solver": {"init": 1e308}}, "non-finite regression moments"),
    ("constants", {"generator": {"family": "example1"},
                   "paths": {"M": 128, "N": 4, "T": 1e300}},
     "the derived constants overflow"),
])
def test_a_numerical_failure_prints_one_stderr_line(
        tmp_path, command, overrides, message):
    out = _python("-m", "bsde_lab.cli", command,
                  str(_write(tmp_path, _config(tmp_path, **overrides))))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {message}")
    assert out.stderr.count("\n") == 1


def test_a_feature_overflow_prints_no_numpy_warning(tmp_path):
    doc = json.loads(next(p for p in CONFIGS if p.name == "example1.json").read_text())
    doc["paths"].update(T=1e300, M=512, N=10)
    doc["output_dir"] = str(tmp_path / "out")
    out = _python("-m", "bsde_lab.cli", "solve", str(_write(tmp_path, doc)))
    assert out.returncode == 1
    assert "overflow encountered" not in out.stderr
    assert "explicit z step may be unstable" in out.stderr  # dt = 1e299
    assert out.stderr.endswith(
        "\nerror: non-finite regression moments at time index 9\n")


def test_a_driver_that_overflows_in_the_sweep_prints_no_numpy_warning(tmp_path):
    # |z| of b |z| overflows in the driver and in the distance folds; the
    # sweep's check of y reports it, and the z step warning still prints
    doc = _config(tmp_path, paths={"M": 256, "N": 5},
                  generator={"family": "linear", "params": {"b": 1e200}})
    out = _python("-m", "bsde_lab.cli", "solve", str(_write(tmp_path, doc)))
    assert out.returncode == 1
    warned = [line for line in out.stderr.splitlines() if "Warning" in line]
    assert len(warned) == 1 and "explicit z step may be unstable" in warned[0]
    assert out.stderr.count("error: ") == 1
    assert out.stderr.endswith("\nerror: non-finite solution values at time index 3\n")


def test_the_z_step_warning_still_prints(tmp_path):
    doc = _config(tmp_path, paths={"M": 256, "N": 4, "seed": 3},
                  generator={"family": "linear", "params": {"b": 3.0}})
    out = _python("-m", "bsde_lab.cli", "solve", str(_write(tmp_path, doc)))
    assert out.returncode == 0
    assert "explicit z step may be unstable" in out.stderr


def _third_party_modules(code: str) -> set:
    """The top-level modules outside the standard library, loaded from files,
    that a fresh interpreter holds once it has run code (Cython's file-less
    runtime modules are not packages)."""
    out = _python("-c", code + "\nimport json, sys\nprint(json.dumps(sorted("
                  "{n.partition('.')[0] for n, m in sys.modules.items()"
                  " if getattr(m, '__file__', None)}"
                  " - set(sys.stdlib_module_names))))", timeout=300)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1])) - {"__main__"}


def test_runtime_loads_only_the_declared_dependencies(tmp_path):
    # Every bsde_lab module, then a solve and an oracle comparison: what they
    # load beyond a bare interpreter (whose .pth hooks may load packages of
    # their own) is bsde_lab and the project's declared dependencies, no more.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in declared}
    path = _write(tmp_path, _config(
        tmp_path, terminal={"kind": "coordinate", "params": {"j": 0}}))
    loaded = _third_party_modules(
        "import importlib, pkgutil, bsde_lab\n"
        "for info in pkgutil.iter_modules(bsde_lab.__path__, 'bsde_lab.'):\n"
        "    importlib.import_module(info.name)\n"
        "from bsde_lab.cli import main\n"
        f"assert main(['solve', {str(path)!r}]) == 0\n"
        f"assert main(['oracle-compare', {str(path)!r}]) == 0")
    assert loaded - _third_party_modules("") == declared | {"bsde_lab"}


# ----------------------------------------------------- traced bindings
# perfbench/worker.py times each stage and layer by replacing these module
# attributes, so each must stay bound and reached through that binding.

def test_benchmark_wrapped_bindings_are_called(tmp_path, monkeypatch):
    from bsde_lab import analysis, generator, solver
    bindings = [(cli, name) for name in (
        "generate_ensemble", "load_ensemble", "save_ensemble", "picard_solve",
        "save_solution_csv", "save_picard_report_csv")]
    bindings += [(cli.oracle, "compare_to_oracle"),
                 (solver, "polynomial_features"),
                 (solver, "eval_generator_batch"),
                 (generator, "eval_modulus")]
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in bindings:
        key = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    # wrapped, but no command calls them: a solve folds its distances inside
    # the sweep
    assert callable(analysis.lp_norm_arrays)
    assert callable(analysis.iterate_distance_arrays)

    paths = {"M": 256, "N": 5, "d": 1, "T": 1.0, "seed": 4}
    stored = tmp_path / "ens.bsde"
    gen = _write(tmp_path, {"generator": {"family": "zero"},
                            "paths": dict(paths, paths_file=str(stored))},
                 "gen.json")
    assert main(["gen-paths", str(gen)]) == 0
    ex1 = _write(tmp_path, _config(
        tmp_path, paths=paths,
        generator={"family": "example1", "params": {"p": 2.0}, "k": 1},
        terminal={"kind": "coordinate", "params": {"j": 0}}), "ex1.json")
    assert main(["solve", str(ex1)]) == 0
    assert main(["solution-csv", str(ex1)]) == 0
    mart = _write(tmp_path, _config(
        tmp_path, paths=paths,
        terminal={"kind": "coordinate", "params": {"j": 0}}), "mart.json")
    assert main(["oracle-compare", str(mart), "--paths-file", str(stored)]) == 0
    assert sorted(calls) == sorted(f"{m.__name__}.{n}" for m, n in bindings)
