"""The benchmark's gates (perfbench/workloads.py) read what a command returns
in memory: the solve's (DiscreteSolution, PicardReport), the loaded ensemble
and the oracle errors.  These tests run each gate on a small run of its
workload's config through bsde_lab.cli.main, capturing the values as the
benchmark's worker does, so a change to what the library returns cannot
break a gate unseen."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import bsde_lab as bl
import bsde_lab.cli as cli

_SPEC = importlib.util.spec_from_file_location(
    "bench_workloads",
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # its dataclasses look their module up
_SPEC.loader.exec_module(workloads)

# Not the benchmark's default seed, so the gates use their any-seed checks.
SEED = 3


def _capture(monkeypatch, module, attr: str, captured: dict, name: str):
    """Wrap module.attr so that each call's result is captured[name]."""
    fn = getattr(module, attr)

    def wrapper(*args, **kwargs):
        captured[name] = fn(*args, **kwargs)
        return captured[name]

    monkeypatch.setattr(module, attr, wrapper)


def _run(tmp_path, workload, m: int, argv_tail=()):
    """The workload's config at m paths, written for a run into tmp_path."""
    doc = workload.config_for(SEED, str(tmp_path / "out"))
    doc["paths"] = dict(doc["paths"], M=m)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return [workload.command, str(path), *argv_tail], doc["paths"]


def test_example1_gates_read_the_solve(tmp_path, monkeypatch):
    captured = {}
    _capture(monkeypatch, cli, "picard_solve", captured, "solver.picard_solve")
    argv, paths = _run(tmp_path, workloads.EXAMPLE1, 2048)
    rc = cli.main(argv)
    sol, report = captured["solver.picard_solve"]
    # what the finite and y0 gates read: z as one step-major (M, N, k, d)
    # array, and y_0 the same number on every path
    m, n = paths["M"], paths["N"]
    assert sol.z.shape == (m, n, 1, 1)
    assert all(sol.z[:, i].flags.c_contiguous for i in range(n))
    assert np.isfinite(sol.z).all() and np.ptp(sol.y[:, 0, 0]) == 0.0
    assert report.converged
    gates = workloads.check_example1(rc, captured, paths, tmp_path / "out")
    assert [g.name for g in gates] == ["exit_code", "converged", "finite",
                                       "y0_same_on_every_path", "y0_reference"]
    assert all(g.ok for g in gates), gates


def test_martingale_gates_read_the_loaded_ensemble_and_the_oracle_errors(
        tmp_path, monkeypatch):
    captured = {}
    _capture(monkeypatch, cli, "load_ensemble", captured, "paths.load")
    _capture(monkeypatch, cli.oracle, "compare_to_oracle", captured,
             "oracle.compare")
    stored = tmp_path / "ensemble.bsde"
    argv, paths = _run(tmp_path, workloads.MARTINGALE_D3, 8192,
                       ["--paths-file", str(stored)])
    bl.save_ensemble(bl.generate_ensemble(
        paths["M"], paths["N"], paths["d"], paths["T"], paths["seed"]), stored)
    rc = cli.main(argv)
    errs = captured["oracle.compare"]
    gates = workloads.check_martingale(rc, captured, paths, tmp_path / "out")
    assert [g.name for g in gates] == ["exit_code", "ensemble_identity",
                                       "sp_error", "z_rms_error"]
    assert gates[0].ok and gates[1].ok, gates
    # the error gates' limits are set for the benchmark's 65536 paths; at
    # 8192 they need only read the two errors
    for gate, value in zip(gates[2:], (errs.sp_error, errs.z_rms_error)):
        assert isinstance(value, float) and 0.0 < value < 1.0
        assert gate.detail.startswith(f"{value:.6g} <= ")


@pytest.mark.parametrize("name", ["example1_solve", "martingale_d3_oracle"])
def test_the_workloads_configs_parse(name):
    # the benchmark's configs, which live beside its gates, are ones the
    # command line accepts
    cfg = cli.parse_config(json.dumps(
        workloads.WORKLOADS[name].config_for(SEED, "out")))
    assert cfg.paths.seed == SEED
