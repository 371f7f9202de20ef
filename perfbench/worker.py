"""One benchmark sample: a fresh process that sets up one workload, runs its
CLI command once through bsde_lab.cli.main, checks the outputs and writes one
JSON result file.

Run by perfbench/run.py, not by hand:

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at UNIX_TIME --work-dir DIR --result FILE
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Tracer:
    """Spans (name, start, end, parent) of one command, kept in memory.

    Wrapping replaces a module attribute, so a span covers exactly the calls
    that go through that binding: wrapping bsde_lab.cli.picard_solve times the
    CLI's call into the solver and nothing else.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.captured: dict = {}
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, measure=None):
        span = {"name": name,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter() - self.t0
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter() - self.t0
            self._stack.pop()
        if measure is not None:
            span.update(measure(args, out))
        return out

    def wrap(self, module, attr: str, name: str, capture: bool = False,
             measure=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs, measure)
            if capture:
                self.captured[name] = out
            return out

        setattr(module, attr, wrapper)


def _file_bytes(index):
    return lambda args, out: {"bytes": Path(args[index]).stat().st_size}


def install_stage_spans(tracer: Tracer, cli) -> None:
    """Wrap the public functions bsde_lab.cli binds: one span per stage."""
    tracer.wrap(cli, "generate_ensemble", "paths.generate",
                measure=lambda args, out: {"paths": out.M})
    tracer.wrap(cli, "load_ensemble", "paths.load", capture=True,
                measure=_file_bytes(0))
    tracer.wrap(cli, "save_ensemble", "paths.save", measure=_file_bytes(1))
    tracer.wrap(cli, "picard_solve", "solver.picard_solve", capture=True)
    tracer.wrap(cli, "save_solution_csv", "solver.write_solution",
                measure=_file_bytes(1))
    tracer.wrap(cli, "save_picard_report_csv", "solver.write_report")
    tracer.wrap(cli.oracle, "compare_to_oracle", "oracle.compare",
                capture=True)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public functions each module calls in the next one down."""
    from bsde_lab import analysis, generator, solver
    tracer.wrap(solver, "polynomial_features", "solver.features",
                measure=lambda args, out: {"bytes": out.nbytes})
    tracer.wrap(solver, "eval_generator_batch", "generator.eval")
    # The solver reaches analysis through the module object; the oracle
    # imported lp_norm_arrays by name, so its call is not counted here.
    tracer.wrap(analysis, "iterate_distance_arrays", "analysis.distance")
    tracer.wrap(analysis, "lp_norm_arrays", "analysis.distance")
    tracer.wrap(generator, "eval_modulus", "modulus.eval")


def blas_threads() -> dict:
    """Threads of each OpenBLAS library loaded into this process."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def library_versions() -> dict:
    import numpy
    import scipy
    info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def write_paths_file(workload, seed: int, target: Path) -> None:
    from bsde_lab import paths
    pb = workload.paths_block(seed)
    ens = paths.generate_ensemble(pb["M"], pb["N"], pb["d"], pb["T"],
                                  pb["seed"])
    paths.save_ensemble(ens, target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import bsde_lab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "bsde_lab":
        raise SystemExit(f"bsde_lab imported from {cli.__file__}, "
                         f"not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = args.work_dir
    out_dir = work / "out"
    config = work / "config.json"
    config.write_text(json.dumps(workload.config_for(args.seed, str(out_dir))))
    argv = [workload.command, str(config)]
    if workload.uses_paths_file:
        paths_file = work / "ensemble.bsde"
        write_paths_file(workload, args.seed, paths_file)
        argv += ["--paths-file", str(paths_file)]

    tracer = Tracer()
    install_stage_spans(tracer, cli)
    if args.trace:
        install_layer_spans(tracer)

    first_call = time.time()
    rc = tracer.call("cli.main", cli.main, (argv,), {})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gates = workload.check(rc, tracer.captured,
                           workload.paths_block(args.seed), out_dir)
    result = {
        "rc": rc,
        "setup_s": first_call - args.spawned_at,
        "peak_rss_mb": peak_rss_mb,
        "gates": [vars(g) for g in gates],
        "spans": tracer.spans,
        "report": _report(tracer.captured),
        "env": {"blas_threads": blas_threads(), **library_versions()},
    }
    args.result.write_text(json.dumps(result))
    return 0


def _report(captured: dict) -> dict:
    """What the run produced beyond its spans: solver and oracle figures."""
    out = {}
    if "solver.picard_solve" in captured:
        _, report = captured["solver.picard_solve"]
        out["picard_iterations"] = report.iterations
        out["sweeps"] = report.iterations + len(report.windows)
    if "oracle.compare" in captured:
        errs = captured["oracle.compare"]
        out["sp_error"] = errs.sp_error
        out["z_rms_error"] = errs.z_rms_error
    if "payload_sha256" in captured:
        out["payload_sha256"] = captured["payload_sha256"]
    return out


if __name__ == "__main__":
    sys.exit(main())
