"""bsde-lab benchmark: runs CLI workloads, checks their outputs, reports metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Each sample is a fresh worker process (perfbench/worker.py) that sets up the
workload and runs its CLI command once, as a user running `bsde-lab` would.
Samples repeat until --seconds have passed.  BLAS runs on one thread.  The
benchmark and its workers are pinned to one core, and each sample's times are
scaled by a calibration kernel timed on that core around it.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced samples and reports the per-layer metrics of the traced ones; its spans
go to bench_out/ beside the results.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / "bench_out"

THREADS = "1"
# bsde_lab.cli applies BSDE_LAB_THREADS after the package has already loaded
# numpy, too late for OpenBLAS to see it, so the BLAS variables are set too.
WORKER_ENV = {"BSDE_LAB_THREADS": THREADS, "OPENBLAS_NUM_THREADS": THREADS,
              "OMP_NUM_THREADS": THREADS, "MKL_NUM_THREADS": THREADS}
WORKER_TIMEOUT_S = 100.0

# Host speed.  On a shared VM each core's speed drifts with what other tenants
# run beside it: by up to 1.6x, over seconds to tens of minutes, and on each
# core apart.  So the benchmark pins itself, and thereby its workers, to one
# core and times the workload's calibration kernel there just before and just
# after each sample.  End-to-end times are scaled to the host speed at which
# the kernel takes REFERENCE_CALIBRATION_S; the raw times are printed beside
# them.
REFERENCE_CALIBRATION_S = 0.25
_rng = np.random.default_rng(0)
_CAL_FLOATS = [math.sin(i) for i in range(3000)]
_CAL_SMALL = _rng.standard_normal((4096, 20))
_CAL_STATE = _rng.standard_normal((65536, 3))
CPUS_USABLE = os.sched_getaffinity(0)

# Metric names and units, as BENCHMARK.json lists them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Printed beside the end-to-end metrics, but not among them: the unscaled
# times and the calibration itself, which follow the host's speed; and stages
# that are zero on a workload that skips the stage or has no oracle, or in a
# run with no failure, or, for acquisition (0.2-0.5 s on two workloads), too
# short to be steady from run to run on a shared machine.
STAGES = {"raw_wall_s": "s", "raw_setup_s": "s", "calibration_s": "s",
          "acquire_s": "s", "solve_s": "s", "write_s": "s", "compare_s": "s",
          "sp_error": "1", "z_rms_error": "1", "failure_rate": "ratio"}


def _durations(spans: list, name: str) -> list:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _total(spans: list, name: str) -> float:
    return sum(_durations(spans, name))


def stage_times(sample: dict) -> dict:
    spans = sample["spans"]
    return {
        "wall_s": _total(spans, "cli.main"),
        "acquire_s": _total(spans, "paths.generate") + _total(spans, "paths.load"),
        "solve_s": _total(spans, "solver.picard_solve"),
        "write_s": sum(_total(spans, n) for n in (
            "solver.write_solution", "solver.write_report", "paths.save")),
        "compare_s": _total(spans, "oracle.compare"),
    }


def layer_metrics(sample: dict) -> dict:
    spans, report = sample["spans"], sample["report"]

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    def count(name):
        return len(_durations(spans, name))

    # Self time: a span's duration minus that of its direct children, which
    # never overlap in this single-threaded program.
    self_s = 0.0
    for i, s in enumerate(spans):
        if s["name"] == "solver.picard_solve":
            children = sum(c["end"] - c["start"] for c in spans
                           if c["parent"] == i)
            self_s += s["end"] - s["start"] - children
    generated = attr_sum("paths.generate", "paths")
    generate_s = _total(spans, "paths.generate")
    return {
        "paths.generate_s": generate_s,
        "paths.generate_us_per_path":
            1e6 * generate_s / generated if generated else 0.0,
        "paths.load_s": _total(spans, "paths.load"),
        "paths.load_bytes": attr_sum("paths.load", "bytes"),
        "paths.save_s": _total(spans, "paths.save"),
        "paths.save_bytes": attr_sum("paths.save", "bytes"),
        "solver.solve_s": _total(spans, "solver.picard_solve"),
        "solver.features_s": _total(spans, "solver.features"),
        "solver.features_calls": count("solver.features"),
        "solver.features_bytes": attr_sum("solver.features", "bytes"),
        "solver.self_s": self_s,
        "solver.sweeps": report.get("sweeps", 0),
        "solver.picard_iterations": report.get("picard_iterations", 0),
        "generator.eval_s": _total(spans, "generator.eval"),
        "generator.eval_calls": count("generator.eval"),
        "modulus.eval_s": _total(spans, "modulus.eval"),
        "modulus.eval_calls": count("modulus.eval"),
        "analysis.distance_s": _total(spans, "analysis.distance"),
        "analysis.distance_calls": count("analysis.distance"),
        "solver.write_solution_s": _total(spans, "solver.write_solution"),
        "solver.solution_bytes": attr_sum("solver.write_solution", "bytes"),
        "solver.write_report_s": _total(spans, "solver.write_report"),
        "oracle.compare_s": _total(spans, "oracle.compare"),
        "oracle.sp_error": report.get("sp_error", 0.0),
        "oracle.z_rms_error": report.get("z_rms_error", 0.0),
    }


def tail_percentile(values: list):
    """Highest whole percentile with at least ten samples above it."""
    if len(values) < 11:
        return None
    cuts = statistics.quantiles(values, n=100)
    for q in range(99, 0, -1):
        if sum(v > cuts[q - 1] for v in values) >= 10:
            return q, cuts[q - 1]
    return None


# Calibration kernels, one per kind of work a workload spends its time in.
# Neither calls bsde_lab, so a change to the program cannot change them.

def _interpreter_round() -> None:
    """Interpreter loops, float formatting, numpy on data that fit in cache."""
    total = 0
    for i in range(30000):
        total += i * i
    ",".join(f"{v:.17g}" for v in _CAL_FLOATS)
    for _ in range(4):
        np.sqrt(np.abs(_CAL_SMALL.T @ _CAL_SMALL))
        np.exp(-_CAL_SMALL * _CAL_SMALL)


def _array_round() -> None:
    """Column products of powers into a 65536 x 20 matrix (10 MB, more than
    the caches hold) and its Gram matrix by blocks of rows."""
    powers = [np.vander(_CAL_STATE[:, i], 4, increasing=True) for i in range(3)]
    feats = np.empty((len(_CAL_STATE), 20))
    for col in range(20):
        feats[:, col] = (powers[col % 3][:, col % 4]
                         * powers[(col + 1) % 3][:, col // 5])
    gram = np.zeros((20, 20))
    for lo in range(0, len(feats), 8192):
        chunk = feats[lo:lo + 8192]
        gram += chunk.T @ chunk


CALIBRATION_KERNELS = {"interpreter": (_interpreter_round, 40),
                       "arrays": (_array_round, 16)}


def calibrate(kernel: str) -> float:
    """Seconds the named kernel's rounds take on this core now."""
    round_fn, rounds = CALIBRATION_KERNELS[kernel]
    start = time.perf_counter()
    for _ in range(rounds):
        round_fn()
    return time.perf_counter() - start


def pin_to_one_core() -> None:
    """Pin this process, and so every worker it starts, to one usable core."""
    os.sched_setaffinity(0, {max(CPUS_USABLE)})


def run_sample(workload: str, seed: int, trace: int, index: int) -> dict:
    work = OUT / f"work-{workload}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    env = dict(os.environ, **WORKER_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--work-dir", str(work), "--result", str(result)]
    kernel = WORKLOADS[workload].calibration
    calibration = calibrate(kernel)
    spawned = time.time()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        ok = proc.returncode == 0 and result.exists()
        error = "" if ok else (proc.stderr.strip().splitlines() or ["?"])[-1]
    except subprocess.TimeoutExpired:
        ok, error = False, f"worker exceeded {WORKER_TIMEOUT_S:g} s"
    calibration = (calibration + calibrate(kernel)) / 2
    sample = json.loads(result.read_text()) if ok else {"error": error}
    shutil.rmtree(work, ignore_errors=True)
    sample["calibration_s"] = calibration
    sample["traced"] = bool(trace)
    return sample


def measure(workload: str, seed: int, seconds: float, trace: int) -> list:
    """Samples until --seconds have passed.  A sample that would end past
    that, going by the mean length of the samples so far, is not started,
    so a run lasts about --seconds whatever the length of one sample."""
    calibrate(WORKLOADS[workload].calibration)  # warm-up, not timed
    samples = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if samples and elapsed + elapsed / len(samples) > seconds:
            return samples
        # In a traced run every other sample is untraced, so the run can
        # state its own tracing overhead.
        traced = trace and len(samples) % 2 == 0
        samples.append(run_sample(workload, seed, int(traced),
                                  len(samples)))


def sample_failed(sample: dict) -> bool:
    return "error" in sample or not all(g["ok"] for g in sample["gates"])


def summarize(workload: str, samples: list, trace: int) -> dict:
    wl = WORKLOADS[workload]
    good = [s for s in samples if not sample_failed(s)]
    failed = len(samples) - len(good)
    # Every sample of one seed writes the same ensemble.
    digests = {s["report"]["payload_sha256"] for s in good
               if "payload_sha256" in s["report"]}
    run_gates = [{"name": "same_payload_every_sample", "ok": len(digests) <= 1,
                  "detail": f"{len(digests)} distinct sha256"}]
    if not run_gates[0]["ok"]:
        failed = len(samples)
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    stages = [stage_times(s) for s in untraced]

    # On a shared machine, speed can drift in phases of seconds, and the
    # median of a few samples flips between a fast and a slow phase.  The
    # mean over the run's samples varies about half as much between runs.
    def mean(rows, key):
        return statistics.fmean(r[key] for r in rows) if rows else float("nan")

    walls = [r["wall_s"] for r in stages]
    # Each sample's times, scaled by the calibration timed around it.
    scales = [REFERENCE_CALIBRATION_S / s["calibration_s"] for s in untraced]
    scaled_walls = [w * k for w, k in zip(walls, scales)]
    scaled_setups = [s["setup_s"] * k for s, k in zip(untraced, scales)]
    wall_s = statistics.fmean(scaled_walls) if untraced else float("nan")
    end_to_end = {
        "setup_s": statistics.median(scaled_setups)
        if untraced else float("nan"),
        "wall_s": wall_s,
        "path_steps_per_s": wl.path_steps / wall_s,
        "peak_rss_mb": mean(untraced, "peak_rss_mb"),
    }
    extra = {key: mean(stages, key)
             for key in ("acquire_s", "solve_s", "write_s", "compare_s")}
    extra["raw_wall_s"] = mean(stages, "wall_s")
    extra["raw_setup_s"] = (statistics.median(s["setup_s"] for s in untraced)
                            if untraced else float("nan"))
    extra["calibration_s"] = mean(untraced, "calibration_s")
    for key in ("sp_error", "z_rms_error"):
        reports = [s["report"] for s in untraced if key in s["report"]]
        extra[key] = mean(reports, key) if reports else 0.0
    extra["failure_rate"] = failed / len(samples)
    per_layer = {}
    if trace:
        layers = [layer_metrics(s) for s in traced]
        per_layer = {key: mean(layers, key) for key in PER_LAYER
                     if key != "trace.overhead_s"}
        per_layer["trace.overhead_s"] = (
            mean([stage_times(s) for s in traced], "wall_s") - extra["raw_wall_s"])
    return {
        "workload": workload, "attempted": len(samples), "failed": failed,
        "end_to_end": end_to_end, "stages": extra, "per_layer": per_layer,
        "wall_s_samples": scaled_walls,
        "wall_s_tail": tail_percentile(scaled_walls),
        "gates": [{"sample": i, **g} for i, s in enumerate(samples)
                  for g in s.get("gates", [{"name": "worker", "ok": False,
                                            "detail": s.get("error", "")}])]
                 + run_gates,
        "samples": samples,
    }


def environment(samples: list) -> dict:
    env = {"nproc": os.cpu_count(),
           "cpus_usable": len(CPUS_USABLE),
           "pinned_cpu": max(CPUS_USABLE),
           "reference_calibration_s": REFERENCE_CALIBRATION_S,
           "python": platform.python_version(),
           "worker_env": WORKER_ENV,
           "git_commit": git_commit(),
           "src_lines": src_lines()}
    for s in samples:
        if "env" in s:
            env.update(s["env"])
            break
    return env


def git_commit() -> str:
    # The benchmark may run from an exported tree with no .git of its own;
    # git would then report the commit of an enclosing repository, if any.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return proc.stdout.strip() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(summary: dict, trace: int) -> None:
    name = summary["workload"]
    print(f"== {name}: {summary['attempted']} samples, "
          f"{summary['failed']} failed")
    for key, unit in END_TO_END.items():
        print(f"  {key:<28} {_fmt(summary['end_to_end'][key]):>14} {unit}")
    for key, unit in STAGES.items():
        print(f"  {key:<28} {_fmt(summary['stages'][key]):>14} {unit}")
    walls = summary["wall_s_samples"]
    tail = summary["wall_s_tail"]
    if walls:
        print(f"  wall_s median {statistics.median(walls):.6g} s, "
              + (f"p{tail[0]} {tail[1]:.6g} s" if tail else
                 "no percentile has 10 samples above it")
              + f" (n={len(walls)})")
    for key, unit in (PER_LAYER.items() if trace else ()):
        print(f"  {key:<28} {_fmt(summary['per_layer'][key]):>14} {unit}")
    for g in summary["gates"]:
        where = f"sample {g['sample']}" if "sample" in g else "run"
        print(f"  {'PASS' if g['ok'] else 'FAIL'} {g['name']} ({where}): "
              f"{g['detail']}")


def write_results(summary: dict, env: dict, seed: int, trace: int) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{summary['workload']}-seed{seed}-trace{trace}"
    if trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for run, s in enumerate(summary["samples"]):
                for i, span in enumerate(s.get("spans", ())):
                    fh.write(json.dumps({"run": run, "index": i, **span}) + "\n")
    record = dict(summary, env=env, seed=seed, trace=trace)
    for s in record["samples"]:
        s.pop("spans", None)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    samples = measure(workload, seed, seconds, trace)
    summary = summarize(workload, samples, trace)
    env = environment(samples)
    print(f"env: {json.dumps(env)}")
    print_summary(summary, trace)
    write_results(summary, env, seed, trace)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bsde_lab" / "cli.py").is_file():
        print(f"error: no bsde_lab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_to_one_core()

    if args.workload != "all":
        s = run_one(args.workload, args.seed, args.seconds, args.trace)
        metrics = s["per_layer"] if args.trace else s["end_to_end"]
        units = PER_LAYER if args.trace else END_TO_END
        print(json.dumps({
            "correct": s["failed"] == 0, "attempted": s["attempted"],
            "failed": s["failed"],
            # A run whose every sample failed has no measurement (NaN),
            # which JSON cannot carry; it reports 0 and correct=false.
            "metrics": {k: {"value": metrics[k] if math.isfinite(metrics[k])
                            else 0.0, "unit": units[k]} for k in units}}))
        return 0

    attempted = failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            s = run_one(name, args.seed, args.seconds, trace)
            attempted += s["attempted"]
            failed += s["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
