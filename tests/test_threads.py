import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports bsde_lab, then prints the thread count of each OpenBLAS library the
# process loaded: numpy's, as bsde_lab does not import scipy and its separate
# OpenBLAS build.  The scipy_openblas symbols are those of numpy's wheels too.
_PROBE = """
import ctypes, json
import bsde_lab
libs = set()
with open("/proc/self/maps") as fh:
    for line in fh:
        path = line.split()[-1]
        if "openblas" in path.lower() and path.startswith("/"):
            libs.add(path)
counts = {}
for path in sorted(libs):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            counts[path] = fn()
            break
print(json.dumps(counts))
"""

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


def _blas_threads(extra_env: dict) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in _THREAD_VARS and k != "BSDE_LAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra_env)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def test_bsde_lab_threads_reaches_openblas():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    if not nproc or nproc < 2:
        pytest.skip("one processor: every thread cap reads 1")
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS")
    default = _blas_threads({})
    if not default:
        pytest.skip("no OpenBLAS loaded")
    if all(n == 1 for n in default.values()):
        pytest.skip("OpenBLAS already defaults to one thread here")
    capped = _blas_threads({"BSDE_LAB_THREADS": "1"})
    assert capped and all(n == 1 for n in capped.values()), capped
