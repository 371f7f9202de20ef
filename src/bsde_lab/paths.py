"""Brownian-motion ensembles on uniform time grids, with a binary file format."""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

_MAGIC = b"BSDE"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQIIdQ")
_ANTITHETIC = 1  # header flags bit


class EnsembleFormatError(ValueError):
    """Bad magic bytes, version, or header fields."""


class EnsembleLengthError(ValueError):
    """Payload size disagrees with the header."""


class DimensionError(ValueError):
    """A spec needs a Brownian coordinate or dimension the ensemble lacks."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i T / N on [0, T]."""

    T: float
    N: int

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError("horizon T must be positive and finite")
        if self.N < 1:
            raise ValueError("step count N must be >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass(frozen=True)
class PathEnsemble:
    M: int
    d: int
    grid: TimeGrid
    seed: int
    increments: np.ndarray = field(repr=False)  # (M, N, d)
    values: np.ndarray = field(repr=False)      # (M, N+1, d), values[:, 0] = 0
    antithetic: bool = False


def _cumulate(increments: np.ndarray) -> np.ndarray:
    m, _, d = increments.shape
    values = np.concatenate(
        [np.zeros((m, 1, d)), np.cumsum(increments, axis=1)], axis=1)
    return values


def generate_ensemble(M: int, N: int, d: int, T: float, seed: int,
                      antithetic: bool = False) -> PathEnsemble:
    """Simulate M independent d-dimensional Brownian paths on N uniform steps.

    Path j is drawn from Philox(key=seed) with counter word 2 set to j, which
    is exactly Philox(key=seed).jumped(j): its increments are
    sqrt(T/N) * Generator(Philox(key=seed).jumped(j)).standard_normal((N, d)).
    So the result is a pure function of (seed, M, N, d, T) regardless of how
    generation is scheduled.  With antithetic=True, path 2j+1 is the negation
    of path 2j.
    """
    if M < 1 or N < 1 or d < 1:
        raise ValueError("M, N, d must all be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    grid = TimeGrid(T=float(T), N=int(N))
    try:
        increments = np.empty((M, N, d))
    except MemoryError as exc:
        raise MemoryError(
            f"cannot allocate ensemble of {M}x{N}x{d} float64 increments") from exc

    # One bit generator, moved to each path's substream: jumped(j) adds j to
    # counter word 2 of the zero counter and empties the output buffer.  The
    # state taken from the fresh generator has an empty buffer, so only its
    # counter changes from path to path.
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    for j in range(0, M, 2 if antithetic else 1):
        state["state"]["counter"][2] = j
        bitgen.state = state
        rng.standard_normal(out=increments[j])
    if antithetic:
        np.negative(increments[:-1:2], out=increments[1::2])
    increments *= math.sqrt(grid.dt)

    return PathEnsemble(M=M, d=d, grid=grid, seed=seed,
                        increments=increments, values=_cumulate(increments),
                        antithetic=antithetic)


@contextmanager
def atomic_open(path, mode: str = "w"):
    """A file beside path that replaces it once the block completes; on an
    exception it is deleted and path is left as it was."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, mode)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


NUMBER = "%.17g"  # 17 significant digits round-trip a double


def format_number(x) -> str:
    """The number format of every CSV output, so reruns compare byte for byte."""
    return NUMBER % (x,)


def write_csv(path, header: list, rows) -> None:
    """Write header and rows; strings go out as they are, numbers through
    format_number.  Each column holds one kind throughout, so the first row
    decides which cells are strings.  path is replaced only by a complete
    file."""
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        line = None
        for row in rows:
            if line is None:
                line = ",".join("%s" if isinstance(c, str) else NUMBER
                                for c in row) + "\n"
            fh.write(line % tuple(row))


def save_ensemble(ens: PathEnsemble, path) -> None:
    """Write the binary format: magic 'BSDE', version, sizes, flags, T, seed,
    raw f64.  Bit 0 of flags is antithetic; the other bits are zero."""
    header = _HEADER.pack(_MAGIC, _VERSION, ens.M, ens.grid.N, ens.d,
                          _ANTITHETIC if ens.antithetic else 0,
                          ens.grid.T, ens.seed)
    payload = np.ascontiguousarray(ens.increments, dtype="<f8").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_ensemble(path) -> PathEnsemble:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise EnsembleLengthError("file shorter than the ensemble header")
    magic, version, m, n, d, flags, horizon, seed = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise EnsembleFormatError(f"bad magic bytes {magic!r}")
    if version != _VERSION:
        raise EnsembleFormatError(f"unsupported format version {version}")
    if flags & ~_ANTITHETIC:
        raise EnsembleFormatError(f"unknown header flags {flags:#x}")
    expected = m * n * d * 8
    found = len(raw) - _HEADER.size
    if found != expected:
        raise EnsembleLengthError(
            f"payload holds {found} bytes, header implies {expected}")
    increments = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).astype(
        float).reshape(m, n, d)
    grid = TimeGrid(T=horizon, N=n)
    return PathEnsemble(M=m, d=d, grid=grid, seed=seed,
                        increments=increments, values=_cumulate(increments),
                        antithetic=bool(flags & _ANTITHETIC))
