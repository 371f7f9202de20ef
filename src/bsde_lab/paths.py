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
    """M Brownian paths in d dimensions on a uniform grid.

    increments is (M, N, d) and values (M, N+1, d), with values[:, 0] = 0.
    The ensembles that generate_ensemble and load_ensemble return hold them
    step-major: each is the transpose view of an (N, M, d) or (N+1, M, d)
    buffer, so the slice of one time step, values[:, i] or increments[:, i],
    is contiguous.  The backward sweep reads one such slice per step.  Any
    other layout of the same shapes solves to the same numbers, up to
    round-off, only slower.
    """

    M: int
    d: int
    grid: TimeGrid
    seed: int
    increments: np.ndarray = field(repr=False)  # (M, N, d)
    values: np.ndarray = field(repr=False)      # (M, N+1, d), values[:, 0] = 0
    antithetic: bool = False


# Paths per block when generation, loading and saving move paths between a
# path-major block and the step-major ensemble.  Even, so that the two paths
# of an antithetic pair fall in one block.
_PATH_BLOCK = 1024


def _records(a: np.ndarray) -> np.ndarray:
    """a with its contiguous last axis viewed as one opaque record: moving
    d-tuples as records is faster than moving their d numbers one by one."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))[..., 0]


def _step_major_ensemble(steps: np.ndarray, grid: TimeGrid, seed: int,
                         antithetic: bool) -> PathEnsemble:
    """The ensemble of the step-major increments steps (N, M, d); its values
    are summed one step at a time, values[i+1] = values[i] + steps[i], the
    additions of a cumulative sum along each path."""
    n, m, d = steps.shape
    values = np.empty((n + 1, m, d))
    values[0] = 0.0
    for i in range(n):
        np.add(values[i], steps[i], out=values[i + 1])
    return PathEnsemble(M=m, d=d, grid=grid, seed=seed,
                        increments=steps.transpose(1, 0, 2),
                        values=values.transpose(1, 0, 2),
                        antithetic=antithetic)


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
        steps = np.empty((N, M, d))
    except MemoryError as exc:
        raise MemoryError(
            f"cannot allocate ensemble of {M}x{N}x{d} float64 increments") from exc

    # One bit generator, moved to each path's substream: jumped(j) adds j to
    # counter word 2 of the zero counter and empties the output buffer.  The
    # state taken from the fresh generator has an empty buffer, so only its
    # counter changes from path to path.  Each path is drawn whole into a
    # path-major block, which is then scattered into the step-major array.
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    scale = math.sqrt(grid.dt)
    block = np.empty((min(M, _PATH_BLOCK), N, d))
    for lo in range(0, M, _PATH_BLOCK):
        paths = block[:min(M - lo, _PATH_BLOCK)]
        for j in range(0, len(paths), 2 if antithetic else 1):
            state["state"]["counter"][2] = lo + j
            bitgen.state = state
            rng.standard_normal(out=paths[j])
        if antithetic:
            np.negative(paths[:-1:2], out=paths[1::2])
        paths *= scale
        _records(steps)[:, lo:lo + len(paths)] = _records(paths).T

    return _step_major_ensemble(steps, grid, seed, antithetic)


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
    raw f64.  Bit 0 of flags is antithetic; the other bits are zero.  The
    payload is path-major; it is gathered and written one block of paths at
    a time, so no second copy of the ensemble is held."""
    header = _HEADER.pack(_MAGIC, _VERSION, ens.M, ens.grid.N, ens.d,
                          _ANTITHETIC if ens.antithetic else 0,
                          ens.grid.T, ens.seed)
    # _records views the coordinate axis as one record, which needs it
    # contiguous, as it is in every ensemble this module builds.
    increments = ens.increments
    if increments.strides[-1] != increments.itemsize:
        increments = np.ascontiguousarray(increments)
    block = np.empty((min(ens.M, _PATH_BLOCK), ens.grid.N, ens.d),
                     dtype=increments.dtype)
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, ens.M, _PATH_BLOCK):
            paths = block[:min(ens.M - lo, _PATH_BLOCK)]
            _records(paths)[...] = _records(increments[lo:lo + len(paths)])
            fh.write(paths.astype("<f8", copy=False).data)


def load_ensemble(path) -> PathEnsemble:
    """Read the binary format of save_ensemble into a step-major ensemble,
    one block of paths at a time."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise EnsembleLengthError("file shorter than the ensemble header")
        magic, version, m, n, d, flags, horizon, seed = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise EnsembleFormatError(f"bad magic bytes {magic!r}")
        if version != _VERSION:
            raise EnsembleFormatError(f"unsupported format version {version}")
        if flags & ~_ANTITHETIC:
            raise EnsembleFormatError(f"unknown header flags {flags:#x}")
        if m < 1 or d < 1:
            raise EnsembleFormatError(
                f"header sizes M = {m} and d = {d} must be >= 1")
        expected = m * n * d * 8
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found != expected:
            raise EnsembleLengthError(
                f"payload holds {found} bytes, header implies {expected}")
        grid = TimeGrid(T=horizon, N=n)
        steps = np.empty((n, m, d))
        block = np.empty((min(m, _PATH_BLOCK), n, d), dtype="<f8")
        for lo in range(0, m, _PATH_BLOCK):
            paths = block[:min(m - lo, _PATH_BLOCK)]
            if fh.readinto(paths.data) != paths.nbytes:
                raise EnsembleLengthError("file ended inside its payload")
            _records(steps)[:, lo:lo + len(paths)] = _records(
                paths.astype(float, copy=False)).T
    return _step_major_ensemble(steps, grid, seed, bool(flags & _ANTITHETIC))
