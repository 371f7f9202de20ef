"""Brownian-motion ensembles on uniform time grids, with a binary file format,
and the path-major block I/O that it shares with the solution file."""

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

    def __post_init__(self):
        m, n, d = self.M, self.grid.N, self.d
        for name, shape in (("increments", (m, n, d)), ("values", (m, n + 1, d))):
            if (found := getattr(self, name).shape) != shape:
                raise ValueError(f"{name} have shape {found}, but M = {m}, "
                                 f"N = {n} and d = {d} need {shape}")


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
    except (MemoryError, ValueError) as exc:  # a shape numpy refuses is a ValueError
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


def _move(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src, moving last-axis tuples as records where both arrays
    allow it: the same dtype and a contiguous last axis."""
    if (dst.dtype == src.dtype
            and dst.strides[-1] == src.strides[-1] == dst.itemsize):
        _records(dst)[...] = _records(src)
    else:
        dst[...] = src


def _path_blocks(parts, m: int):
    """(block, pairs) for each block of at most _PATH_BLOCK paths of the
    (M, ...) arrays parts.  block is one reused little-endian f64 buffer
    whose row j is the record of the block's path j: its rows of each part
    in turn, flattened.  pairs holds, for each part, the block's columns of
    that part, shaped as the part's rows of these paths, and those rows."""
    widths = [math.prod(part.shape[1:]) for part in parts]
    buffer = np.empty((min(m, _PATH_BLOCK), sum(widths)), dtype="<f8")
    for lo in range(0, m, _PATH_BLOCK):
        block = buffer[:min(m - lo, _PATH_BLOCK)]
        rows = [part[lo:lo + len(block)] for part in parts]
        columns = np.split(block, np.cumsum(widths)[:-1], axis=1)
        yield block, [(col.reshape(r.shape), r) for col, r in zip(columns, rows)]


def write_path_major(fh, parts, m: int) -> None:
    """Write the records of m paths of parts, path after path, gathering one
    block of paths at a time, so no path-major copy of parts is held."""
    for block, pairs in _path_blocks(parts, m):
        for columns, rows in pairs:
            _move(columns, rows)
        fh.write(block.data)


def read_path_major(fh, parts, m: int, length_error: type) -> None:
    """Fill parts from the records write_path_major wrote, one block of paths
    at a time; a file that ends early raises length_error."""
    for block, pairs in _path_blocks(parts, m):
        if fh.readinto(block.data) != block.nbytes:
            raise length_error("file ended inside its payload")
        for columns, rows in pairs:
            _move(rows, columns)


def read_header(fh, header: struct.Struct, magic: bytes, version: int,
                what: str, format_error: type, length_error: type) -> tuple:
    """The fields of a binary header after its magic bytes and version,
    once both match."""
    raw = fh.read(header.size)
    if len(raw) < header.size:
        raise length_error(f"file shorter than the {what} header")
    found, found_version, *rest = header.unpack(raw)
    if found != magic:
        raise format_error(f"bad magic bytes {found!r}")
    if found_version != version:
        raise format_error(f"unsupported format version {found_version}")
    return tuple(rest)


def header_grid(sizes: dict, horizon: float, format_error: type) -> TimeGrid:
    """The grid of a binary header whose sizes (name -> value) are all >= 1."""
    named = ", ".join(f"{name} = {v}" for name, v in sizes.items())
    try:
        if min(sizes.values()) < 1:
            raise ValueError(f"sizes {named} must be >= 1")
        return TimeGrid(T=horizon, N=sizes["N"])
    except ValueError as exc:
        raise format_error(f"header {exc}") from None


def check_payload(fh, header: struct.Struct, expected: int,
                  length_error: type) -> None:
    """Raise length_error unless the file holds expected bytes after header."""
    found = os.fstat(fh.fileno()).st_size - header.size
    if found != expected:
        raise length_error(
            f"payload holds {found} bytes, header implies {expected}")


def save_ensemble(ens: PathEnsemble, path) -> None:
    """Write the binary format: magic 'BSDE', version, sizes, flags, T, seed,
    raw f64.  Bit 0 of flags is antithetic; the other bits are zero.  The
    payload is path-major; it is gathered and written one block of paths at
    a time, so no second copy of the ensemble is held."""
    header = _HEADER.pack(_MAGIC, _VERSION, ens.M, ens.grid.N, ens.d,
                          _ANTITHETIC if ens.antithetic else 0,
                          ens.grid.T, ens.seed)
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        write_path_major(fh, [ens.increments], ens.M)


def load_ensemble(path) -> PathEnsemble:
    """Read the binary format of save_ensemble into a step-major ensemble,
    one block of paths at a time."""
    with open(path, "rb") as fh:
        m, n, d, flags, horizon, seed = read_header(
            fh, _HEADER, _MAGIC, _VERSION, "ensemble", EnsembleFormatError,
            EnsembleLengthError)
        if flags & ~_ANTITHETIC:
            raise EnsembleFormatError(f"unknown header flags {flags:#x}")
        grid = header_grid({"M": m, "N": n, "d": d}, horizon, EnsembleFormatError)
        check_payload(fh, _HEADER, m * n * d * 8, EnsembleLengthError)
        steps = np.empty((n, m, d))
        read_path_major(fh, [steps.transpose(1, 0, 2)], m, EnsembleLengthError)
    return _step_major_ensemble(steps, grid, seed, bool(flags & _ANTITHETIC))
