"""Brownian-motion ensembles on uniform time grids, per-path sums of squares,
and every file format of the lab: the binary ensemble and solution files,
which share one header reader and one path-major block writer, and CSVs."""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class FileFormatError(ValueError):
    """A binary file whose header its format does not allow, or whose length
    disagrees with its header."""


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


def sum_squares(a: np.ndarray) -> np.ndarray:
    """Per-path sum of squares of a (M, ...) over its trailing axes, one column
    at a time: numpy's own left-to-right sum below 8 columns, at less cost."""
    cols = a.reshape(a.shape[0], math.prod(a.shape[1:])).T
    total = cols[0] * cols[0]
    for col in cols[1:]:
        total += col * col
    return total


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


def _path_blocks(parts):
    """(block, pairs) for each block of at most _PATH_BLOCK paths of the
    (M, ...) arrays parts.  block is one reused little-endian f64 buffer
    whose row j is the record of the block's path j: its rows of each part
    in turn, flattened.  pairs holds, for each part, the block's columns of
    that part, shaped as the part's rows of these paths, and those rows."""
    m = len(parts[0])
    widths = [math.prod(part.shape[1:]) for part in parts]
    buffer = np.empty((min(m, _PATH_BLOCK), sum(widths)), dtype="<f8")
    for lo in range(0, m, _PATH_BLOCK):
        block = buffer[:min(m - lo, _PATH_BLOCK)]
        rows = [part[lo:lo + len(block)] for part in parts]
        columns = np.split(block, np.cumsum(widths)[:-1], axis=1)
        yield block, [(col.reshape(r.shape), r) for col, r in zip(columns, rows)]


@dataclass
class DiscreteSolution:
    """Pathwise (y, z) on the grid: y (M, N+1, k), z (M, N, k, d).

    The solvers and load_solution hold them step-major, as zeros builds
    them, so y[:, i] and z[:, i] are contiguous.
    """

    y: np.ndarray
    z: np.ndarray
    grid: TimeGrid

    @classmethod
    def zeros(cls, m: int, k: int, d: int, grid: TimeGrid) -> DiscreteSolution:
        """A zero solution of m paths stored step-major like the ensemble:
        y and z are transpose views of (N+1, M, k) and (N, M, k, d) buffers,
        so each time step of a sweep reads and writes contiguous slices."""
        n = grid.N
        return cls(y=np.zeros((n + 1, m, k)).transpose(1, 0, 2),
                   z=np.zeros((n, m, k, d)).transpose(1, 0, 2, 3), grid=grid)


@dataclass(frozen=True)
class _Format:
    """A binary file format: magic bytes, a version u32 and the named fields
    make its little-endian header; then each path, path after path, has one
    record of width(fields) little-endian f64.  The fields named in _SIZES
    must be >= 1, and T and N must make a TimeGrid."""

    name: str
    magic: bytes
    header: struct.Struct
    fields: tuple
    width: Callable[[dict], int]


_VERSION = 1
_SIZES = ("M", "N", "k", "d")
_ANTITHETIC = 1  # bit of the ensemble header's flags
_ENSEMBLE = _Format("ensemble", b"BSDE", struct.Struct("<4sIQQIIdQ"),
                    ("M", "N", "d", "flags", "T", "seed"),
                    lambda f: f["N"] * f["d"])
_SOLUTION = _Format("solution", b"BSOL", struct.Struct("<4sIQQIId"),
                    ("M", "N", "k", "d", "T"),
                    lambda f: (f["N"] + 1) * f["k"] + f["N"] * f["k"] * f["d"])


def _save(path, fmt: _Format, fields: tuple, parts) -> None:
    """Write fmt's header of fields, then the records of the (M, ...) arrays
    parts, gathered one block of paths at a time, so no path-major copy of
    parts is held.  path is replaced only by a complete file."""
    with atomic_open(path, "wb") as fh:
        fh.write(fmt.header.pack(fmt.magic, _VERSION, *fields))
        for block, pairs in _path_blocks(parts):
            for columns, rows in pairs:
                _move(columns, rows)
            fh.write(block.data)


def _read_header(fh, fmt: _Format) -> tuple[dict, TimeGrid]:
    """The fields of fmt's header, by name, and the grid they give, once the
    header is one fmt allows and the file's length is the one it implies."""
    raw = fh.read(fmt.header.size)
    if len(raw) < fmt.header.size:
        raise FileFormatError(f"file shorter than the {fmt.name} header")
    magic, version, *values = fmt.header.unpack(raw)
    if magic != fmt.magic:
        raise FileFormatError(f"bad magic bytes {magic!r}")
    if version != _VERSION:
        raise FileFormatError(f"unsupported format version {version}")
    fields = dict(zip(fmt.fields, values))
    sizes = {name: v for name, v in fields.items() if name in _SIZES}
    try:
        if min(sizes.values()) < 1:
            named = ", ".join(f"{name} = {v}" for name, v in sizes.items())
            raise ValueError(f"sizes {named} must be >= 1")
        grid = TimeGrid(T=fields["T"], N=fields["N"])
    except ValueError as exc:
        raise FileFormatError(f"header {exc}") from None
    expected = fields["M"] * fmt.width(fields) * 8
    found = os.fstat(fh.fileno()).st_size - fmt.header.size
    if found != expected:
        raise FileFormatError(
            f"payload holds {found} bytes, header implies {expected}")
    return fields, grid


def _read_records(fh, parts) -> None:
    """Fill the (M, ...) arrays parts from the records that follow the
    header, one block of paths at a time."""
    for block, pairs in _path_blocks(parts):
        if fh.readinto(block.data) != block.nbytes:
            raise FileFormatError("file ended inside its payload")
        for columns, rows in pairs:
            _move(rows, columns)


def save_ensemble(ens: PathEnsemble, path) -> None:
    """Write the binary ensemble format: magic 'BSDE', version, M, N, d,
    flags, T, seed, then each path's increments.  Bit 0 of flags is
    antithetic; the other bits are zero."""
    _save(path, _ENSEMBLE, (ens.M, ens.grid.N, ens.d,
                            _ANTITHETIC if ens.antithetic else 0,
                            ens.grid.T, ens.seed), [ens.increments])


def load_ensemble(path) -> PathEnsemble:
    """Read the format of save_ensemble into a step-major ensemble."""
    with open(path, "rb") as fh:
        fields, grid = _read_header(fh, _ENSEMBLE)
        if (flags := fields["flags"]) & ~_ANTITHETIC:
            raise FileFormatError(f"unknown header flags {flags:#x}")
        steps = np.empty((grid.N, fields["M"], fields["d"]))
        _read_records(fh, [steps.transpose(1, 0, 2)])
    return _step_major_ensemble(steps, grid, fields["seed"],
                                bool(flags & _ANTITHETIC))


def save_solution(sol: DiscreteSolution, path) -> None:
    """Write the binary solution format: magic 'BSOL', version, M, N, k, d,
    T, then each path's record: its y over steps 0..N (k each), then its z
    over steps 0..N-1 (k d each)."""
    m, n_plus, k = sol.y.shape
    _save(path, _SOLUTION, (m, n_plus - 1, k, sol.z.shape[3], sol.grid.T),
          [sol.y, sol.z])


def load_solution(path) -> DiscreteSolution:
    """Read the format of save_solution into a step-major solution."""
    with open(path, "rb") as fh:
        fields, grid = _read_header(fh, _SOLUTION)
        sol = DiscreteSolution.zeros(fields["M"], fields["k"], fields["d"], grid)
        _read_records(fh, [sol.y, sol.z])
    return sol


# Rows per chunk of the solution writer, about 250 KB of text at k = d = 1:
# larger chunks wrote no faster and held more memory.
_SOLUTION_CHUNK_ROWS = 1 << 12


def save_solution_csv(sol: DiscreteSolution, path) -> None:
    """Columns path,step,t,y_1..y_k,z_11..z_kd; z rows at the terminal step are 0.

    The cells are those of write_csv.  Each path's N+1 rows are one
    `template % values`, whose template holds the path, step and t cells
    already formatted; paths go out in chunks, so the text is never held
    whole.
    """
    m, n_plus, k = sol.y.shape
    d = sol.z.shape[3]
    header = (["path", "step", "t"]
              + [f"y_{i + 1}" for i in range(k)]
              + [f"z_{i + 1}{j + 1}" for i in range(k) for j in range(d)])
    cells = ",".join([NUMBER] * (k + k * d))
    # A path's rows without their path cell, which joining them puts in front.
    rows = [""] + [f"{format_number(step)},{format_number(t)},{cells}\n"
                   for step, t in enumerate(sol.grid.times.tolist())]
    chunk = max(1, _SOLUTION_CHUNK_ROWS // n_plus)
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, m, chunk):
            hi = min(lo + chunk, m)
            block = np.zeros((hi - lo, n_plus, k + k * d))
            block[:, :, :k] = sol.y[lo:hi]
            block[:, :-1, k:] = sol.z[lo:hi].reshape(hi - lo, n_plus - 1, k * d)
            fh.writelines((format_number(pth) + ",").join(rows) % tuple(values)
                          for pth, values in enumerate(
                              block.reshape(hi - lo, -1).tolist(), lo))
