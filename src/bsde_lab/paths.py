"""Brownian-motion ensembles on uniform time grids, per-path sums of squares
and norms, and every file format of the lab: the binary ensemble and
solution files, which share one header reader and one path-major block
writer, and CSVs."""

from __future__ import annotations

import bisect
import math
import os
import struct
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .solver import RegressedZ


class FileFormatError(ValueError):
    """A binary file whose header its format does not allow, or whose length
    disagrees with its header."""


class DimensionError(ValueError):
    """A spec does not fit the ensemble's d, or a terminal its driver's k."""


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


def _checkpoint_stride(n: int) -> int:
    """c = ceil(sqrt(n)): an ensemble of n steps keeps B_t at every c-th step
    and at n, about n / c + 1 slices, and a backward pass refills c more."""
    return math.isqrt(n - 1) + 1


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """M Brownian paths in d dimensions on a uniform grid, held as their
    increments (M, N, d) alone.

    Every Brownian state follows one summation rule, B_0 = 0 and
    B_{i+1} = B_i + increments[:, i], and no (N+1)-step array of them is
    kept.  Construction makes one forward pass that keeps B_i at every c-th
    step and at N, c = ceil(sqrt(N)), read-only; the walks sum every other
    state from the checkpoint at or below it by the same rule, so each comes
    out bit for bit the running sum.  That holds N / c + 1 state slices
    against the N + 1 of a full array.  Every state is read by walking:
    forward_states and backward_states over a window, and all_states, which
    builds the full array; final_state is B_N, the last checkpoint.

    The ensembles that generate_ensemble and load_ensemble return hold the
    increments step-major: the transpose view of an (N, M, d) buffer, so the
    slice of one time step, increments[:, i], is contiguous, as are the
    states the accessors give.  Any other layout of the same shape gives the
    same states, only slower.
    """

    M: int
    d: int
    grid: TimeGrid
    seed: int
    increments: np.ndarray = field(repr=False)  # (M, N, d)
    antithetic: bool = False
    # the steps 0, c, 2c, ..., N and B at each, as (len(_marks), M, d)
    _marks: tuple = field(init=False, repr=False)
    _checkpoints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, n, d = self.M, self.grid.N, self.d
        if (found := self.increments.shape) != (m, n, d):
            raise ValueError(f"increments have shape {found}, but M = {m}, "
                             f"N = {n} and d = {d} need {(m, n, d)}")
        marks = (*range(0, n, _checkpoint_stride(n)), n)
        checkpoints = np.empty((len(marks), m, d))
        checkpoints[0] = 0.0
        # a path that overflows is left non-finite: load_ensemble names it
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, len(marks)):
                state = checkpoints[j]
                state[...] = checkpoints[j - 1]
                for i in range(marks[j - 1], marks[j]):
                    np.add(state, self.increments[:, i], out=state)
        checkpoints.flags.writeable = False
        object.__setattr__(self, "_marks", marks)
        object.__setattr__(self, "_checkpoints", checkpoints)

    def _below(self, i: int) -> int:
        """The index of the checkpoint at or below step i, once 0 <= i <= N."""
        if not 0 <= i <= self.grid.N:
            raise IndexError(f"time index {i} is outside [0, {self.grid.N}]")
        return bisect.bisect_right(self._marks, i) - 1

    def _window(self, lo: int, hi: int) -> int:
        """_below(lo), once the window [lo, hi) has 0 <= lo <= N and
        lo <= hi <= N + 1; an IndexError names the bound that is not."""
        j = self._below(lo)
        if not lo <= hi <= self.grid.N + 1:
            raise IndexError(f"window end {hi} is outside [{lo}, "
                             f"{self.grid.N + 1}]")
        return j

    @property
    def final_state(self) -> np.ndarray:
        """B_N (M, d), the last checkpoint, read-only."""
        return self._checkpoints[-1]

    def forward_states(self, start: int = 0, stop: int | None = None):
        """(i, B_i) for i = start, ..., stop - 1, stop = N + 1 by default.
        Each B_i is a read-only view of one running buffer, which the next
        step overwrites."""
        stop = self.grid.N + 1 if stop is None else stop
        j = self._window(start, stop)
        state = self._checkpoints[j].copy()
        for s in range(self._marks[j], start):
            np.add(state, self.increments[:, s], out=state)
        view = _read_only(state)
        for i in range(start, stop):
            if i > start:
                np.add(state, self.increments[:, i - 1], out=state)
            yield i, view

    def backward_states(self, i_lo: int, i_hi: int):
        """(i, B_i) for i = i_hi - 1 down to i_lo.  One buffer of c slices is
        refilled forward from each checkpoint the window reaches; each B_i is
        a read-only view of it, valid until the next refill."""
        self._window(i_lo, i_hi)
        segment = np.empty((_checkpoint_stride(self.grid.N), self.M, self.d))
        view = _read_only(segment)
        hi = i_hi
        while hi > i_lo:
            j = self._below(hi - 1)
            base = self._marks[j]
            segment[0] = self._checkpoints[j]
            for s in range(base, hi - 1):
                np.add(segment[s - base], self.increments[:, s],
                       out=segment[s - base + 1])
            lo = max(base, i_lo)
            for i in range(hi - 1, lo - 1, -1):
                yield i, view[i - base]
            hi = lo

    def all_states(self) -> np.ndarray:
        """Every B_i as one new (M, N+1, d) array, step-major like the
        increments.  It holds N + 1 slices: tests and oracle_paths only."""
        out = np.empty((self.grid.N + 1, self.M, self.d))
        for i, state in self.forward_states():
            out[i] = state
        return out.transpose(1, 0, 2)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of a that cannot write to it."""
    view = a.view()
    view.flags.writeable = False
    return view


def sum_squares(a: np.ndarray) -> np.ndarray:
    """Per-path sum of squares of a (M, ...) over its trailing axes, one column
    at a time: numpy's own left-to-right sum below 8 columns, at less cost."""
    cols = a.reshape(a.shape[0], math.prod(a.shape[1:])).T
    total = cols[0] * cols[0]
    for col in cols[1:]:
        total += col * col
    return total


def norms(a: np.ndarray) -> np.ndarray:
    """Per-path Euclidean norm of a (M, ...) over its trailing axes: the
    absolute value of a single trailing column, else the square root of
    sum_squares.  For one column the two agree bit for bit wherever
    2^-511 <= |x| < 2^512, the range in which x * x neither underflows nor
    overflows: a correctly rounded root of a correctly rounded square gives
    |x| back.  Outside it the absolute value is exact, where the root of the
    square would be 0 or inf."""
    if math.prod(a.shape[1:]) == 1:
        return np.abs(a.reshape(a.shape[0]))
    total = sum_squares(a)
    return np.sqrt(total, out=total)


# Paths per block when generation, loading and saving move paths between a
# path-major block and the step-major ensemble.  Even, so that the two paths
# of an antithetic pair fall in one block.
_PATH_BLOCK = 1024


def _records(a: np.ndarray) -> np.ndarray:
    """a with its contiguous last axis viewed as one opaque record: moving
    d-tuples as records is faster than moving their d numbers one by one."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))[..., 0]


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
    # counter changes from path to path.  Its words are held as Python ints,
    # which the state setter reads faster than numpy's uint64 scalars.  Each
    # path is drawn whole into a path-major block, which is then scattered
    # into the step-major array.
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    state["state"] = {word: v.tolist() for word, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
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

    return PathEnsemble(M=M, d=d, grid=grid, seed=seed,
                        increments=steps.transpose(1, 0, 2), antithetic=antithetic)


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


def _path_blocks(groups):
    """(block, pairs) for each block of at most _PATH_BLOCK paths of each
    group of paths in turn: groups yields, for each, the list of its
    (m, ...) arrays, parts, and every group but the last holds a multiple of
    _PATH_BLOCK paths.  block is one little-endian f64 buffer, reused by
    every group, whose row j is the record of the block's path j: its rows
    of each part in turn, flattened.  pairs holds, for each part, the
    block's columns of that part, shaped as the part's rows of these paths,
    and those rows."""
    buffer = None
    for parts in groups:
        m = len(parts[0])
        widths = [math.prod(part.shape[1:]) for part in parts]
        if buffer is None:
            buffer = np.empty((min(m, _PATH_BLOCK), sum(widths)), dtype="<f8")
        for lo in range(0, m, _PATH_BLOCK):
            block = buffer[:min(m - lo, _PATH_BLOCK)]
            rows = [part[lo:lo + len(block)] for part in parts]
            columns = np.split(block, np.cumsum(widths)[:-1], axis=1)
            yield block, [(col.reshape(r.shape), r)
                          for col, r in zip(columns, rows)]


@dataclass(eq=False)
class DiscreteSolution:
    """Pathwise (y, z) on the grid: y (M, N+1, k), held step-major, so that
    y[:, i] is contiguous, and z (M, N, k, d), which z_source holds in one
    of two forms: the per-path array itself, step-major, as load_solution
    reads it from a file, or each step's regression coefficients, a
    solver.RegressedZ, as picard_solve returns it.

    z_along walks z one time step at a time in either form, beside a walk
    of the ensemble's Brownian states: it is how the writers, the oracle
    comparison and the checks read z.  The property z gives the whole array.
    """

    y: np.ndarray
    z_source: np.ndarray | RegressedZ
    grid: TimeGrid

    @property
    def z_shape(self) -> tuple:
        """(M, N, k, d), without building z."""
        return self.z_source.shape

    def require_ensemble(self, ens: PathEnsemble) -> None:
        """ValueError if z is a RegressedZ fitted on an ensemble not ens, or
        if y (M, N+1, k) and z (M, N, k, d), in either form, are not of the
        M, N and d of ens and of one k.  A per-path solution of these shapes
        names no ensemble, so it is read on ens as it stands."""
        source = self.z_source
        if not isinstance(source, np.ndarray) and source.ens is not ens:
            raise ValueError("the solution's z was regressed on another "
                             "ensemble: pass the ensemble it was solved on")
        m, n, d, k = ens.M, ens.grid.N, ens.d, self.y.shape[-1]
        if self.y.shape != (m, n + 1, k) or self.z_shape != (m, n, k, d):
            raise ValueError(
                f"the solution's y {self.y.shape} and z {self.z_shape} "
                f"disagree with the ensemble's (M, N, d) = ({m}, {n}, {d})")

    def z_along(self, walk, rows: slice = slice(None)):
        """(i, b_i, z_i) for each (i, b_i) of walk, a forward walk of the
        Brownian states of the ensemble the solution was solved on: z_i
        (m, k, d) of the paths in rows, which a RegressedZ fits on b_i.  A
        fitted z_i is one buffer, which the next step overwrites."""
        if isinstance(self.z_source, np.ndarray):
            return ((i, b_i, self.z_source[rows, i]) for i, b_i in walk)
        return self.z_source.along(walk, rows)

    def _z_rows(self, rows: slice, out: np.ndarray | None = None):
        """z of the paths in rows, (m, N, k, d): a view of a per-path
        z_source; else built by one walk into out (N, m, k, d), a new array
        by default, and returned as its step-major view."""
        if isinstance(self.z_source, np.ndarray):
            return self.z_source[rows]
        m, n, k, d = self.z_shape
        if out is None:
            out = np.empty((n, len(range(*rows.indices(m))), k, d))
        walk = self.z_source.ens.forward_states(0, n)
        for i, _, z_i in self.z_source.along(walk, rows):
            out[i] = z_i
        return out.transpose(1, 0, 2, 3)

    @property
    def z(self) -> np.ndarray:
        """z (M, N, k, d), step-major: the per-path z_source itself, or one
        new array of every path's z at every step, which a RegressedZ does
        not hold."""
        return self._z_rows(slice(None))


# Paths per group of the solution writers, which build a RegressedZ's z one
# group at a time, into one buffer.
_SOLUTION_GROUP = 8 * _PATH_BLOCK


def _solution_groups(sol: DiscreteSolution):
    """(lo, y, z) of each group of at most _SOLUTION_GROUP paths from path
    lo on: the group's rows of y and of z (see DiscreteSolution._z_rows),
    valid until the next group."""
    m, n, k, d = sol.z_shape
    buffer = (None if isinstance(sol.z_source, np.ndarray)
              else np.empty((n, min(m, _SOLUTION_GROUP), k, d)))
    for lo in range(0, m, _SOLUTION_GROUP):
        rows = slice(lo, min(lo + _SOLUTION_GROUP, m))
        out = None if buffer is None else buffer[:, :rows.stop - lo]
        yield lo, sol.y[rows], sol._z_rows(rows, out)


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


def _save(path, fmt: _Format, fields: tuple, groups) -> None:
    """Write fmt's header of fields, then the records of the groups of paths
    (see _path_blocks), gathered one block of paths at a time, so no
    path-major copy of them is held.  path is replaced only by a complete
    file."""
    with atomic_open(path, "wb") as fh:
        fh.write(fmt.header.pack(fmt.magic, _VERSION, *fields))
        for block, pairs in _path_blocks(groups):
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
    for block, pairs in _path_blocks([parts]):
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
                            ens.grid.T, ens.seed), [[ens.increments]])


def load_ensemble(path) -> PathEnsemble:
    """Read the format of save_ensemble into a step-major ensemble.  A path
    whose Brownian values are not all finite is a FileFormatError that names
    it and the step at which its values leave the finite numbers."""
    with open(path, "rb") as fh:
        fields, grid = _read_header(fh, _ENSEMBLE)
        if (flags := fields["flags"]) & ~_ANTITHETIC:
            raise FileFormatError(f"unknown header flags {flags:#x}")
        steps = np.empty((grid.N, fields["M"], fields["d"]))
        _read_records(fh, [steps.transpose(1, 0, 2)])
    ens = PathEnsemble(M=fields["M"], d=fields["d"], grid=grid,
                       seed=fields["seed"], increments=steps.transpose(1, 0, 2),
                       antithetic=bool(flags & _ANTITHETIC))
    # a state that is not finite stays so, so B_N shows every such path
    if not np.all(np.isfinite(end := ens.final_state)):
        j = int(np.argmin(np.isfinite(end).all(axis=1)))
        with np.errstate(over="ignore", invalid="ignore"):
            walk = np.cumsum(ens.increments[j], axis=0)
        s = int(np.argmin(np.isfinite(walk).all(axis=1)))
        raise FileFormatError(
            f"path {j} is not finite from time index {s + 1} on: its "
            f"increment at step {s} is {ens.increments[j, s].tolist()}")
    return ens


def save_solution(sol: DiscreteSolution, path) -> None:
    """Write the binary solution format: magic 'BSOL', version, M, N, k, d,
    T, then each path's record: its y over steps 0..N (k each), then its z
    over steps 0..N-1 (k d each).  Whichever form holds z, the file holds
    per-path z, built _SOLUTION_GROUP paths at a time."""
    m, n, k, d = sol.z_shape
    _save(path, _SOLUTION, (m, n, k, d, sol.grid.T),
          ([y, z] for _, y, z in _solution_groups(sol)))


def load_solution(path) -> DiscreteSolution:
    """Read the format of save_solution into a solution whose z_source is the
    file's per-path z; y and z are step-major."""
    with open(path, "rb") as fh:
        fields, grid = _read_header(fh, _SOLUTION)
        m, n, k, d = (fields[key] for key in _SIZES)
        y = np.empty((n + 1, m, k)).transpose(1, 0, 2)
        z = np.empty((n, m, k, d)).transpose(1, 0, 2, 3)
        _read_records(fh, [y, z])
    return DiscreteSolution(y=y, z_source=z, grid=grid)


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
    _, n, k, d = sol.z_shape
    n_plus = n + 1
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
        for first, y, z in _solution_groups(sol):
            for lo in range(0, len(y), chunk):
                hi = min(lo + chunk, len(y))
                block = np.zeros((hi - lo, n_plus, k + k * d))
                block[:, :, :k] = y[lo:hi]
                block[:, :-1, k:] = z[lo:hi].reshape(hi - lo, n, k * d)
                fh.writelines((format_number(pth) + ",").join(rows)
                              % tuple(values) for pth, values in enumerate(
                                  block.reshape(hi - lo, -1).tolist(),
                                  first + lo))
