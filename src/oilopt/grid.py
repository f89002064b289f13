"""Uniform tensor grid over (time, price state, reserve, regime) and fields on it.

Node coordinates are exactly index*step. Reads outside the box are clamped
to the nearest face (zero-gradient), which is also how the solver treats
its boundaries. Fields store one contiguous float array laid out
regime-major, then time-major: shape (M, n_s, n_x, n_y).
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from . import fork

# node rows below which a node CSV is formatted in process. On a 2-core VM a
# split of 25,326 value rows broke even, and one of 101,304 saved 7-35%
SPLIT_MIN_ROWS = 100_000
_COPY_CHARS = 1 << 20  # characters per chunk when the worker's half is appended


def _node_count(span: float, step: float, name: str) -> int:
    n = int(round(span / step))
    if n < 1 or abs(n * step - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(
            f"{name} step {step} must divide the span {span} into whole cells"
        )
    return n + 1


def _nearest(v, step: float, n: int):
    """Nearest of n nodes `step` apart, clamped: an int for a scalar v, a new
    index array for an array."""
    if np.ndim(v) == 0:
        return min(max(round(float(v) / step), 0), n - 1)  # half-to-even, as np.rint
    i = np.rint(np.asarray(v) / step).astype(int)
    np.maximum(i, 0, out=i)
    return np.minimum(i, n - 1, out=i)


@dataclass(frozen=True)
class Grid4D:
    horizon: float  # T
    price_cap: float  # R, price state lives on [0, R]
    reserve_capacity: float  # K
    time_step: float  # k
    price_step: float  # h
    reserve_step: float  # l
    n_regimes: int

    def __post_init__(self):
        for name, step in (
            ("time", self.time_step),
            ("price", self.price_step),
            ("reserve", self.reserve_step),
        ):
            if not (0.0 < step < 1.0):
                raise ValueError(f"{name} step size must lie in (0,1), got {step}")
        for name, span in (
            ("horizon", self.horizon),
            ("price_cap", self.price_cap),
            ("reserve_capacity", self.reserve_capacity),
        ):
            if span <= 0:
                raise ValueError(f"{name} must be positive, got {span}")
        if self.n_regimes < 1:
            raise ValueError("n_regimes must be at least 1")
        # validate divisibility eagerly; the counts are cached from here on
        _ = self.n_s, self.n_x, self.n_y

    @cached_property
    def n_s(self) -> int:
        return _node_count(self.horizon, self.time_step, "time")

    @cached_property
    def n_x(self) -> int:
        return _node_count(self.price_cap, self.price_step, "price")

    @cached_property
    def n_y(self) -> int:
        return _node_count(self.reserve_capacity, self.reserve_step, "reserve")

    @property
    def s_values(self) -> np.ndarray:
        return np.arange(self.n_s) * self.time_step

    @property
    def x_values(self) -> np.ndarray:
        return np.arange(self.n_x) * self.price_step

    @property
    def y_values(self) -> np.ndarray:
        return np.arange(self.n_y) * self.reserve_step

    @property
    def shape(self) -> tuple:
        return (self.n_regimes, self.n_s, self.n_x, self.n_y)

    def nearest_indices(self, t, x, y):
        """Round coordinates to the nearest node, clamped into the box."""
        return (_nearest(t, self.time_step, self.n_s), _nearest(x, self.price_step, self.n_x),
                _nearest(y, self.reserve_step, self.n_y))


build_grid = Grid4D  # the public constructor: Grid4D's fields are its parameters


class GridField:
    """A scalar field on a Grid4D (value function, policy, switching field)."""

    def __init__(self, grid: Grid4D, values: np.ndarray | None = None):
        self.grid = grid
        if values is None:
            values = np.zeros(grid.shape)
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"field shape {values.shape} != grid shape {grid.shape}")
        self.values = values

    def to_csv(self, path_or_buf):
        """Write rows s,x,y,regime,value ordered s-outer, then x, then y, then
        regime; return the processes that formatted them (see write_node_csv)."""
        return write_node_csv(self.grid, ("value",), lambda si: (self.values[:, si],),
                              path_or_buf)


@contextmanager
def output_handle(path_or_buf, binary=False):
    """Yield a handle to write to, text unless `binary`: a path is opened and
    closed on exit, an already-open buffer is passed through untouched. An
    OSError raised while a path is open names that path: a failed write or
    flush names no file of its own."""
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        try:
            with (open(path_or_buf, "wb") if binary else
                  open(path_or_buf, "w", encoding="utf-8", newline="")) as fh:
                yield fh
        except OSError as exc:
            if exc.filename is None:
                exc.filename = path_or_buf
            raise
    else:
        yield path_or_buf


def write_rows(path_or_buf, header, rows):
    """A header line, then one line per row of Python numbers (None for an
    empty cell), each number as its shortest round-trip decimal (repr)."""
    with output_handle(path_or_buf) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else repr(v) for v in row) + "\n")


def _cells(column: np.ndarray):
    """One slice's column as strings in row order (x, then y, then regime):
    an object array holds its strings, a float array is written by repr."""
    cells = column.transpose(1, 2, 0).ravel().tolist()
    return cells if column.dtype == object else map(repr, cells)


def write_node_csv(grid: Grid4D, columns, slice_columns, path_or_buf) -> int:
    """Node rows s,x,y,regime,<columns> ordered s-outer, then x, then y, then regime.

    slice_columns(si) returns one (M, n_x, n_y) array per column, the values
    on time slice si: a float array is written as shortest round-trip
    decimal strings, an object array as the strings it holds. It is called
    once per slice.

    The rows are formatted by fork.split, from SPLIT_MIN_ROWS rows on as
    two parts: part i of count formats the contiguous slices [lo_i, lo_i+1),
    lo_i = ceil(n_s * i / count). This process writes part 0 after the
    header; the child that formats part 1 writes it into an unnamed
    temporary file, which is then appended in bounded chunks. slice_columns
    is called in order within each part. Either way the file holds the same
    bytes. Returns the processes that formatted the rows, 1 or 2.
    """
    s_str = [repr(v) for v in grid.s_values.tolist()]
    # the "x,y,regime" part of every row of one time slice, in row order
    xym = [
        f"{xs},{ys},{m}"
        for xs in map(repr, grid.x_values.tolist())
        for ys in map(repr, grid.y_values.tolist())
        for m in range(grid.n_regimes)
    ]
    n_s = grid.n_s

    with (output_handle(path_or_buf) as fh,
          tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as tail):
        fh.write(",".join(("s", "x", "y", "regime", *columns)) + "\n")

        def part(i, count, _):
            out = tail if i else fh
            for si in range(-(-n_s * i // count), -(-n_s * (i + 1) // count)):
                rows = zip(repeat(s_str[si], len(xym)), xym, *map(_cells, slice_columns(si)))
                out.write("\n".join(map(",".join, rows)) + "\n")
            out.flush()  # a forked child exits without flushing its buffers

        parts = fork.split(part, n_s * len(xym), SPLIT_MIN_ROWS, "CSV")
        tail.seek(0)
        shutil.copyfileobj(tail, fh, _COPY_CHARS)
    return len(parts)
