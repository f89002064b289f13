"""Switching field, bang-bang policy extraction, and threshold curves.

The per-node switching function is

    G(s,x,y,i) = -D_y V + (price(x) - marginal_cost(y)),

the sensitivity of the node's Hamiltonian to the extraction rate. D_y is
the backward reserve difference (V(y) - V(y - l))/l, read through the
operator's reserve_neighbor as the sweep reads it for either stencil, so
the sign of G reproduces the argmax of the solved sweep: extract
at capacity where G > 0 and the reserve is nonempty, wait otherwise. Ties
G = 0 wait. G reads only its own time slice of V, so the commands compute it
one slice at a time; switching_function and extract_policy are the full-grid
forms of the same rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField, write_node_csv, write_rows
from .model import MarketModel
from .solver import DiscreteOperator


def _switching_block(V: np.ndarray, op: DiscreteOperator) -> np.ndarray:
    """G on a block of V's time slices (any shape ending in (n_x, n_y)):
    -(V - N)/l + price(x) - marginal_cost(y), N = V(y - l) the reserve
    neighbor of `op`. On the clamped face y = 0, N = V, so G is price - cost there."""
    g = op.grid
    G = op.reserve_neighbor(V)  # N first, turned into G in place
    np.subtract(V, G, out=G)
    G /= -g.reserve_step  # x/(-y) is -(x/y) bit for bit
    G += op.model.price(g.x_values)[:, None] - op.model.marginal_extraction_cost(g.y_values)
    return G


def _bang_bang(G: np.ndarray, u_max: float) -> np.ndarray:
    u = np.where(G > 0.0, u_max, 0.0)
    u[..., 0] = 0.0  # empty reserve admits no extraction
    return u


def switching_function(field: GridField, op: DiscreteOperator) -> GridField:
    """G on every node, read with the stencil of `op`, the operator the solve iterated."""
    return GridField(field.grid, _switching_block(field.values, op))


def extract_policy(switching: GridField, model: MarketModel) -> GridField:
    """Bang-bang rule: u = u_max where G > 0 and y > 0, else 0."""
    return GridField(switching.grid, _bang_bang(switching.values, model.economics.u_max))


def bang_bang_policy(field: GridField, op: DiscreteOperator) -> GridField:
    """extract_policy(switching_function(field, op), model), one slice of G at a time."""
    u, u_max = np.empty_like(field.values), op.model.economics.u_max
    for si in range(field.grid.n_s):
        u[:, si] = _bang_bang(_switching_block(field.values[:, si], op), u_max)
    return GridField(field.grid, u)


@dataclass
class CrossingDiagnostics:
    s_idx: int
    y_idx: int
    regime: int
    crossings: list  # x locations of every upward sign change found

    @property
    def multiple(self) -> bool:
        return len(self.crossings) > 1


def _curve(row: np.ndarray, g, s_idx: int, y_idx: int, regime: int):
    j = np.flatnonzero((row[:-1] <= 0.0) & (row[1:] > 0.0))  # upward sign changes
    crossings = (g.x_values[j] + g.price_step * (0.0 - row[j]) / (row[j + 1] - row[j])).tolist()
    diag = CrossingDiagnostics(s_idx, y_idx, regime, crossings)
    return (crossings[0] if crossings else None), diag


def switching_curve(switching: GridField, s_idx: int, y_idx: int, regime: int):
    """First threshold where G crosses from <= 0 to > 0 along the price axis.

    The crossing abscissa is placed by inverse linear interpolation between
    the bracketing nodes. Returns (x_star or None, CrossingDiagnostics);
    x_star is None when G never changes sign upward on the row.
    """
    return _curve(switching.values[regime, s_idx, :, y_idx], switching.grid, s_idx, y_idx, regime)


CURVE_FRACTIONS = (0.0, 0.4, 0.7, 1.0)  # of the horizon: the report's threshold slices


def curve_table(field: GridField, op: DiscreteOperator):
    """Threshold rows of the solved field, G computed on the report slices alone.

    Returns (rows, diagnostics): rows are (s, y, regime, x_star or None) for
    every reserve level and regime at each time fraction in CURVE_FRACTIONS;
    diagnostics collects every row with more than one upward crossing.
    """
    g = field.grid
    rows, flagged = [], []
    for frac in CURVE_FRACTIONS:
        s_idx = int(round(frac * (g.n_s - 1)))
        G = _switching_block(field.values[:, s_idx], op)
        for y_idx in range(g.n_y):
            for m in range(g.n_regimes):
                x_star, diag = _curve(G[m, :, y_idx], g, s_idx, y_idx, m)
                rows.append(
                    (float(g.s_values[s_idx]), float(g.y_values[y_idx]), m, x_star)
                )
                if diag.multiple:
                    flagged.append(diag)
    return rows, flagged


def write_curve_csv(rows, path_or_buf):
    """Rows s,y,regime,x_star; empty cell when there is no crossing."""
    write_rows(path_or_buf, ("s", "y", "regime", "x_star"), rows)


def write_policy_csv(field: GridField, op: DiscreteOperator, path_or_buf) -> int:
    """Node dump s,x,y,regime,G,u_star of the solved field, one time slice at a
    time; returns the processes that formatted it (see write_node_csv).

    u_star holds only +0.0 and u_max (a NaN G waits), so its cells are
    those two cached reprs."""
    u_max = op.model.economics.u_max
    u_str = np.array([repr(0.0), repr(u_max)], dtype=object)

    def columns(si):
        G = _switching_block(field.values[:, si], op)
        # compared by bits: -0.0 == 0.0, but u_max = -0.0 writes "-0.0"
        extracts = _bang_bang(G, u_max).view(np.int64) != 0
        return G, u_str[extracts.view(np.uint8)]

    return write_node_csv(field.grid, ("G", "u_star"), columns, path_or_buf)
