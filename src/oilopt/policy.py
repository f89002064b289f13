"""Switching field, bang-bang policy extraction, and threshold curves.

The per-node switching function is

    G(s,x,y,i) = -D_y V + (price(x) - marginal_cost(y)),

the sensitivity of the node's Hamiltonian to the extraction rate. D_y is
the reserve difference of the operator the solve iterated, read through its
reserve_neighbor (y - l for the upwind stencil, y + l for the paper-faithful
one), so the sign of G reproduces the argmax of the solved sweep: extract
at capacity where G > 0 and the reserve is nonempty, wait otherwise. Ties
G = 0 wait.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField, csv_handle, write_node_csv
from .model import MarketModel
from .solver import DiscreteOperator


def switching_function(field: GridField, op: DiscreteOperator) -> GridField:
    """G on every node, read with the reserve stencil of `op`, the operator
    the solve iterated (report.operator): G = -(V - N)/(u_sign*l) + price(x)
    - marginal_cost(y), where N is the stencil's reserve neighbor. On its
    clamped face N is the node itself, so G reduces to price(x) - marginal_cost(y).
    """
    g, V = field.grid, field.values
    G = op.reserve_neighbor(V, out=np.empty_like(V))  # N first, turned into G in place
    np.subtract(V, G, out=G)
    G /= -op.u_sign * g.reserve_step  # x/(-y) is -(x/y) bit for bit
    G += op.model.price(g.x_values)[:, None] - op.model.marginal_extraction_cost(g.y_values)
    return GridField(g, G)


def extract_policy(switching: GridField, model: MarketModel) -> GridField:
    """Bang-bang rule: u = u_max where G > 0 and y > 0, else 0."""
    g = switching.grid
    u = np.where(switching.values > 0.0, model.economics.u_max, 0.0)
    u[..., 0] = 0.0  # empty reserve admits no extraction
    return GridField(g, u)


@dataclass
class CrossingDiagnostics:
    s_idx: int
    y_idx: int
    regime: int
    crossings: list  # x locations of every upward sign change found

    @property
    def multiple(self) -> bool:
        return len(self.crossings) > 1


def switching_curve(switching: GridField, s_idx: int, y_idx: int, regime: int):
    """First threshold where G crosses from <= 0 to > 0 along the price axis.

    The crossing abscissa is placed by inverse linear interpolation between
    the bracketing nodes. Returns (x_star or None, CrossingDiagnostics);
    x_star is None when G never changes sign upward on the row.
    """
    g = switching.grid
    row = switching.values[regime, s_idx, :, y_idx]
    xs = g.x_values
    crossings = []
    for j in range(g.n_x - 1):
        if row[j] <= 0.0 < row[j + 1]:
            x_star = xs[j] + g.price_step * (0.0 - row[j]) / (row[j + 1] - row[j])
            crossings.append(float(x_star))
    diag = CrossingDiagnostics(s_idx, y_idx, regime, crossings)
    return (crossings[0] if crossings else None), diag


CURVE_FRACTIONS = (0.0, 0.4, 0.7, 1.0)  # of the horizon: the report's threshold slices


def curve_table(switching: GridField):
    """Threshold rows for the standard report slices.

    Returns (rows, diagnostics): rows are (s, y, regime, x_star or None) for
    every reserve level and regime at each time fraction in CURVE_FRACTIONS;
    diagnostics collects every row with more than one upward crossing.
    """
    g = switching.grid
    rows, flagged = [], []
    for frac in CURVE_FRACTIONS:
        s_idx = int(round(frac * (g.n_s - 1)))
        for y_idx in range(g.n_y):
            for m in range(g.n_regimes):
                x_star, diag = switching_curve(switching, s_idx, y_idx, m)
                rows.append(
                    (float(g.s_values[s_idx]), float(g.y_values[y_idx]), m, x_star)
                )
                if diag.multiple:
                    flagged.append(diag)
    return rows, flagged


def write_curve_csv(rows, path_or_buf):
    """Rows s,y,regime,x_star; empty cell when there is no crossing."""
    with csv_handle(path_or_buf) as fh:
        fh.write("s,y,regime,x_star\n")
        for s, y, m, x_star in rows:
            tail = "" if x_star is None else repr(float(x_star))
            fh.write(f"{s!r},{y!r},{m},{tail}\n")


def write_policy_csv(switching: GridField, policy: GridField, path_or_buf):
    """Node dump s,x,y,regime,G,u_star in the standard row order."""
    write_node_csv(switching.grid, ("G", "u_star"), (switching.values, policy.values),
                   path_or_buf)
