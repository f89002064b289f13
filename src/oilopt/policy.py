"""Switching field, bang-bang policy extraction, and threshold curves.

The per-node switching function is

    G(s,x,y,i) = -D_y V + (price(x) - marginal_cost(y)),

the sensitivity of the node's Hamiltonian to the extraction rate. The
reserve difference D_y uses the same stencil the solver mode used
(downward in upwind mode, upward in paper-faithful mode), so the sign of G
reproduces the argmax of the solved sweep: extract at capacity where
G > 0 and the reserve is nonempty, wait otherwise. Ties G = 0 wait.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField, csv_handle, write_node_csv
from .model import MarketModel


def switching_function(field: GridField, model: MarketModel, mode: str = "upwind") -> GridField:
    """G on every node. mode selects the reserve stencil, matching the solver.

    At the clamped reserve edge the one-sided difference reads the replicated
    neighbor, so the reserve term vanishes and G reduces to
    price(x) - marginal_cost(y) there.
    """
    g = field.grid
    V = field.values
    l = g.reserve_step
    G = np.empty_like(V)  # D_y V first, turned into G in place
    if mode == "upwind":
        np.subtract(V[..., 1:], V[..., :-1], out=G[..., 1:])
        G[..., 0] = 0.0  # replicated neighbor below y=0
    elif mode == "paper_faithful":
        np.subtract(V[..., 1:], V[..., :-1], out=G[..., :-1])
        G[..., -1] = 0.0  # replicated neighbor above y=K
    else:
        raise ValueError(f"unknown scheme mode {mode!r}")
    G /= l
    np.negative(G, out=G)
    G += model.price(g.x_values)[:, None] - np.asarray(
        model.marginal_extraction_cost(g.y_values)
    )[None, :]
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


def curve_table(switching: GridField, s_fractions=(0.0, 0.4, 0.7, 1.0)):
    """Threshold rows for the standard report slices.

    Returns (rows, diagnostics): rows are (s, y, regime, x_star or None) for
    every reserve level and regime at each requested time fraction;
    diagnostics collects every row with more than one upward crossing.
    """
    g = switching.grid
    rows, flagged = [], []
    for frac in s_fractions:
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


def write_policy_csv(switching: GridField, policy: GridField, path_or_buf, s_indices=None):
    """Node dump s,x,y,regime,G,u_star in the standard row order."""
    write_node_csv(
        switching.grid, ("G", "u_star"), (switching.values, policy.values), path_or_buf,
        s_indices,
    )
