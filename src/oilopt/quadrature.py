"""Weight families discretizing the jump integral.

The nonlocal term applied to a function f of the price state is

    I f(x) = sum_j c_j f(x + g*x*z_j) - f_x(x) * sum_j d_j g*x*z_j - f(x)*Gamma

where the c_j carry the full measure over its (truncated) support and the
d_j carry only the small-jump window [-1, 1] entering the compensator. For
density measures both families come from one composite Simpson rule, which
also takes the density's mass, compensator drift and truncated mass
(_integral); for atom measures they are the atom masses themselves. The
contraction check |sum_j c_j - Gamma| / r < 1 gates every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionError


@dataclass(frozen=True)
class QuadratureScheme:
    """Frozen weight families for one measure at one resolution."""

    c_nodes: np.ndarray
    c_weights: np.ndarray
    d_nodes: np.ndarray
    d_weights: np.ndarray
    total_mass: float  # Gamma of the measure
    window: float  # half-width actually integrated for the c family
    truncated_fraction: float = 0.0  # measure mass ignored because Z < support

    @property
    def weight_sum(self) -> float:
        return float(np.sum(self.c_weights))

    @property
    def compensator_sum(self) -> float:
        """sum_j d_j z_j, the discrete small-jump first moment."""
        return float(np.sum(self.d_weights * self.d_nodes))


def _simpson_rule(a: float, b: float, n: int):
    """Composite Simpson nodes and weights on [a, b] with an even count of n intervals."""
    nodes = np.linspace(a, b, n + 1)
    pattern = np.ones(n + 1)
    pattern[1:-1:2] = 4.0
    pattern[2:-1:2] = 2.0
    return nodes, ((b - a) / n / 3.0) * pattern


def _integral(f, a: float, b: float) -> float:
    """Reference integral of a vectorized f over [a, b]: Simpson on 20,000 intervals."""
    nodes, weights = _simpson_rule(a, b, 20000)
    return float(np.dot(weights, np.broadcast_to(f(nodes), nodes.shape)))


def _simpson_family(density, half_width: float, xi: float):
    """Composite Simpson nodes/weights for density over [-half_width, half_width].

    The interval count is rounded up to the next even number so the 1-4-2-...-4-1
    pattern closes; the effective spacing is then 2*half_width / n.
    """
    n = max(2, math.ceil(2.0 * half_width / xi))
    nodes, weights = _simpson_rule(-half_width, half_width, n + n % 2)
    vals = np.asarray(density(nodes), dtype=float)
    if np.any(vals < 0):
        bad = nodes[np.argmin(vals)]
        raise ValueError(f"density is negative at z={bad:.6g}; not a measure")
    return nodes, weights * vals


def build_quadrature(measure, xi: float, truncation: float = 5.0) -> QuadratureScheme:
    """Build the c and d weight families for a measure.

    xi is the target node spacing in (0, 1); truncation is the maximum
    half-width integrated for density measures (must be >= 1 so the
    compensator window is always covered). Density measures with their own
    support bound inside the truncation are integrated exactly over that
    support, and the d family over min(1, support), so nothing is cut off
    and Simpson never straddles the support edge.
    """
    if not (0.0 < xi < 1.0):
        raise ValueError(f"quadrature step xi must lie in (0,1), got {xi}")
    if measure.kind == "atoms":
        locs = np.asarray(measure.atom_locations, dtype=float)
        masses = np.asarray(measure.atom_masses, dtype=float)
        small = np.abs(locs) < 1.0
        return QuadratureScheme(
            c_nodes=locs,
            c_weights=masses,
            d_nodes=locs[small],
            d_weights=masses[small],
            total_mass=measure.total_mass,
            window=float(np.max(np.abs(locs), initial=0.0)),
        )
    if not truncation >= 1.0:  # NaN too; inf integrates the whole support
        raise ValueError(f"truncation must be >= 1 for density measures, got {truncation}")
    window = min(float(measure.support), float(truncation))
    c_nodes, c_weights = _simpson_family(measure.density, window, xi)
    d_nodes, d_weights = _simpson_family(measure.density, min(1.0, window), xi)
    truncated = 0.0
    if window < float(measure.support):
        inside = _integral(measure.density, -window, window)
        truncated = max(0.0, 1.0 - inside / measure.total_mass) if measure.total_mass else 0.0
    return QuadratureScheme(
        c_nodes=c_nodes,
        c_weights=c_weights,
        d_nodes=d_nodes,
        d_weights=d_weights,
        total_mass=measure.total_mass,
        window=window,
        truncated_fraction=truncated,
    )


@dataclass(frozen=True)
class ContractionReport:
    value: float  # |sum c_j - Gamma| / r
    passed: bool
    weight_sum: float
    total_mass: float

    def require(self):
        if not self.passed:
            raise ContractionError(
                f"contraction check failed: |sum c_j - Gamma|/r = {self.value:.6g} >= 1 "
                f"(sum c_j = {self.weight_sum:.10g}, Gamma = {self.total_mass:.10g}); "
                "refine the quadrature step"
            )


def check_contraction(scheme: QuadratureScheme, discount_rate: float) -> ContractionReport:
    if discount_rate <= 0:
        raise ValueError(f"discount rate must be positive, got {discount_rate}")
    value = abs(scheme.weight_sum - scheme.total_mass) / discount_rate
    return ContractionReport(
        value=value,
        passed=bool(value < 1.0),
        weight_sum=scheme.weight_sum,
        total_mass=scheme.total_mass,
    )

