"""Market model: price dynamics, regime chain, jump measure, and economics.

The traded commodity price lives on a state X with mean-reverting drift
kappa*(mu_i - X), regime-dependent volatility sigma_i, and jumps of size
gamma_i * X * z (proportional convention) driven by a finite-activity Levy
measure nu. The regime i follows a continuous-time Markov chain with
generator Q. Extraction at rate u from a reserve of size Y earns
price(X)*u minus a running cost a + m*u*(b*Y + c), and the leftover
position is settled at the horizon by (K - Y)*(price(X) - m_T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import _integral


# ---------------------------------------------------------------------------
# Levy measures
# ---------------------------------------------------------------------------


def _on_support(f, w):
    """The density z -> f(z) on [-w, w] and 0.0 outside, z read as a float array."""
    def dens(z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) <= w, f(z), 0.0)

    return dens


@dataclass(frozen=True)
class LevyMeasure:
    """Finite-activity jump measure on the real line.

    kind is "atoms" or "density". Atom measures carry explicit (location,
    mass) pairs; the null measure is the one with no atoms. Density measures
    carry a callable evaluated on [-support, support]; mass outside the
    support is zero by definition. A double exponential also carries its
    decay, with which its jumps are drawn by inversion. Every field is
    compared, so an equal copy draws the same jumps. total_mass is
    Gamma = nu(R), always finite here.
    """

    kind: str
    total_mass: float
    support: float | None = None
    atom_locations: tuple[float, ...] = ()
    atom_masses: tuple[float, ...] = ()
    decay: float | None = None
    _density: object = field(default=None, repr=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def null() -> "LevyMeasure":
        """Measure with no jumps at all (Gamma = 0): no atoms."""
        return LevyMeasure.atoms(())

    @staticmethod
    def atoms(pairs) -> "LevyMeasure":
        locs = tuple(float(z) for z, _ in pairs)
        masses = tuple(float(m) for _, m in pairs)
        if any(m < 0 for m in masses):
            raise ValueError(f"pairs must hold nonnegative masses, got {masses}")
        return LevyMeasure(
            kind="atoms",
            total_mass=float(sum(masses)),
            atom_locations=locs,
            atom_masses=masses,
        )

    @staticmethod
    def uniform(half_width: float = 1.0, total_mass: float = 1.0) -> "LevyMeasure":
        """Constant density on [-half_width, half_width] normalized to total_mass."""
        if half_width <= 0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        if total_mass < 0:
            raise ValueError(f"total_mass must be nonnegative, got {total_mass}")
        w = float(half_width)
        level = float(total_mass) / (2.0 * w)
        return LevyMeasure(kind="density", total_mass=float(total_mass), support=w,
                           _density=_on_support(lambda z: level, w))

    @staticmethod
    def double_exponential(
        decay: float, half_width: float = 5.0, total_mass: float = 1.0
    ) -> "LevyMeasure":
        """Symmetric density ~ exp(-decay*|z|), truncated at half_width,
        normalized so the truncated measure has the given total mass."""
        for name, value in (("decay", decay), ("half_width", half_width)):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if total_mass < 0:
            raise ValueError(f"total_mass must be nonnegative, got {total_mass}")
        lam, w = float(decay), float(half_width)
        # integral of exp(-lam|z|) over [-w, w] is 2*(1 - exp(-lam*w))/lam
        scale = float(total_mass) * lam / (2.0 * (1.0 - math.exp(-lam * w)))
        return LevyMeasure(kind="density", total_mass=float(total_mass), support=w, decay=lam,
                           _density=_on_support(lambda z: scale * np.exp(-lam * np.abs(z)), w))

    @staticmethod
    def from_density(density, half_width: float, total_mass: float | None = None) -> "LevyMeasure":
        """Wrap an arbitrary nonnegative density truncated at half_width.

        The density must accept arrays. With total_mass=None its Simpson mass
        over [-half_width, half_width] is Gamma and the density is used as given;
        otherwise it is rescaled so the truncated measure carries total_mass.
        """
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        w = float(half_width)
        raw_mass = _integral(density, -w, w)
        if raw_mass < 0:
            raise ValueError("density integrates to a negative mass")
        if total_mass is None:
            gamma = raw_mass
            dens_fn = density
        else:
            if total_mass < 0:
                raise ValueError("total_mass must be nonnegative")
            if raw_mass == 0:
                raise ValueError("cannot rescale a zero-mass density")
            factor = float(total_mass) / raw_mass
            dens_fn = lambda z, _f=factor: _f * np.asarray(density(z), dtype=float)
            gamma = float(total_mass)

        return LevyMeasure(kind="density", total_mass=gamma, support=w,
                           _density=_on_support(lambda z: np.asarray(dens_fn(z), dtype=float), w))

    # -- queries -------------------------------------------------------------

    def density(self, z):
        if self.kind != "density":
            raise ValueError(f"{self.kind} measure has no density")
        return self._density(z)

    def compensator_drift(self) -> float:
        """integral of z over |z| < 1, the small-jump compensator drift.

        Computed from the measure, not from the solver's weight families: exact
        for atoms; for densities Simpson on the odd part z*(f(z) - f(-z)) over
        [0, min(1, support)], exactly 0.0 for an even density.
        """
        if self.kind == "atoms":
            return float(
                sum(
                    z * m
                    for z, m in zip(self.atom_locations, self.atom_masses)
                    if abs(z) < 1.0
                )
            )
        f = self._density
        return _integral(lambda z: z * (f(z) - f(-z)), 0.0, min(1.0, float(self.support)))

    @cached_property
    def _envelope(self) -> float:
        """Flat rejection envelope: the density's maximum on a fine grid."""
        w = float(self.support)
        return float(np.max(np.asarray(self._density(np.linspace(-w, w, 4001)))))

    def sample_jumps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n jump sizes from nu / Gamma. Requires total_mass > 0."""
        if n == 0:
            return np.empty(0)
        if self.total_mass <= 0:
            raise ValueError("cannot sample jumps from a zero-mass measure")
        if self.kind == "atoms":
            probs = np.asarray(self.atom_masses) / self.total_mass
            idx = rng.choice(len(probs), size=n, p=probs)
            return np.asarray(self.atom_locations)[idx]
        if self.decay is not None:
            lam, w = self.decay, float(self.support)
            u = rng.uniform(-1.0, 1.0, size=n)
            mag = -np.log1p(-np.abs(u) * (1.0 - math.exp(-lam * w))) / lam
            return np.sign(u) * mag
        w = float(self.support)
        dens = self._density
        level = self._envelope
        if level <= 0:
            raise ValueError("cannot sample from a degenerate density")
        # uniform family and custom densities: rejection against a flat envelope
        out = np.empty(n)
        filled = 0
        while filled < n:
            cand = rng.uniform(-w, w, size=2 * (n - filled))
            acc = rng.uniform(0.0, level, size=cand.size) <= np.asarray(dens(cand))
            take = cand[acc][: n - filled]
            out[filled : filled + take.size] = take
            filled += take.size
        return out


# ---------------------------------------------------------------------------
# Model pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dynamics:
    """Mean-reverting jump-diffusion parameters, one entry per regime."""

    kappa: float
    mu: tuple[float, ...]
    sigma: tuple[float, ...]
    jump_scale: tuple[float, ...]  # gamma_i, multiplier on jump size
    discount_rate: float  # r


@dataclass(frozen=True)
class Economics:
    """Extraction cost a + m*u*(b*y + c), control cap, reserve, horizon."""

    fixed_cost: float  # a
    marginal_cost: float  # m
    reserve_slope: float  # b
    reserve_offset: float  # c
    u_max: float
    reserve_capacity: float  # K
    horizon: float  # T
    terminal_offset: float  # m_T, per-unit deduction in the terminal settlement


@dataclass(frozen=True)
class MarketModel:
    generator: np.ndarray  # regime chain generator Q, shape (M, M)
    dynamics: Dynamics
    economics: Economics
    measure: LevyMeasure = LevyMeasure.null()
    price_kind: str = "linear"  # "linear" or "exponential"
    jump_convention: str = "proportional"  # or "additive"

    @property
    def n_regimes(self) -> int:
        return self.generator.shape[0]

    def price(self, x):
        """Map the state X to the traded price."""
        x = np.asarray(x, dtype=float)
        if self.price_kind == "exponential":
            return np.exp(x)
        return x

    def drift(self, x, mu, gamma, comp):
        """kappa*(mu - x) less the jump compensator, gamma*x*comp or additively gamma*comp."""
        compensator = gamma * x * comp if self.jump_convention == "proportional" else gamma * comp
        return self.dynamics.kappa * (mu - x) - compensator

    def marginal_extraction_cost(self, y):
        """d cost / d u, the per-unit markup entering the switching function."""
        e = self.economics
        return e.marginal_cost * (e.reserve_slope * np.asarray(y, dtype=float) + e.reserve_offset)


def profit_rate(model: MarketModel, t, x, y, u):
    """Running profit L = price(x)*u - (a + m*u*(b*y + c)), affine in u.

    Scalar inputs are range-checked; array inputs are assumed pre-validated
    (the solver and the simulator call this on whole arrays).
    """
    e = model.economics
    if np.isscalar(u) and not (0.0 <= u <= e.u_max):
        raise ValueError(f"extraction rate u={u} outside [0, {e.u_max}]")
    if np.isscalar(y) and not (0.0 <= y <= e.reserve_capacity):
        raise ValueError(f"reserve y={y} outside [0, {e.reserve_capacity}]")
    return model.price(x) * u - (
        e.fixed_cost + e.marginal_cost * u * (e.reserve_slope * y + e.reserve_offset)
    )


def terminal_value(model: MarketModel, x, y):
    """Settlement at the horizon: (K - y) * (price(x) - m_T)."""
    e = model.economics
    if np.isscalar(y) and not (0.0 <= y <= e.reserve_capacity):
        raise ValueError(f"reserve y={y} outside [0, {e.reserve_capacity}]")
    return (e.reserve_capacity - np.asarray(y, dtype=float)) * (
        model.price(x) - e.terminal_offset
    )


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(model: MarketModel) -> ValidationReport:
    """Collect every invariant violation instead of stopping at the first."""
    v = []
    Q = np.asarray(model.generator, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        v.append(f"generator must be square, got shape {Q.shape}")
    else:
        M = Q.shape[0]
        if M < 1:
            v.append("generator must have at least one regime")
        off = Q - np.diag(np.diag(Q))
        if np.any(off < 0):
            v.append("generator off-diagonal rates must be nonnegative")
        rows = Q.sum(axis=1)
        if np.any(np.abs(rows) > 1e-9 * max(1.0, float(np.max(np.abs(Q), initial=1.0)))):
            v.append(f"generator rows must sum to zero, got {rows.tolist()}")
        d = model.dynamics
        for name, seq in (("mu", d.mu), ("sigma", d.sigma), ("jump_scale", d.jump_scale)):
            if len(seq) != M:
                v.append(f"{name} must have one entry per regime ({M}), got {len(seq)}")
    d = model.dynamics
    if d.kappa < 0:
        v.append(f"kappa must be nonnegative, got {d.kappa}")
    if any(s < 0 for s in d.sigma):
        v.append(f"sigma entries must be nonnegative, got {list(d.sigma)}")
    if d.discount_rate <= 0:
        v.append(f"discount_rate must be positive, got {d.discount_rate}")
    e = model.economics
    if e.fixed_cost < 0:
        v.append(f"fixed_cost must be nonnegative, got {e.fixed_cost}")
    if e.marginal_cost <= 0:
        v.append(f"marginal_cost must be positive, got {e.marginal_cost}")
    if e.u_max < 0:
        v.append(f"u_max must be nonnegative, got {e.u_max}")
    if e.reserve_capacity <= 0:
        v.append(f"reserve_capacity must be positive, got {e.reserve_capacity}")
    if e.horizon <= 0:
        v.append(f"horizon must be positive, got {e.horizon}")
    if model.price_kind not in ("linear", "exponential"):
        v.append(f"price_kind must be 'linear' or 'exponential', got {model.price_kind!r}")
    if model.jump_convention not in ("proportional", "additive"):
        v.append(
            "jump_convention must be 'proportional' or 'additive', "
            f"got {model.jump_convention!r}"
        )
    m = model.measure
    if not math.isfinite(m.total_mass) or m.total_mass < 0:
        v.append(f"measure total mass must be finite and nonnegative, got {m.total_mass}")
    return ValidationReport(v)
