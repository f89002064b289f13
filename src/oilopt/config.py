"""YAML run configuration.

One file describes a full run: model, economics, grid, solver, simulation.
Parsing is strict — unknown keys anywhere are a ConfigError, so typos fail
loudly instead of silently falling back to defaults. schema_version pins the
layout; only version 1 exists.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import yaml

from .errors import ConfigError
from .grid import Grid4D, build_grid
from .model import (Dynamics, Economics, LevyMeasure, MarketModel, profit_rate, terminal_value,
                    validate_model)
from .solver import SolverConfig

_MEASURE_KEYS = {
    "null": set(),
    "atoms": {"pairs"},
    "uniform": {"half_width", "total_mass"},
    "double_exponential": {"decay", "half_width", "total_mass"},
}

_MODEL_KEYS = {
    "generator",
    "kappa",
    "mu",
    "sigma",
    "jump_scale",
    "discount_rate",
    "price_kind",
    "jump_convention",
    "measure",
}
_GRID_KEYS = {"price_cap", "time_step", "price_step", "reserve_step"}
_ECONOMICS_KEYS = [f.name for f in fields(Economics)]
_SOLVER_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}
_START_KEYS = {"s", "x", "y", "regime"}
_TOP_KEYS = {"schema_version", "model", "economics", "grid", "solver", "simulation"}


@dataclass(frozen=True)
class SimulationSettings:
    n_paths: int = 10000
    dt: float = 1e-3
    seed: int = 0
    antithetic: bool = False
    start: tuple = (0.0, 50.0, 5.0, 0)  # (s, x, y, regime)


_SIM_DEFAULTS = {f.name: f.default for f in fields(SimulationSettings)}


@dataclass(frozen=True)
class RunConfig:
    model: MarketModel
    grid: Grid4D
    solver: SolverConfig
    simulation: SimulationSettings
    raw: dict  # parsed YAML, echoed into run manifests


def _require_mapping(obj, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(section: dict, allowed, where: str):
    unknown = sorted(set(section).difference(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _get(section: dict, key: str, where: str, default=_MEASURE_KEYS):
    if key in section:
        return section[key]
    if default is _MEASURE_KEYS:  # sentinel: required
        raise ConfigError(f"missing required key '{key}' in {where}")
    return default


def _number(value, key, integer=False):
    """The one reading of a YAML number. A bool, NaN and +-inf are refused; an
    integer key refuses a non-integral value (10000.0 reads as 10000); a float
    key takes a numeric string too, as PyYAML reads 1e-3 (no dot) as one."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if not integer and np.isfinite(number):
                return number
            if integer and number.is_integer():
                return value if isinstance(value, int) else int(number)
    kind = "an integer" if integer else "a finite number"
    raise ConfigError(f"{key} must be {kind}, got {value!r}")


def _get_number(section: dict, key: str, where: str, default=_MEASURE_KEYS, integer=False):
    return _number(_get(section, key, where, default), f"{where}.{key}", integer)


def _floats(value, key, where):
    try:
        return tuple(_number(v, f"{where}.{key}") for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key} must be a list of numbers") from exc


def _build_measure(section) -> LevyMeasure:
    section = _require_mapping(section, "model.measure")
    family = _get(section, "family", "model.measure")
    if family not in _MEASURE_KEYS:
        raise ConfigError(
            f"model.measure.family must be one of {sorted(_MEASURE_KEYS)}, got {family!r}"
        )
    _check_keys(section, _MEASURE_KEYS[family] | {"family"}, "model.measure")
    if family == "null":
        return LevyMeasure.null()
    if family == "atoms":
        pairs = _get(section, "pairs", "model.measure")
        try:
            parsed = [_floats((z, m), "pairs", "model.measure") for z, m in pairs]
        except (TypeError, ValueError) as exc:
            raise ConfigError("model.measure.pairs must be a list of [size, mass] pairs") from exc
        return LevyMeasure.atoms(parsed)
    if family == "double_exponential":
        _get(section, "decay", "model.measure")  # required; the others default
    # only the keys given, so the constructor's defaults hold; sorted is the old order
    numbers = {k: _get_number(section, k, "model.measure") for k in sorted(section)
               if k != "family"}
    if family == "uniform":
        return LevyMeasure.uniform(**numbers)
    return LevyMeasure.double_exponential(**numbers)


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from already-parsed YAML data."""
    data = _require_mapping(data, "configuration root")
    _check_keys(data, _TOP_KEYS, "configuration root")
    version = _number(_get(data, "schema_version", "configuration root"), "schema_version",
                      integer=True)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version!r}; this build reads version 1")

    msec = _require_mapping(_get(data, "model", "configuration root"), "model")
    _check_keys(msec, _MODEL_KEYS, "model")
    esec = _require_mapping(_get(data, "economics", "configuration root"), "economics")
    _check_keys(esec, _ECONOMICS_KEYS, "economics")
    gsec = _require_mapping(_get(data, "grid", "configuration root"), "grid")
    _check_keys(gsec, _GRID_KEYS, "grid")
    ssec = _require_mapping(data.get("solver", {}) or {}, "solver")
    _check_keys(ssec, _SOLVER_DEFAULTS, "solver")
    simsec = _require_mapping(data.get("simulation", {}) or {}, "simulation")
    _check_keys(simsec, _SIM_DEFAULTS, "simulation")

    try:
        generator = np.array([_floats(row, "generator", "model")
                              for row in _get(msec, "generator", "model")])
    except (TypeError, ValueError) as exc:
        raise ConfigError("model.generator must be a square matrix of rates") from exc
    dynamics = Dynamics(
        kappa=_get_number(msec, "kappa", "model"),
        mu=_floats(_get(msec, "mu", "model"), "mu", "model"),
        sigma=_floats(_get(msec, "sigma", "model"), "sigma", "model"),
        jump_scale=_floats(_get(msec, "jump_scale", "model"), "jump_scale", "model"),
        discount_rate=_get_number(msec, "discount_rate", "model"),
    )
    economics = Economics(**{k: _get_number(esec, k, "economics") for k in _ECONOMICS_KEYS})
    model = MarketModel(
        generator=generator,
        dynamics=dynamics,
        economics=economics,
        measure=_build_measure(_get(msec, "measure", "model", {"family": "null"})),
        price_kind=str(_get(msec, "price_kind", "model", "linear")),
        jump_convention=str(_get(msec, "jump_convention", "model", "proportional")),
    )
    report = validate_model(model)
    if not report.ok:
        raise ConfigError("invalid model: " + "; ".join(report.violations))

    cap = _get_number(gsec, "price_cap", "grid")
    try:
        grid = build_grid(
            horizon=economics.horizon,
            price_cap=cap,
            reserve_capacity=economics.reserve_capacity,
            time_step=_get_number(gsec, "time_step", "grid"),
            price_step=_get_number(gsec, "price_step", "grid"),
            reserve_step=_get_number(gsec, "reserve_step", "grid"),
            n_regimes=model.n_regimes,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    with np.errstate(all="ignore"):  # exp(x) overflows above x = 709.78
        settlement = terminal_value(model, cap, 0.0)
        profit = profit_rate(model, 0.0, cap, 0.0, economics.u_max)
    if not (np.isfinite(settlement) and np.isfinite(profit)):
        raise ConfigError(
            f"grid.price_cap {cap} is too large for price_kind {model.price_kind}: the "
            f"settlement {settlement} and the running profit {profit} at the cap must be finite"
        )

    # each setting is parsed with the type of its SolverConfig default
    solver = SolverConfig(**{  # SolverConfig checks the strings
        k: _get(ssec, k, "solver", v) if isinstance(v, str)
        else _get_number(ssec, k, "solver", v, integer=isinstance(v, int))
        for k, v in _SOLVER_DEFAULTS.items()
    })

    start_sec = simsec.get("start")
    if start_sec is None:
        start = (0.0, 0.5 * cap, 0.5 * economics.reserve_capacity, 0)
    else:
        start_sec = _require_mapping(start_sec, "simulation.start")
        _check_keys(start_sec, _START_KEYS, "simulation.start")
        start = (
            _get_number(start_sec, "s", "simulation.start", 0.0),
            _get_number(start_sec, "x", "simulation.start"),
            _get_number(start_sec, "y", "simulation.start"),
            _get_number(start_sec, "regime", "simulation.start", 0, integer=True),
        )
    antithetic = simsec.get("antithetic", False)
    if not isinstance(antithetic, bool):
        raise ConfigError(f"simulation.antithetic must be true or false, got {antithetic!r}")
    # the numbers are parsed with the type of their SimulationSettings default
    simulation = SimulationSettings(antithetic=antithetic, start=start, **{
        k: _get_number(simsec, k, "simulation", v, integer=isinstance(v, int))
        for k, v in _SIM_DEFAULTS.items() if k not in ("antithetic", "start")
    })
    if simulation.n_paths < 2:
        raise ConfigError(f"simulation.n_paths must be at least 2, got {simulation.n_paths}")
    if simulation.dt <= 0:
        raise ConfigError(f"simulation.dt must be positive, got {simulation.dt}")

    return RunConfig(model=model, grid=grid, solver=solver, simulation=simulation, raw=data)


def load_config(path) -> RunConfig:
    """Read and validate a YAML run configuration from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return parse_config(data)
