"""YAML run configuration.

One file describes a full run: model, economics, grid, solver, simulation.
Each section is read from the dataclass it fills: its keys are the class's
fields, each read with the field's type and, when left out, taking the
field's default (a field without one is a required key). A jump-measure
family takes its keys and defaults from its constructor's signature.
Parsing is strict — unknown keys anywhere are a ConfigError, so typos fail
loudly instead of silently falling back to defaults. schema_version pins
the layout; only version 1 exists.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np
import yaml

from .errors import ConfigError
from .grid import Grid4D, build_grid
from .model import (Dynamics, Economics, LevyMeasure, MarketModel, profit_rate, terminal_value,
                    validate_model)
from .solver import SolverConfig

_FAMILIES = ("null", "atoms", "uniform", "double_exponential")
_TOP_KEYS = {"schema_version", "model", "economics", "grid", "solver", "simulation"}
# simulation.start, read into the tuple (s, x, y, regime): name -> (type, default)
_START = {"s": (float, 0.0), "x": (float, MISSING), "y": (float, MISSING), "regime": (int, 0)}


@dataclass(frozen=True)
class SimulationSettings:
    n_paths: int = 10000
    dt: float = 1e-3
    seed: int = 0
    antithetic: bool = False
    start: tuple = field(kw_only=True)  # (s, x, y, regime)


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


def _optional_section(data: dict, key: str) -> dict:
    """A top-level section that may be left out: missing or null reads as
    empty, anything else must be a mapping (false, 0, "" and [] are not)."""
    section = data.get(key)
    return {} if section is None else _require_mapping(section, key)


def _get(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return section[key]


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


def _floats(value, key):
    try:
        return tuple(_number(v, key) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a list of numbers") from exc


@functools.cache
def _schema(source) -> dict:
    """name -> (type, default) of each field of a dataclass, or of each parameter
    of a measure constructor; MISSING marks a required one. The annotations
    are resolved once per class or constructor."""
    hints = inspect.get_annotations(source, eval_str=True)
    if is_dataclass(source):
        return {f.name: (hints[f.name], f.default) for f in fields(source)}
    return {p.name: (hints.get(p.name), MISSING if p.default is p.empty else p.default)
            for p in inspect.signature(source).parameters.values()}


def _read(section: dict, where: str, schema: dict, filled=()) -> dict:
    """Each key of a YAML section read with its type in `schema`: a key left
    out takes its default, or is missing if it has none. A key outside the
    schema, or among the fields `filled` from other sections, is unknown."""
    _check_keys(section, set(schema).difference(filled), where)
    return {k: default if k not in section and default is not MISSING
            else _value(_get(section, k, where), kind, f"{where}.{k}")
            for k, (kind, default) in schema.items() if k not in filled}


def _value(value, kind, key: str):
    """A YAML value read as the type of the field it fills."""
    if kind is float or kind is int:
        return _number(value, key, integer=kind is int)
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    if kind == tuple[float, ...]:
        return _floats(value, key)
    if kind is np.ndarray:  # the generator
        try:
            return np.array([_floats(row, key) for row in value])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key} must be a square matrix of rates") from exc
    if kind is LevyMeasure:
        return _build_measure(value)
    if isinstance(kind, dict):  # a nested section: simulation.start
        return tuple(_read(_require_mapping(value, key), key, kind).values())
    return value  # a string, which the class it fills checks, or the atom pairs


def _build_measure(section) -> LevyMeasure:
    section = _require_mapping(section, "model.measure")
    family = _get(section, "family", "model.measure")
    if family not in _FAMILIES:
        raise ConfigError(
            f"model.measure.family must be one of {sorted(_FAMILIES)}, got {family!r}"
        )
    build = getattr(LevyMeasure, family)
    params = _read({k: v for k, v in section.items() if k != "family"}, "model.measure",
                   _schema(build))
    if family == "atoms":
        try:
            params["pairs"] = [_floats((z, m), "model.measure.pairs") for z, m in params["pairs"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError("model.measure.pairs must be a list of [size, mass] pairs") from exc
    try:
        return build(**params)
    except ValueError as exc:  # each constructor's refusal starts with the parameter it refuses
        raise ConfigError(f"model.measure.{exc}") from exc


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from already-parsed YAML data."""
    data = _require_mapping(data, "configuration root")
    _check_keys(data, _TOP_KEYS, "configuration root")
    version = _number(_get(data, "schema_version", "configuration root"), "schema_version",
                      integer=True)
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version!r}; this build reads version 1")

    msec = _require_mapping(_get(data, "model", "configuration root"), "model")
    esec = _require_mapping(_get(data, "economics", "configuration root"), "economics")
    gsec = _require_mapping(_get(data, "grid", "configuration root"), "grid")
    ssec = _optional_section(data, "solver")
    simsec = _optional_section(data, "simulation")

    # the model section holds the Dynamics fields and MarketModel's own
    m = _read(msec, "model", {**_schema(MarketModel), **_schema(Dynamics)},
              filled=("dynamics", "economics"))
    dynamics = Dynamics(**{k: m.pop(k) for k in _schema(Dynamics)})
    economics = Economics(**_read(esec, "economics", _schema(Economics)))
    model = MarketModel(dynamics=dynamics, economics=economics, **m)
    report = validate_model(model)
    if not report.ok:
        raise ConfigError("invalid model: " + "; ".join(report.violations))

    steps = _read(gsec, "grid", _schema(Grid4D), filled=("horizon", "reserve_capacity",
                                                         "n_regimes"))
    try:
        grid = build_grid(horizon=economics.horizon, reserve_capacity=economics.reserve_capacity,
                          n_regimes=model.n_regimes, **steps)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    cap = grid.price_cap
    with np.errstate(all="ignore"):  # exp(x) overflows above x = 709.78
        settlement = terminal_value(model, cap, 0.0)
        profit = profit_rate(model, 0.0, cap, 0.0, economics.u_max)
    if not (np.isfinite(settlement) and np.isfinite(profit)):
        raise ConfigError(
            f"grid.price_cap {cap} is too large for price_kind {model.price_kind}: the "
            f"settlement {settlement} and the running profit {profit} at the cap must be finite"
        )

    solver = SolverConfig(**_read(ssec, "solver", _schema(SolverConfig)))  # it checks the strings
    if simsec.get("start") is None:  # no start: the middle of the box
        simsec = {**simsec, "start": {"x": 0.5 * cap, "y": 0.5 * economics.reserve_capacity}}
    simulation = SimulationSettings(**_read(
        simsec, "simulation", {**_schema(SimulationSettings), "start": (_START, MISSING)}))
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
