"""Experiment configuration documents.

Configs are versioned JSON with a fixed schema; unknown keys are hard errors
so that a typo in a scientific parameter cannot silently fall back to a
default.  Every subcommand validates the whole document, including the
sections it does not read; `parse_config` is the schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .delays import (
    AlternatingParityDelay,
    ConstantDelay,
    ConstantStepDelay,
    DelayModel,
    LogLagDelay,
    PiecewiseLinearDelay,
    ProportionalDelay,
    ProportionalStepDelay,
    SinusoidalDelay,
)
from .model import CONTINUOUS, DISCRETE, Dilation, PolyVectorField, SystemModel, lyapunov_v
from .rates import FORMS
from .simulate import constant_history, tabulated_history

SCHEMA_VERSION = 1

KNOWN_BOUNDS = ("auto", *FORMS)


class ConfigError(ValueError):
    """Malformed experiment document (wrong keys, types, or references)."""


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    return obj


def _check_keys(d: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(d)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where} is missing required keys: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a boolean (bool is an int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_history_rows(rows: list, n: int, where: str) -> None:
    """Each row must be n finite nonnegative numbers: the theorems cover
    histories in the positive orthant only."""
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{where} must be a vector of length {n}")
        if not all(_is_number(x) and math.isfinite(x) and x >= 0 for x in row):
            raise ConfigError(f"{where} entries must be finite nonnegative numbers, got {row}")


def _check_numbers(values, where: str) -> None:
    """values must be a list of JSON numbers; a boolean is not one."""
    if not isinstance(values, list) or not all(map(_is_number, values)):
        raise ConfigError(f"{where} must be a list of numbers, got {values!r}")


def _finite(value, where: str) -> float:
    """value as a float; anything but a finite real number is a ConfigError
    that names where it was found."""
    if not _is_number(value) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _field_from(doc, where: str) -> PolyVectorField:
    doc = _require_mapping(doc, where)
    _check_keys(doc, {"n", "components"}, set(), where)
    if not _finite(doc["n"], f"{where}.n").is_integer():
        raise ConfigError(f"{where}.n must be a whole number, got {doc['n']!r}")
    try:
        field = PolyVectorField.from_dict(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    # the field takes any float; a config coefficient is a finite JSON number
    for comp in doc["components"]:
        for term in comp:
            _finite(term["coeff"], f"{where} coefficient")
            _check_numbers(term["exp"], f"{where} exponent")
    return field


_DELAY_FAMILIES: dict[str, tuple[type, set[str]]] = {
    "constant": (ConstantDelay, {"tau"}),
    "sinusoidal": (SinusoidalDelay, {"a", "b"}),
    "piecewise_linear": (PiecewiseLinearDelay, {"knots"}),
    "proportional": (ProportionalDelay, {"alpha"}),
    "log_lag": (LogLagDelay, set()),
    "constant_steps": (ConstantStepDelay, {"d"}),
    "alternating_parity": (AlternatingParityDelay, set()),
    "proportional_steps": (ProportionalStepDelay, {"alpha"}),
}


def delay_from(doc, where: str = "delay") -> DelayModel:
    doc = _require_mapping(doc, where)
    family = doc.get("family")
    if not isinstance(family, str) or family not in _DELAY_FAMILIES:
        raise ConfigError(
            f"{where}.family must be one of {sorted(_DELAY_FAMILIES)}, got {family!r}"
        )
    cls, params = _DELAY_FAMILIES[family]
    _check_keys(doc, {"family"} | params, set(), where)
    for k in params - {"knots"}:
        _finite(doc[k], f"{where}.{k}")
    if "knots" in params and isinstance(doc["knots"], list):
        for knot in doc["knots"]:
            _check_numbers(knot, f"{where}.knots entry")
    try:
        return cls(**{k: doc[k] for k in params})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class SimSettings:
    """Step size and horizon, each a finite positive number (kept as a
    float); the command-line overrides are checked here too."""

    h: float
    horizon: float

    def __post_init__(self):
        for key in ("h", "horizon"):
            value = _finite(getattr(self, key), f"sim.{key}")
            if value <= 0.0:
                raise ConfigError(f"sim.{key} must be positive, got {value!r}")
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class AnalysisSettings:
    v: tuple[float, ...] | None = None
    gamma: float = 0.9
    bounds: tuple[str, ...] = ("auto",)


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemModel
    delays: tuple[DelayModel, ...]
    history_doc: dict
    sim: SimSettings
    analysis: AnalysisSettings
    seed: int = 0

    def __post_init__(self):
        # also checks a --horizon override, applied through dataclasses.replace
        if self.system.is_discrete and not self.sim.horizon.is_integer():
            raise ConfigError(
                f"sim.horizon counts whole steps for a discrete system, got {self.sim.horizon!r}"
            )

    def history_continuous(self) -> Callable[[float], Sequence[float]]:
        doc = self.history_doc
        if "constant" in doc:
            return constant_history(doc["constant"])
        table = doc["table"]
        return tabulated_history(table["times"], table["states"])

    def history_peak(self, v: Sequence[float], depth: float) -> float:
        """V(phi): the sup of V over the history on [-depth, 0].

        Each component of a constant or piecewise-linear history peaks at
        a table time inside the window or at one of its ends, so V, a max
        of increasing functions of the components, is evaluated there only.
        """
        doc = self.history_doc
        times = [0.0]
        if "table" in doc:
            times += [-depth] + [t for t in doc["table"]["times"] if -depth < t < 0.0]
        phi = self.history_continuous()
        return float(lyapunov_v(v, self.system.dilation, [phi(t) for t in times]).max())

    def history_discrete(
        self,
    ) -> Callable[[int], Sequence[float]] | dict[int, tuple[float, ...]]:
        """The discrete history: a callable for a constant history, which
        answers any index the simulator asks for, else the table by index."""
        doc = self.history_doc
        if "constant" in doc:
            return constant_history(doc["constant"])
        table = doc["table"]
        return {int(k): tuple(map(float, xs)) for k, xs in zip(table["times"], table["states"])}


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc) -> ExperimentConfig:
    doc = _require_mapping(doc, "config")
    _check_keys(
        doc,
        {"version", "system", "delay", "initial_history", "sim"},
        {"analysis", "seed"},
        "config",
    )
    if not _is_number(doc["version"]) or doc["version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {doc['version']!r} (expected {SCHEMA_VERSION})")

    sys_doc = _require_mapping(doc["system"], "system")
    _check_keys(sys_doc, {"kind", "f", "delayed", "dilation", "degree"}, set(), "system")
    if sys_doc["kind"] not in (CONTINUOUS, DISCRETE):
        raise ConfigError(f"system.kind must be 'continuous' or 'discrete', got {sys_doc['kind']!r}")
    f = _field_from(sys_doc["f"], "system.f")
    delayed_docs = sys_doc["delayed"]
    if not isinstance(delayed_docs, list) or not delayed_docs:
        raise ConfigError("system.delayed must be a non-empty list of vector fields")
    gs = tuple(_field_from(g, f"system.delayed[{q}]") for q, g in enumerate(delayed_docs))
    degree = _finite(sys_doc["degree"], "system.degree")
    _check_numbers(sys_doc["dilation"], "system.dilation")
    try:
        dilation = Dilation(tuple(sys_doc["dilation"]))
        system = SystemModel(
            kind=sys_doc["kind"], f=f, delayed_terms=gs,
            dilation=dilation, degree=degree,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"system: {exc}") from exc

    delay_doc = doc["delay"]
    if isinstance(delay_doc, list):
        if len(delay_doc) != len(gs):
            raise ConfigError(
                f"delay list has {len(delay_doc)} entries for {len(gs)} delayed terms"
            )
        delays = tuple(delay_from(d, f"delay[{q}]") for q, d in enumerate(delay_doc))
    else:
        delays = (delay_from(delay_doc),) * len(gs)
    for q, d in enumerate(delays):
        if d.is_discrete != system.is_discrete:
            raise ConfigError(f"delay[{q}] time kind does not match the system kind")

    hist_doc = _require_mapping(doc["initial_history"], "initial_history")
    if set(hist_doc) == {"constant"}:
        _check_history_rows([hist_doc["constant"]], system.n, "initial_history.constant")
    elif set(hist_doc) == {"table"}:
        table = _require_mapping(hist_doc["table"], "initial_history.table")
        _check_keys(table, {"times", "states"}, set(), "initial_history.table")
        times, states = table["times"], table["states"]
        if not (isinstance(times, list) and isinstance(states, list)) or len(times) != len(states):
            raise ConfigError("initial_history.table times and states must have equal length")
        _check_numbers(times, "initial_history.table.times")
        _check_history_rows(states, system.n, "initial_history.table.states row")
        try:
            tabulated_history(times, states)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"initial_history.table: {exc}") from exc
        if system.is_discrete and not all(float(t).is_integer() for t in times):
            raise ConfigError("initial_history.table times must be integers for a discrete system")
    else:
        raise ConfigError("initial_history must have exactly one of: constant, table")

    sim_doc = _require_mapping(doc["sim"], "sim")
    _check_keys(sim_doc, {"horizon"}, {"h"}, "sim")
    if system.is_discrete:
        if "h" in sim_doc:
            raise ConfigError("sim.h does not apply to discrete systems")
        sim = SimSettings(h=1.0, horizon=sim_doc["horizon"])
    else:
        if "h" not in sim_doc:
            raise ConfigError("sim.h is required for continuous systems")
        sim = SimSettings(h=sim_doc["h"], horizon=sim_doc["horizon"])

    ana_doc = _require_mapping(doc.get("analysis", {}), "analysis")
    _check_keys(ana_doc, set(), {"v", "gamma", "bounds"}, "analysis")
    v = ana_doc.get("v")
    if v is not None:
        if not isinstance(v, list) or len(v) != system.n:
            raise ConfigError(f"analysis.v must be a vector of length {system.n}")
        v = tuple(_finite(x, "analysis.v entry") for x in v)
    bounds = ana_doc.get("bounds", ["auto"])
    if not isinstance(bounds, list) or not all(b in KNOWN_BOUNDS for b in bounds):
        raise ConfigError(f"analysis.bounds must be a list of entries in {KNOWN_BOUNDS}, got {bounds!r}")
    gamma = _finite(ana_doc.get("gamma", 0.9), "analysis.gamma")
    if not 0.0 <= gamma < 1.0:
        raise ConfigError("analysis.gamma must lie in [0, 1)")
    analysis = AnalysisSettings(v=v, gamma=gamma, bounds=tuple(bounds))

    seed = doc.get("seed", 0)
    if not (_is_number(seed) and isinstance(seed, int)) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    return ExperimentConfig(
        system=system, delays=delays, history_doc=hist_doc, sim=sim, analysis=analysis, seed=seed,
    )
