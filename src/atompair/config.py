"""Run configuration: YAML schema, validation, expansion into sweep specs.

A config file is a nested key-value document; unknown keys are rejected
with their full path, and every physical validity rule is re-checked at
parse time, before any computation. One preset file per reproduced figure
ships under ``atompair/presets``.

Schema (defaults in parentheses):

    name: fig7                      # required, filename-safe
    title: free text                # optional
    initial_states:                 # required except for `coeffs`
      - S                           # G | A | S | E
      - {family: psi1, p: 0.25}     # psi1/psi2 need p unless a p grid axis exists
    polarizations:                  # required; entries are pairs
      - [z, x]                      # axis letters or unit 3-vectors
    bath_modes: [accelerated, thermal]   # (both)
    atom_order: 12                  # (12) or 21
    fixed:                          # scalar or list per axis
      a_over_omega: [0.25, 1.0]
      omega_L: 1.0
    grid:                           # swept ranges and the time axis
      tau: {stop: 8.0, num: 400, spacing: log}   # spacing: log|linear (log)
      a_over_omega: {start: 0.015, stop: 3.0, num: 200}
      omega_L: {start: 0.025, stop: 5.0, num: 200}
      p: {start: 0.05, stop: 0.95, num: 19}
    outputs: [curve, events]        # curve | events | max_concurrence | region
    events:
      kind: revival                 # (revival) | enhancement
      min_amplitude: 1.0e-3         # (1e-3) region visibility floor
    horizon:
      tau_max: 50.0                 # (50.0) event-detection window
      samples: 400                  # (400)

Each axis must appear in exactly one of ``fixed``/``grid``.
"""

import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import yaml

from .coefficients import BathKind, DipoleOrientation
from .dynamics import XState, catalogue_state
from .errors import ConfigError
from .sweeps import (DEFAULT_HORIZON_SAMPLES, DEFAULT_HORIZON_TAU, SweepSpec,
                     time_grid)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
_STATE_NAMES = ("G", "A", "S", "E")
_AXIS_LETTERS = ("x", "y", "z")
_MODE_BY_NAME = {kind.value: kind for kind in BathKind}
_PHYSICAL_AXES = ("a_over_omega", "omega_L", "p")
_OUTPUTS = ("curve", "events", "max_concurrence", "region")

COMMANDS = ("coeffs", "evolve", "sweep", "region")


def _fail(source, path, message):
    raise ConfigError(f"{source}: {path}: {message}")


def _expect_mapping(source, path, value, allowed):
    if not isinstance(value, dict):
        _fail(source, path, f"expected a mapping, got {type(value).__name__}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        _fail(source, path, f"unknown keys {unknown}; allowed: {sorted(allowed)}")
    return value


def _expect_number(source, path, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(source, path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        _fail(source, path, f"must be finite, got {value!r}")
    return float(value)


def _expect_int(source, path, value, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(source, path, f"expected an integer, got {value!r}")
    if value < minimum:
        _fail(source, path, f"must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class InitialStateSpec:
    """One entry of initial_states: a named state or a psi family."""

    family: str
    p: float | None = None

    @property
    def label(self) -> str:
        if self.p is None:
            return self.family
        return f"{self.family}-{self.p:g}"

    def resolve(self) -> XState | None:
        if self.family in _STATE_NAMES:
            return catalogue_state(self.family)
        if self.p is None:
            return None  # weight supplied by a p grid axis
        return catalogue_state(self.family, self.p)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (schema documented in the module)."""

    name: str
    source: str
    initial_states: tuple
    polarizations: tuple       # ((DipoleOrientation, DipoleOrientation, label), ...)
    bath_modes: tuple
    atom_order: int
    fixed: dict                # axis -> tuple of values
    grid: dict                 # axis -> resolved tuple of values
    outputs: tuple
    event_kind: str
    event_min_amplitude: float
    horizon_tau: float
    horizon_samples: int
    title: str = ""
    raw: dict = field(default_factory=dict, repr=False)

    def axis_values(self, axis: str):
        if axis in self.fixed:
            return self.fixed[axis]
        return self.grid.get(axis)

    def panels(self):
        """(label, initial_spec, dipole pair) per initial state x polarization."""
        out = []
        for ini in self.initial_states:
            for d1, d2, pol_label in self.polarizations:
                out.append((f"{ini.label}_{pol_label}", ini, (d1, d2)))
        return out

    def sweep_specs(self, command: str):
        """Expand into one SweepSpec per panel for the given subcommand."""
        self.check_command(command)
        axes = []
        for axis in _PHYSICAL_AXES:
            values = self.axis_values(axis)
            if values is not None:
                axes.append((axis, values))
        if command == "evolve":
            axes.append(("tau", self.grid["tau"]))
        specs = []
        for label, ini, (d1, d2) in self.panels():
            specs.append((label, SweepSpec(
                label=f"{self.name}_{label}",
                initial_label=ini.family,
                initial=ini.resolve(),
                dipole1=d1, dipole2=d2,
                bath_modes=self.bath_modes,
                axes=tuple(axes),
                outputs=self.outputs,
                atom_order=self.atom_order,
                event_kind=self.event_kind,
                horizon_tau=self.horizon_tau,
                horizon_samples=self.horizon_samples,
                region_min_amplitude=self.event_min_amplitude)))
        return specs

    def check_command(self, command: str):
        src = self.source
        if command not in COMMANDS:
            _fail(src, "command", f"unknown command {command!r}")
        if command == "coeffs":
            return
        if not self.initial_states:
            _fail(src, "initial_states", f"required for `{command}`")
        has_p_axis = "p" in self.grid
        for ini in self.initial_states:
            if ini.family in _STATE_NAMES:
                if has_p_axis:
                    _fail(src, "initial_states",
                          "a p grid axis needs psi1/psi2 family entries")
            elif ini.p is None and not has_p_axis:
                _fail(src, "initial_states",
                      f"{ini.family} needs p (or a p grid axis)")
            elif ini.p is not None and has_p_axis:
                _fail(src, "initial_states",
                      "give p either per state or as a grid axis, not both")
        if command == "evolve":
            if "curve" not in self.outputs:
                _fail(src, "outputs", "`evolve` needs the curve output")
            if "tau" not in self.grid:
                _fail(src, "grid.tau", "`evolve` needs a tau grid")
        if command == "sweep":
            if "max_concurrence" not in self.outputs:
                _fail(src, "outputs", "`sweep` needs the max_concurrence output")
            swept = [axis for axis in _PHYSICAL_AXES
                     if axis in self.grid and len(self.grid[axis]) > 1]
            if len(swept) != 1:
                _fail(src, "grid", "`sweep` needs exactly one swept physical axis")
        if command == "region":
            if "region" not in self.outputs:
                _fail(src, "outputs", "`region` needs the region output")
            for axis in ("a_over_omega", "omega_L"):
                if axis not in self.grid or len(self.grid[axis]) < 2:
                    _fail(src, f"grid.{axis}", "`region` needs a swept range here")
            if set(self.bath_modes) != set(BathKind):
                _fail(src, "bath_modes", "`region` needs both bath modes")


def _parse_initial_state(source, path, entry):
    if isinstance(entry, str):
        if entry in _STATE_NAMES:
            return InitialStateSpec(family=entry)
        if entry in ("psi1", "psi2"):
            return InitialStateSpec(family=entry)  # p comes from a grid axis
        _fail(source, path, f"unknown state {entry!r}; use G/A/S/E or psi1/psi2")
    if isinstance(entry, dict):
        _expect_mapping(source, path, entry, ("family", "p"))
        family = entry.get("family")
        if family not in ("psi1", "psi2"):
            _fail(source, f"{path}.family", f"must be psi1 or psi2, got {family!r}")
        p = entry.get("p")
        if p is None:
            return InitialStateSpec(family=family)
        p = _expect_number(source, f"{path}.p", p)
        if not 0.0 < p < 1.0:
            _fail(source, f"{path}.p", f"must lie in (0, 1), got {p}")
        return InitialStateSpec(family=family, p=p)
    _fail(source, path, f"expected a state name or mapping, got {entry!r}")


def _parse_dipole(source, path, entry):
    if isinstance(entry, str):
        if entry not in _AXIS_LETTERS:
            _fail(source, path, f"axis letter must be x/y/z, got {entry!r}")
        return DipoleOrientation.from_axis(entry), entry
    if isinstance(entry, (list, tuple)) and len(entry) == 3:
        vec = [_expect_number(source, f"{path}[{k}]", v) for k, v in enumerate(entry)]
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            _fail(source, path, "zero dipole vector")
        return DipoleOrientation.normalized(vec), "v"
    _fail(source, path, f"expected an axis letter or a 3-vector, got {entry!r}")


def _parse_values(source, path, entry, minimum, allow_equal=False):
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        values = (_expect_number(source, path, entry),)
    elif isinstance(entry, list) and entry:
        values = tuple(_expect_number(source, f"{path}[{k}]", v)
                       for k, v in enumerate(entry))
    else:
        _fail(source, path, f"expected a number or nonempty list, got {entry!r}")
    for v in values:
        if v < minimum or (v == minimum and not allow_equal):
            cmp = ">=" if allow_equal else ">"
            _fail(source, path, f"values must be {cmp} {minimum}, got {v}")
    return values


def _parse_range(source, path, axis, entry):
    if axis == "tau":
        body = _expect_mapping(source, path, entry, ("stop", "num", "spacing"))
        stop = _expect_number(source, f"{path}.stop", body.get("stop"))
        if stop <= 0.0:
            _fail(source, f"{path}.stop", "must be > 0")
        num = _expect_int(source, f"{path}.num", body.get("num", 400), 2)
        spacing = body.get("spacing", "log")
        if spacing not in ("log", "linear"):
            _fail(source, f"{path}.spacing", f"must be log or linear, got {spacing!r}")
        return tuple(time_grid(stop, num, spacing))
    body = _expect_mapping(source, path, entry, ("start", "stop", "num"))
    start = _expect_number(source, f"{path}.start", body.get("start"))
    stop = _expect_number(source, f"{path}.stop", body.get("stop"))
    num = _expect_int(source, f"{path}.num", body.get("num"), 2)
    if axis == "a_over_omega":
        if start < 0.0:
            _fail(source, f"{path}.start", "must be >= 0")
    elif start <= 0.0:
        _fail(source, f"{path}.start", "must be > 0")
    if stop <= start:
        _fail(source, f"{path}.stop", "must exceed start")
    if axis == "p" and stop >= 1.0:
        _fail(source, f"{path}.stop", "p must stay below 1")
    return tuple(np.linspace(start, stop, num))


_TOP_KEYS = ("name", "title", "initial_states", "polarizations", "bath_modes",
             "atom_order", "fixed", "grid", "outputs", "events", "horizon")


def parse_config(data: dict, source: str = "<config>") -> RunConfig:
    """Validate a parsed YAML document and build a RunConfig."""
    _expect_mapping(source, "top level", data, _TOP_KEYS)

    name = data.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        _fail(source, "name", f"required, filename-safe string; got {name!r}")
    title = data.get("title", "")
    if not isinstance(title, str):
        _fail(source, "title", "must be a string")

    state_entries = data.get("initial_states")
    if state_entries is None:
        state_entries = []
    if not isinstance(state_entries, list):
        _fail(source, "initial_states", f"expected a list of states, got {state_entries!r}")
    initial_states = tuple(
        _parse_initial_state(source, f"initial_states[{k}]", entry)
        for k, entry in enumerate(state_entries))

    pol_entries = data.get("polarizations")
    if not isinstance(pol_entries, list) or not pol_entries:
        _fail(source, "polarizations", "required nonempty list of pairs")
    polarizations = []
    for k, pair in enumerate(pol_entries):
        path = f"polarizations[{k}]"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            _fail(source, path, f"expected a pair, got {pair!r}")
        d1, l1 = _parse_dipole(source, f"{path}[0]", pair[0])
        d2, l2 = _parse_dipole(source, f"{path}[1]", pair[1])
        label = l1 + l2 if "v" not in (l1, l2) else f"pol{k}"
        polarizations.append((d1, d2, label))

    mode_names = data.get("bath_modes", ["accelerated", "thermal"])
    if not isinstance(mode_names, list) or not mode_names:
        _fail(source, "bath_modes", "must be a nonempty list")
    modes = []
    for k, entry in enumerate(mode_names):
        kind = _MODE_BY_NAME.get(entry)
        if kind is None:
            _fail(source, f"bath_modes[{k}]",
                  f"must be one of {sorted(_MODE_BY_NAME)}, got {entry!r}")
        if kind in modes:
            _fail(source, f"bath_modes[{k}]", f"duplicate mode {entry!r}")
        modes.append(kind)

    atom_order = data.get("atom_order", 12)
    if atom_order not in (12, 21):
        _fail(source, "atom_order", f"must be 12 or 21, got {atom_order!r}")

    fixed_body = _expect_mapping(source, "fixed", data.get("fixed", {}) or {},
                                 ("a_over_omega", "omega_L"))
    fixed = {}
    if "a_over_omega" in fixed_body:
        fixed["a_over_omega"] = _parse_values(
            source, "fixed.a_over_omega", fixed_body["a_over_omega"], 0.0, True)
    if "omega_L" in fixed_body:
        fixed["omega_L"] = _parse_values(
            source, "fixed.omega_L", fixed_body["omega_L"], 0.0, False)

    grid_body = _expect_mapping(source, "grid", data.get("grid", {}) or {},
                                ("tau", "a_over_omega", "omega_L", "p"))
    grid = {}
    for axis, entry in grid_body.items():
        if axis in fixed:
            _fail(source, f"grid.{axis}", "axis already given under fixed")
        grid[axis] = _parse_range(source, f"grid.{axis}", axis, entry)

    for axis in ("a_over_omega", "omega_L"):
        if axis not in fixed and axis not in grid:
            _fail(source, axis, "must be given under fixed or grid")

    outputs_entry = data.get("outputs")
    if not isinstance(outputs_entry, list) or not outputs_entry:
        _fail(source, "outputs", f"required nonempty list from {list(_OUTPUTS)}")
    outputs = []
    for k, entry in enumerate(outputs_entry):
        if entry not in _OUTPUTS:
            _fail(source, f"outputs[{k}]", f"unknown output {entry!r}")
        if entry in outputs:
            _fail(source, f"outputs[{k}]", f"duplicate output {entry!r}")
        outputs.append(entry)

    events_body = _expect_mapping(source, "events", data.get("events", {}) or {},
                                  ("kind", "min_amplitude"))
    event_kind = events_body.get("kind", "revival")
    if event_kind not in ("revival", "enhancement"):
        _fail(source, "events.kind", f"must be revival or enhancement, got {event_kind!r}")
    min_amp = _expect_number(source, "events.min_amplitude",
                             events_body.get("min_amplitude", 1e-3))
    if min_amp <= 0.0:
        _fail(source, "events.min_amplitude", "must be > 0")

    horizon_body = _expect_mapping(source, "horizon", data.get("horizon", {}) or {},
                                   ("tau_max", "samples"))
    horizon_tau = _expect_number(source, "horizon.tau_max",
                                 horizon_body.get("tau_max", DEFAULT_HORIZON_TAU))
    if horizon_tau <= 0.0:
        _fail(source, "horizon.tau_max", "must be > 0")
    horizon_samples = _expect_int(source, "horizon.samples",
                                  horizon_body.get("samples", DEFAULT_HORIZON_SAMPLES), 2)

    return RunConfig(
        name=name, source=source, title=title,
        initial_states=initial_states,
        polarizations=tuple(polarizations),
        bath_modes=tuple(modes),
        atom_order=atom_order,
        fixed=fixed, grid=grid,
        outputs=tuple(outputs),
        event_kind=event_kind,
        event_min_amplitude=min_amp,
        horizon_tau=horizon_tau,
        horizon_samples=horizon_samples,
        raw=data)


def load_config(path) -> RunConfig:
    """Parse and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if data is None:
        raise ConfigError(f"{path}: empty config")
    return parse_config(data, source=str(path))


def preset_names() -> list:
    files = resources.files("atompair").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> RunConfig:
    """Load one of the shipped figure presets by name (e.g. "fig7")."""
    candidate = resources.files("atompair").joinpath("presets", f"{name}.yaml")
    if not candidate.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    data = yaml.safe_load(candidate.read_text(encoding="utf-8"))
    return parse_config(data, source=f"preset:{name}")
