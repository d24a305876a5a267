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

Each axis must appear in exactly one of ``fixed``/``grid``. The atoms in
the other order are written as the swapped polarization pair. YAML 1.1
reads an exponent without a decimal point (``1e-4``) as text, so write
``1.0e-4``.
"""

import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import yaml

from .coefficients import BathKind, DipoleOrientation
from .errors import ConfigError, DomainError
from .sweeps import SweepSpec, time_grid

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
    unknown = sorted(set(value) - set(allowed), key=str)  # YAML keys may mix types
    if unknown:
        _fail(source, path, f"unknown keys {unknown}; allowed: {sorted(allowed)}")
    return value


def _expect_number(source, path, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(source, path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        _fail(source, path, f"must be finite, got {value!r}")
    return number


def _expect_int(source, path, value, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(source, path, f"expected an integer, got {value!r}")
    if value < minimum:
        _fail(source, path, f"must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (schema documented in the module)."""

    name: str
    source: str
    initial_states: tuple      # ((family, p or None), ...)
    polarizations: tuple       # ((DipoleOrientation, DipoleOrientation, label), ...)
    bath_modes: tuple
    fixed: dict                # axis -> tuple of values
    grid: dict                 # axis -> resolved tuple of values
    outputs: tuple
    event_kind: str
    raw: dict = field(default_factory=dict, repr=False)

    def axis_values(self, axis: str):
        if axis in self.fixed:
            return self.fixed[axis]
        return self.grid.get(axis)

    def sweep_specs(self, command: str):
        """Expand into one (label, SweepSpec) panel per initial state x
        polarization for the given subcommand. SweepSpec owns the rules
        that tie an initial state to the p axis; a breach names the entry.
        The label is the panel's file stem, so two entries that share one
        are rejected."""
        self.check_command(command)
        axes = []
        for axis in _PHYSICAL_AXES:
            values = self.axis_values(axis)
            if values is not None:
                axes.append((axis, values))
        if command == "evolve":
            axes.append(("tau", self.grid["tau"]))
        specs = []
        entries = {}
        for k, (family, p) in enumerate(self.initial_states):
            state_label = family if p is None else f"{family}-{p:g}"
            for j, (d1, d2, pol_label) in enumerate(self.polarizations):
                label = f"{state_label}_{pol_label}"
                entry = f"initial_states[{k}] x polarizations[{j}]"
                if label in entries:
                    _fail(self.source, entry,
                          f"panel {label!r} is already given by {entries[label]}")
                entries[label] = entry
                try:
                    spec = SweepSpec(
                        label=f"{self.name}_{label}",
                        initial_label=family, p=p,
                        dipole1=d1, dipole2=d2,
                        bath_modes=self.bath_modes,
                        axes=tuple(axes),
                        event_kind=self.event_kind)
                except DomainError as exc:
                    _fail(self.source, f"initial_states[{k}]", str(exc))
                specs.append((label, spec))
        return specs

    def check_command(self, command: str):
        src = self.source
        if command not in COMMANDS:
            _fail(src, "command", f"unknown command {command!r}")
        if command == "coeffs":
            return
        if not self.initial_states:
            _fail(src, "initial_states", f"required for `{command}`")
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
            if "p" in self.grid:
                _fail(src, "grid.p", "`region` maps the (a, L) plane; give p per initial state")
            if set(self.bath_modes) != set(BathKind):
                _fail(src, "bath_modes", "`region` needs both bath modes")


def _parse_initial_state(source, path, entry):
    if isinstance(entry, str):
        if entry in _STATE_NAMES + ("psi1", "psi2"):
            return entry, None  # a psi family takes p from a grid axis
        _fail(source, path, f"unknown state {entry!r}; use G/A/S/E or psi1/psi2")
    if isinstance(entry, dict):
        _expect_mapping(source, path, entry, ("family", "p"))
        family = entry.get("family")
        if family not in ("psi1", "psi2"):
            _fail(source, f"{path}.family", f"must be psi1 or psi2, got {family!r}")
        p = entry.get("p")
        if p is None:
            return family, None
        p = _expect_number(source, f"{path}.p", p)
        if not 0.0 < p < 1.0:
            _fail(source, f"{path}.p", f"must lie in (0, 1), got {p}")
        return family, p
    _fail(source, path, f"expected a state name or mapping, got {entry!r}")


def _parse_dipole(source, path, entry):
    if isinstance(entry, str):
        if entry not in _AXIS_LETTERS:
            _fail(source, path, f"axis letter must be x/y/z, got {entry!r}")
        return DipoleOrientation.from_axis(entry), entry
    if isinstance(entry, (list, tuple)) and len(entry) == 3:
        vec = [_expect_number(source, f"{path}[{k}]", v) for k, v in enumerate(entry)]
        if all(v == 0.0 for v in vec):
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
        num = _expect_int(source, f"{path}.num", body.get("num", 400), 2)
        try:
            return tuple(time_grid(stop, num, body.get("spacing", "log")))
        except DomainError as exc:
            _fail(source, path, str(exc))
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
             "fixed", "grid", "outputs", "events")


def parse_config(data: dict, source: str = "<config>") -> RunConfig:
    """Validate a parsed YAML document and build a RunConfig."""
    _expect_mapping(source, "top level", data, _TOP_KEYS)

    name = data.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        _fail(source, "name", f"required, filename-safe string; got {name!r}")
    if not isinstance(data.get("title", ""), str):   # kept in meta.json through raw
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
        kind = _MODE_BY_NAME.get(entry) if isinstance(entry, str) else None
        if kind is None:
            _fail(source, f"bath_modes[{k}]",
                  f"must be one of {sorted(_MODE_BY_NAME)}, got {entry!r}")
        if kind in modes:
            _fail(source, f"bath_modes[{k}]", f"duplicate mode {entry!r}")
        modes.append(kind)

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
                                  ("kind",))
    event_kind = events_body.get("kind", "revival")
    if event_kind not in ("revival", "enhancement"):
        _fail(source, "events.kind", f"must be revival or enhancement, got {event_kind!r}")

    return RunConfig(
        name=name, source=source,
        initial_states=initial_states,
        polarizations=tuple(polarizations),
        bath_modes=tuple(modes),
        fixed=fixed, grid=grid,
        outputs=tuple(outputs),
        event_kind=event_kind,
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
    except ValueError as exc:  # e.g. an integer literal beyond int() limits
        raise ConfigError(f"{path}: unreadable value: {exc}") from exc
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
