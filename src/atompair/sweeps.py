"""Parameter sweeps: concurrence curves, evolution maxima, region maps.

A SweepSpec fixes the physics of a panel (initial state, polarisations,
bath modes) and the grid axes. Every run_* function goes through one
serial generator, ``_trajectories``, that sets up the exact trajectory of
each (cell, bath mode) in a fixed order, one ``kernels.TrajectoryStack``
per group of a fixed size. Each group is scanned on arrays in blocks of a
fixed size: curves sample it on the tau axis, event runs on the horizon
grid, and the flagged brackets of the whole group are then refined
together in one array pass (``kernels.events_kernel``). Block and group
sizes depend only on the grid lengths, so outputs are bit-identical from
run to run.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .coefficients import BathKind, DipoleOrientation, SystemParams, assemble
from .dynamics import XState, catalogue_state, prepare
from .entanglement import EVENT_FIELDS, EntanglementEvents, concurrence_x
from .errors import DomainError

AXIS_NAMES = ("a_over_omega", "omega_L", "p", "tau")
LABEL_NAMES = ("neither", "accelerated-only", "thermal-only", "both")

DEFAULT_HORIZON_TAU = 50.0
DEFAULT_HORIZON_SAMPLES = 400
_LOG_GRID_BETA = 6.0
# trajectories x samples scanned as one block: 16 trajectories on the
# default horizon grid. Larger blocks scan no faster and only grow the
# temporaries: an 800-trajectory block adds about 50 MB of peak RSS.
BLOCK_SAMPLES = 16 * DEFAULT_HORIZON_SAMPLES
# trajectories x horizon samples refined as one group: 128 trajectories on
# the default horizon grid. Each refinement step is one array evaluation
# for the whole group, and groups of 16 spend most of it in numpy's
# per-call overhead; a group keeps only its concurrence rows (0.4 MB).
REFINE_SAMPLES = 128 * DEFAULT_HORIZON_SAMPLES


def time_grid(stop: float, num: int, spacing: str = "log") -> np.ndarray:
    """Deterministic time grid on [0, stop]; "log" packs samples near 0."""
    if stop <= 0.0 or num < 2:
        raise DomainError("time grid needs stop > 0 and num >= 2")
    if spacing not in ("linear", "log"):
        raise DomainError(f"unknown spacing {spacing!r}")
    # a stop near the float limits rounds samples together or to inf; the
    # check below rejects both, so no overflow warning is shown
    with np.errstate(over="ignore", invalid="ignore"):
        if spacing == "linear":
            grid = np.linspace(0.0, stop, num)
        else:
            u = np.linspace(0.0, 1.0, num)
            grid = stop * np.expm1(_LOG_GRID_BETA * u) / np.expm1(_LOG_GRID_BETA)
        increasing = np.all(np.diff(grid) > 0.0)
    if not increasing:
        raise DomainError(f"{num} samples on [0, {stop}] do not increase strictly")
    return grid


@dataclass(frozen=True)
class SweepSpec:
    """One panel of a sweep: physics plus resolved grid axes.

    ``axes`` maps axis name to the tuple of grid values, in sweep order.
    The weight p of a psi1/psi2 family comes either with ``initial`` or from
    a "p" axis, never both; ``initial`` is None exactly when a "p" axis
    selects the weight of the family named by ``initial_label``.
    """

    label: str
    initial_label: str
    initial: XState | None
    dipole1: DipoleOrientation
    dipole2: DipoleOrientation
    bath_modes: tuple
    axes: tuple              # ((name, (values...)), ...)
    atom_order: int = 12
    event_kind: str = "revival"
    horizon_tau: float = DEFAULT_HORIZON_TAU
    horizon_samples: int = DEFAULT_HORIZON_SAMPLES
    # region maps count an event only above this concurrence scale; the
    # detector itself works at the 1e-12 threshold, which sits at the
    # propagator's noise floor and would pepper the map boundaries
    region_min_amplitude: float = 1e-3

    def __post_init__(self):
        if not self.bath_modes:
            raise DomainError("at least one bath mode is required")
        for mode in self.bath_modes:
            if not isinstance(mode, BathKind):
                raise DomainError(f"bath mode {mode!r} is not a BathKind")
        if self.atom_order not in (12, 21):
            raise DomainError(f"atom_order must be 12 or 21, got {self.atom_order}")
        if self.event_kind not in ("revival", "enhancement"):
            raise DomainError(f"event kind must be revival or enhancement, got {self.event_kind!r}")
        seen = set()
        for name, values in self.axes:
            if name not in AXIS_NAMES:
                raise DomainError(f"unknown axis {name!r}")
            if name in seen:
                raise DomainError(f"duplicate axis {name!r}")
            seen.add(name)
            if len(values) < 1:
                raise DomainError(f"axis {name!r} is empty")
            arr = np.asarray(values, dtype=float)
            if name == "tau":
                if len(values) < 2 or arr[0] != 0.0 or np.any(np.diff(arr) <= 0):
                    raise DomainError("tau axis must start at 0 and increase strictly")
            elif name == "omega_L":
                if np.any(arr <= 0.0):
                    raise DomainError("omega_L grid must exclude 0")
            elif name == "p":
                if np.any((arr <= 0.0) | (arr >= 1.0)):
                    raise DomainError("p grid must lie strictly inside (0, 1)")
            else:
                if np.any(arr < 0.0):
                    raise DomainError("a_over_omega grid must be >= 0")
        has_p_axis = any(name == "p" for name, _ in self.axes)
        if has_p_axis:
            if self.initial_label not in ("psi1", "psi2"):
                raise DomainError("a p axis requires a psi1/psi2 initial family")
            if self.initial is not None:
                raise DomainError("give p either per state or as a p axis, not both")
        elif self.initial is None:
            raise DomainError(f"{self.initial_label} needs p (or a p axis)")

    def axis(self, name):
        for axis_name, values in self.axes:
            if axis_name == name:
                return np.asarray(values, dtype=float)
        return None

    def cell_axes(self):
        return tuple((n, v) for n, v in self.axes if n != "tau")

    def cells(self):
        """Cartesian product over the non-time axes, in axis order."""
        names = [n for n, _ in self.cell_axes()]
        grids = [v for _, v in self.cell_axes()]
        if not names:
            return [{}]
        return [dict(zip(names, combo)) for combo in itertools.product(*grids)]

    def resolve_initial(self, cell) -> XState:
        if "p" in cell:
            return catalogue_state(self.initial_label, float(cell["p"]))
        return self.initial

    def horizon_grid(self) -> np.ndarray:
        return time_grid(self.horizon_tau, self.horizon_samples, "log")


def _require_axis(spec, name, minimum=2):
    values = spec.axis(name)
    if values is None or values.size < minimum:
        raise DomainError(f"this sweep needs a {name!r} axis with >= {minimum} points")
    return values


def _trajectories(spec, cells):
    """Yield one TrajectoryStack per group of (cell, bath mode) pairs, rows
    in order, modes innermost.

    A group holds REFINE_SAMPLES // spec.horizon_samples trajectories (at
    least one; the last group may hold fewer). Every cell carries every
    non-time axis, single-valued ones included.
    """
    _require_axis(spec, "a_over_omega", 1)
    _require_axis(spec, "omega_L", 1)
    size = max(1, REFINE_SAMPLES // spec.horizon_samples)
    group = []
    for cell in cells:
        initial = spec.resolve_initial(cell)
        for mode in spec.bath_modes:
            coeffs = assemble(SystemParams(cell["a_over_omega"], cell["omega_L"],
                                           spec.dipole1, spec.dipole2, mode),
                              spec.atom_order)
            group.append((initial, coeffs))
            if len(group) == size:
                yield prepare(group)
                group = []
    if group:
        yield prepare(group)


def _scan(stack, taus):
    """Yield (pops, C) of a stack on taus, BLOCK_SAMPLES samples at a time."""
    size = max(1, BLOCK_SAMPLES // taus.size)
    n = len(stack.p0)
    for start in range(0, n, size):
        yield kernels.trajectory_kernel(stack, np.arange(start, min(start + size, n)), taus)


def _event_rows(stack, taus):
    """Events rows of a stack: scanned in blocks, refined together."""
    C = np.concatenate([conc for _, conc in _scan(stack, taus)])
    return kernels.events_kernel(stack, taus, C)


# ---------------------------------------------------------------------------
# events / maxima over the evolution

@dataclass(frozen=True)
class EventsResult:
    cells: tuple
    modes: tuple
    table: np.ndarray   # (ncells, nmodes, len(EVENT_FIELDS)), rows laid out
                        # as EVENT_FIELDS

    def column(self, name: str) -> np.ndarray:
        """One field of every event row, shape (ncells, nmodes)."""
        return self.table[..., EVENT_FIELDS.index(name)]

    def events(self, cell_index: int, mode_index: int) -> EntanglementEvents:
        return EntanglementEvents.from_row(self.table[cell_index, mode_index])


def _events_result(spec, cells, rows):
    table = np.concatenate(rows).reshape(len(cells), len(spec.bath_modes), len(EVENT_FIELDS))
    return EventsResult(cells=tuple(cells), modes=spec.bath_modes, table=table)


def run_events(spec: SweepSpec) -> EventsResult:
    """Entanglement events for every cell and mode on the horizon grid.

    Trajectories are scanned in blocks of BLOCK_SAMPLES samples and
    refined in groups of REFINE_SAMPLES horizon samples, every flagged
    bracket of a group in one array pass. The max_concurrence and max_time
    columns are the maximum concurrence over the evolution and its time:
    the sampled maximum refined by golden section around the best sample,
    to ``kernels.REFINE_TOL`` in scaled time. Multi-bump trajectories are
    assumed to be sampled finely enough for the best sample to sit on the
    winning bump.
    """
    cells = spec.cells()
    taus = spec.horizon_grid()
    return _events_result(spec, cells, [_event_rows(stack, taus)
                                         for stack in _trajectories(spec, cells)])


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class CurveResult:
    times: np.ndarray
    cells: tuple                   # tuple of {axis: value} dicts
    modes: tuple
    concurrence: np.ndarray        # (ncells, nmodes, ntimes)
    populations: np.ndarray        # (ncells, nmodes, ntimes, 4)
    events: EventsResult | None = None


def run_curve(spec: SweepSpec, events: bool = False) -> CurveResult:
    """Concurrence and populations on the tau axis for every cell and mode.

    With ``events`` the result also carries ``run_events(spec)``, computed
    from the same trajectory stacks, so each generator is decomposed
    once for both grids.
    """
    taus = _require_axis(spec, "tau")
    horizon = spec.horizon_grid()
    cells = spec.cells()
    shape = (len(cells), len(spec.bath_modes), taus.size)
    conc = np.empty((shape[0] * shape[1], taus.size))
    pops = np.empty(conc.shape + (4,))
    rows = []
    start = 0
    for stack in _trajectories(spec, cells):
        for block_pops, block_conc in _scan(stack, taus):
            stop = start + len(block_conc)
            pops[start:stop], conc[start:stop] = block_pops, block_conc
            start = stop
        if events:
            rows.append(_event_rows(stack, horizon))
    return CurveResult(times=taus, cells=tuple(cells), modes=spec.bath_modes,
                       concurrence=conc.reshape(shape),
                       populations=pops.reshape(shape + (4,)),
                       events=_events_result(spec, cells, rows) if events else None)


# ---------------------------------------------------------------------------
# region maps

@dataclass(frozen=True)
class RegionMap:
    """Per-cell classification over the (a_over_omega, omega_L) grid."""

    a_values: np.ndarray
    L_values: np.ndarray
    labels: np.ndarray    # (na, nL) int8, indexes LABEL_NAMES
    criterion: str

    def counts(self) -> dict:
        return {name: int((self.labels == code).sum())
                for code, name in enumerate(LABEL_NAMES)}


def run_region_map(spec: SweepSpec) -> RegionMap:
    """Classify every (a, L) cell by which bath modes show the event.

    A revival counts when the detector flags it and the post-death
    concurrence exceeds ``spec.region_min_amplitude``; an enhancement
    counts when the maximum exceeds the initial concurrence by the same
    margin. This keeps the map at the scale of visible features instead of
    the detector's roundoff-level threshold.
    """
    modes = spec.bath_modes
    if (BathKind.ACCELERATED_VACUUM not in modes
            or BathKind.THERMAL_AT_UNRUH not in modes):
        raise DomainError("region maps need both bath modes")
    a_values = _require_axis(spec, "a_over_omega")
    L_values = _require_axis(spec, "omega_L")
    result = run_events(spec)
    floor = spec.region_min_amplitude
    if spec.event_kind == "enhancement":
        c0 = np.array([concurrence_x(spec.resolve_initial(cell))
                       for cell in result.cells])
        amp = np.where(result.column("enhancement") > 0.5,
                       result.column("max_concurrence") - c0[:, None], 0.0)
    else:
        amp = np.where(result.column("revival") > 0.5,
                       result.column("revival_amplitude"), 0.0)
    amp_a = amp[:, modes.index(BathKind.ACCELERATED_VACUUM)]
    amp_t = amp[:, modes.index(BathKind.THERMAL_AT_UNRUH)]
    # tie-to-agreement deadband: amplitudes within 10% below the floor are
    # below the map's amplitude resolution; a mode clearly above the floor
    # drags an almost-there partner along instead of minting a one-mode
    # sliver where the two amplitude contours nearly coincide
    hard_a = amp_a > floor
    hard_t = amp_t > floor
    soft_a = amp_a > 0.9 * floor
    soft_t = amp_t > 0.9 * floor
    both = (hard_a & soft_t) | (soft_a & hard_t)
    only_a = hard_a & ~soft_t
    only_t = hard_t & ~soft_a
    codes = np.where(both, 3, np.where(only_a, 1, np.where(only_t, 2, 0)))
    labels = codes.reshape(a_values.size, L_values.size).astype(np.int8)
    return RegionMap(a_values=a_values, L_values=L_values, labels=labels,
                     criterion=spec.event_kind)
