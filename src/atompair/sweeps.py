"""Parameter sweeps: concurrence curves, evolution maxima, region maps.

A SweepSpec fixes the physics of a panel (initial state, polarisations,
bath modes) and the grid axes; a result holds only what its run computed,
cells and modes in the order of the spec's ``cells()`` and ``bath_modes``.
Every run_* function goes through one serial generator, ``_trajectories``,
that sets up a group of cells of a fixed size on arrays, every (cell, bath
mode) in a fixed order, as one ``kernels.TrajectoryStack``. Each group is
scanned on arrays in blocks of a fixed size: curves sample it on the tau
axis, event runs on the horizon grid, and the flagged brackets of the whole
group are then refined together in one array pass (``kernels.events_kernel``).
Group sizes are fixed and block sizes depend only on the tau axis length, so
outputs are bit-identical from run to run.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .coefficients import BathKind, DipoleOrientation, check_coefficients
from .dynamics import XState, catalogue_state, state_rows
from .entanglement import EVENT_FIELDS, concurrence_x
from .errors import DomainError

AXIS_NAMES = ("a_over_omega", "omega_L", "p", "tau")
LABEL_NAMES = ("neither", "accelerated-only", "thermal-only", "both")

HORIZON_TAU = 50.0       # event-detection window
HORIZON_SAMPLES = 400
_LOG_GRID_BETA = 6.0
# trajectories x samples scanned as one block: 16 trajectories on the
# horizon grid. Each call evaluates every sample of the block, so
# numpy's per-call overhead is already small; larger blocks scan no faster
# and only grow the temporaries (800 trajectories add about 50 MB of RSS).
BLOCK_SAMPLES = 16 * HORIZON_SAMPLES
# trajectories refined as one group. A refinement step evaluates one
# sample per bracket, so small groups pay numpy's per-call overhead:
# against 128, 512 halves the refinement time of sweep fig4 (375 -> 112
# calls) for 4 MB more peak RSS (39.8 -> 43.8 MB); a group keeps only its
# concurrence rows (1.6 MB).
REFINE_TRAJECTORIES = 512
# region maps count an event only above this concurrence scale; the
# detector itself works at the 1e-12 threshold, which sits at the
# propagator's noise floor and would pepper the map boundaries
REGION_MIN_AMPLITUDE = 1e-3


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


HORIZON = time_grid(HORIZON_TAU, HORIZON_SAMPLES)


@dataclass(frozen=True)
class SweepSpec:
    """One panel of a sweep: physics plus resolved grid axes.

    ``axes`` maps axis name to the tuple of grid values, in sweep order.
    ``initial_label`` names a catalogue state; the weight of a psi1/psi2
    family comes either as ``p`` or from a "p" axis, never both.
    """

    label: str
    initial_label: str
    p: float | None
    dipole1: DipoleOrientation
    dipole2: DipoleOrientation
    bath_modes: tuple
    axes: tuple              # ((name, (values...)), ...)
    event_kind: str = "revival"

    def __post_init__(self):
        if not self.bath_modes:
            raise DomainError("at least one bath mode is required")
        for mode in self.bath_modes:
            if not isinstance(mode, BathKind):
                raise DomainError(f"bath mode {mode!r} is not a BathKind")
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
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"axis {name!r} values must be finite")
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
            if self.p is not None:
                raise DomainError("give p either per state or as a p axis, not both")
        elif self.p is None and self.initial_label in ("psi1", "psi2"):
            raise DomainError(f"{self.initial_label} needs p (or a p axis)")
        else:
            self.resolve_initial({})   # an unknown label fails here

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
        return [dict(zip(names, combo)) for combo in itertools.product(*grids)]

    def resolve_initial(self, cell) -> XState:
        return catalogue_state(self.initial_label, float(cell["p"]) if "p" in cell else self.p)


def _require_axis(spec, name, minimum=2):
    values = spec.axis(name)
    if values is None or values.size < minimum:
        raise DomainError(f"this sweep needs a {name!r} axis with >= {minimum} points")
    return values


def _trajectories(spec, cells):
    """Yield one TrajectoryStack per group of cells, rows in order, bath
    modes innermost: REFINE_TRAJECTORIES // len(modes) cells a group (at
    least one; the last may hold fewer), set up by one
    ``kernels.assemble_kernel`` call per mode on the group's (a, L) arrays
    and one ``check_coefficients``. Every cell carries every non-time axis.
    The atoms are taken in the order 12: the order 21 of a polarization
    pair is the order 12 of the swapped pair.
    """
    _require_axis(spec, "a_over_omega", 1)
    _require_axis(spec, "omega_L", 1)
    nmodes = len(spec.bath_modes)
    size = max(1, REFINE_TRAJECTORIES // nmodes)
    d1, d2 = spec.dipole1.as_array(), spec.dipole2.as_array()
    for start in range(0, len(cells), size):
        group = cells[start:start + size]
        a = np.array([cell["a_over_omega"] for cell in group])
        L = np.array([cell["omega_L"] for cell in group])
        coeffs = np.stack([np.stack(kernels.assemble_kernel(
            a, L, d1, d2, mode is BathKind.THERMAL_AT_UNRUH, False), axis=1)
            for mode in spec.bath_modes], axis=1).reshape(-1, 4)
        check_coefficients(coeffs)
        p0, coherences = state_rows([spec.resolve_initial(cell) for cell in group])
        yield kernels.TrajectoryStack(coeffs, np.repeat(p0, nmodes, axis=0),
                                      np.repeat(coherences, nmodes, axis=0))


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
    table: np.ndarray   # (ncells, nmodes, len(EVENT_FIELDS)), rows laid out
                        # as EVENT_FIELDS (EntanglementEvents.from_row reads one)

    def column(self, name: str) -> np.ndarray:
        """One field of every event row, shape (ncells, nmodes)."""
        return self.table[..., EVENT_FIELDS.index(name)]


def _events_result(spec, ncells, rows):
    table = np.concatenate(rows).reshape(ncells, len(spec.bath_modes), len(EVENT_FIELDS))
    return EventsResult(table)


def run_events(spec: SweepSpec) -> EventsResult:
    """Entanglement events for every cell and mode on the HORIZON grid.

    Trajectories are scanned in blocks of BLOCK_SAMPLES samples and
    refined in groups of REFINE_TRAJECTORIES trajectories, every flagged
    bracket of a group in one array pass. The max_concurrence and max_time
    columns are the maximum concurrence over the evolution and its time:
    the sampled maximum refined by golden section around the best sample,
    to ``kernels.REFINE_TOL`` in scaled time. Multi-bump trajectories are
    assumed to be sampled finely enough for the best sample to sit on the
    winning bump.
    """
    cells = spec.cells()
    return _events_result(spec, len(cells), [_event_rows(stack, HORIZON)
                                              for stack in _trajectories(spec, cells)])


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class CurveResult:
    concurrence: np.ndarray        # (ncells, nmodes, ntimes), ntimes on the tau axis
    populations: np.ndarray        # (ncells, nmodes, ntimes, 4)
    events: EventsResult | None = None


def run_curve(spec: SweepSpec, events: bool = False) -> CurveResult:
    """Concurrence and populations on the tau axis for every cell and mode.

    With ``events`` the result also carries ``run_events(spec)``, computed
    from the same trajectory stacks, so each generator is decomposed
    once for both grids.
    """
    taus = _require_axis(spec, "tau")
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
            rows.append(_event_rows(stack, HORIZON))
    return CurveResult(concurrence=conc.reshape(shape),
                       populations=pops.reshape(shape + (4,)),
                       events=_events_result(spec, shape[0], rows) if events else None)


# ---------------------------------------------------------------------------
# region maps

@dataclass(frozen=True)
class RegionMap:
    """Per-cell classification over the (a_over_omega, omega_L) grid."""

    labels: np.ndarray    # (na, nL) int8, indexes LABEL_NAMES

    def counts(self) -> dict:
        return {name: int((self.labels == code).sum())
                for code, name in enumerate(LABEL_NAMES)}


def run_region_map(spec: SweepSpec) -> RegionMap:
    """Classify every (a, L) cell by which bath modes show the event.

    A revival counts when the detector flags it and the post-death
    concurrence exceeds REGION_MIN_AMPLITUDE; an enhancement
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
    if [name for name, _ in spec.cell_axes()] != ["a_over_omega", "omega_L"]:
        raise DomainError("region maps take the cells of an a_over_omega x omega_L grid, in that order")
    result = run_events(spec)
    floor = REGION_MIN_AMPLITUDE
    if spec.event_kind == "enhancement":
        c0 = np.array([concurrence_x(spec.resolve_initial(cell))
                       for cell in spec.cells()])
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
    return RegionMap(codes.reshape(a_values.size, L_values.size).astype(np.int8))
