"""Parameter sweeps: concurrence curves, evolution maxima, region maps.

A SweepSpec fixes the physics of a panel (initial state, polarisations,
bath modes) and the grid axes. Every run_* function goes through one
serial loop, ``_trajectories``, that prepares the exact trajectory of each
(cell, bath mode) in turn; curves sample it on the tau axis, event runs
scan it on the horizon grid. Cells run one at a time in a fixed order, so
outputs are bit-identical from run to run.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .coefficients import BathKind, CoefficientSet, DipoleOrientation
from .dynamics import XState, catalogue_state, prepare
from .entanglement import EntanglementEvents, concurrence_x
from .errors import DomainError

AXIS_NAMES = ("a_over_omega", "omega_L", "p", "tau")
OUTPUT_KINDS = ("curve", "events", "max_concurrence", "region")
LABEL_NAMES = ("neither", "accelerated-only", "thermal-only", "both")

DEFAULT_HORIZON_TAU = 50.0
DEFAULT_HORIZON_SAMPLES = 400
_LOG_GRID_BETA = 6.0


def time_grid(stop: float, num: int, spacing: str = "log") -> np.ndarray:
    """Deterministic time grid on [0, stop]; "log" packs samples near 0."""
    if stop <= 0.0 or num < 2:
        raise DomainError("time grid needs stop > 0 and num >= 2")
    if spacing == "linear":
        return np.linspace(0.0, stop, num)
    if spacing == "log":
        u = np.linspace(0.0, 1.0, num)
        return stop * np.expm1(_LOG_GRID_BETA * u) / np.expm1(_LOG_GRID_BETA)
    raise DomainError(f"unknown spacing {spacing!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One panel of a sweep: physics plus resolved grid axes.

    ``axes`` maps axis name to the tuple of grid values, in sweep order.
    ``initial`` may be None only when a "p" axis selects the weight of the
    psi1/psi2 family named by ``initial_label``.
    """

    label: str
    initial_label: str
    initial: XState | None
    dipole1: DipoleOrientation
    dipole2: DipoleOrientation
    bath_modes: tuple
    axes: tuple              # ((name, (values...)), ...)
    outputs: tuple
    atom_order: int = 12
    event_kind: str = "revival"
    horizon_tau: float = DEFAULT_HORIZON_TAU
    horizon_samples: int = DEFAULT_HORIZON_SAMPLES
    refine_tol: float = 1e-6
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
        for kind in self.outputs:
            if kind not in OUTPUT_KINDS:
                raise DomainError(f"unknown output kind {kind!r}")
        has_p_axis = any(name == "p" for name, _ in self.axes)
        if has_p_axis:
            if self.initial_label not in ("psi1", "psi2"):
                raise DomainError("a p axis requires a psi1/psi2 initial family")
        elif self.initial is None:
            raise DomainError("initial state missing and no p axis given")

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
    """Yield (cell index, mode index, prepared trajectory), modes innermost.

    Every cell carries every non-time axis, single-valued ones included.
    """
    _require_axis(spec, "a_over_omega", 1)
    _require_axis(spec, "omega_L", 1)
    d1 = spec.dipole1.as_array()
    d2 = spec.dipole2.as_array()
    for ci, cell in enumerate(cells):
        initial = spec.resolve_initial(cell)
        for mi, mode in enumerate(spec.bath_modes):
            coeffs = CoefficientSet(*kernels.assemble_kernel(
                cell["a_over_omega"], cell["omega_L"], d1, d2,
                mode is BathKind.THERMAL_AT_UNRUH, spec.atom_order == 21))
            yield ci, mi, prepare(initial, coeffs)


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class CurveResult:
    spec: SweepSpec
    times: np.ndarray
    cells: tuple                   # tuple of {axis: value} dicts
    modes: tuple
    concurrence: np.ndarray        # (ncells, nmodes, ntimes)
    populations: np.ndarray        # (ncells, nmodes, ntimes, 4)


def run_curve(spec: SweepSpec) -> CurveResult:
    """Concurrence and populations on the tau axis for every cell and mode."""
    if "curve" not in spec.outputs:
        raise DomainError("spec.outputs does not request a curve")
    taus = _require_axis(spec, "tau")
    cells = spec.cells()
    conc = np.empty((len(cells), len(spec.bath_modes), taus.size))
    pops = np.empty(conc.shape + (4,))
    for ci, mi, traj in _trajectories(spec, cells):
        pops[ci, mi], conc[ci, mi] = kernels.trajectory_kernel(traj, taus)
    return CurveResult(spec=spec, times=taus, cells=tuple(cells),
                       modes=spec.bath_modes, concurrence=conc, populations=pops)


# ---------------------------------------------------------------------------
# events / maxima over the evolution

@dataclass(frozen=True)
class EventsResult:
    spec: SweepSpec
    cells: tuple
    modes: tuple
    table: np.ndarray   # (ncells, nmodes, 7): death, birth, revival, enh,
                        # maxC, maxT, revival_amplitude

    def events(self, cell_index: int, mode_index: int) -> EntanglementEvents:
        return EntanglementEvents.from_row(self.table[cell_index, mode_index])


def run_events(spec: SweepSpec) -> EventsResult:
    """Entanglement events for every cell and mode on the horizon grid.

    Table columns 4 and 5 are the maximum concurrence over the evolution
    and its time: the sampled maximum refined by golden section around the
    best sample, to ``refine_tol`` in scaled time. Multi-bump trajectories
    are assumed to be sampled finely enough for the best sample to sit on
    the winning bump.
    """
    cells = spec.cells()
    taus = spec.horizon_grid()
    table = np.empty((len(cells), len(spec.bath_modes), 7))
    for ci, mi, traj in _trajectories(spec, cells):
        table[ci, mi] = kernels.events_kernel(traj, taus, spec.refine_tol)
    return EventsResult(spec=spec, cells=tuple(cells), modes=spec.bath_modes,
                        table=table)


# ---------------------------------------------------------------------------
# region maps

@dataclass(frozen=True)
class RegionMap:
    """Per-cell classification over the (a_over_omega, omega_L) grid."""

    a_values: np.ndarray
    L_values: np.ndarray
    labels: np.ndarray    # (na, nL) int8, indexes LABEL_NAMES
    criterion: str

    def label_name(self, i: int, j: int) -> str:
        return LABEL_NAMES[self.labels[i, j]]

    def counts(self) -> dict:
        return {name: int((self.labels == code).sum())
                for code, name in enumerate(LABEL_NAMES)}

    def refinement_boundary_cells(self, fine: "RegionMap") -> list:
        """Coarse cells flipped under grid doubling despite a uniform
        neighbourhood; these localise the region boundary, they are not
        errors. ``fine`` must hold 2n-1 points per axis on the same range."""
        na, nL = self.labels.shape
        if fine.labels.shape != (2 * na - 1, 2 * nL - 1):
            raise DomainError("fine map must have 2n-1 points per axis")
        flipped = []
        for i in range(1, na - 1):
            for j in range(1, nL - 1):
                lab = self.labels[i, j]
                if (self.labels[i - 1, j] == lab and self.labels[i + 1, j] == lab
                        and self.labels[i, j - 1] == lab and self.labels[i, j + 1] == lab):
                    if fine.labels[2 * i, 2 * j] != lab:
                        flipped.append((i, j))
        return flipped


def run_region_map(spec: SweepSpec) -> RegionMap:
    """Classify every (a, L) cell by which bath modes show the event.

    A revival counts when the detector flags it and the post-death
    concurrence exceeds ``spec.region_min_amplitude``; an enhancement
    counts when the maximum exceeds the initial concurrence by the same
    margin. This keeps the map at the scale of visible features instead of
    the detector's roundoff-level threshold.
    """
    if "region" not in spec.outputs:
        raise DomainError("spec.outputs does not request a region map")
    modes = spec.bath_modes
    if (BathKind.ACCELERATED_VACUUM not in modes
            or BathKind.THERMAL_AT_UNRUH not in modes):
        raise DomainError("region maps need both bath modes")
    a_values = _require_axis(spec, "a_over_omega")
    L_values = _require_axis(spec, "omega_L")
    result = run_events(spec)
    ai = result.spec.bath_modes.index(BathKind.ACCELERATED_VACUUM)
    ti = result.spec.bath_modes.index(BathKind.THERMAL_AT_UNRUH)
    floor = spec.region_min_amplitude
    if spec.event_kind == "enhancement":
        c0 = np.array([concurrence_x(spec.resolve_initial(cell))
                       for cell in result.cells])
        amp_a = np.where(result.table[:, ai, 3] > 0.5,
                         result.table[:, ai, 4] - c0, 0.0)
        amp_t = np.where(result.table[:, ti, 3] > 0.5,
                         result.table[:, ti, 4] - c0, 0.0)
    else:
        amp_a = np.where(result.table[:, ai, 2] > 0.5, result.table[:, ai, 6], 0.0)
        amp_t = np.where(result.table[:, ti, 2] > 0.5, result.table[:, ti, 6], 0.0)
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
