"""Parameter sweeps: concurrence curves, evolution maxima, region maps.

A SweepSpec fixes the physics of a panel (initial state, polarisations,
bath modes) and the grid axes; the run_* functions evaluate every grid cell
for every requested bath mode. Cells are independent work items evaluated
in a deterministic order; with ``threads > 1`` they are distributed over a
thread pool, and results are keyed by cell index, so outputs are
bit-identical for any thread count. The kernels are plain Python and hold
the GIL for most of their time, so extra threads give little or no speedup.
"""

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .coefficients import BathKind, DipoleOrientation
from .dynamics import XState, catalogue_state
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


def _chunks(n, threads):
    size = max(1, -(-n // max(1, threads * 4)))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _run_ordered(worker, jobs, threads):
    if threads <= 1:
        return [worker(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, jobs))


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


def run_curve(spec: SweepSpec, threads: int = 1) -> CurveResult:
    """Concurrence and populations on the tau axis for every cell and mode."""
    if "curve" not in spec.outputs:
        raise DomainError("spec.outputs does not request a curve")
    taus = _require_axis(spec, "tau")
    cells = spec.cells()
    modes = spec.bath_modes
    nc, nm, nt = len(cells), len(modes), taus.size
    a_vals, L_vals, p0s, reAS, imAS, reGE, imGE = _cell_inputs(spec, cells)
    conc = np.empty((nc, nm, nt))
    pops = np.empty((nc, nm, nt, 4))
    d1 = spec.dipole1.as_array()
    d2 = spec.dipole2.as_array()

    def worker(job):
        ci, mi = job
        thermal = modes[mi] is BathKind.THERMAL_AT_UNRUH
        A1, B1, A2, B2 = kernels.assemble_kernel(
            a_vals[ci], L_vals[ci], d1, d2, thermal, spec.atom_order == 21)
        p, C, _ = kernels.trajectory_kernel(
            A1, B1, A2, B2, p0s[ci], reAS[ci], imAS[ci], reGE[ci], imGE[ci], taus)
        return ci, mi, p, C

    jobs = [(ci, mi) for ci in range(nc) for mi in range(nm)]
    for ci, mi, p, C in _run_ordered(worker, jobs, threads):
        conc[ci, mi] = C
        pops[ci, mi] = p
    return CurveResult(spec=spec, times=taus, cells=tuple(cells), modes=modes,
                       concurrence=conc, populations=pops)


def _cell_inputs(spec, cells):
    """Per-cell kernel inputs: (a, L, p0, reAS, imAS, reGE, imGE) arrays.

    Every cell carries every non-time axis, single-valued ones included.
    """
    _require_axis(spec, "a_over_omega", 1)
    _require_axis(spec, "omega_L", 1)
    a_vals = np.array([cell["a_over_omega"] for cell in cells])
    L_vals = np.array([cell["omega_L"] for cell in cells])
    initials = [spec.resolve_initial(cell) for cell in cells]
    p0s = np.array([initial.populations() for initial in initials])
    reAS = np.array([initial.cAS.real for initial in initials])
    imAS = np.array([initial.cAS.imag for initial in initials])
    reGE = np.array([initial.cGE.real for initial in initials])
    imGE = np.array([initial.cGE.imag for initial in initials])
    return a_vals, L_vals, p0s, reAS, imAS, reGE, imGE


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


def run_events(spec: SweepSpec, threads: int = 1) -> EventsResult:
    """Entanglement events for every cell and mode on the horizon grid."""
    cells = spec.cells()
    modes = spec.bath_modes
    taus = spec.horizon_grid()
    nc, nm = len(cells), len(modes)

    a_vals, L_vals, p0s, reAS, imAS, reGE, imGE = _cell_inputs(spec, cells)
    table = np.empty((nc, nm, 7))
    d1 = spec.dipole1.as_array()
    d2 = spec.dipole2.as_array()

    def worker(job):
        mi, lo, hi = job
        thermal = modes[mi] is BathKind.THERMAL_AT_UNRUH
        out = kernels.events_cells_kernel(
            a_vals[lo:hi], L_vals[lo:hi], p0s[lo:hi],
            reAS[lo:hi], imAS[lo:hi], reGE[lo:hi], imGE[lo:hi],
            d1, d2, thermal, spec.atom_order == 21, taus, spec.refine_tol)
        return mi, lo, hi, out

    jobs = [(mi, lo, hi) for mi in range(nm) for lo, hi in _chunks(nc, threads)]
    for mi, lo, hi, out in _run_ordered(worker, jobs, threads):
        table[lo:hi, mi, :] = out
    return EventsResult(spec=spec, cells=tuple(cells), modes=modes, table=table)


@dataclass(frozen=True)
class MaxConcurrenceResult:
    spec: SweepSpec
    cells: tuple
    modes: tuple
    max_concurrence: np.ndarray   # (ncells, nmodes)
    max_time: np.ndarray          # (ncells, nmodes)


def run_max_concurrence(spec: SweepSpec, threads: int = 1) -> MaxConcurrenceResult:
    """Maximum concurrence over the evolution, per cell and mode.

    The sampled maximum is refined by golden section around the best
    sample, to ``refine_tol`` in scaled time; multi-bump trajectories are
    assumed to be sampled finely enough for the best sample to sit on the
    winning bump.
    """
    if "max_concurrence" not in spec.outputs:
        raise DomainError("spec.outputs does not request max_concurrence")
    result = run_events(spec, threads=threads)
    return MaxConcurrenceResult(
        spec=spec, cells=result.cells, modes=result.modes,
        max_concurrence=result.table[:, :, 4].copy(),
        max_time=result.table[:, :, 5].copy())


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


def run_region_map(spec: SweepSpec, threads: int = 1) -> RegionMap:
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
    result = run_events(spec, threads=threads)
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
