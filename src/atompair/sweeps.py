"""Parameter sweeps: concurrence curves, evolution maxima, region maps.

A SweepSpec fixes the physics of a panel (one initial state, polarisations,
bath modes) and its grid: the a_over_omega x omega_L cells and, for curves,
a tau axis; ``RunConfig.sweep_specs`` builds it from a checked config, and
nothing here checks it again (a region map needs both bath modes). A run
returns the arrays it computed, cells and modes in the order of the spec's
``cells()`` (omega_L fastest) and ``bath_modes``; events rows are laid out
as ``EVENT_FIELDS``, and region labels are codes indexing LABEL_NAMES.
Every run_* function goes through one serial generator, ``_trajectories``,
that sets up a group of cells of a fixed size on arrays, every (cell, bath
mode) in a fixed order, as one ``kernels.TrajectoryStack``. Each group is
scanned on arrays in blocks of a fixed size: curves sample it on the tau
axis, event runs on the horizon grid, and ``kernels.events_kernel`` then
refines the flagged brackets of the whole group, one array pass per search.
Group sizes are fixed and block sizes depend only on the tau axis length, so
outputs are bit-identical from run to run.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .coefficients import BathKind, DipoleOrientation, coefficient_rows
from .dynamics import XState
from .entanglement import EVENT_FIELDS, concurrence_x
from .errors import DomainError

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
# against 128, 512 cuts the refinement calls of sweep fig4 from 327 to
# 100 for 2-4 MB more peak RSS; a group keeps only its concurrence rows
# (1.6 MB).
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
    """One panel of a sweep: its physics and its grid, a plain record.

    The cells are the a_over_omega x omega_L grid, omega_L fastest;
    ``tau`` is the time axis of a curve run (None for event runs). Every
    cell starts in the one state ``initial``, a catalogue state.
    """

    label: str
    initial: XState
    dipole1: DipoleOrientation
    dipole2: DipoleOrientation
    bath_modes: tuple
    a_over_omega: tuple
    omega_L: tuple
    tau: tuple | None = None
    event_kind: str = "revival"

    def cells(self):
        """(a, L) of every cell as two flat arrays, omega_L fastest."""
        a, L = np.meshgrid(self.a_over_omega, self.omega_L, indexing="ij")
        return a.ravel(), L.ravel()


def _trajectories(spec):
    """Yield one TrajectoryStack per group of cells, rows in order, bath
    modes innermost: REFINE_TRAJECTORIES // len(modes) cells a group (at
    least one; the last may hold fewer), set up on the group's (a, L) arrays
    by ``coefficient_rows``, the one array helper of the ``coeffs`` table
    too. Every row starts in the panel's one initial state. The atoms are
    taken in the order 12: the order 21 of a polarization pair is the order
    12 of the swapped pair.
    """
    a, L = spec.cells()
    nmodes = len(spec.bath_modes)
    size = max(1, REFINE_TRAJECTORIES // nmodes)
    state = spec.initial
    for start in range(0, a.size, size):
        coeffs = coefficient_rows(a[start:start + size], L[start:start + size],
                                  spec.dipole1, spec.dipole2, spec.bath_modes)
        yield kernels.TrajectoryStack(coeffs, state.populations(), state.coherences())


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

def run_events(spec: SweepSpec) -> np.ndarray:
    """Entanglement events for every cell and mode on the HORIZON grid: the
    (ncells, nmodes, len(EVENT_FIELDS)) table, rows laid out as EVENT_FIELDS
    (``EntanglementEvents.from_row`` reads one).

    Trajectories are scanned in blocks of BLOCK_SAMPLES samples and
    refined in groups of REFINE_TRAJECTORIES trajectories, one array pass
    per search. The max_concurrence and max_time columns are the maximum
    concurrence over the evolution and its time: the sampled maximum
    refined by golden section around the best sample, to
    ``kernels.REFINE_TOL`` in scaled time. Multi-bump trajectories are
    assumed to be sampled finely enough for the best sample to sit on the
    winning bump.
    """
    rows = [_event_rows(stack, HORIZON) for stack in _trajectories(spec)]
    return np.concatenate(rows).reshape(-1, len(spec.bath_modes), len(EVENT_FIELDS))


# ---------------------------------------------------------------------------
# curves

def run_curve(spec: SweepSpec, events: bool = False) -> tuple:
    """Concurrence (ncells, nmodes, ntimes) and populations (ncells, nmodes,
    ntimes, 4) on the tau axis for every cell and mode, and the events
    table of ``run_events(spec)`` when ``events`` is set (else None),
    computed from the same trajectory stacks, so each generator is
    decomposed once for both grids.
    """
    taus = np.asarray(spec.tau)
    pops, conc, rows = [], [], []
    for stack in _trajectories(spec):
        for block_pops, block_conc in _scan(stack, taus):
            pops.append(block_pops)
            conc.append(block_conc)
        if events:
            rows.append(_event_rows(stack, HORIZON))
    shape = (-1, len(spec.bath_modes), taus.size)
    return (np.concatenate(conc).reshape(shape), np.concatenate(pops).reshape(shape + (4,)),
            np.concatenate(rows).reshape(shape[:2] + (len(EVENT_FIELDS),)) if events else None)


# ---------------------------------------------------------------------------
# region maps

def run_region_map(spec: SweepSpec) -> np.ndarray:
    """Classify every (a, L) cell by which bath modes show the event: an
    (na, nL) int8 grid of codes indexing LABEL_NAMES.

    A mode's amplitude is its post-death concurrence where a revival is
    flagged, or its maximum less the initial concurrence where an
    enhancement is, else 0. It shows the event above REGION_MIN_AMPLITUDE,
    or above 0.9 of it while the other mode's is above it: the map keeps to
    visible features, not the detector's roundoff-level threshold.
    """
    modes = spec.bath_modes
    column = dict(zip(EVENT_FIELDS, np.moveaxis(run_events(spec), 2, 0)))
    floor = REGION_MIN_AMPLITUDE
    if spec.event_kind == "enhancement":
        amp = np.where(column["enhancement"] > 0.5,
                       column["max_concurrence"] - concurrence_x(spec.initial), 0.0)
    else:
        amp = np.where(column["revival"] > 0.5, column["revival_amplitude"], 0.0)
    amp_a = amp[:, modes.index(BathKind.ACCELERATED_VACUUM)]
    amp_t = amp[:, modes.index(BathKind.THERMAL_AT_UNRUH)]
    # tie-to-agreement deadband: amplitudes within 10% below the floor are
    # below the map's amplitude resolution; a mode clearly above the floor
    # drags an almost-there partner along instead of minting a one-mode
    # sliver where the two amplitude contours nearly coincide
    shows_a = (amp_a > floor) | ((amp_t > floor) & (amp_a > 0.9 * floor))
    shows_t = (amp_t > floor) | ((amp_a > floor) & (amp_t > 0.9 * floor))
    codes = shows_a + 2 * shows_t
    return codes.reshape(len(spec.a_over_omega), len(spec.omega_L)).astype(np.int8)
