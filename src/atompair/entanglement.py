"""Concurrence and entanglement-event detection.

``concurrence_x`` is the closed form for X states used on the production
path; ``concurrence_wootters`` is the general spin-flip construction kept
as an independent oracle. ``detect_events`` scans a trajectory for sudden
death, (delayed or revived) birth, revival and enhancement, refining every
threshold crossing by bisection on the exact propagator.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import kernels
from .coefficients import CoefficientSet
from .dynamics import XState, prepare, warn_on_fallback
from .errors import DomainError, InvalidStateError


@dataclass(frozen=True)
class EntanglementEvents:
    """Detected events along one trajectory (times in 1/emission-rate).

    The field order is the layout of an events row, ``EVENT_FIELDS``, as
    ``kernels.events_kernel`` returns it, one per cell and mode in
    ``sweeps.EventsResult.table``; ``from_row`` reads one back.
    ``revival_amplitude`` is the largest concurrence reached after the
    first death (0 when no death occurs); region maps use it to separate
    visible revivals from threshold-level ones.
    """

    death_time: float | None
    birth_time: float | None
    revival: bool
    enhancement: bool
    max_concurrence: float
    max_time: float
    revival_amplitude: float = 0.0

    @classmethod
    def from_row(cls, row) -> "EntanglementEvents":
        """From an events row laid out as EVENT_FIELDS; NaN times mean no
        event, flags are 0/1."""
        v = dict(zip(EVENT_FIELDS, map(float, row)))
        times = {k: None if np.isnan(v[k]) else v[k] for k in ("death_time", "birth_time")}
        flags = {k: bool(v[k]) for k in ("revival", "enhancement")}
        return cls(**{**v, **times, **flags})


EVENT_FIELDS = tuple(f.name for f in fields(EntanglementEvents))


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution of one initial state under one coefficient set."""

    times: np.ndarray
    populations: np.ndarray   # shape (n, 4), coupled-basis order G, A, S, E
    cAS: np.ndarray
    cGE: np.ndarray
    concurrence: np.ndarray
    initial: XState
    coeffs: CoefficientSet
    # the one-row stack the samples came from; detect_events refines on it
    stack: kernels.TrajectoryStack = field(compare=False, repr=False)


def concurrence_x(state: XState) -> float:
    """Concurrence of an X state, max{0, K1, K2}.

    Radicands within -1e-12 of zero are clamped (roundoff slack); anything
    more negative signals a positivity violation upstream and raises
    InvalidStateError.
    """
    return float(kernels.concurrence_kernel(
        state.pGG, state.pAA, state.pSS, state.pEE,
        state.cAS.real, state.cAS.imag, state.cGE.real, state.cGE.imag))


def concurrence_wootters(rho: np.ndarray) -> float:
    """Spin-flip concurrence of an arbitrary two-qubit density matrix.

    Test oracle only: eigenvalues of rho * (sy x sy) rho* (sy x sy),
    descending square roots l1 >= ... >= l4, C = max(0, l1 - l2 - l3 - l4).
    The eigenvalues are taken from the Hermitian form sqrt(rho) rho_tilde
    sqrt(rho), which has the same spectrum: the general eigensolver does
    not converge on some valid X states with ~1e-50 coherences.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError(f"density matrix must be 4x4, got {rho.shape}")
    if not np.abs(rho - rho.conj().T).max() <= 1e-10:   # NaN fails too
        raise InvalidStateError("density matrix is not hermitian")
    if not abs(np.trace(rho).real - 1.0) <= 1e-8:
        raise InvalidStateError(f"density matrix trace is {np.trace(rho)}")
    d, U = np.linalg.eigh(rho)
    if d.min() < -1e-9:
        raise InvalidStateError("density matrix is not positive semidefinite")
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    rho_tilde = flip @ rho.conj() @ flip
    root = (U * np.sqrt(np.clip(d, 0.0, None))) @ U.conj().T
    lam = np.linalg.eigvalsh(root @ rho_tilde @ root)
    lam = np.sqrt(np.clip(lam, 0.0, None))
    lam[::-1].sort()
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def compute_trajectory(initial: XState, coeffs: CoefficientSet,
                       taus: np.ndarray) -> Trajectory:
    """Evolve and attach the concurrence series."""
    initial.validate()
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise DomainError("time grid must be a non-empty 1-d array")
    if taus[0] != 0.0 or not np.all(np.isfinite(taus)) or np.any(np.diff(taus) <= 0.0):
        raise DomainError("time grid must be finite, start at 0 and increase strictly")
    stack = prepare([(initial, coeffs)])
    pops, C = kernels.trajectory_kernel(stack, np.arange(1), taus)
    warn_on_fallback(stack)
    damp = np.exp(-4.0 * coeffs.A1 * taus)
    return Trajectory(times=taus, populations=pops[0],
                      cAS=initial.cAS * damp, cGE=initial.cGE * damp,
                      concurrence=C[0], initial=initial, coeffs=coeffs, stack=stack)


def detect_events(traj: Trajectory) -> EntanglementEvents:
    """Scan a trajectory for death/birth/revival/enhancement.

    death_time is the first crossing below kernels.EPS_DEAD from above,
    birth_time the first crossing above it from below; revival needs a
    death followed by a later birth; enhancement means the refined maximum
    exceeds the initial concurrence by more than kernels.EPS_ENH.
    Crossings are refined by bisection on the exact propagator, the
    maximum by golden section, both to ``kernels.REFINE_TOL`` in scaled
    time. The scan reads ``traj.concurrence``, which ``compute_trajectory``
    samples from ``traj.stack``, the stack the refinement evaluates.
    """
    if traj.times.size == 0:
        raise DomainError("empty trajectory")
    return EntanglementEvents.from_row(
        kernels.events_kernel(traj.stack, traj.times, traj.concurrence[None])[0])
