"""Exact propagation of the two-atom X state.

In the coupled basis {G, A, S, E} the populations close on themselves under
a constant 4x4 rate matrix and the two independent coherences decay as
exp(-4 A1 tau), so the evolution is computed exactly: eigendecomposition of
the rate matrix, or where its eigenvectors are ill-conditioned a matrix
exponential that sums only nonnegative terms. The stationary state is a
closed form in the rates. Times are in units of the inverse emission rate.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .coefficients import CoefficientSet
from .errors import ComputationError, DegenerateGeneratorError, DomainError, InvalidStateError

TRACE_TOL = 1e-10
POSITIVITY_SLACK = -1e-9


@dataclass(frozen=True)
class XState:
    """The eight real degrees of freedom of a two-atom X state.

    Populations are in the coupled basis (ground, antisymmetric, symmetric,
    doubly excited); ``cAS`` and ``cGE`` are the independent coherences, the
    conjugate entries being implied by hermiticity.
    """

    pGG: float
    pAA: float
    pSS: float
    pEE: float
    cAS: complex = 0.0 + 0.0j
    cGE: complex = 0.0 + 0.0j

    @property
    def trace(self) -> float:
        return self.pGG + self.pAA + self.pSS + self.pEE

    def populations(self) -> np.ndarray:
        return np.array([self.pGG, self.pAA, self.pSS, self.pEE])

    def validate(self) -> "XState":
        """Check trace, positivity of populations and the two 2x2 blocks."""
        if not abs(self.trace - 1.0) <= TRACE_TOL:   # "not within": NaN fails each check
            raise InvalidStateError(f"trace deviates from 1 by {self.trace - 1.0}")
        for name, p in (("pGG", self.pGG), ("pAA", self.pAA),
                        ("pSS", self.pSS), ("pEE", self.pEE)):
            if not p >= POSITIVITY_SLACK:
                raise InvalidStateError(f"population {name} = {p} below tolerance")
        # X-state positivity reduces to the two 2x2 blocks
        if not abs(self.cAS) ** 2 <= self.pAA * self.pSS + 1e-12:
            raise InvalidStateError("coherence |cAS|^2 exceeds pAA*pSS")
        if not abs(self.cGE) ** 2 <= self.pGG * self.pEE + 1e-12:
            raise InvalidStateError("coherence |cGE|^2 exceeds pGG*pEE")
        return self

    # --- the initial states used by the sweep presets ---

    @classmethod
    def psi1(cls, p: float) -> "XState":
        """sqrt(p)|A> + sqrt(1-p)|S>, real coherence sqrt(p(1-p))."""
        if not 0.0 < p < 1.0:
            raise DomainError(f"psi1 needs 0 < p < 1, got {p}")
        return cls(0.0, p, 1.0 - p, 0.0, cAS=complex(np.sqrt(p * (1.0 - p))))

    @classmethod
    def psi2(cls, p: float) -> "XState":
        """sqrt(p)|G> + sqrt(1-p)|E>, real coherence sqrt(p(1-p))."""
        if not 0.0 < p < 1.0:
            raise DomainError(f"psi2 needs 0 < p < 1, got {p}")
        return cls(p, 0.0, 0.0, 1.0 - p, cGE=complex(np.sqrt(p * (1.0 - p))))


_CATALOGUE = {
    "G": XState(1.0, 0.0, 0.0, 0.0),
    "A": XState(0.0, 1.0, 0.0, 0.0),
    "S": XState(0.0, 0.0, 1.0, 0.0),
    "E": XState(0.0, 0.0, 0.0, 1.0),
}


@functools.cache
def catalogue_state(name: str, p: float | None = None) -> XState:
    """Resolve a named initial state; psi1/psi2 take the weight p. Cached:
    XState is frozen, so equal arguments share one instance."""
    if name in _CATALOGUE:
        if p is not None:
            raise DomainError(f"state {name!r} takes no parameter p")
        return _CATALOGUE[name]
    if name == "psi1" or name == "psi2":
        if p is None:
            raise DomainError(f"state {name!r} needs the weight p")
        return XState.psi1(p) if name == "psi1" else XState.psi2(p)
    raise DomainError(f"unknown initial state {name!r}")


def build_generator(coeffs: CoefficientSet) -> np.ndarray:
    """Rate matrix M with d/dtau (pGG,pAA,pSS,pEE) = M p, units of the
    emission rate. Columns sum to zero (the diagonal is assembled as minus
    its column's off-diagonal sum); off-diagonal entries are the
    (nonnegative) transition rates between the four levels."""
    M = kernels.generator_kernel(coeffs.A1, coeffs.B1, coeffs.A2, coeffs.B2)
    sums = np.abs(M.sum(axis=0)).max()
    if sums > 1e-12 * max(1.0, np.abs(M).max()):
        raise ComputationError(f"generator columns do not sum to zero: {sums}")
    return M


def warn_on_fallback(stack: kernels.TrajectoryStack):
    """Warn when the generator's eigenvectors force the expm fallback
    (one-row stack)."""
    if stack.use_expm[0]:
        warnings.warn(
            "population generator eigenvectors are ill-conditioned "
            f"(cond ~ {stack.cond[0]:.3g}); using matrix-exponential fallback",
            RuntimeWarning, stacklevel=3)


def state_rows(states):
    """Initial populations (n, 4) and coherences (n, 4), as (reAS, imAS,
    reGE, imGE), of a list of XStates: the state rows of a TrajectoryStack."""
    p0 = np.array([state.populations() for state in states])
    coherences = np.array([(state.cAS.real, state.cAS.imag, state.cGE.real, state.cGE.imag)
                           for state in states])
    return p0, coherences


def prepare(pairs) -> kernels.TrajectoryStack:
    """The exact evolution of a list of (XState, CoefficientSet) pairs, one
    stack row per pair in order: generator, eigendecomposition and expm-fallback
    flag. No validation and no fallback warning; callers do both where they
    need them."""
    coeffs = [(cs.A1, cs.B1, cs.A2, cs.B2) for _, cs in pairs]
    return kernels.TrajectoryStack(np.array(coeffs), *state_rows([state for state, _ in pairs]))


def evolve(initial: XState, coeffs: CoefficientSet, tau: float) -> XState:
    """Exact state at time tau (units of the inverse emission rate)."""
    initial.validate()
    if not 0.0 <= tau < np.inf:
        raise DomainError(f"tau must be finite and >= 0, got {tau}")
    stack = prepare([(initial, coeffs)])
    warn_on_fallback(stack)
    # unclamped: a state valid only within XState's slack never raises here
    p = kernels._evaluate(stack, np.arange(1), np.array([[float(tau)]]), False)[0][0, 0]
    damp = np.exp(-4.0 * coeffs.A1 * tau)
    return XState(p[0], p[1], p[2], p[3],
                  cAS=initial.cAS * damp, cGE=initial.cGE * damp)


def asymptotic_state(coeffs: CoefficientSet) -> XState:
    """The stationary state of the generator, with zero coherences.

    The levels form one cycle G-A-E-S-G, with up and down rates u, d on the
    A ladder and U, D on the S ladder. By the matrix-tree theorem each
    weight sums, over the cycle's four spanning trees, the products of the
    rates toward its level: no term is negative, so every population has
    high relative accuracy. The weights all vanish only when a channel is
    dead; then the state is not unique (DegenerateGeneratorError)."""
    M = build_generator(coeffs)
    rates = M[[1, 0, 2, 0], [0, 1, 0, 2]]
    u, d, U, D = (rates / (rates.max() or 1.0)).tolist()   # cubes cannot overflow
    weights = np.array([D * D * (u + d) + d * d * (D + U),
                        d * U * U + u * D * D + u * d * (D + U),
                        U * D * (u + d) + d * d * U + u * u * D,
                        U * U * (u + d) + u * u * (D + U)])
    total = weights.sum()
    if not total > 0.0:
        raise DegenerateGeneratorError(
            "a decay channel is dead; the asymptotic state is not unique")
    p = weights / total
    return XState(float(p[0]), float(p[1]), float(p[2]), float(p[3]))

