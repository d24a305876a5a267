"""Exact propagation of the two-atom X state.

In the coupled basis {G, A, S, E} the populations close on themselves under
a constant 4x4 rate matrix and the two independent coherences decay as
exp(-4 A1 tau), so the evolution is computed exactly: eigendecomposition of
the rate matrix on the production path, scaling-and-squaring matrix
exponential as fallback when the eigenvector matrix is ill-conditioned.
All times are in units of the inverse spontaneous emission rate.
"""

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
        if abs(self.trace - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace deviates from 1 by {self.trace - 1.0}")
        for name, p in (("pGG", self.pGG), ("pAA", self.pAA),
                        ("pSS", self.pSS), ("pEE", self.pEE)):
            if p < POSITIVITY_SLACK:
                raise InvalidStateError(f"population {name} = {p} below tolerance")
        # X-state positivity reduces to the two 2x2 blocks
        if abs(self.cAS) ** 2 > self.pAA * self.pSS + 1e-12:
            raise InvalidStateError("coherence |cAS|^2 exceeds pAA*pSS")
        if abs(self.cGE) ** 2 > self.pGG * self.pEE + 1e-12:
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


def catalogue_state(name: str, p: float | None = None) -> XState:
    """Resolve a named initial state; psi1/psi2 take the weight p."""
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


def prepare(pairs) -> kernels.TrajectoryStack:
    """The exact evolution of a list of (XState, CoefficientSet) pairs, one
    stack row per pair in order: generator, eigendecomposition and expm-fallback
    flag. No validation and no fallback warning; callers do both where they
    need them."""
    coeffs = [(cs.A1, cs.B1, cs.A2, cs.B2) for _, cs in pairs]
    p0 = [state.populations() for state, _ in pairs]
    coherences = [(state.cAS.real, state.cAS.imag, state.cGE.real, state.cGE.imag)
                  for state, _ in pairs]
    return kernels.TrajectoryStack(np.array(coeffs), np.array(p0), np.array(coherences))


def evolve(initial: XState, coeffs: CoefficientSet, tau: float) -> XState:
    """Exact state at time tau (units of the inverse emission rate)."""
    initial.validate()
    if not 0.0 <= tau < np.inf:
        raise DomainError(f"tau must be finite and >= 0, got {tau}")
    stack = prepare([(initial, coeffs)])
    warn_on_fallback(stack)
    p = kernels.pops_at(stack.w[0], stack.V[0], stack.c[0], stack.M[0], stack.use_expm[0],
                        stack.p0[0], float(tau))
    damp = np.exp(-4.0 * coeffs.A1 * tau)
    return XState(p[0], p[1], p[2], p[3],
                  cAS=initial.cAS * damp, cGE=initial.cGE * damp)


def asymptotic_state(coeffs: CoefficientSet) -> XState:
    """Trace-one null vector of the generator, with zero coherences.

    Requires a simple zero eigenvalue; raises DegenerateGeneratorError at
    the measure-zero coefficient coincidences where it is not. For
    coefficient sets satisfying the structural proportionality
    A1*B2 == A2*B1 (every assembled set does) the equal-population closed
    form for pAA = pSS is verified against the null vector to 1e-10.
    """
    M = build_generator(coeffs)
    U, s, Vt = np.linalg.svd(M)
    scale = s[0]
    if s[3] > 1e-10 * scale:
        raise DegenerateGeneratorError(f"no zero eigenvalue found: sigma_min = {s[3]}")
    if s[2] < 1e-10 * scale:
        raise DegenerateGeneratorError(
            "zero eigenvalue of the generator is not simple; asymptotic state undefined")
    v = Vt[3]
    total = v.sum()
    if abs(total) < 1e-12:
        raise DegenerateGeneratorError("null vector has zero trace; cannot normalise")
    p = v / total
    A1, B1, A2, B2 = coeffs.A1, coeffs.B1, coeffs.A2, coeffs.B2
    if abs(A1 * B2 - A2 * B1) <= 1e-12 * max(A1 * B1, 1e-300):
        num = -(-A1 ** 3 + A1 * A2 ** 2 + A1 * B1 ** 2 - A1 * B2 ** 2)
        den = 4.0 * (A1 ** 3 - A1 * A2 ** 2 - A2 * B1 * B2 + A1 * B2 ** 2)
        closed = num / den
        if abs(p[1] - closed) > 1e-10 or abs(p[2] - closed) > 1e-10:
            raise ComputationError(
                f"asymptotic populations {p[1]}, {p[2]} disagree with the "
                f"closed form {closed}")
    return XState(float(p[0]), float(p[1]), float(p[2]), float(p[3]))

