"""Observables, states, and projection-valued measures on finite dimensions.

An observable is a Hermitian matrix whose eigenvalues are the possible
measurement results.  A PV measure assigns to each distinct eigenvalue the
orthogonal projector onto its eigenspace; pairing a projector with a unit
vector state gives the outcome probability.  The module also carries the
one analytic continuous case used here, a centered Gaussian position
density whose interval masses come from the error function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import hermitian_eigendecomposition

__all__ = [
    "FinitePVMeasure",
    "NonFiniteError",
    "VectorState",
    "born_probabilities",
    "example_family_states",
    "gaussian_position_probability",
    "pv_from_observable",
]

_UNIT_NORM_TOL = 1e-12
_PROJECTOR_TOL = 1e-10
# Eigenvalues within _CLUSTER_TOL of their cluster's first are one outcome.
_CLUSTER_TOL = 1e-9
_NEGATIVE_PROBABILITY_TOL = 1e-10


class NonFiniteError(ValueError):
    """A computed state or distribution holds NaN or infinite values."""


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a complex vector, sqrt(re.re + im.im) as ``np.linalg.norm`` takes it, but each dot a
    numpy pairwise sum, not a BLAS dot that OpenBLAS splits across threads: the same bits at any thread count."""
    return math.sqrt(float(np.sum(np.square(vec.real)) + np.sum(np.square(vec.imag))))


@dataclass(frozen=True)
class VectorState:
    """Unit vector representing a pure state.

    Two states are physically the same when they differ by a unit-modulus
    scalar, so two routes to one state agree only up to that global phase.
    """

    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex)
        if vec.ndim != 1 or vec.shape[0] < 1:
            raise ValueError(f"state must be a nonempty vector, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise NonFiniteError("state has non-finite entries")
        norm = _norm(vec)
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"state is not unit norm (norm {norm!r})")
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @classmethod
    def from_unnormalized(cls, vec) -> "VectorState":
        vec = np.asarray(vec, dtype=complex)
        norm = _norm(vec)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(vec / norm)


@dataclass(frozen=True)
class FinitePVMeasure:
    """Projectors of a discrete spectral measure, one per distinct outcome.

    Projectors are idempotent, self-adjoint, mutually orthogonal, and sum
    to the identity; all four properties are checked on construction.
    """

    outcomes: np.ndarray
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=float)
        projectors = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        if outcomes.ndim != 1 or len(projectors) != outcomes.shape[0]:
            raise ValueError("need one projector per outcome")
        dim = projectors[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for p in projectors:
            if np.linalg.norm(p - p.conj().T) > _PROJECTOR_TOL:
                raise ValueError("projector is not self-adjoint")
            if np.linalg.norm(p @ p - p) > _PROJECTOR_TOL:
                raise ValueError("projector is not idempotent")
            total += p
        if np.linalg.norm(total - np.eye(dim)) > _PROJECTOR_TOL:
            raise ValueError("projectors do not sum to the identity")
        for i in range(len(projectors)):
            for j in range(i + 1, len(projectors)):
                if np.linalg.norm(projectors[i] @ projectors[j]) > _PROJECTOR_TOL:
                    raise ValueError("projectors for distinct outcomes are not orthogonal")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "projectors", projectors)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


def pv_from_observable(matrix) -> FinitePVMeasure:
    """PV measure of the observable ``matrix``, merging eigenvalues within _CLUSTER_TOL.

    ``matrix`` must be Hermitian to ``linops._HERMITIAN_TOL``, else
    ValueError.  Spectra built here are integers or exact trigonometric
    values, so clusters are well separated and the threshold is safe.  The
    clusters are read off the descending spectrum in one pass.
    """
    eigenvalues, vectors = hermitian_eigendecomposition(matrix)
    outcomes: list[float] = []
    projectors: list[np.ndarray] = []
    start = 0
    for stop in range(1, eigenvalues.shape[0] + 1):
        if stop < eigenvalues.shape[0] and eigenvalues[start] - eigenvalues[stop] <= _CLUSTER_TOL:
            continue
        block = vectors[:, start:stop]
        outcomes.append(float(eigenvalues[start:stop].mean()))
        projectors.append(block @ block.conj().T)
        start = stop
    return FinitePVMeasure(outcomes=np.asarray(outcomes), projectors=tuple(projectors))


def born_probabilities(state: VectorState, pv: FinitePVMeasure) -> np.ndarray:
    """Probabilities (phi, E({y}) phi) of every outcome y, aligned with ``pv.outcomes``.

    Values in [-_NEGATIVE_PROBABILITY_TOL, 0) are clamped to 0 and values
    above 1 to 1; anything more negative indicates a bug upstream and raises
    instead of clamping.
    """
    if state.dim != pv.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, measure {pv.dim}")
    v = state.vector
    raw = np.array([np.vdot(v, projector @ v).real for projector in pv.projectors])
    if (raw < -_NEGATIVE_PROBABILITY_TOL).any():
        raise ValueError(f"projector expectations {raw!r} fall below rounding tolerance")
    return np.clip(raw, 0.0, 1.0)


def example_family_states(beta: float, theta: float) -> VectorState:
    """Three-level family (e^{-ib} cos^2(t/2), sin t / sqrt2, e^{ib} sin^2(t/2)).

    Against the diag(1, 0, -1) observable this produces outcome
    probabilities (cos^4(t/2), 2 sin^2(t/2) cos^2(t/2), sin^4(t/2)), a
    binomial law with two trials after relabeling.  Expected ranges are
    beta in [0, 2pi) and theta in [0, pi).
    """
    half = theta / 2.0
    vec = np.array(
        [
            np.exp(-1j * beta) * np.cos(half) ** 2,
            np.sin(theta) / np.sqrt(2.0),
            np.exp(1j * beta) * np.sin(half) ** 2,
        ],
        dtype=complex,
    )
    return VectorState.from_unnormalized(vec)


def _standard_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def gaussian_position_probability(sigma: float, a: float, b: float) -> float:
    """Mass of [a, b] under the N(0, sigma^2) position density, via erf.

    Infinite bounds are passed as ``float('-inf')`` / ``float('inf')``;
    the full line integrates to exactly 1.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r}, b={b!r}")
    upper = 1.0 if math.isinf(b) and b > 0 else _standard_normal_cdf(b / sigma)
    lower = 0.0 if math.isinf(a) and a < 0 else _standard_normal_cdf(a / sigma)
    return upper - lower
