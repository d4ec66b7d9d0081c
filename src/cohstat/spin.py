"""Spin-j representations of SU(2) and the binomial coherent family.

The 2j+1 dimensional representation is built from its ladder relations
with the basis ordered m = -j..j (lowest weight first), so the reference
vector phi_{-j} is the first column and k = j + m indexes outcomes 0..2j.
Coherent states on the sphere come from a closed-form coefficient formula.
The rotation's generator i theta (sin g J1 - cos g J2) equals
i theta W J1 W*, with W = diag(e^{ik(pi/2 - g)}) and the real tridiagonal
J1, so the Gauss check's rotations apply
``linops._phased_exponential`` to the eigenpairs of J1 (numpy's eigh), kept
read-only per 2j, as is the real exp(J+) whose entries, times powers of z,
are the Gauss check's triangular factors.  Squared coefficients are
binomial(2j, sin^2(theta/2)) weights from the saddle-point pmf kernel of
``fock`` in numpy.  Half-integers are carried as exact doubled integers to
avoid floating-point equality on j and m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import _EXTENDED, _bd0, _log_factorial_excess
from .linops import _phased_exponential, _tridiagonal_spectrum, matrix_exponential
from .pv_measure import VectorState

__all__ = [
    "SpherePoint",
    "SpinRep",
    "binomial_pmf",
    "build_spin_rep",
    "coherent_amplitudes",
    "coherent_magnitudes",
    "gauss_decomposition_check",
    "rotation_matrix",
    "so3_basis",
    "sphere_point_for_probability",
    "spin_coherent_closed_form",
]

_EXACT_BINOMIAL_LIMIT = 60


def so3_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Antisymmetric generators of the 3-d rotation group.

    e1, e2, e3 are the derivatives at zero of the rotations about the
    three coordinate axes; they satisfy [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
    exactly in integer arithmetic.
    """
    e1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    e2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    e3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return e1, e2, e3


def _as_two_j(j) -> int:
    two_j = 2.0 * float(j)
    if abs(two_j - round(two_j)) > 1e-9 or two_j < 0:
        raise ValueError(f"j must be a nonnegative half-integer, got {j!r}")
    return int(round(two_j))


@dataclass(frozen=True)
class SpinRep:
    """Spin-j representation, carried by 2j; its real matrices J3, J+ and J- are built when read."""

    two_j: int

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1

    @property
    def m_values(self) -> np.ndarray:
        return (np.arange(self.dim) * 2 - self.two_j) / 2.0

    @property
    def j3(self) -> np.ndarray:
        """Diagonal weight matrix with entries m = -j..j."""
        return np.diag(self.m_values)

    @property
    def j_plus(self) -> np.ndarray:
        """Raising matrix, J+ phi_m = sqrt((j-m)(j+m+1)) phi_{m+1}."""
        # at index i (m = -j + i): (j - m)(j + m + 1) = (2j - i)(i + 1)
        return np.diag(np.sqrt((self.two_j - np.arange(self.two_j)) * np.arange(1.0, self.dim)), k=-1)

    @property
    def j_minus(self) -> np.ndarray:
        """Lowering matrix, the transpose (and adjoint) of the real J+."""
        return self.j_plus.T


def build_spin_rep(j) -> SpinRep:
    """Spin-j representation; raises ValueError unless j is a nonnegative half-integer."""
    return SpinRep(two_j=_as_two_j(j))


@dataclass(frozen=True)
class SpherePoint:
    """Point (theta, gamma) on the unit sphere, South Pole excluded."""

    theta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.theta < math.pi:
            raise ValueError(f"theta must lie in [0, pi), got {self.theta!r}")
        if not 0.0 <= self.gamma < 2.0 * math.pi:
            raise ValueError(f"gamma must lie in [0, 2*pi), got {self.gamma!r}")


def _sqrt_binomials(two_j: int, k) -> np.ndarray:
    """sqrt(C(2j, k)) at the indices k only; exact integers up to 2j = 60, then sqrt(2^2j b(k; 2j, 1/2)).

    Past sqrt C(2j, j) = 1.8e308 (near 2j = 2050) the central entries are inf.
    """
    if two_j <= _EXACT_BINOMIAL_LIMIT:
        return np.sqrt(np.vectorize(math.comb, otypes=[float])(two_j, k))
    with np.errstate(over="ignore"):
        return np.sqrt(np.ldexp(_binomial_terms(two_j, k, 0.5), two_j)).astype(float)


def coherent_magnitudes(rep: SpinRep, theta, k) -> np.ndarray:
    """Real factors sqrt(C(2j,k)) (-sin(t/2))^k (cos(t/2))^{2j-k}, broadcasting theta against k."""
    half = np.asarray(theta, dtype=float) / 2.0
    magnitude = _sqrt_binomials(rep.two_j, k) * np.sin(half) ** k * np.cos(half) ** (rep.two_j - k)
    return (-1.0) ** k * magnitude


def coherent_amplitudes(rep: SpinRep, theta, gamma) -> np.ndarray:
    """Amplitudes <phi_m, w(theta, gamma)> for all m, lowest weight first.

    Coefficient k = j + m is sqrt(C(2j,k)) (-sin(t/2))^k (cos(t/2))^{2j-k}
    e^{-i k gamma}.  Broadcasts over theta and gamma; the result has shape
    broadcast(theta, gamma).shape + (2j+1,).
    """
    gamma = np.asarray(gamma, dtype=float)
    k = np.arange(rep.dim)
    return coherent_magnitudes(rep, np.expand_dims(theta, -1), k) * np.exp(-1j * k * gamma[..., None])


def spin_coherent_closed_form(rep: SpinRep, point: SpherePoint) -> VectorState:
    """Coherent state w(theta, gamma) from the closed-form coefficients (exact unit norm)."""
    return VectorState(coherent_amplitudes(rep, point.theta, point.gamma))


@functools.lru_cache(maxsize=32)
def _j1_spectrum(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs of J1 = (J+ + J-)/2, built from its band, the half band of J+.

    ``verify --check gauss`` cycles through 2j = 1..20, so the cache keeps
    32 entries, more than that cycle.  An entry holds 8 (d^2 + d) bytes for
    d = 2j + 1: under 30 kB for the whole cycle, and at most 32 entries of
    the largest 2j a process asks for.
    """
    return _tridiagonal_spectrum(np.diagonal(SpinRep(two_j).j_plus, -1) / 2.0)


def rotation_matrix(rep: SpinRep, point: SpherePoint) -> np.ndarray:
    """exp(i theta (sin g J1 - cos g J2)), the displacement to ``point``.

    J1 = (J+ + J-)/2 and J2 = (J+ - J-)/2i, so the generator's entry (k+1, k)
    is (J+)_{k+1,k} i e^{-ig}/2: it is i theta W J1 W* with
    W = diag(e^{ik(pi/2 - g)}), applied from the eigenpairs of the real J1
    with no matrix exponential.  theta = 0 gives the identity exactly.
    """
    phases = np.exp(1j * (0.5 * math.pi - point.gamma) * np.arange(rep.dim))
    return _phased_exponential(_j1_spectrum(rep.two_j), point.theta, phases, np.eye(rep.dim, dtype=complex))


@functools.lru_cache(maxsize=32)
def _j_plus_exponential(two_j: int) -> np.ndarray:
    """Read-only exp(J+), real and lower triangular, from the band route of ``matrix_exponential``."""
    exponential = matrix_exponential(SpinRep(two_j).j_plus).real.copy()
    exponential.flags.writeable = False
    return exponential


def _raising_exponential(two_j: int, z) -> np.ndarray:
    """exp(z J+) = Z exp(J+) Z^{-1}, Z = diag(z^k): entry (r, c) is z^{r-c} times that of the cached exp(J+)."""
    levels = np.arange(two_j + 1)
    return (z**levels)[np.subtract.outer(levels, levels).clip(0)] * _j_plus_exponential(two_j)


def gauss_decomposition_check(rep: SpinRep, point: SpherePoint) -> float:
    """Operator-norm residual of D = exp(z J+) exp(eta J3) exp(z' J-).

    z = -tan(theta/2) e^{-i gamma}, eta = ln(1+|z|^2), z' = -conj(z).
    The two sides come by independent routes: the rotation from the
    eigenpairs of J1 (``rotation_matrix``), the factors from the
    terminating power series of J+ (``_raising_exponential``): exp(z' J-)
    is the transpose of exp(z' J+), and exp(eta J3) scales the columns by
    e^{eta m}.  exp(J+) is kept per 2j, 32 sizes like the eigenpairs of J1
    (more than the 20 of ``verify --check gauss``), in 8 d^2 bytes for
    d = 2j + 1: 26 kB for the 20 sizes.  Only powers z^n with n >= 0
    enter, so theta = 0 gives the identity exactly.
    Raises ValueError when theta is too close to pi for tan(theta/2).
    """
    half = point.theta / 2.0
    if abs(math.cos(half)) < 1e-8:
        raise ValueError(f"theta={point.theta!r} is too close to pi for the triangular factors")
    zeta = -math.tan(half) * np.exp(-1j * point.gamma)
    eta = math.log1p(abs(zeta) ** 2)
    zeta_prime = -np.conjugate(zeta)
    displacement = rotation_matrix(rep, point)
    lower, upper = _raising_exponential(rep.two_j, zeta), _raising_exponential(rep.two_j, zeta_prime).T
    factored = (lower * np.exp(eta * rep.m_values)) @ upper
    return float(np.linalg.svd(displacement - factored, compute_uv=False)[0])


def _two_ell_index(rep: SpinRep, ell) -> int:
    """Basis index k = j + ell for a half-integer label ell in {-j..j}."""
    two_ell = 2.0 * float(ell)
    if abs(two_ell - round(two_ell)) > 1e-9:
        raise ValueError(f"ell must be a half-integer, got {ell!r}")
    two_ell = int(round(two_ell))
    if (two_ell - rep.two_j) % 2 != 0 or abs(two_ell) > rep.two_j:
        raise ValueError(f"ell={ell!r} is not a weight of the spin-{rep.j} representation")
    return (rep.two_j + two_ell) // 2


def _binomial_terms(n: int, k, p) -> np.ndarray:
    """C(n,k) p^k (1-p)^{n-k} by the saddle-point form, in extended precision, broadcasting k against p.

    With g(k) = log(k!) - (k log k - k), the log weight is
    g(n) - g(k) - g(n-k) - bd0(k, np) - bd0(n-k, nq); as g(0) = 0 and
    bd0(0, m) = m, this gives q^n at k = 0 and p^n at k = n.
    """
    p = np.asarray(p, dtype=_EXTENDED)
    k = np.asarray(k)
    g_n, g_k, g_rest = _log_factorial_excess(np.stack([np.full_like(k, n), k, n - k]))
    return np.exp(g_n - g_k - g_rest - _bd0(k, n * p) - _bd0(n - k, n * (1 - p)))


def _binomial_weight(n: int, k, p) -> np.ndarray:
    """C(n,k) p^k (1-p)^{n-k}, broadcasting k against p; shared with the posterior."""
    return _binomial_terms(n, k, p).astype(float)


def binomial_pmf(rep: SpinRep, point: SpherePoint, ell) -> float:
    """Binomial probability C(2j, j+ell) p^{j+ell} (1-p)^{j-ell}, p = sin^2(theta/2)."""
    k = _two_ell_index(rep, ell)
    p = math.sin(point.theta / 2.0) ** 2
    return float(_binomial_weight(rep.two_j, k, p))


def sphere_point_for_probability(p: float, gamma: float = 0.0) -> SpherePoint:
    """Sphere point with polar angle theta = 2 arcsin(sqrt(p))."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p!r}")
    return SpherePoint(theta=2.0 * math.asin(math.sqrt(p)), gamma=gamma)
