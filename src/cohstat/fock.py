"""Truncated Fock space: ladder operators, displacements, Poisson family.

The annihilation/creation pair acts on a finite basis phi_0..phi_{K-1}, so
the canonical commutation relation [A, A+] = I holds only below the top
level; the top-level defect is a documented truncation artifact.
``FockSpace`` is the representation: like ``spin.SpinRep`` it carries only
its size and builds its real ladder matrices when they are read.  Coherent
states come from the closed-form expansion with coefficients
e^{-|a|^2/2} a^k / sqrt(k!).  The displacement's generator a*A+ - conj(a)*A
equals -i|a| W S W*, with W = diag(e^{ik(arg a + pi/2)}) and the real
tridiagonal S = A + A+, so the translation check's displacements apply
``linops._phased_exponential`` to the eigenpairs of S (numpy's eigh), which
depend only on the truncation and are kept, read-only, for the last two
truncations used in the process.  Squared
coefficients are the Poisson(|a|^2) weights, which come from Loader's
saddle-point form of the pmf in numpy; the same kernel gives the binomial
weights in ``spin``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linops import _phased_exponential, _tridiagonal_spectrum, matrix_exponential
from .pv_measure import NonFiniteError, VectorState

__all__ = [
    "CoherentStateWH",
    "FockSpace",
    "TruncationError",
    "WHGroupElement",
    "bch_check",
    "build_ladder",
    "coherent_amplitudes",
    "coherent_closed_form",
    "coherent_magnitudes",
    "default_truncation",
    "displacement_translation_check",
    "poisson_pmf",
    "poisson_tail",
    "wh_multiply",
]

DEFAULT_TAIL_TOL = 1e-12


class TruncationError(RuntimeError):
    """The truncated basis is too small for the requested displacement."""


@dataclass(frozen=True)
class FockSpace:
    """Finite number basis phi_0..phi_{dim-1}, carried by its size.

    Its ladder matrices are real and built when read: A phi_k = sqrt(k)
    phi_{k-1}, the creation matrix A+ is the transpose of A, and the number
    matrix is diagonal with entries 0..dim-1.  On the top basis vector A+
    annihilates instead of raising (truncation).
    """

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"truncation must be at least 2, got {self.dim}")

    @property
    def annihilation(self) -> np.ndarray:
        return np.diag(np.sqrt(np.arange(1.0, self.dim)), k=1)

    @property
    def creation(self) -> np.ndarray:
        return self.annihilation.T

    @property
    def number(self) -> np.ndarray:
        return np.diag(np.arange(float(self.dim)))


def build_ladder(dim: int) -> FockSpace:
    """The truncated Fock space of ``dim`` levels; raises ValueError below 2."""
    return FockSpace(dim)


@dataclass(frozen=True)
class WHGroupElement:
    """Group element (s; alpha) with a real central parameter and a complex one."""

    s: float
    alpha: complex

    def __post_init__(self):
        if not (math.isfinite(self.s) and np.isfinite(self.alpha)):
            raise ValueError("group element parameters must be finite")


def wh_multiply(g1: WHGroupElement, g2: WHGroupElement) -> WHGroupElement:
    """(s; a)(t; b) = (s + t + Im(a conj(b)); a + b)."""
    twist = (g1.alpha * g2.alpha.conjugate()).imag
    return WHGroupElement(s=g1.s + g2.s + twist, alpha=g1.alpha + g2.alpha)


# Loader's saddle-point form of the Poisson and binomial pmfs (C. Loader, "Fast
# and Accurate Computation of Binomial Probabilities", 2000): a log pmf is a
# sum of small log-factorial remainders and nonnegative bd0 deviance terms,
# with no cancellation between large logarithms.  exp() turns the absolute
# error of the log into a relative error of the pmf, so the kernel runs in
# extended precision (80-bit on x86-64) and each weight is rounded to double
# once; where longdouble is double the error grows with |log pmf| instead.
_EXTENDED = np.longdouble
_HALF_LOG_2PI = _EXTENDED("0.91893853320467274178032973640561764")

# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k) for k = 1..15, correctly rounded
# (index 0 is a placeholder)
_STIRLERR_TABLE = np.array(
    [
        0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
        0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
        0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
        0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
        0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
    ]
)
# Stirling series B_2m / (2m (2m-1)) in powers of 1/k^2; from k = 16 the next term is below 2e-18
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _stirlerr(k) -> np.ndarray:
    """log(k!) - log(sqrt(2 pi k) (k/e)^k) for integers k >= 1.

    Double precision suffices: the values are below 0.082, so their
    rounding is below 1e-17 in a log pmf.
    """
    k = np.asarray(k)
    inv_square = 1.0 / np.square(k, dtype=float)
    series = _STIRLING_SERIES[-1]
    for coefficient in _STIRLING_SERIES[-2::-1]:
        series = series * inv_square + coefficient
    last = _STIRLERR_TABLE.size - 1
    return np.where(k <= last, _STIRLERR_TABLE[np.minimum(k, last)], series / k)


def _log_factorial_excess(k) -> np.ndarray:
    """g(k) = log(k!) - (k log k - k) = stirlerr(k) + log(2 pi k)/2, and g(0) = 0, in extended precision."""
    k = np.asarray(k)
    positive = np.maximum(k, 1)
    excess = _stirlerr(positive) + (_HALF_LOG_2PI + 0.5 * np.log(positive.astype(_EXTENDED)))
    return np.where(k > 0, excess, 0)


# 1/19, 1/17, ..., 1/3 for the series of _bd0, exact to extended precision
# (as Python floats they would be off by up to 1e-17 relative)
_ODD_RECIPROCALS = tuple(np.ones((), _EXTENDED) / odd for odd in range(19, 1, -2))


def _bd0(x, m) -> np.ndarray:
    """x log(x/m) + m - x >= 0, the deviance term of the saddle-point form, in extended precision.

    The direct form x log1p((x-m)/m) - (x-m) has an absolute error of a few
    units of 1e-19 (x-m), negligible below x = 100.  Above, where |v| < 0.1
    with v = (x-m)/(x+m), the series (x-m)v + 2x sum_j v^(2j+1)/(2j+1)
    takes over: its terms do not cancel, and nine reach 1e-19.  x = 0
    gives m, and m = 0 < x gives inf.
    """
    x = np.asarray(x, dtype=_EXTENDED)
    m = np.asarray(m, dtype=_EXTENDED)
    difference = x - m
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.asarray(np.where(x > 0, x * np.log1p(difference / m), 0) - difference)
    near = (x > 100) & (np.abs(difference) < 0.1 * (x + m))
    if near.any():
        x, m, difference = (np.broadcast_to(a, near.shape)[near] for a in (x, m, difference))
        v = difference / (x + m)
        v_square = v * v
        odd_powers = np.zeros_like(v)  # sum_{j>=1} v^(2j) / (2j+1)
        for reciprocal in _ODD_RECIPROCALS:
            odd_powers = (odd_powers + reciprocal) * v_square
        result[near] = difference * v + (x + x) * v * odd_powers
    return result


def _poisson_weight(lam, n) -> np.ndarray:
    """e^{-lam} lam^n / n! = e^{-g(n) - bd0(n, lam)}; shared by the pmf and the posterior."""
    return np.exp(-_log_factorial_excess(n) - _bd0(n, lam)).astype(float)


def poisson_tail(lam: float, dim: int) -> float:
    """Poisson(lam) mass at or beyond the truncation level ``dim``, summed upward from ``dim``.

    Terms more than 10 standard deviations (plus 30 counts) from the mean
    are below 1e-20 of the tail and are left out, which bounds the sum at
    about 20 sqrt(lam) + 60 terms; a ``dim`` below them has tail 1.0.
    """
    reach = 10.0 * math.sqrt(lam) + 30.0
    if dim < lam - reach:
        return 1.0
    return math.fsum(_poisson_weight(lam, np.arange(dim, int(max(dim, lam) + reach) + 1)).tolist())


def poisson_pmf(alpha: complex, n: int) -> float:
    """Poisson probability of count n at rate |alpha|^2."""
    if n < 0 or n != int(n):
        raise ValueError(f"count must be a nonnegative integer, got {n!r}")
    return float(_poisson_weight(abs(alpha) ** 2, int(n)))


def coherent_magnitudes(radius, k) -> np.ndarray:
    """Moduli e^{-r^2/2} r^k / sqrt(k!) = sqrt(Poisson(k; r^2)), broadcasting r against k."""
    return np.sqrt(_poisson_weight(np.square(np.asarray(radius, dtype=_EXTENDED)), k))


def coherent_amplitudes(alpha, dim: int) -> np.ndarray:
    """Exact amplitudes e^{-|a|^2/2} a^k / sqrt(k!) for k < dim.

    Vectorized over ``alpha``: the result has shape ``alpha.shape + (dim,)``.
    These are the untruncated state's coefficients at the tracked indices;
    no renormalization is applied, so for large |alpha| the rows carry only
    part of the unit mass.
    """
    a = np.asarray(alpha, dtype=complex)
    k = np.arange(dim)
    phase = np.exp(1j * k * np.angle(a)[..., None])
    return coherent_magnitudes(np.abs(a)[..., None], k) * phase


def default_truncation(alpha: complex) -> int:
    """Truncation placing the Poisson tail beyond mean + 12 sd below 1e-15."""
    lam = abs(alpha) ** 2
    return max(64, int(math.ceil(lam + 12.0 * math.sqrt(lam + 1.0))))


@dataclass(frozen=True)
class CoherentStateWH:
    """Displacement coherent state on a truncated Fock basis.

    ``tail_mass`` is the Poisson mass the truncation discarded; the stored
    vector is renormalized to unit norm.
    """

    vector: VectorState
    tail_mass: float


def coherent_closed_form(alpha: complex, space: FockSpace, tail_tol: float = DEFAULT_TAIL_TOL) -> CoherentStateWH:
    """Coherent state from the closed-form coefficient expansion."""
    alpha = complex(alpha)
    tail = poisson_tail(abs(alpha) ** 2, space.dim)
    if tail > tail_tol:
        raise TruncationError(
            f"tail mass {tail:.3e} above tolerance {tail_tol:.1e}; "
            f"truncation {space.dim} is too small for |alpha|={abs(alpha):.3f}"
        )
    return CoherentStateWH(VectorState.from_unnormalized(coherent_amplitudes(alpha, space.dim)), tail)


@functools.lru_cache(maxsize=2)
def _position_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs of S = A + A+ (sqrt(2) times the truncated position operator), built from its band.

    An entry holds 8 (dim^2 + dim) bytes: 134 MB at verify's limit of 4096
    levels, so the two kept retain at most 268 MB.
    """
    return _tridiagonal_spectrum(np.sqrt(np.arange(1.0, dim)))


def _displace(alpha: complex, vec: np.ndarray) -> np.ndarray:
    """exp(alpha A+ - conj(alpha) A) vec = W exp(-i|alpha| S) W* vec, W = diag(e^{ik(arg alpha + pi/2)})."""
    if not np.isfinite(alpha):
        raise ValueError("displacement must be finite")
    phases = np.exp(1j * (np.angle(alpha) + 0.5 * math.pi) * np.arange(vec.size))
    return _phased_exponential(_position_spectrum(vec.size), -abs(alpha), phases, vec)


def _vacuum(dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0
    return vec


def bch_check(alpha: complex, rep: FockSpace) -> float:
    """Residual of exp(O1)exp(O2) = exp([O1,O2]/2) exp(O1+O2) on the vacuum.

    O1 = alpha A+ and O2 = -conj(alpha) A, whose commutator is
    -|alpha|^2 [A+, A], formed from the band b of A: A+ A and A A+ are
    diagonal, [0, b^2] and [b^2, 0], the very values their dense products
    give.  Both sides are evaluated with the matrix exponential, by
    independent routes: the single-band O1 and O2 by their terminating power
    series, the real diagonal commutator entry by entry, and the tridiagonal
    skew-Hermitian O1 + O2, with the phases of its band divided out, through
    the real SVD of its even/odd block.  The
    residual is small only when the truncation is large enough for |alpha|,
    so this doubles as a truncation probe.  Raises NonFiniteError when
    either side overflows.
    """
    alpha = complex(alpha)
    annihilation = rep.annihilation
    o1 = alpha * annihilation.T
    o2 = -np.conjugate(alpha) * annihilation
    squares = np.square(np.diagonal(annihilation, 1))
    vacuum = _vacuum(rep.dim)
    residual = math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy's power gives inf where |alpha|^2 overflows, where Python's ** raises OverflowError
        cross = -np.float64(abs(alpha)) ** 2 * (np.append(0.0, squares) - np.append(squares, 0.0))
        if np.isfinite(cross).all():
            lhs = matrix_exponential(o1) @ (matrix_exponential(o2) @ vacuum)
            rhs = matrix_exponential(np.diag(cross / 2.0)) @ (matrix_exponential(o1 + o2) @ vacuum)
            residual = float(np.linalg.norm(lhs - rhs))
    if not math.isfinite(residual):
        raise NonFiniteError(f"bch check overflows at |alpha|={abs(alpha):g} trunc={rep.dim}")
    return residual


def displacement_translation_check(alpha: complex, beta: complex, rep: FockSpace) -> tuple[float, complex]:
    """Check that displacement by beta translates the state at alpha to alpha+beta.

    Returns (overlap, phase) where overlap = |<v(alpha+beta), D(beta) v(alpha)>|
    and phase is the unit-modulus factor of that inner product, which should
    equal e^{i Im(beta conj(alpha))}, the twist of ``wh_multiply``.  Both are
    returned whatever the truncation: one too small for |alpha| + |beta|
    shows as an overlap away from 1, which the caller gates.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    vacuum = _vacuum(rep.dim)
    moved = _displace(beta, _displace(alpha, vacuum))
    direct = _displace(beta + alpha, vacuum)
    overlap_c = np.vdot(direct, moved)
    overlap = float(abs(overlap_c))
    return overlap, complex(overlap_c / overlap)
