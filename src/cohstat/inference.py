"""POV-measure machinery and inferred distributions on parameter spaces.

A coherent family paired with its group-invariant measure (Lebesgue on the
plane with density 1/pi, or (2j+1)/(4pi) sin(theta) on the sphere) defines
a positive operator-valued measure.  For an observed basis state it yields
a probability distribution on the parameter space, which must reproduce
the Gamma(n+1, 1) and Beta(k+1, n-k+1) posterior densities, also provided
analytically for comparison.  The integrand |<phi_obs, v>|^2 = m_obs(principal)^2
does not depend on the angle, so the angle integrates out exactly: the
plane measure (1/pi) r dr dangle is (1/2pi) dlambda dangle, and the sphere
measure is (2j+1) dp dgamma / 2pi, with lambda = r^2 and p = sin^2(theta/2).
Each family states its posterior once on that canonical parameter: its
density m_obs(principal(x))^2 times that constant, the window that holds
its mass and its default grid, the one ``infer`` tabulates on:
uniform on the Gamma mean n+1 +- 10 sqrt(n+1), clipped at 0, its top at
least 20, or on [0, 1] for p.  The window of a count n is
``radial_window(n)`` squared, that of k in n trials ``polar_window(n, k)``
taken to p; both end where the density is below e^{-144} of its peak at
every count, so one rule size, ``RADIAL_NODES``, serves every n, for the
POV masses and the analytic ones alike.  The families read the real
magnitudes of ``fock`` and ``spin`` and never a phase.  The product rules
on the plane and the sphere serve the resolution-of-identity check, where
the angle nodes matter.  Every rule is built on a numpy Gauss-Legendre rule
(Halley's iteration on the Legendre recurrence).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock, spin
from .pv_measure import NonFiniteError
from .spin import SpinRep

__all__ = [
    "FockCoherentFamily",
    "InferredDistribution",
    "QuadratureRule",
    "ResolutionError",
    "SpinCoherentFamily",
    "analytic_binomial_posterior",
    "analytic_poisson_posterior",
    "credible_interval",
    "infer_via_pov",
    "inferred_density_binomial",
    "inferred_density_poisson",
    "plane_quadrature",
    "polar_window",
    "radial_window",
    "resolution_of_identity_check",
    "sphere_quadrature",
]

# Gauss-Legendre nodes of every posterior mass, POV and analytic: on radial_window(n) squared and
# on polar_window(n, k) taken to p.  Each window holds the same number of widths of its peak at
# every count, so 200 nodes resolve every n.  The identity check's plane rule has as many radii.
RADIAL_NODES = 200

_PLANE_MASS_TOL = 1e-6
_SPHERE_MASS_TOL = 1e-10
_ANALYTIC_MASS_TOL = 1e-10


class ResolutionError(ValueError):
    """A rule or grid does not resolve the distribution.

    Either the quadrature rule's mass misses 1, or the parameter grid holds
    less than a requested credible mass.
    """


@dataclass(frozen=True)
class QuadratureRule:
    """Product rule on the plane (polar) or the sphere.

    ``principal_nodes`` holds radii r for the plane and polar angles theta
    for the sphere; ``principal_weights`` already include the invariant
    measure density (r/pi, resp. (2j+1) sin(theta)-equivalent /(4pi)), so
    an integral against the measure is sum_{i,k} pw_i aw_k f(node_ik).
    """

    kind: str
    principal_nodes: np.ndarray
    principal_weights: np.ndarray
    angle_nodes: np.ndarray
    angle_weights: np.ndarray

    def __post_init__(self):
        if self.kind not in ("plane", "sphere"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if (self.principal_weights <= 0).any() or (self.angle_weights <= 0).any():
            raise ValueError("quadrature weights must be positive")


def _scaled_legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (P_n(x), P_{n-1}(x)), both times the same factor 2^(n-1) / lead_{n-1}.

    q_j = 2^j P_j / lead_j (lead_j the leading coefficient of P_j) obeys
    q_{j+1} = 2x q_j - 4j^2/(4j^2-1) q_{j-1}, three in-place operations per
    degree; then P_n / P_{n-1} = (2n-1)/(2n) q_n / q_{n-1}.
    """
    two_x = 2.0 * x
    previous, current, product = np.ones_like(x), two_x.copy(), np.empty_like(x)
    for j in range(1, n):
        np.multiply(two_x, current, out=product)
        previous *= -4.0 * j * j / (4.0 * j * j - 1.0)
        previous += product
        previous, current = current, previous
    return (2 * n - 1) / (2.0 * n) * current, previous


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] for n >= 1 nodes.

    The nodes x = cos(theta) with theta in (0, pi/2] start from Tricomi's
    estimate and take Halley steps in theta; f'' comes from Legendre's
    equation, f'' = -cot(theta) f' - n(n+1) f, so every step costs one
    recurrence.  The last step is applied to x itself, and each weight is
    2/(dP_n/dtheta)^2 at the root, with sin(theta) taken from the x the
    recurrence saw, so no digits are lost near +-1.  The weights are scaled
    to sum to 2, and the other half of the rule is the mirror image.
    Each size is built once and kept (the last 8 sizes), so both arrays
    are read-only.  numpy's ``leggauss`` does not replace it: at 200 nodes
    its weights are off by 2.2e-11 relative to a 40-digit mpmath
    reference, these by 4.6e-14, and it takes 4.4 ms against 0.7 ms (one
    BLAS thread, 2-core Xeon).
    """
    half = (n + 1) // 2
    k = np.arange(1, half + 1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n**3)) * np.cos((4 * k - 1) * math.pi / (4 * n + 2)))
    for _ in range(10):  # two passes from n = 3 on, three at n = 2
        x = np.cos(theta)
        sin = np.sqrt((1.0 - x) * (1.0 + x))
        p_n, p_previous = _scaled_legendre_pair(n, x)
        slope = n * (x * p_n - p_previous) / sin  # dP_n/dtheta, scaled as the terms
        ratio = p_n / slope
        bend = x / sin + n * (n + 1.0) * ratio  # -f''/f'
        step = ratio / (1.0 + 0.5 * ratio * bend)
        theta = theta - step
        if np.abs(step).max() < 1e-9:  # Halley's error is cubic: the next step would be below 1e-20
            break
    x = x + sin * step
    weights = 1.0 / (slope * (1.0 + step * bend)) ** 2
    nodes = np.concatenate([-x, x[::-1][n % 2 :]])
    if n % 2:
        nodes[half - 1] = 0.0
    weights = np.concatenate([weights, weights[::-1][n % 2 :]])
    weights *= 2.0 / math.fsum(weights.tolist())
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def plane_quadrature(radial_interval: tuple[float, float], n_r: int, n_angle: int) -> QuadratureRule:
    """Polar rule for the invariant plane measure (1/pi) r dr dangle.

    Gauss-Legendre on r in ``radial_interval`` = (low, high), 0 <= low <
    high, times a uniform periodic rule on the angle.
    """
    low, high = radial_interval
    if not 0 <= low < high:
        raise ValueError(f"radial interval must satisfy 0 <= low < high, got {radial_interval!r}")
    if n_r < 2 or n_angle < 2:
        raise ValueError(f"node counts must be at least 2, got n_r={n_r}, n_angle={n_angle}")
    x, w = _gauss_legendre(n_r)
    r = low + (high - low) * (x + 1.0) / 2.0
    radial_weights = ((high - low) / 2.0) * w * r / math.pi
    angles = 2.0 * math.pi * np.arange(n_angle) / n_angle
    angle_weights = np.full(n_angle, 2.0 * math.pi / n_angle)
    return QuadratureRule(
        kind="plane",
        principal_nodes=r,
        principal_weights=radial_weights,
        angle_nodes=angles,
        angle_weights=angle_weights,
    )


def sphere_quadrature(j) -> QuadratureRule:
    """Rule for the invariant sphere measure ((2j+1)/4pi) sin(theta) dtheta dgamma.

    Gauss-Legendre in cos(theta) on 2j+2 nodes over the whole sphere, times
    a uniform rule in gamma on 4j+1 nodes.  The polar integrands |m_k|^2 of
    the spin-j family are polynomials of degree 2j in cos(theta), which
    these nodes integrate exactly, and the angle integrands e^{-i(k-l)gamma}
    have lags |k-l| <= 2j, none of which a uniform rule of 2j+1 or more
    nodes aliases onto lag 0.
    """
    two_j = spin._as_two_j(j)
    n_gamma = 2 * two_j + 1
    u, w = _gauss_legendre(two_j + 2)
    theta = np.arccos(u)[::-1].copy()
    theta_weights = w[::-1] * (two_j + 1.0) / (4.0 * math.pi)
    gammas = 2.0 * math.pi * np.arange(n_gamma) / n_gamma
    gamma_weights = np.full(n_gamma, 2.0 * math.pi / n_gamma)
    return QuadratureRule(
        kind="sphere",
        principal_nodes=theta,
        principal_weights=theta_weights,
        angle_nodes=gammas,
        angle_weights=gamma_weights,
    )


def _amplitude_at(family, index: int, principal) -> np.ndarray:
    """<phi_index, v> at angle 0: the real magnitude m_index(principal), whose square holds at every angle."""
    return family.magnitudes(np.asarray(principal, dtype=float), index)


@dataclass(frozen=True)
class FockCoherentFamily:
    """Displacement coherent family on the plane, tracked on dim basis elements; magnitudes only.

    Its posterior density on the rate lambda = r^2 is m_n(sqrt(lambda))^2: the plane measure
    (1/pi) r dr dangle is (1/2pi) dlambda dangle, and the angle integrates to 2pi.
    """

    dim: int

    kind = "plane"
    mass_tol = _PLANE_MASS_TOL

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim!r}")

    magnitudes = staticmethod(fock.coherent_magnitudes)
    amplitude_at = _amplitude_at

    def window(self, observed: int) -> tuple[float, float]:
        low, high = radial_window(observed)
        return low**2, high**2

    def density(self, observed: int, lam) -> np.ndarray:
        return self.amplitude_at(observed, np.sqrt(lam)) ** 2

    def default_grid(self, observed: int, points: int = 2001) -> np.ndarray:
        """Uniform rate grid n+1 +- 10 sqrt(n+1), the Gamma(n+1, 1) mean +- 10 deviations, clipped at 0.

        Its top is at least 20: ten deviations above the mean leave e^{-11} of Gamma(1, 1) above 11, and 20
        leaves e^{-20}.  A wider grid at n = 1 would lose more to its coarser trapezoid steps: 1.7e-5 of the
        mass at a top of 28.
        """
        half_width = 10.0 * math.sqrt(observed + 1)
        return np.linspace(max(0.0, observed + 1 - half_width), max(observed + 1 + half_width, 20.0), points)


@dataclass(frozen=True)
class SpinCoherentFamily:
    """Rotation coherent family of a spin-j representation on the sphere; magnitudes only.

    Its posterior density on p = sin^2(theta/2) is (2j+1) m_k(2 arcsin(sqrt(p)))^2: the sphere
    measure ((2j+1)/4pi) sin(theta) dtheta dgamma is (2j+1) dp dgamma / 2pi.
    """

    rep: SpinRep

    kind = "sphere"
    mass_tol = _SPHERE_MASS_TOL

    @property
    def dim(self) -> int:
        return self.rep.dim

    def magnitudes(self, principal, k) -> np.ndarray:
        return spin.coherent_magnitudes(self.rep, principal, k)

    amplitude_at = _amplitude_at

    def window(self, observed: int) -> tuple[float, float]:
        low, high = polar_window(self.rep.two_j, observed)
        return math.sin(low / 2.0) ** 2, math.sin(high / 2.0) ** 2

    def density(self, observed: int, p) -> np.ndarray:
        return self.dim * self.amplitude_at(observed, 2.0 * np.arcsin(np.sqrt(p))) ** 2

    def default_grid(self, observed: int, points: int = 1001) -> np.ndarray:
        """Uniform success-probability grid on [0, 1], whatever the count."""
        return np.linspace(0.0, 1.0, points)


def resolution_of_identity_check(
    family: FockCoherentFamily | SpinCoherentFamily,
    rule: QuadratureRule,
    n_basis: int | None = None,
) -> float:
    """Max deviation of int <phi_k, v><v, phi_l> dmu from the Kronecker delta.

    As the amplitudes are m_k(principal) e^{+-ik angle}, the Gram matrix is
    (M^T diag(w_principal) M) times, entrywise, the Toeplitz angle factor
    T_kl = sum_g w_g e^{i(k-l) angle_g} over the rule's own angle nodes, so
    fewer angle nodes than basis elements (a lag aliases onto 0) still show.
    The family's sign of the phase would conjugate the Gram matrix, which
    leaves |gram - I| as it is, so the factor is written with one sign.

    For the spin family the integrands are trigonometric polynomials the
    rule integrates exactly, so the residual is quadrature rounding.  For
    the plane family the residual is limited by the radial cutoff and the
    number of tracked basis elements; ``n_basis`` restricts the check to
    the leading block.
    """
    if family.kind != rule.kind:
        raise ValueError(f"family kind {family.kind!r} does not match rule kind {rule.kind!r}")
    n_basis = family.dim if n_basis is None else n_basis
    if not 1 <= n_basis <= family.dim:
        raise ValueError(f"n_basis must lie in 1..{family.dim}, got {n_basis}")
    k = np.arange(n_basis)
    magnitude = family.magnitudes(rule.principal_nodes[:, None], k)
    principal_gram = (magnitude * rule.principal_weights[:, None]).T @ magnitude
    lags = np.arange(1 - n_basis, n_basis)
    angle_sums = np.exp(1j * np.multiply.outer(lags, rule.angle_nodes)) @ rule.angle_weights
    gram = principal_gram * angle_sums[np.subtract.outer(k, k) + n_basis - 1]
    return float(np.abs(gram - np.eye(n_basis)).max())


@dataclass(frozen=True)
class InferredDistribution:
    """Tabulated density over a canonical scalar parameter.

    ``total_mass`` is the Gauss-Legendre mass of the density on the
    family's window around its peak, not the trapezoid mass of the grid.
    The record does not gate it: ``infer_via_pov`` does, at the family's
    ``mass_tol``, and the analytic posteriors at ``_ANALYTIC_MASS_TOL``.
    """

    grid: np.ndarray
    density: np.ndarray
    total_mass: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        density = np.asarray(self.density, dtype=float)
        if grid.ndim != 1 or grid.shape != density.shape:
            raise ValueError("grid and density must be matching 1-d arrays")
        if not (np.isfinite(grid).all() and np.isfinite(density).all() and math.isfinite(self.total_mass)):
            raise NonFiniteError("distribution has non-finite grid, density or mass")
        if (np.diff(grid) <= 0).any():
            raise ValueError("grid must be strictly increasing")
        if (density < 0).any():
            raise ValueError("density must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)


def radial_window(n: int) -> tuple[float, float]:
    """Radii within 12 of sqrt(n), where e^{-r^2} r^{2n} peaks; at a distance d from sqrt(n)
    the integrand is below e^{-d^2} of its peak whatever n, so one rule size serves every count."""
    return max(0.0, math.sqrt(n) - 12.0), math.sqrt(n) + 12.0


def polar_window(n: int, k: int) -> tuple[float, float]:
    """Polar angles within 24/sqrt(n) of 2 arcsin(sqrt(k/n)), where sin^2(t/2) = k/n, clipped to [0, pi].

    By the Bhattacharyya bound, b(k; n, sin^2(t/2)) <= cos(d/2)^(2n) <= e^{-n d^2/4} at a distance d
    from that angle, so the edges sit at e^{-144} whatever n and k, as radial_window's do.  n = 0
    gives the whole sphere."""
    if n == 0:
        return 0.0, math.pi
    centre, half_width = 2.0 * math.asin(math.sqrt(k / n)), 24.0 / math.sqrt(n)
    return max(0.0, centre - half_width), min(math.pi, centre + half_width)


def inferred_density_poisson(n: int, lam) -> np.ndarray | float:
    """Gamma(n+1, 1) posterior density e^{-lam} lam^n / n! at rate lam."""
    if n < 0 or n != int(n):
        raise ValueError(f"count must be a nonnegative integer, got {n!r}")
    lam_arr = np.asarray(lam, dtype=float)
    if (lam_arr < 0).any():
        raise ValueError("rate must be nonnegative")
    value = fock._poisson_weight(lam_arr, int(n))
    return float(value) if np.isscalar(lam) else value


def inferred_density_binomial(n: int, k: int, p) -> np.ndarray | float:
    """Beta(k+1, n-k+1) posterior density (n+1) C(n,k) p^k (1-p)^{n-k}."""
    if n < 0 or n != int(n):
        raise ValueError(f"trial count must be a nonnegative integer, got {n!r}")
    if not 0 <= k <= n or k != int(k):
        raise ValueError(f"need 0 <= k <= n, got k={k!r}, n={n!r}")
    p_arr = np.asarray(p, dtype=float)
    if (p_arr < 0).any() or (p_arr > 1).any():
        raise ValueError("p must lie in [0, 1]")
    value = (n + 1) * spin._binomial_weight(int(n), int(k), p_arr)
    return float(value) if np.isscalar(p) else value


def _gauss_legendre_mass(density, low: float, high: float) -> float:
    x, w = _gauss_legendre(RADIAL_NODES)
    t = low + (high - low) * (x + 1.0) / 2.0
    return float(np.sum(w * density(t)) * (high - low) / 2.0)


def _tabulate(
    family: FockCoherentFamily | SpinCoherentFamily, observed: int, density, grid
) -> tuple[np.ndarray, np.ndarray, float]:
    """The grid (the family's default when None), ``density`` on it, and its mass on the family's window.

    ``density`` meets the grid first, so the analytic densities check their counts before the window
    reads them.
    """
    grid = family.default_grid(observed) if grid is None else np.asarray(grid, dtype=float)
    return grid, density(grid), _gauss_legendre_mass(density, *family.window(observed))


def _analytic_posterior(family, observed: int, density, grid) -> InferredDistribution:
    """``density`` tabulated by ``_tabulate``; raises ResolutionError when its mass misses 1 beyond 1e-10."""
    dist = InferredDistribution(*_tabulate(family, observed, density, grid))
    if not abs(dist.total_mass - 1.0) <= _ANALYTIC_MASS_TOL:
        raise ResolutionError(f"total mass {dist.total_mass!r} deviates from 1 beyond {_ANALYTIC_MASS_TOL:.1e}")
    return dist


def analytic_poisson_posterior(n: int, grid: np.ndarray | None = None) -> InferredDistribution:
    """Gamma(n+1, 1) posterior tabulated on the rate grid."""
    density = functools.partial(inferred_density_poisson, n)
    return _analytic_posterior(FockCoherentFamily(n + 1), n, density, grid)


def analytic_binomial_posterior(n: int, k: int, grid: np.ndarray | None = None) -> InferredDistribution:
    """Beta(k+1, n-k+1) posterior tabulated on the success-probability grid."""
    density = functools.partial(inferred_density_binomial, n, k)
    return _analytic_posterior(SpinCoherentFamily(SpinRep(two_j=n)), k, density, grid)


def infer_via_pov(
    observed: int, family: FockCoherentFamily | SpinCoherentFamily, grid: np.ndarray | None = None
) -> InferredDistribution:
    """Inferred distribution of the family's canonical parameter for an observed count.

    The joint density |<phi_obs, v>|^2 = m_obs(principal)^2 does not depend
    on the angle, so integrating it against the invariant measure leaves the
    family's ``density`` on its canonical parameter, which is tabulated on
    the grid and integrated over the family's window.  ``observed`` is the
    basis index: the count n for the plane family, the relabeled count
    k = j + ell for the spin family.  Raises ResolutionError when that mass
    misses 1 beyond the family's tolerance.
    """
    if not 0 <= observed < family.dim:
        raise ValueError(f"observed index {observed!r} outside 0..{family.dim - 1}")
    grid, density, total_mass = _tabulate(family, observed, functools.partial(family.density, observed), grid)
    if not math.isfinite(total_mass):
        raise NonFiniteError(f"non-finite quadrature mass {total_mass!r}: the family's amplitudes overflowed")
    if not abs(total_mass - 1.0) <= family.mass_tol:
        cause = "the rule does not resolve this family"
        if total_mass == 0.0:
            cause = "every magnitude on the window underflowed"
        raise ResolutionError(f"quadrature mass {total_mass!r} deviates from 1 beyond {family.mass_tol:.1e}; {cause}")
    return InferredDistribution(grid, density, total_mass)


def credible_interval(dist: InferredDistribution, mass: float) -> tuple[float, float]:
    """Shortest grid-supported interval holding at least the requested mass.

    Interval masses are trapezoidal on the grid, read as differences of the
    cumulative mass.  Each left end takes the first right end whose window's
    own difference reaches the mass.  Flat-topped densities admit many
    windows of the same minimal grid width, so every window within
    1e-12 max(1, span) of the narrowest ties; among them the heaviest wins,
    then the leftmost.  Raises ResolutionError when no grid interval reaches
    the mass.
    """
    if not 0.0 < mass < 1.0:
        raise ValueError(f"mass must lie strictly between 0 and 1, got {mass!r}")
    grid = dist.grid
    segments = 0.5 * (dist.density[1:] + dist.density[:-1]) * np.diff(grid)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    if cumulative[-1] < mass:
        raise ResolutionError(f"grid supports only mass {float(cumulative[-1])!r}, cannot cover {mass!r}")
    lefts = np.flatnonzero(cumulative[-1] - cumulative >= mass)
    base = cumulative[lefts]
    rights = np.minimum(np.searchsorted(cumulative, base + mass), cumulative.size - 1)
    # base + mass rounds: step over runs of equal sums until the window's own
    # difference cumulative[r] - base picks the first right end reaching the mass
    while (short := cumulative[rights] - base < mass).any():
        rights[short] = np.searchsorted(cumulative, cumulative[rights[short]], "right")
    while (early := (rights > lefts) & (cumulative[rights - 1] - base >= mass)).any():
        rights[early] = np.searchsorted(cumulative, cumulative[rights[early] - 1])
    widths = grid[rights] - grid[lefts]
    narrowest = np.flatnonzero(widths <= widths.min() + 1e-12 * max(1.0, grid[-1] - grid[0]))
    best = narrowest[np.argmax(cumulative[rights[narrowest]] - base[narrowest])]
    return float(grid[lefts[best]]), float(grid[rights[best]])
