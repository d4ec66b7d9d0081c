import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta

from cohstat import cli, fock, inference, spin
from cohstat.fock import poisson_pmf
from cohstat.inference import (
    FockCoherentFamily,
    InferredDistribution,
    ResolutionError,
    SpinCoherentFamily,
    analytic_binomial_posterior,
    analytic_poisson_posterior,
    credible_interval,
    infer_via_pov,
    inferred_density_binomial,
    inferred_density_poisson,
    plane_quadrature,
    polar_window,
    radial_window,
    resolution_of_identity_check,
    sphere_quadrature,
)
from cohstat.pv_measure import NonFiniteError, VectorState
from cohstat.spin import binomial_pmf, build_spin_rep, sphere_point_for_probability

from helpers import random_unit_vector


def basis_state(dim, k):
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return VectorState(vec)


def dense_amplitudes(family, principal, angle):
    """<phi_k, v> for every k on the product grid, shape (n_principal, n_angle, dim), phases included."""
    principal, angle = np.asarray(principal, dtype=float)[:, None], np.asarray(angle, dtype=float)[None, :]
    if family.kind == "plane":
        return fock.coherent_amplitudes(principal * np.exp(1j * angle), family.dim)
    return spin.coherent_amplitudes(family.rep, principal, angle)


def dense_transform(state, family, rule):
    """<phi, v(param)> at every node of ``rule``, shape (n_principal, n_angle)."""
    return dense_amplitudes(family, rule.principal_nodes, rule.angle_nodes) @ state.vector.conj()


def rule_sum(rule, values):
    """sum_{i,k} pw_i aw_k values_ik: the integral of values on the rule's product nodes."""
    return rule.principal_weights @ values @ rule.angle_weights


@dataclasses.dataclass(frozen=True)
class NarrowFockFamily(FockCoherentFamily):
    """The plane family with its window cut to rates in [0, 2.25], too narrow for counts past 0."""

    def window(self, observed):
        return 0.0, 2.25


def with_angle_nodes(rule, n_gamma):
    """``rule`` with its angle rule replaced by n_gamma uniform nodes."""
    gammas = 2.0 * math.pi * np.arange(n_gamma) / n_gamma
    return dataclasses.replace(rule, angle_nodes=gammas, angle_weights=np.full(n_gamma, 2.0 * math.pi / n_gamma))


class TestPlaneQuadrature:
    def test_constant_integrates_to_squared_radius(self):
        rule = plane_quadrature((0.0, 2.0), 40, 8)
        assert rule.principal_weights.sum() * rule.angle_weights.sum() == pytest.approx(4.0, rel=1e-13)

    def test_gaussian_normalization(self):
        rule = plane_quadrature((0.0, 12.0), 200, 16)
        r = rule.principal_nodes
        assert rule.principal_weights @ np.exp(-r * r) * rule.angle_weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_moments(self):
        # int e^{-r^2} (r^2)^m dmu = m! for m = 0..20
        rule = plane_quadrature((0.0, 12.0), 200, 8)
        r = rule.principal_nodes
        for m in range(21):
            quad = rule.principal_weights @ (np.exp(-r * r) * r ** (2 * m)) * rule.angle_weights.sum()
            assert abs(quad / math.factorial(m) - 1.0) < 1e-10

    def test_rejects_bad_arguments(self):
        for interval in ((0.0, 0.0), (2.0, 1.0), (-1.0, 1.0)):
            with pytest.raises(ValueError, match="radial interval"):
                plane_quadrature(interval, 10, 10)
        with pytest.raises(ValueError, match="node counts"):
            plane_quadrature((0.0, 1.0), 1, 10)


class TestSphereQuadrature:
    @pytest.mark.parametrize("j", [0.0, 0.5, 1.0, 5.0])
    def test_total_measure_is_dimension(self, j):
        rule = sphere_quadrature(j)
        assert rule.principal_weights.sum() * rule.angle_weights.sum() == pytest.approx(2.0 * j + 1.0, rel=1e-13)

    def test_success_probability_average(self):
        # int sin^2(theta/2) dmu = (2j+1)/2 = 1 at j = 1/2
        rule = sphere_quadrature(0.5)
        p = np.sin(rule.principal_nodes / 2.0) ** 2
        assert rule.principal_weights @ p * rule.angle_weights.sum() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0, 10.0])
    def test_2j_plus_1_angle_nodes_resolve_identity(self, j):
        # lags |k - l| reach at most 2j, so 2j + 1 uniform angle nodes alias none of them onto 0
        rep = build_spin_rep(j)
        rule = with_angle_nodes(sphere_quadrature(j), rep.two_j + 1)
        assert resolution_of_identity_check(SpinCoherentFamily(rep), rule) < 1e-12

    @pytest.mark.parametrize("j", [0.0, 0.5, 1.0, 5.0, 10.0])
    def test_default_node_counts(self, j):
        two_j = build_spin_rep(j).two_j
        rule = sphere_quadrature(j)
        assert (rule.principal_nodes.size, rule.angle_nodes.size) == (two_j + 2, 2 * two_j + 1)


class TestResolutionOfIdentity:
    def test_spin_half(self):
        assert resolution_of_identity_check(SpinCoherentFamily(build_spin_rep(0.5)), sphere_quadrature(0.5)) < 1e-13

    def test_spin_five(self):
        assert resolution_of_identity_check(SpinCoherentFamily(build_spin_rep(5.0)), sphere_quadrature(5.0)) < 1e-12

    def test_plane_leading_block(self):
        rule = plane_quadrature((0.0, 10.0), 200, 65)
        assert resolution_of_identity_check(FockCoherentFamily(32), rule, n_basis=20) < 1e-8

    def test_rejects_mismatched_kind(self):
        with pytest.raises(ValueError, match="does not match"):
            resolution_of_identity_check(FockCoherentFamily(8), sphere_quadrature(1.0))

    def test_rejects_bad_block(self):
        rule = plane_quadrature((0.0, 10.0), 50, 17)
        with pytest.raises(ValueError, match="n_basis"):
            resolution_of_identity_check(FockCoherentFamily(8), rule, n_basis=9)


class TestCoherentTransform:
    """The transform phi -> <phi, v(.)> on the plane is an isometry: the resolution of identity."""

    def test_vacuum_transform_is_gaussian(self):
        family = FockCoherentFamily(16)
        rule = plane_quadrature((0.0, 8.0), 60, 12)
        values = dense_transform(basis_state(16, 0), family, rule)
        lam = rule.principal_nodes[:, None] ** 2
        assert np.abs(np.abs(values) ** 2 - np.exp(-lam)).max() < 1e-15

    def test_isometry_on_basis_states(self):
        family = FockCoherentFamily(32)
        rule = plane_quadrature((0.0, 10.0), 200, 65)
        for n in (0, 3, 11, 19):
            values = dense_transform(basis_state(32, n), family, rule)
            assert rule_sum(rule, np.abs(values) ** 2) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality_preserved(self):
        family = FockCoherentFamily(32)
        rule = plane_quadrature((0.0, 10.0), 200, 65)
        first = dense_transform(basis_state(32, 2), family, rule)
        second = dense_transform(basis_state(32, 7), family, rule)
        assert abs(rule_sum(rule, first.conj() * second)) < 1e-8


class TestInferViaPov:
    def test_poisson_vacuum_posterior_is_exponential(self):
        grid = np.linspace(0.0, 11.0, 1101)  # unit rate is a grid node
        dist = infer_via_pov(0, FockCoherentFamily(16), grid)
        assert np.abs(dist.density - np.exp(-grid)).max() < 1e-12
        segment = grid <= 1.0
        mass = np.trapezoid(dist.density[segment], grid[segment])
        assert mass == pytest.approx(1.0 - math.exp(-1.0), abs=1e-5)
        assert mass == pytest.approx(0.6321206, abs=1e-5)

    def test_binomial_posterior_is_beta(self):
        dist = infer_via_pov(1, SpinCoherentFamily(build_spin_rep(1.0)))
        expected = 6.0 * dist.grid * (1.0 - dist.grid)
        assert np.abs(dist.density - expected).max() < 1e-12
        assert dist.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_no_success_density_vanishes_at_certainty(self):
        dist = infer_via_pov(0, SpinCoherentFamily(build_spin_rep(2.0)))
        assert dist.grid[-1] == 1.0
        assert dist.density[-1] < 1e-16

    def test_angular_slices_agree(self):
        # the magnitude a family reads is the modulus of its state's amplitude at every angle
        principal = np.array([0.7, 1.9])
        for family in (FockCoherentFamily(16), SpinCoherentFamily(build_spin_rep(7.5))):
            slices = np.abs(dense_amplitudes(family, principal, np.linspace(0.0, 6.0, 9))[:, :, 3]) ** 2
            assert np.abs(slices - family.amplitude_at(3, principal)[:, None] ** 2).max() < 1e-15

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_pov_box_masses_are_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        family = FockCoherentFamily(12)
        rule = plane_quadrature((0.0, 8.0), 50, 9)
        state = VectorState(random_unit_vector(rng, 12))
        values = np.abs(dense_transform(state, family, rule)) ** 2
        r = rule.principal_nodes
        low, high = sorted(rng.uniform(0.0, 8.0, size=2))
        box = (r >= low) & (r <= high)
        assert rule.principal_weights[box] @ values[box] @ rule.angle_weights >= 0.0

    def test_rejects_bad_observed_index(self):
        with pytest.raises(ValueError, match="observed index"):
            infer_via_pov(40, FockCoherentFamily(16))

    def test_rejects_insufficient_quadrature(self):
        with pytest.raises(ValueError, match="quadrature mass"):
            infer_via_pov(2, NarrowFockFamily(16))


def dense_posterior(observed, family, rule, grid):
    """Posterior from the full amplitude tensor, summing the rule's angle nodes."""
    joint = np.abs(dense_amplitudes(family, rule.principal_nodes, rule.angle_nodes)[:, :, observed]) ** 2
    mass = rule.principal_weights @ joint @ rule.angle_weights
    if rule.kind == "plane":
        principal, scale = np.sqrt(grid), 1.0 / (2.0 * math.pi)
    else:
        principal, scale = 2.0 * np.arcsin(np.sqrt(grid)), family.dim / (2.0 * math.pi)
    grid_joint = np.abs(dense_amplitudes(family, principal, rule.angle_nodes)[:, :, observed]) ** 2
    return scale * (grid_joint @ rule.angle_weights), mass


def dense_identity_residual(family, rule, n_basis):
    amplitudes = dense_amplitudes(family, rule.principal_nodes, rule.angle_nodes)[:, :, :n_basis]
    gram = np.einsum("i,k,ikm,ikl->ml", rule.principal_weights, rule.angle_weights, amplitudes, amplitudes.conj())
    return float(np.abs(gram - np.eye(n_basis)).max())


def coarse_angle_rule(j):
    """Sphere rule with 2j angle nodes, too few for sphere_quadrature: lag 2j aliases onto lag 0."""
    rule = sphere_quadrature(j)
    return with_angle_nodes(rule, rule.principal_nodes.size - 2)


class TestSeparableAmplitudes:
    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0, 10.0])
    def test_spin_posterior_matches_dense_reference(self, j):
        family = SpinCoherentFamily(build_spin_rep(j))
        grid = family.default_grid(0)
        for rule in (sphere_quadrature(j), coarse_angle_rule(j)):
            for observed in range(family.dim):
                dense, mass = dense_posterior(observed, family, rule, grid)
                dist = infer_via_pov(observed, family, grid)
                # subnormal densities near p = 0 or 1 carry no relative precision
                np.testing.assert_allclose(dist.density, dense, rtol=1e-13, atol=np.finfo(float).tiny)
                assert dist.total_mass == pytest.approx(mass, rel=1e-13, abs=0.0)

    def test_plane_posterior_matches_dense_reference(self):
        family = FockCoherentFamily(20)
        for observed in (0, 3, 11, 19):
            grid = family.default_grid(observed)
            rule = plane_quadrature(radial_window(observed), 200, 16)
            dense, mass = dense_posterior(observed, family, rule, grid)
            dist = infer_via_pov(observed, family, grid)
            np.testing.assert_allclose(dist.density, dense, rtol=1e-13, atol=np.finfo(float).tiny)
            assert dist.total_mass == pytest.approx(mass, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0, 10.0])
    def test_spin_identity_matches_dense_gram(self, j):
        family = SpinCoherentFamily(build_spin_rep(j))
        rule = sphere_quadrature(j)
        residual = resolution_of_identity_check(family, rule)
        assert residual < 1e-12
        assert abs(residual - dense_identity_residual(family, rule, family.dim)) < 1e-13

    def test_plane_identity_matches_dense_gram(self):
        family = FockCoherentFamily(32)
        rule = plane_quadrature((0.0, 10.0), 200, 65)
        residual = resolution_of_identity_check(family, rule, n_basis=20)
        assert abs(residual - dense_identity_residual(family, rule, 20)) < 1e-13

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0, 10.0])
    def test_coarse_angle_rule_shows_in_identity_check(self, j):
        family = SpinCoherentFamily(build_spin_rep(j))
        rule = coarse_angle_rule(j)
        residual = resolution_of_identity_check(family, rule)
        assert residual > 1e-6  # the check passes below 1e-12
        assert residual == pytest.approx(dense_identity_residual(family, rule, family.dim), rel=1e-12)

    def test_posterior_memory_is_linear_in_the_rule(self):
        # the dense angle tensor at j = 100 would need about 1.3 GB
        family = SpinCoherentFamily(build_spin_rep(100))
        tracemalloc.start()
        try:
            dist = infer_via_pov(60, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(dist.total_mass - 1.0) < 1e-10
        assert peak < 16 * 2**20

    def test_unresolved_rule_raises_resolution_error(self):
        with pytest.raises(ResolutionError, match="quadrature mass"):
            infer_via_pov(2, NarrowFockFamily(16))


class TestAnalyticDensities:
    def test_poisson_density_at_origin(self):
        assert inferred_density_poisson(0, 0.0) == 1.0
        assert inferred_density_poisson(3, 0.0) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 5, 20])
    def test_poisson_density_normalizes(self, n):
        upper = n + 1 + 40.0 * math.sqrt(n + 1)
        mass, _ = quad(lambda lam: inferred_density_poisson(n, lam), 0.0, upper, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 2, 7])
    def test_poisson_posterior_mean(self, n):
        upper = n + 1 + 40.0 * math.sqrt(n + 1)
        mean, _ = quad(lambda lam: lam * inferred_density_poisson(n, lam), 0.0, upper, limit=200)
        assert mean == pytest.approx(n + 1.0, abs=1e-8)

    def test_poisson_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="nonnegative"):
            inferred_density_poisson(0, -0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            inferred_density_poisson(-1, 1.0)

    def test_binomial_uniform_posterior(self):
        p = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(inferred_density_binomial(0, 0, p), np.ones(11))

    def test_binomial_quadratic_cases(self):
        p = np.linspace(0.0, 1.0, 101)
        assert np.abs(inferred_density_binomial(2, 1, p) - 6.0 * p * (1.0 - p)).max() < 1e-14
        assert np.abs(inferred_density_binomial(2, 2, p) - 3.0 * p**2).max() < 1e-14

    def test_binomial_posterior_mean(self):
        mean, _ = quad(lambda p: p * inferred_density_binomial(2, 1, p), 0.0, 1.0)
        assert mean == pytest.approx(0.5, abs=1e-12)

    def test_binomial_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="k <= n"):
            inferred_density_binomial(2, 3, 0.5)
        with pytest.raises(ValueError, match="p must lie"):
            inferred_density_binomial(2, 1, 1.5)

    def test_sampling_and_posterior_kernels_agree_exactly(self):
        alpha = 0.7 + 0.3j
        lam = abs(alpha) ** 2
        for n in (0, 1, 4, 9):
            assert poisson_pmf(alpha, n) == inferred_density_poisson(n, lam)

    def test_binomial_kernels_agree_exactly(self):
        rep = build_spin_rep(2.5)
        point = sphere_point_for_probability(0.37)
        p = math.sin(point.theta / 2.0) ** 2
        for k, m in enumerate(rep.m_values):
            assert inferred_density_binomial(5, k, p) == 6.0 * binomial_pmf(rep, point, m)


class TestRadialWindow:
    def test_window_is_centred_on_the_peak(self):
        assert radial_window(0) == (0.0, 12.0)
        assert radial_window(100) == (0.0, 22.0)
        assert radial_window(400) == (8.0, 32.0)
        assert radial_window(10**6) == (988.0, 1012.0)

    @given(log_count=st.floats(0.0, math.log1p(4e6)))
    @settings(max_examples=40, deadline=None)
    def test_window_rule_resolves_every_count(self, log_count):
        # the e^{-r^2} r^{2n} peak has the same width at every n, so 200 nodes on the window serve every count
        n = int(math.expm1(log_count))
        family = FockCoherentFamily(n + 1)
        grid = family.default_grid(n, 11)
        pov = infer_via_pov(n, family, grid)
        analytic = analytic_poisson_posterior(n, grid)
        assert abs(pov.total_mass - 1.0) < 1e-12
        assert abs(analytic.total_mass - 1.0) < 1e-12

    @given(log_count=st.floats(0.0, math.log1p(1e13)))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_default_grid_holds_the_gamma_mass_at_every_count(self, log_count):
        # the grid spans the mean n+1 +- 10 deviations, so its 2001 points keep pace with the width sqrt(n+1);
        # at n = 0 and 1 its top is 20, which leaves e^{-20} of Gamma(1, 1) above it
        n = int(math.expm1(log_count))
        grid = FockCoherentFamily(n + 1).default_grid(n)
        credible_interval(analytic_poisson_posterior(n, grid), 0.9999)
        if n <= 99:  # the clip at 0 leaves the grid as it was before it was centred, but for its top of 20 at n <= 1
            assert np.array_equal(grid, np.linspace(0.0, max(n + 1 + 10.0 * math.sqrt(n + 1), 20.0), 2001))


class TestPolarWindow:
    def test_window_is_centred_on_the_peak(self):
        assert polar_window(0, 0) == polar_window(58, 0) == polar_window(232, 116) == (0.0, math.pi)
        assert polar_window(10**6, 0) == (0.0, 0.024)
        assert polar_window(10**6, 10**6) == (math.pi - 0.024, math.pi)
        assert polar_window(10**4, 5000) == pytest.approx((math.pi / 2.0 - 0.24, math.pi / 2.0 + 0.24), abs=1e-15)

    @given(n=st.integers(0, 10**6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_window_holds_the_beta_mass(self, n, data):
        # b(k; n, sin^2(t/2)) <= e^{-n d^2/4} at a distance d from the peak: e^{-144} at the edges
        k = data.draw(st.integers(0, n))
        low, high = polar_window(n, k)
        a, b = k + 1, n - k + 1
        assert beta.cdf(math.sin(low / 2.0) ** 2, a, b) + beta.sf(math.sin(high / 2.0) ** 2, a, b) < 1e-50


class TestInferredDistributionValidation:
    def test_rejects_negative_density(self):
        with pytest.raises(ValueError, match="nonnegative"):
            InferredDistribution(np.array([0.0, 1.0]), np.array([1.0, -0.1]), 1.0)

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            InferredDistribution(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1.0)

    @pytest.mark.parametrize(
        "grid, density, mass",
        [
            ([0.0, math.nan], [1.0, 1.0], 1.0),
            ([0.0, 1.0], [1.0, math.inf], 1.0),
            ([0.0, 1.0], [math.nan, 1.0], 1.0),
            ([0.0, 1.0], [1.0, 1.0], math.nan),
            ([0.0, 1.0], [1.0, 1.0], math.inf),
        ],
    )
    def test_rejects_non_finite_values(self, grid, density, mass):
        with pytest.raises(NonFiniteError, match="non-finite"):
            InferredDistribution(np.array(grid), np.array(density), mass)

    def test_pov_route_reports_overflowed_amplitudes(self):
        # sqrt C(3000, 700) overflows, so the joint density holds inf * 0 = NaN
        rep = build_spin_rep(1500)
        with pytest.raises(NonFiniteError, match="non-finite quadrature mass"):
            with np.errstate(over="ignore", invalid="ignore"):
                infer_via_pov(700, SpinCoherentFamily(rep))


class TestMassGates:
    """Each route gates its posterior's mass once, and the record does not: ``infer_via_pov`` at the
    family's ``mass_tol``, the analytic posteriors at 1e-10; past its gate ``infer`` exits 1."""

    @staticmethod
    def _scale(monkeypatch, owner, name, factor):
        density = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: factor * density(*args))

    @staticmethod
    def _failure(capsys, argv):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        return captured.err

    def test_sphere_pov_mass_is_gated_at_1e_10(self, monkeypatch, capsys):
        self._scale(monkeypatch, SpinCoherentFamily, "density", 1.0 + 1e-9)
        err = self._failure(capsys, ["infer", "binomial", "--n", "20", "--k", "5"])
        assert err.startswith("numerical failure: quadrature mass ") and " beyond 1.0e-10; " in err

    def test_plane_pov_mass_is_gated_at_1e_6(self, monkeypatch, capsys):
        self._scale(monkeypatch, FockCoherentFamily, "density", 1.0 + 1e-5)
        err = self._failure(capsys, ["infer", "poisson", "--observed", "200"])
        assert err.startswith("numerical failure: quadrature mass ") and " beyond 1.0e-06; " in err

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("inferred_density_poisson", ["infer", "poisson", "--observed", "200"]),
            ("inferred_density_binomial", ["infer", "binomial", "--n", "20", "--k", "5"]),
        ],
        ids=["gamma", "beta"],
    )
    def test_analytic_mass_is_gated_at_1e_10(self, monkeypatch, capsys, name, argv):
        self._scale(monkeypatch, inference, name, 1.0 + 1e-9)
        err = self._failure(capsys, argv)
        assert err.startswith("numerical failure: total mass ") and err.endswith(" deviates from 1 beyond 1.0e-10\n")


def brute_force_interval(dist, mass):
    """Quadratic-time oracle for the shortest covering interval."""
    grid = dist.grid
    segments = 0.5 * (dist.density[1:] + dist.density[:-1]) * np.diff(grid)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    best = None
    for left in range(len(grid)):
        for right in range(left, len(grid)):
            window_mass = cumulative[right] - cumulative[left]
            if window_mass < mass:
                continue
            width = grid[right] - grid[left]
            key = (round(width, 12), -round(window_mass, 12), left)
            if best is None or key < best[0]:
                best = (key, left, right)
            break
    assert best is not None
    return float(grid[best[1]]), float(grid[best[2]])


def numpy_scalar_interval(dist, mass):
    """The two-pointer scan credible_interval ran before its vectorized search, kept as an exact reference."""
    grid = dist.grid
    segments = 0.5 * (dist.density[1:] + dist.density[:-1]) * np.diff(grid)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    width_tol = 1e-12 * max(1.0, float(grid[-1] - grid[0]))
    best = None
    right = 0
    for left in range(grid.shape[0]):
        right = max(right, left)
        while right < grid.shape[0] - 1 and cumulative[right] - cumulative[left] < mass:
            right += 1
        window_mass = float(cumulative[right] - cumulative[left])
        if window_mass < mass:
            break
        width = float(grid[right] - grid[left])
        shorter = best is None or width < best[0] - width_tol
        heavier_tie = best is not None and abs(width - best[0]) <= width_tol and window_mass > best[1]
        if shorter or heavier_tie:
            best = (width, window_mass, left, right)
    assert best is not None
    return float(grid[best[2]]), float(grid[best[3]])


@st.composite
def interval_cases(draw):
    """A posterior, flat or zero-run density on a uniform or uneven grid of 2-4096 points,
    with the trapezoid mass the grid supports."""
    points = draw(st.integers(2, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["posterior", "flat", "zero-run"]))
    if draw(st.booleans()):
        grid = np.linspace(0.0, 1.0, points)
    else:
        grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, points - 1))])
        grid /= grid[-1]
    if kind == "posterior":
        n = draw(st.integers(0, 2000))
        density = inferred_density_binomial(n, draw(st.integers(0, n)), grid)
    elif kind == "flat":
        density = np.ones(points)
    else:
        density = rng.random(points)
        for start in rng.integers(0, points, rng.integers(1, 4)):
            density[start : start + rng.integers(1, max(2, points // 4))] = 0.0
    grid = grid * draw(st.sampled_from([1e-3, 0.1, 1.0, 1e3]))
    segments = 0.5 * (density[1:] + density[:-1]) * np.diff(grid)
    if segments.sum() > 0.0:
        density = density / segments.sum()
    dist = InferredDistribution(grid, density, 1.0)
    return dist, float(np.cumsum(0.5 * (dist.density[1:] + dist.density[:-1]) * np.diff(dist.grid))[-1])


class TestCredibleInterval:
    @pytest.mark.parametrize("mass", [0.5, 0.9, 0.95])
    @pytest.mark.parametrize("n", [0, 1, 200, 999, 10**6])
    def test_poisson_matches_numpy_scalar_scan(self, n, mass):
        dist = analytic_poisson_posterior(n)
        assert credible_interval(dist, mass) == numpy_scalar_interval(dist, mass)

    @pytest.mark.parametrize("mass", [0.5, 0.9, 0.95])
    @pytest.mark.parametrize("n, k", [(0, 0), (20, 7), (200, 77), (2000, 1000), (1000, 0)])
    def test_binomial_matches_numpy_scalar_scan(self, n, k, mass):
        # (0, 0) is the flat density, where every window of the minimal width ties
        dist = analytic_binomial_posterior(n, k)
        assert credible_interval(dist, mass) == numpy_scalar_interval(dist, mass)

    @pytest.mark.parametrize("mass", [0.5, 0.9, 0.95])
    @pytest.mark.parametrize("points", [2, 3, 213])
    def test_flat_beta_on_small_grids_matches_numpy_scalar_scan(self, points, mass):
        dist = analytic_binomial_posterior(0, 0, np.linspace(0.0, 1.0, points))
        assert credible_interval(dist, mass) == numpy_scalar_interval(dist, mass)

    @pytest.mark.parametrize(
        "span, points, mass",
        [
            # base + mass rounds, so a plain search lands a grid step off the right end the scan takes
            (1e-3, 213, 0.5),
            (0.01, 41, 0.5),
            # the search for base + mass runs past the last grid point
            (0.1, 85, 0.75),
        ],
    )
    def test_flat_density_rounding_matches_numpy_scalar_scan(self, span, points, mass):
        grid = np.linspace(0.0, span, points)
        dist = InferredDistribution(grid, np.full(points, 1.0 / span), 1.0)
        assert credible_interval(dist, mass) == numpy_scalar_interval(dist, mass)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=interval_cases(), mass=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_matches_numpy_scalar_scan_on_any_grid(self, case, mass):
        dist, supported = case
        assume(mass <= supported)
        low, high = credible_interval(dist, mass)
        assert (low, high) == numpy_scalar_interval(dist, mass)
        assert type(low) is float and type(high) is float

    def test_symmetric_beta(self):
        dist = analytic_binomial_posterior(2, 1)
        low, high = credible_interval(dist, 0.5)
        step = dist.grid[1] - dist.grid[0]
        assert abs((low + high) - 1.0) <= 2.0 * step

    def test_monotone_gamma_starts_at_zero(self):
        dist = analytic_poisson_posterior(0)
        low, high = credible_interval(dist, 0.5)
        step = dist.grid[1] - dist.grid[0]
        assert low == 0.0
        assert abs(high - math.log(2.0)) <= step

    def test_near_total_mass_returns_full_support(self):
        dist = analytic_binomial_posterior(2, 1)
        low, high = credible_interval(dist, 1.0 - 1e-5)
        assert low <= dist.grid[1]
        assert high >= dist.grid[-2]

    @pytest.mark.parametrize("mass", [0.3, 0.5, 0.8])
    def test_matches_brute_force_oracle(self, mass):
        grid = np.linspace(0.0, 1.0, 101)
        dist = analytic_binomial_posterior(3, 2, grid)
        assert credible_interval(dist, mass) == brute_force_interval(dist, mass)

    def test_rejects_unreachable_mass(self):
        grid = np.linspace(0.0, 0.2, 50)
        density = inferred_density_binomial(2, 2, grid)
        dist = InferredDistribution(grid, density, 1.0)
        with pytest.raises(ValueError, match="cannot cover"):
            credible_interval(dist, 0.5)

    def test_unreachable_mass_is_reported_as_a_plain_float(self):
        grid = np.linspace(0.0, 0.2, 50)
        density = inferred_density_binomial(2, 2, grid)
        dist = InferredDistribution(grid, density, 1.0)
        supported = float(np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))[-1])
        with pytest.raises(ResolutionError) as raised:
            credible_interval(dist, 0.5)
        assert str(raised.value) == f"grid supports only mass {supported!r}, cannot cover 0.5"
        assert "np.float64(" not in str(raised.value)

    def test_rejects_degenerate_mass(self):
        dist = analytic_binomial_posterior(2, 1)
        with pytest.raises(ValueError, match="strictly between"):
            credible_interval(dist, 1.0)
