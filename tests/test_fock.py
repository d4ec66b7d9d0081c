import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cohstat import fock
from cohstat.fock import (
    FockSpace,
    TruncationError,
    WHGroupElement,
    bch_check,
    build_ladder,
    coherent_closed_form,
    default_truncation,
    displacement_translation_check,
    poisson_pmf,
    poisson_tail,
    wh_multiply,
)
from cohstat.linops import matrix_exponential
from cohstat.pv_measure import NonFiniteError

from helpers import phase_aligned_distance

finite_complex = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


def basis_vector(dim, k):
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


class TestBuildLadder:
    def test_smallest_space(self):
        rep = build_ladder(2)
        assert np.array_equal(rep.annihilation, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert np.array_equal(rep.number, np.diag([0.0, 1.0]).astype(complex))

    def test_carries_only_dim_and_real_matrices(self):
        rep = build_ladder(8)
        assert [field.name for field in dataclasses.fields(rep)] == ["dim"]
        for matrix in (rep.annihilation, rep.creation, rep.number):
            assert matrix.dtype == np.float64

    @pytest.mark.parametrize("dim", [12, 512])
    def test_ladder_relations(self, dim):
        rep = build_ladder(dim)
        annihilation, creation, number = rep.annihilation, rep.creation, rep.number
        for k in range(dim):
            down = annihilation @ basis_vector(dim, k)
            expected = math.sqrt(k) * basis_vector(dim, k - 1) if k > 0 else np.zeros(dim)
            assert np.array_equal(down, expected)
            up = creation @ basis_vector(dim, k)
            expected = math.sqrt(k + 1) * basis_vector(dim, k + 1) if k < dim - 1 else np.zeros(dim)
            assert np.array_equal(up, expected)
            assert np.array_equal(number @ basis_vector(dim, k), k * basis_vector(dim, k))

    def test_number_is_creation_annihilation_product(self):
        rep = build_ladder(32)
        assert np.abs(rep.creation @ rep.annihilation - rep.number).max() < 1e-12

    def test_repeated_creation_builds_basis(self):
        # (A+)^k phi_0 = sqrt(k!) phi_k
        rep = build_ladder(12)
        vec = basis_vector(12, 0)
        for k in range(1, 12):
            vec = rep.creation @ vec
            expected = math.sqrt(math.factorial(k)) * basis_vector(12, k)
            assert np.abs(vec - expected).max() < 1e-9 * math.sqrt(math.factorial(k))

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_ladder(1)


class TestGroupLaw:
    def test_identity_element(self):
        g = WHGroupElement(0.7, 1.2 - 0.3j)
        assert wh_multiply(g, WHGroupElement(0.0, 0.0)) == g
        assert wh_multiply(WHGroupElement(0.0, 0.0), g) == g

    def test_twist_term(self):
        product = wh_multiply(WHGroupElement(0.0, 1.0), WHGroupElement(0.0, 1.0j))
        assert product == WHGroupElement(-1.0, 1.0 + 1.0j)

    def test_inverse(self):
        g = WHGroupElement(0.4, 2.0 - 1.0j)
        inverse = WHGroupElement(-g.s, -g.alpha)
        assert wh_multiply(g, inverse) == WHGroupElement(0.0, 0.0)
        assert wh_multiply(inverse, g) == WHGroupElement(0.0, 0.0)

    @given(a=finite_complex, b=finite_complex, c=finite_complex)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, a, b, c):
        g1, g2, g3 = WHGroupElement(0.1, a), WHGroupElement(-0.2, b), WHGroupElement(0.3, c)
        left = wh_multiply(wh_multiply(g1, g2), g3)
        right = wh_multiply(g1, wh_multiply(g2, g3))
        assert left.alpha == pytest.approx(right.alpha, abs=1e-12)
        assert left.s == pytest.approx(right.s, abs=1e-12)


class TestCoherentClosedForm:
    def test_vacuum(self):
        state = coherent_closed_form(0.0, FockSpace(8))
        assert np.array_equal(state.vector.vector, basis_vector(8, 0))
        assert state.tail_mass == 0.0

    @given(s=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=25, deadline=None)
    def test_central_parameter_is_pure_phase(self, s):
        # the group element (s; alpha) acts as e^{is} D(alpha): the central
        # parameter never reaches the probabilities
        state = coherent_closed_form(1.2, FockSpace(64))
        shifted = np.exp(1j * s) * state.vector.vector
        assert phase_aligned_distance(shifted, state.vector.vector) < 1e-14
        assert np.abs(np.abs(shifted) ** 2 - np.abs(state.vector.vector) ** 2).max() < 1e-15

    def test_coefficients_are_poisson_weights(self):
        state = coherent_closed_form(1.0, FockSpace(64))
        for n in range(20):
            assert abs(abs(state.vector.vector[n]) ** 2 - poisson_pmf(1.0, n)) < 1e-12

    def test_tail_is_negligible_at_unit_displacement(self):
        assert coherent_closed_form(1.0, FockSpace(64)).tail_mass < 1e-15

    def test_rejects_insufficient_truncation(self):
        with pytest.raises(TruncationError, match="tail mass"):
            coherent_closed_form(4.0, FockSpace(8))

    def test_tail_against_brute_force_sum(self):
        brute = 1.0 - sum(poisson_pmf(1.0, n) for n in range(10))
        assert poisson_tail(1.0, 10) == pytest.approx(brute, abs=1e-12)

    def test_tail_far_below_the_mean_sums_nothing(self):
        # 64 levels lie about 10**5 standard deviations below the mean 1e10: the tail is 1.0 in double
        # precision, and summing the 2 * 10**6 terms around the mean took seconds and hundreds of MiB
        tracemalloc.start()
        try:
            tail = poisson_tail(1e10, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tail == 1.0
        assert peak < 2**20

    def test_default_truncation_bounds_tail(self):
        for alpha in (0.3, 1.0, 3.0):
            assert poisson_tail(abs(alpha) ** 2, default_truncation(alpha)) < 1e-15


class TestCoherentViaExponential:
    """The second route to a coherent state: the displacement applied to the vacuum."""

    def test_vacuum(self):
        vec = fock._displace(0.0, fock._vacuum(8))
        assert np.abs(vec - basis_vector(8, 0)).max() < 1e-14

    @pytest.mark.parametrize("alpha,dim", [(1.0, 64), (2.0j, 128), (1.5 - 1.0j, 64), (3.0, 64)])
    def test_matches_closed_form(self, alpha, dim):
        via_exp = fock._displace(alpha, fock._vacuum(dim))
        closed = coherent_closed_form(alpha, build_ladder(dim))
        assert phase_aligned_distance(via_exp, closed.vector.vector) < 1e-10


class TestBCH:
    def test_zero_displacement(self):
        assert bch_check(0.0, build_ladder(8)) == 0.0

    def test_well_truncated(self):
        assert bch_check(1.0, build_ladder(64)) < 1e-10

    def test_under_truncated_probe(self):
        assert bch_check(3.0, build_ladder(16)) > 1e-3

    # at two levels the commutator diag(|alpha|^2, -|alpha|^2) overflows past |alpha| = 1.34e154,
    # and below that its exponential e^{|alpha|^2 / 2} does
    @pytest.mark.parametrize("alpha", [1.5e154, 1e154j, 1e10])
    def test_overflow_is_a_non_finite_error(self, alpha):
        with pytest.raises(NonFiniteError, match="trunc=2"):
            bch_check(alpha, build_ladder(2))

    @pytest.mark.parametrize("trunc", [64, 256])
    @pytest.mark.parametrize("radius", [1.0, 2.0, 3.0])
    def test_well_truncated_at_cli_sizes(self, radius, trunc):
        alpha = radius * np.exp(0.7j)
        assert bch_check(alpha, build_ladder(trunc)) < 1e-10

    # the commutator comes from the band of A: the residual is that of the dense products bit for bit
    @pytest.mark.parametrize(
        "alpha, trunc",
        [(0.0, 64), (1.0, 64), (3 + 1j, 64), (0.0, 255), (1.0, 255), (3 + 1j, 255), (0.0, 256), (1.0, 256),
         (3 + 1j, 256), (4.4, 64)],
    )
    def test_equals_dense_commutator_reference(self, alpha, trunc):
        rep = build_ladder(trunc)
        a = rep.annihilation
        o1, o2 = alpha * a.T, -np.conjugate(alpha) * a
        cross = -np.float64(abs(alpha)) ** 2 * (a.T @ a - a @ a.T)
        vacuum = basis_vector(trunc, 0)
        lhs = matrix_exponential(o1) @ (matrix_exponential(o2) @ vacuum)
        rhs = matrix_exponential(cross / 2.0) @ (matrix_exponential(o1 + o2) @ vacuum)
        residual = bch_check(alpha, rep)
        assert residual == float(np.linalg.norm(lhs - rhs))
        assert (residual > 1e-10) == (alpha == 4.4)  # 64 levels are too few for alpha 4.4

    def test_overflow_at_cli_truncation(self):
        with pytest.raises(NonFiniteError, match="trunc=64"):
            bch_check(1e200, build_ladder(64))


class TestPoissonPmf:
    def test_vacuum_count(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_unit_rate(self):
        assert poisson_pmf(1.0, 1) == pytest.approx(0.36787944117144233, abs=1e-16)
        assert poisson_pmf(1.0, 1) == pytest.approx(math.exp(-1.0), abs=1e-16)

    def test_rate_four(self):
        oracle = math.exp(-4.0) * 4.0**4 / math.factorial(4)
        assert poisson_pmf(2.0, 4) == pytest.approx(oracle, abs=1e-15)
        assert poisson_pmf(2.0, 4) == pytest.approx(0.19536681, abs=1e-8)

    def test_matches_inner_product_route(self):
        state = coherent_closed_form(1.3 + 0.4j, FockSpace(64))
        for n in range(15):
            amplitude = state.vector.vector[n]
            assert abs(abs(amplitude) ** 2 - poisson_pmf(1.3 + 0.4j, n)) < 1e-12

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            poisson_pmf(1.0, -1)

    @given(lam=st.floats(0.0, 6.0), chi=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_phase_covariance(self, lam, chi):
        alpha = math.sqrt(lam)
        rotated = alpha * np.exp(1j * chi)
        for n in (0, 1, 4):
            assert abs(poisson_pmf(alpha, n) - poisson_pmf(rotated, n)) < 1e-13

    @given(lam=st.floats(0.0, 9.0))
    @settings(max_examples=30, deadline=None)
    def test_total_mass_accounts_for_tail(self, lam):
        dim = 48
        total = sum(poisson_pmf(math.sqrt(lam), n) for n in range(dim))
        assert abs(total - (1.0 - poisson_tail(lam, dim))) < 1e-12


class TestTranslationProperty:
    def test_no_displacement(self):
        overlap, phase = displacement_translation_check(1.0, 0.0, build_ladder(32))
        assert abs(overlap - 1.0) < 1e-12
        assert abs(phase - 1.0) < 1e-12

    def test_quarter_turn_phase(self):
        # Im(beta conj(alpha)) = Im(i * 1) = 1
        _, phase = displacement_translation_check(1.0, 1.0j, build_ladder(64))
        assert abs(phase - np.exp(1.0j)) < 1e-8

    def test_aligned_displacements_have_no_phase(self):
        # Im(beta conj(alpha)) = Im(i * (-i)) = 0
        _, phase = displacement_translation_check(1.0j, 1.0j, build_ladder(64))
        assert abs(phase - 1.0) < 1e-8

    def test_insufficient_truncation_shows_in_the_overlap(self):
        # collinear displacements commute even when truncated, so the
        # probe needs a pair with a genuine twist; 16 levels are too few for
        # it, and the overlap far from 1 is returned for the caller to gate
        overlap, _ = displacement_translation_check(3.0, 3.0j, build_ladder(16))
        assert overlap == pytest.approx(0.37134044801729, abs=1e-12)

    def test_phase_matches_analytic_value_at_trunc_128(self):
        alpha, beta = 1.5 - 1.2j, -0.9 + 1.6j
        overlap, phase = displacement_translation_check(alpha, beta, build_ladder(128))
        assert abs(overlap - 1.0) < 1e-12
        assert abs(phase - np.exp(1j * (beta * np.conjugate(alpha)).imag)) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_phase_matches_analytic_value(self, seed):
        rng = np.random.default_rng(seed)
        rep = build_ladder(64)
        alpha, beta = (
            2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(2)
        )
        overlap, phase = displacement_translation_check(alpha, beta, rep)
        assert abs(overlap - 1.0) < 1e-8
        assert abs(phase - np.exp(1j * (beta * np.conjugate(alpha)).imag)) < 1e-8


class TestSpectralDisplacement:
    """D(alpha) applied through the eigenpairs of A + A+, against scipy's dense expm."""

    @given(
        dim=st.sampled_from([2, 16, 64, 128, 256]),
        radius=st.floats(0.0, 4.0),
        angle=st.floats(0.0, 2.0 * math.pi),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    @example(dim=256, radius=0.0, angle=0.0, seed=None)
    @example(dim=256, radius=0.0, angle=1.0, seed=7)
    @example(dim=256, radius=4.0, angle=2.5, seed=11)
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_exponential(self, dim, radius, angle, seed):
        alpha = radius * np.exp(1j * angle)
        if seed is None:
            vec = basis_vector(dim, 0)
        else:
            rng = np.random.default_rng(seed)
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
        rep = build_ladder(dim)
        reference = expm(alpha * rep.creation - np.conjugate(alpha) * rep.annihilation) @ vec
        displaced = fock._displace(alpha, vec)
        assert np.abs(displaced - reference).max() < 1e-12
        assert abs(np.linalg.norm(displaced) - np.linalg.norm(vec)) < 1e-13

    def test_rejects_non_finite_displacement(self):
        with pytest.raises(ValueError, match="finite"):
            displacement_translation_check(complex(np.nan, 0.0), 1.0, build_ladder(8))

    def test_only_bch_forms_dense_exponentials(self, monkeypatch):
        shapes = []

        def counting(m):
            shapes.append(np.shape(m))
            return matrix_exponential(m)

        monkeypatch.setattr(fock, "matrix_exponential", counting)
        rep = build_ladder(32)
        displacement_translation_check(1.0 - 0.5j, 0.7j, rep)
        assert shapes == []
        bch_check(1.0, rep)
        assert shapes == [(32, 32)] * 4
