import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstat import spin
from cohstat.linops import matrix_exponential
from cohstat.spin import (
    SpherePoint,
    binomial_pmf,
    build_spin_rep,
    coherent_amplitudes,
    gauss_decomposition_check,
    rotation_matrix,
    so3_basis,
    sphere_point_for_probability,
    spin_coherent_closed_form,
)

from helpers import phase_aligned_distance

half_integers = st.integers(0, 50).map(lambda two_j: two_j / 2.0)
sphere_points = st.builds(
    SpherePoint,
    theta=st.floats(0.0, math.pi, exclude_max=True, allow_nan=False),
    gamma=st.floats(0.0, 2.0 * math.pi, exclude_max=True, allow_nan=False),
)


def basis_vector(dim, k):
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


class TestSO3Basis:
    def test_printed_z_generator(self):
        _, _, e3 = so3_basis()
        assert np.array_equal(e3, np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))

    def test_commutation_table(self):
        e1, e2, e3 = so3_basis()
        assert np.array_equal(e1 @ e2 - e2 @ e1, e3)
        assert np.array_equal(e2 @ e3 - e3 @ e2, e1)
        assert np.array_equal(e3 @ e1 - e1 @ e3, e2)

    def test_antisymmetric(self):
        for e in so3_basis():
            assert np.array_equal(e.T, -e)

    @pytest.mark.parametrize("t", [0.0, 0.4, 1.7, 3.0])
    def test_exponential_is_z_rotation(self, t):
        _, _, e3 = so3_basis()
        rotation = np.array(
            [
                [math.cos(t), -math.sin(t), 0.0],
                [math.sin(t), math.cos(t), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert np.abs(matrix_exponential(t * e3) - rotation).max() < 1e-13


class TestBuildSpinRep:
    def test_spin_half_matrices(self):
        rep = build_spin_rep(0.5)
        assert np.array_equal(rep.j3, np.diag([-0.5, 0.5]).astype(complex))
        assert np.array_equal(rep.j_plus, np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex))
        assert np.array_equal(rep.j_minus, rep.j_plus.conj().T)

    def test_carries_only_two_j_and_real_matrices(self):
        rep = build_spin_rep(2.5)
        assert [field.name for field in dataclasses.fields(rep)] == ["two_j"]
        for matrix in (rep.j_plus, rep.j_minus, rep.j3):
            assert matrix.dtype == np.float64

    def test_trivial_representation(self):
        rep = build_spin_rep(0)
        assert rep.dim == 1
        assert np.abs(rep.j3).max() == 0.0
        assert np.abs(rep.j_plus).max() == 0.0

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError, match="half-integer"):
            build_spin_rep(0.3)
        with pytest.raises(ValueError, match="half-integer"):
            build_spin_rep(-1.0)

    def test_ladder_endpoints_annihilate(self):
        rep = build_spin_rep(2.5)
        assert np.abs(rep.j_plus @ basis_vector(rep.dim, rep.dim - 1)).max() == 0.0
        assert np.abs(rep.j_minus @ basis_vector(rep.dim, 0)).max() == 0.0

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 10.0, 25.0])
    def test_commutation_relations(self, j):
        rep = build_spin_rep(j)
        j3, j_plus, j_minus = rep.j3, rep.j_plus, rep.j_minus
        assert np.abs(j3 @ j_plus - j_plus @ j3 - j_plus).max() < 1e-12
        assert np.abs(j3 @ j_minus - j_minus @ j3 + j_minus).max() < 1e-12
        assert np.abs(j_plus @ j_minus - j_minus @ j_plus - 2.0 * j3).max() < 1e-12

    def test_repeated_raising_from_lowest_weight(self):
        # (J+)^{j+m} phi_{-j} = sqrt((j+m)! (2j)! / (j-m)!) phi_m
        rep = build_spin_rep(3.5)
        vec = basis_vector(rep.dim, 0)
        for k in range(1, rep.dim):
            vec = rep.j_plus @ vec
            expected = math.sqrt(
                math.factorial(k) * math.factorial(rep.two_j) / math.factorial(rep.two_j - k)
            )
            assert abs(vec[k] - expected) < 1e-12 * expected
            assert np.abs(np.delete(vec, k)).max() == 0.0


class TestSpherePoint:
    def test_rejects_south_pole(self):
        with pytest.raises(ValueError, match="theta"):
            SpherePoint(math.pi, 0.0)

    def test_rejects_azimuth_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            SpherePoint(1.0, 2.0 * math.pi)

    def test_probability_roundtrip(self):
        point = sphere_point_for_probability(0.3)
        assert math.sin(point.theta / 2.0) ** 2 == pytest.approx(0.3, abs=1e-15)

    def test_rejects_certain_success(self):
        with pytest.raises(ValueError, match="p must lie"):
            sphere_point_for_probability(1.0)


def coset_representative(point):
    """SU(2) coset representative exp((i theta/2)(sin g sigma1 - cos g sigma2)) of a sphere point (Pauli sigmas).

    It is the spin-1/2 rotation matrix, written in the defining basis, which
    orders the weights highest first.
    """
    return rotation_matrix(build_spin_rep(0.5), point)[::-1, ::-1]


class TestCosetElement:
    def test_north_pole_is_identity(self):
        assert np.array_equal(coset_representative(SpherePoint(0.0, 1.0)), np.eye(2))

    @given(point=sphere_points)
    @settings(max_examples=40, deadline=None)
    def test_special_unitary(self, point):
        g = coset_representative(point)
        assert np.abs(g.conj().T @ g - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(g) - 1.0) < 1e-12

    def test_quarter_rotation(self):
        g = coset_representative(SpherePoint(math.pi / 2.0, 0.0))
        c = math.cos(math.pi / 4.0)
        expected = np.array([[c, -c], [c, c]])
        assert np.abs(g - expected).max() < 1e-14


class TestRotationMatrix:
    # Bounds from measurement: over 20000 seeded cases (2j 0-40, theta in [0, pi), gamma in
    # [0, 2 pi)) the largest |R - expm| was 80 eps, at 2j = 31 and theta near pi, and the
    # largest unitarity defect 29.5 eps; 200 eps and 75 eps leave a margin of 2.5x.
    @given(
        two_j=st.integers(0, 40),
        theta=st.floats(0.0, math.pi, exclude_max=True),
        gamma=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_expm(self, two_j, theta, gamma):
        rep = build_spin_rep(two_j / 2.0)
        j_plus = rep.j_plus
        j1, j2 = (j_plus + j_plus.T) / 2.0, (j_plus - j_plus.T) / 2.0j
        oracle = scipy.linalg.expm(1j * theta * (math.sin(gamma) * j1 - math.cos(gamma) * j2))
        rotation = rotation_matrix(rep, SpherePoint(theta, gamma))
        eps = np.finfo(float).eps
        assert np.abs(rotation - oracle).max() <= 200.0 * eps
        assert np.abs(rotation.conj().T @ rotation - np.eye(rep.dim)).max() <= 75.0 * eps

    @pytest.mark.parametrize("two_j", [0, 1, 20, 41])
    def test_zero_angle_is_exact_identity(self, two_j):
        rotation = rotation_matrix(build_spin_rep(two_j / 2.0), SpherePoint(0.0, 2.5))
        assert np.array_equal(rotation, np.eye(two_j + 1))


class TestSpinCoherentClosedForm:
    def test_north_pole_is_lowest_weight(self):
        rep = build_spin_rep(2.0)
        state = spin_coherent_closed_form(rep, SpherePoint(0.0, 0.9))
        assert np.array_equal(state.vector, basis_vector(5, 0))

    @given(j=half_integers, point=sphere_points)
    @settings(max_examples=40, deadline=None)
    def test_exact_unit_norm(self, j, point):
        state = spin_coherent_closed_form(build_spin_rep(j), point)
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-14

    def test_squared_amplitudes_are_binomial(self):
        rep = build_spin_rep(4.5)
        point = SpherePoint(1.2, 2.7)
        state = spin_coherent_closed_form(rep, point)
        for k, m in enumerate(rep.m_values):
            assert abs(abs(state.vector[k]) ** 2 - binomial_pmf(rep, point, m)) < 1e-14

    def test_spin_one_reproduces_three_level_family(self):
        # outcome probabilities (cos^4, 2 sin^2 cos^2, sin^4) of the
        # three-level example, indexed k = 0, 1, 2
        rep = build_spin_rep(1.0)
        theta = 1.9
        state = spin_coherent_closed_form(rep, SpherePoint(theta, 0.0))
        half = theta / 2.0
        expected = [
            math.cos(half) ** 4,
            2.0 * math.sin(half) ** 2 * math.cos(half) ** 2,
            math.sin(half) ** 4,
        ]
        assert np.abs(np.abs(state.vector) ** 2 - expected).max() < 1e-14

    @given(point=sphere_points)
    @settings(max_examples=30, deadline=None)
    def test_moduli_independent_of_azimuth(self, point):
        rep = build_spin_rep(3.0)
        reference = np.abs(coherent_amplitudes(rep, point.theta, 0.0))
        rotated = np.abs(coherent_amplitudes(rep, point.theta, point.gamma))
        assert np.abs(reference - rotated).max() < 1e-15


class TestSpinCoherentViaExponential:
    """The second route to a spin coherent state: the rotation applied to phi_{-j}, its first column."""

    def test_north_pole(self):
        column = rotation_matrix(build_spin_rep(1.5), SpherePoint(0.0, 0.0))[:, 0]
        assert np.abs(column - basis_vector(4, 0)).max() < 1e-14

    @pytest.mark.parametrize("j", [0.5, 1.0, 5.0, 12.5, 25.0])
    def test_matches_closed_form(self, j):
        rep = build_spin_rep(j)
        point = SpherePoint(1.1, 2.3)
        closed = spin_coherent_closed_form(rep, point)
        assert phase_aligned_distance(rotation_matrix(rep, point)[:, 0], closed.vector) < 1e-10

    def test_spin_half_matches_defining_representation(self):
        # 2x2 oracle: exp((i theta/2)(sin g M1 - cos g M2)) acting on the
        # lowest weight column; the defining basis orders weights highest
        # first, so the closed form is its second column reversed
        point = SpherePoint(0.9, 1.4)
        half, g = point.theta / 2.0, point.gamma
        oracle = np.array([math.cos(half), -math.sin(half) * np.exp(-1j * g)])
        assert np.abs(rotation_matrix(build_spin_rep(0.5), point)[:, 0] - oracle).max() < 1e-13


class TestGaussDecomposition:
    def test_north_pole_residual_vanishes(self):
        assert gauss_decomposition_check(build_spin_rep(2.0), SpherePoint(0.0, 0.0)) == 0.0

    def test_spin_one(self):
        residual = gauss_decomposition_check(build_spin_rep(1.0), SpherePoint(math.pi / 3.0, 0.7))
        assert residual < 1e-10

    def test_spin_seven_halves_large_angle(self):
        residual = gauss_decomposition_check(build_spin_rep(3.5), SpherePoint(2.0, 5.0))
        assert residual < 1e-9

    def test_rejects_near_south_pole(self):
        with pytest.raises(ValueError, match="too close to pi"):
            gauss_decomposition_check(build_spin_rep(1.0), SpherePoint(math.pi - 1e-9, 0.0))

    # Bound from measurement: over 20000 seeded cases (2j 1-40, theta in [0, 3), gamma in
    # [0, 2 pi)) the largest |exp(z J+) - expm(z J+)| was 35.5 eps max(1, max |expm|), at
    # 2j = 7 and theta 2.49; 100 eps leaves a margin of 2.8x.  Against the closed form
    # z^n sqrt(C(2j-k, n) C(k+n, n)) at 40 digits, 1500 of those cases stayed within 16.5 eps.
    @given(
        two_j=st.integers(1, 40),
        theta=st.floats(0.0, 3.0),
        gamma=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_raising_factor_matches_expm(self, two_j, theta, gamma):
        z = -math.tan(theta / 2.0) * np.exp(-1j * gamma)
        oracle = scipy.linalg.expm(z * build_spin_rep(two_j / 2.0).j_plus)
        bound = 100.0 * np.finfo(float).eps * max(1.0, np.abs(oracle).max())
        assert np.abs(spin._raising_exponential(two_j, z) - oracle).max() <= bound

    def test_factored_state_matches_closed_form(self):
        # the lowest-weight column of the triangular factorization is the
        # closed-form coherent state itself
        rep = build_spin_rep(2.5)
        point = SpherePoint(1.3, 0.4)
        zeta = -math.tan(point.theta / 2.0) * np.exp(-1j * point.gamma)
        eta = math.log1p(abs(zeta) ** 2)
        factored = (
            matrix_exponential(zeta * rep.j_plus)
            @ matrix_exponential(eta * rep.j3)
            @ matrix_exponential(-np.conjugate(zeta) * rep.j_minus)
        )
        closed = spin_coherent_closed_form(rep, point)
        assert np.abs(factored[:, 0] - closed.vector).max() < 1e-13


class TestBinomialPmf:
    def test_north_pole_is_certain_failure(self):
        rep = build_spin_rep(2.0)
        point = SpherePoint(0.0, 0.0)
        assert binomial_pmf(rep, point, -2.0) == 1.0
        assert binomial_pmf(rep, point, -1.0) == 0.0

    def test_fair_coin(self):
        rep = build_spin_rep(0.5)
        point = SpherePoint(math.pi / 2.0, 0.0)
        assert binomial_pmf(rep, point, -0.5) == pytest.approx(0.5, abs=1e-15)
        assert binomial_pmf(rep, point, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_spin_one_matches_three_level_table(self):
        rep = build_spin_rep(1.0)
        theta = 2.2
        point = SpherePoint(theta, 0.0)
        half = theta / 2.0
        assert binomial_pmf(rep, point, -1.0) == pytest.approx(math.cos(half) ** 4, abs=1e-15)
        assert binomial_pmf(rep, point, 0.0) == pytest.approx(
            2.0 * math.sin(half) ** 2 * math.cos(half) ** 2, abs=1e-15
        )
        assert binomial_pmf(rep, point, 1.0) == pytest.approx(math.sin(half) ** 4, abs=1e-15)

    @given(j=half_integers, point=sphere_points)
    @settings(max_examples=40, deadline=None)
    def test_sums_to_one(self, j, point):
        rep = build_spin_rep(j)
        total = sum(binomial_pmf(rep, point, m) for m in rep.m_values)
        assert abs(total - 1.0) < 1e-12

    def test_rejects_invalid_labels(self):
        rep = build_spin_rep(1.0)
        point = SpherePoint(1.0, 0.0)
        with pytest.raises(ValueError, match="not a weight"):
            binomial_pmf(rep, point, 2.0)
        with pytest.raises(ValueError, match="not a weight"):
            binomial_pmf(rep, point, 0.5)
        with pytest.raises(ValueError, match="half-integer"):
            binomial_pmf(rep, point, 0.3)


class TestBinomialMap:
    def test_relabeling(self):
        # (j, ell, theta) = (3/2, 1/2, 1) is binomial (n, k, p) = (3, 2, sin^2(1/2))
        rep = build_spin_rep(1.5)
        point = SpherePoint(1.0, 0.0)
        p = math.sin(0.5) ** 2
        assert binomial_pmf(rep, point, 0.5) == pytest.approx(3.0 * p**2 * (1.0 - p), rel=1e-14)
