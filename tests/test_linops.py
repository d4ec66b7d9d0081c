import contextlib
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstat import fock, spin
from cohstat.fock import build_ladder
from cohstat.linops import hermitian_eigendecomposition, matrix_exponential
from cohstat.spin import so3_basis

from helpers import phase_aligned_distance, random_complex_matrix, random_hermitian, random_unit_vector


class TestAdjoint:
    def test_matches_ladder_creation(self):
        rep = build_ladder(9)
        assert np.array_equal(rep.annihilation.conj().T, rep.creation)


class TestCommutator:
    def test_rotation_generators(self):
        e1, e2, e3 = so3_basis()
        assert np.array_equal(e1 @ e2 - e2 @ e1, e3)
        assert np.array_equal(e2 @ e3 - e3 @ e2, e1)

    def test_truncated_ladder_artifact(self):
        # [A, A+] is the identity below the truncation level and -(K-1) on it
        rep = build_ladder(8)
        a, a_dag = rep.annihilation, rep.creation
        expected = np.eye(8)
        expected[-1, -1] = -7.0
        assert np.abs(a @ a_dag - a_dag @ a - expected).max() < 1e-13


class TestMatrixExponential:
    def test_zero_matrix_is_exact_identity(self):
        assert np.array_equal(matrix_exponential(np.zeros((4, 4))), np.eye(4))

    # the vacuum column of exp(alpha A+) is alpha^k / sqrt(k!), exactly so in the truncated space
    def test_ladder_factor_vacuum_column(self):
        alpha = 1.5 - 0.5j
        m = alpha * build_ladder(16).creation
        assert _route(m) == "band"
        column = [alpha**k / math.sqrt(math.factorial(k)) for k in range(16)]
        assert np.abs(matrix_exponential(m)[:, 0] - column).max() < 1e-14 * np.abs(column).max()

    # Bound from measurement: over 20000 seeded cases (d <= 128, band entries of modulus up
    # to 10 sqrt(2)) the largest |exp(m) - expm(m)| was 80 eps max(1, max |expm(m)|), at d = 8
    # and scale 8.3; 200 eps leaves a margin of 2.5x.  The deviation is expm's: against exact
    # rational sums of the same terms the band route stays within 4.4 eps of the largest entry.
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 128),
        scale=st.floats(0.0, 10.0),
        offset=st.sampled_from([-1, 1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_band_route_matches_expm(self, seed, dim, scale, offset):
        rng = np.random.default_rng(seed)
        band = scale * (rng.uniform(-1.0, 1.0, dim - 1) + 1j * rng.uniform(-1.0, 1.0, dim - 1))
        m = np.diag(band, offset)
        assert _route(m) == ("diagonal" if not band.any() else "band")
        oracle = scipy.linalg.expm(m)
        eps = np.finfo(float).eps
        assert np.abs(matrix_exponential(m) - oracle).max() <= 200.0 * eps * max(1.0, np.abs(oracle).max())

    @pytest.mark.parametrize(
        "diagonal",
        [[0.0, -1.5, 2.0, 700.0], [1j * math.pi, -0.25j, 3.0j], [0.5 - 2j, -3 + 1e-3j, 0.0, 1e-300j]],
        ids=["real", "imaginary", "complex"],
    )
    def test_diagonal_route_is_entrywise_exp(self, diagonal):
        m = np.diag(np.array(diagonal, dtype=complex))
        assert _route(m) == "diagonal"
        assert np.array_equal(matrix_exponential(m), np.diag(np.exp(np.diagonal(m))))

    # Bounds of 50 eps max(1, ||m||_2) against expm and 50 eps on unitarity.  Over 20000 seeded
    # cases (d 2-64, shares 0, 0.3 and 0.9 of band entries exactly 0, ||m||_2 <= 50) the largest
    # deviation was 24 eps max(1, ||m||_2), at d = 60, and the largest unitarity defect 41 eps,
    # at d = 49 and ||m||_2 = 0.5.
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 64),
        norm=st.floats(0.0, 50.0),
        zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    )
    @settings(max_examples=40, deadline=None)
    def test_tridiagonal_skew_route_matches_expm(self, seed, dim, norm, zero_share):
        rng = np.random.default_rng(seed)
        upper = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
        upper[rng.uniform(size=dim - 1) < zero_share] = 0.0
        m = np.diag(upper, 1) - np.diag(upper.conj(), -1)
        if m.any():
            m *= norm / np.linalg.norm(m, 2)
        assert _route(m) == ("tridiagonal" if m.any() else "diagonal")
        u = matrix_exponential(m)
        eps = np.finfo(float).eps
        assert np.abs(u - scipy.linalg.expm(m)).max() <= 50.0 * eps * max(1.0, norm)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 50.0 * eps

    # bch's O1 + O2 at an odd size, where the even/odd block is rectangular (128 x 127)
    def test_displacement_generator_at_odd_size(self):
        rep = build_ladder(255)
        m = (3 + 1j) * rep.creation - (3 - 1j) * rep.annihilation
        assert _route(m) == "tridiagonal"
        u = matrix_exponential(m)
        eps = np.finfo(float).eps
        assert np.abs(u - scipy.linalg.expm(m)).max() <= 50.0 * eps * np.linalg.norm(m, 2)
        assert np.abs(u.conj().T @ u - np.eye(255)).max() <= 50.0 * eps

    def test_nilpotent_series_terminates(self):
        result = matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(result, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_scalar_phase(self):
        # one-dimensional oracle: e^{i pi} = -1
        result = matrix_exponential(np.array([[1j * math.pi]]))
        assert abs(result[0, 0] - (-1.0)) < 1e-14

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            matrix_exponential(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    # Dense inputs, every entry nonzero, so none has an exact route: random complex matrices
    # at d = 2 to 16 (and the adjoint of the one at d = 6) and i H for a random Hermitian H at
    # d = 2 to 16 and at the CLI size 256.
    @pytest.mark.parametrize(
        "dim,scale,seed,kind",
        [
            (2, 0.5, 205, "complex"),
            (5, 1.0, 512, "complex"),
            (8, 3.0, 829, "complex"),
            (16, 5.0, 1651, "complex"),
            (6, 1.0, 0, "complex"),
            (6, 1.0, 0, "adjoint"),
            (2, 1.0, 1, "skew"),
            (16, 1.0, 2, "skew"),
            (256, 1.0, 256, "skew"),
        ],
    )
    def test_refuses_input_without_route(self, dim, scale, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "skew":
            m = 1j * random_hermitian(rng, dim, scale)
        else:
            m = random_complex_matrix(rng, dim, scale)
            if kind == "adjoint":
                m = m.conj().T
        assert _route(m) == "none"
        with pytest.raises(ValueError, match="no exact exponential route"):
            matrix_exponential(m)


def _route(m) -> str:
    """The route matrix_exponential's structure tests pick for m, in their order."""
    if np.array_equal(m, np.diag(np.diagonal(m))):
        return "diagonal"
    if any(np.array_equal(m, np.diag(np.diagonal(m, k), k)) for k in (-1, 1)):
        return "band"
    upper, lower = np.diagonal(m, 1), np.diagonal(m, -1)
    if np.array_equal(m, np.diag(upper, 1) + np.diag(lower, -1)) and np.array_equal(upper, -np.conj(lower)):
        return "tridiagonal"
    return "none"


@contextlib.contextmanager
def _recorded_exponentials(module):
    """Patch ``module.matrix_exponential`` to list the route each input takes.

    An input with no route makes matrix_exponential raise, which fails the test.
    """
    routes = []

    def record(m):
        routes.append(_route(m))
        return matrix_exponential(m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "matrix_exponential", record)
        yield routes


class TestExponentialRoutes:
    """The group actions hand matrix_exponential only inputs with an exact route.

    Exact structure (zeros off one diagonal or off the two beside it, equality
    with -m*) is what picks a route, so these pin which factor takes which.
    """

    @given(
        alpha=st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        trunc=st.integers(2, 128),
    )
    @settings(max_examples=25, deadline=None)
    def test_bch_sum_generator(self, alpha, trunc):
        with _recorded_exponentials(fock) as routes:
            fock.bch_check(alpha, build_ladder(trunc))
        # exp(O1), exp(O2), exp([O1, O2] / 2), exp(O1 + O2)
        assert routes == ["band", "band", "diagonal", "tridiagonal"]

    @given(
        two_j=st.integers(1, 40),
        theta=st.floats(0.01, 3.0),
        gamma=st.floats(0.0, 6.28),
    )
    @settings(max_examples=25, deadline=None)
    def test_rotation_generators(self, two_j, theta, gamma):
        rep = spin.build_spin_rep(two_j / 2.0)
        point = spin.SpherePoint(theta, gamma)
        spin._j_plus_exponential.cache_clear()
        # the rotations come from the eigenpairs of J1, and the Gauss factors from exp(J+), formed once per size
        for expected in (["band"], []):
            with _recorded_exponentials(spin) as routes:
                spin.rotation_matrix(rep, point)
                spin.gauss_decomposition_check(rep, point)
            assert routes == expected


class TestCachedSpectra:
    """The eigenpairs kept per size for the displacements and the rotations, and exp(J+) for the Gauss factors."""

    @pytest.mark.parametrize(
        "arrays",
        [lambda: fock._position_spectrum(8), lambda: spin._j1_spectrum(7), lambda: (spin._j_plus_exponential(7),)],
        ids=["fock", "spin", "spin-raising"],
    )
    def test_cached_arrays_are_read_only(self, arrays):
        for array in arrays():
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0


class TestHermitianEigendecomposition:
    def test_three_level_observable(self):
        eigenvalues, eigenvectors = hermitian_eigendecomposition(np.diag([1.0, 0.0, -1.0]))
        assert np.array_equal(eigenvalues, [1.0, 0.0, -1.0])
        assert np.array_equal(eigenvectors, np.eye(3))

    def test_identity_is_fully_degenerate(self):
        eigenvalues, v = hermitian_eigendecomposition(np.eye(4))
        assert np.array_equal(eigenvalues, np.ones(4))
        assert np.abs(v @ v.conj().T - np.eye(4)).max() < 1e-12

    def test_number_operator_spectrum(self):
        rep = build_ladder(16)
        eigenvalues, _ = hermitian_eigendecomposition(rep.number)
        assert np.array_equal(eigenvalues, np.arange(15.0, -1.0, -1.0))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_invariants(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, dim, scale=2.0)
        eigenvalues, v = hermitian_eigendecomposition(m)
        assert np.all(np.diff(eigenvalues) <= 1e-14)
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-12
        scale = np.linalg.norm(m, "fro")
        assert np.linalg.norm((v * eigenvalues) @ v.conj().T - m, "fro") < 1e-10 * max(1.0, scale)
        residuals = m @ v - v * eigenvalues
        assert np.linalg.norm(residuals, axis=0).max() < 1e-10 * max(1.0, scale)


class TestPhaseAlignedDistance:
    @given(chi=st.floats(0.0, 2.0 * math.pi), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_is_invisible(self, chi, seed):
        rng = np.random.default_rng(seed)
        u = random_unit_vector(rng, 7)
        assert phase_aligned_distance(u, np.exp(1j * chi) * u) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            phase_aligned_distance(np.ones(2), np.ones(3))

    def test_orthogonal_pair(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert phase_aligned_distance(u, v) == pytest.approx(math.sqrt(2.0), abs=1e-15)
