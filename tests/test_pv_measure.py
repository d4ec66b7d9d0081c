import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstat.pv_measure import (
    FinitePVMeasure,
    VectorState,
    born_probabilities,
    example_family_states,
    gaussian_position_probability,
    pv_from_observable,
)

from helpers import random_unit_vector

THREE_LEVEL = np.diag([1.0, 0.0, -1.0])
XI = VectorState.from_unnormalized(np.array([1.0, 2.0, 3.0j]))
PSI0 = VectorState(np.array([-1.0j, math.sqrt(2.0), 1.0j]) / 2.0)


def simpson_normal_mass(sigma, a, b, n=10001):
    """Composite-Simpson oracle for the N(0, sigma^2) mass of [a, b]."""
    x = np.linspace(a, b, n)
    density = np.exp(-(x**2) / (2.0 * sigma**2)) / math.sqrt(2.0 * math.pi * sigma**2)
    h = (b - a) / (n - 1)
    return h / 3.0 * (density[0] + density[-1] + 4.0 * density[1:-1:2].sum() + 2.0 * density[2:-2:2].sum())


class TestVectorState:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit norm"):
            VectorState(np.array([1.0, 1.0]))

    def test_from_unnormalized(self):
        state = VectorState.from_unnormalized([3.0, 4.0])
        assert np.allclose(state.vector, [0.6, 0.8])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            VectorState.from_unnormalized([0.0, 0.0])


class TestPVFromObservable:
    def test_three_level_rank_one_projectors(self):
        pv = pv_from_observable(THREE_LEVEL)
        assert np.array_equal(pv.outcomes, [1.0, 0.0, -1.0])
        for i, projector in enumerate(pv.projectors):
            expected = np.zeros((3, 3))
            expected[i, i] = 1.0
            assert np.abs(projector - expected).max() < 1e-14

    def test_identity_single_outcome(self):
        pv = pv_from_observable(np.eye(3))
        assert np.array_equal(pv.outcomes, [1.0])
        assert np.abs(pv.projectors[0] - np.eye(3)).max() < 1e-14

    def test_degenerate_cluster_ranks(self):
        pv = pv_from_observable(np.diag([2.0, 2.0, 5.0]))
        assert np.array_equal(pv.outcomes, [5.0, 2.0])
        ranks = [round(np.trace(p).real) for p in pv.projectors]
        assert ranks == [1, 2]

    def test_validation_rejects_bad_projectors(self):
        with pytest.raises(ValueError, match="idempotent"):
            FinitePVMeasure(outcomes=np.array([1.0]), projectors=(np.eye(2) * 0.5,))
        with pytest.raises(ValueError, match="sum to the identity"):
            FinitePVMeasure(outcomes=np.array([1.0]), projectors=(np.diag([1.0, 0.0]),))


class TestBornProbability:
    def test_three_level_part_a(self):
        probs = born_probabilities(XI, pv_from_observable(THREE_LEVEL))
        assert np.abs(probs - np.array([1.0, 4.0, 9.0]) / 14.0).max() < 1e-14

    def test_three_level_part_b(self):
        probs = born_probabilities(PSI0, pv_from_observable(THREE_LEVEL))
        assert np.abs(probs - np.array([1.0, 2.0, 1.0]) / 4.0).max() < 1e-14

    def test_eigenstate_is_certain(self):
        pv = pv_from_observable(THREE_LEVEL)
        eta1 = VectorState(np.array([1.0, 0.0, 0.0], dtype=complex))
        assert np.array_equal(born_probabilities(eta1, pv), [1.0, 0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            born_probabilities(VectorState(np.array([1.0, 0.0])), pv_from_observable(THREE_LEVEL))

    def test_rounding_past_0_and_1_is_clamped(self):
        # projectors off by 1e-12, inside the measure's own tolerances, give expectations 1 + 1e-12 and -1e-12
        skewed = np.diag([1.0 + 1e-12, -1e-12])
        pv = FinitePVMeasure(outcomes=np.array([1.0, -1.0]), projectors=(skewed, skewed[::-1, ::-1]))
        assert np.array_equal(born_probabilities(VectorState(np.array([1.0, 0.0])), pv), [1.0, 0.0])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        state = VectorState(random_unit_vector(rng, 3))
        pv = pv_from_observable(THREE_LEVEL)
        assert abs(born_probabilities(state, pv).sum() - 1.0) < 1e-10

    @given(chi=st.floats(0.0, 2.0 * math.pi), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_state_phase_invariance(self, chi, seed):
        rng = np.random.default_rng(seed)
        vec = random_unit_vector(rng, 3)
        pv = pv_from_observable(THREE_LEVEL)
        original = born_probabilities(VectorState(vec), pv)
        rotated = born_probabilities(VectorState(np.exp(1j * chi) * vec), pv)
        assert np.abs(original - rotated).max() < 1e-14


class TestExampleFamilyStates:
    def test_pole_state(self):
        state = example_family_states(beta=0.7, theta=0.0)
        assert np.allclose(state.vector, [np.exp(-0.7j), 0.0, 0.0])
        probs = born_probabilities(state, pv_from_observable(THREE_LEVEL))
        assert np.abs(probs - [1.0, 0.0, 0.0]).max() < 1e-14

    @given(
        beta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        theta=st.floats(0.0, math.pi, exclude_max=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_probability_formulas(self, beta, theta):
        state = example_family_states(beta, theta)
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12
        probs = born_probabilities(state, pv_from_observable(THREE_LEVEL))
        half = theta / 2.0
        expected = [
            math.cos(half) ** 4,
            2.0 * math.sin(half) ** 2 * math.cos(half) ** 2,
            math.sin(half) ** 4,
        ]
        assert np.abs(probs - expected).max() < 1e-13

    def test_equator_gives_quarter_half_quarter(self):
        state = example_family_states(beta=1.3, theta=math.pi / 2.0)
        probs = born_probabilities(state, pv_from_observable(THREE_LEVEL))
        assert np.abs(probs - [0.25, 0.5, 0.25]).max() < 1e-14


class TestGaussianPositionProbability:
    def test_full_line_normalization(self):
        assert gaussian_position_probability(2.0, -math.inf, math.inf) == 1.0

    def test_degenerate_interval(self):
        assert gaussian_position_probability(1.0, 0.3, 0.3) == 0.0

    def test_one_sigma_interval(self):
        mass = gaussian_position_probability(1.0, -1.0, 1.0)
        assert mass == pytest.approx(0.6826894921370859, abs=1e-14)
        assert mass == pytest.approx(simpson_normal_mass(1.0, -1.0, 1.0), abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 2.5), (-4.0, -0.5)])
    def test_against_quadrature_oracle(self, sigma, interval):
        mass = gaussian_position_probability(sigma, *interval)
        assert mass == pytest.approx(simpson_normal_mass(sigma, *interval), abs=1e-11)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_position_probability(0.0, -1.0, 1.0)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError, match="a <= b"):
            gaussian_position_probability(1.0, 1.0, -1.0)

    def test_half_line_tail(self):
        assert gaussian_position_probability(1.0, 0.0, math.inf) == pytest.approx(0.5, abs=1e-15)
