"""Coherent-state probability families and group-invariant inferred posteriors.

Builds the Poisson family from displacement coherent states on a truncated
Fock basis and the binomial family from spin-j coherent states on the
sphere, then inverts the construction: pairing an observed basis state
with the coherent family's POV measure yields a distribution on the
parameter space that matches the Gamma(n+1, 1) and Beta(k+1, n-k+1)
posteriors of a uniform prior on the canonical parameter.
"""

from .fock import (
    CoherentStateWH,
    FockSpace,
    TruncationError,
    WHGroupElement,
    bch_check,
    build_ladder,
    coherent_closed_form,
    default_truncation,
    displacement_translation_check,
    poisson_pmf,
    wh_multiply,
)
from .inference import (
    FockCoherentFamily,
    InferredDistribution,
    QuadratureRule,
    SpinCoherentFamily,
    analytic_binomial_posterior,
    analytic_poisson_posterior,
    credible_interval,
    infer_via_pov,
    inferred_density_binomial,
    inferred_density_poisson,
    plane_quadrature,
    resolution_of_identity_check,
    sphere_quadrature,
)
from .linops import (
    hermitian_eigendecomposition,
    matrix_exponential,
)
from .pv_measure import (
    FinitePVMeasure,
    NonFiniteError,
    VectorState,
    born_probabilities,
    example_family_states,
    gaussian_position_probability,
    pv_from_observable,
)
from .spin import (
    SpherePoint,
    SpinRep,
    binomial_pmf,
    build_spin_rep,
    gauss_decomposition_check,
    so3_basis,
    sphere_point_for_probability,
    spin_coherent_closed_form,
)

__version__ = "0.1.0"
