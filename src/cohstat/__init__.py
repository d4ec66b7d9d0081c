"""Coherent-state probability families and group-invariant inferred posteriors.

Builds the Poisson family from displacement coherent states on a truncated
Fock basis and the binomial family from spin-j coherent states on the
sphere, then inverts the construction: pairing an observed basis state
with the coherent family's POV measure yields a distribution on the
parameter space that matches the Gamma(n+1, 1) and Beta(k+1, n-k+1)
posteriors of a uniform prior on the canonical parameter.

Each public name is imported from its module (``from cohstat.inference
import infer_via_pov``), which lists it in its ``__all__``; the package
itself binds only ``__version__``.
"""

__version__ = "0.1.0"
