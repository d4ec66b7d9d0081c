"""Shared random-input generators for the test suite."""

import numpy as np


def random_complex_matrix(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    real = rng.uniform(-1.0, 1.0, size=(dim, dim))
    imag = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return scale * (real + 1j * imag)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = random_complex_matrix(rng, dim, scale)
    return (m + m.conj().T) / 2.0


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def phase_aligned_distance(u, v) -> float:
    """Norm of u - eps*v minimized over a unit-modulus scalar eps: two routes to one state agree up to a phase."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    overlap = np.vdot(v, u)
    eps = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(u - eps * v))
