"""Dense complex linear algebra kernel.

Only what numpy does not give in one call lives here: a matrix exponential
and a Hermitian eigendecomposition in descending order.  Adjoints,
commutators and inner products are numpy expressions (``m.conj().T``,
``a @ b - b @ a``, ``np.vdot``).  The exponential takes one of three exact
routes, chosen from the structure of its input: a diagonal matrix (a truncated
commutator) entry by entry, a single-band nilpotent matrix (the BCH check's
ladder factors, and J+ once per spin size for the Gauss factors) by its
terminating power series, and a zero-diagonal tridiagonal skew-Hermitian
matrix (the BCH check's displacement generator) by dividing the phases out
of its band and taking the real SVD of the half-size block that couples its
even levels to its odd ones; it refuses every other matrix, and the package
builds none.  The group actions themselves, a displacement of the plane and
a rotation of the sphere, are both exp(i t W S W*) for unit phases W and a
real symmetric tridiagonal S that depends only on the size;
``_phased_exponential`` applies one from the read-only eigenpairs of S that
``_tridiagonal_spectrum`` gives.  All functions are pure and operate on
plain numpy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hermitian_eigendecomposition",
    "matrix_exponential",
]


def _as_complex_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _exp_subdiagonal(band: np.ndarray) -> np.ndarray:
    """exp(m) for the d x d matrix m whose only nonzeros are ``band`` on offset -1.

    m is nilpotent, so the series stops: entry (i+n, i) of exp(m) is
    band[i] band[i+1] ... band[i+n-1] / n!, and the n-th band follows
    from the (n-1)-th in one step.
    """
    d = band.size + 1
    result = np.zeros((d, d), dtype=complex)
    flat = result.reshape(-1)  # entry (i+n, i) sits at n*d + i*(d+1)
    term = np.ones(d, dtype=complex)
    flat[:: d + 1] = term
    for n in range(1, d):
        term = term[:-1] * band[n - 1 :] / n
        flat[n * d :: d + 1] = term
    return result


def _exp_bipartite(m: np.ndarray) -> np.ndarray:
    """exp(m) for a skew-Hermitian m whose nonzeros all lie on offsets +1 and -1.

    With the unit phases d_{k+1} = d_k i e^{-i arg u_k} of the upper band u,
    D* m D = iT for the real T whose bands are |u|, so exp(m) = D exp(iT) D*.  T couples each level only to its
    neighbours: in even/odd order iT is [[0, iB], [iB^T, 0]] with the real
    ceil(d/2) x floor(d/2) bidiagonal block B = T[even, odd].  With
    B = U diag(s) V^T (the SVD that Golub & Kahan, 1965, relate to the
    eigenpairs of this bipartite form), exp(iT) has the blocks U cos(s) U^T
    (cos 0 = 1 on U's extra column when d is odd), i U sin(s) V^T, its
    transpose, and V cos(s) V^T, as exp([[0, is], [is, 0]]) =
    [[cos s, i sin s], [i sin s, cos s]] does for a scalar s: one real SVD
    and three real products of half the size.  Each phase d_{k+1} comes
    from d_k by one rounded product, so D* m D is iT to a rounding per
    entry however far the accumulated phase has drifted.
    """
    upper = np.diagonal(m, 1)
    magnitude = np.abs(upper)
    phases = np.cumprod(np.append(1.0, 1j * np.exp(-1j * np.angle(upper))))
    phases /= np.abs(phases)
    block = np.zeros(((phases.size + 1) // 2, phases.size // 2))
    above, below = magnitude[::2], magnitude[1::2]
    block[np.arange(above.size), np.arange(above.size)] = above  # T[2i, 2i+1]
    block[np.arange(1, below.size + 1), np.arange(below.size)] = below  # T[2i, 2i-1]
    u, s, vt = np.linalg.svd(block)
    cos_s = np.cos(s)
    cos_even = np.ones(u.shape[0])
    cos_even[: s.size] = cos_s
    off = (u[:, : s.size] * np.sin(s)) @ vt
    result = np.empty_like(m)
    result[::2, ::2] = (u * cos_even) @ u.T
    result[::2, 1::2] = 1j * off
    result[1::2, ::2] = 1j * off.T
    result[1::2, 1::2] = (vt.T * cos_s) @ vt
    result *= phases[:, None]
    result *= phases.conj()
    return result


def _tridiagonal_spectrum(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs (lambda, Q) of the real symmetric S with zero diagonal and ``band`` beside it.

    S is built from its band and handed to numpy's eigh, so lambda ascends
    and the columns of the real orthogonal Q are its eigenvectors.  The
    arrays cannot be written, so a cache may hand them out.
    """
    s = np.diag(band, 1)
    s += s.T
    eigenvalues, q = np.linalg.eigh(s)
    eigenvalues.flags.writeable = q.flags.writeable = False
    return eigenvalues, q


def _phased_exponential(spectrum, t: float, phases: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """exp(i t W S W*) operand, for W = diag(phases) of unit phases and S = Q diag(lambda) Q^T real.

    Written as operand + W Q diag(e^{i t lambda} - 1) Q^T W* operand, the
    operand a vector or a matrix: Q is real, so both products with it run on
    the real view of the complex columns, and t = 0 returns the operand
    exactly.
    """
    eigenvalues, q = spectrum
    columns = np.conjugate(phases)[:, None] * operand.reshape(eigenvalues.size, -1)
    x = (q.T @ columns.view(float)).view(complex)
    x *= np.expm1(1j * t * eigenvalues)[:, None]
    return operand + (phases[:, None] * (q @ x.view(float)).view(complex)).reshape(operand.shape)


def matrix_exponential(m) -> np.ndarray:
    """Matrix exponential by the exact route the input's structure allows.

    There is no option; the input picks the first route whose structure it has:

    - A diagonal m (every nonzero on the main diagonal; the truncated
      commutator, the zero matrix) gives diag(e^{m_kk}) entry for
      entry.
    - A single-band m (every nonzero on offset -1, or every nonzero on
      offset +1; the ladder factors alpha A+, -conj(alpha) A, and J+)
      is nilpotent, so its power series stops after d terms: O(d^2) work
      with no scaling and squaring, and each entry, a product of n band
      entries over n!, is correct to about 2n roundings.
    - A tridiagonal skew-Hermitian m with a zero diagonal (every nonzero on
      offsets +-1, with upper band == -conj(lower band); the BCH check's
      O1 + O2 = alpha A+ - conj(alpha) A) is i times a real tridiagonal
      matrix once the phases of its band are divided out, and couples even
      levels only to odd ones, so exp(m) follows from the real SVD of the
      ceil(d/2) x floor(d/2) block between them: a quarter of the matrix in
      place of a d x d eigendecomposition, in real arithmetic, unitary to
      rounding.

    Each test is exact, on the entries themselves, and exp(0) is the identity
    exactly.  Raises ValueError for non-finite entries and for an input with
    none of the three structures, any other skew-Hermitian one included.
    """
    m = _as_complex_matrix(m)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    nonzeros = np.count_nonzero(m)
    if nonzeros == np.count_nonzero(np.diagonal(m)):
        return np.diag(np.exp(np.diagonal(m)))
    upper, lower = np.diagonal(m, 1), np.diagonal(m, -1)
    upper_nonzeros, lower_nonzeros = np.count_nonzero(upper), np.count_nonzero(lower)
    if nonzeros == lower_nonzeros:
        return _exp_subdiagonal(lower)
    if nonzeros == upper_nonzeros:
        return _exp_subdiagonal(upper).T  # exp(m) = exp(m^T)^T
    if nonzeros == upper_nonzeros + lower_nonzeros and np.array_equal(upper, -lower.conj()):
        return _exp_bipartite(m)
    raise ValueError("no exact exponential route: not diagonal, single-band or zero-diagonal tridiagonal skew-Hermitian")


# Relative Hermiticity defect ||m - m*||_F / max(1, ||m||_F) a matrix may carry: constructed
# matrices are Hermitian to rounding only, so this is loose relative to machine precision.
_HERMITIAN_TOL = 1e-10


def hermitian_eigendecomposition(m) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a Hermitian matrix as ``np.linalg.eigh`` gives them, but descending.

    A column is fixed only up to a unit-modulus factor, and within a
    degenerate cluster only the columns' span is, so compare projectors.
    Raises ValueError when ||m - m*||_F exceeds _HERMITIAN_TOL * max(1, ||m||_F).
    """
    m = _as_complex_matrix(m)
    scale = max(1.0, float(np.linalg.norm(m, "fro")))
    defect = float(np.linalg.norm(m - m.conj().T, "fro"))
    if defect > _HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian within tolerance (defect {defect:.3e})")
    eigenvalues, eigenvectors = np.linalg.eigh((m + m.conj().T) / 2.0)
    return eigenvalues[::-1].copy(), eigenvectors[:, ::-1]
