"""Dense matrix kernels shared by the whole package.

Everything operates on plain float ndarrays.  Skew-symmetric matrices,
rotations, and (infinitesimally) symplectic matrices are not wrapped in
classes; the ``*_defect`` and ``require_*`` helpers measure and enforce
the defining constraints at the boundaries that need them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DimensionError, OutOfRangeError

__all__ = [
    "inner",
    "commutator",
    "expm",
    "skew_asinh",
    "polar_project",
    "symplectic_matrix",
    "sp_inverse",
    "spectral_norm",
    "skew_defect",
    "orthogonality_defect",
    "rotation_defect",
    "sp_algebra_defect",
    "sp_group_defect",
    "require_skew",
    "require_rotation",
    "random_skew",
    "random_sp",
    "random_rotation",
    "random_sp_group",
]

# Taylor order and scaling threshold of the exponential kernel; at
# threshold 0.5 the order-12 truncation error is below 2e-14.
_EXPM_ORDER = 12
_EXPM_THRESHOLD = 0.5


def _as_matrix(a, stacked=False) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 and not (stacked and m.ndim > 2):
        raise DimensionError(f"expected a matrix, got an array of ndim {m.ndim}")
    return m


def _as_square(a, stacked=False) -> np.ndarray:
    m = _as_matrix(a, stacked)
    if m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _flat_dot(a, b):
    """Sum of the entrywise products over the last two axes.

    A float for two matrices, one value per leading index for stacks.
    Every pair of matrices, alone or in a stack, reduces through the same
    BLAS dot of its row-major entries (the one ``np.linalg.norm`` and
    ``np.tensordot`` use), so a stack agrees bitwise with a loop over it.
    """
    if a.ndim == 2:
        return float(a.ravel() @ b.ravel())
    return (a.reshape(a.shape[:-2] + (1, -1)) @ b.reshape(b.shape[:-2] + (-1, 1)))[..., 0, 0]


def _frobenius(m):
    """Frobenius norm over the last two axes, in the manner of `_flat_dot`."""
    d = _flat_dot(m, m)
    return math.sqrt(d) if m.ndim == 2 else np.sqrt(d)


def inner(a, b):
    """Trace inner product (1/2) tr(a^T b) of two same-shape matrices.

    Accepts stacks ``(..., m, n)`` and returns one value per leading
    index; two matrices give a float.
    """
    a = _as_matrix(a, stacked=True)
    b = _as_matrix(b, stacked=True)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return 0.5 * _flat_dot(a, b)


def commutator(a, b) -> np.ndarray:
    """Matrix commutator ab - ba."""
    a = _as_square(a)
    b = _as_square(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    The scaled matrix is pushed below 1-norm 0.5 and exponentiated with a
    fixed order-12 Taylor kernel, which is accurate to ~1e-13 at the matrix
    sizes and norms this package works with.  For skew-symmetric input the
    result is orthogonal with determinant +1 to the same accuracy.
    """
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix exponential of a non-finite matrix")
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    squarings = 0 if norm <= _EXPM_THRESHOLD else int(
        np.ceil(np.log2(norm / _EXPM_THRESHOLD))
    )
    b = a / (2.0 ** squarings)
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, _EXPM_ORDER + 1):
        term = term @ b / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(_as_matrix(m), 2))


def skew_asinh(p, tol=1e-12, max_iter=50) -> np.ndarray:
    """Solve 2 sinh(A) = p for a skew-symmetric A on the principal branch.

    The eigen-angles of a skew matrix p come in pairs +-i*theta, and the
    equation is solvable on the principal branch (angles of A inside
    (-pi/2, pi/2)) exactly when the spectral norm of p is below 2.  Newton
    iteration from A = p/2 with correction cosh(A)^{-1} (sinh(A) - p/2);
    every iterate is a matrix function of p, so the steps stay in the
    commuting subalgebra generated by p and remain skew up to roundoff.

    The Newton correction stops contracting on the non-commuting error
    components once the eigen-angles approach pi/2 (spectral norm of p
    near 1.95), so close to the bound the solution is taken from the
    eigendecomposition of the Hermitian matrix i p instead, with arcsin
    applied to the eigen-angles.
    """
    p = _as_square(p)
    require_skew(p)
    norm = spectral_norm(p)
    if norm >= 2.0 - 1e-9:
        raise OutOfRangeError(
            f"spectral norm {norm:.12g} is not below the lift bound 2: "
            "2 sinh(A) = p has no principal-branch solution"
        )
    if norm > 1.9:
        angles, vectors = np.linalg.eigh(1j * p)
        half = np.clip(0.5 * angles, -1.0, 1.0)
        a = (vectors * (-1j * np.arcsin(half))) @ vectors.conj().T
        a = np.real(a)
        return 0.5 * (a - a.T)
    a = 0.5 * p
    for _ in range(max_iter):
        e = expm(a)
        e_inv = expm(-a)
        residual = e - e_inv - p
        if np.linalg.norm(residual) <= tol:
            return a
        cosh = 0.5 * (e + e_inv)
        a = a - np.linalg.solve(cosh, 0.5 * residual)
        a = 0.5 * (a - a.T)
    raise ConvergenceError(
        f"2 sinh(A) = p did not reach residual {tol:g} in {max_iter} iterations"
    )


def polar_project(m) -> np.ndarray:
    """Nearest orthogonal matrix in the Frobenius norm (polar factor).

    The input must be nonsingular with positive determinant so that the
    result is a rotation.
    """
    m = _as_square(m)
    if not np.isfinite(m).all():
        raise ValueError("polar projection of a non-finite matrix")
    u, s, vt = np.linalg.svd(m)
    if s[-1] <= 1e-14 * max(1.0, s[0]):
        raise OutOfRangeError(
            f"singular input: smallest singular value {s[-1]:.3g}"
        )
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        raise OutOfRangeError("negative determinant: no nearby rotation")
    return r


@lru_cache(maxsize=None)
def _jmat(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    j.flags.writeable = False
    return j


def symplectic_matrix(n: int) -> np.ndarray:
    """The canonical block matrix [[0, I], [-I, 0]] of size 2n x 2n."""
    if n < 1:
        raise DimensionError("n must be at least 1")
    return _jmat(int(n)).copy()


def sp_inverse(s) -> np.ndarray:
    """Inverse of a symplectic matrix from the structure identity.

    For symplectic s the inverse is -J s^T J, an exact product with no
    linear solve.
    """
    s = _as_square(s)
    if s.shape[0] % 2 != 0:
        raise DimensionError("symplectic matrices have even size")
    j = _jmat(s.shape[0] // 2)
    return -(j @ s.T @ j)


def skew_defect(m):
    """Frobenius norm of m + m^T; one value per leading index of a stack."""
    m = _as_square(m, stacked=True)
    return _frobenius(m + m.swapaxes(-1, -2))


def orthogonality_defect(m):
    """Frobenius norm of m^T m - I; one value per leading index of a stack."""
    m = _as_square(m, stacked=True)
    return _frobenius(m.swapaxes(-1, -2) @ m - np.eye(m.shape[-1]))


def rotation_defect(m) -> float:
    """max of the orthogonality defect and the distance of det to +1."""
    m = _as_square(m)
    return max(orthogonality_defect(m), abs(float(np.linalg.det(m)) - 1.0))


def sp_algebra_defect(x) -> float:
    """Frobenius norm of x^T J + J x."""
    x = _as_square(x)
    if x.shape[0] % 2 != 0:
        raise DimensionError("sp(2n) elements have even size")
    j = _jmat(x.shape[0] // 2)
    return float(np.linalg.norm(x.T @ j + j @ x))


def sp_group_defect(s) -> float:
    """Frobenius norm of s^T J s - J."""
    s = _as_square(s)
    if s.shape[0] % 2 != 0:
        raise DimensionError("Sp(2n) elements have even size")
    j = _jmat(s.shape[0] // 2)
    return float(np.linalg.norm(s.T @ j @ s - j))


def _require_finite(m) -> np.ndarray:
    # Every comparison with NaN is false, so a defect test alone passes NaN.
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries (NaN or infinity)")
    return m


def require_skew(m, rtol=1e-12) -> np.ndarray:
    """Validate finiteness and skew-symmetry relative to the matrix size; returns m."""
    m = _require_finite(_as_square(m))
    tol = rtol * max(1.0, float(np.linalg.norm(m)))
    d = skew_defect(m)
    if d > tol:
        raise ValueError(f"matrix is not skew-symmetric: defect {d:.3g} > {tol:.3g}")
    return m


def require_rotation(m, tol=1e-10) -> np.ndarray:
    """Validate finiteness, orthogonality and det = +1 to the given tolerance; returns m."""
    m = _require_finite(_as_square(m))
    d = rotation_defect(m)
    if d > tol:
        raise ValueError(f"matrix is not a rotation: defect {d:.3g} > {tol:.3g}")
    return m


def _generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        # accept any 64-bit value, including negatives
        seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(seed)


def _check_n_at_least_2(n: int) -> int:
    n = int(n)
    if n < 2:
        raise OutOfRangeError("random matrix generators need n >= 2")
    return n


def random_skew(n, seed) -> np.ndarray:
    """Seeded random skew matrix, entries uniform in [-1, 1] before antisymmetrization."""
    n = _check_n_at_least_2(n)
    g = _generator(seed)
    x = g.uniform(-1.0, 1.0, (n, n))
    return 0.5 * (x - x.T)


def random_sp(n, seed) -> np.ndarray:
    """Seeded random element of sp(2n, R), blocks [[A, B], [C, -A^T]] with B, C symmetric."""
    n = _check_n_at_least_2(n)
    g = _generator(seed)
    a = g.uniform(-1.0, 1.0, (n, n))
    b = g.uniform(-1.0, 1.0, (n, n))
    c = g.uniform(-1.0, 1.0, (n, n))
    xi = np.zeros((2 * n, 2 * n))
    xi[:n, :n] = a
    xi[:n, n:] = 0.5 * (b + b.T)
    xi[n:, :n] = 0.5 * (c + c.T)
    xi[n:, n:] = -a.T
    return xi


def random_rotation(n, seed) -> np.ndarray:
    """Seeded random rotation, the exponential of a random skew matrix."""
    return expm(random_skew(n, seed))


def random_sp_group(n, seed) -> np.ndarray:
    """Seeded random symplectic matrix, the exponential of a scaled algebra sample.

    The algebra sample is halved before exponentiation to keep the group
    element well conditioned for identity checks at tolerances near 1e-11.
    """
    return expm(0.5 * random_sp(n, seed))
