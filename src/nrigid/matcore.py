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

from .errors import DimensionError, OutOfRangeError

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

# Scaling threshold and Taylor degree of the exponential kernel; the
# tail of the degree-12 sum at the threshold is below 4e-14.
_EXPM_THRESHOLD = 0.5
_EXPM_DEGREE = 12


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
    ``np.tensordot`` use on C-contiguous input), so a stack agrees bitwise
    with a loop over it.
    """
    if a.ndim == 2:
        return float(a.ravel().dot(b.ravel()))
    return (a.reshape(a.shape[:-2] + (1, -1)) @ b.reshape(b.shape[:-2] + (-1, 1)))[..., 0, 0]


def _frobenius(m):
    """Frobenius norm over the last two axes, in the manner of `_flat_dot`."""
    return _matrix_frobenius(m) if m.ndim == 2 else np.sqrt(_flat_dot(m, m))


def _matrix_frobenius(m) -> float:
    # `_frobenius` of one matrix, for callers that know m is one and skip the test.
    r = m.ravel()
    return math.sqrt(r.dot(r))


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
    """Matrix commutator ab - ba, member by member for two stacks ``(..., n, n)`` of equal shape."""
    a = _as_square(a, stacked=True)
    b = _as_square(b, stacked=True)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _expm(a, squarings) -> np.ndarray:
    # The Taylor and squaring loop of `_expm_stack`, for a matrix or a
    # stack of members that share their squaring count.
    b = a / (2.0 ** squarings)
    result = term = _identity(a.shape[-1])
    for k in range(1, _EXPM_DEGREE + 1):
        term = term @ b / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def _expm_stack(a) -> np.ndarray:
    """The kernel of `expm`, without its checks, over a matrix or a stack ``(..., m, m)``.

    Each member's squaring count is picked from its 1-norm, and the
    members are grouped by it, so each group runs `_expm`'s Taylor and
    squaring loop at once and every member equals its own exponential bit
    for bit.
    """
    flat = a.reshape((-1,) + a.shape[-2:])
    norm = np.abs(flat).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(
        np.log2(np.maximum(norm, _EXPM_THRESHOLD) / _EXPM_THRESHOLD)
    ).astype(int)
    result = np.empty(flat.shape)
    for count in set(squarings.tolist()):
        members = squarings == count
        result[members] = _expm(flat[members], count)
    return result.reshape(a.shape)


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated Taylor series.

    A matrix of 1-norm above 0.5 is halved until it is at most 0.5, the
    Taylor series summed to degree 12, and the result squared back as
    often.  The result is accurate to ~1e-13 at the matrix sizes and
    norms this package works with.  For skew-symmetric input it is
    orthogonal with determinant +1 to the same accuracy.
    """
    a = _as_square(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix exponential of a non-finite matrix")
    return _expm_stack(a)


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(_as_matrix(m), 2))


def skew_asinh(p) -> np.ndarray:
    """Solve 2 sinh(A) = p for a skew-symmetric A on the principal branch.

    The Hermitian matrix i p has real eigenvalues theta_k, the eigen-angles
    of p, and A is the matrix function of p with the eigen-angles
    arcsin(theta_k / 2), built from the same eigendecomposition.  The
    spectral norm of p is the largest |theta_k|; the equation is solvable
    on the principal branch (angles of A inside (-pi/2, pi/2)) exactly when
    it is below 2.  There is no iteration, at any norm below the bound.
    """
    p = require_skew(p)
    angles, vectors = np.linalg.eigh(1j * p)
    norm = float(np.max(np.abs(angles)))
    if norm >= 2.0 - 1e-9:
        raise OutOfRangeError(
            f"spectral norm {norm:.12g} is not below the lift bound 2: "
            "2 sinh(A) = p has no principal-branch solution"
        )
    a = np.real((vectors * (-1j * np.arcsin(0.5 * angles))) @ vectors.conj().T)
    return 0.5 * (a - a.T)


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
        raise OutOfRangeError(f"singular input: smallest singular value {s[-1]:.3g} "
                              f"<= 1e-14 * max(1, largest {s[0]:.3g})")
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


def _require_integer(name, value) -> int:
    # A Python or numpy integer, as an int; bool is an int, and a float is refused even if integral.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_skew(m) -> np.ndarray:
    """Validate finiteness and skew-symmetry to 1e-12 relative to the matrix size; returns m.

    Both norms are taken of m / s, for s the power of 2 at or below the
    largest absolute entry, which is exact, and scaled back by s, so that
    no square of an entry overflows, nor the tolerance of a norm beyond the
    largest float.
    """
    m = _require_finite(_as_square(m))
    big = float(np.max(np.abs(m), initial=0.0))
    s = math.ldexp(1.0, math.frexp(big)[1] - 1) if big else 1.0
    unit = m / s
    tol = max(1e-12, 1e-12 * s * _matrix_frobenius(unit))
    d = s * _matrix_frobenius(unit + unit.T)
    if d > tol:
        raise ValueError(f"matrix is not skew-symmetric: defect {d:.3g} > {tol:.3g}")
    return m


def require_rotation(m) -> np.ndarray:
    """Validate finiteness, orthogonality and det = +1 to a defect of 1e-10; returns m."""
    m = _require_finite(_as_square(m))
    d = rotation_defect(m)
    if d > 1e-10:
        raise ValueError(f"matrix is not a rotation: defect {d:.3g} > 1e-10")
    return m


def _generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        # accept any 64-bit value, including negatives
        seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(seed)


def _uniform_blocks(n, seed, lead=()) -> np.ndarray:
    # Entries uniform in [-1, 1], drawn as `lead` blocks of n x n.
    n = int(n)
    if n < 2:
        raise OutOfRangeError("random matrix generators need n >= 2")
    return _generator(seed).uniform(-1.0, 1.0, lead + (n, n))


# The maps from uniform draws to the random elements.  They act over the
# last two axes (three blocks for the symplectic ones), so that the
# generators below and `moment.invariant_battery`, which stacks the draws
# of many trials, build each element with the same arithmetic.

def _skew_part(x) -> np.ndarray:
    return 0.5 * (x - x.swapaxes(-1, -2))


def _sp_element(x) -> np.ndarray:
    # [[A, sym B], [sym C, -A^T]] from the blocks (A, B, C) along axis -3.
    a, b, c = x[..., 0, :, :], x[..., 1, :, :], x[..., 2, :, :]
    n = a.shape[-1]
    xi = np.zeros(a.shape[:-2] + (2 * n, 2 * n))
    xi[..., :n, :n] = a
    xi[..., :n, n:] = 0.5 * (b + b.swapaxes(-1, -2))
    xi[..., n:, :n] = 0.5 * (c + c.swapaxes(-1, -2))
    xi[..., n:, n:] = -a.swapaxes(-1, -2)
    return xi


def _rotation_of(x) -> np.ndarray:
    return _expm_stack(_skew_part(x))


def _sp_group_of(x) -> np.ndarray:
    return _expm_stack(0.5 * _sp_element(x))


def random_skew(n, seed) -> np.ndarray:
    """Seeded random skew matrix, entries uniform in [-1, 1] before antisymmetrization."""
    return _skew_part(_uniform_blocks(n, seed))


def random_sp(n, seed) -> np.ndarray:
    """Seeded random element of sp(2n, R), blocks [[A, B], [C, -A^T]] with B, C symmetric."""
    return _sp_element(_uniform_blocks(n, seed, (3,)))


def random_rotation(n, seed) -> np.ndarray:
    """Seeded random rotation, the exponential of a random skew matrix."""
    return _rotation_of(_uniform_blocks(n, seed))


def random_sp_group(n, seed) -> np.ndarray:
    """Seeded random symplectic matrix, the exponential of a scaled algebra sample.

    The algebra sample is halved before exponentiation to keep the group
    element well conditioned for identity checks at tolerances near 1e-11.
    """
    return _sp_group_of(_uniform_blocks(n, seed, (3,)))
