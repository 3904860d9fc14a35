"""Phase space of stacked 2n x n matrices Z = [Q; P]: canonical one-form
and symplectic form, the maximizing control, both Hamiltonians, and the
flow field of the symmetric representation of the rigid body."""

from __future__ import annotations

import numpy as np

from .body import InertiaSpec, inertia_apply, reduced_hamiltonian
from .errors import DimensionError
from .matcore import _flat_dot, _jmat, inner

__all__ = [
    "FULL_RANK_TOL",
    "phase_point",
    "q_block",
    "p_block",
    "min_singular_value",
    "is_full_rank",
    "symplectic_form",
    "one_form",
    "optimal_control",
    "control_hamiltonian",
    "hamiltonian",
    "symrep_rhs",
]

# Membership threshold for the open set of full-rank phase points.
FULL_RANK_TOL = 1e-10


def _split(z, stacked=False):
    # With ``stacked``, z may carry leading axes (..., 2n, n) and the
    # blocks keep them.
    z = np.asarray(z, dtype=float)
    if z.ndim == 2 and z.shape[0] == 2 * z.shape[1]:
        n = z.shape[1]
        return z[:n], z[n:]
    if stacked and z.ndim > 2 and z.shape[-2] == 2 * z.shape[-1]:
        n = z.shape[-1]
        return z[..., :n, :], z[..., n:, :]
    raise DimensionError(f"expected a 2n x n matrix, got shape {z.shape}")


def phase_point(q, p) -> np.ndarray:
    """Stack configuration Q on top of costate P into a 2n x n phase point."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape != p.shape:
        raise DimensionError(
            f"blocks must be square and equal-size, got {q.shape} and {p.shape}"
        )
    return np.vstack([q, p])


def q_block(z) -> np.ndarray:
    """Top n x n block (configuration)."""
    return _split(z)[0]


def p_block(z) -> np.ndarray:
    """Bottom n x n block (costate)."""
    return _split(z)[1]


def min_singular_value(z):
    """Smallest singular value of a phase point, a float; one value per
    leading index of a stack ``(..., 2n, n)``."""
    z = np.asarray(z, dtype=float)
    _split(z, stacked=True)
    smin = np.linalg.svd(z, compute_uv=False)[..., -1]
    return float(smin) if z.ndim == 2 else smin


def is_full_rank(z):
    """Whether z (or each point of a stack) lies in the open set of full-rank phase points."""
    return min_singular_value(z) > FULL_RANK_TOL


def symplectic_form(x, y):
    """The flat symplectic form tr(X^T J Y) = tr(Xq^T Yp - Xp^T Yq).

    A float for two tangent vectors, one value per leading index of two
    stacks ``(..., 2n, n)`` of equal shape.
    """
    xq, xp = _split(x, stacked=True)
    yq, yp = _split(y, stacked=True)
    if xq.shape != yq.shape:
        raise DimensionError("tangent vectors must have equal shapes")
    return _flat_dot(xq, yp) - _flat_dot(xp, yq)


def one_form(z, zdot):
    """Primitive of the symplectic form: -(1/2) tr(Z^T J Zdot).

    Blockwise this is (1/2) tr(P^T Qdot - Q^T Pdot); the symplectic form is
    minus its exterior derivative.  A float for one point and tangent, one
    value per leading index of two stacks ``(..., 2n, n)`` of equal shape.
    """
    q, p = _split(z, stacked=True)
    qd, pd = _split(zdot, stacked=True)
    if q.shape != qd.shape:
        raise DimensionError("point and tangent must have equal shapes")
    return 0.5 * (_flat_dot(p, qd) - _flat_dot(q, pd))


def _phase_point_of(spec: InertiaSpec, z, stacked=False) -> np.ndarray:
    # z as a float array, checked to be a phase point (or a stack of them)
    # of the inertia's dimension.
    z = np.asarray(z, dtype=float)
    n = _split(z, stacked)[0].shape[-1]
    if spec.n != n:
        raise DimensionError(f"inertia is {spec.n}-dimensional but the phase point has n = {n}")
    return z


def _symrep_kernels(spec: InertiaSpec, mm):
    # The flow field Z u*(Z), the maximizing control u*(Z) = I^{-1}(Q^T P - P^T Q)
    # and the action Z g, which is mm itself (np.ndarray.dot or np.matmul), over
    # the last two axes.
    n, sums = spec.n, spec._pair_sums
    q, p = (..., slice(n), slice(None)), (..., slice(n, None), slice(None))

    def velocity(z):
        m = mm(z[q].swapaxes(-1, -2), z[p])
        return (m - m.swapaxes(-1, -2)) / sums

    def field(z):
        return mm(z, velocity(z))
    return field, velocity, mm


def optimal_control(spec: InertiaSpec, z) -> np.ndarray:
    """The control maximizing the control Hamiltonian: I^{-1}(Q^T P - P^T Q)."""
    return _symrep_kernels(spec, np.ndarray.dot)[1](_phase_point_of(spec, z))


def control_hamiltonian(spec: InertiaSpec, z, u) -> float:
    """tr(P^T Q u) - (1/2) <I u, u>, a concave quadratic in the control u."""
    q, p = _split(_phase_point_of(spec, z))
    u = np.asarray(u, dtype=float)
    if u.shape != q.shape:
        raise DimensionError(f"control has shape {u.shape}, expected {q.shape}")
    return _flat_dot(q.T @ p, u) - 0.5 * inner(inertia_apply(spec, u), u)


def hamiltonian(spec: InertiaSpec, z):
    """Phase-space energy (1/2) <Z^T J Z, I^{-1}(Z^T J Z)>.

    Invariant under left multiplication by symplectic matrices.  A float
    for one phase point, one value per leading index of a stack
    ``(..., 2n, n)``.
    """
    z = _phase_point_of(spec, z, stacked=True)
    return reduced_hamiltonian(spec, z.swapaxes(-1, -2) @ (_jmat(spec.n) @ z))


def symrep_rhs(spec: InertiaSpec, z) -> np.ndarray:
    """Flow field of the symmetric representation: Zdot = Z u*(Z).

    Blockwise Qdot = Q om and Pdot = P om with om the maximizing control;
    this is the Hamiltonian vector field of `hamiltonian` for the flat
    symplectic form.
    """
    return _symrep_kernels(spec, np.ndarray.dot)[0](_phase_point_of(spec, z))
