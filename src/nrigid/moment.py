"""The dual pair on full-rank phase points: the symplectic-group and
orthogonal-group actions, their momentum maps and coadjoint
representations, the Kirillov-Kostant-Souriau form on momentum orbits,
and level-set diagnostics."""

from __future__ import annotations

import numpy as np

from .errors import CertificationError, DimensionError, LevelSetError
from .matcore import _frobenius, _jmat, commutator, inner
from .symrep import _split, symplectic_form

__all__ = [
    "sp_action",
    "on_action",
    "sp_momentum",
    "on_momentum",
    "sp_coadjoint",
    "on_coadjoint",
    "infinitesimal_generator",
    "ad_star",
    "kks_form",
    "casimir_spectrum",
    "orbit_transporter",
    "level_set_defect",
    "reduced_form_check",
]


def _as_2n(m, n: int, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (2 * n, 2 * n):
        raise DimensionError(f"{what} has shape {m.shape}, expected {(2 * n, 2 * n)}")
    return m


def sp_action(s, z) -> np.ndarray:
    """Left multiplication S Z by a symplectic matrix."""
    q, _ = _split(z)
    s = _as_2n(s, q.shape[0], "group element")
    return s @ np.asarray(z, dtype=float)


def on_action(z, r) -> np.ndarray:
    """Right multiplication Z R by an orthogonal matrix (det -1 allowed)."""
    q, _ = _split(z)
    r = np.asarray(r, dtype=float)
    if r.shape != q.shape:
        raise DimensionError(f"orthogonal factor has shape {r.shape}, expected {q.shape}")
    return np.asarray(z, dtype=float) @ r


def sp_momentum(z) -> np.ndarray:
    """Momentum map of the symplectic action: J Z Z^T.

    Blockwise [[P Q^T, P P^T], [-Q Q^T, -Q P^T]]; conserved along the
    symmetric-representation flow.  A stack ``(..., 2n, n)`` gives
    ``(..., 2n, 2n)``.
    """
    q, _ = _split(z, stacked=True)
    z = np.asarray(z, dtype=float)
    return _jmat(q.shape[-1]) @ (z @ z.swapaxes(-1, -2))


def on_momentum(z) -> np.ndarray:
    """Momentum map of the orthogonal action: Z^T J Z = Q^T P - P^T Q.

    A stack ``(..., 2n, n)`` gives ``(..., n, n)``.
    """
    q, _ = _split(z, stacked=True)
    z = np.asarray(z, dtype=float)
    return z.swapaxes(-1, -2) @ (_jmat(q.shape[-1]) @ z)


def sp_coadjoint(s, mu) -> np.ndarray:
    """Coadjoint transport S^{-T} mu S^T of a symplectic momentum value.

    The transpose-inverse is the exact product J S J^{-1}, so no linear
    solve is involved.  Fixed so that sp_momentum(S Z) equals
    sp_coadjoint(S, sp_momentum(Z)).
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
        raise DimensionError(f"expected a 2n x 2n matrix, got shape {s.shape}")
    n = s.shape[0] // 2
    mu = _as_2n(mu, n, "momentum value")
    j = _jmat(n)
    s_inv_t = -(j @ s @ j)
    return s_inv_t @ mu @ s.T


def on_coadjoint(r, pi) -> np.ndarray:
    """Coadjoint transport R^T pi R, fixed so on_momentum(Z R) = on_coadjoint(R, on_momentum(Z))."""
    r = np.asarray(r, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if r.shape != pi.shape or r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimensionError(f"shape mismatch: {r.shape} vs {pi.shape}")
    return r.T @ pi @ r


def infinitesimal_generator(xi, z) -> np.ndarray:
    """Generator of the symplectic action at z: xi Z."""
    q, _ = _split(z)
    xi = _as_2n(xi, q.shape[0], "algebra element")
    return xi @ np.asarray(z, dtype=float)


def ad_star(a, pi) -> np.ndarray:
    """Coadjoint operator on so(n)*: ad*_a pi = [pi, a]."""
    return commutator(pi, a)


def kks_form(pi, a, b) -> float:
    """Minus-convention orbit symplectic form: -<pi, [a, b]>.

    Evaluated on the orbit tangent vectors generated by a and b at pi.
    """
    return -inner(pi, commutator(a, b))


def casimir_spectrum(pi) -> np.ndarray:
    """Singular values of a momentum value, descending.

    Constant on coadjoint orbits, hence conserved by any Lie-Poisson flow.
    A stack ``(..., n, n)`` gives one spectrum per leading index.
    """
    return np.linalg.svd(np.asarray(pi, dtype=float), compute_uv=False)


def orbit_transporter(z1, z2, tol=1e-8) -> np.ndarray:
    """Orthogonal R with Z1 R = Z2, for two points on one sp-momentum level set.

    Each level set of the symplectic momentum map is a single orbit of the
    right orthogonal action, so such an R exists exactly when the momentum
    values agree; R = (Z1^T Z1)^{-1} Z1^T Z2 and the result is certified.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    _split(z1)
    if z2.shape != z1.shape:
        raise DimensionError(f"shape mismatch: {z1.shape} vs {z2.shape}")
    gap = float(np.linalg.norm(sp_momentum(z1) - sp_momentum(z2)))
    if gap > tol:
        raise LevelSetError(
            f"momentum values differ by {gap:.3g} > {tol:.3g}: "
            "not on a common level set"
        )
    r = np.linalg.solve(z1.T @ z1, z1.T @ z2)
    transport = float(np.linalg.norm(z1 @ r - z2))
    orth = float(np.linalg.norm(r.T @ r - np.eye(r.shape[0])))
    if transport > tol or orth > tol:
        raise CertificationError(
            f"transporter failed certification: transport defect {transport:.3g}, "
            f"orthogonality defect {orth:.3g}"
        )
    return r


def level_set_defect(z, mu0):
    """Distance of z from the level set of the momentum value mu0.

    Maximum of the three independent block residuals of J Z Z^T against
    mu0: the P P^T and Q Q^T blocks (identity for lifted level sets) and
    the P Q^T block.  A float for one phase point, one value per leading
    index of a stack ``(..., 2n, n)``.
    """
    q, p = _split(z, stacked=True)
    n = q.shape[-1]
    mu0 = _as_2n(mu0, n, "momentum value")
    d_qq = _frobenius(q @ q.swapaxes(-1, -2) + mu0[n:, :n])
    d_pp = _frobenius(p @ p.swapaxes(-1, -2) - mu0[:n, n:])
    d_pq = _frobenius(p @ q.swapaxes(-1, -2) - mu0[:n, :n])
    if q.ndim == 2:
        return max(d_qq, d_pp, d_pq)
    return np.maximum(np.maximum(d_qq, d_pp), d_pq)


def reduced_form_check(z, a, b):
    """Both sides of the reduced symplectic-form identity on orbit directions.

    Returns the pair (omega(Z a, Z b), kks_form(M(Z), a, b)); the flat form
    on the generator directions must agree with the orbit form at the
    momentum value, which is the content of the reduction of the symplectic
    structure.
    """
    z = np.asarray(z, dtype=float)
    first = symplectic_form(z @ np.asarray(a, dtype=float),
                            z @ np.asarray(b, dtype=float))
    second = kks_form(on_momentum(z), a, b)
    return first, second
