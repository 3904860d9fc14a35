"""The dual pair on full-rank phase points: the symplectic-group and
orthogonal-group actions, their momentum maps and coadjoint
representations, the Kirillov-Kostant-Souriau form on momentum orbits,
level-set diagnostics, and a seeded battery of the dual pair's
identities on random points."""

from __future__ import annotations

import numpy as np

from .body import InertiaSpec, reduced_hamiltonian
from .errors import CertificationError, DimensionError, LevelSetError
from .matcore import (
    _frobenius,
    _jmat,
    _require_integer,
    _rotation_of,
    _skew_part,
    _sp_element,
    _sp_group_of,
    commutator,
    inner,
)
from .symrep import _split, hamiltonian, one_form, symplectic_form

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
    "invariant_battery",
]

# The identities of `invariant_battery` and their tolerances, in the order
# the command prints them.
_BATTERY_TOLERANCES = {
    "momentum_identity_sp": 1e-12,
    "momentum_identity_on": 1e-12,
    "equivariance_sp": 1e-11,
    "equivariance_on": 1e-12,
    "hamiltonian_invariance": 1e-11,
    "one_form_invariance": 1e-12,
    "reduced_form_consistency": 1e-12,
    "collective_hamiltonian": 1e-12,
}
# Trials per block of the battery, each block split by n; it bounds the
# battery's temporaries.  3000 trials peak at 0.65 MiB traced (tracemalloc)
# at 192, 0.44 at 128, 1.29 at 384 and 9.7 unblocked (Python 3.11, numpy 2.4).
_BATTERY_BLOCK = 192


def _as_2n(m, n: int, what: str, stacked=False) -> np.ndarray:
    # With ``stacked``, m may carry leading axes (..., 2n, 2n).
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2 * n, 2 * n) or (m.ndim != 2 and not (stacked and m.ndim > 2)):
        raise DimensionError(f"{what} has shape {m.shape}, expected {(2 * n, 2 * n)}")
    return m


def sp_action(s, z) -> np.ndarray:
    """Left multiplication S Z by a symplectic matrix.

    Stacks ``(..., 2n, 2n)`` and ``(..., 2n, n)`` multiply member by
    member, their leading axes broadcast as in ``np.matmul``.
    """
    q, _ = _split(z, stacked=True)
    s = _as_2n(s, q.shape[-1], "group element", stacked=True)
    return s @ np.asarray(z, dtype=float)


def on_action(z, r) -> np.ndarray:
    """Right multiplication Z R by an orthogonal matrix (det -1 allowed).

    Stacks ``(..., 2n, n)`` and ``(..., n, n)`` multiply member by member,
    their leading axes broadcast as in ``np.matmul``.
    """
    q, _ = _split(z, stacked=True)
    r = np.asarray(r, dtype=float)
    if r.ndim < 2 or r.shape[-2:] != q.shape[-2:]:
        raise DimensionError(f"orthogonal factor has shape {r.shape}, expected {q.shape[-2:]}")
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
    sp_coadjoint(S, sp_momentum(Z)).  Stacks ``(..., 2n, 2n)`` transport
    member by member, their leading axes broadcast as in ``np.matmul``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-2] != s.shape[-1] or s.shape[-1] % 2 != 0:
        raise DimensionError(f"expected a 2n x 2n matrix, got shape {s.shape}")
    n = s.shape[-1] // 2
    mu = _as_2n(mu, n, "momentum value", stacked=True)
    j = _jmat(n)
    s_inv_t = -(j @ s @ j)
    return s_inv_t @ mu @ s.swapaxes(-1, -2)


def on_coadjoint(r, pi) -> np.ndarray:
    """Coadjoint transport R^T pi R, fixed so on_momentum(Z R) = on_coadjoint(R, on_momentum(Z)).

    Stacks ``(..., n, n)`` transport member by member, their leading axes
    broadcast as in ``np.matmul``.
    """
    r = np.asarray(r, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if r.ndim < 2 or r.shape[-2] != r.shape[-1] or r.shape[-2:] != pi.shape[-2:]:
        raise DimensionError(f"shape mismatch: {r.shape} vs {pi.shape}")
    return r.swapaxes(-1, -2) @ pi @ r


def infinitesimal_generator(xi, z) -> np.ndarray:
    """Generator of the symplectic action at z: xi Z."""
    q, _ = _split(z)
    xi = _as_2n(xi, q.shape[0], "algebra element")
    return xi @ np.asarray(z, dtype=float)


def ad_star(a, pi) -> np.ndarray:
    """Coadjoint operator on so(n)*: ad*_a pi = [pi, a]."""
    return commutator(pi, a)


def kks_form(pi, a, b):
    """Minus-convention orbit symplectic form: -<pi, [a, b]>.

    Evaluated on the orbit tangent vectors generated by a and b at pi.  A
    float for three matrices, one value per leading index of three stacks
    ``(..., n, n)`` of equal shape.
    """
    return -inner(pi, commutator(a, b))


def casimir_spectrum(pi) -> np.ndarray:
    """Singular values of a momentum value, descending.

    Constant on coadjoint orbits, hence conserved by any Lie-Poisson flow.
    A stack ``(..., n, n)`` gives one spectrum per leading index.
    """
    return np.linalg.svd(np.asarray(pi, dtype=float), compute_uv=False)


def orbit_transporter(z1, z2) -> np.ndarray:
    """Orthogonal R with Z1 R = Z2, for two points on one sp-momentum level set.

    Each level set of the symplectic momentum map is a single orbit of the
    right orthogonal action, so such an R exists exactly when the momentum
    values agree (to 1e-8); R = (Z1^T Z1)^{-1} Z1^T Z2, certified to 1e-8.
    """
    tol = 1e-8
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
    structure.  Two floats for one point, two arrays with one value per
    leading index for stacks ``(..., 2n, n)`` and ``(..., n, n)`` of equal
    leading shape.
    """
    z = np.asarray(z, dtype=float)
    first = symplectic_form(z @ np.asarray(a, dtype=float),
                            z @ np.asarray(b, dtype=float))
    second = kks_form(on_momentum(z), a, b)
    return first, second


def _battery_group(seed: int, trials: np.ndarray, n: int) -> dict:
    # The residuals of the trials `trials`, all of dimension n, computed
    # over the stack of their points.  Trial t draws from its own generator
    # default_rng(seed + t): lambda, then the 13 n x n blocks of Z, Zdot,
    # xi, a, b, S and R in one call, the same values as drawn one by one.
    lam = np.empty((len(trials), n))
    draws = np.empty((len(trials), 13, n, n))
    for k, trial in enumerate(trials.tolist()):
        rng = np.random.default_rng(seed + trial)
        lam[k] = rng.uniform(0.5, 2.0, n)
        draws[k] = rng.uniform(-1.0, 1.0, (13, n, n))
    spec = InertiaSpec(lam)
    z = draws[:, 0:2].reshape(-1, 2 * n, n)
    zdot = draws[:, 2:4].reshape(-1, 2 * n, n)
    xi = _sp_element(draws[:, 4:7])
    a = _skew_part(draws[:, 7])
    b = _skew_part(draws[:, 8])
    s = _sp_group_of(draws[:, 9:12])
    r = _rotation_of(draws[:, 12])
    odd = trials % 2 == 1
    r[odd] = r[odd] @ np.diag([-1.0] + [1.0] * (n - 1))

    mu, pi = sp_momentum(z), on_momentum(z)
    sz, zr = sp_action(s, z), on_action(z, r)
    h, theta = hamiltonian(spec, z), one_form(z, zdot)
    lhs, rhs = reduced_form_check(z, a, b)
    return {
        "momentum_identity_sp": np.abs(inner(mu, xi) - one_form(z, xi @ z)),
        "momentum_identity_on": np.abs(inner(pi, a) - one_form(z, z @ a)),
        "equivariance_sp": _frobenius(sp_momentum(sz) - sp_coadjoint(s, mu)),
        "equivariance_on": _frobenius(on_momentum(zr) - on_coadjoint(r, pi)),
        "hamiltonian_invariance": np.abs(hamiltonian(spec, sz) - h),
        "one_form_invariance": np.stack([np.abs(one_form(sz, s @ zdot) - theta),
                                         np.abs(one_form(zr, zdot @ r) - theta)], axis=-1),
        "reduced_form_consistency": np.abs(lhs - rhs),
        "collective_hamiltonian": np.abs(reduced_hamiltonian(spec, pi) - h),
    }


def invariant_battery(seed: int, trials: int) -> dict:
    """Seeded property battery over the dual pair's identities.

    Trial t takes n = 3 + t % 3 and draws from ``default_rng(seed + t)``
    an inertia, a phase point Z with a tangent Zdot, xi in sp(2n), skew a
    and b, S in Sp(2n) and R in O(n), with det R = -1 on odd trials.  It
    checks the momentum maps against the one-form (``<J Z Z^T, xi>`` and
    ``<Z^T J Z, a>``), their equivariance under S and R, the invariance
    of the energy under S and of the one-form under S and R,
    `reduced_form_check` on (a, b), and the collective Hamiltonian
    ``h(Z^T J Z) = H(Z)``.  Returns, for each identity, the number of
    trials within its tolerance.

    The trials are evaluated in blocks, stacked by n, through the stacked
    kernels; every residual is that of the trial's own 2-D evaluation, bit
    for bit.
    """
    trials, seed = _require_integer("trials", trials), _require_integer("seed", seed)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    counts = dict.fromkeys(_BATTERY_TOLERANCES, 0)
    for start in range(0, trials, _BATTERY_BLOCK):
        block = np.arange(start, min(start + _BATTERY_BLOCK, trials))
        for n in (3, 4, 5):
            group = block[block % 3 == n - 3]
            if group.size:
                for name, values in _battery_group(seed, group, n).items():
                    held = (values <= _BATTERY_TOLERANCES[name]).reshape(len(group), -1)
                    counts[name] += int(np.count_nonzero(held.all(axis=1)))
    return counts
