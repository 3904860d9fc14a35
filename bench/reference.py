"""Reference computations written apart from nrigid, used to check its outputs.

Nothing here imports nrigid: the Euler equation is integrated in
three-vector form with ``np.cross``, the attitude-momentum system with
its own inertia inverse, and plane rotations come from the Rodrigues
formula.
"""

from __future__ import annotations

import numpy as np

# README tolerances of `verify-reduction`; the reduction theorem predicts
# agreement to discretization accuracy, far inside these.
README_TOLERANCES = {
    "e_equiv": 1e-6,
    "level_set_defect": 1e-8,
    "energy_match": 1e-6,
    "casimir_drift": 1e-8,
}


def pair_sums(lam) -> np.ndarray:
    """lambda_i + lambda_j, with 1 on the diagonal (skew matrices are zero there)."""
    lam = np.asarray(lam, dtype=float)
    s = lam[:, None] + lam[None, :]
    np.fill_diagonal(s, 1.0)
    return s


def hat3(v) -> np.ndarray:
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee3(m) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def euler_cross(lam, m0, t_final: float, step: float) -> np.ndarray:
    """Body momentum at t_final by RK4 of m' = m x (m / I) in three dimensions.

    With pi = hat(m), (I om)_ij = (lambda_i + lambda_j) om_ij gives the
    principal moments I_k = lambda_i + lambda_j over {i, j, k} = {1, 2, 3},
    and [hat(a), hat(b)] = hat(a x b) turns pi' = [pi, I^{-1} pi] into
    the cross-product form.
    """
    l1, l2, l3 = lam
    moments = np.array([l2 + l3, l1 + l3, l1 + l2])
    steps = int(round(t_final / step))
    m = np.asarray(m0, dtype=float)

    def f(x):
        return np.cross(x, x / moments)

    for _ in range(steps):
        k1 = f(m)
        k2 = f(m + 0.5 * step * k1)
        k3 = f(m + 0.5 * step * k2)
        k4 = f(m + step * k3)
        m = m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def euler_poisson_attitude(lam, pi0, t_final: float, step: float) -> np.ndarray:
    """Attitude at t_final by RK4 of Q' = Q om, pi' = [pi, om], om = I^{-1} pi, from (I, pi0)."""
    sums = pair_sums(lam)
    n = len(lam)
    steps = int(round(t_final / step))

    def f(q, pi):
        om = pi / sums
        return q @ om, pi @ om - om @ pi

    q, pi = np.eye(n), np.asarray(pi0, dtype=float)
    for _ in range(steps):
        a1, b1 = f(q, pi)
        a2, b2 = f(q + 0.5 * step * a1, pi + 0.5 * step * b1)
        a3, b3 = f(q + 0.5 * step * a2, pi + 0.5 * step * b2)
        a4, b4 = f(q + step * a3, pi + step * b3)
        q = q + (step / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        pi = pi + (step / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return q


def rotation3(k) -> np.ndarray:
    """exp(K) of a 3 x 3 skew matrix by the Rodrigues formula."""
    k = np.asarray(k, dtype=float)
    angle = float(np.linalg.norm(vee3(k)))
    return (np.eye(3) + np.sin(angle) / angle * k
            + (1.0 - np.cos(angle)) / angle ** 2 * (k @ k))


def plane_rotation(rng: np.random.Generator, n: int, angle: float) -> np.ndarray:
    """Rotation by `angle` in a random 2-plane of R^n (Rodrigues: K^3 = -K)."""
    u, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    k = np.outer(u[:, 1], u[:, 0]) - np.outer(u[:, 0], u[:, 1])
    return np.eye(n) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def calibration_kernel() -> None:
    """A fixed amount of work of the kind nrigid does: small-array numpy calls from Python.

    Its time, sampled every quarter second of a run, tracks how fast the
    host runs at that moment; see the README for why timings are divided
    by it.
    """
    euler_cross((1.0, 2.0, 3.0), (0.5, 0.6, 0.7), 0.05, 1e-3)
    euler_poisson_attitude((1.0, 2.0, 3.0), hat3((0.5, 0.6, 0.7)), 0.05, 1e-3)


def momentum_value(z: np.ndarray) -> np.ndarray:
    """Z^T J Z = Q^T P - P^T Q, batched over leading axes of 2n x n points."""
    n = z.shape[-1]
    q, p = z[..., :n, :], z[..., n:, :]
    m = np.swapaxes(q, -1, -2) @ p
    return m - np.swapaxes(m, -1, -2)


def phase_energy(lam, z: np.ndarray) -> np.ndarray:
    """(1/2) <W, I^{-1} W> with <a, b> = (1/2) tr(a^T b) and W = Z^T J Z, batched."""
    w = momentum_value(z)
    return 0.25 * np.sum(w * (w / pair_sums(lam)), axis=(-2, -1))
