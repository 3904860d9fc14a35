"""The rigid body on so(n): inertia operator, reduced energy, Euler and
Euler-Poisson vector fields, and the three-dimensional hat/vee dictionary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .matcore import _as_square, inner

__all__ = [
    "InertiaSpec",
    "inertia_apply",
    "inertia_inverse",
    "reduced_hamiltonian",
    "euler_rhs",
    "euler_poisson_rhs",
    "hat",
    "vee",
]


@dataclass(frozen=True, eq=False)
class InertiaSpec:
    """Diagonal mass-distribution parameters lambda_1..lambda_n.

    The inertia operator acts entrywise on skew matrices,
    (I om)_ij = (lambda_i + lambda_j) om_ij, so every pairwise sum with
    i != j must be positive; this is checked eagerly because the inverse
    divides by those sums.

    A stack of parameter vectors ``(..., n)`` is one body per leading
    index: `inertia_apply`, `inertia_inverse`, `reduced_hamiltonian` and
    `hamiltonian` broadcast its pair sums against the leading axes of
    their argument.  The integrators step a single body.
    """

    lam: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if lam.shape[-1] < 2:
            raise DimensionError("lambda must be a vector of length >= 2")
        if not np.isfinite(lam).all():
            raise ValueError("lambda entries must be finite")
        sums = lam[..., :, None] + lam[..., None, :]
        bad = np.argwhere(np.triu(sums <= 1e-12, 1))
        if bad.size:
            *body, i, j = bad[0]
            at = "".join(f"[{k}]" for k in body)
            raise ValueError(
                f"lambda{at}[{i}] + lambda{at}[{j}] = {sums[tuple(bad[0])]:.6g} "
                "must be positive"
            )
        # Diagonal set to 1 so entrywise division is safe; skew matrices
        # are zero there anyway.
        diagonal = np.arange(lam.shape[-1])
        sums[..., diagonal, diagonal] = 1.0
        sums.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "_pair_sums", sums)
        object.__setattr__(self, "n", lam.shape[-1])  # read in every step: set once, not a property


def _check_n_by_n(spec: InertiaSpec, m) -> np.ndarray:
    # The last two axes are checked, so stacks (..., n, n) pass too.
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (spec.n, spec.n):
        raise DimensionError(f"expected a {spec.n}x{spec.n} matrix, got shape {m.shape}")
    return m


def inertia_apply(spec: InertiaSpec, omega) -> np.ndarray:
    """Body momentum from body velocity: Lambda om + om Lambda, entrywise (lambda_i + lambda_j) om_ij."""
    omega = _check_n_by_n(spec, omega)
    return spec._pair_sums * omega


def inertia_inverse(spec: InertiaSpec, pi) -> np.ndarray:
    """Body velocity from body momentum: entrywise pi_ij / (lambda_i + lambda_j).

    Accepts stacks ``(..., n, n)``.
    """
    return _check_n_by_n(spec, pi) / spec._pair_sums


def reduced_hamiltonian(spec: InertiaSpec, pi):
    """Kinetic energy (1/2) <pi, I^{-1} pi> of a body momentum.

    A float for one momentum, one value per leading index of a stack
    ``(..., n, n)``.
    """
    return 0.5 * inner(pi, inertia_inverse(spec, pi))


def _euler_kernels(spec: InertiaSpec, mm):
    # The Euler field [pi, om], the body velocity om = I^{-1} pi and the action
    # g^T pi g, over the last two axes; mm is np.ndarray.dot or np.matmul.
    sums = spec._pair_sums

    def field(pi):
        om = pi / sums
        return mm(pi, om) - mm(om, pi)

    def velocity(pi):
        return pi / sums

    def act(pi, g):
        return mm(mm(g.swapaxes(-2, -1), pi), g)
    return field, velocity, act


def euler_rhs(spec: InertiaSpec, pi) -> np.ndarray:
    """Right-hand side [pi, I^{-1} pi] of the Euler equation on so(n)."""
    return _euler_kernels(spec, np.ndarray.dot)[0](_as_square(_check_n_by_n(spec, pi)))


def _attitude_momentum_kernels(spec: InertiaSpec, mm):
    # The field (Q om, [pi, om]) of y = [Q; pi], the body velocity om = I^{-1} pi
    # and the action [Q g; g^T pi g], as in `_euler_kernels`.
    n, sums = spec.n, spec._pair_sums
    attitude, momentum = (..., slice(n), slice(None)), (..., slice(n, None), slice(None))

    def field(y):
        om = y[momentum] / sums
        ydot = mm(y, om)
        ydot[momentum] -= mm(om, y[momentum])
        return ydot

    def velocity(y):
        return y[momentum] / sums

    def act(y, g):
        return np.concatenate([mm(y[attitude], g), mm(mm(g.swapaxes(-2, -1), y[momentum]), g)],
                              axis=-2)
    return field, velocity, act


def euler_poisson_rhs(spec: InertiaSpec, y) -> np.ndarray:
    """Right-hand side (Q om, [pi, om]) with om = I^{-1} pi, on the stack [Q; pi].

    Takes and returns one ``(2n, n)`` array, the layout of the
    ``euler-poisson`` trajectory states; its momentum block is `euler_rhs`.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (2 * spec.n, spec.n):
        raise DimensionError(f"expected a [Q; pi] stack of shape {(2 * spec.n, spec.n)}, "
                             f"got shape {y.shape}")
    return _attitude_momentum_kernels(spec, np.ndarray.dot)[0](y)


def hat(v) -> np.ndarray:
    """3-vector to skew matrix, with hat(e3)[1, 0] = +1.

    Satisfies hat(u x v) = [hat(u), hat(v)] and <hat(u), hat(v)> = u . v.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != 3:
        raise DimensionError("hat expects a 3-vector")
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def vee(m) -> np.ndarray:
    """Inverse of hat: skew 3x3 matrix to 3-vector."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise DimensionError("vee is only defined for 3x3 matrices")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])
