"""Bridge between the phase-space and body pictures.

`solve_lift` constructs the phase point realizing a prescribed attitude
and body momentum, `mu0_of` evaluates its conserved symplectic momentum
value, and `verify_reduction` co-integrates the symmetric representation
and the Euler equation and measures how closely the orthogonal momentum
value of the phase flow tracks the body momentum, together with the
level-set, energy, and Casimir diagnostics, from only the audit channels
its report reads.
"""

from __future__ import annotations

import numpy as np

from .body import InertiaSpec, reduced_hamiltonian
from .errors import CertificationError, DimensionError
from .integrate import IntegratorConfig, _audit, _euler, _momentum_channels, _symrep
from .matcore import (
    _frobenius,
    expm,
    require_rotation,
    rotation_defect,
    skew_asinh,
)
from .moment import level_set_defect, on_momentum, sp_momentum
from .symrep import is_full_rank, phase_point

__all__ = ["solve_lift", "mu0_of", "verify_reduction"]

_LIFT_TOL = 1e-10


def solve_lift(q0, pi0) -> np.ndarray:
    """Phase point [Q0; P0] with P0 a rotation and Q0^T P0 - P0^T Q0 = pi0.

    P0 = Q0 exp(A) where A solves 2 sinh(A) = pi0 on the principal branch,
    which requires the spectral norm of pi0 to be below 2.  The returned
    point is certified: P0 is a rotation to 1e-10, the momentum residual
    is below 1e-10, and the point is full rank.
    """
    q0 = require_rotation(np.asarray(q0, dtype=float))
    pi0 = np.asarray(pi0, dtype=float)
    if pi0.shape != q0.shape:
        raise DimensionError(
            f"attitude and momentum shapes differ: {q0.shape} vs {pi0.shape}"
        )
    # skew_asinh validates pi0: finite, skew and below the lift bound.
    p0 = q0 @ expm(skew_asinh(pi0))
    z0 = phase_point(q0, p0)
    residual = float(np.linalg.norm(q0.T @ p0 - p0.T @ q0 - pi0))
    if rotation_defect(p0) > _LIFT_TOL or residual > _LIFT_TOL:
        raise CertificationError(
            f"lift certification failed: rotation defect {rotation_defect(p0):.3g}, "
            f"momentum residual {residual:.3g}"
        )
    if not is_full_rank(z0):
        raise CertificationError("lifted phase point is not full rank")
    return z0


def mu0_of(z0) -> np.ndarray:
    """Symplectic momentum value of a lifted phase point.

    For a lift the off-diagonal blocks are +I and -I; deviations beyond
    1e-8 indicate the input was not produced by `solve_lift`.
    """
    mu = sp_momentum(z0)
    n = mu.shape[0] // 2
    eye = np.eye(n)
    if (
        np.linalg.norm(mu[:n, n:] - eye) > 1e-8
        or np.linalg.norm(mu[n:, :n] + eye) > 1e-8
    ):
        raise CertificationError(
            "momentum value does not have the +I/-I off-diagonal blocks of a lift"
        )
    return mu


def verify_reduction(spec: InertiaSpec, q0, pi0, cfg: IntegratorConfig) -> dict:
    """Co-integrate both pictures and report the reduction diagnostics.

    The phase point is integrated from the lift of (q0, pi0) and the body
    momentum from pi0 with the identical scheme and step, so the report
    isolates the structural equivalence from scheme differences.  Keys:

    * ``e_equiv``: max over time of the Frobenius distance between the
      orthogonal momentum value of the phase flow and the body momentum.
    * ``level_set_defect``: max defect from the initial momentum level set.
    * ``energy_match``: max absolute gap between the two energies.
    * ``casimir_drift``: max drift of the momentum singular values along
      the phase flow.

    Both runs raise what `integrate_symrep` and `integrate_euler` raise, but
    only the six audit channels these keys read are computed: the phase
    flow's rank margin, momentum value, energy and spectrum, the body flow's
    energy, and the level-set defect, each with the integrators' arithmetic
    and, as there, a channel that is not finite at some state ends the
    call in `DivergenceError`.
    """
    z0 = solve_lift(q0, pi0)
    mu0 = mu0_of(z0)
    z = _symrep(spec, z0, cfg)[1]
    pi = _euler(spec, pi0, cfg)[1]
    phase = _audit(z, {"on_momentum": on_momentum,
                       "level_set_defect": lambda b: level_set_defect(b, mu0)})
    on = phase["on_momentum"]
    flow = _audit(on, _momentum_channels(spec))
    energy = _audit(pi, {"hamiltonian": lambda b: reduced_hamiltonian(spec, b)})["hamiltonian"]
    spectra = flow["casimir_spectrum"]
    return {
        "e_equiv": float(np.max(_frobenius(on - pi))),
        "level_set_defect": float(np.max(phase["level_set_defect"])),
        "energy_match": float(np.max(np.abs(flow["hamiltonian"] - energy))),
        "casimir_drift": float(np.max(np.abs(spectra - spectra[0]))),
    }
