"""Attitude steering as a two-point boundary value problem.

The minimum-effort steering problem (drive an attitude from Q0 to a
target in time T while minimizing the integrated quadratic control cost)
has its extremals exactly among the symmetric-representation flows, so
the search space is the initial body momentum: each candidate is lifted
to a phase point, integrated forward, and scored by the terminal
attitude mismatch.  A damped Gauss-Newton iteration with a
forward-difference Jacobian runs over the n(n-1)/2 free momentum
entries; candidates are kept strictly inside the lift bound, spectral
norm 2.  A target whose extremal needs a momentum at or beyond the bound
is not reached: the iterates pin at the bound and the solve ends with
reason "max_iter", its message giving the norm of the best momentum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body import InertiaSpec
from .errors import ConvergenceError, DimensionError
from .integrate import IntegratorConfig, Trajectory, integrate_symrep
from .lift import solve_lift
from .matcore import require_rotation, spectral_norm
from .symrep import hamiltonian, q_block

__all__ = ["BvpProblem", "BvpSolution", "shoot", "trajectory_cost"]

# Candidates must stay strictly inside the lift bound 2; the cap sits just
# above the lift's own refusal margin so near-boundary extremals (relative
# equilibria about the stiffest axis) remain reachable.
_MOMENTUM_CAP = 2.0 - 1e-8
# A best iterate this close to the bound is reported as pinned there.
_PINNED_MARGIN = 1e-3
_FD_STEP = 1e-6
_ARMIJO = 1e-4
_MIN_DAMPING = 1e-12
_MAX_RESTARTS = 3


@dataclass(frozen=True)
class BvpProblem:
    spec: InertiaSpec
    q0: np.ndarray
    q_target: np.ndarray
    t_final: float
    cfg: IntegratorConfig

    def __post_init__(self):
        q0 = require_rotation(np.asarray(self.q0, dtype=float))
        qt = require_rotation(np.asarray(self.q_target, dtype=float))
        if q0.shape != (self.spec.n, self.spec.n) or qt.shape != q0.shape:
            raise DimensionError("attitudes must be n x n for the given inertia")
        if abs(self.t_final - self.cfg.t_final) > 1e-12 * max(1.0, self.t_final):
            raise ValueError("t_final must equal cfg.t_final")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q_target", qt)


@dataclass
class BvpSolution:
    pi0: np.ndarray
    terminal_error: float
    cost: float
    iterations: int
    trajectory: Trajectory


def _skew_from_params(x, n):
    a = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    a[iu] = x
    return a - a.T


def _params_from_skew(a):
    return a[np.triu_indices(a.shape[0], 1)]


def trajectory_cost(spec: InertiaSpec, traj: Trajectory) -> float:
    """Composite Simpson quadrature of the control effort (1/2) <I u, u>.

    At the maximizing control u = I^{-1}(Z^T J Z) the effort equals the
    phase-space energy, so the integrand is `hamiltonian` over the stacked
    states.  Requires a uniformly stepped phase-point trajectory with at
    least three samples.  An odd interval count is closed with the 3/8
    rule on the last three intervals, keeping 4th-order accuracy.
    """
    if traj.kind != "symrep":
        raise ValueError(f"cost is defined for phase-point trajectories, got {traj.kind!r}")
    if len(traj) < 3:
        raise ValueError("cost quadrature needs at least 3 samples")
    dt = np.diff(traj.times)
    h = float(dt[0])
    if np.max(np.abs(dt - h)) > 1e-9 * max(1.0, h):
        raise ValueError("cost quadrature needs a uniform step")
    f = hamiltonian(spec, traj.states)
    intervals = len(f) - 1
    total = 0.0
    if intervals % 2 == 1:
        # 3/8 rule on the trailing three intervals.
        tail = f[-4:]
        total += 3.0 * h / 8.0 * (tail[0] + 3.0 * tail[1] + 3.0 * tail[2] + tail[3])
        f = f[: intervals - 3 + 1]
        intervals -= 3
    if intervals > 0:
        total += h / 3.0 * (
            f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-2:2])
        )
    return float(total)


def _terminal_residual(problem: BvpProblem, pi0):
    z0 = solve_lift(problem.q0, pi0)
    traj = integrate_symrep(problem.spec, z0, problem.cfg)
    r = (q_block(traj.states[-1]) - problem.q_target).ravel()
    return r, traj


def shoot(problem: BvpProblem, tol=1e-6, max_iter=30, seed=0) -> BvpSolution:
    """Damped Gauss-Newton shooting on the initial body momentum.

    Success means the terminal attitude mismatch (Frobenius) is at most
    ``tol``.  Candidates stay strictly inside the lift bound, spectral
    norm 2.  ``seed`` drives the random restarts tried when the line
    search stalls.  Raises ConvergenceError carrying the best iterate:

    * reason "max_iter" when the iteration budget is exhausted.  This is
      also how a target outside the lift bound ends: the iterates pin at
      spectral norm 2, and the message then names the bound and gives
      the norm of the best momentum.
    * reason "trust_region" when the line search stalls with no restart
      left.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = problem.spec.n
    d = n * (n - 1) // 2
    rng = np.random.default_rng(seed)

    def objective(x):
        r, traj = _terminal_residual(problem, _skew_from_params(x, n))
        return r, float(r @ r), traj

    x = np.zeros(d)
    r, fval, traj = objective(x)
    best = (x.copy(), np.sqrt(fval), traj)
    iterations = 0
    restarts = 0

    while iterations < max_iter:
        if np.sqrt(fval) <= tol:
            break
        jac = np.empty((r.size, d))
        for j in range(d):
            # one-sided difference, flipped when the probe would cross the cap
            xj = x.copy()
            xj[j] += _FD_STEP
            sign = 1.0
            if spectral_norm(_skew_from_params(xj, n)) >= _MOMENTUM_CAP:
                xj[j] -= 2.0 * _FD_STEP
                sign = -1.0
            rj, _, _ = objective(xj)
            jac[:, j] = sign * (rj - r) / _FD_STEP
        direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        slope = 2.0 * float((jac.T @ r) @ direction)
        alpha = 1.0
        stepped = False
        while alpha >= _MIN_DAMPING:
            candidate = x + alpha * direction
            if spectral_norm(_skew_from_params(candidate, n)) >= _MOMENTUM_CAP:
                alpha *= 0.5
                continue
            r_new, f_new, traj_new = objective(candidate)
            if f_new <= fval + _ARMIJO * alpha * slope:
                x, r, fval, traj = candidate, r_new, f_new, traj_new
                stepped = True
                break
            alpha *= 0.5
        iterations += 1
        if np.sqrt(fval) < best[1]:
            best = (x.copy(), np.sqrt(fval), traj)
        if not stepped:
            if restarts < _MAX_RESTARTS:
                restarts += 1
                x = 0.3 * restarts * rng.uniform(-1.0, 1.0, d)
                norm = spectral_norm(_skew_from_params(x, n))
                if norm >= 1.0:
                    x *= 0.9 / norm
                r, fval, traj = objective(x)
                continue
            raise ConvergenceError(
                "line search stalled inside the momentum trust region; "
                f"best terminal error {best[1]:.3g} (target may be infeasible "
                "within the lift bound)",
                best=_solution(problem, best),
                reason="trust_region",
            )

    if np.sqrt(fval) > tol:
        message = (
            f"no convergence in {max_iter} Gauss-Newton iterations; "
            f"best terminal error {best[1]:.3g} > tol {tol:g}"
        )
        best_norm = spectral_norm(_skew_from_params(best[0], n))
        if best_norm >= 2.0 - _PINNED_MARGIN:
            message += (
                f"; the best momentum has spectral norm {best_norm:.8f}, pinned at "
                "the lift bound 2 (the target may need a momentum beyond it)"
            )
        raise ConvergenceError(message, best=_solution(problem, best), reason="max_iter")
    sol = _solution(problem, (x, np.sqrt(fval), traj))
    sol.iterations = iterations
    return sol


def _solution(problem: BvpProblem, triple) -> BvpSolution:
    x, terminal_error, traj = triple
    pi0 = _skew_from_params(np.asarray(x, dtype=float), problem.spec.n)
    return BvpSolution(
        pi0=pi0,
        terminal_error=float(terminal_error),
        cost=trajectory_cost(problem.spec, traj),
        iterations=0,
        trajectory=traj,
    )
