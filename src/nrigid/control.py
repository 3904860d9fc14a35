"""Attitude steering as a two-point boundary value problem.

The minimum-effort steering problem (drive an attitude from Q0 to a
target in time T while minimizing the integrated quadratic control cost)
has its extremals exactly among the symmetric-representation flows, so
the search space is the initial body momentum: each candidate pi0 is
lifted to [Q0; Q0 pi0/2], integrated forward without attitude projection
(which needs a rotation P block), and scored by the terminal attitude
mismatch.  That lift has momentum value pi0 and full rank for every skew
pi0, and the attitude flow depends only on Q0 and pi0, so pi0 has no
bound.  A damped Gauss-Newton iteration with a forward-difference
Jacobian runs over the n(n-1)/2 free momentum entries.  The returned
trajectory keeps P a rotation only when `solve_lift` accepts pi0;
otherwise its ``orthogonality_defect`` audit is meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .body import InertiaSpec
from .errors import ConvergenceError, DimensionError, OutOfRangeError
from .integrate import IntegratorConfig, Trajectory, integrate_symrep
from .lift import solve_lift
from .matcore import require_rotation
from .symrep import hamiltonian, phase_point, q_block

__all__ = ["BvpProblem", "BvpSolution", "shoot", "trajectory_cost"]

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


def _bound_free_flow(problem: BvpProblem, pi0) -> Trajectory:
    # P = Q0 pi0/2 is no rotation, and projection only repairs drift
    z0 = phase_point(problem.q0, 0.5 * problem.q0 @ pi0)
    return integrate_symrep(problem.spec, z0, replace(problem.cfg, project_attitude=False))


def shoot(problem: BvpProblem, tol=1e-6, max_iter=30, seed=0) -> BvpSolution:
    """Damped Gauss-Newton shooting on the initial body momentum.

    Success means the terminal attitude mismatch (Frobenius) of the
    search is at most ``tol``; pi0 has no bound.  The returned trajectory
    starts from ``solve_lift(q0, pi0)`` under ``problem.cfg`` when that
    lift exists, so P stays a rotation.  Otherwise it is the search's
    unprojected flow from [Q0; Q0 pi0/2], whose P is no rotation and whose
    ``orthogonality_defect`` audit is meaningless (about 34 for a 2.5 rad
    turn of the (1, 2, 3) body in unit time).  ``seed`` drives the random
    restarts tried when the line search stalls.  Raises ConvergenceError
    carrying the best iterate:

    * reason "max_iter" when the iteration budget is exhausted.
    * reason "line_search" when the line search stalls with no restart
      left.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = problem.spec.n
    d = n * (n - 1) // 2
    rng = np.random.default_rng(seed)

    def objective(x):
        traj = _bound_free_flow(problem, _skew_from_params(x, n))
        r = (q_block(traj.states[-1]) - problem.q_target).ravel()
        return r, float(r @ r)

    x = np.zeros(d)
    r, fval = objective(x)
    best = (x.copy(), np.sqrt(fval))
    iterations = 0
    restarts = 0

    while iterations < max_iter:
        if np.sqrt(fval) <= tol:
            break
        jac = np.empty((r.size, d))
        for j in range(d):
            xj = x.copy()
            xj[j] += _FD_STEP
            rj, _ = objective(xj)
            jac[:, j] = (rj - r) / _FD_STEP
        direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        slope = 2.0 * float((jac.T @ r) @ direction)
        alpha = 1.0
        stepped = False
        while alpha >= _MIN_DAMPING:
            candidate = x + alpha * direction
            r_new, f_new = objective(candidate)
            if f_new <= fval + _ARMIJO * alpha * slope:
                x, r, fval = candidate, r_new, f_new
                stepped = True
                break
            alpha *= 0.5
        iterations += 1
        if np.sqrt(fval) < best[1]:
            best = (x.copy(), np.sqrt(fval))
        if not stepped:
            if restarts < _MAX_RESTARTS:
                restarts += 1
                x = 0.3 * restarts * rng.uniform(-1.0, 1.0, d)
                r, fval = objective(x)
                continue
            raise ConvergenceError(
                f"line search stalled after {restarts} restarts; "
                f"best terminal error {best[1]:.3g}",
                best=_solution(problem, *best),
                reason="line_search",
            )

    if np.sqrt(fval) > tol:
        raise ConvergenceError(
            f"no convergence in {max_iter} Gauss-Newton iterations; "
            f"best terminal error {best[1]:.3g} > tol {tol:g}",
            best=_solution(problem, *best),
            reason="max_iter",
        )
    return _solution(problem, x, np.sqrt(fval), iterations)


def _solution(problem: BvpProblem, x, terminal_error, iterations=0) -> BvpSolution:
    pi0 = _skew_from_params(x, problem.spec.n)
    try:
        z0 = solve_lift(problem.q0, pi0)
    except OutOfRangeError:
        traj = _bound_free_flow(problem, pi0)
    else:
        traj = integrate_symrep(problem.spec, z0, problem.cfg)
    return BvpSolution(
        pi0=pi0,
        terminal_error=float(terminal_error),
        cost=trajectory_cost(problem.spec, traj),
        iterations=iterations,
        trajectory=traj,
    )
