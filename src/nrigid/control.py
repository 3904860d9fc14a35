"""Attitude steering as a two-point boundary value problem.

The minimum-effort steering problem (drive an attitude from Q0 to a
target in time T while minimizing the integrated quadratic control cost)
has its extremals exactly among the symmetric-representation flows.
Along such a flow the orthogonal momentum value Z^T J Z is the body
momentum and Q' = Q I^{-1}(Z^T J Z), so the attitude an extremal reaches
is the Euler-Poisson attitude from (Q0, pi0) and no phase point is
needed.  The search space is the initial body momentum, with no bound:
each candidate pi0 is integrated by `integrate_euler_poisson` from
(Q0, pi0) under the problem's config and scored by its terminal attitude
mismatch, on rows :n of the last state [Q; pi].  A damped Gauss-Newton
iteration with a forward-difference Jacobian runs over the n(n-1)/2 free
momentum entries.  The symmetric representation of an answer is one
`solve_lift` and `integrate_symrep` away wherever the lift bound allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body import BodyState, InertiaSpec
from .errors import ConvergenceError, DimensionError
from .integrate import IntegratorConfig, Trajectory, integrate_euler_poisson
from .matcore import require_rotation

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

    At the maximizing control u = I^{-1} pi the effort equals the energy
    (the collective-Hamiltonian identity), so the integrand is the
    trajectory's ``hamiltonian`` audit, for every kind.  Requires a
    uniformly stepped trajectory with at least three samples.  An odd
    interval count is closed with the 3/8 rule on the last three
    intervals, keeping 4th-order accuracy.
    """
    if len(traj) < 3:
        raise ValueError("cost quadrature needs at least 3 samples")
    dt = np.diff(traj.times)
    h = float(dt[0])
    if np.max(np.abs(dt - h)) > 1e-9 * max(1.0, h):
        raise ValueError("cost quadrature needs a uniform step")
    f = traj.audits["hamiltonian"]
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


def shoot(problem: BvpProblem, tol=1e-6, max_iter=30, seed=0) -> BvpSolution:
    """Damped Gauss-Newton shooting on the initial body momentum.

    Success means the terminal attitude mismatch (Frobenius) is at most
    ``tol``; pi0 has no bound.  The returned trajectory is the
    ``euler-poisson`` flow from (q0, pi0) under ``problem.cfg`` that the
    search scored, so ``terminal_error`` is the distance of its final
    attitude ``trajectory.states[-1, :n]`` to the target, and with
    ``project_attitude`` its attitude stays a rotation.  ``seed`` drives
    the random restarts tried when the line search stalls.  Raises
    ConvergenceError carrying the best iterate:

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
        s0 = BodyState(problem.q0, _skew_from_params(x, n))
        traj = integrate_euler_poisson(problem.spec, s0, problem.cfg)
        r = (traj.states[-1, :n] - problem.q_target).ravel()
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
            xj = x.copy()
            xj[j] += _FD_STEP
            rj, _, _ = objective(xj)
            jac[:, j] = (rj - r) / _FD_STEP
        direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        slope = 2.0 * float((jac.T @ r) @ direction)
        alpha = 1.0
        stepped = False
        while alpha >= _MIN_DAMPING:
            candidate = x + alpha * direction
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
                r, fval, traj = objective(x)
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
    return _solution(problem, x, np.sqrt(fval), traj, iterations)


def _solution(problem: BvpProblem, x, terminal_error, traj, iterations=0) -> BvpSolution:
    return BvpSolution(
        pi0=_skew_from_params(x, problem.spec.n),
        terminal_error=float(terminal_error),
        cost=trajectory_cost(problem.spec, traj),
        iterations=iterations,
        trajectory=traj,
    )
