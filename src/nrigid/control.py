"""Attitude steering as a two-point boundary value problem.

The minimum-effort steering problem (drive an attitude from Q0 to a
target in time T while minimizing the integrated quadratic control cost)
has its extremals exactly among the symmetric-representation flows.
Along such a flow the orthogonal momentum value Z^T J Z is the body
momentum and Q' = Q I^{-1}(Z^T J Z), so the attitude an extremal reaches
is the Euler-Poisson attitude from (Q0, pi0) and no phase point is
needed.  The search space is the initial body momentum, with no bound:
each candidate pi0 is integrated on the flow of `integrate_euler_poisson`
from (Q0, pi0) under the problem's config and scored by its terminal
attitude mismatch, on rows :n of the last state [Q; pi].  A damped
Gauss-Newton iteration with a forward-difference Jacobian runs over the
d = n(n-1)/2 free momentum entries from rest, pi0 = 0, where the residual
and the exact Jacobian are known in closed form.  A point is scored alone,
or with its d probes as one batch of 1 + d runs, each bit for bit its own
run, which brings its Jacobian.  The symmetric representation of an
answer is one `solve_lift` and `integrate_symrep` away wherever the lift
bound allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body import InertiaSpec, _inertia_inverse
from .errors import ConvergenceError, DimensionError, DivergenceError
from .integrate import IntegratorConfig, Trajectory, _one_body
from .integrate import _euler_poisson, _euler_poisson_trajectory
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
        _one_body(self.spec)
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


def _skew_from_params(x, upper, n):
    # Skew matrices from their entries above the diagonal, at the indices
    # `upper` = np.triu_indices(n, 1), over the leading axes of x.
    a = np.zeros(x.shape[:-1] + (n, n))
    a[..., upper[0], upper[1]] = x
    return a - a.swapaxes(-2, -1)


def _rest_jacobian(problem: BvpProblem, upper) -> np.ndarray:
    # The Jacobian of shoot's residual at x = 0, the exact tangent of every
    # scheme there: at rest the linearised flow dQ' = q0 I^-1(dpi), dpi' = 0 is
    # stepped exactly, so column j is T vec(q0 I^-1(E_j)), E_j = pi0(e_j).  In C
    # order, as `shoot`'s forward-difference Jacobians are.
    spec, cfg = problem.spec, problem.cfg
    basis = _skew_from_params(np.eye(len(upper[0])), upper, spec.n)
    tangents = cfg.steps * cfg.step * np.matmul(problem.q0, _inertia_inverse(spec, basis))
    return np.ascontiguousarray(tangents.reshape(len(basis), -1).T)


def trajectory_cost(spec: InertiaSpec, traj: Trajectory) -> float:
    """Composite Simpson quadrature of the control effort (1/2) <I u, u>.

    At the maximizing control u = I^{-1} pi the effort equals the energy
    (the collective-Hamiltonian identity), so the integrand is the
    trajectory's ``hamiltonian`` audit, for every kind.  Requires a
    uniformly stepped trajectory with at least two samples.  An odd
    interval count is closed with the 3/8 rule on the last three
    intervals, keeping 4th-order accuracy; a single interval takes the
    trapezoid rule, exact for an extremal's constant energy.
    """
    if len(traj) < 2:
        raise ValueError("cost quadrature needs at least 2 samples")
    dt = np.diff(traj.times)
    h = float(dt[0])
    if np.max(np.abs(dt - h)) > 1e-9 * max(1.0, h):
        raise ValueError("cost quadrature needs a uniform step")
    f = traj.audits["hamiltonian"]
    intervals = len(f) - 1
    if intervals == 1:
        return float(h / 2.0 * (f[0] + f[1]))
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
    the random restarts tried when the line search stalls.

    The search starts at x = 0, at rest, where every scheme returns its
    state bit for bit: the residual is vec(q0 - q_target) with no run, and
    the Jacobian is the exact tangent `_rest_jacobian` (with
    ``project_attitude`` the start runs alone, since the projection moves
    the rest by round-off).  Elsewhere a point runs alone, or as one batch
    with its d probes x + _FD_STEP e_j, each member bit for bit its own run,
    so the iterates are those of scoring each point alone.  The full step of
    each line search and each restart run as batches; a damped candidate
    runs alone, and an iterate it reaches re-runs as member 0 of its batch.
    When a batch fails, its point is scored alone, and the batch's failure,
    the probes' earliest, is raised only where that Jacobian is needed.

    The flow's failures pass through: `DivergenceError` (a non-finite state
    or a failed projection) and ConvergenceError with reason "fixed_point"
    (a midpoint step that did not converge).  The search raises
    ConvergenceError carrying the best iterate:

    * reason "max_iter" when the iteration budget is exhausted.
    * reason "line_search" when the line search stalls with no restart
      left.
    """
    if not tol > 0.0:  # NaN fails every comparison, so it fails this one
        raise ValueError("tol must be positive")
    spec, cfg, n = problem.spec, problem.cfg, problem.spec.n
    d = n * (n - 1) // 2
    upper = np.triu_indices(n, 1)
    entries = np.arange(d)
    rng = np.random.default_rng(seed)

    def score(x, probes):
        # The residual at x, its square norm, x's run (times, states) and the
        # Jacobian: None for a lone run; with probes, from x's batch in C order
        # as a column loop builds it, or, where the batch failed, its failure.
        xs = x
        if probes:
            xs = np.repeat(x[None], 1 + d, axis=0)
            xs[1 + entries, entries] += _FD_STEP
        y0 = np.empty(xs.shape[:-1] + (2 * n, n))
        y0[..., :n, :] = problem.q0
        y0[..., n:, :] = _skew_from_params(xs, upper, n)
        try:
            *run, last = _euler_poisson(spec, y0, cfg)
        except (ConvergenceError, DivergenceError) as failure:
            if not probes:
                raise
            return *score(x, False)[:3], failure
        # A finite run can end so far out that r @ r is inf, which the line search rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            mismatch = (last[..., :n, :] - problem.q_target).reshape(-1, n * n)
            r = mismatch[0]
            jac = np.ascontiguousarray(((mismatch[1:] - r) / _FD_STEP).T) if probes else None
            return r, float(r @ r), run, jac

    # The start x = 0 is at rest, where every stage velocity is 0 and each
    # scheme returns its state bit for bit: it needs no run unless a
    # projection moves it by round-off, and then it runs alone.
    x = np.zeros(d)
    if cfg.project_attitude:
        r, fval, run, _ = score(x, False)
    else:
        times = np.arange(cfg.steps + 1) * cfg.step
        rest = np.vstack([problem.q0, np.zeros((n, n))])
        r = (problem.q0 - problem.q_target).ravel()
        fval, run = float(r @ r), [times, np.repeat(rest[None], len(times), axis=0)]
    jac = _rest_jacobian(problem, upper)
    best = (x.copy(), np.sqrt(fval), run)
    iterations = 0
    restarts = 0

    while iterations < max_iter:
        if np.sqrt(fval) <= tol:
            break
        if jac is None:  # x was reached by a damped step and ran alone
            jac = score(x, True)[3]
        if isinstance(jac, Exception):  # x's batch failed, and its Jacobian is needed
            raise jac
        direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        slope = 2.0 * float((jac.T @ r) @ direction)
        alpha = 1.0
        stepped = False
        while alpha >= _MIN_DAMPING:
            candidate = x + alpha * direction
            # The full step runs with its probes; a damped one alone.
            r_new, f_new, run_new, jac_new = score(candidate, alpha == 1.0)
            if f_new <= fval + _ARMIJO * alpha * slope:
                x, r, fval, run, jac = candidate, r_new, f_new, run_new, jac_new
                stepped = True
                break
            alpha *= 0.5
        iterations += 1
        if np.sqrt(fval) < best[1]:
            best = (x.copy(), np.sqrt(fval), run)
        if not stepped:
            if restarts < _MAX_RESTARTS:
                restarts += 1
                x = 0.3 * restarts * rng.uniform(-1.0, 1.0, d)
                r, fval, run, jac = score(x, True)
                continue
            raise ConvergenceError(
                f"line search stalled after {restarts} restarts; "
                f"best terminal error {best[1]:.3g}",
                best=_solution(problem, upper, *best),
                reason="line_search",
            )

    if np.sqrt(fval) > tol:
        raise ConvergenceError(
            f"no convergence in {max_iter} Gauss-Newton iterations; "
            f"best terminal error {best[1]:.3g} > tol {tol:g}",
            best=_solution(problem, upper, *best),
            reason="max_iter",
        )
    return _solution(problem, upper, x, np.sqrt(fval), run, iterations)


def _solution(problem: BvpProblem, upper, x, terminal_error, run, iterations=0) -> BvpSolution:
    traj = _euler_poisson_trajectory(problem.spec, *run)
    return BvpSolution(
        pi0=_skew_from_params(x, upper, problem.spec.n),
        terminal_error=float(terminal_error),
        cost=trajectory_cost(problem.spec, traj),
        iterations=iterations,
        trajectory=traj,
    )
