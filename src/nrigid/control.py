"""Attitude steering as a two-point boundary value problem.

The minimum-effort steering problem (drive an attitude from Q0 to a
target in time T while minimizing the integrated quadratic control cost)
has its extremals exactly among the symmetric-representation flows.
Along such a flow the orthogonal momentum value Z^T J Z is the body
momentum and Q' = Q I^{-1}(Z^T J Z), so the attitude an extremal reaches
is the Euler-Poisson attitude from (Q0, pi0) and no phase point is
needed.  The search space is the initial body momentum, with no bound:
each candidate pi0 is integrated on the flow of `integrate_euler_poisson`
from (Q0, pi0) under the problem's config and scored by the mismatch
polar(Q(T)) - Q_target, where Q(T) is rows :n of the last state [Q; pi]
and polar(Q) = u v^T, for the SVD Q = u s v^T, is the orthogonal matrix
nearest Q (Higham, SIAM J. Sci. Stat. Comput. 7, 1986).  A scheme that
drifts off SO(n), as rk4 does, thus leaves no floor under the residual,
and a reflection, at least 2 from every rotation, cannot be an answer.
A damped Gauss-Newton iteration with a forward-difference Jacobian runs
over the d = n(n-1)/2 free momentum entries from rest, pi0 = 0, where the
run and the exact Jacobian are known in closed form.  A point is scored
alone, or with its d probes as one batch of 1 + d runs, each bit for bit
its own run, which brings its Jacobian.  A full step whose Gauss-Newton
model residual ||r + J direction|| is at most tol is predicted to end the
search and runs alone, as a damped step does, since its probes would go
unread.  A failed run raises its failure; a batch's failure is at the
earliest step at which any member fails.  The symmetric representation of
an answer is one `solve_lift` and `integrate_symrep` away wherever the
lift bound allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body import InertiaSpec
from .errors import ConvergenceError, DimensionError
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
    # stepped exactly, so column j is T vec(q0 I^-1(E_j)), E_j = pi0(e_j).  The
    # polar factor's tangent at a rotation is the identity on these tangent
    # directions q0 A, A skew.  In C order, as `shoot`'s forward-difference
    # Jacobians are.
    spec, cfg = problem.spec, problem.cfg
    basis = _skew_from_params(np.eye(len(upper[0])), upper, spec.n)
    tangents = cfg.steps * cfg.step * np.matmul(problem.q0, basis / spec._pair_sums)
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

    Success means ``terminal_error`` = ||polar(Q(T)) - q_target||_F is at
    most ``tol``, where Q(T) = ``trajectory.states[-1, :n]`` is the final
    attitude of the returned trajectory, the ``euler-poisson`` flow from
    (q0, pi0) under ``problem.cfg`` that the search scored, and polar(Q(T))
    is the orthogonal matrix nearest it; pi0 has no bound.  The scheme's
    own drift off SO(n) stays in that trajectory's ``orthogonality_defect``
    audit.  ``seed`` drives the random restarts tried when the line search
    stalls.  ``tol`` must be a positive finite number, ``max_iter`` an
    integer of at least 1 and ``seed`` a non-negative integer.

    The search starts at x = 0, at rest, where every scheme returns its
    state bit for bit: the residual is vec(polar(q0) - q_target) with no
    run, and the Jacobian is the exact tangent `_rest_jacobian`.  Elsewhere
    a point runs alone, or as one batch with its d probes x + _FD_STEP e_j,
    each member bit for bit its own run, so the iterates are those of
    scoring each point alone.  Each restart runs as a batch, and so does
    the full step of each line search unless the Gauss-Newton model
    predicts it to be the last, ||r + J direction|| <= ``tol``: then, like
    a damped candidate, it runs alone, and an iterate reached by a lone run
    that is not the answer re-runs as member 0 of its batch.  A failed run
    raises its failure; a batch's failure is at the earliest step at which
    any member fails.

    The flow's failures pass through: `DivergenceError` (a non-finite
    state) and ConvergenceError with reason "fixed_point" (a midpoint step
    that did not converge).  The search raises ConvergenceError carrying
    the best iterate:

    * reason "max_iter" when the iteration budget is exhausted.
    * reason "line_search" when the line search stalls with no restart
      left.
    """
    real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
    if not (real and 0.0 < tol < np.inf):  # NaN fails every comparison
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    for name, value in (("max_iter", max_iter), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    spec, cfg, n = problem.spec, problem.cfg, problem.spec.n
    d = n * (n - 1) // 2
    upper = np.triu_indices(n, 1)
    entries = np.arange(d)
    rng = np.random.default_rng(seed)

    def mismatch(q, probes):
        # The residual vec(polar(q) - q_target) of an attitude q, or of a batch's
        # stack of them in one SVD, with its square norm and the Jacobian: None
        # for one; from a batch, in C order as a column loop builds it.  The
        # polar factor is orthogonal, so no residual exceeds 2 sqrt(n) and none
        # needs a failure path: a reflection, at least 2 from every rotation,
        # is scored as the miss it is.
        u, _, vt = np.linalg.svd(q)
        rs = (u @ vt - problem.q_target).reshape(-1, n * n)
        r = rs[0]
        jac = np.ascontiguousarray(((rs[1:] - r) / _FD_STEP).T) if probes else None
        return r, float(r @ r), jac

    def score(x, probes):
        # The residual at x, its square norm, x's run (times, states) and the
        # Jacobian, with probes from x's batch.
        xs = x
        if probes:
            xs = np.repeat(x[None], 1 + d, axis=0)
            xs[1 + entries, entries] += _FD_STEP
        y0 = np.empty(xs.shape[:-1] + (2 * n, n))
        y0[..., :n, :] = problem.q0
        y0[..., n:, :] = _skew_from_params(xs, upper, n)
        *run, last = _euler_poisson(spec, y0, cfg)
        r, fval, jac = mismatch(last[..., :n, :], probes)
        return r, fval, run, jac

    # The start x = 0 is at rest, where every stage velocity is 0 and each
    # scheme returns its state bit for bit, so it needs no run.
    x = np.zeros(d)
    times = np.arange(cfg.steps + 1) * cfg.step
    rest = np.vstack([problem.q0, np.zeros((n, n))])
    r, fval, _ = mismatch(problem.q0, False)
    run = [times, np.repeat(rest[None], len(times), axis=0)]
    jac = _rest_jacobian(problem, upper)
    best = (x.copy(), np.sqrt(fval), run)
    iterations = 0
    restarts = 0

    while iterations < max_iter:
        if np.sqrt(fval) <= tol:
            break
        if jac is None:  # x ran alone, reached by a damped or a predicted-last step
            jac = score(x, True)[3]
        direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        # The linear model's residual after the full step; lstsq's own
        # residuals are empty when jac is rank-deficient.
        model = np.linalg.norm(r + jac @ direction)
        slope = 2.0 * float((jac.T @ r) @ direction)
        alpha = 1.0
        stepped = False
        while alpha >= _MIN_DAMPING:
            candidate = x + alpha * direction
            # The full step runs with its probes unless the model predicts it
            # ends the search; a damped step runs alone.
            r_new, f_new, run_new, jac_new = score(candidate, alpha == 1.0 and model > tol)
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
