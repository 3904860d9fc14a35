"""Shared construction helpers and independent oracles for the tests."""

import numpy as np

from nrigid import InertiaSpec, hat
from nrigid import control
from nrigid.body import reduced_hamiltonian
from nrigid.errors import ConvergenceError
from nrigid.integrate import integrate_euler_poisson
from nrigid.matcore import (
    inner,
    random_rotation,
    random_skew,
    random_sp,
    random_sp_group,
    spectral_norm,
)
from nrigid.moment import (
    _BATTERY_BLOCK,
    on_action,
    on_coadjoint,
    on_momentum,
    reduced_form_check,
    sp_action,
    sp_coadjoint,
    sp_momentum,
)
from nrigid.symrep import hamiltonian, one_form

# A trial count of the invariant battery whose last block holds one trial,
# so that two of that block's n groups are empty.
BLOCK_CROSSING = _BATTERY_BLOCK + 1


def rodrigues(axis, angle):
    """Rotation about a unit axis, written out independently of the package."""
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_phase(n, rng, min_sv=0.1):
    """Random full-rank 2n x n phase point with entries in [-1, 1]."""
    while True:
        z = rng.uniform(-1.0, 1.0, (2 * n, n))
        if np.linalg.svd(z, compute_uv=False)[-1] > min_sv:
            return z


def scaled_skew(n, rng, norm):
    """Random skew matrix rescaled to the requested spectral norm."""
    x = rng.uniform(-1.0, 1.0, (n, n))
    a = 0.5 * (x - x.T)
    return a * (norm / spectral_norm(a))


def standard_spec():
    return InertiaSpec([1.0, 2.0, 3.0])


def standard_pi0():
    return hat([0.5, 0.6, 0.7])


def invariant_battery_reference(seed, trials):
    """The invariant battery as a loop of 2-D calls, one trial at a time.

    The formulas, draws and tolerances of each trial are those of the
    per-trial loop that `nrigid check-invariants` ran before the battery
    was stacked.  Returns the pass counts and every residual: one per
    trial, and for one_form_invariance the pair (symplectic action,
    orthogonal action).
    """
    checks = {
        "momentum_identity_sp": 0,
        "momentum_identity_on": 0,
        "equivariance_sp": 0,
        "equivariance_on": 0,
        "hamiltonian_invariance": 0,
        "one_form_invariance": 0,
        "reduced_form_consistency": 0,
        "collective_hamiltonian": 0,
    }
    residuals = {name: [] for name in checks}
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        n = 3 + trial % 3
        spec = InertiaSpec(rng.uniform(0.5, 2.0, n))
        z = rng.uniform(-1.0, 1.0, (2 * n, n))
        zdot = rng.uniform(-1.0, 1.0, (2 * n, n))
        xi = random_sp(n, rng)
        a = random_skew(n, rng)
        b = random_skew(n, rng)
        s = random_sp_group(n, rng)
        r = random_rotation(n, rng)
        if trial % 2 == 1:
            r = r @ np.diag([-1.0] + [1.0] * (n - 1))

        lhs, rhs = reduced_form_check(z, a, b)
        res = {
            "momentum_identity_sp": abs(inner(sp_momentum(z), xi) - one_form(z, xi @ z)),
            "momentum_identity_on": abs(inner(on_momentum(z), a) - one_form(z, z @ a)),
            "equivariance_sp": np.linalg.norm(
                sp_momentum(sp_action(s, z)) - sp_coadjoint(s, sp_momentum(z))),
            "equivariance_on": np.linalg.norm(
                on_momentum(on_action(z, r)) - on_coadjoint(r, on_momentum(z))),
            "hamiltonian_invariance": abs(hamiltonian(spec, sp_action(s, z)) - hamiltonian(spec, z)),
            "one_form_invariance": (
                abs(one_form(sp_action(s, z), s @ zdot) - one_form(z, zdot)),
                abs(one_form(on_action(z, r), zdot @ r) - one_form(z, zdot)),
            ),
            "reduced_form_consistency": abs(lhs - rhs),
            "collective_hamiltonian": abs(
                reduced_hamiltonian(spec, on_momentum(z)) - hamiltonian(spec, z)),
        }
        for name, value in res.items():
            residuals[name].append(value)

        if res["momentum_identity_sp"] <= 1e-12:
            checks["momentum_identity_sp"] += 1
        if res["momentum_identity_on"] <= 1e-12:
            checks["momentum_identity_on"] += 1
        if res["equivariance_sp"] <= 1e-11:
            checks["equivariance_sp"] += 1
        if res["equivariance_on"] <= 1e-12:
            checks["equivariance_on"] += 1
        if res["hamiltonian_invariance"] <= 1e-11:
            checks["hamiltonian_invariance"] += 1
        theta_sp, theta_on = res["one_form_invariance"]
        if theta_sp <= 1e-12 and theta_on <= 1e-12:
            checks["one_form_invariance"] += 1
        if res["reduced_form_consistency"] <= 1e-12:
            checks["reduced_form_consistency"] += 1
        if res["collective_hamiltonian"] <= 1e-12:
            checks["collective_hamiltonian"] += 1
    return checks, {name: np.array(values, dtype=float) for name, values in residuals.items()}


def shoot_reference(problem, tol=1e-6, max_iter=30, seed=0):
    """`shoot` as a loop of single public runs, one per point scored.

    This is the search `control.shoot` ran before it stepped each candidate
    with its forward-difference probes as one batch: the probes of an
    iterate run, one by one, at the top of the iteration that needs its
    Jacobian.  The constants are read from `control` at call time, so a
    monkeypatched constant acts on both.  Returns what `shoot` returns and
    raises what it raises.
    """
    n = problem.spec.n
    d = n * (n - 1) // 2
    rng = np.random.default_rng(seed)

    def skew(x):
        a = np.zeros((n, n))
        a[np.triu_indices(n, 1)] = x
        return a - a.T

    def objective(x):
        traj = integrate_euler_poisson(problem.spec, np.vstack([problem.q0, skew(x)]), problem.cfg)
        r = (traj.states[-1, :n] - problem.q_target).ravel()
        return r, float(r @ r), traj

    def solution(x, terminal_error, traj, iterations=0):
        return control.BvpSolution(pi0=skew(x), terminal_error=float(terminal_error),
                                   cost=control.trajectory_cost(problem.spec, traj),
                                   iterations=iterations, trajectory=traj)

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
            xj[j] += control._FD_STEP
            rj, _, _ = objective(xj)
            jac[:, j] = (rj - r) / control._FD_STEP
        direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        slope = 2.0 * float((jac.T @ r) @ direction)
        alpha = 1.0
        stepped = False
        while alpha >= control._MIN_DAMPING:
            candidate = x + alpha * direction
            r_new, f_new, traj_new = objective(candidate)
            if f_new <= fval + control._ARMIJO * alpha * slope:
                x, r, fval, traj = candidate, r_new, f_new, traj_new
                stepped = True
                break
            alpha *= 0.5
        iterations += 1
        if np.sqrt(fval) < best[1]:
            best = (x.copy(), np.sqrt(fval), traj)
        if not stepped:
            if restarts < control._MAX_RESTARTS:
                restarts += 1
                x = 0.3 * restarts * rng.uniform(-1.0, 1.0, d)
                r, fval, traj = objective(x)
                continue
            raise ConvergenceError(
                f"line search stalled after {restarts} restarts; "
                f"best terminal error {best[1]:.3g}",
                best=solution(*best), reason="line_search")
    if np.sqrt(fval) > tol:
        raise ConvergenceError(
            f"no convergence in {max_iter} Gauss-Newton iterations; "
            f"best terminal error {best[1]:.3g} > tol {tol:g}",
            best=solution(*best), reason="max_iter")
    return solution(x, np.sqrt(fval), traj, iterations)
