"""Shared construction helpers and independent oracles for the tests."""

import math

import numpy as np

from nrigid import InertiaSpec, hat
from nrigid import control
from nrigid.body import inertia_inverse, reduced_hamiltonian
from nrigid.errors import ConvergenceError, DivergenceError
from nrigid.integrate import integrate_euler, integrate_euler_poisson, integrate_symrep
from nrigid.lift import mu0_of, solve_lift
from nrigid.matcore import (
    _frobenius,
    inner,
    random_rotation,
    random_skew,
    random_sp,
    random_sp_group,
    spectral_norm,
)
from nrigid.moment import (
    _BATTERY_BLOCK,
    level_set_defect,
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


# Horizons at step 1e-3, with their step counts as errors name them: one
# too long for numpy to index, and one that it can index but no host can
# store, whose tests run under `refuse_large_allocations` (the flag).
HUGE_HORIZONS = [(1e300, "1e+303", False), (1e9, "1e+12", True)]


def refuse_large_allocations(monkeypatch, limit=10**8):
    """Make ``np.arange`` and ``np.empty`` raise MemoryError, as numpy does
    when an allocation fails, for more than ``limit`` elements, so that a
    test reaches that path without allocating."""
    for name in ("arange", "empty"):
        def allocate(size, *args, _real=getattr(np, name), **kwargs):
            if (math.prod(size) if isinstance(size, tuple) else size) > limit:
                raise MemoryError(f"Unable to allocate an array of {size} elements")
            return _real(size, *args, **kwargs)
        monkeypatch.setattr(np, name, allocate)


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


# The step kernels and fields as a textbook writes them, for one state:
# `@` products, Python-float coefficients and ``2.0 *``.  The package's
# kernels must give their bits; a batch, member by member.

def rk4_step_reference(field, y, h):
    k1 = field(y)
    k2 = field(y + (0.5 * h) * k1)
    k3 = field(y + (0.5 * h) * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rkmk4_step_reference(velocity, act, y, h):
    """The Munthe-Kaas scheme in the Cayley chart; every argument a is half the chart variable."""
    def cay(a):
        return (np.eye(len(a)) + a) @ np.linalg.inv(np.eye(len(a)) - a)

    def stage(a):
        return (np.eye(len(a)) + a) @ velocity(act(cay(a), y)) @ (np.eye(len(a)) - a)

    k1 = velocity(y)
    k2 = stage((0.25 * h) * k1)
    k3 = stage((0.25 * h) * k2)
    k4 = stage((0.5 * h) * k3)
    return act(cay((h / 12.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)), y)


def midpoint_step_reference(field, y, h, tol=1e-13, max_iter=100):
    m = y + (0.5 * h) * field(y)
    for _ in range(max_iter):
        m_next = y + (0.5 * h) * field(m)
        delta = float(np.linalg.norm(m_next - m))
        m = m_next
        if delta <= tol:
            return 2.0 * m - y
    raise ConvergenceError(f"no fixed point in {max_iter} iterations")


def field_kernels(field):
    """A kernel factory for `integrate._run` that steps ``field(y)`` under rk4
    or midpoint; it has no body velocity or action for rkmk4."""
    return lambda spec, mm: (field, None, None)


def fields_reference(kind, spec):
    """The field, body velocity and group action of one ``kind`` of state."""
    n = spec.n
    if kind == "euler":
        def velocity(pi):
            return inertia_inverse(spec, pi)

        def field(pi):
            om = velocity(pi)
            return pi @ om - om @ pi

        def act(g, pi):
            return g.T @ pi @ g
    elif kind == "symrep":
        def velocity(z):
            m = z[:n].T @ z[n:]
            return inertia_inverse(spec, m - m.T)

        def field(z):
            return z @ velocity(z)

        def act(g, z):
            return z @ g
    else:
        def velocity(y):
            return inertia_inverse(spec, y[n:])

        def field(y):
            q, pi = y[:n], y[n:]
            om = velocity(y)
            return np.vstack([q @ om, pi @ om - om @ pi])

        def act(g, y):
            return np.vstack([y[:n] @ g, g.T @ y[n:] @ g])
    return field, velocity, act


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

    A point scored with its forward-difference probes runs them one by one
    after it, wherever `shoot` runs a batch: the full step of each line
    search, each restart, and an iterate that ran alone, at the top of the
    iteration that needs its Jacobian.  A full step that the Gauss-Newton
    model predicts to be the last, with ||r + J direction|| at most ``tol``
    for the column-stacked Jacobian J, runs alone, as a damped step does; if
    it lands above ``tol`` after all, its Jacobian is the next iteration's
    run with probes.  If some of these runs fail, the failure at the
    earliest step raises, as the batch's would: at one step, a midpoint
    fixed point before a non-finite state, and the first run's on a tie.  A
    run is scored by vec(u v^T - q_target), for the SVD u s v^T of its final
    attitude, one matrix at a time.  The start x = 0 is at rest,
    where the flow's tangent is known: its Jacobian has column j equal to
    T vec(q0 I^-1(E_j)), with E_j the skew basis matrix of entry j.  Its
    residual still comes from a public run.  The constants are read from
    `control` at call time, so a monkeypatched constant acts on both.
    Returns what `shoot` returns and raises what it raises.
    """
    n = problem.spec.n
    d = n * (n - 1) // 2
    rng = np.random.default_rng(seed)

    def polar(q):
        u, _, vt = np.linalg.svd(q)
        return u @ vt

    def skew(x):
        a = np.zeros((n, n))
        a[np.triu_indices(n, 1)] = x
        return a - a.T

    def objective(x, probes=False):
        points = [x]
        for j in range(d if probes else 0):
            points.append(x.copy())
            points[-1][j] += control._FD_STEP
        runs, failures = [], []
        for point in points:
            try:
                runs.append(integrate_euler_poisson(
                    problem.spec, np.vstack([problem.q0, skew(point)]), problem.cfg))
            except (ConvergenceError, DivergenceError) as exc:
                failures.append(exc)
        if failures:
            raise min(failures, key=lambda exc: (exc.step_index, isinstance(exc, DivergenceError)))
        r, *rs = [(polar(traj.states[-1, :n]) - problem.q_target).ravel() for traj in runs]
        jac = np.column_stack([(rj - r) / control._FD_STEP for rj in rs]) if probes else None
        return r, float(r @ r), runs[0], jac

    def solution(x, terminal_error, traj, iterations=0):
        return control.BvpSolution(pi0=skew(x), terminal_error=float(terminal_error),
                                   cost=control.trajectory_cost(problem.spec, traj),
                                   iterations=iterations, trajectory=traj)

    x = np.zeros(d)
    r, fval, traj, _ = objective(x)
    tangents = [problem.q0 @ inertia_inverse(problem.spec, skew(e)) for e in np.eye(d)]
    jac = np.column_stack([(traj.times[-1] * tangent).ravel() for tangent in tangents])
    best = (x.copy(), np.sqrt(fval), traj)
    iterations = 0
    restarts = 0
    while iterations < max_iter:
        if np.sqrt(fval) <= tol:
            break
        if jac is None:  # x ran alone
            jac = objective(x, True)[3]
        direction, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        model = np.linalg.norm(r + jac @ direction)
        slope = 2.0 * float((jac.T @ r) @ direction)
        alpha = 1.0
        stepped = False
        while alpha >= control._MIN_DAMPING:
            candidate = x + alpha * direction
            r_new, f_new, traj_new, jac_new = objective(candidate, alpha == 1.0 and model > tol)
            if f_new <= fval + control._ARMIJO * alpha * slope:
                x, r, fval, traj, jac = candidate, r_new, f_new, traj_new, jac_new
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
                r, fval, traj, jac = objective(x, True)
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


def verify_reduction_reference(spec, q0, pi0, cfg):
    """`verify_reduction` as the composition of the public integrators.

    Both trajectories are integrated with every audit channel, and the
    report is read from them: the computation `lift.verify_reduction` made
    before it audited only the channels its keys read.  Returns what it
    returns and raises what it raises.
    """
    z0 = solve_lift(q0, pi0)
    mu0 = mu0_of(z0)
    traj_z = integrate_symrep(spec, z0, cfg)
    traj_pi = integrate_euler(spec, pi0, cfg)
    e_equiv = float(np.max(_frobenius(traj_z.audits["on_momentum"] - traj_pi.states)))
    level = float(np.max(level_set_defect(traj_z.states, mu0)))
    energy = float(
        np.max(np.abs(traj_z.audits["hamiltonian"] - traj_pi.audits["hamiltonian"]))
    )
    spectra = traj_z.audits["casimir_spectrum"]
    casimir = float(np.max(np.abs(spectra - spectra[0])))
    return {
        "e_equiv": e_equiv,
        "level_set_defect": level,
        "energy_match": energy,
        "casimir_drift": casimir,
    }
