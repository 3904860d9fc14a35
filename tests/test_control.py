import re

import numpy as np
import pytest

from helpers import (
    HUGE_HORIZONS,
    refuse_large_allocations,
    scaled_skew,
    shoot_reference,
    standard_pi0,
    standard_spec,
)
from nrigid import control, integrate
from nrigid.body import InertiaSpec, hat, inertia_inverse, reduced_hamiltonian
from nrigid.control import BvpProblem, BvpSolution, shoot, trajectory_cost
from nrigid.errors import ConvergenceError, DimensionError, DivergenceError
from nrigid.integrate import (
    IntegratorConfig,
    Trajectory,
    _euler_poisson,
    integrate_euler,
    integrate_euler_poisson,
    integrate_symrep,
)
from nrigid.lift import solve_lift
from nrigid.matcore import expm, random_rotation, spectral_norm
from nrigid.symrep import q_block

E1 = hat([1.0, 0.0, 0.0])
E2 = hat([0.0, 1.0, 0.0])
E3 = hat([0.0, 0.0, 1.0])


def polar(q):
    """The orthogonal matrix nearest q, from its SVD."""
    u, _, vt = np.linalg.svd(q)
    return u @ vt


def translated(problem, left=True):
    """The problem with q0 and q_target left-multiplied by a fixed rotation R.

    The flow Q' = Q Omega(pi) is left-invariant and polar(R Q) = R polar(Q),
    so the translated problem is the same steering posed away from q0 = I:
    the same answer pi0, up to the search's round-off.
    """
    if not left:
        return problem
    n = problem.spec.n
    rot = random_rotation(n, np.random.default_rng(40 + n))
    return BvpProblem(problem.spec, rot @ problem.q0, rot @ problem.q_target,
                      problem.t_final, problem.cfg)


def spherical_problem(step=5e-3):
    spec = InertiaSpec([1.0, 1.0, 1.0])
    cfg = IntegratorConfig("rk4", step, 1.0)
    return BvpProblem(
        spec=spec, q0=np.eye(3), q_target=expm(0.3 * E3), t_final=1.0, cfg=cfg
    )


def capped_problem(q_target):
    """The standard body steered from rest to a target that needs |pi0|_2 > 2."""
    return BvpProblem(
        spec=standard_spec(),
        q0=np.eye(3),
        q_target=q_target,
        t_final=1.0,
        cfg=IntegratorConfig("rk4", 5e-3, 1.0),
    )


def overshooting_problem(monkeypatch):
    """A problem whose first full step, from rest, ends finite but far out.

    rk4 at h = 0.25 from the momentum `far` ends with attitude entries near
    5.6e222, where the square norm of Q(T) - q_target would overflow to inf;
    its polar factor is orthogonal, so the residual stays within 2 sqrt(3).
    The rest Jacobian is patched to rank one, with the rest residual in its
    range, so the first Gauss-Newton direction is `far`'s entries and its
    model residual is round-off.
    """
    far = hat([-114.75674121702129, 12.620062891405645, 88.59312149574555])
    x_far = far[np.triu_indices(3, 1)]
    q_target = expm(0.3 * E3)
    r0 = (np.eye(3) - q_target).ravel()
    monkeypatch.setattr(control, "_rest_jacobian",
                        lambda problem, upper: -np.outer(r0, x_far) / (x_far @ x_far))
    cfg = IntegratorConfig("rk4", 0.25, 1.0)
    return BvpProblem(standard_spec(), np.eye(3), q_target, 1.0, cfg)


class TestTrajectoryCost:
    def test_constant_point_costs_nothing(self):
        from nrigid.symrep import phase_point

        spec = standard_spec()
        z0 = phase_point(np.eye(3), np.eye(3))
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 1e-2, 1.0))
        assert trajectory_cost(spec, traj) == 0.0

    def test_constant_control_closed_form(self):
        # identity inertia, pi0 = 0.6 e3: the control is 0.3 e3 throughout
        spec = InertiaSpec([1.0, 1.0, 1.0])
        z0 = solve_lift(np.eye(3), 0.6 * E3)
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 1e-2, 1.0))
        assert trajectory_cost(spec, traj) == pytest.approx(0.09, abs=1e-12)

    def test_odd_interval_count(self):
        spec = InertiaSpec([1.0, 1.0, 1.0])
        z0 = solve_lift(np.eye(3), 0.6 * E3)
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 0.2, 1.0))
        assert len(traj) == 6  # five intervals
        # tolerance covers the integrator's energy drift at this coarse step
        assert trajectory_cost(spec, traj) == pytest.approx(0.09, abs=1e-9)

    def test_quadrature_order(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), 1.5 * standard_pi0())
        costs = {}
        for h in (0.05, 0.025):
            traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", h, 1.0))
            costs[h] = trajectory_cost(spec, traj)
        reference_traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 0.00625, 1.0))
        reference = trajectory_cost(spec, reference_traj)
        assert abs(costs[0.05] - reference) / abs(costs[0.025] - reference) >= 10.0

    def test_every_kind_costs_the_same(self):
        # the README body: the energy audit of each picture is the control
        # effort, by the collective-Hamiltonian identity
        spec, q0, pi0 = standard_spec(), np.eye(3), standard_pi0()
        cfg = IntegratorConfig("rk4", 1e-3, 2.0)
        symrep = trajectory_cost(spec, integrate_symrep(spec, solve_lift(q0, pi0), cfg))
        body = trajectory_cost(spec, integrate_euler_poisson(spec, np.vstack([q0, pi0]), cfg))
        euler = trajectory_cost(spec, integrate_euler(spec, pi0, cfg))
        assert abs(body - symrep) <= 1e-12
        assert euler == body

    def test_too_few_samples(self):
        spec = standard_spec()
        lone = Trajectory("euler", np.zeros(1), np.zeros((1, 3, 3)), {"hamiltonian": np.ones(1)})
        with pytest.raises(ValueError, match="^cost quadrature needs at least 2 samples$"):
            trajectory_cost(spec, lone)
        # one interval takes the trapezoid rule
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 1.0, 1.0))
        energy = traj.audits["hamiltonian"]
        assert trajectory_cost(spec, traj) == 0.5 * (energy[0] + energy[1])
        assert trajectory_cost(spec, traj) == pytest.approx(energy[0], rel=1e-3)

    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.3, 0.4], [0.0, 1.0, 2.0, 3.0 + 1e-6]])
    def test_nonuniform_step_rejected(self, times):
        traj = Trajectory("euler", np.array(times), np.zeros((4, 3, 3)),
                          {"hamiltonian": np.zeros(4)})
        with pytest.raises(ValueError, match="^cost quadrature needs a uniform step$"):
            trajectory_cost(standard_spec(), traj)


class TestBvpProblem:
    @pytest.mark.parametrize("change, error, message", [
        ({"q0": np.eye(4)}, DimensionError, "attitudes must be n x n for the given inertia"),
        ({"q_target": np.eye(2)}, DimensionError, "attitudes must be n x n for the given inertia"),
        ({"t_final": 2.0}, ValueError, "t_final must equal cfg.t_final"),
        ({"t_final": 1.0 + 1e-9}, ValueError, "t_final must equal cfg.t_final"),
        ({"spec": InertiaSpec([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])}, DimensionError,
         r"the integrators step one body, got lambda of shape \(2, 3\)"),
    ])
    def test_fields_checked(self, change, error, message):
        fields = dict(spec=standard_spec(), q0=np.eye(3), q_target=np.eye(3), t_final=1.0,
                      cfg=IntegratorConfig("rk4", 0.1, 1.0))
        with pytest.raises(error, match=f"^{message}$"):
            BvpProblem(**{**fields, **change})


class TestShoot:
    def test_stationary_target(self):
        problem = BvpProblem(
            spec=standard_spec(),
            q0=np.eye(3),
            q_target=np.eye(3),
            t_final=1.0,
            cfg=IntegratorConfig("rk4", 1e-2, 1.0),
        )
        sol = shoot(problem, tol=1e-8, max_iter=10, seed=0)
        assert np.linalg.norm(sol.pi0) == 0.0
        assert sol.cost == 0.0
        assert sol.iterations == 0

    def test_spherical_geodesic(self):
        sol = shoot(spherical_problem(), tol=1e-7, max_iter=30, seed=0)
        assert sol.terminal_error <= 1e-6
        assert sol.iterations <= 30
        assert abs(sol.cost - 0.09) <= 1e-5
        np.testing.assert_allclose(sol.pi0, 0.6 * E3, atol=1e-5)
        worst = max(
            np.linalg.norm(inertia_inverse(spherical_problem().spec, y[3:]) - 0.3 * E3)
            for y in sol.trajectory.states
        )
        assert worst <= 1e-5

    def test_nonspherical_principal_axis(self):
        spec = standard_spec()
        cfg = IntegratorConfig("rk4", 5e-3, 1.0)
        problem = BvpProblem(
            spec=spec, q0=np.eye(3), q_target=expm(0.4 * E1), t_final=1.0, cfg=cfg
        )
        sol = shoot(problem, tol=1e-6, max_iter=60, seed=0)
        assert sol.terminal_error <= 1e-6
        # necessary condition: the momentum of the returned flow obeys the
        # Euler equation
        from nrigid.body import euler_rhs

        traj = sol.trajectory
        ms = traj.states[:, 3:]
        h = traj.times[1] - traj.times[0]
        worst = max(
            np.linalg.norm((ms[k + 1] - ms[k - 1]) / (2 * h) - euler_rhs(spec, ms[k]))
            for k in range(1, len(ms) - 1)
        )
        assert worst <= 1e-6

    def test_energy_constant_and_collective(self):
        sol = shoot(spherical_problem(), tol=1e-7, max_iter=30, seed=0)
        traj = sol.trajectory
        h_vals = traj.audits["hamiltonian"]
        assert np.max(np.abs(h_vals - h_vals[0])) <= 1e-8
        spec = spherical_problem().spec
        for y, h_val in zip(traj.states[::50], h_vals[::50]):
            assert abs(reduced_hamiltonian(spec, y[3:]) - h_val) <= 1e-12

    def test_cost_equals_horizon_times_energy(self):
        sol = shoot(spherical_problem(), tol=1e-7, max_iter=30, seed=0)
        h0 = reduced_hamiltonian(spherical_problem().spec, sol.trajectory.states[0, 3:])
        assert abs(sol.cost - 1.0 * h0) <= 1e-6

    def test_first_order_optimality(self):
        problem = spherical_problem()
        tol = 1e-7
        sol = shoot(problem, tol=tol, max_iter=30, seed=0)

        def objective(pi0):
            z0 = solve_lift(problem.q0, pi0)
            traj = integrate_symrep(problem.spec, z0, problem.cfg)
            return float(np.sum((traj.states[-1][:3] - problem.q_target) ** 2))

        h = 1e-6
        grad = []
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1.0
            d = hat(e)
            grad.append(
                (objective(sol.pi0 + h * d) - objective(sol.pi0 - h * d)) / (2 * h)
            )
        assert np.linalg.norm(grad) <= 10.0 * tol

    def test_recovers_planted_momentum(self):
        from nrigid.matcore import polar_project, random_rotation, random_skew

        spec = standard_spec()
        cfg = IntegratorConfig("rk4", 5e-3, 1.0)
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            pi_true = random_skew(3, rng)
            pi_true *= rng.uniform(0.3, 1.5) / spectral_norm(pi_true)
            q0 = random_rotation(3, rng)
            z0 = solve_lift(q0, pi_true)
            q_target = polar_project(q_block(integrate_symrep(spec, z0, cfg).states[-1]))
            problem = BvpProblem(spec=spec, q0=q0, q_target=q_target, t_final=1.0, cfg=cfg)
            sol = shoot(problem, tol=1e-6, max_iter=60, seed=7)
            assert sol.terminal_error <= 1e-6
            assert np.linalg.norm(sol.pi0 - pi_true) <= 1e-5

    def test_target_beyond_lift_bound_converges(self):
        # the extremal to this target needs |pi0|_2 ~ 2.08, beyond the lift
        # bound; the attitude flow from (I, pi0) reaches it all the same
        problem = capped_problem(expm(hat([0.3, -0.2, 0.4])))
        sol = shoot(problem, tol=1e-6, max_iter=30, seed=0)
        assert sol.terminal_error <= 1e-6
        assert spectral_norm(sol.pi0) > 2.0
        body = integrate_euler_poisson(
            problem.spec, np.vstack([np.eye(3), sol.pi0]), problem.cfg
        )
        assert np.linalg.norm(body.states[-1, :3] - problem.q_target) <= 1e-6

    def test_principal_axis_beyond_lift_bound_is_analytic(self):
        # steady rotation by 2.5 rad about e2 in unit time: the momentum is
        # (lambda_1 + lambda_3) * 2.5 = 10 about e2 and the cost 10 * 2.5 / 2
        problem = capped_problem(expm(2.5 * E2))
        sol = shoot(problem, tol=1e-6, max_iter=30, seed=0)
        np.testing.assert_allclose(sol.pi0, 10.0 * E2, atol=1e-5)
        assert abs(sol.cost - 12.5) <= 1e-5

    @pytest.mark.parametrize("left", [False, True])
    @pytest.mark.parametrize("where", ["inside", "at-rk4", "at-midpoint", "beyond"])
    def test_returned_trajectory_is_the_searched_flow(self, where, left):
        # inside, exactly at and beyond the lift bound |pi0|_2 = 2, the answer
        # is the euler-poisson flow from (q0, pi0) that the search scored,
        # also for the problem left-translated away from q0 = I
        if where == "inside":
            problem, tol = spherical_problem(), 1e-7
        elif where == "beyond":
            problem, tol = capped_problem(expm(hat([0.3, -0.2, 0.4]))), 1e-6
        else:
            # the principal-axis criterion-11 target: pi0 = (2 + 3) 0.4 E1
            cfg = IntegratorConfig(where[3:], 5e-3, 1.0)
            problem, tol = BvpProblem(standard_spec(), np.eye(3), expm(0.4 * E1), 1.0, cfg), 1e-6
        problem = translated(problem, left)
        sol = shoot(problem, tol=tol, max_iter=60, seed=0)
        norm = spectral_norm(sol.pi0)
        if where == "inside":
            assert norm < 2.0
        elif where == "beyond":
            assert norm > 2.0
        else:
            assert abs(norm - 2.0) <= 1e-5
        traj = sol.trajectory
        assert traj.kind == "euler-poisson"
        flow = integrate_euler_poisson(problem.spec, np.vstack([problem.q0, sol.pi0]), problem.cfg)
        np.testing.assert_array_equal(traj.states, flow.states)
        # scored on the polar factor of the final attitude
        assert sol.terminal_error == np.linalg.norm(polar(traj.states[-1, :3]) - problem.q_target)
        assert sol.terminal_error <= tol

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf"), True, "1e-6"])
    def test_tol_must_be_positive(self, tol, monkeypatch):
        # refused before any run
        monkeypatch.setattr(control, "_euler_poisson", None)
        with pytest.raises(ValueError, match=f"^tol must be a positive finite number, got "
                                             f"{re.escape(repr(tol))}$"):
            shoot(spherical_problem(), tol=tol)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
        ({"max_iter": -5}, "max_iter must be at least 1, got -5"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"max_iter": 30.0}, "max_iter must be an integer, got 30.0"),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"seed": "1"}, "seed must be an integer, got '1'"),
    ], ids=["max_iter=0", "max_iter=-5", "seed=-1", "max_iter=2.5", "max_iter=30.0",
            "max_iter=True", "seed=2.5", "seed=False", "seed='1'"])
    def test_search_setting_out_of_range(self, kwargs, message, monkeypatch):
        # refused before any run
        monkeypatch.setattr(control, "_euler_poisson", None)
        with pytest.raises(ValueError, match=f"^{message}$"):
            shoot(spherical_problem(), **kwargs)

    def test_numpy_integer_settings_accepted(self):
        sol = shoot(spherical_problem(step=1e-2), tol=1e-7, max_iter=np.int64(30),
                    seed=np.uint8(0))
        assert sol.terminal_error <= 1e-7

    def test_line_search_stall_is_named(self, monkeypatch):
        # no damping is admissible, so every line search stalls at once
        monkeypatch.setattr(control, "_MIN_DAMPING", 2.0)
        with pytest.raises(ConvergenceError) as err:
            shoot(spherical_problem(step=1e-2), tol=1e-7, max_iter=30, seed=0)
        assert err.value.reason == "line_search"
        message = str(err.value)
        assert message.startswith("line search stalled after 3 restarts; best terminal error")
        assert "trust" not in message and "bound" not in message
        assert isinstance(err.value.best, BvpSolution)

    def test_overflowing_residual_is_rejected_quietly(self, monkeypatch):
        # The far step is scored on its polar factor, a finite miss that the
        # line search rejects; the search converges, with no overflow warning.
        problem = overshooting_problem(monkeypatch)
        lasts, run = [], control._euler_poisson

        def spy(spec, y0, cfg):
            out = run(spec, y0, cfg)
            lasts.append(out[2])
            return out

        monkeypatch.setattr(control, "_euler_poisson", spy)
        sol = shoot(problem, tol=1e-6)
        assert sol.terminal_error <= 1e-6
        assert np.isfinite(lasts[0]).all() and np.abs(lasts[0]).max() > 1e200

    @staticmethod
    def seeded_rk4_problem(seed):
        # Plain rk4, T = 1, from rest at q0 = I: n = 3 or 4, lambda uniform in
        # [0.5, 2], h = 0.05, 0.1 or 0.2, and a target exp(A) with A skew of
        # spectral norm uniform in [0.2, 2.5].
        rng = np.random.default_rng([5, seed])
        n = 3 + seed % 2
        spec = InertiaSpec(rng.uniform(0.5, 2.0, n))
        q_target = expm(scaled_skew(n, rng, rng.uniform(0.2, 2.5)))
        cfg = IntegratorConfig("rk4", (0.05, 0.1, 0.2)[seed % 3], 1.0)
        return BvpProblem(spec, np.eye(n), q_target, 1.0, cfg)

    @pytest.mark.parametrize("seed", [1, 2, 4, 5, 6, 8])
    def test_seeded_plain_rk4_converges(self, seed):
        # rk4 leaves SO(n), so the final attitude itself stays farther than
        # tol from the target: scored on Q(T) - q_target, each of these
        # searches spent its 30 iterations and ended with reason "max_iter".
        # Its polar factor reaches the target in a few iterations.
        problem = self.seeded_rk4_problem(seed)
        n = problem.spec.n
        sol = shoot(problem, tol=1e-8, max_iter=30, seed=0)
        q_final = sol.trajectory.states[-1, :n]
        assert sol.iterations <= 6 and sol.terminal_error <= 1e-8
        assert sol.terminal_error == np.linalg.norm(polar(q_final) - problem.q_target)
        assert np.linalg.norm(q_final - problem.q_target) > 1e-8
        assert sol.trajectory.audits["orthogonality_defect"][-1] > 1e-8

    def test_iteration_budget_error_carries_best(self):
        problem = spherical_problem(step=1e-2)
        with pytest.raises(ConvergenceError) as err:
            shoot(problem, tol=1e-12, max_iter=1, seed=0)
        assert err.value.reason == "max_iter"
        best = err.value.best
        assert isinstance(best, BvpSolution)
        assert best.terminal_error < 1.0
        assert best.trajectory.kind == "euler-poisson"
        assert best.terminal_error == np.linalg.norm(
            polar(best.trajectory.states[-1, :3]) - problem.q_target
        )


def assert_same_solution(sol, ref):
    """Bit for bit: pi0, iteration count, cost, terminal error, trajectory."""
    np.testing.assert_array_equal(sol.pi0, ref.pi0)
    assert sol.iterations == ref.iterations
    assert sol.cost == ref.cost
    assert sol.terminal_error == ref.terminal_error
    assert sol.trajectory.kind == ref.trajectory.kind
    np.testing.assert_array_equal(sol.trajectory.times, ref.trajectory.times)
    np.testing.assert_array_equal(sol.trajectory.states, ref.trajectory.states)
    assert sorted(sol.trajectory.audits) == sorted(ref.trajectory.audits)
    for name, values in ref.trajectory.audits.items():
        np.testing.assert_array_equal(sol.trajectory.audits[name], values)


def outcome(solve, problem, **kwargs):
    try:
        return solve(problem, **kwargs)
    except (ConvergenceError, DivergenceError) as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, BvpSolution):
        assert isinstance(got, BvpSolution), got
        assert_same_solution(got, want)
        return
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert getattr(got, "step_index", None) == getattr(want, "step_index", None)
    assert getattr(got, "reason", None) == getattr(want, "reason", None)
    if getattr(want, "best", None) is not None:
        assert_same_solution(got.best, want.best)


class TestAuditedAnswer:
    """`shoot` audits only the trajectory it returns.  That trajectory, the
    best one a failed search carries, their audits and cost are those of
    `integrate_euler_poisson` from (q0, pi0), bit for bit."""

    @staticmethod
    def assert_public_run(problem, sol):
        flow = integrate_euler_poisson(problem.spec, np.vstack([problem.q0, sol.pi0]), problem.cfg)
        assert sol.trajectory.kind == flow.kind
        np.testing.assert_array_equal(sol.trajectory.times, flow.times)
        np.testing.assert_array_equal(sol.trajectory.states, flow.states)
        assert list(sol.trajectory.audits) == list(flow.audits)
        for name, values in flow.audits.items():
            np.testing.assert_array_equal(sol.trajectory.audits[name], values)
        assert sol.cost == trajectory_cost(problem.spec, flow)

    @staticmethod
    def problem(scheme, left=False):
        cfg = IntegratorConfig(scheme, 0.01, 1.0)
        target = expm(0.37 * hat([0.6, -0.48, 0.64]))
        return translated(BvpProblem(standard_spec(), np.eye(3), target, 1.0, cfg), left)

    @pytest.mark.parametrize("left", [False, True])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    def test_solution(self, scheme, left):
        problem = self.problem(scheme, left)
        sol = shoot(problem)
        self.assert_public_run(problem, sol)
        if left:
            # the left translation moves the answer by the search's round-off
            np.testing.assert_allclose(sol.pi0, shoot(self.problem(scheme)).pi0, atol=1e-6)

    @pytest.mark.parametrize("reason", ["max_iter", "line_search"])
    def test_best_of_a_failed_search(self, monkeypatch, reason):
        if reason == "line_search":
            monkeypatch.setattr(control, "_MIN_DAMPING", 2.0)
        problem = self.problem("rk4")
        with pytest.raises(ConvergenceError) as err:
            shoot(problem, tol=1e-12, max_iter=1 if reason == "max_iter" else 30)
        assert err.value.reason == reason
        self.assert_public_run(problem, err.value.best)


class RunSpy:
    """Records every run that `shoot` makes: its member count, whether it
    failed, and for a failed batch whether its first member fails alone;
    in `starts` the start of each run's first member, and in `failed_batches`
    the start of each failed batch.  Asserts that each run is a lone point
    or a point with its d probes, 1 + d members, that no probe runs alone,
    and that no run follows a failed one, whose failure `shoot` raises."""

    def __init__(self, monkeypatch):
        self.runs, self.starts, self.failed_batches, probes = [], [], [], set()
        run = control._euler_poisson

        def fails(spec, y0, cfg):
            try:
                run(spec, y0, cfg)
            except (ConvergenceError, DivergenceError):
                return True
            return False

        def spy(spec, y0, cfg):
            assert not any(failed for _, failed, _ in self.runs)
            members = 1 if y0.ndim == 2 else len(y0)
            assert members in (1, 1 + spec.n * (spec.n - 1) // 2)
            if members == 1:
                assert y0.tobytes() not in probes
            else:
                probes.update(member.tobytes() for member in y0[1:])
            self.starts.append(y0.reshape((-1,) + y0.shape[-2:])[0].copy())
            try:
                out = run(spec, y0, cfg)
            except (ConvergenceError, DivergenceError):
                self.runs.append((members, True, members == 1 or fails(spec, y0[0], cfg)))
                if members > 1:
                    self.failed_batches.append(y0.copy())
                raise
            self.runs.append((members, False, False))
            return out

        monkeypatch.setattr(control, "_euler_poisson", spy)

    def failed(self, members):
        return [first_fails for m, failed, first_fails in self.runs if m == members and failed]

    def reruns(self):
        # The batches that start where the lone run just before them did.
        return [k for k in range(1, len(self.runs))
                if self.runs[k][0] > 1 and self.runs[k - 1][0] == 1
                and np.array_equal(self.starts[k], self.starts[k - 1])]


class TestBatchedProbes:
    """`shoot` runs a point with its forward-difference probes as one batch;
    `helpers.shoot_reference`, a loop of single public runs, is the oracle,
    bit for bit."""

    @staticmethod
    def problem(which, scheme, left=False):
        cfg = IntegratorConfig(scheme, 5e-3, 1.0)
        q0 = np.eye(3)
        if which == "spherical":
            spec, q_target, solve = InertiaSpec([1.0, 1.0, 1.0]), expm(0.3 * E3), (1e-7, 30, 11)
        elif which == "principal-axis":
            spec, q_target, solve = standard_spec(), expm(0.4 * E1), (1e-6, 60, 11)
        elif which == "rotated-start":
            # polar(I) is I exactly; the polar factor of a q0 away from I
            # moves it by round-off
            q0 = random_rotation(3, np.random.default_rng(21))
            spec, solve = standard_spec(), (1e-9, 30, 0)
            q_target = q0 @ expm(0.4 * hat([0.6, -0.48, 0.64]))
        else:
            spec, q0 = InertiaSpec([1.0, 1.5, 2.0, 2.5]), np.eye(4)
            q_target, solve = expm(scaled_skew(4, np.random.default_rng(4), 0.3)), (1e-10, 30, 0)
        problem = translated(BvpProblem(spec, q0, q_target, 1.0, cfg), left)
        return problem, dict(zip(("tol", "max_iter", "seed"), solve))

    @pytest.mark.parametrize("left", [False, True])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    @pytest.mark.parametrize("which", ["spherical", "principal-axis", "seeded-n4", "rotated-start"])
    def test_matches_loop_oracle(self, which, scheme, left):
        problem, kwargs = self.problem(which, scheme, left)
        sol = shoot(problem, **kwargs)
        assert sol.terminal_error <= kwargs["tol"]
        assert_same_solution(sol, shoot_reference(problem, **kwargs))

    def test_failed_search_matches_loop_oracle(self):
        problem, _ = self.problem("seeded-n4", "rk4")
        kwargs = dict(tol=1e-12, max_iter=1, seed=0)
        err = outcome(shoot, problem, **kwargs)
        assert isinstance(err, ConvergenceError) and err.reason == "max_iter"
        assert_same_outcome(err, outcome(shoot_reference, problem, **kwargs))

    def test_damped_candidates_run_alone(self, monkeypatch):
        # A turn of 3.08 rad, near half a turn, of a flat body: the line
        # searches of iterations 8 and 9 backtrack, and 10 iterations do not
        # reach tol.  The start is at rest and makes no run.  Each line
        # search runs its full step with the d = 3 probes, one batch of 4; a
        # damped candidate runs alone, and an iterate it reached re-runs as
        # the first member of a batch of 4 for its Jacobian.  No run has any
        # other shape.
        cfg = IntegratorConfig("rk4", 0.5, 1.0)
        axis = np.array([0.69, -0.52, -0.09])
        problem = BvpProblem(InertiaSpec([0.3, 0.4, 5.4]), np.eye(3),
                             expm(3.08 * hat(axis / np.linalg.norm(axis))), 1.0, cfg)
        kwargs = dict(tol=1e-8, max_iter=10, seed=0)
        spy = RunSpy(monkeypatch)
        got = outcome(shoot, problem, **kwargs)
        assert isinstance(got, ConvergenceError) and got.reason == "max_iter"
        members = [m for m, _, _ in spy.runs]
        assert not any(failed for _, failed, _ in spy.runs)
        assert set(members) == {1, 4} and members.count(1) > 0
        reruns = spy.reruns()
        assert len(reruns) > 0
        assert members.count(4) == kwargs["max_iter"] + len(reruns)
        assert_same_outcome(got, outcome(shoot_reference, problem, **kwargs))

    def test_drift_floor_target_converges_without_damping(self, monkeypatch):
        # rk4, h = 0.05, a turn of 1.5 rad: scored on Q(T) itself, the search
        # stalled at rk4's drift off SO(3), backtracked and ended with
        # reason "max_iter" after 8 iterations at 3.46e-8 > tol.  On the
        # polar factor it converges in 5: four batches of 4 and, predicted
        # to be the last, one lone full step.
        cfg = IntegratorConfig("rk4", 0.05, 1.0)
        problem = BvpProblem(standard_spec(), np.eye(3), expm(1.5 * hat([0.6, -0.48, 0.64])),
                             1.0, cfg)
        spy = RunSpy(monkeypatch)
        sol = shoot(problem, tol=1e-8, max_iter=8, seed=0)
        assert sol.iterations == 5 and sol.terminal_error <= 1e-8
        assert [m for m, _, _ in spy.runs] == [4, 4, 4, 4, 1]

    @staticmethod
    def mismatch(problem, y0):
        # the terminal error, as shoot scores it, of a lone public run from y0
        traj = integrate_euler_poisson(problem.spec, y0, problem.cfg)
        return np.linalg.norm(polar(traj.states[-1, :problem.spec.n]) - problem.q_target)

    def test_probe_failing_at_rejected_candidate_raises_its_batch_failure(self, monkeypatch):
        # With a coarse forward-difference step, a probe of the full step
        # from the last restart leaves the momenta at which 20 midpoint
        # fixed-point iterations converge at h = 0.2.  The candidate itself
        # runs, and ends farther from the target than the restart, so the line
        # search would reject it; shoot raises its batch's failure all the
        # same, as the oracle does, and makes no further run.
        monkeypatch.setattr(control, "_FD_STEP", 5.0)
        monkeypatch.setattr(integrate, "_MIDPOINT_MAX_ITER", 20)
        cfg = IntegratorConfig("midpoint", 0.2, 1.0)
        problem = BvpProblem(standard_spec(), np.eye(3), expm(2.5 * hat([0.6, -0.48, 0.64])),
                             1.0, cfg)
        spy = RunSpy(monkeypatch)
        got = outcome(shoot, problem, tol=1e-6, max_iter=30, seed=0)
        assert isinstance(got, ConvergenceError) and got.reason == "fixed_point"
        assert spy.runs[-2:] == [(4, False, False), (4, True, False)]
        assert spy.failed(4) == [False]
        assert self.mismatch(problem, spy.failed_batches[-1][0]) > self.mismatch(
            problem, spy.starts[-2])
        assert_same_outcome(got, outcome(shoot_reference, problem, tol=1e-6, max_iter=30, seed=0))

    def test_probe_failing_at_accepted_candidate_raises_its_batch_failure(self, monkeypatch):
        # A coarse step puts a probe of the first full step where rk4 at
        # h = 0.2 diverges, while the candidate itself runs and lands far
        # nearer the target than the start, so the line search would accept
        # it: shoot raises its batch's DivergenceError, as the oracle raises
        # the probe's own.
        monkeypatch.setattr(control, "_FD_STEP", 300.0)
        cfg = IntegratorConfig("rk4", 0.2, 1.0)
        problem = BvpProblem(standard_spec(), np.eye(3), expm(hat([0.6, -0.48, 0.64])), 1.0, cfg)
        spy = RunSpy(monkeypatch)
        got = outcome(shoot, problem, tol=1e-6, max_iter=60, seed=0)
        assert isinstance(got, DivergenceError)
        # The start, at rest, makes no run, so the first run is the batch of
        # the first full step.  It fails in a probe, and shoot raises with no
        # further run.
        assert spy.runs == [(4, True, False)]
        start = np.linalg.norm(problem.q0 - problem.q_target)
        assert self.mismatch(problem, spy.failed_batches[0][0]) < 0.5 * start
        want = outcome(shoot_reference, problem, tol=1e-6, max_iter=60, seed=0)
        assert_same_outcome(got, want)
        assert got.step_index == want.step_index == 4

    def test_probe_failures_raise_the_earliest_step(self, monkeypatch):
        # Probes of one iterate that fail at different steps: the earliest
        # step's failure raises, not that of the first failing probe in order.
        monkeypatch.setattr(control, "_FD_STEP", 308.74)
        cfg = IntegratorConfig("rk4", 0.1, 1.0)
        q_target = expm(2.443 * hat([-0.645, -0.066, 0.761]))
        problem = BvpProblem(standard_spec(), np.eye(3), q_target, 1.0, cfg)
        spy = RunSpy(monkeypatch)
        got = outcome(shoot, problem, tol=1e-6, max_iter=60, seed=0)
        want = outcome(shoot_reference, problem, tol=1e-6, max_iter=60, seed=0)
        assert isinstance(got, DivergenceError)
        assert_same_outcome(got, want)
        # the failing batch's probes, each run alone: the first fails at step 10
        steps = [getattr(outcome(lambda y0: integrate_euler_poisson(problem.spec, y0, cfg), probe),
                         "step_index", None) for probe in spy.failed_batches[-1][1:]]
        assert steps == [10, 9, None]
        assert got.step_index == 9


def steer_problems():
    """The solves of a `steer` pass of `bench/run.py` at seed 1, by label.

    The two criterion-11 targets, four n = 3 and two n = 4 targets each
    turned 0.1-0.3 rad in a random plane and solved to tol 1e-10, and the
    capped target; every one under rk4, h = 5e-3, T = 1, with the
    benchmark's draws and the 3-D targets from `expm`.  Each value is a
    problem and its `shoot` keywords.
    """
    cfg = IntegratorConfig("rk4", 5e-3, 1.0)
    solves = {
        "spherical": ([1.0, 1.0, 1.0], expm(0.3 * E3), 1e-7, 30, 11),
        "principal-axis": ([1.0, 2.0, 3.0], expm(0.4 * E1), 1e-6, 60, 11),
    }
    rng = np.random.default_rng([1, 3])
    for k in range(6):
        n, lam = (3, [1.0, 2.0, 3.0]) if k < 4 else (4, [1.0, 1.5, 2.0, 2.5])
        angle = rng.uniform(0.1, 0.3)
        u, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        plane = np.outer(u[:, 1], u[:, 0]) - np.outer(u[:, 0], u[:, 1])
        solves[f"seeded-n{n}-{k}"] = (lam, expm(angle * plane), 1e-10, 30, k)
    solves["capped"] = ([1.0, 2.0, 3.0], expm(hat([0.3, -0.2, 0.4])), 1e-6, 30, 0)
    return {label: (BvpProblem(InertiaSpec(lam), np.eye(len(lam)), q_target, 1.0, cfg),
                    dict(tol=tol, max_iter=max_iter, seed=seed))
            for label, (lam, q_target, tol, max_iter, seed) in solves.items()}


class TestLastStepAlone:
    """A full step whose Gauss-Newton model residual ||r + J direction|| is
    at most tol is predicted to end the search, so it runs alone: its probes
    would go unread.  One that lands above tol after all re-runs as member 0
    of its batch at the next iteration, as an iterate reached by a damped
    step does."""

    @staticmethod
    def models(monkeypatch):
        # The model residual of each Gauss-Newton direction solved, in order.
        models, lstsq = [], np.linalg.lstsq

        def spy(a, b, rcond=None):
            out = lstsq(a, b, rcond=rcond)
            models.append(float(np.linalg.norm(a @ out[0] - b)))
            return out

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        return models

    @pytest.mark.parametrize("label", list(steer_problems()))
    def test_last_run_alone_exactly_when_the_model_meets_tol(self, monkeypatch, label):
        problem, kwargs = steer_problems()[label]
        d = problem.spec.n * (problem.spec.n - 1) // 2
        spy, models = RunSpy(monkeypatch), self.models(monkeypatch)
        sol = shoot(problem, **kwargs)
        members = [m for m, _, _ in spy.runs]
        # every step is a full one, so each iteration makes one run
        assert len(members) == len(models) == sol.iterations
        assert members[:-1] == [1 + d] * (len(members) - 1)
        assert (members[-1] == 1) == (models[-1] <= kwargs["tol"])
        assert all(model > kwargs["tol"] for model in models[:-1])
        assert_same_solution(sol, shoot_reference(problem, **kwargs))

    def test_steer_pass_makes_18_batches_and_7_lone_runs(self, monkeypatch):
        # Each solve's last step is predicted but those of the criterion-11
        # targets, whose model residuals count the residual's part normal to
        # SO(3); scoring every full step with its probes made 25 batches.
        spy = RunSpy(monkeypatch)
        lone = []
        for label, (problem, kwargs) in steer_problems().items():
            before = len(spy.runs)
            assert shoot(problem, **kwargs).iterations == len(spy.runs) - before
            lone += [label for m, _, _ in spy.runs[before:] if m == 1]
        members = [m for m, _, _ in spy.runs]
        assert len(members) == 25 and members.count(1) == 7
        assert "spherical" not in lone and "principal-axis" not in lone

    def test_wrong_prediction_reruns_in_its_batch(self, monkeypatch):
        # Found by a seeded search: the sixth step's model residual meets tol,
        # but the step lands above it.  The next iteration re-runs that
        # iterate as member 0 of its batch, and its full step converges.
        cfg = IntegratorConfig("rk4", 0.1, 1.0)
        q_target = expm(scaled_skew(4, np.random.default_rng(1), 2.9))
        problem = BvpProblem(InertiaSpec([1.0, 1.5, 2.0, 2.5]), np.eye(4), q_target, 1.0, cfg)
        spy, models = RunSpy(monkeypatch), self.models(monkeypatch)
        sol = shoot(problem, tol=1e-3)
        assert [m for m, _, _ in spy.runs] == [7, 7, 7, 7, 7, 1, 7, 1]
        assert spy.reruns() == [6]
        assert models[5] <= 1e-3 < TestBatchedProbes.mismatch(problem, spy.starts[5])
        assert models[6] <= 1e-3 and sol.iterations == 7
        assert_same_solution(sol, shoot_reference(problem, tol=1e-3))

    def test_rejected_predicted_step_backtracks_alone(self, monkeypatch):
        # The model meets tol, and the full step ends far out, where its
        # polar factor misses the target, which the Armijo test rejects.
        # Damped candidates x + 2^-k direction run alone, as before, and the
        # iterate the line search accepts re-runs as member 0 of its batch.
        problem = overshooting_problem(monkeypatch)
        spy, models = RunSpy(monkeypatch), self.models(monkeypatch)
        sol = shoot(problem, tol=1e-6)
        assert models[0] <= 1e-6 and sol.terminal_error <= 1e-6
        first = spy.reruns()[0]
        assert [m for m, _, _ in spy.runs[:first]] == [1] * first
        for k, start in enumerate(spy.starts[:first]):
            np.testing.assert_array_equal(start[3:], 0.5 ** k * spy.starts[0][3:])

    def test_probe_failing_at_predicted_last_step_does_not_raise(self, monkeypatch):
        # A 1e-3 rad target: the first full step from rest is predicted last
        # and lands within tol.  With a coarse forward-difference step, its
        # probes would leave momenta at which midpoint's fixed-point iteration
        # at h = 0.5 does not converge; none runs, and the solve succeeds.
        monkeypatch.setattr(control, "_FD_STEP", 20.0)
        cfg = IntegratorConfig("midpoint", 0.5, 1.0)
        problem = BvpProblem(standard_spec(), np.eye(3), expm(1e-3 * hat([0.6, -0.48, 0.64])),
                             1.0, cfg)
        spy, models = RunSpy(monkeypatch), self.models(monkeypatch)
        sol = shoot(problem, tol=1e-6)
        assert spy.runs == [(1, False, False)] and len(models) == 1
        assert models[0] <= 1e-6 and sol.iterations == 1 and sol.terminal_error <= 1e-6
        probes = []
        for a, b in zip(*np.triu_indices(3, 1)):
            probes.append(spy.starts[0].copy())
            probes[-1][3 + a, b] += control._FD_STEP
            probes[-1][3 + b, a] -= control._FD_STEP
        failures = [outcome(lambda y0: integrate_euler_poisson(problem.spec, y0, cfg), probe)
                    for probe in probes]
        assert any(isinstance(f, ConvergenceError) and f.reason == "fixed_point"
                   for f in failures)
        assert_same_solution(sol, shoot_reference(problem, tol=1e-6))


class TestStartAtRest:
    """`shoot` starts at x = 0, at rest, where each scheme returns its state
    bit for bit: the residual vec(polar(q0) - q_target) needs no run, and the
    Jacobian `control._rest_jacobian` is the flow's exact tangent there, which
    the polar factor leaves as it is."""

    @staticmethod
    def rest_stack(n, seed):
        return np.vstack([random_rotation(n, np.random.default_rng(seed)), np.zeros((n, n))])

    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rest_is_a_bitwise_fixed_point(self, n, scheme):
        spec = InertiaSpec(np.linspace(1.0, 2.0, n))
        cfg = IntegratorConfig(scheme, 0.1, 1.0)
        y0 = self.rest_stack(n, n)
        rest = np.repeat(y0[None], 11, axis=0).tobytes()  # bytes, so that -0.0 != 0.0
        times, states, last = _euler_poisson(spec, y0, cfg)
        np.testing.assert_array_equal(times, np.arange(11) * 0.1)
        assert states.tobytes() == rest and last.tobytes() == y0.tobytes()
        batch = np.stack([y0, self.rest_stack(n, n + 100), y0])
        _, states, last = _euler_poisson(spec, batch, cfg)
        assert states.tobytes() == rest and last.tobytes() == batch.tobytes()

    @pytest.mark.parametrize("left", [False, True])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_rest_jacobian_matches_centred_difference(self, n, scheme, left):
        spec = InertiaSpec(np.linspace(1.0, 2.5, n))
        cfg = IntegratorConfig(scheme, 0.02, 1.0)
        q0 = random_rotation(n, np.random.default_rng(30 + n))
        problem = translated(BvpProblem(spec, q0, np.eye(n), 1.0, cfg), left)
        upper = np.triu_indices(n, 1)
        jac = control._rest_jacobian(problem, upper)
        eps = 1e-4

        def attitude(x):
            pi0 = np.zeros((n, n))
            pi0[upper] = x
            y0 = np.vstack([problem.q0, pi0 - pi0.T])
            return polar(integrate_euler_poisson(spec, y0, cfg).states[-1, :n])

        basis = np.eye(len(upper[0]))
        centred = np.column_stack([
            ((attitude(eps * e) - attitude(-eps * e)) / (2 * eps)).ravel() for e in basis
        ])
        assert jac.shape == (n * n, len(basis))
        assert np.linalg.norm(jac - centred) <= 1e-8 * np.linalg.norm(centred)

    @pytest.mark.parametrize("left", [False, True])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    def test_target_at_the_start(self, monkeypatch, scheme, left):
        # No run is made.  The residual is polar(q0) - q0, round-off, as a
        # lone run from rest scores it.
        q0 = random_rotation(3, np.random.default_rng(22))
        cfg = IntegratorConfig(scheme, 0.01, 1.0)
        problem = translated(BvpProblem(standard_spec(), q0, q0, 1.0, cfg), left)
        q0 = problem.q0
        spy = RunSpy(monkeypatch)
        sol = shoot(problem, tol=1e-12)
        assert spy.runs == []
        np.testing.assert_array_equal(sol.pi0, np.zeros((3, 3)))
        assert sol.iterations == 0 and sol.cost == 0.0
        TestAuditedAnswer.assert_public_run(problem, sol)
        assert sol.terminal_error == TestBatchedProbes.mismatch(problem, sol.trajectory.states[0])
        assert sol.terminal_error <= 1e-14
        np.testing.assert_array_equal(sol.trajectory.states, np.repeat(
            np.vstack([q0, np.zeros((3, 3))])[None], 101, axis=0))

    @pytest.mark.parametrize("t_final, count, patched", HUGE_HORIZONS)
    def test_unstorable_horizon_refused_before_any_run(self, monkeypatch, t_final, count,
                                                       patched):
        spy = RunSpy(monkeypatch)
        if patched:
            refuse_large_allocations(monkeypatch)
        cfg = IntegratorConfig("rk4", 1e-3, t_final)
        problem = BvpProblem(standard_spec(), np.eye(3), random_rotation(3, 5), t_final, cfg)
        with pytest.raises(ValueError, match=re.escape(
                f"t_final / step is {count} steps, too many states to store")):
            shoot(problem)
        assert spy.runs == []

    def test_identity_target_at_the_identity_is_exact(self):
        # polar(I) is I bit for bit, so steering from I to I reads 0
        cfg = IntegratorConfig("rk4", 0.01, 1.0)
        sol = shoot(BvpProblem(standard_spec(), np.eye(3), np.eye(3), 1.0, cfg), tol=1e-12)
        assert sol.terminal_error == 0.0 and sol.iterations == 0
