import numpy as np
import pytest

from helpers import standard_pi0, standard_spec
from nrigid import control
from nrigid.body import BodyState, InertiaSpec, hat
from nrigid.control import BvpProblem, BvpSolution, shoot, trajectory_cost
from nrigid.errors import ConvergenceError
from nrigid.integrate import IntegratorConfig, integrate_euler_poisson, integrate_symrep
from nrigid.lift import solve_lift
from nrigid.matcore import expm, spectral_norm
from nrigid.moment import on_momentum
from nrigid.symrep import hamiltonian, optimal_control, q_block

E1 = hat([1.0, 0.0, 0.0])
E2 = hat([0.0, 1.0, 0.0])
E3 = hat([0.0, 0.0, 1.0])


def spherical_problem(step=5e-3, project_attitude=False):
    spec = InertiaSpec([1.0, 1.0, 1.0])
    cfg = IntegratorConfig("rk4", step, 1.0, project_attitude=project_attitude)
    return BvpProblem(
        spec=spec, q0=np.eye(3), q_target=expm(0.3 * E3), t_final=1.0, cfg=cfg
    )


def capped_problem(q_target, project_attitude=False):
    """The standard body steered from rest to a target that needs |pi0|_2 > 2."""
    return BvpProblem(
        spec=standard_spec(),
        q0=np.eye(3),
        q_target=q_target,
        t_final=1.0,
        cfg=IntegratorConfig("rk4", 5e-3, 1.0, project_attitude=project_attitude),
    )


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

    def test_too_few_samples(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 1.0, 1.0))
        with pytest.raises(ValueError):
            trajectory_cost(spec, traj)


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
            np.linalg.norm(optimal_control(spherical_problem().spec, z) - 0.3 * E3)
            for z in sol.trajectory.states
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
        ms = [on_momentum(z) for z in traj.states]
        h = traj.times[1] - traj.times[0]
        worst = max(
            np.linalg.norm((ms[k + 1] - ms[k - 1]) / (2 * h) - euler_rhs(spec, ms[k]))
            for k in range(1, len(ms) - 1)
        )
        assert worst <= 1e-6

    def test_energy_constant_and_collective(self):
        from nrigid.body import reduced_hamiltonian

        sol = shoot(spherical_problem(), tol=1e-7, max_iter=30, seed=0)
        traj = sol.trajectory
        h_vals = traj.audits["hamiltonian"]
        assert np.max(np.abs(h_vals - h_vals[0])) <= 1e-8
        spec = spherical_problem().spec
        for z, h_val in zip(traj.states[::50], h_vals[::50]):
            assert abs(reduced_hamiltonian(spec, on_momentum(z)) - h_val) <= 1e-12

    def test_cost_equals_horizon_times_energy(self):
        sol = shoot(spherical_problem(), tol=1e-7, max_iter=30, seed=0)
        h0 = hamiltonian(spherical_problem().spec, sol.trajectory.states[0])
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
            problem.spec, BodyState(q=np.eye(3), pi=sol.pi0), problem.cfg
        )
        assert np.linalg.norm(body.states[-1].q - problem.q_target) <= 1e-6

    def test_principal_axis_beyond_lift_bound_is_analytic(self):
        # steady rotation by 2.5 rad about e2 in unit time: the momentum is
        # (lambda_1 + lambda_3) * 2.5 = 10 about e2 and the cost 10 * 2.5 / 2
        problem = capped_problem(expm(2.5 * E2))
        sol = shoot(problem, tol=1e-6, max_iter=30, seed=0)
        np.testing.assert_allclose(sol.pi0, 10.0 * E2, atol=1e-5)
        assert abs(sol.cost - 12.5) <= 1e-5

    @pytest.mark.parametrize("project_attitude", [False, True])
    def test_returned_trajectory_is_the_rotation_lift_inside_the_bound(self, project_attitude):
        problem = spherical_problem(project_attitude=project_attitude)
        sol = shoot(problem, tol=1e-7, max_iter=30, seed=0)
        np.testing.assert_allclose(sol.pi0, 0.6 * E3, atol=1e-5)
        traj = sol.trajectory
        assert np.max(traj.audits["orthogonality_defect"]) <= 1e-10
        assert np.linalg.norm(q_block(traj.states[-1]) - problem.q_target) <= 1e-7

    @pytest.mark.parametrize("project_attitude", [False, True])
    def test_returned_trajectory_beyond_the_bound_is_bound_free(self, project_attitude):
        # the bound-free flow is never projected: projecting P needs a rotation
        problem = capped_problem(expm(hat([0.3, -0.2, 0.4])), project_attitude)
        sol = shoot(problem, tol=1e-6, max_iter=30, seed=0)
        states = sol.trajectory.states
        np.testing.assert_allclose(on_momentum(states[0]), sol.pi0, atol=1e-14)
        assert np.linalg.norm(q_block(states[-1]) - problem.q_target) <= 1e-6

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

    def test_iteration_budget_error_carries_best(self):
        problem = spherical_problem(step=1e-2)
        with pytest.raises(ConvergenceError) as err:
            shoot(problem, tol=1e-12, max_iter=1, seed=0)
        assert err.value.reason == "max_iter"
        assert isinstance(err.value.best, BvpSolution)
        assert err.value.best.terminal_error < 1.0
