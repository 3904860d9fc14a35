import numpy as np
import pytest

from helpers import random_phase, scaled_skew, standard_pi0, standard_spec
from nrigid.body import InertiaSpec, euler_poisson_rhs, euler_rhs, hat, inertia_inverse
from nrigid.errors import ConvergenceError, DimensionError, DivergenceError, RankLossError
from nrigid import integrate
from nrigid.integrate import (
    _AUDIT_BLOCK,
    IntegratorConfig,
    Trajectory,
    _cayley,
    _run,
    integrate_euler,
    integrate_euler_poisson,
    integrate_symrep,
)
from nrigid.lift import solve_lift
from nrigid.matcore import expm, polar_project, random_rotation, random_skew, rotation_defect
from nrigid.symrep import (
    FULL_RANK_TOL,
    min_singular_value,
    optimal_control,
    phase_point,
    symrep_rhs,
)


def final_state(kind, *args):
    integrator = {
        "euler": integrate_euler,
        "symrep": integrate_symrep,
        "euler-poisson": integrate_euler_poisson,
    }[kind]
    return integrator(*args).states[-1]


# a body strong enough that discretization error sits well above roundoff
ORDER_SPEC = standard_spec()
ORDER_PI0 = 1.8 / np.linalg.norm([0.5, 0.6, 0.7]) * hat([0.5, 0.6, 0.7])


def order_ratio(kind, scheme, steps):
    spec = ORDER_SPEC
    pi0 = ORDER_PI0
    if kind == "euler":
        args = lambda cfg: (spec, pi0, cfg)
    elif kind == "symrep":
        z0 = solve_lift(np.eye(3), pi0)
        args = lambda cfg: (spec, z0, cfg)
    else:
        y0 = np.vstack([np.eye(3), pi0])
        args = lambda cfg: (spec, y0, cfg)
    finals = [
        final_state(kind, *args(IntegratorConfig(scheme, h, 1.0))) for h in steps
    ]
    d1 = np.linalg.norm(finals[0] - finals[1])
    d2 = np.linalg.norm(finals[1] - finals[2])
    return d1 / d2


class TestConfig:
    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            IntegratorConfig("rk5", 0.1, 1.0)

    def test_step_exceeds_horizon(self):
        with pytest.raises(ValueError):
            IntegratorConfig("rk4", 2.0, 1.0)

    def test_non_multiple_horizon(self):
        cfg = IntegratorConfig("rk4", 0.3, 1.0)
        with pytest.raises(ValueError):
            cfg.step_count()

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory("euler", np.array([0.0, 1.0]), [np.eye(3)], {})


class TestEuler:
    def test_relative_equilibrium_constant(self):
        traj = integrate_euler(
            standard_spec(), hat([0.7, 0.0, 0.0]), IntegratorConfig("rk4", 1e-2, 1.0)
        )
        drift = max(np.linalg.norm(s - traj.states[0]) for s in traj.states)
        assert drift <= 1e-12

    def test_spherical_body_constant(self):
        spec = InertiaSpec([1.0, 1.0, 1.0])
        traj = integrate_euler(spec, standard_pi0(), IntegratorConfig("rk4", 1e-2, 1.0))
        drift = max(np.linalg.norm(s - traj.states[0]) for s in traj.states)
        assert drift <= 1e-12

    def test_energy_and_casimir_drift(self):
        traj = integrate_euler(
            standard_spec(), standard_pi0(), IntegratorConfig("rk4", 1e-3, 10.0)
        )
        h = traj.audits["hamiltonian"]
        assert np.max(np.abs(h - h[0])) <= 1e-8
        spectra = traj.audits["casimir_spectrum"]
        assert np.max(np.abs(spectra - spectra[0])) <= 1e-8

    def test_divergence_reported_with_step_index(self):
        # the attitude factor blows up doubly exponentially at huge steps
        spec = standard_spec()
        y0 = np.vstack([np.eye(3), 10.0 * standard_pi0()])
        with pytest.raises(DivergenceError) as err:
            integrate_euler_poisson(spec, y0, IntegratorConfig("rk4", 5.0, 500.0))
        assert err.value.step_index >= 1


class TestSymrep:
    def test_stationary_when_blocks_equal(self):
        spec = standard_spec()
        z0 = phase_point(np.eye(3), np.eye(3))
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 1e-2, 1.0))
        assert max(np.linalg.norm(z - z0) for z in traj.states) == 0.0

    def test_spherical_closed_form(self):
        # identity inertia conserves the orthogonal momentum, so the flow
        # is a fixed right translation by exp(t om0)
        spec = InertiaSpec([1.0, 1.0, 1.0])
        z0 = random_phase(3, np.random.default_rng(0))
        om0 = optimal_control(spec, z0)
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 1e-3, 1.0))
        np.testing.assert_allclose(
            traj.states[-1], z0 @ expm(om0), atol=1e-9
        )

    def test_rkmk4_orthogonality_1e4_steps(self):
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(
            standard_spec(), z0, IntegratorConfig("rkmk4", 1e-3, 10.0)
        )
        assert np.max(traj.audits["orthogonality_defect"]) <= 1e-12

    def test_rank_loss_detected_at_start(self):
        z0 = np.zeros((6, 3))
        z0[:3] = np.eye(3)
        z0[5, 2] = 1.0
        z0[2, 2] = 0.0  # rank-deficient top block, column 2 duplicated
        z0[5, 2] = 0.0
        with pytest.raises(RankLossError) as err:
            integrate_symrep(standard_spec(), z0, IntegratorConfig("rk4", 1e-2, 1.0))
        assert err.value.step_index == 0
        assert err.value.min_singular_value < FULL_RANK_TOL

    def test_noether_drift(self):
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(
            standard_spec(), z0, IntegratorConfig("rk4", 1e-3, 10.0)
        )
        assert np.max(traj.audits["j_drift"]) <= 1e-8
        h = traj.audits["hamiltonian"]
        assert np.max(np.abs(h - h[0])) <= 1e-8


class TestEulerPoisson:
    @pytest.mark.parametrize("shape", [(3, 3), (6, 4), (7, 4), (8, 4), (2, 6, 3), (18,)])
    def test_stack_shape_checked(self, shape):
        # (8, 4) is a 4-body [Q; pi] against the 3-body spec; the rows
        # below row 3 of a (7, 4) stack are a square, skew block
        y0 = np.zeros(shape)
        with pytest.raises(DimensionError):
            integrate_euler_poisson(standard_spec(), y0, IntegratorConfig("rk4", 1e-2, 1.0))

    @pytest.mark.parametrize("project_attitude", [False, True])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    def test_restarts_from_any_state(self, scheme, project_attitude):
        # a state of one run is the initial stack of its continuation
        spec, h = standard_spec(), 0.01
        y0 = np.vstack([expm(hat([0.1, -0.2, 0.3])), 1.8 * standard_pi0()])
        traj = integrate_euler_poisson(spec, y0, IntegratorConfig(scheme, h, 1.0, project_attitude))
        for k in (1, 37, 99):
            cfg = IntegratorConfig(scheme, h, (100 - k) * h, project_attitude)
            rest = integrate_euler_poisson(spec, traj.states[k], cfg)
            np.testing.assert_array_equal(rest.states, traj.states[k:])

    def test_zero_momentum_freezes_attitude(self):
        spec = standard_spec()
        q0 = expm(hat([0.1, 0.2, 0.3]))
        traj = integrate_euler_poisson(spec, np.vstack([q0, np.zeros((3, 3))]),
                                       IntegratorConfig("rk4", 1e-2, 1.0))
        assert max(np.linalg.norm(y[:3] - q0) for y in traj.states) == 0.0

    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    def test_momentum_matches_standalone_euler(self, scheme):
        spec = standard_spec()
        cfg = IntegratorConfig(scheme, 1e-2, 1.0)
        both = integrate_euler_poisson(spec, np.vstack([np.eye(3), standard_pi0()]), cfg)
        alone = integrate_euler(spec, standard_pi0(), cfg)
        worst = max(
            np.linalg.norm(y[3:] - pi) for y, pi in zip(both.states, alone.states)
        )
        assert worst <= 1e-12

    def test_attitude_defect_rk4(self):
        traj = integrate_euler_poisson(
            standard_spec(),
            np.vstack([np.eye(3), standard_pi0()]),
            IntegratorConfig("rk4", 1e-3, 10.0),
        )
        assert np.max(traj.audits["orthogonality_defect"]) <= 1e-8

    def test_attitude_defect_rkmk4(self):
        traj = integrate_euler_poisson(
            standard_spec(),
            np.vstack([np.eye(3), standard_pi0()]),
            IntegratorConfig("rkmk4", 1e-3, 10.0),
        )
        assert np.max(traj.audits["orthogonality_defect"]) <= 1e-12

    def test_momentum_must_be_skew(self):
        # integrate_euler rejects the same momentum
        pi0 = hat([0.5, 0.6, 0.7]) + 0.3 * np.eye(3)
        cfg = IntegratorConfig("rk4", 1e-2, 1.0)
        with pytest.raises(ValueError, match="not skew-symmetric"):
            integrate_euler_poisson(standard_spec(), np.vstack([np.eye(3), pi0]), cfg)
        with pytest.raises(ValueError, match="not skew-symmetric"):
            integrate_euler(standard_spec(), pi0, cfg)

    def test_projection_repairs_attitude(self):
        traj = integrate_euler_poisson(
            standard_spec(),
            np.vstack([np.eye(3), 1.8 * standard_pi0()]),
            IntegratorConfig("rk4", 1e-2, 10.0, project_attitude=True),
        )
        assert np.max(traj.audits["orthogonality_defect"]) <= 1e-13


class TestOrders:
    @pytest.mark.parametrize("kind", ["euler", "symrep", "euler-poisson"])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4"])
    def test_fourth_order(self, kind, scheme):
        assert order_ratio(kind, scheme, [0.1, 0.05, 0.025]) >= 12.0

    @pytest.mark.parametrize("kind", ["euler", "symrep", "euler-poisson"])
    def test_midpoint_second_order(self, kind):
        assert order_ratio(kind, "midpoint", [0.05, 0.025, 0.0125]) >= 3.5

    def test_rk4_and_rkmk4_agree(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        a = integrate_symrep(spec, z0, IntegratorConfig("rk4", 1e-3, 1.0)).states[-1]
        b = integrate_symrep(spec, z0, IntegratorConfig("rkmk4", 1e-3, 1.0)).states[-1]
        assert np.linalg.norm(a - b) <= 1e-8


class TestMidpoint:
    def test_conserves_momentum_blocks(self):
        cfg = IntegratorConfig("midpoint", 1e-2, 10.0)
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(standard_spec(), z0, cfg)
        bound = 10.0 * cfg.midpoint_tol * (len(traj) - 1)
        assert np.max(traj.audits["j_drift"]) <= bound

    def test_nonconvergent_iteration_raises(self):
        from nrigid.errors import ConvergenceError

        cfg = IntegratorConfig("midpoint", 0.5, 1.0, midpoint_max_iter=2)
        with pytest.raises(ConvergenceError):
            integrate_euler(ORDER_SPEC, ORDER_PI0, cfg)


def rk4_step(field, y, h):
    # the classical scheme, written out as the integrators evaluate it
    k1 = field(y)
    k2 = field(y + (0.5 * h) * k1)
    k3 = field(y + (0.5 * h) * k2)
    k4 = field(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestPublicFields:
    """The integrators step the package's own vector fields, bit for bit."""

    H = 0.01

    def test_euler_steps_euler_rhs(self):
        spec, pi0 = standard_spec(), standard_pi0()
        traj = integrate_euler(spec, pi0, IntegratorConfig("rk4", self.H, 2 * self.H))
        y = pi0
        for i in (1, 2):
            y = rk4_step(lambda pi: euler_rhs(spec, pi), y, self.H)
            np.testing.assert_array_equal(traj.states[i], y)

    def test_symrep_steps_symrep_rhs(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", self.H, 2 * self.H))
        y = z0
        for i in (1, 2):
            y = rk4_step(lambda z: symrep_rhs(spec, z), y, self.H)
            np.testing.assert_array_equal(traj.states[i], y)

    def test_euler_poisson_steps_euler_poisson_rhs(self):
        spec = standard_spec()
        y0 = np.vstack([expm(hat([0.1, -0.2, 0.3])), standard_pi0()])
        traj = integrate_euler_poisson(spec, y0, IntegratorConfig("rk4", self.H, 2 * self.H))
        y = y0
        for i in (1, 2):
            y = rk4_step(lambda y: euler_poisson_rhs(spec, y), y, self.H)
            np.testing.assert_array_equal(traj.states[i], y)

    @pytest.mark.parametrize("n", [3, 16])
    def test_euler_poisson_field_is_the_stacked_pair(self, n):
        # the field is one product [Q; pi] om less om pi; it gives the bits
        # of the two blocks written out separately
        rng = np.random.default_rng(n)
        spec = InertiaSpec(rng.uniform(0.5, 2.0, n))
        y0 = np.vstack([random_rotation(n, rng), scaled_skew(n, rng, 1.5)])

        def field(y):
            q, pi = y[:n], y[n:]
            om = inertia_inverse(spec, pi)
            return np.vstack([q @ om, pi @ om - om @ pi])

        traj = integrate_euler_poisson(spec, y0, IntegratorConfig("rk4", self.H, 50 * self.H))
        y = y0
        for state in traj.states[1:]:
            y = rk4_step(field, y, self.H)
            np.testing.assert_array_equal(state, y)

    def test_rkmk4_momentum_block_matches_euler(self):
        # rk4 is checked in test_stacked; midpoint agrees only to its
        # tolerance, because its stopping test also sees the attitude
        spec, pi0 = standard_spec(), standard_pi0()
        cfg = IntegratorConfig("rkmk4", 0.01, 0.5)
        coupled = integrate_euler_poisson(spec, np.vstack([np.eye(3), pi0]), cfg)
        alone = integrate_euler(spec, pi0, cfg)
        np.testing.assert_array_equal(coupled.states[:, 3:], alone.states)


class TestNonFiniteInitialState:
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_symrep_phase_point(self, scheme, bad):
        z0 = solve_lift(np.eye(3), standard_pi0())
        z0[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            integrate_symrep(standard_spec(), z0, IntegratorConfig(scheme, 0.01, 0.1))

    def test_euler_momentum(self):
        pi0 = standard_pi0()
        pi0[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            integrate_euler(standard_spec(), pi0, IntegratorConfig("rk4", 0.01, 0.1))

    @pytest.mark.parametrize("project_attitude", [False, True])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_euler_poisson_attitude(self, scheme, bad, project_attitude):
        y0 = np.vstack([np.eye(3), standard_pi0()])
        y0[1, 2] = bad
        cfg = IntegratorConfig(scheme, 0.01, 0.1, project_attitude=project_attitude)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_euler_poisson(standard_spec(), y0, cfg)

    def test_euler_poisson_momentum(self):
        y0 = np.vstack([np.eye(3), standard_pi0()])
        y0[4, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            integrate_euler_poisson(standard_spec(), y0, IntegratorConfig("rk4", 0.01, 0.1))


class TestProjectionNeedsRotationBlocks:
    @staticmethod
    def spec(n):
        return InertiaSpec(np.linspace(1.0, 2.0, n))

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    def test_bound_free_point_rejected(self, n, scheme):
        # [I; pi0/2] has momentum value pi0 but no rotation P block; for
        # odd n the block is singular
        pi0 = scaled_skew(n, np.random.default_rng(n), 1.0)
        z0 = phase_point(np.eye(n), 0.5 * pi0)
        cfg = IntegratorConfig(scheme, 0.01, 0.1, project_attitude=True)
        with pytest.raises(ValueError, match="P block of z0: matrix is not a rotation"):
            integrate_symrep(self.spec(n), z0, cfg)
        # without projection the same point is a valid start
        integrate_symrep(self.spec(n), z0, IntegratorConfig(scheme, 0.01, 0.1))

    def test_q_block_named(self):
        z0 = phase_point(2.0 * np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match="Q block of z0"):
            integrate_symrep(standard_spec(), z0,
                             IntegratorConfig("rk4", 0.01, 0.1, project_attitude=True))

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    def test_lift_points_still_integrate(self, n, scheme):
        rng = np.random.default_rng(10 + n)
        pi0 = scaled_skew(n, rng, 1.5)
        z0 = solve_lift(random_rotation(n, rng), pi0)
        cfg = IntegratorConfig(scheme, 0.01, 0.5, project_attitude=True)
        traj = integrate_symrep(self.spec(n), z0, cfg)
        assert np.max(traj.audits["orthogonality_defect"]) <= 1e-13
        assert np.linalg.norm(traj.audits["on_momentum"][0] - pi0) <= 1e-10

    def test_euler_poisson_attitude_named(self):
        y0 = np.vstack([2.0 * np.eye(3), standard_pi0()])
        with pytest.raises(ValueError, match="attitude block of y0: matrix is not a rotation"):
            integrate_euler_poisson(standard_spec(), y0,
                                    IntegratorConfig("rk4", 0.01, 0.1, project_attitude=True))


class TestProjectedSteps:
    """With ``project_attitude`` every step is the unprojected step followed
    by the public `polar_project` of each rotation block."""

    H = 0.05

    @staticmethod
    def integrate(kind, spec, y, cfg):
        integrator = integrate_symrep if kind == "symrep" else integrate_euler_poisson
        return integrator(spec, y, cfg)

    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    @pytest.mark.parametrize("kind, blocks", [("symrep", 2), ("euler-poisson", 1)])
    def test_matches_polar_project_of_each_step(self, kind, blocks, scheme):
        spec, pi0, n = standard_spec(), 1.8 * standard_pi0(), 3
        y0 = solve_lift(np.eye(n), pi0) if kind == "symrep" else np.vstack([np.eye(n), pi0])
        cfg = IntegratorConfig(scheme, self.H, 10 * self.H, project_attitude=True)
        traj = self.integrate(kind, spec, y0, cfg)
        moved = False
        for y, y_next in zip(traj.states[:-1], traj.states[1:]):
            step = self.integrate(kind, spec, y, IntegratorConfig(scheme, self.H, self.H))
            expected = step.states[1].copy()
            for k in range(0, blocks * n, n):
                expected[k:k + n] = polar_project(expected[k:k + n])
            np.testing.assert_array_equal(y_next, expected)
            moved = moved or not np.array_equal(expected, step.states[1])
        assert moved


def rkmk4_step(velocity, act, y, h):
    # the Munthe-Kaas scheme in the Cayley chart, written out from public
    # pieces; every argument a is half the chart variable theta
    def cay(a):
        return (np.eye(len(a)) + a) @ np.linalg.inv(np.eye(len(a)) - a)

    def stage(a):
        return (np.eye(len(a)) + a) @ velocity(act(cay(a), y)) @ (np.eye(len(a)) - a)

    k1 = velocity(y)
    k2 = stage((0.25 * h) * k1)
    k3 = stage((0.25 * h) * k2)
    k4 = stage((0.5 * h) * k3)
    return act(cay((h / 12.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)), y)


class TestKernelsAgainstPublicFunctions:
    """The step loop's unchecked kernels give the public functions' bits."""

    H = 0.01

    def test_rkmk4_symrep(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(spec, z0, IntegratorConfig("rkmk4", self.H, 2 * self.H))
        y = z0
        for i in (1, 2):
            y = rkmk4_step(lambda z: optimal_control(spec, z), lambda g, z: z @ g, y, self.H)
            np.testing.assert_array_equal(traj.states[i], y)

    def test_rkmk4_euler(self):
        spec, pi0 = standard_spec(), standard_pi0()
        traj = integrate_euler(spec, pi0, IntegratorConfig("rkmk4", self.H, 2 * self.H))
        y = pi0
        for i in (1, 2):
            y = rkmk4_step(lambda pi: inertia_inverse(spec, pi), lambda g, pi: g.T @ pi @ g,
                           y, self.H)
            np.testing.assert_array_equal(traj.states[i], y)

    def test_midpoint_symrep(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        cfg = IntegratorConfig("midpoint", self.H, self.H)
        traj = integrate_symrep(spec, z0, cfg)
        m = z0 + (0.5 * self.H) * symrep_rhs(spec, z0)
        for _ in range(cfg.midpoint_max_iter):
            m_next = z0 + (0.5 * self.H) * symrep_rhs(spec, m)
            delta = float(np.linalg.norm(m_next - m))
            m = m_next
            if delta <= cfg.midpoint_tol:
                break
        np.testing.assert_array_equal(traj.states[1], 2.0 * m - z0)

    def test_rkmk4_overflow_is_divergence(self):
        # the unchecked chart turns a non-finite stage into a non-finite
        # state, reported with its step
        z0 = 1e160 * solve_lift(np.eye(3), standard_pi0())
        with pytest.raises(DivergenceError) as err:
            integrate_symrep(standard_spec(), z0, IntegratorConfig("rkmk4", 0.01, 0.1))
        assert err.value.step_index == 1


class TestCayleyChart:
    """The chart of the rkmk4 step: its pull-back inverts the tangent exactly."""

    DT = 1e-5

    @pytest.mark.parametrize("n", [3, 5, 16])
    def test_inverse_tangent_is_exact(self, n):
        # cay(theta)^-1 d/dt cay(theta + t theta') at t = 0 is omega, for the
        # chart velocity theta' that omega pulls back to
        rng = np.random.default_rng(n)
        for _ in range(5):
            theta, omega = random_skew(n, rng), random_skew(n, rng)
            g, pull_back = _cayley(0.5 * theta)
            tangent = pull_back(omega)
            plus, _ = _cayley(0.5 * (theta + self.DT * tangent))
            minus, _ = _cayley(0.5 * (theta - self.DT * tangent))
            got = np.linalg.inv(g) @ (plus - minus) / (2.0 * self.DT)
            assert np.abs(got - omega).max() <= 1e-8

    @pytest.mark.parametrize("n", [3, 5, 16])
    def test_group_element_is_a_rotation(self, n):
        rng = np.random.default_rng(10 + n)
        for scale in (1e-3, 1.0, 30.0):
            theta = scale * random_skew(n, rng)
            g, _ = _cayley(0.5 * theta)
            assert rotation_defect(g) <= 1e-14 * n


class TestBlockedRankCheck:
    """The rank margin is audited after the run, over the blocks of the
    audit pass; the error names what a check of every state in turn would
    name.  A field that shrinks the phase point stands in for the symmetric
    representation's."""

    STEPS = 2 * _AUDIT_BLOCK + 40  # two full blocks and a partial one

    @staticmethod
    def start():
        return random_phase(3, np.random.default_rng(7))

    @classmethod
    def rate_losing_rank_at(cls, k):
        # z' = -c z shrinks every singular value by about exp(-c) per unit
        # step, so the smallest one crosses FULL_RANK_TOL between steps
        # k - 1 and k
        s0 = np.linalg.svd(cls.start(), compute_uv=False)[-1]
        return np.log(s0 / FULL_RANK_TOL) / (k - 0.5)

    def cfg(self, scheme):
        return IntegratorConfig(scheme, 1.0, float(self.STEPS))

    def steps(self, field, scheme="rk4"):
        # the run alone, which checks no rank
        return _run(None, self.start(), self.cfg(scheme), field, field, None)

    def run_symrep(self, monkeypatch, field, scheme="rk4"):
        monkeypatch.setattr(integrate, "_symrep_rhs", field)
        return integrate_symrep(standard_spec(), self.start(), self.cfg(scheme))

    @staticmethod
    def first_loss(states):
        smin = [float(np.linalg.svd(z, compute_uv=False)[-1]) for z in states]
        i = next(i for i, s in enumerate(smin) if s < FULL_RANK_TOL)
        return i, smin[i]

    @pytest.mark.parametrize("where, k", [
        ("inside the first block", _AUDIT_BLOCK // 2),
        ("last state of a block", _AUDIT_BLOCK - 1),
        ("first state of a block", _AUDIT_BLOCK),
        ("final partial block", 2 * _AUDIT_BLOCK + 20),
    ])
    def test_matches_per_state_loop(self, monkeypatch, where, k):
        rate = self.rate_losing_rank_at(k)
        field = lambda spec, z: -rate * z
        _, states, _, failure = self.steps(field)
        assert failure is None
        step, smin = self.first_loss(states)
        assert step == k, where
        with pytest.raises(RankLossError, match=f"at step {k} ") as err:
            self.run_symrep(monkeypatch, field)
        assert err.value.step_index == step
        assert err.value.min_singular_value == smin
        assert str(err.value) == (f"phase point left the full-rank set at step {k} "
                                  f"(min singular value {smin:.3g})")

    @pytest.mark.parametrize("scheme, later", [("rk4", DivergenceError),
                                               ("midpoint", ConvergenceError)])
    def test_earlier_rank_loss_wins(self, monkeypatch, scheme, later):
        k = 40
        rate = self.rate_losing_rank_at(k)
        _, states, _, _ = self.steps(lambda spec, z: -rate * z, scheme=scheme)
        step, smin = self.first_loss(states)
        # the field turns non-finite about ten steps after the rank loss
        floor = np.linalg.norm(states[k + 10])

        def field(spec, z):
            return -rate * z if np.linalg.norm(z) > floor else np.full_like(z, np.inf)

        _, prefix, _, failure = self.steps(field, scheme=scheme)
        assert isinstance(failure, later)
        assert step < len(prefix) < self.STEPS
        if later is DivergenceError:
            assert failure.step_index == len(prefix)
        with pytest.raises(RankLossError) as err:
            self.run_symrep(monkeypatch, field, scheme=scheme)
        assert err.value.step_index == step
        assert err.value.min_singular_value == smin

    def test_full_rank_run_checks_every_state(self, monkeypatch):
        traj = self.run_symrep(monkeypatch, lambda spec, z: -0.01 * z)
        assert len(traj.states) == self.STEPS + 1
        np.testing.assert_array_equal(
            traj.audits["rank_margin"], [min_singular_value(z) for z in traj.states]
        )
