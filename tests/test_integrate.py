import re

import numpy as np
import pytest

from helpers import (
    field_kernels,
    fields_reference,
    midpoint_step_reference,
    random_phase,
    rk4_step_reference,
    rkmk4_step_reference,
    scaled_skew,
    standard_pi0,
    standard_spec,
)
from nrigid.body import (
    InertiaSpec,
    _attitude_momentum_kernels,
    _euler_kernels,
    euler_poisson_rhs,
    euler_rhs,
    hat,
    inertia_inverse,
)
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
    _symrep_kernels,
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
        with pytest.raises(ValueError,
                           match="^t_final 1.0 is not an integer multiple of step 0.3$"):
            IntegratorConfig("rk4", 0.3, 1.0)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory("euler", np.array([0.0, 1.0]), [np.eye(3)], {})

    @pytest.mark.parametrize("field, value, message", [
        ("step", 0.0, "step must be positive and finite"),
        ("step", np.inf, "step must be positive and finite"),
        ("t_final", -1.0, "t_final must be positive and finite"),
        ("t_final", np.nan, "t_final must be positive and finite"),
        # This one projected a truthy string.
        ("project_attitude", "false", "project_attitude must be a bool, got 'false'"),
    ])
    def test_fields_checked(self, field, value, message):
        fields = {"scheme": "midpoint", "step": 0.1, "t_final": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            IntegratorConfig(**fields)

    @pytest.mark.parametrize("field, value", [
        # True once made a step of 1: IntegratorConfig("rk4", True, 2.0).steps was 2.
        ("step", True), ("t_final", True), ("step", np.True_), ("t_final", False),
        ("step", "0.1"), ("t_final", 1.0 + 0.0j), ("step", None), ("t_final", np.array(1.0)),
    ])
    def test_non_real_step_and_horizon_rejected(self, field, value):
        fields = {"scheme": "rk4", "step": 1.0, "t_final": 2.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
            IntegratorConfig(**fields)

    @pytest.mark.parametrize("step, t_final", [
        (np.float64(0.5), np.float64(2.0)), (np.float32(0.5), np.int64(2)), (1, 3),
    ])
    def test_numpy_and_integer_scalars_accepted(self, step, t_final):
        # Each is stored as a float: a float32 step once gave float32 stage
        # coefficients, and a run 2.2e-8 away from that of the same step as a float.
        cfg = IntegratorConfig("rk4", step, t_final)
        assert type(cfg.step) is float and type(cfg.t_final) is float
        assert cfg.steps == round(t_final / step)
        plain = IntegratorConfig("rk4", float(step), float(t_final))
        np.testing.assert_array_equal(integrate_euler(ORDER_SPEC, ORDER_PI0, cfg).states,
                                      integrate_euler(ORDER_SPEC, ORDER_PI0, plain).states)

    @pytest.mark.parametrize("times, audits, message", [
        ([0.0, 0.0, 1.0], {}, "times must be strictly increasing"),
        ([0.0, 2.0, 1.0], {}, "times must be strictly increasing"),
        ([0.0, 0.5, 1.0], {"hamiltonian": np.zeros(2)},
         "audit channel 'hamiltonian' has inconsistent length"),
        # np.diff(times) <= 0 is False at a NaN, which once let these pass.
        ([0.0, 0.5, np.nan], {}, "times must be finite"),
        ([np.nan, 0.5, 1.0], {}, "times must be finite"),
        ([0.0, 0.5, np.inf], {}, "times must be finite"),
    ])
    def test_trajectory_checked(self, times, audits, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Trajectory("euler", np.array(times), np.zeros((3, 3, 3)), audits)

    @pytest.mark.parametrize("integrate, shape, message", [
        (integrate_euler, (4, 4), r"momentum has shape \(4, 4\), expected \(3, 3\)"),
        (integrate_euler, (2, 2), r"momentum has shape \(2, 2\), expected \(3, 3\)"),
        (integrate_symrep, (6, 4), r"phase point has shape \(6, 4\), expected \(6, 3\)"),
        (integrate_symrep, (3, 3), r"phase point has shape \(3, 3\), expected \(6, 3\)"),
    ], ids=["euler-4x4", "euler-2x2", "symrep-6x4", "symrep-3x3"])
    def test_start_shape_checked(self, integrate, shape, message):
        with pytest.raises(DimensionError, match=message):
            integrate(standard_spec(), np.zeros(shape), IntegratorConfig("rk4", 0.1, 1.0))


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

    @pytest.mark.parametrize("kind, project_attitude, message, step", [
        ("euler", False, "non-finite state at step 10", 10),
        ("euler-poisson", False, "non-finite state at step 10", 10),
        ("euler-poisson", True, "projection failed at step 2: negative determinant", 2),
    ], ids=["euler", "euler-poisson", "euler-poisson-projected"])
    def test_rkmk4_overflowing_stage_is_divergence(self, kind, project_attitude, message, step):
        # a stage argument overflows at step 10, so I - a is no longer
        # invertible: the chart gives NaN, and the run ends in a divergence
        # named with its step, not in a singular-matrix error.  Projected,
        # the attitude of step 2 already has no nearby rotation: the same
        # divergence, seen eight steps earlier.
        pi0 = hat([500.0, 600.0, 700.0])
        y0 = pi0 if kind == "euler" else np.vstack([np.eye(3), pi0])
        cfg = IntegratorConfig("rkmk4", 2.0, 400.0, project_attitude=project_attitude)
        with pytest.raises(DivergenceError, match=message) as err:
            final_state(kind, standard_spec(), y0, cfg)
        assert err.value.step_index == step

    def test_rk4_projected_overflow_states_relative_test(self):
        # rk4 from the same start overflows its attitude at step 1 into a
        # relatively singular matrix whose smallest singular value is still
        # large; the message gives the largest too, so it reads as the test.
        pi0 = hat([500.0, 600.0, 700.0])
        cfg = IntegratorConfig("rk4", 2.0, 400.0, project_attitude=True)
        with pytest.raises(DivergenceError) as err:
            integrate_euler_poisson(standard_spec(), np.vstack([np.eye(3), pi0]), cfg)
        assert err.value.step_index == 1
        found = re.fullmatch(r"projection failed at step 1: singular input: smallest singular "
                             r"value (\S+) <= 1e-14 \* max\(1, largest (\S+)\)", str(err.value))
        assert found, str(err.value)
        smin, smax = map(float, found.groups())
        assert 1.0 < smin <= 1e-14 * smax


class TestOverflowingAudit:
    """Finite states whose audits overflow end the run in DivergenceError,
    naming the channel and its first non-finite state."""

    # the states stay finite (momentum entries up to about 2.6e218) while the energy overflows
    PI0 = (-114.76, 12.62, 88.59)
    CFG = IntegratorConfig("rk4", 0.25, 1.0)

    @pytest.mark.parametrize("kind", ["euler", "euler-poisson"])
    def test_config_raises_divergence(self, kind):
        pi0 = hat(self.PI0)
        y0 = pi0 if kind == "euler" else np.vstack([np.eye(3), pi0])
        with pytest.raises(DivergenceError, match="^audit hamiltonian is not finite at step 4$") as err:
            final_state(kind, standard_spec(), y0, self.CFG)
        assert err.value.step_index == 4

    @pytest.mark.parametrize("where, first", [
        ("first block", 5),
        ("last state of a block", _AUDIT_BLOCK - 1),
        ("later block", _AUDIT_BLOCK + 3),
    ])
    def test_names_earliest_state_then_first_channel(self, where, first):
        states = np.arange(2 * _AUDIT_BLOCK + 10, dtype=float)

        def overflow_from(i):
            return lambda b: np.where(b >= i, np.inf, b)

        channels = {
            "late": overflow_from(first + 1),
            "rows": lambda b: np.stack([b, overflow_from(first)(b)], axis=1),
            "tied": lambda b: np.where(b >= first, np.nan, b),
        }
        with pytest.raises(DivergenceError, match=f"^audit rows is not finite at step {first}$") as err:
            integrate._audit(states, channels)
        assert err.value.step_index == first, where


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
        bound = 10.0 * integrate._MIDPOINT_TOL * (len(traj) - 1)
        assert np.max(traj.audits["j_drift"]) <= bound

    def test_nonconvergent_iteration_raises(self, monkeypatch):
        # The failure names its step, and its tag is not that of an
        # exhausted Gauss-Newton budget.
        monkeypatch.setattr(integrate, "_MIDPOINT_MAX_ITER", 2)
        cfg = IntegratorConfig("midpoint", 0.5, 1.0)
        with pytest.raises(ConvergenceError) as err:
            integrate_euler(ORDER_SPEC, ORDER_PI0, cfg)
        assert str(err.value) == ("implicit midpoint fixed point did not reach 1e-13 "
                                  "in 2 iterations at step 1")
        assert err.value.step_index == 1
        assert err.value.reason == "fixed_point"
        assert err.value.best is None


class TestPublicFields:
    """The integrators step the package's own vector fields, bit for bit."""

    H = 0.01

    def test_euler_steps_euler_rhs(self):
        spec, pi0 = standard_spec(), standard_pi0()
        traj = integrate_euler(spec, pi0, IntegratorConfig("rk4", self.H, 2 * self.H))
        y = pi0
        for i in (1, 2):
            y = rk4_step_reference(lambda pi: euler_rhs(spec, pi), y, self.H)
            np.testing.assert_array_equal(traj.states[i], y)

    def test_symrep_steps_symrep_rhs(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", self.H, 2 * self.H))
        y = z0
        for i in (1, 2):
            y = rk4_step_reference(lambda z: symrep_rhs(spec, z), y, self.H)
            np.testing.assert_array_equal(traj.states[i], y)

    def test_euler_poisson_steps_euler_poisson_rhs(self):
        spec = standard_spec()
        y0 = np.vstack([expm(hat([0.1, -0.2, 0.3])), standard_pi0()])
        traj = integrate_euler_poisson(spec, y0, IntegratorConfig("rk4", self.H, 2 * self.H))
        y = y0
        for i in (1, 2):
            y = rk4_step_reference(lambda y: euler_poisson_rhs(spec, y), y, self.H)
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
            y = rk4_step_reference(field, y, self.H)
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


class TestKernelsAgainstPublicFunctions:
    """The step loop's unchecked kernels give the public functions' bits."""

    H = 0.01

    def test_rkmk4_symrep(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(spec, z0, IntegratorConfig("rkmk4", self.H, 2 * self.H))
        y = z0
        for i in (1, 2):
            y = rkmk4_step_reference(lambda z: optimal_control(spec, z), lambda g, z: z @ g,
                                     y, self.H)
            np.testing.assert_array_equal(traj.states[i], y)

    def test_rkmk4_euler(self):
        spec, pi0 = standard_spec(), standard_pi0()
        traj = integrate_euler(spec, pi0, IntegratorConfig("rkmk4", self.H, 2 * self.H))
        y = pi0
        for i in (1, 2):
            y = rkmk4_step_reference(lambda pi: inertia_inverse(spec, pi),
                                     lambda g, pi: g.T @ pi @ g, y, self.H)
            np.testing.assert_array_equal(traj.states[i], y)

    def test_midpoint_symrep(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        cfg = IntegratorConfig("midpoint", self.H, self.H)
        traj = integrate_symrep(spec, z0, cfg)
        expected = midpoint_step_reference(lambda z: symrep_rhs(spec, z), z0, self.H,
                                           integrate._MIDPOINT_TOL, integrate._MIDPOINT_MAX_ITER)
        np.testing.assert_array_equal(traj.states[1], expected)

    def test_rkmk4_overflow_is_divergence(self):
        # the unchecked chart turns a non-finite stage into a non-finite
        # state, reported with its step
        z0 = 1e160 * solve_lift(np.eye(3), standard_pi0())
        with pytest.raises(DivergenceError) as err:
            integrate_symrep(standard_spec(), z0, IntegratorConfig("rkmk4", 0.01, 0.1))
        assert err.value.step_index == 1


class TestRunKernels:
    """The public fields are the kernels a run binds, bit for bit, and the
    kernels bound to ``np.matmul`` step a stack as those bound to
    ``np.ndarray.dot`` step each member."""

    FACTORIES = {"euler": _euler_kernels, "symrep": _symrep_kernels,
                 "euler-poisson": _attitude_momentum_kernels}

    @staticmethod
    def public(kind, spec):
        # The public field and body velocity of each kind of state.
        n = spec.n
        return {"euler": (lambda pi: euler_rhs(spec, pi), lambda pi: inertia_inverse(spec, pi)),
                "symrep": (lambda z: symrep_rhs(spec, z), lambda z: optimal_control(spec, z)),
                "euler-poisson": (lambda y: euler_poisson_rhs(spec, y),
                                  lambda y: inertia_inverse(spec, y[n:]))}[kind]

    @pytest.mark.parametrize("n", [3, 5, 16])
    @pytest.mark.parametrize("kind", ["euler", "symrep", "euler-poisson"])
    def test_public_fields_are_the_run_kernels(self, kind, n):
        rng = np.random.default_rng(n)
        spec = InertiaSpec(rng.uniform(0.5, 2.0, n))
        rows = n if kind == "euler" else 2 * n
        ys = rng.standard_normal((4, rows, n))
        if kind != "symrep":  # a skew momentum block, as the integrators require
            ys[:, -n:] -= ys[:, -n:].swapaxes(-1, -2)
        gs = np.stack([random_rotation(n, rng) for _ in ys])
        lone = self.FACTORIES[kind](spec, np.ndarray.dot)
        stacked = self.FACTORIES[kind](spec, np.matmul)
        _, _, act_reference = fields_reference(kind, spec)
        got = [stacked[0](ys), stacked[1](ys), stacked[2](ys, gs)]
        for k, (y, g) in enumerate(zip(ys, gs)):
            for public, kernel in zip(self.public(kind, spec), lone):
                np.testing.assert_array_equal(kernel(y), public(y))
            np.testing.assert_array_equal(lone[2](y, g), act_reference(g, y))
            np.testing.assert_array_equal(got[0][k], lone[0](y))
            np.testing.assert_array_equal(got[1][k], lone[1](y))
            np.testing.assert_array_equal(got[2][k], lone[2](y, g))


class TestReferenceSteps:
    """`_run`'s kernels give the bits of the textbook steps in `helpers`, on
    each kind of state, for lone states and for a batch, whose members are
    stepped one by one."""

    H, STEPS = 0.01, 8
    KERNELS = {
        "euler": _euler_kernels,
        "symrep": _symrep_kernels,
        "euler-poisson": _attitude_momentum_kernels,
    }

    def starts(self, kind, n):
        # Momenta of spectral norm 0.02, 0.5 and 1.5 take different numbers
        # of midpoint fixed-point iterations, so the batch re-indexes.
        rng = np.random.default_rng(n)
        out = []
        for norm in (0.02, 0.5, 1.5):
            pi0, q0 = scaled_skew(n, rng, norm), random_rotation(n, rng)
            out.append({"euler": pi0, "symrep": solve_lift(q0, pi0),
                        "euler-poisson": np.vstack([q0, pi0])}[kind])
        return np.stack(out)

    @pytest.mark.parametrize("n", [3, 4, 16])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    @pytest.mark.parametrize("kind", ["euler", "symrep", "euler-poisson"])
    def test_kernels_match_textbook_steps(self, kind, scheme, n):
        spec = InertiaSpec(np.linspace(0.5, 2.0, n))
        cfg = IntegratorConfig(scheme, self.H, self.STEPS * self.H)
        field, velocity, act = fields_reference(kind, spec)
        step = {"rk4": lambda y: rk4_step_reference(field, y, self.H),
                "rkmk4": lambda y: rkmk4_step_reference(velocity, act, y, self.H),
                "midpoint": lambda y: midpoint_step_reference(field, y, self.H)}[scheme]
        y0 = self.starts(kind, n)
        expected = []
        for y in y0:
            states = [y]
            for _ in range(self.STEPS):
                states.append(step(states[-1]))
            expected.append(np.stack(states))
        for b in range(len(y0)):
            _, states, _, failure = _run(spec, y0[b], cfg, self.KERNELS[kind])
            assert failure is None
            np.testing.assert_array_equal(states, expected[b])
        _, states, last, failure = _run(spec, y0, cfg, self.KERNELS[kind])
        assert failure is None
        np.testing.assert_array_equal(states, expected[0])
        for b in range(len(y0)):
            np.testing.assert_array_equal(last[b], expected[b][-1])


class TestCayleyChart:
    """The chart of the rkmk4 step: its pull-back inverts the tangent exactly."""

    DT = 1e-5

    @pytest.mark.parametrize("n", [3, 5, 16])
    def test_inverse_tangent_is_exact(self, n):
        # cay(theta)^-1 d/dt cay(theta + t theta') at t = 0 is omega, for the
        # chart velocity theta' that omega pulls back to
        rng = np.random.default_rng(n)
        chart = _cayley(n, np.ndarray.dot)
        for _ in range(5):
            theta, omega = random_skew(n, rng), random_skew(n, rng)
            g, p, m = chart(0.5 * theta)
            tangent = p @ omega @ m
            plus = chart(0.5 * (theta + self.DT * tangent))[0]
            minus = chart(0.5 * (theta - self.DT * tangent))[0]
            got = np.linalg.inv(g) @ (plus - minus) / (2.0 * self.DT)
            assert np.abs(got - omega).max() <= 1e-8

    @pytest.mark.parametrize("n", [3, 5, 16])
    def test_group_element_is_a_rotation(self, n):
        rng = np.random.default_rng(10 + n)
        chart = _cayley(n, np.ndarray.dot)
        for scale in (1e-3, 1.0, 30.0):
            theta = scale * random_skew(n, rng)
            g = chart(0.5 * theta)[0]
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
        return _run(None, self.start(), self.cfg(scheme), field_kernels(field))

    def run_symrep(self, monkeypatch, field, scheme="rk4"):
        monkeypatch.setattr(integrate, "_symrep_kernels", field_kernels(field))
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
        field = lambda z: -rate * z
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
        _, states, _, _ = self.steps(lambda z: -rate * z, scheme=scheme)
        step, smin = self.first_loss(states)
        # the field turns non-finite about ten steps after the rank loss
        floor = np.linalg.norm(states[k + 10])

        def field(z):
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
        traj = self.run_symrep(monkeypatch, lambda z: -0.01 * z)
        assert len(traj.states) == self.STEPS + 1
        np.testing.assert_array_equal(
            traj.audits["rank_margin"], [min_singular_value(z) for z in traj.states]
        )


class TestFinitenessTest:
    """`_run` tests a step for finiteness by ``d.dot(d) == 0`` with
    ``d = (y - y).ravel()``, where x - x is +0 for finite x and NaN for an
    infinity or NaN.  It must end a run where ``np.isfinite`` would, with the
    same message, and pass a huge finite entry.  The field puts one entry
    into the fourth stage of step K, which rk4 with h = 6 adds to the state
    unscaled."""

    K, STEPS = 3, 5
    CALLS = 4 * K

    def field(self, value, at):
        calls = [0]

        def rhs(y):
            calls[0] += 1
            out = np.zeros_like(y)
            if calls[0] == self.CALLS:
                out[at] = value
            return out

        return rhs

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e308])
    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_fails_where_isfinite_fails(self, value, lead):
        rng = np.random.default_rng(3)
        y0 = rng.uniform(-1.0, 1.0, lead + (6, 3))
        at = tuple(k - 1 for k in lead) + (4, 2)  # the last member of a batch
        cfg = IntegratorConfig("rk4", 6.0, 6.0 * self.STEPS)
        field = self.field(value, at)
        times, states, last, failure = _run(None, y0, cfg, field_kernels(field))
        if np.isfinite(value):
            assert failure is None
            assert len(states) == self.STEPS + 1 and last[at] == value
            return
        assert isinstance(failure, DivergenceError)
        assert str(failure) == f"non-finite state at step {self.K}"
        assert failure.step_index == self.K
        assert len(times) == len(states) == self.K
        assert np.isfinite(states).all() and np.isfinite(last).all()

    @pytest.mark.parametrize("shape", [(3, 3), (6, 3), (4, 6, 3), (32, 16)])
    def test_agrees_with_isfinite(self, shape):
        rng = np.random.default_rng(len(shape))
        for value in (np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 0.0):
            y = rng.uniform(-1.0, 1.0, shape)
            y.flat[rng.integers(y.size)] = value
            with np.errstate(invalid="ignore"):
                d = (y - y).ravel()
                finite = d.dot(d) == 0.0
            assert finite == np.isfinite(y).all(), value
