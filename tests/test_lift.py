import numpy as np
import pytest

from helpers import (
    field_kernels,
    rodrigues,
    scaled_skew,
    standard_pi0,
    standard_spec,
    verify_reduction_reference,
)
from nrigid import integrate, lift
from nrigid.body import InertiaSpec, hat
from nrigid.errors import (
    CertificationError,
    ConvergenceError,
    DimensionError,
    DivergenceError,
    OutOfRangeError,
    RankLossError,
)
from nrigid.integrate import IntegratorConfig, integrate_symrep
from nrigid.lift import mu0_of, solve_lift, verify_reduction
from nrigid.matcore import random_rotation, rotation_defect
from nrigid.moment import level_set_defect, on_momentum, sp_momentum
from nrigid.symrep import FULL_RANK_TOL, is_full_rank, phase_point

E3 = hat([0, 0, 1])


class TestSolveLift:
    def test_zero_momentum(self):
        q0 = random_rotation(4, 0)
        z0 = solve_lift(q0, np.zeros((4, 4)))
        np.testing.assert_allclose(z0[4:], q0, atol=1e-14)

    def test_e3_gives_sixth_turn(self):
        z0 = solve_lift(np.eye(3), E3)
        np.testing.assert_allclose(z0[3:], rodrigues([0, 0, 1], np.pi / 6), atol=1e-12)

    def test_certification_100(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            q0 = random_rotation(n, rng)
            pi0 = scaled_skew(n, rng, 1.9)
            z0 = solve_lift(q0, pi0)
            p0 = z0[n:]
            assert rotation_defect(p0) <= 1e-10
            assert np.linalg.norm(q0.T @ p0 - p0.T @ q0 - pi0) <= 1e-10
            assert is_full_rank(z0)

    def test_refusal_above_bound(self):
        pi0 = scaled_skew(3, np.random.default_rng(2), 2.1)
        with pytest.raises(OutOfRangeError, match="bound 2"):
            solve_lift(np.eye(3), pi0)

    def test_shape_mismatch_is_a_dimension_error(self):
        with pytest.raises(DimensionError, match="shapes differ"):
            solve_lift(np.eye(3), np.zeros((4, 4)))

    def test_non_rotation_attitude_rejected(self):
        with pytest.raises(ValueError):
            solve_lift(2.0 * np.eye(3), np.zeros((3, 3)))


class TestMu0:
    def test_identity_lift(self):
        z0 = solve_lift(np.eye(3), np.zeros((3, 3)))
        eye = np.eye(3)
        np.testing.assert_allclose(
            mu0_of(z0), np.block([[eye, eye], [-eye, -eye]]), atol=1e-14
        )

    def test_off_diagonal_blocks(self):
        rng = np.random.default_rng(3)
        z0 = solve_lift(random_rotation(4, rng), scaled_skew(4, rng, 1.5))
        mu = mu0_of(z0)
        np.testing.assert_allclose(mu[:4, 4:], np.eye(4), atol=1e-12)
        np.testing.assert_allclose(mu[4:, :4], -np.eye(4), atol=1e-12)

    def test_matches_momentum_map(self):
        rng = np.random.default_rng(4)
        z0 = solve_lift(random_rotation(3, rng), scaled_skew(3, rng, 1.0))
        np.testing.assert_allclose(mu0_of(z0), sp_momentum(z0), atol=1e-14)

    def test_non_lift_rejected(self):
        z = phase_point(np.eye(3), 2.0 * np.eye(3))
        with pytest.raises(CertificationError):
            mu0_of(z)


class TestVerifyReduction:
    def test_zero_momentum_exact(self):
        report = verify_reduction(
            standard_spec(),
            np.eye(3),
            np.zeros((3, 3)),
            IntegratorConfig("rk4", 1e-2, 1.0),
        )
        assert report["e_equiv"] == 0.0

    def test_standard_body(self):
        report = verify_reduction(
            standard_spec(), np.eye(3), standard_pi0(),
            IntegratorConfig("rk4", 1e-3, 10.0),
        )
        assert report["e_equiv"] <= 1e-6
        assert report["level_set_defect"] <= 1e-8
        assert report["energy_match"] <= 1e-6
        assert report["casimir_drift"] <= 1e-8

    def test_rkmk4_standard_body_at_roundoff(self):
        # the Lie-group scheme commutes with the reduction: e_equiv stays at
        # round-off over 10 000 steps (1.9e-14)
        report = verify_reduction(
            standard_spec(), np.eye(3), standard_pi0(),
            IntegratorConfig("rkmk4", 1e-3, 10.0),
        )
        assert report["e_equiv"] <= 1e-13

    def test_fourth_order_decay(self):
        # measured where discretization dominates the roundoff floor
        spec = standard_spec()
        pi0 = 1.7 * standard_pi0()
        e = {
            h: verify_reduction(spec, np.eye(3), pi0, IntegratorConfig("rk4", h, 10.0))[
                "e_equiv"
            ]
            for h in (0.05, 0.025)
        }
        assert e[0.05] / e[0.025] >= 12.0

    def test_momentum_derivative_matches_euler_rhs(self):
        from nrigid.body import euler_rhs

        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 1e-3, 2.0))
        ms = [on_momentum(z) for z in traj.states]
        h = traj.times[1] - traj.times[0]
        for k in range(1, len(ms) - 1, 97):
            fd = (ms[k + 1] - ms[k - 1]) / (2.0 * h)
            assert np.linalg.norm(fd - euler_rhs(spec, ms[k])) <= 1e-6

    def test_level_set_invariant_along_flow(self):
        spec = standard_spec()
        z0 = solve_lift(np.eye(3), standard_pi0())
        mu0 = mu0_of(z0)
        traj = integrate_symrep(spec, z0, IntegratorConfig("rk4", 1e-3, 10.0))
        assert max(level_set_defect(z, mu0) for z in traj.states) <= 1e-8


    def test_overflowing_audit_is_divergence(self, monkeypatch):
        # verify_reduction computes its channels as the integrators do, and
        # checks them the same way
        def overflowing(z, mu0):
            values = level_set_defect(z, mu0)
            values[7:] = np.inf
            return values

        monkeypatch.setattr(lift, "level_set_defect", overflowing)
        with pytest.raises(DivergenceError, match="^audit level_set_defect is not finite at step 7$"):
            verify_reduction(standard_spec(), np.eye(3), standard_pi0(),
                             IntegratorConfig("rk4", 1e-2, 1.0))


class TestVerifyReductionReference:
    """`verify_reduction` audits only the channels its keys read.  Its report
    and its errors are those of `helpers.verify_reduction_reference`, which
    integrates both pictures with every audit channel, bit for bit."""

    @staticmethod
    def case(n):
        rng = np.random.default_rng(n)
        spec = InertiaSpec(np.linspace(0.5, 2.0, n))
        return spec, random_rotation(n, rng), scaled_skew(n, rng, 1.2)

    @pytest.mark.parametrize("project_attitude", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("scheme", ["rk4", "rkmk4", "midpoint"])
    def test_report_is_the_reference(self, scheme, n, project_attitude):
        # 200 steps: one full audit block and a partial one
        spec, q0, pi0 = self.case(n)
        cfg = IntegratorConfig(scheme, 0.01, 2.0, project_attitude=project_attitude)
        report = verify_reduction(spec, q0, pi0, cfg)
        reference = verify_reduction_reference(spec, q0, pi0, cfg)
        assert list(report) == list(reference)
        for key, value in reference.items():
            assert np.float64(report[key]).tobytes() == np.float64(value).tobytes(), key

    @staticmethod
    def same_error(spec, q0, pi0, cfg):
        errors = []
        for verify in (verify_reduction, verify_reduction_reference):
            with pytest.raises(Exception) as err:
                verify(spec, q0, pi0, cfg)
            errors.append(err.value)
        got, want = errors
        assert type(got) is type(want)
        assert str(got) == str(want)
        for name in ("step_index", "min_singular_value", "reason"):
            assert getattr(got, name, None) == getattr(want, name, None)
        return got

    @pytest.mark.parametrize("scheme, later", [("rk4", DivergenceError),
                                               ("midpoint", ConvergenceError)])
    def test_rank_loss_beats_a_later_failure(self, monkeypatch, scheme, later):
        # z' = -c z takes the lift's smallest singular value, sqrt(2), below
        # FULL_RANK_TOL near step 40; the field turns non-finite once the
        # Frobenius norm, sqrt(3) times larger, is below 1e-12, steps later.
        # The body run, which comes after the phase run, fails at step 1.
        rate = np.log(np.sqrt(2.0) / FULL_RANK_TOL) / 39.5

        def field(z):
            return -rate * z if np.linalg.norm(z) > 1e-12 else np.full_like(z, np.inf)

        cfg = IntegratorConfig(scheme, 1.0, 80.0)
        z0 = solve_lift(np.eye(3), standard_pi0())
        failure = integrate._run(None, z0, cfg, field_kernels(field))[3]
        assert isinstance(failure, later)
        monkeypatch.setattr(integrate, "_symrep_kernels", field_kernels(field))
        monkeypatch.setattr(integrate, "_euler_kernels",
                            field_kernels(lambda pi: np.full_like(pi, np.inf)))
        err = self.same_error(standard_spec(), np.eye(3), standard_pi0(), cfg)
        assert isinstance(err, RankLossError)
        assert err.step_index < failure.step_index

    def test_body_run_failure(self, monkeypatch):
        monkeypatch.setattr(integrate, "_euler_kernels",
                            field_kernels(lambda pi: np.full_like(pi, np.inf)))
        err = self.same_error(standard_spec(), np.eye(3), standard_pi0(),
                              IntegratorConfig("rk4", 0.01, 1.0))
        assert isinstance(err, DivergenceError) and err.step_index == 1

    def test_stacked_lambda(self):
        spec = InertiaSpec([[1.0, 2.0, 3.0], [1.5, 2.0, 2.5]])
        err = self.same_error(spec, np.eye(3), standard_pi0(), IntegratorConfig("rk4", 0.01, 1.0))
        assert type(err) is DimensionError and "one body" in str(err)

    def test_non_skew_momentum(self):
        pi0 = standard_pi0() + 0.1 * np.eye(3)
        err = self.same_error(standard_spec(), np.eye(3), pi0, IntegratorConfig("rk4", 0.01, 1.0))
        assert type(err) is ValueError and "not skew-symmetric" in str(err)

    def test_dimension_mismatch(self):
        spec = InertiaSpec([1.0, 2.0, 3.0, 4.0])
        err = self.same_error(spec, np.eye(3), standard_pi0(), IntegratorConfig("rk4", 0.01, 1.0))
        assert type(err) is DimensionError


class TestSolveLiftNonFinite:
    def test_nan_momentum_rejected(self):
        pi0 = standard_pi0()
        pi0[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_lift(np.eye(3), pi0)

    def test_nan_attitude_rejected(self):
        q0 = np.eye(3)
        q0[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_lift(q0, standard_pi0())

    def test_bound_message_names_the_lift(self):
        pi0 = scaled_skew(3, np.random.default_rng(2), 2.1)
        with pytest.raises(OutOfRangeError, match="lift bound 2"):
            solve_lift(np.eye(3), pi0)
