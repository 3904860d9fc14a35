import numpy as np
import pytest

from helpers import rodrigues, scaled_skew, standard_pi0, standard_spec
from nrigid.body import hat
from nrigid.errors import CertificationError, DimensionError, OutOfRangeError
from nrigid.integrate import IntegratorConfig, integrate_symrep
from nrigid.lift import mu0_of, solve_lift, verify_reduction
from nrigid.matcore import random_rotation, rotation_defect
from nrigid.moment import level_set_defect, on_momentum, sp_momentum
from nrigid.symrep import is_full_rank, phase_point

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
