import re

import numpy as np
import pytest

from helpers import BLOCK_CROSSING, invariant_battery_reference, random_phase, standard_spec
from nrigid.body import hat, inertia_inverse, reduced_hamiltonian
from nrigid.errors import DimensionError, LevelSetError
from nrigid.matcore import (
    commutator,
    inner,
    random_rotation,
    random_skew,
    random_sp,
    random_sp_group,
    skew_defect,
)
from nrigid.moment import (
    _BATTERY_BLOCK,
    _battery_group,
    ad_star,
    casimir_spectrum,
    infinitesimal_generator,
    invariant_battery,
    kks_form,
    level_set_defect,
    on_action,
    on_coadjoint,
    on_momentum,
    orbit_transporter,
    reduced_form_check,
    sp_action,
    sp_coadjoint,
    sp_momentum,
)
from nrigid.symrep import hamiltonian, one_form, phase_point

E1, E2, E3 = hat([1, 0, 0]), hat([0, 1, 0]), hat([0, 0, 1])


class TestActions:
    def test_identity(self):
        z = random_phase(3, np.random.default_rng(0))
        np.testing.assert_array_equal(sp_action(np.eye(6), z), z)
        np.testing.assert_array_equal(on_action(z, np.eye(3)), z)

    def test_commute(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = random_phase(3, rng)
            s = random_sp_group(3, rng)
            r = random_rotation(3, rng)
            np.testing.assert_allclose(
                on_action(sp_action(s, z), r), sp_action(s, on_action(z, r)),
                atol=1e-13,
            )

    def test_rank_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = random_phase(3, rng)
            s = random_sp_group(3, rng)
            assert np.linalg.svd(sp_action(s, z), compute_uv=False)[-1] > 0.0

    def test_shape_guard(self):
        with pytest.raises(DimensionError):
            sp_action(np.eye(4), random_phase(3, np.random.default_rng(3)))


class TestSpMomentum:
    def test_identity_zero_block(self):
        z = phase_point(np.eye(3), np.zeros((3, 3)))
        expected = np.zeros((6, 6))
        expected[3:, :3] = -np.eye(3)
        np.testing.assert_array_equal(sp_momentum(z), expected)

    def test_identity_identity(self):
        z = phase_point(np.eye(3), np.eye(3))
        eye = np.eye(3)
        expected = np.block([[eye, eye], [-eye, -eye]])
        np.testing.assert_array_equal(sp_momentum(z), expected)

    def test_block_structure(self):
        rng = np.random.default_rng(4)
        z = random_phase(3, rng)
        q, p = z[:3], z[3:]
        mu = sp_momentum(z)
        np.testing.assert_allclose(mu[:3, :3], p @ q.T, atol=1e-14)
        np.testing.assert_allclose(mu[:3, 3:], p @ p.T, atol=1e-14)
        np.testing.assert_allclose(mu[3:, :3], -q @ q.T, atol=1e-14)
        np.testing.assert_allclose(mu[3:, 3:], -q @ p.T, atol=1e-14)

    def test_defining_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = 3 + rng.integers(0, 3)
            z = random_phase(n, rng)
            xi = random_sp(n, rng)
            assert abs(
                inner(sp_momentum(z), xi) - one_form(z, xi @ z)
            ) <= 1e-12

    def test_twisted_symmetry(self):
        # J^{-1} mu is symmetric for momentum values
        from nrigid.matcore import symplectic_matrix

        z = random_phase(4, np.random.default_rng(6))
        mu = sp_momentum(z)
        j = symplectic_matrix(4)
        w = np.linalg.solve(j, mu)
        assert np.linalg.norm(w - w.T) <= 1e-10


class TestOnMomentum:
    def test_zero(self):
        z = phase_point(np.eye(3), np.zeros((3, 3)))
        np.testing.assert_array_equal(on_momentum(z), np.zeros((3, 3)))

    def test_half_e3(self):
        z = phase_point(np.eye(3), 0.5 * E3)
        np.testing.assert_allclose(on_momentum(z), E3, atol=1e-15)

    def test_defining_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = 3 + rng.integers(0, 3)
            z = random_phase(n, rng)
            a = random_skew(n, rng)
            assert abs(inner(on_momentum(z), a) - one_form(z, z @ a)) <= 1e-12

    def test_skew(self):
        z = random_phase(4, np.random.default_rng(8))
        assert skew_defect(on_momentum(z)) <= 1e-13


class TestCoadjoint:
    def test_identity(self):
        z = random_phase(3, np.random.default_rng(9))
        mu, pi = sp_momentum(z), on_momentum(z)
        np.testing.assert_allclose(sp_coadjoint(np.eye(6), mu), mu, atol=1e-15)
        np.testing.assert_allclose(on_coadjoint(np.eye(3), pi), pi, atol=1e-15)

    def test_sp_equivariance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            z = random_phase(3, rng)
            s = random_sp_group(3, rng)
            assert np.linalg.norm(
                sp_momentum(sp_action(s, z)) - sp_coadjoint(s, sp_momentum(z))
            ) <= 1e-11

    def test_on_equivariance_including_reflections(self):
        rng = np.random.default_rng(11)
        flip = np.diag([-1.0, 1.0, 1.0])
        for k in range(100):
            z = random_phase(3, rng)
            r = random_rotation(3, rng)
            if k % 2 == 1:
                r = r @ flip
            assert np.linalg.norm(
                on_momentum(on_action(z, r)) - on_coadjoint(r, on_momentum(z))
            ) <= 1e-12

    @pytest.mark.parametrize("s", [np.eye(5), np.zeros((6, 4)), np.zeros(6)])
    def test_sp_coadjoint_shape(self, s):
        mu = sp_momentum(random_phase(3, np.random.default_rng(9)))
        with pytest.raises(DimensionError, match=r"^expected a 2n x 2n matrix, got shape \("):
            sp_coadjoint(s, mu)


class TestInfinitesimalGenerator:
    def test_zero(self):
        z = random_phase(3, np.random.default_rng(12))
        assert np.linalg.norm(infinitesimal_generator(np.zeros((6, 6)), z)) == 0.0

    def test_difference_quotient(self):
        from nrigid.matcore import expm

        rng = np.random.default_rng(13)
        s = 1e-6
        for _ in range(20):
            z = random_phase(3, rng)
            xi = random_sp(3, rng)
            quotient = (expm(s * xi) @ z - z) / s
            bound = s * np.linalg.norm(xi @ (xi @ z)) + 1e-9
            assert np.linalg.norm(
                quotient - infinitesimal_generator(xi, z)
            ) <= bound

    def test_linear(self):
        rng = np.random.default_rng(14)
        z = random_phase(3, rng)
        xi, eta = random_sp(3, rng), random_sp(3, rng)
        np.testing.assert_allclose(
            infinitesimal_generator(xi + 2.0 * eta, z),
            infinitesimal_generator(xi, z) + 2.0 * infinitesimal_generator(eta, z),
            atol=1e-14,
        )


class TestAdStar:
    def test_parallel_vanishes(self):
        pi = random_skew(3, 15)
        assert np.linalg.norm(ad_star(2.0 * pi, pi)) <= 1e-15

    def test_matches_euler_rhs(self):
        from nrigid.body import euler_rhs

        spec = standard_spec()
        pi = random_skew(3, 16)
        np.testing.assert_array_equal(
            ad_star(inertia_inverse(spec, pi), pi), euler_rhs(spec, pi)
        )

    def test_duality(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            pi, a, b = (random_skew(4, rng) for _ in range(3))
            assert abs(
                inner(ad_star(a, pi), b) - inner(pi, commutator(a, b))
            ) <= 1e-13


class TestKksForm:
    def test_equal_arguments(self):
        pi = random_skew(3, 18)
        a = random_skew(3, 19)
        assert kks_form(pi, a, a) == 0.0

    def test_basis_value(self):
        assert kks_form(E3, E1, E2) == pytest.approx(-1.0, abs=1e-15)

    def test_antisymmetric(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            pi, a, b = (random_skew(4, rng) for _ in range(3))
            assert abs(kks_form(pi, a, b) + kks_form(pi, b, a)) <= 1e-13


class TestOrbitTransporter:
    def test_identity(self):
        z = random_phase(3, np.random.default_rng(21))
        np.testing.assert_allclose(orbit_transporter(z, z), np.eye(3), atol=1e-12)

    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(22)
        flip = np.diag([-1.0, 1.0, 1.0, 1.0])
        for k in range(100):
            z = random_phase(4, rng)
            r0 = random_rotation(4, rng)
            if k % 2 == 1:
                r0 = r0 @ flip
            r = orbit_transporter(z, on_action(z, r0))
            assert np.linalg.norm(r - r0) <= 1e-10

    def test_different_level_sets_rejected(self):
        rng = np.random.default_rng(23)
        z = random_phase(3, rng)
        s = random_sp_group(3, rng)
        with pytest.raises(LevelSetError):
            orbit_transporter(z, sp_action(s, z))

    def test_shape_mismatch(self):
        z = random_phase(3, np.random.default_rng(24))
        with pytest.raises(DimensionError, match=r"^shape mismatch: \(6, 3\) vs \(8, 4\)$"):
            orbit_transporter(z, random_phase(4, np.random.default_rng(25)))


class TestLevelSetDefect:
    def test_on_set(self):
        from nrigid.lift import mu0_of, solve_lift

        z0 = solve_lift(np.eye(3), E3)
        assert level_set_defect(z0, mu0_of(z0)) <= 1e-14

    def test_off_set(self):
        from nrigid.lift import mu0_of, solve_lift

        z0 = solve_lift(np.eye(3), np.zeros((3, 3)))
        z_bad = phase_point(np.eye(3), 2.0 * np.eye(3))
        assert level_set_defect(z_bad, mu0_of(z0)) >= 1.0


class TestReducedFormCheck:
    def test_equal_arguments(self):
        z = random_phase(3, np.random.default_rng(24))
        a = random_skew(3, 25)
        assert reduced_form_check(z, a, a) == (0.0, 0.0)

    def test_agreement_200(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            n = 3 + rng.integers(0, 3)
            z = random_phase(n, rng)
            a, b = random_skew(n, rng), random_skew(n, rng)
            lhs, rhs = reduced_form_check(z, a, b)
            assert abs(lhs - rhs) <= 1e-12

    def test_bilinear_scaling(self):
        rng = np.random.default_rng(27)
        z = random_phase(3, rng)
        a, b = random_skew(3, rng), random_skew(3, rng)
        lhs, rhs = reduced_form_check(z, a, b)
        lhs2, rhs2 = reduced_form_check(z, 2.0 * a, 3.0 * b)
        assert lhs2 == pytest.approx(6.0 * lhs, abs=1e-12)
        assert rhs2 == pytest.approx(6.0 * rhs, abs=1e-12)


class TestCollectiveHamiltonian:
    def test_factors_through_momentum(self):
        spec = standard_spec()
        rng = np.random.default_rng(28)
        for _ in range(100):
            z = random_phase(3, rng)
            assert abs(
                reduced_hamiltonian(spec, on_momentum(z)) - hamiltonian(spec, z)
            ) <= 1e-12


class TestCasimirSpectrum:
    def test_conjugation_invariant(self):
        rng = np.random.default_rng(29)
        pi = random_skew(4, rng)
        r = random_rotation(4, rng)
        np.testing.assert_allclose(
            casimir_spectrum(on_coadjoint(r, pi)), casimir_spectrum(pi), atol=1e-13
        )


class TestInvariantBattery:
    """The stacked battery against the per-trial loop of 2-D calls."""

    @pytest.mark.parametrize("trials", [1, 2, 3, 7, BLOCK_CROSSING])
    @pytest.mark.parametrize("seed", [0, 42])
    def test_residuals_match_per_trial_loop_bitwise(self, seed, trials):
        # The battery's blocks of `_BATTERY_BLOCK` trials, each split by n,
        # group by group against the reference's residuals of those trials.
        counts, residuals = invariant_battery_reference(seed, trials)
        covered = []
        for start in range(0, trials, _BATTERY_BLOCK):
            block = np.arange(start, min(start + _BATTERY_BLOCK, trials))
            for n in (3, 4, 5):
                group = block[block % 3 == n - 3]
                if not group.size:
                    continue
                got = _battery_group(seed, group, n)
                assert list(got) == list(residuals)
                for name, values in residuals.items():
                    assert got[name].shape == values[group].shape
                    np.testing.assert_array_equal(got[name], values[group], err_msg=name)
                covered.extend(group.tolist())
        assert sorted(covered) == list(range(trials))
        assert invariant_battery(seed, trials) == counts

    def test_block_crossing_count_leaves_groups_empty(self):
        last_block = np.arange(BLOCK_CROSSING)[_BATTERY_BLOCK:]
        assert sorted({3 + t % 3 for t in last_block.tolist()}) == [3 + _BATTERY_BLOCK % 3]

    def test_inputs_validated(self):
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            invariant_battery(0, 0)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            invariant_battery(-1, 5)

    @pytest.mark.parametrize("seed, trials, name", [
        (0, 2.5, "trials"),
        (0, 3.0, "trials"),
        (0, True, "trials"),
        (0, "3", "trials"),
        (1.5, 3, "seed"),
        (None, 3, "seed"),
        (False, 3, "seed"),
        (np.float64(2.0), 3, "seed"),
    ])
    def test_non_integer_arguments_rejected(self, seed, trials, name):
        value = {"seed": seed, "trials": trials}[name]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            invariant_battery(seed, trials)

    def test_numpy_integers_accepted(self):
        want = invariant_battery(7, 4)
        assert invariant_battery(np.int64(7), np.int32(4)) == want
        assert invariant_battery(np.uint8(7), np.int64(4)) == want
        # seed + t is taken in Python ints, so a small numpy seed cannot overflow
        assert invariant_battery(np.uint8(250), 12) == invariant_battery(250, 12)
