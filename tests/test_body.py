import numpy as np
import pytest

from helpers import standard_spec
from nrigid.body import (
    InertiaSpec,
    euler_poisson_rhs,
    euler_rhs,
    hat,
    inertia_apply,
    inertia_inverse,
    reduced_hamiltonian,
    vee,
)
from nrigid.errors import DimensionError
from nrigid.matcore import inner, random_skew, skew_defect


class TestInertiaSpec:
    def test_valid(self):
        spec = InertiaSpec([1.0, 2.0, 3.0])
        assert spec.n == 3

    def test_negative_pair_rejected(self):
        with pytest.raises(ValueError, match=r"lambda\[0\] \+ lambda\[2\]"):
            InertiaSpec([1.0, 5.0, -1.0])

    def test_negative_single_entry_allowed(self):
        # only the pairwise sums matter
        spec = InertiaSpec([2.0, 1.0, -0.5])
        assert spec.n == 3

    def test_too_short(self):
        with pytest.raises(DimensionError):
            InertiaSpec([1.0])


class TestInertiaOperator:
    def test_identity_lambda_doubles(self):
        spec = InertiaSpec([1.0, 1.0, 1.0, 1.0])
        om = random_skew(4, 0)
        np.testing.assert_allclose(inertia_apply(spec, om), 2.0 * om, atol=1e-15)

    def test_vector_dictionary(self):
        # principal moments (5, 4, 3) for lambda = (1, 2, 3)
        spec = standard_spec()
        om = hat([1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            vee(inertia_apply(spec, om)), [5.0, 4.0, 3.0], atol=1e-15
        )
        np.testing.assert_allclose(
            vee(inertia_inverse(spec, hat([5.0, 4.0, 3.0]))), [1.0, 1.0, 1.0],
            atol=1e-15,
        )

    def test_identity_lambda_inverse_halves(self):
        spec = InertiaSpec([1.0, 1.0, 1.0])
        pi = random_skew(3, 1)
        np.testing.assert_allclose(inertia_inverse(spec, pi), 0.5 * pi, atol=1e-15)

    def test_round_trips(self):
        spec = InertiaSpec([0.7, 1.3, 2.1, 0.4])
        for trial in range(100):
            om = random_skew(4, trial)
            np.testing.assert_allclose(
                inertia_inverse(spec, inertia_apply(spec, om)), om, atol=1e-13
            )
            np.testing.assert_allclose(
                inertia_apply(spec, inertia_inverse(spec, om)), om, atol=1e-13
            )

    def test_self_adjoint(self):
        spec = InertiaSpec([0.7, 1.3, 2.1, 0.4])
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_skew(4, rng), random_skew(4, rng)
            assert abs(
                inner(inertia_apply(spec, a), b) - inner(a, inertia_apply(spec, b))
            ) <= 1e-13

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            inertia_apply(standard_spec(), random_skew(4, 0))


class TestReducedHamiltonian:
    def test_zero(self):
        assert reduced_hamiltonian(standard_spec(), np.zeros((3, 3))) == 0.0

    def test_identity_lambda(self):
        spec = InertiaSpec([1.0, 1.0, 1.0])
        assert reduced_hamiltonian(spec, hat([0, 0, 1])) == pytest.approx(0.25, abs=1e-15)

    def test_vector_formula(self):
        # h = (1/2) sum pi_k^2 / I_k with I = (5, 4, 3)
        h = reduced_hamiltonian(standard_spec(), hat([0.0, 3.0, 4.0]))
        assert h == pytest.approx(0.5 * (9.0 / 4.0 + 16.0 / 3.0), abs=1e-13)

    def test_positive(self):
        spec = standard_spec()
        for trial in range(50):
            pi = random_skew(3, trial)
            if np.any(pi):
                assert reduced_hamiltonian(spec, pi) > 0.0


class TestEulerRhs:
    def test_relative_equilibrium(self):
        spec = standard_spec()
        assert np.linalg.norm(euler_rhs(spec, hat([1.0, 0.0, 0.0]))) == 0.0

    def test_cross_product_case(self):
        np.testing.assert_allclose(
            vee(euler_rhs(standard_spec(), hat([0.0, 3.0, 4.0]))),
            [1.0, 0.0, 0.0],
            atol=1e-13,
        )

    def test_energy_derivative_vanishes(self):
        spec = InertiaSpec([0.7, 1.3, 2.1, 0.4])
        for trial in range(50):
            pi = random_skew(4, trial)
            assert abs(inner(euler_rhs(spec, pi), inertia_inverse(spec, pi))) <= 1e-13

    def test_casimir_derivative_vanishes(self):
        spec = InertiaSpec([0.7, 1.3, 2.1, 0.4])
        for trial in range(50):
            pi = random_skew(4, trial)
            assert abs(inner(euler_rhs(spec, pi), pi)) <= 1e-13

    def test_cross_product_equivalence_100(self):
        spec = standard_spec()
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.uniform(-1, 1, 3)
            pi = hat(v)
            omega = vee(inertia_inverse(spec, pi))
            np.testing.assert_allclose(
                vee(euler_rhs(spec, pi)), np.cross(v, omega), atol=1e-13
            )


class TestEulerPoisson:
    def test_zero_momentum(self):
        spec = standard_spec()
        ydot = euler_poisson_rhs(spec, np.vstack([np.eye(3), np.zeros((3, 3))]))
        assert ydot.shape == (6, 3)
        qdot, pidot = ydot[:3], ydot[3:]
        assert np.linalg.norm(qdot) == 0.0
        assert np.linalg.norm(pidot) == 0.0

    def test_relative_equilibrium(self):
        spec = standard_spec()
        ydot = euler_poisson_rhs(spec, np.vstack([np.eye(3), hat([1.0, 0.0, 0.0])]))
        qdot, pidot = ydot[:3], ydot[3:]
        np.testing.assert_allclose(qdot, hat([1.0 / 5.0, 0.0, 0.0]), atol=1e-15)
        assert np.linalg.norm(pidot) == 0.0

    def test_momentum_component_matches_euler_rhs(self):
        spec = standard_spec()
        rng = np.random.default_rng(4)
        for _ in range(20):
            pi = random_skew(3, rng)
            pidot = euler_poisson_rhs(spec, np.vstack([np.eye(3), pi]))[3:]
            np.testing.assert_array_equal(pidot, euler_rhs(spec, pi))


class TestFieldsKeepTheirChecks:
    """The public fields validate and then call the step loop's kernels."""

    @pytest.mark.parametrize("bad", [np.zeros((4, 4)), np.zeros((2, 3, 3)), np.zeros(3)])
    def test_euler_rhs_shapes(self, bad):
        with pytest.raises(DimensionError):
            euler_rhs(standard_spec(), bad)

    def test_euler_poisson_rhs_dimension(self):
        # an (8, 4) stack is a 4-body [Q; pi], the spec a 3-body one
        with pytest.raises(DimensionError):
            euler_poisson_rhs(standard_spec(), np.vstack([np.eye(4), np.zeros((4, 4))]))

    @pytest.mark.parametrize("bad", [np.zeros((3, 3)), np.zeros((6, 4)), np.zeros((2, 6, 3)),
                                     np.zeros(18)])
    def test_euler_poisson_rhs_shapes(self, bad):
        with pytest.raises(DimensionError):
            euler_poisson_rhs(standard_spec(), bad)


class TestHatVee:
    def test_sign_convention(self):
        e3 = hat([0.0, 0.0, 1.0])
        assert e3[1, 0] == 1.0
        assert e3[0, 1] == -1.0

    def test_round_trip(self):
        v = np.array([0.3, -1.2, 0.5])
        np.testing.assert_array_equal(vee(hat(v)), v)

    def test_cross_product_bracket(self):
        from nrigid.matcore import commutator

        rng = np.random.default_rng(5)
        for _ in range(50):
            u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            np.testing.assert_allclose(
                hat(np.cross(u, v)), commutator(hat(u), hat(v)), atol=1e-14
            )

    def test_inner_matches_dot(self):
        rng = np.random.default_rng(6)
        u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert inner(hat(u), hat(v)) == pytest.approx(float(u @ v), abs=1e-15)

    def test_vee_wrong_size(self):
        with pytest.raises(DimensionError):
            vee(np.zeros((4, 4)))

    @pytest.mark.parametrize("bad", [np.zeros(2), np.zeros(4), np.zeros((3, 3))])
    def test_hat_wrong_size(self, bad):
        with pytest.raises(DimensionError, match="^hat expects a 3-vector$"):
            hat(bad)

    def test_hat_output_skew(self):
        assert skew_defect(hat([1.0, 2.0, 3.0])) == 0.0
