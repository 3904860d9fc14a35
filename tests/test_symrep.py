import numpy as np
import pytest

from helpers import random_phase, standard_spec
from nrigid.body import InertiaSpec, hat, inertia_apply
from nrigid.errors import DimensionError
from nrigid.matcore import (
    inner,
    random_skew,
    random_sp_group,
    skew_defect,
    symplectic_matrix,
)
from nrigid.symrep import (
    control_hamiltonian,
    hamiltonian,
    is_full_rank,
    one_form,
    optimal_control,
    p_block,
    phase_point,
    q_block,
    symplectic_form,
    symrep_rhs,
)

E3 = hat([0, 0, 1])


def stacked(q, p):
    return phase_point(np.asarray(q, dtype=float), np.asarray(p, dtype=float))


class TestPhasePoint:
    def test_blocks(self):
        z = stacked(np.eye(3), 2.0 * np.eye(3))
        np.testing.assert_array_equal(q_block(z), np.eye(3))
        np.testing.assert_array_equal(p_block(z), 2.0 * np.eye(3))

    def test_full_rank(self):
        assert is_full_rank(stacked(np.eye(3), np.zeros((3, 3))))
        assert not is_full_rank(np.zeros((6, 3)))
        points = np.stack([stacked(np.eye(3), np.zeros((3, 3))), np.zeros((6, 3))])
        np.testing.assert_array_equal(is_full_rank(points), [True, False])

    def test_bad_shape(self):
        with pytest.raises(DimensionError):
            q_block(np.zeros((5, 3)))

    @pytest.mark.parametrize("q, p", [
        (np.eye(3), np.eye(4)), (np.zeros((3, 2)), np.zeros((3, 2))), (np.zeros(3), np.zeros(3)),
    ])
    def test_blocks_must_be_square_and_equal_size(self, q, p):
        with pytest.raises(DimensionError, match="^blocks must be square and equal-size, got "):
            phase_point(q, p)

    @pytest.mark.parametrize("field", [optimal_control, symrep_rhs])
    def test_fields_check_shape_and_dimension(self, field):
        with pytest.raises(DimensionError):
            field(standard_spec(), np.zeros((5, 3)))
        with pytest.raises(DimensionError):
            field(standard_spec(), np.zeros((8, 4)))


class TestSymplecticForm:
    def test_identity_pairing(self):
        n = 3
        x = stacked(np.eye(n), np.zeros((n, n)))
        y = stacked(np.zeros((n, n)), np.eye(n))
        assert symplectic_form(x, y) == pytest.approx(float(n), abs=1e-15)

    def test_alternating(self):
        x = random_phase(4, np.random.default_rng(0))
        assert symplectic_form(x, x) == 0.0

    def test_matches_matrix_formula(self):
        rng = np.random.default_rng(1)
        j = symplectic_matrix(4)
        for _ in range(50):
            x, y = random_phase(4, rng), random_phase(4, rng)
            assert abs(
                symplectic_form(x, y) - float(np.trace(x.T @ j @ y))
            ) <= 1e-13
        # the pairings agree bit for bit with tensordot, transposed operands included
        for n in (3, 5, 8, 16):
            spec = InertiaSpec(rng.uniform(0.5, 2.0, n))
            for _ in range(10):
                x, y = random_phase(n, rng), random_phase(n, rng)
                u = rng.uniform(-1.0, 1.0, (n, n))
                xq, xp, yq, yp = x[:n], x[n:], y[:n], y[n:]
                assert symplectic_form(x, y) == float(np.tensordot(xq, yp) - np.tensordot(xp, yq))
                assert one_form(x, y) == 0.5 * float(np.tensordot(xp, yq) - np.tensordot(xq, yp))
                for v in (u, u.T):
                    effort = 0.5 * inner(inertia_apply(spec, v), v)
                    assert control_hamiltonian(spec, x, v) == (
                        float(np.tensordot(xq.T @ xp, v)) - effort)

    def test_nondegenerate_gram(self):
        # Gram matrix of the form on the standard basis of 4 x 2 matrices
        n = 2
        basis = []
        for i in range(2 * n):
            for j in range(n):
                e = np.zeros((2 * n, n))
                e[i, j] = 1.0
                basis.append(e)
        gram = np.array([[symplectic_form(a, b) for b in basis] for a in basis])
        assert abs(np.linalg.det(gram)) > 0.5


class TestOneForm:
    def test_identity_pairing(self):
        n = 3
        z = stacked(np.eye(n), np.zeros((n, n)))
        zdot = stacked(np.zeros((n, n)), np.eye(n))
        assert one_form(z, zdot) == pytest.approx(-n / 2.0, abs=1e-15)

    def test_zero_velocity(self):
        z = random_phase(3, np.random.default_rng(2))
        assert one_form(z, np.zeros((6, 3))) == 0.0

    def test_exterior_derivative_is_minus_form(self):
        # d(theta)(X, Y) on constant extensions via central differences
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(20):
            z = random_phase(3, rng)
            x, y = random_phase(3, rng), random_phase(3, rng)
            d_theta = (
                (one_form(z + h * x, y) - one_form(z - h * x, y)) / (2 * h)
                - (one_form(z + h * y, x) - one_form(z - h * y, x)) / (2 * h)
            )
            assert abs(-d_theta - symplectic_form(x, y)) <= 1e-9

    def test_invariance_under_both_actions(self):
        from nrigid.matcore import random_rotation
        from nrigid.moment import on_action, sp_action

        rng = np.random.default_rng(4)
        for _ in range(50):
            z, zdot = random_phase(3, rng), random_phase(3, rng)
            s = random_sp_group(3, rng)
            r = random_rotation(3, rng)
            base = one_form(z, zdot)
            assert abs(one_form(sp_action(s, z), s @ zdot) - base) <= 1e-12
            assert abs(one_form(on_action(z, r), zdot @ r) - base) <= 1e-12


class TestOptimalControl:
    def test_equal_blocks_vanish(self):
        spec = standard_spec()
        z = stacked(np.eye(3), np.eye(3))
        assert np.linalg.norm(optimal_control(spec, z)) == 0.0

    def test_half_e3(self):
        spec = InertiaSpec([1.0, 1.0, 1.0])
        z = stacked(np.eye(3), 0.5 * E3)
        np.testing.assert_allclose(optimal_control(spec, z), 0.5 * E3, atol=1e-15)

    def test_matches_momentum_route(self):
        from nrigid.body import inertia_inverse
        from nrigid.moment import on_momentum

        spec = standard_spec()
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = random_phase(3, rng)
            np.testing.assert_allclose(
                optimal_control(spec, z),
                inertia_inverse(spec, on_momentum(z)),
                atol=1e-14,
            )

    def test_output_skew(self):
        z = random_phase(3, np.random.default_rng(6))
        assert skew_defect(optimal_control(standard_spec(), z)) <= 1e-14


class TestControlHamiltonian:
    def test_zero_control(self):
        z = random_phase(3, np.random.default_rng(7))
        assert control_hamiltonian(standard_spec(), z, np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("u", [np.zeros((4, 4)), np.zeros(3)])
    def test_control_shape(self, u):
        z = random_phase(3, np.random.default_rng(7))
        with pytest.raises(DimensionError, match=r"^control has shape .*, expected \(3, 3\)$"):
            control_hamiltonian(standard_spec(), z, u)

    def test_maximum_value_is_hamiltonian(self):
        spec = standard_spec()
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = random_phase(3, rng)
            assert abs(
                control_hamiltonian(spec, z, optimal_control(spec, z))
                - hamiltonian(spec, z)
            ) <= 1e-12

    def test_concavity(self):
        spec = standard_spec()
        rng = np.random.default_rng(9)
        z = random_phase(3, rng)
        u_star = optimal_control(spec, z)
        top = control_hamiltonian(spec, z, u_star)
        for _ in range(20):
            delta = 0.01 * random_skew(3, rng)
            assert control_hamiltonian(spec, z, u_star + delta) <= top

    def test_stationarity(self):
        # finite-difference gradient over a skew basis at the maximizer
        spec = standard_spec()
        rng = np.random.default_rng(10)
        h = 1e-5
        for _ in range(10):
            z = random_phase(3, rng)
            u_star = optimal_control(spec, z)
            grad = []
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1.0
                d = hat(e)
                grad.append(
                    (
                        control_hamiltonian(spec, z, u_star + h * d)
                        - control_hamiltonian(spec, z, u_star - h * d)
                    )
                    / (2 * h)
                )
            assert np.linalg.norm(grad) <= 1e-7


class TestHamiltonian:
    def test_zero_costate(self):
        z = stacked(np.eye(3), np.zeros((3, 3)))
        assert hamiltonian(standard_spec(), z) == 0.0

    def test_quarter(self):
        spec = InertiaSpec([1.0, 1.0, 1.0])
        z = stacked(np.eye(3), 0.5 * E3)
        assert hamiltonian(spec, z) == pytest.approx(0.25, abs=1e-15)

    def test_symplectic_invariance_100(self):
        spec = standard_spec()
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = random_phase(3, rng)
            s = random_sp_group(3, rng)
            assert abs(
                hamiltonian(spec, s @ z) - hamiltonian(spec, z)
            ) <= 1e-11

    def test_nonnegative(self):
        spec = standard_spec()
        rng = np.random.default_rng(12)
        for _ in range(50):
            assert hamiltonian(spec, random_phase(3, rng)) >= 0.0


class TestSymrepRhs:
    def test_stationary_at_equal_blocks(self):
        z = stacked(np.eye(3), np.eye(3))
        assert np.linalg.norm(symrep_rhs(standard_spec(), z)) == 0.0

    def test_hamiltonian_vector_field(self):
        # omega(X_H(z), Y) equals the directional derivative of H along Y
        spec = standard_spec()
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(50):
            z = random_phase(3, rng)
            y = random_phase(3, rng)
            lhs = symplectic_form(symrep_rhs(spec, z), y)
            rhs = (hamiltonian(spec, z + h * y) - hamiltonian(spec, z - h * y)) / (2 * h)
            assert abs(lhs - rhs) <= 1e-7

    def test_equivariance(self):
        spec = standard_spec()
        rng = np.random.default_rng(14)
        for _ in range(50):
            z = random_phase(3, rng)
            s = random_sp_group(3, rng)
            np.testing.assert_allclose(
                symrep_rhs(spec, s @ z), s @ symrep_rhs(spec, z), atol=1e-11
            )

    def test_blockwise_structure(self):
        spec = standard_spec()
        z = random_phase(3, np.random.default_rng(15))
        omega = optimal_control(spec, z)
        rhs = symrep_rhs(spec, z)
        np.testing.assert_allclose(q_block(rhs), q_block(z) @ omega, atol=1e-15)
        np.testing.assert_allclose(p_block(rhs), p_block(z) @ omega, atol=1e-15)
