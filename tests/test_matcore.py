import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import rodrigues, scaled_skew
from nrigid.body import hat
from nrigid.errors import DimensionError, OutOfRangeError
from nrigid.matcore import (
    _expm,
    _expm_stack,
    _flat_dot,
    _mm,
    _polar_project,
    commutator,
    expm,
    inner,
    orthogonality_defect,
    polar_project,
    random_rotation,
    random_skew,
    random_sp,
    random_sp_group,
    require_rotation,
    require_skew,
    skew_asinh,
    skew_defect,
    sp_algebra_defect,
    sp_group_defect,
    sp_inverse,
    spectral_norm,
    symplectic_matrix,
)

E1, E2, E3 = hat([1, 0, 0]), hat([0, 1, 0]), hat([0, 0, 1])

# theta_m: the largest x with x^(m+1)/(m+1)! e^x <= 2^-53, rounded down to
# three digits, so that m Taylor terms reach unit round-off up to 1-norm
# theta_m (Al-Mohy and Higham, SIAM J. Sci. Comput. 2011)
TAYLOR_THETA = (1.49e-8, 8.73e-6, 2.27e-4, 1.67e-3, 6.55e-3, 1.77e-2,
                3.79e-2, 6.94e-2, 0.113, 0.171, 0.242)
# (m, 1-norm) just below and just above each theta_m: small arguments
# across the range where the degree-12 sum carries more terms than it needs
NEAR_THETA = [(m, side * theta) for m, theta in enumerate(TAYLOR_THETA, 1)
              for side in (0.999, 1.001)]


def with_one_norm(a, norm):
    return a * (norm / np.abs(a).sum(axis=0).max())


def eigendecomposition_oracle(a):
    """exp of a skew matrix from the eigenvectors of the Hermitian i a."""
    angles, v = np.linalg.eigh(1j * a)
    return np.real((v * np.exp(-1j * angles)) @ v.conj().T)


class TestInner:
    def test_hat_e3(self):
        assert inner(E3, E3) == pytest.approx(1.0, abs=1e-15)

    def test_zero(self):
        assert inner(np.zeros((4, 4)), np.zeros((4, 4))) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.uniform(-1, 1, (5, 5))
            b = rng.uniform(-1, 1, (5, 5))
            assert abs(inner(a, b) - inner(b, a)) <= 1e-14

    def test_positive_definite(self):
        for trial in range(100):
            a = random_skew(4, 1000 + trial)
            if np.any(a):
                assert inner(a, a) > 0.0

    def test_bilinear(self):
        rng = np.random.default_rng(12)
        a, b, c = (rng.uniform(-1, 1, (3, 3)) for _ in range(3))
        lhs = inner(2.0 * a + 0.5 * b, c)
        assert lhs == pytest.approx(2.0 * inner(a, c) + 0.5 * inner(b, c), abs=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            inner(np.eye(3), np.eye(4))


@seed(1)
@settings(max_examples=40, deadline=None)
@given(
    x=arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
    y=arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
)
def test_inner_symmetry_hypothesis(x, y):
    assert abs(inner(x, y) - inner(y, x)) <= 1e-12 * max(1.0, abs(inner(x, y)))


class TestCommutator:
    def test_hat_basis(self):
        np.testing.assert_allclose(commutator(E1, E2), E3, atol=1e-15)

    def test_self(self):
        a = random_skew(4, 3)
        assert np.linalg.norm(commutator(a, a)) == 0.0

    def test_jacobi_and_skewness(self):
        for trial in range(50):
            rng = np.random.default_rng(200 + trial)
            a, b, c = (random_skew(4, rng) for _ in range(3))
            jac = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert np.linalg.norm(jac) <= 1e-13
            assert skew_defect(commutator(a, b)) <= 1e-13

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            commutator(np.eye(3), np.eye(4))


@seed(2)
@settings(max_examples=40, deadline=None)
@given(x=arrays(np.float64, (3, 3), elements=st.floats(-3, 3)))
def test_commutator_of_skew_is_skew_hypothesis(x):
    a = 0.5 * (x - x.T)
    b = hat([1.0, -2.0, 0.5])
    assert skew_defect(commutator(a, b)) <= 1e-12


class TestMm:
    """`_mm` gives the bits of ``@`` on the operand layouts the step kernels pass
    to ``ndarray.dot`` (one state) and matmul (a stack)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 16])
    def test_matches_matmul(self, n):
        rng = np.random.default_rng(n)
        x, y = rng.standard_normal((2, n, n))
        z = rng.standard_normal((2 * n, n))  # a phase point, or a stack [Q; pi]
        xs, zs = rng.standard_normal((5, n, n)), rng.standard_normal((5, 2 * n, n))
        pairs = [
            (x, y),  # contiguous
            (x.T, y), (x, y.T), (x.swapaxes(-1, -2), y), (x.T, y.T),  # transposed views
            (z, x), (x, z[n:]), (z[:n].T, z[n:]), (z[n:].swapaxes(-1, -2), z[:n]),  # row slices
            (x.T, x), (x, x.T), (z[:n].T, z[:n]),  # one buffer on both sides
            # stacks: matmul, member by member, with a matrix or another stack
            (xs, x), (x, xs), (xs.swapaxes(-1, -2), xs), (zs, xs),
            (zs[:, :n].swapaxes(-1, -2), zs[:, n:]),
        ]
        for a, b in pairs:
            got, want = _mm(a, b), a @ b
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_flat_dot_of_two_matrices(self, n):
        # its 2-D branch takes ndarray.dot of the row-major entries
        rng = np.random.default_rng(n)
        x, y = rng.standard_normal((2, n, n))
        z = rng.standard_normal((2 * n, n))
        for a, b in [(x, y), (x.T, y), (z[:n], z[n:]), (z[:n].T, z[n:].T), (z, z)]:
            assert _flat_dot(a, b) == float(a.ravel() @ b.ravel())


class TestExpm:
    def test_zero(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_rodrigues(self):
        for theta in [0.3, 1.2, 2.5, -0.7]:
            np.testing.assert_allclose(
                expm(theta * E3), rodrigues([0, 0, 1], theta), atol=1e-14
            )

    def test_inverse_identity(self):
        a = random_skew(5, 17) * 3.0
        np.testing.assert_allclose(expm(a) @ expm(-a), np.eye(5), atol=1e-12)

    def test_rotation_invariants_up_to_norm_10(self):
        for trial in range(20):
            rng = np.random.default_rng(300 + trial)
            a = random_skew(4, rng)
            a *= 10.0 / np.linalg.norm(a)
            r = expm(a)
            assert orthogonality_defect(r) <= 1e-12
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = random_skew(5, rng) * rng.uniform(0.1, 10.0)
            oracle = eigendecomposition_oracle(a)
            assert np.linalg.norm(expm(a) - oracle) <= 1e-13 * max(
                1.0, np.linalg.norm(oracle)
            )

    def test_non_square(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    def test_degree_bounds_from_their_inequality(self):
        # theta_m: the largest x with x^(m+1)/(m+1)! e^x <= 2^-53, to 1%
        def tail(x, m):
            return x ** (m + 1) / math.factorial(m + 1) * math.exp(x)

        assert len(TAYLOR_THETA) == 11
        for m, theta in enumerate(TAYLOR_THETA, 1):
            assert tail(theta, m) <= 2.0 ** -53
            assert tail(1.01 * theta, m) > 2.0 ** -53

    @pytest.mark.parametrize("m, norm", NEAR_THETA)
    def test_degree_follows_the_one_norm(self, m, norm):
        # The degree a 1-norm needs follows it: at or below theta_m, m terms
        # already agree with the kernel's degree-12 sum to round-off, which
        # bounds what summing the full series moves at small arguments.
        a = with_one_norm(np.random.default_rng(m).uniform(-1.0, 1.0, (4, 4)), norm)
        np.testing.assert_array_equal(_expm_stack(a), taylor(a, 12))
        degree = m if norm <= TAYLOR_THETA[m - 1] else m + 1
        assert np.abs(_expm_stack(a) - taylor(a, degree)).max() <= 2.0 ** -52

    @pytest.mark.parametrize("m, norm", NEAR_THETA)
    def test_small_skew_matches_rodrigues(self, m, norm):
        rng = np.random.default_rng(40 + m)
        for _ in range(5):
            w = rng.normal(size=3)
            w *= norm / np.abs(hat(w)).sum(axis=0).max()
            np.testing.assert_allclose(
                expm(hat(w)), rodrigues(w, np.linalg.norm(w)), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("m, norm", NEAR_THETA)
    def test_small_skew_16_matches_eigendecomposition_oracle(self, m, norm):
        a = with_one_norm(random_skew(16, 60 + m), norm)
        np.testing.assert_allclose(
            expm(a), eigendecomposition_oracle(a), rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("m, norm", NEAR_THETA)
    def test_small_non_skew_matches_order_12_reference(self, m, norm):
        for n in (2, 3, 5):
            a = with_one_norm(random_sp(n, 80 + m), norm)
            want, _ = reference_expm(a)
            assert np.linalg.norm(expm(a) - want) <= 1e-15 * np.linalg.norm(want)


def taylor(b, degree):
    """I + b + ... + b^degree/degree!, summed term by term."""
    result = np.eye(b.shape[0])
    term = np.eye(b.shape[0])
    for k in range(1, degree + 1):
        term = term @ b / k
        result = result + term
    return result


def reference_expm(a):
    """Scaling and squaring with the order-12 Taylor sum, written apart
    from the kernel: the 1-norm from np.linalg.norm and fresh identities."""
    norm = np.linalg.norm(a, 1)
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    result = taylor(a / (2.0 ** squarings), 12)
    for _ in range(squarings):
        result = result @ result
    return result, squarings


class TestExpmKernel:
    @pytest.mark.parametrize("n", [3, 16])
    @pytest.mark.parametrize("norm, squarings", [(1e-9, 0), (1e-4, 0), (0.01, 0), (0.1, 0),
                                                 (0.243, 0), (0.3, 0), (0.8, 1), (20.0, 6)])
    def test_kernel_matches_public_and_reference_bitwise(self, n, norm, squarings):
        rng = np.random.default_rng(n)
        for _ in range(5):
            a = rng.uniform(-1.0, 1.0, (n, n))
            a *= norm / np.linalg.norm(a, 1)
            want, count = reference_expm(a)
            assert count == squarings
            np.testing.assert_array_equal(_expm(a, count), want)
            np.testing.assert_array_equal(_expm_stack(a), want)
            np.testing.assert_array_equal(expm(a), want)

    def test_squarings_follow_the_one_norm(self):
        # one heavy column: 1-norm 0.9 asks for a squaring, the inf-norm
        # (0.3) would not
        a = np.zeros((3, 3))
        a[:, 0] = 0.3
        want, count = reference_expm(a)
        assert count == 1
        np.testing.assert_array_equal(_expm_stack(a), want)
        np.testing.assert_array_equal(_expm(a, count), want)

    def test_cached_identity_is_not_modified(self):
        a = random_skew(3, 5)
        _, count = reference_expm(a)
        first = _expm(a, count)
        _expm(np.zeros((3, 3)), 0)[0, 0] = 7.0  # the result is the caller's own array
        np.testing.assert_array_equal(_expm(np.zeros((3, 3)), 0), np.eye(3))
        np.testing.assert_array_equal(_expm(a, count), first)
        np.testing.assert_array_equal(_expm_stack(a), first)


class TestSkewAsinh:
    def test_zero(self):
        np.testing.assert_array_equal(skew_asinh(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_hat_e3(self):
        a = skew_asinh(E3)
        np.testing.assert_allclose(a, (np.pi / 6.0) * E3, atol=1e-12)
        assert np.linalg.norm(expm(a) - expm(a).T - E3) <= 1e-10

    def test_block_diagonal(self):
        k = np.array([[0.0, -1.0], [1.0, 0.0]])
        p = np.zeros((4, 4))
        p[:2, :2] = 0.5 * k
        p[2:, 2:] = 1.5 * k
        a = skew_asinh(p)
        expected = np.zeros((4, 4))
        expected[:2, :2] = np.arcsin(0.25) * k
        expected[2:, 2:] = np.arcsin(0.75) * k
        np.testing.assert_allclose(a, expected, atol=1e-12)
        assert np.linalg.norm(expm(a) - expm(a).T - p) <= 1e-10

    def test_round_trip_100(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = scaled_skew(4, rng, rng.uniform(0.05, 1.9))
            a = skew_asinh(p)
            assert np.linalg.norm(expm(a) - expm(a).T - p) <= 1e-10
            # principal branch
            assert spectral_norm(a) < np.pi / 2

    def test_near_bound(self):
        rng = np.random.default_rng(43)
        for norm in [1.95, 1.999, 2.0 - 1e-7]:
            p = scaled_skew(5, rng, norm)
            a = skew_asinh(p)
            assert np.linalg.norm(expm(a) - expm(a).T - p) <= 1e-10
            assert spectral_norm(a) < np.pi / 2

    def test_out_of_range(self):
        p = scaled_skew(3, np.random.default_rng(44), 2.1)
        with pytest.raises(OutOfRangeError, match="bound 2"):
            skew_asinh(p)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
    def test_round_trip_to_roundoff(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(100):
            p = scaled_skew(n, rng, rng.uniform(0.05, 1.9))
            a = skew_asinh(p)
            e = expm(a)
            assert np.linalg.norm(e - e.T - p) <= 1e-13
            assert spectral_norm(a) < np.pi / 2


class TestPolarProject:
    def test_orthogonal_unchanged(self):
        q = random_rotation(4, 5)
        np.testing.assert_allclose(polar_project(q), q, atol=1e-14)

    def test_scaling(self):
        np.testing.assert_allclose(polar_project(2.0 * np.eye(3)), np.eye(3), atol=1e-15)

    def test_near_rotation(self):
        rng = np.random.default_rng(6)
        q = random_rotation(4, rng)
        eps = 1e-6
        m = q @ (np.eye(4) + eps * rng.uniform(-1, 1, (4, 4)))
        r = polar_project(m)
        # iterate-to-convergence oracle: X <- (X + X^{-T}) / 2
        x = m.copy()
        for _ in range(60):
            x_next = 0.5 * (x + np.linalg.inv(x).T)
            if np.linalg.norm(x_next - x) <= 1e-15:
                break
            x = x_next
        np.testing.assert_allclose(r, x, atol=1e-12)
        assert np.linalg.norm(r - q) <= 10.0 * eps

    def test_singular(self):
        m = np.eye(3)
        m[2, 2] = 0.0
        with pytest.raises(OutOfRangeError):
            polar_project(m)

    def test_negative_det(self):
        with pytest.raises(OutOfRangeError):
            polar_project(np.diag([1.0, 1.0, -1.0]))

    def test_singular_message_states_relative_test(self):
        with pytest.raises(OutOfRangeError, match=r"^singular input: smallest singular value "
                           r"1e-15 <= 1e-14 \* max\(1, largest 2\)$"):
            polar_project(np.diag([2.0, 1.0, 1e-15]))

    @pytest.mark.parametrize("lead", [(3,), (1, 3), (3, 1)], ids=["3", "1x3", "3x1"])
    @pytest.mark.parametrize("first, message", [
        ("flipped", "negative determinant"), ("singular", "singular input"),
    ], ids=["flipped-first", "singular-first"])
    def test_stack_fails_on_its_first_failing_member(self, first, message, lead):
        # Either test may find the first failure: a stack of a flipped and a
        # singular member, in either order, then a rotation, reports its
        # first member's failure, whatever leading axes hold the stack.
        bad = {"flipped": np.diag([1.0, 1.0, -1.0]), "singular": np.diag([1.0, 1.0, 0.0])}
        second = "singular" if first == "flipped" else "flipped"
        m = np.stack([bad[first], bad[second], np.eye(3)]).reshape(lead + (3, 3))
        with pytest.raises(OutOfRangeError, match=f"^{message}"):
            _polar_project(m)


class TestSymplecticMatrix:
    def test_n1(self):
        np.testing.assert_array_equal(symplectic_matrix(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_squares_to_minus_identity(self):
        j = symplectic_matrix(4)
        np.testing.assert_array_equal(j @ j, -np.eye(8))

    def test_is_symplectic(self):
        assert sp_group_defect(symplectic_matrix(3)) <= 1e-15

    def test_sp_inverse(self):
        s = random_sp_group(3, 7)
        np.testing.assert_allclose(sp_inverse(s) @ s, np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("function, argument, message", [
        (symplectic_matrix, 0, "n must be at least 1"),
        (sp_inverse, np.eye(3), "symplectic matrices have even size"),
        (sp_algebra_defect, np.eye(5), r"sp\(2n\) elements have even size"),
        (sp_group_defect, np.eye(3), r"Sp\(2n\) elements have even size"),
    ])
    def test_sizes_rejected(self, function, argument, message):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            function(argument)


class TestRandomGenerators:
    def test_deterministic(self):
        for gen in (random_skew, random_sp, random_rotation, random_sp_group):
            np.testing.assert_array_equal(gen(4, 123), gen(4, 123))

    def test_invariants(self):
        for trial in range(20):
            assert skew_defect(random_skew(3, trial)) == 0.0
            assert sp_algebra_defect(random_sp(3, trial)) <= 1e-13
            r = random_rotation(3, trial)
            assert orthogonality_defect(r) <= 1e-13
            assert abs(np.linalg.det(r) - 1.0) <= 1e-13
            assert sp_group_defect(random_sp_group(3, trial)) <= 1e-10

    def test_small_n_rejected(self):
        for gen in (random_skew, random_sp, random_rotation, random_sp_group):
            with pytest.raises(OutOfRangeError):
                gen(1, 0)

    def test_generator_stream(self):
        rng = np.random.default_rng(9)
        a = random_skew(3, rng)
        b = random_skew(3, rng)
        assert np.linalg.norm(a - b) > 0.0


class TestValidatorsRejectNonFinite:
    # every comparison with NaN is false, so a defect test alone passes NaN
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_require_skew(self, bad):
        m = hat([0.5, 0.6, 0.7])
        m[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            require_skew(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_require_rotation(self, bad):
        m = np.eye(3)
        m[2, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            require_rotation(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_polar_project(self, bad):
        m = np.eye(3)
        m[0, 2] = bad
        with pytest.raises(ValueError, match="^polar projection of a non-finite matrix$"):
            polar_project(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_expm(self, bad):
        a = np.eye(3)
        a[0, 1] = bad
        with pytest.raises(ValueError, match="^matrix exponential of a non-finite matrix$"):
            expm(a)

    def test_all_nan(self):
        m = np.full((3, 3), np.nan)
        for check in (require_skew, require_rotation):
            with pytest.raises(ValueError, match="non-finite"):
                check(m)

    def test_skew_asinh_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            skew_asinh(np.full((3, 3), np.nan))

    def test_skew_asinh_names_the_lift_bound(self):
        p = scaled_skew(3, np.random.default_rng(44), 2.1)
        with pytest.raises(OutOfRangeError, match="lift bound 2"):
            skew_asinh(p)
