"""The stacked-trajectory path: kernels over leading axes, audit channels
computed from the stacked states, and the reduction comparison over the
stacks, each checked against a loop of 2-D calls."""

import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import random_phase, scaled_skew
from nrigid.body import (
    InertiaSpec,
    _attitude_momentum_kernels,
    _euler_kernels,
    euler_poisson_rhs,
    inertia_apply,
    inertia_inverse,
    reduced_hamiltonian,
)
from nrigid.control import trajectory_cost
from nrigid.errors import ConvergenceError, DimensionError, DivergenceError
from nrigid import integrate
from nrigid.integrate import (
    IntegratorConfig,
    _cayley,
    _euler_poisson,
    _run,
    integrate_euler,
    integrate_euler_poisson,
    integrate_symrep,
)
from nrigid.lift import mu0_of, solve_lift, verify_reduction
from nrigid.matcore import (
    _expm,
    _expm_stack,
    _mm,
    commutator,
    expm,
    inner,
    orthogonality_defect,
    random_rotation,
    random_skew,
    random_sp,
    random_sp_group,
    skew_defect,
)
from nrigid.moment import (
    ad_star,
    casimir_spectrum,
    kks_form,
    level_set_defect,
    on_action,
    on_coadjoint,
    on_momentum,
    reduced_form_check,
    sp_action,
    sp_coadjoint,
    sp_momentum,
)
from nrigid.symrep import (
    _symrep_kernels,
    hamiltonian,
    min_singular_value,
    one_form,
    optimal_control,
    symplectic_form,
)

SCHEMES = ("rk4", "rkmk4", "midpoint")
# 301 states: two full audit blocks and a partial one.
CFG_STEP, CFG_T = 0.01, 3.0


def assert_ulps(actual, expected, maxulp=4):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_max_ulp(actual, expected, maxulp=maxulp)


def case(n, seed=0):
    rng = np.random.default_rng(seed)
    spec = InertiaSpec(rng.uniform(0.5, 2.0, n))
    q0 = random_rotation(n, rng)
    pi0 = scaled_skew(n, rng, 1.2)
    return spec, q0, pi0


class TestKernelsOverStacks:
    K = 7

    def stack(self, rng, shape, lead=(K,)):
        return rng.uniform(-1.0, 1.0, lead + shape)

    @pytest.mark.parametrize("lead", [(K,), (2, 3)])
    def test_square_kernels(self, lead):
        rng = np.random.default_rng(1)
        spec = InertiaSpec([0.8, 1.1, 1.7, 2.0])
        m = self.stack(rng, (4, 4), lead)
        w = self.stack(rng, (4, 4), lead)
        flat_m, flat_w = m.reshape(-1, 4, 4), w.reshape(-1, 4, 4)
        for kernel, reference in [
            (orthogonality_defect, [orthogonality_defect(x) for x in flat_m]),
            (skew_defect, [skew_defect(x) for x in flat_m]),
            (casimir_spectrum, [casimir_spectrum(x) for x in flat_m]),
            (lambda x: reduced_hamiltonian(spec, x),
             [reduced_hamiltonian(spec, x) for x in flat_m]),
            (lambda x: inertia_inverse(spec, x), [inertia_inverse(spec, x) for x in flat_m]),
            (lambda x: inner(x, w), [inner(x, y) for x, y in zip(flat_m, flat_w)]),
        ]:
            got = kernel(m)
            want = np.array(reference).reshape(got.shape)
            assert got.shape[: len(lead)] == lead
            assert_ulps(got, want)

    @pytest.mark.parametrize("lead", [(K,), (2, 3)])
    def test_phase_kernels(self, lead):
        rng = np.random.default_rng(2)
        n = 3
        spec = InertiaSpec([1.0, 2.0, 3.0])
        z = self.stack(rng, (2 * n, n), lead)
        flat = z.reshape(-1, 2 * n, n)
        mu0 = mu0_of(solve_lift(np.eye(n), scaled_skew(n, rng, 1.0)))
        for kernel, reference in [
            (lambda x: hamiltonian(spec, x), [hamiltonian(spec, x) for x in flat]),
            (sp_momentum, [sp_momentum(x) for x in flat]),
            (on_momentum, [on_momentum(x) for x in flat]),
            (lambda x: level_set_defect(x, mu0), [level_set_defect(x, mu0) for x in flat]),
            (min_singular_value, [min_singular_value(x) for x in flat]),
        ]:
            got = kernel(z)
            want = np.array(reference).reshape(got.shape)
            assert got.shape[: len(lead)] == lead
            assert_ulps(got, want)

    def test_matrix_calls_return_floats(self):
        rng = np.random.default_rng(3)
        spec = InertiaSpec([1.0, 2.0, 3.0])
        m = rng.uniform(-1.0, 1.0, (3, 3))
        z = random_phase(3, rng)
        mu0 = sp_momentum(z)
        for value in (
            orthogonality_defect(m),
            skew_defect(m),
            inner(m, m),
            reduced_hamiltonian(spec, m),
            hamiltonian(spec, z),
            level_set_defect(z, mu0),
            min_singular_value(z),
        ):
            assert type(value) is float

    def test_stack_shapes_validated(self):
        spec = InertiaSpec([1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            orthogonality_defect(np.zeros((4, 3, 2)))
        with pytest.raises(DimensionError):
            inner(np.zeros((4, 3, 3)), np.zeros((5, 3, 3)))
        with pytest.raises(DimensionError):
            inertia_inverse(spec, np.zeros((4, 2, 2)))
        with pytest.raises(DimensionError):
            on_momentum(np.zeros((4, 5, 3)))
        with pytest.raises(DimensionError):
            hamiltonian(spec, np.zeros(6))
        with pytest.raises(DimensionError):
            min_singular_value(np.zeros((4, 5, 3)))


class TestBatteryKernelsOverStacks:
    """The kernels of the invariant battery, bitwise against a loop of 2-D calls."""

    @staticmethod
    def points(lead, n=3, seed=4):
        rng = np.random.default_rng(seed)
        size = int(np.prod(lead))
        return {
            "z": rng.uniform(-1.0, 1.0, lead + (2 * n, n)),
            "zdot": rng.uniform(-1.0, 1.0, lead + (2 * n, n)),
            "s": np.array([random_sp_group(n, rng) for _ in range(size)]).reshape(lead + (2 * n, 2 * n)),
            "r": np.array([random_rotation(n, rng) for _ in range(size)]).reshape(lead + (n, n)),
            "a": np.array([random_skew(n, rng) for _ in range(size)]).reshape(lead + (n, n)),
            "b": np.array([random_skew(n, rng) for _ in range(size)]).reshape(lead + (n, n)),
        }

    KERNELS = {
        "one_form": lambda p: one_form(p["z"], p["zdot"]),
        "symplectic_form": lambda p: symplectic_form(p["z"], p["zdot"]),
        "sp_action": lambda p: sp_action(p["s"], p["z"]),
        "on_action": lambda p: on_action(p["z"], p["r"]),
        "sp_coadjoint": lambda p: sp_coadjoint(p["s"], sp_momentum(p["z"])),
        "on_coadjoint": lambda p: on_coadjoint(p["r"], on_momentum(p["z"])),
        "commutator": lambda p: commutator(p["a"], p["b"]),
        "ad_star": lambda p: ad_star(p["a"], p["b"]),
        "kks_form": lambda p: kks_form(on_momentum(p["z"]), p["a"], p["b"]),
        "reduced_form_check": lambda p: np.stack(reduced_form_check(p["z"], p["a"], p["b"]), axis=-1),
    }

    @pytest.mark.parametrize("lead", [(7,), (2, 3)])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_loop_bitwise(self, name, lead):
        kernel = self.KERNELS[name]
        stacked = self.points(lead)
        got = kernel(stacked)
        assert got.shape[: len(lead)] == lead
        flat = {key: value.reshape((-1,) + value.shape[len(lead):]) for key, value in stacked.items()}
        for k in range(int(np.prod(lead))):
            want = kernel({key: value[k] for key, value in flat.items()})
            np.testing.assert_array_equal(got.reshape((-1,) + got.shape[len(lead):])[k], want)

    def test_matrix_calls_keep_their_types(self):
        p = self.points(())
        for name in ("one_form", "symplectic_form", "kks_form"):
            assert type(self.KERNELS[name](p)) is float
        assert all(type(v) is float for v in reduced_form_check(p["z"], p["a"], p["b"]))
        for name in ("sp_action", "on_action", "sp_coadjoint", "on_coadjoint", "commutator", "ad_star"):
            value = self.KERNELS[name](p)
            assert isinstance(value, np.ndarray) and value.ndim == 2

    def test_leading_axes_broadcast(self):
        p = self.points((5,))
        s0 = p["s"][0]
        np.testing.assert_array_equal(sp_action(s0, p["z"]), np.array([sp_action(s0, z) for z in p["z"]]))
        np.testing.assert_array_equal(on_action(p["z"][0], p["r"]),
                                      np.array([on_action(p["z"][0], r) for r in p["r"]]))

    def test_stack_shapes_validated(self):
        z = np.zeros((4, 6, 3))
        with pytest.raises(DimensionError):
            sp_action(np.zeros((4, 4, 4)), z)
        with pytest.raises(DimensionError):
            on_action(z, np.zeros((4, 2, 2)))
        with pytest.raises(DimensionError):
            sp_coadjoint(np.zeros((4, 6, 6)), np.zeros((4, 4, 4)))
        with pytest.raises(DimensionError):
            on_coadjoint(np.zeros((4, 3, 3)), np.zeros((4, 2, 2)))
        with pytest.raises(DimensionError):
            one_form(z, np.zeros((5, 6, 3)))
        with pytest.raises(DimensionError):
            symplectic_form(z, np.zeros((6, 3)))
        with pytest.raises(DimensionError):
            commutator(np.zeros((4, 3, 3)), np.zeros((5, 3, 3)))
        # the level set's momentum value is still one matrix
        with pytest.raises(DimensionError):
            level_set_defect(z, np.zeros((4, 6, 6)))


class TestStackedInertia:
    """An `InertiaSpec` of stacked parameters is one body per leading index."""

    @pytest.mark.parametrize("lead", [(7,), (2, 3)])
    def test_matches_one_spec_per_member(self, lead):
        rng = np.random.default_rng(6)
        n = 4
        lam = rng.uniform(0.5, 2.0, lead + (n,))
        z = rng.uniform(-1.0, 1.0, lead + (2 * n, n))
        pi = on_momentum(z)
        spec = InertiaSpec(lam)
        assert spec.n == n
        got = {
            "hamiltonian": hamiltonian(spec, z),
            "reduced_hamiltonian": reduced_hamiltonian(spec, pi),
            "inertia_inverse": inertia_inverse(spec, pi),
            "inertia_apply": inertia_apply(spec, pi),
        }
        flat_lam, flat_z = lam.reshape(-1, n), z.reshape(-1, 2 * n, n)
        for k in range(len(flat_lam)):
            one = InertiaSpec(flat_lam[k])
            want = {
                "hamiltonian": hamiltonian(one, flat_z[k]),
                "reduced_hamiltonian": reduced_hamiltonian(one, on_momentum(flat_z[k])),
                "inertia_inverse": inertia_inverse(one, on_momentum(flat_z[k])),
                "inertia_apply": inertia_apply(one, on_momentum(flat_z[k])),
            }
            for name, value in got.items():
                np.testing.assert_array_equal(value.reshape((-1,) + value.shape[len(lead):])[k],
                                              want[name])

    def test_member_named_in_validation(self):
        with pytest.raises(ValueError, match=r"lambda\[1\]\[0\] \+ lambda\[1\]\[2\]"):
            InertiaSpec([[1.0, 2.0, 3.0], [1.0, 5.0, -1.0]])
        with pytest.raises(ValueError, match="finite"):
            InertiaSpec([[1.0, 2.0, 3.0], [1.0, np.nan, 1.0]])

    @pytest.mark.parametrize("kind", ["euler", "symrep", "euler-poisson"])
    def test_integrators_step_one_body(self, kind):
        spec = InertiaSpec([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        pi0 = scaled_skew(3, np.random.default_rng(7), 1.0)
        cfg = IntegratorConfig("rk4", 0.01, 0.1)
        with pytest.raises(DimensionError, match="one body"):
            if kind == "euler":
                integrate_euler(spec, pi0, cfg)
            elif kind == "symrep":
                integrate_symrep(spec, solve_lift(np.eye(3), pi0), cfg)
            else:
                integrate_euler_poisson(spec, np.vstack([np.eye(3), pi0]), cfg)


def squaring_count(a):
    # The halvings that bring the 1-norm of a down to 0.5.
    norm = np.abs(a).sum(axis=0).max()
    return 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))


class TestStackedExpm:
    """`_expm_stack` against `_expm` of each member at its own squaring count, bit for bit."""

    @pytest.mark.parametrize("m", [3, 6, 10])
    def test_members_span_several_orders(self, m):
        rng = np.random.default_rng(m)
        # 1-norms from 1e-9 to 40, so that the members fall into every
        # squaring count from 0 to 7
        norms = ([0.0, 1e-9] + list(np.geomspace(1e-6, 0.5, 8))
                 + list(0.75 * 2.0 ** np.arange(7)) + list(np.geomspace(0.6, 40.0, 7)))
        a = rng.uniform(-1.0, 1.0, (len(norms), m, m))
        a *= (np.array(norms) / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
        a[0] = 0.0
        counts = [squaring_count(member) for member in a]
        assert set(counts) == set(range(8))
        got = _expm_stack(a)
        for k in range(len(a)):
            np.testing.assert_array_equal(got[k], _expm(a[k], counts[k]))
        np.testing.assert_array_equal(got[0], np.eye(m))
        # and over two leading axes
        np.testing.assert_array_equal(_expm_stack(a.reshape(4, 6, m, m)), got.reshape(4, 6, m, m))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_random_group_elements_are_the_public_exponential(self, n):
        for seed in range(20):
            np.testing.assert_array_equal(random_rotation(n, seed), expm(random_skew(n, seed)))
            np.testing.assert_array_equal(random_sp_group(n, seed), expm(0.5 * random_sp(n, seed)))


class TestStackedCayley:
    """The rkmk4 step's Cayley chart over a stack ``(B, n, n)`` against each
    member alone, bit for bit: a batch axis through rkmk4 moves no member."""

    @pytest.mark.parametrize("n", [3, 4, 5, 16])
    def test_members_are_the_single_results(self, n):
        rng = np.random.default_rng(n)
        scales = np.geomspace(1e-4, 10.0, 9)[:, None, None]
        a = scales * np.stack([random_skew(n, rng) for _ in scales])
        omega = np.stack([random_skew(n, rng) for _ in scales])
        g, p, m = _cayley(n, np.matmul)(a)
        pulled = _mm(_mm(p, omega), m)
        eye, chart = np.eye(n), _cayley(n, np.ndarray.dot)
        for k in range(len(a)):
            one, one_p, one_m = chart(a[k])
            np.testing.assert_array_equal(g[k], one)
            np.testing.assert_array_equal(g[k], (eye + a[k]) @ np.linalg.inv(eye - a[k]))
            np.testing.assert_array_equal(pulled[k], _mm(_mm(one_p, omega[k]), one_m))

    @pytest.mark.parametrize("n", [3, 16])
    def test_failing_members_only(self, n):
        # Member 1 is non-finite, and member 3 makes I - a singular, which
        # LAPACK reports as a zero pivot.  Under the errstate that _run steps
        # in, the chart marks both with NaN and raises and warns nothing; the
        # other members are their single results.
        rng = np.random.default_rng(n)
        a = np.stack([0.5 * random_skew(n, rng) for _ in range(5)])
        a[1, 0, 1] = np.nan
        a[3] = np.eye(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                g = _cayley(n, np.matmul)(a)[0]
        assert np.isnan(g[[1, 3]]).all()
        eye, chart = np.eye(n), _cayley(n, np.ndarray.dot)
        for k in (0, 2, 4):
            np.testing.assert_array_equal(g[k], chart(a[k])[0])
            np.testing.assert_array_equal(g[k], (eye + a[k]) @ np.linalg.inv(eye - a[k]))


class TestBatchedRun:
    """`_run` over a batch ``(B, rows, n)`` against each member's own run,
    bit for bit, on the attitude-momentum field that `shoot` batches, on
    the Euler field and on the symmetric representation's field."""

    # Momenta of spectral norm 0.02, 0.5 and 2.5 take different numbers of
    # midpoint fixed-point iterations over a run.  A batch is made of some
    # of them, picked by index.  A phase point is lifted from its momentum,
    # which needs a norm below 2, so the last one has norm 1.5 there.
    NORMS = (0.02, 0.5, 2.5)
    STEPS = 40

    @staticmethod
    def counted(field, counts):
        # The field or velocity, counting the members it is evaluated on.
        def rhs(y):
            counts.append(1 if y.ndim == 2 else len(y))
            return field(y)
        return rhs

    def run(self, kind, spec, y0, cfg, counts):
        kernels, rotations = {"euler": (_euler_kernels, ()),
                              "symrep": (_symrep_kernels, ("Q", "P")),
                              "euler-poisson": (_attitude_momentum_kernels, ("attitude",))}[kind]

        def counted(spec, mm):
            field, velocity, act = kernels(spec, mm)
            return self.counted(field, counts), self.counted(velocity, counts), act

        return _run(spec, y0, cfg, counted, rotations=rotations)

    def members(self, kind, n, picks=(0, 1, 2)):
        rng = np.random.default_rng(n)
        out = []
        for norm in self.NORMS:
            pi0 = scaled_skew(n, rng, min(norm, 1.5) if kind == "symrep" else norm)
            if kind == "euler":
                out.append(pi0)
            else:
                q0 = random_rotation(n, rng)
                out.append(solve_lift(q0, pi0) if kind == "symrep" else np.vstack([q0, pi0]))
        return np.stack(out)[list(picks)]

    @pytest.mark.parametrize("n", [3, 4, 5, 16])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind, project_attitude, picks", [
        ("euler-poisson", False, (0, 1, 2)), ("euler-poisson", True, (0, 1, 2)),
        ("euler", False, (0, 1, 2)),
        # A batch of one, and two identical members, which finish on the
        # same midpoint iteration: neither is ever re-indexed.
        ("euler-poisson", True, (1,)), ("euler-poisson", True, (1, 1)),
        ("symrep", False, (0, 1, 2)), ("symrep", True, (0, 1, 2)),
    ], ids=["euler-poisson-False", "euler-poisson-True", "euler-False",
            "euler-poisson-True-one", "euler-poisson-True-twins", "symrep-False", "symrep-True"])
    def test_members_are_their_single_runs(self, kind, project_attitude, picks, scheme, n):
        # A batch stores its first member's states: the batch is run once
        # with each member first, and that member's states and every
        # member's last state must equal their single runs.
        spec = InertiaSpec(np.linspace(0.5, 2.0, n))
        cfg = IntegratorConfig(scheme, 0.025, 0.025 * self.STEPS, project_attitude=project_attitude)
        y0 = self.members(kind, n, picks)
        singles, single_counts = [], []
        for b in range(len(y0)):
            counts = []
            single = self.run(kind, spec, y0[b], cfg, counts)
            assert single[3] is None
            np.testing.assert_array_equal(single[2], single[1][-1])
            singles.append(single)
            single_counts.append(sum(counts))
        for b in range(len(y0)):
            batch_counts = []
            times, states, last, failure = self.run(kind, spec, np.roll(y0, -b, axis=0), cfg,
                                                    batch_counts)
            assert failure is None
            assert states.shape == (self.STEPS + 1,) + y0.shape[1:]
            assert last.shape == y0.shape
            np.testing.assert_array_equal(times, singles[b][0])
            np.testing.assert_array_equal(states, singles[b][1])
            for k in range(len(y0)):
                np.testing.assert_array_equal(last[k], singles[(b + k) % len(y0)][1][-1])
            # Each member is evaluated as often as in its own run: under
            # midpoint a member whose fixed point has converged is not
            # iterated further.
            assert sum(batch_counts) == sum(single_counts)
            if len(set(picks)) == 1:
                assert set(batch_counts) == {len(y0)}, batch_counts
        if scheme != "midpoint":
            assert single_counts == [4 * self.STEPS] * len(y0)
        elif len(set(picks)) == len(picks):
            assert len(set(single_counts)) == len(single_counts), single_counts

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_start_check_covers_every_member(self, scheme):
        # Member 2's attitude is 2I: projection needs a rotation there, so
        # the batch is refused before its first step evaluates any field.
        spec = InertiaSpec(np.linspace(0.5, 2.0, 3))
        cfg = IntegratorConfig(scheme, 0.025, 0.025 * self.STEPS, project_attitude=True)
        y0 = self.members("euler-poisson", 3)
        y0[2, :3] = 2.0 * np.eye(3)
        counts = []
        with pytest.raises(ValueError, match="project_attitude needs rotation blocks; "
                                             "attitude: matrix is not a rotation"):
            self.run("euler-poisson", spec, y0, cfg, counts)
        assert counts == []
        # without projection the same batch steps
        unprojected = IntegratorConfig(scheme, cfg.step, cfg.t_final)
        assert self.run("euler-poisson", spec, y0, unprojected, counts)[3] is None

    def test_batch_holds_one_runs_history(self):
        # n = 8 and 28 probes, as `shoot` batches them, over 1000 steps: the
        # batch stores one member's states, so its peak allocation stays
        # within twice that history, where the 29 histories would take 29
        # times as much.
        n, steps = 8, 1000
        spec = InertiaSpec(np.linspace(0.5, 2.0, n))
        cfg = IntegratorConfig("rk4", 1e-3, 1e-3 * steps)
        rng = np.random.default_rng(8)
        q0 = random_rotation(n, rng)
        y0 = np.stack([np.vstack([q0, scaled_skew(n, rng, 1.0)]) for _ in range(29)])
        history = (steps + 1) * y0[0].nbytes
        tracemalloc.start()
        try:
            _, states, last = _euler_poisson(spec, y0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (steps + 1, 2 * n, n) and last.shape == y0.shape
        assert peak < 2 * history, (peak, history)

    def test_midpoint_stops_on_each_members_own_norm(self, monkeypatch):
        # The tolerance is set to a member's first fixed-point increment, as
        # its own run measures it, where a norm over the stack's last two
        # axes reads larger: that member must stop after one iteration in
        # the batch as it does alone.
        spec, h = InertiaSpec([1.0, 2.0, 3.0]), 0.05

        def start(seed):
            rng = np.random.default_rng(seed)
            return np.vstack([random_rotation(3, rng), scaled_skew(3, rng, 1.0)])

        for seed in range(200):
            y = start(seed)
            m = y + (0.5 * h) * euler_poisson_rhs(spec, y)
            d = y + (0.5 * h) * euler_poisson_rhs(spec, m) - m
            if np.linalg.norm(d[None], axis=(-2, -1))[0] > np.linalg.norm(d):
                break
        else:
            pytest.skip("no start whose stacked norm differs from its own on this platform")
        monkeypatch.setattr(integrate, "_MIDPOINT_TOL", float(np.linalg.norm(d)))
        cfg = IntegratorConfig("midpoint", h, h)
        y0 = np.stack([start(seed + 1), y, start(seed + 2)])
        _, _, last, failure = self.run("euler-poisson", spec, y0, cfg, [])
        assert failure is None
        for b in range(len(y0)):
            _, one, _, _ = self.run("euler-poisson", spec, y0[b], cfg, [])
            np.testing.assert_array_equal(last[b], one[-1])

    # Under rkmk4, member 1 overflows at step 1 with norm 1e4 and at step 11
    # with norm 3e3; projected, its attitude at step 8 has no nearby rotation.
    @pytest.mark.parametrize("scheme, failing, project_attitude, expected", [
        ("rk4", 1000.0, False, DivergenceError),
        ("rkmk4", 1e4, False, DivergenceError),
        ("rkmk4", 3e3, False, DivergenceError),
        ("rkmk4", 3e3, True, DivergenceError),
        ("midpoint", 300.0, False, ConvergenceError),
    ], ids=["rk4-1000.0-DivergenceError", "rkmk4-10000.0-DivergenceError",
            "rkmk4-3000.0-DivergenceError", "rkmk4-3000.0-projected-DivergenceError",
            "midpoint-300.0-ConvergenceError"])
    def test_batch_stops_at_first_failing_step(self, scheme, failing, project_attitude, expected):
        # Member 1 fails; the batch stops at the step at which that member's
        # own run fails, with that run's exception, and holds what member 0
        # and every member reached before it.
        spec = InertiaSpec([1.0, 2.0, 3.0])
        cfg = IntegratorConfig(scheme, 0.05, 2.0, project_attitude=project_attitude)
        rng = np.random.default_rng(0)
        q0 = random_rotation(3, rng)
        y0 = np.stack([np.vstack([q0, scaled_skew(3, rng, norm)])
                       for norm in (0.5, failing, 1.0)])
        times, states, last, exc = self.run("euler-poisson", spec, y0, cfg, [])
        one_times, one_states, one_last, one_exc = self.run("euler-poisson", spec, y0[1], cfg, [])
        assert type(exc) is type(one_exc) is expected
        assert str(exc) == str(one_exc)
        assert getattr(exc, "step_index", None) == getattr(one_exc, "step_index", None)
        np.testing.assert_array_equal(times, one_times)
        np.testing.assert_array_equal(last[1], one_last)
        np.testing.assert_array_equal(last[1], one_states[-1])
        for b in (0, 2):
            _, good, _, none = self.run("euler-poisson", spec, y0[b], cfg, [])
            assert none is None
            np.testing.assert_array_equal(last[b], good[len(times) - 1])
            if b == 0:
                np.testing.assert_array_equal(states, good[:len(times)])


def reference_audits(kind, spec, states):
    """Per-state loops of the 2-D public kernels over a trajectory."""
    if kind == "euler":
        return {
            "hamiltonian": [reduced_hamiltonian(spec, s) for s in states],
            "casimir_spectrum": [casimir_spectrum(s) for s in states],
        }
    if kind == "symrep":
        n = spec.n
        j0 = sp_momentum(states[0])
        return {
            "hamiltonian": [hamiltonian(spec, z) for z in states],
            "j_drift": [float(np.linalg.norm(sp_momentum(z) - j0)) for z in states],
            "orthogonality_defect": [
                max(orthogonality_defect(z[:n]), orthogonality_defect(z[n:])) for z in states
            ],
            "casimir_spectrum": [casimir_spectrum(on_momentum(z)) for z in states],
            "on_momentum": [on_momentum(z) for z in states],
            "rank_margin": [min_singular_value(z) for z in states],
        }
    n = spec.n
    return {
        "hamiltonian": [reduced_hamiltonian(spec, y[n:]) for y in states],
        "casimir_spectrum": [casimir_spectrum(y[n:]) for y in states],
        "orthogonality_defect": [orthogonality_defect(y[:n]) for y in states],
    }


class TestStackedTrajectories:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", ["euler", "symrep", "euler-poisson"])
    def test_audits_match_per_state_kernels(self, kind, scheme):
        spec, q0, pi0 = case(4)
        cfg = IntegratorConfig(scheme, CFG_STEP, CFG_T)
        if kind == "euler":
            traj = integrate_euler(spec, pi0, cfg)
        elif kind == "symrep":
            traj = integrate_symrep(spec, solve_lift(q0, pi0), cfg)
        else:
            traj = integrate_euler_poisson(spec, np.vstack([q0, pi0]), cfg)
        expected = reference_audits(kind, spec, traj.states)
        assert sorted(traj.audits) == sorted(expected)
        for name, values in expected.items():
            assert_ulps(traj.audits[name], np.array(values))

    def test_state_layout(self):
        spec, q0, pi0 = case(3)
        cfg = IntegratorConfig("rk4", CFG_STEP, CFG_T)
        steps = cfg.steps
        euler = integrate_euler(spec, pi0, cfg)
        symrep = integrate_symrep(spec, solve_lift(q0, pi0), cfg)
        assert isinstance(euler.states, np.ndarray) and euler.states.shape == (steps + 1, 3, 3)
        assert isinstance(symrep.states, np.ndarray) and symrep.states.shape == (steps + 1, 6, 3)
        both = integrate_euler_poisson(spec, np.vstack([q0, pi0]), cfg)
        # one stack [Q; pi]: attitude in rows :n, momentum in rows n:
        assert isinstance(both.states, np.ndarray) and both.states.shape == (steps + 1, 6, 3)
        np.testing.assert_array_equal(both.states[0, :3], q0)
        np.testing.assert_array_equal(both.states[0, 3:], pi0)
        # the momentum block runs the same recursion as the Euler picture
        np.testing.assert_array_equal(both.states[:, 3:], euler.states)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_verify_reduction_matches_reference_loop(self, scheme):
        spec, q0, pi0 = case(3, seed=4)
        cfg = IntegratorConfig(scheme, CFG_STEP, CFG_T)
        report = verify_reduction(spec, q0, pi0, cfg)

        z0 = solve_lift(q0, pi0)
        mu0 = mu0_of(z0)
        traj_z = integrate_symrep(spec, z0, cfg)
        traj_pi = integrate_euler(spec, pi0, cfg)
        e_equiv = max(
            float(np.linalg.norm(on_momentum(z) - pi))
            for z, pi in zip(traj_z.states, traj_pi.states)
        )
        level = max(level_set_defect(z, mu0) for z in traj_z.states)
        energy = max(
            abs(hamiltonian(spec, z) - reduced_hamiltonian(spec, pi))
            for z, pi in zip(traj_z.states, traj_pi.states)
        )
        spectra = [casimir_spectrum(on_momentum(z)) for z in traj_z.states]
        casimir = max(float(np.max(np.abs(s - spectra[0]))) for s in spectra)
        assert_ulps(
            [report[k] for k in ("e_equiv", "level_set_defect", "energy_match", "casimir_drift")],
            [e_equiv, level, energy, casimir],
        )

    def test_cost_integrand_is_the_control_effort(self):
        spec, q0, pi0 = case(3, seed=5)
        cfg = IntegratorConfig("rk4", 0.01, 1.0)
        traj = integrate_symrep(spec, solve_lift(q0, pi0), cfg)
        effort = np.array([
            0.5 * inner(inertia_apply(spec, u), u)
            for u in (optimal_control(spec, z) for z in traj.states)
        ])
        h = 0.01
        simpson = h / 3.0 * (
            effort[0] + effort[-1] + 4.0 * np.sum(effort[1:-1:2]) + 2.0 * np.sum(effort[2:-2:2])
        )
        assert abs(trajectory_cost(spec, traj) - simpson) <= 1e-14 * simpson
