"""The stacked-trajectory path: kernels over leading axes, audit channels
computed from the stacked states, and the reduction comparison over the
stacks, each checked against a loop of 2-D calls."""

import numpy as np
import pytest

from helpers import random_phase, scaled_skew
from nrigid.body import BodyState, InertiaSpec, inertia_apply, inertia_inverse, reduced_hamiltonian
from nrigid.control import trajectory_cost
from nrigid.errors import DimensionError
from nrigid.integrate import (
    IntegratorConfig,
    integrate_euler,
    integrate_euler_poisson,
    integrate_symrep,
)
from nrigid.lift import mu0_of, solve_lift, verify_reduction
from nrigid.matcore import (
    inner,
    orthogonality_defect,
    random_rotation,
    skew_defect,
)
from nrigid.moment import (
    casimir_spectrum,
    level_set_defect,
    on_momentum,
    sp_momentum,
)
from nrigid.symrep import hamiltonian, min_singular_value, optimal_control

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
            traj = integrate_euler_poisson(spec, BodyState(q=q0, pi=pi0), cfg)
        expected = reference_audits(kind, spec, traj.states)
        assert sorted(traj.audits) == sorted(expected)
        for name, values in expected.items():
            assert_ulps(traj.audits[name], np.array(values))

    def test_state_layout(self):
        spec, q0, pi0 = case(3)
        cfg = IntegratorConfig("rk4", CFG_STEP, CFG_T)
        steps = cfg.step_count()
        euler = integrate_euler(spec, pi0, cfg)
        symrep = integrate_symrep(spec, solve_lift(q0, pi0), cfg)
        assert isinstance(euler.states, np.ndarray) and euler.states.shape == (steps + 1, 3, 3)
        assert isinstance(symrep.states, np.ndarray) and symrep.states.shape == (steps + 1, 6, 3)
        both = integrate_euler_poisson(spec, BodyState(q=q0, pi=pi0), cfg)
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
