"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from helpers import random_phase, scaled_skew, standard_pi0, standard_spec
from nrigid.body import (
    InertiaSpec,
    euler_rhs,
    hat,
    inertia_inverse,
    reduced_hamiltonian,
    vee,
)
from nrigid.cli import main
from nrigid.control import BvpProblem, shoot
from nrigid.errors import OutOfRangeError
from nrigid.integrate import (
    IntegratorConfig,
    integrate_euler,
    integrate_euler_poisson,
    integrate_symrep,
)
from nrigid.lift import mu0_of, solve_lift, verify_reduction
from nrigid.matcore import (
    commutator,
    expm,
    inner,
    random_rotation,
    random_skew,
    random_sp,
    random_sp_group,
    rotation_defect,
    spectral_norm,
)
from nrigid.moment import (
    level_set_defect,
    on_action,
    on_coadjoint,
    on_momentum,
    orbit_transporter,
    sp_action,
    sp_coadjoint,
    sp_momentum,
)
from nrigid.symrep import (
    hamiltonian,
    is_full_rank,
    one_form,
    phase_point,
    symplectic_form,
    symrep_rhs,
)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def reduction_case(n, seed):
    rng = np.random.default_rng(seed)
    spec = InertiaSpec(rng.uniform(0.5, 2.0, n))
    pi0 = scaled_skew(n, rng, 1.5)
    q0 = random_rotation(n, rng)
    return spec, q0, pi0


@pytest.fixture(scope="module")
def reduction_runs():
    """One co-integration per n at the pinned step, shared by criteria 1 and 2."""
    runs = {}
    for n, seed in [(3, 101), (4, 102), (5, 103)]:
        spec, q0, pi0 = reduction_case(n, seed)
        z0 = solve_lift(q0, pi0)
        cfg = IntegratorConfig("rk4", 1e-3, 10.0)
        start = time.perf_counter()
        traj_z = integrate_symrep(spec, z0, cfg)
        traj_pi = integrate_euler(spec, pi0, cfg)
        elapsed = time.perf_counter() - start
        runs[n] = {
            "spec": spec,
            "q0": q0,
            "pi0": pi0,
            "z0": z0,
            "traj_z": traj_z,
            "traj_pi": traj_pi,
            "elapsed": elapsed,
        }
    return runs


def test_criterion_01_reduction_theorem(reduction_runs):
    detail = []
    ok = True
    for n, run in reduction_runs.items():
        e_equiv = max(
            float(np.linalg.norm(on_momentum(z) - pi))
            for z, pi in zip(run["traj_z"].states, run["traj_pi"].states)
        )
        # The pinned step resolves the dynamics down to the roundoff floor,
        # so 4th-order decay under halving is measured where discretization
        # still dominates that floor.
        e_coarse = {
            h: verify_reduction(
                run["spec"], run["q0"], run["pi0"], IntegratorConfig("rk4", h, 10.0)
            )["e_equiv"]
            for h in (0.05, 0.025)
        }
        ratio = e_coarse[0.05] / e_coarse[0.025]
        ok = ok and e_equiv <= 1e-6 and ratio >= 12.0 and run["elapsed"] <= 10.0
        detail.append(
            f"n={n}: e_equiv={e_equiv:.2e}, halving ratio={ratio:.1f}, "
            f"{run['elapsed']:.1f}s"
        )
    report(1, "reduction-theorem", ok, "; ".join(detail))


def test_criterion_02_noether_conservation(reduction_runs):
    detail = []
    ok = True
    for n, run in reduction_runs.items():
        j_drift = float(np.max(run["traj_z"].audits["j_drift"]))
        h_channel = run["traj_z"].audits["hamiltonian"]
        h_drift = float(np.max(np.abs(h_channel - h_channel[0])))
        ok = ok and j_drift <= 1e-8 and h_drift <= 1e-8
        detail.append(f"n={n}: J drift={j_drift:.2e}, H drift={h_drift:.2e}")
    report(2, "noether-conservation", ok, "; ".join(detail))


def test_criterion_03_momentum_map_identities():
    worst_j = worst_m = 0.0
    for trial in range(200):
        rng = np.random.default_rng(3000 + trial)
        n = 3 + trial % 3
        z = random_phase(n, rng)
        xi = random_sp(n, rng)
        a = random_skew(n, rng)
        worst_j = max(worst_j, abs(inner(sp_momentum(z), xi) - one_form(z, xi @ z)))
        worst_m = max(worst_m, abs(inner(on_momentum(z), a) - one_form(z, z @ a)))
    ok = worst_j <= 1e-12 and worst_m <= 1e-12
    report(3, "momentum-map-identities", ok,
           f"worst residuals: sp={worst_j:.2e}, on={worst_m:.2e}")


def test_criterion_04_equivariance():
    worst_j = worst_m = 0.0
    flip = {n: np.diag([-1.0] + [1.0] * (n - 1)) for n in (3, 4, 5)}
    for trial in range(200):
        rng = np.random.default_rng(4000 + trial)
        n = 3 + trial % 3
        z = random_phase(n, rng)
        s = random_sp_group(n, rng)
        r = random_rotation(n, rng)
        if trial % 2 == 1:
            r = r @ flip[n]
        worst_j = max(worst_j, float(np.linalg.norm(
            sp_momentum(sp_action(s, z)) - sp_coadjoint(s, sp_momentum(z)))))
        worst_m = max(worst_m, float(np.linalg.norm(
            on_momentum(on_action(z, r)) - on_coadjoint(r, on_momentum(z)))))
    ok = worst_j <= 1e-11 and worst_m <= 1e-12
    report(4, "equivariance", ok, f"worst: J={worst_j:.2e}, M={worst_m:.2e}")


def test_criterion_05_invariance_of_structures():
    worst_h = worst_theta = 0.0
    for trial in range(200):
        rng = np.random.default_rng(5000 + trial)
        n = 3 + trial % 3
        spec = InertiaSpec(rng.uniform(0.5, 2.0, n))
        z = random_phase(n, rng)
        zdot = rng.uniform(-1.0, 1.0, (2 * n, n))
        s = random_sp_group(n, rng)
        r = random_rotation(n, rng)
        worst_h = max(worst_h, abs(hamiltonian(spec, s @ z) - hamiltonian(spec, z)))
        base = one_form(z, zdot)
        worst_theta = max(
            worst_theta,
            abs(one_form(sp_action(s, z), s @ zdot) - base),
            abs(one_form(on_action(z, r), zdot @ r) - base),
        )
    ok = worst_h <= 1e-11 and worst_theta <= 1e-11
    report(5, "invariance-of-structures", ok,
           f"worst: H={worst_h:.2e}, one-form={worst_theta:.2e}")


def test_criterion_06_reduced_form_consistency():
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(6000 + trial)
        n = 3 + trial % 3
        z = random_phase(n, rng)
        a, b = random_skew(n, rng), random_skew(n, rng)
        worst = max(worst, abs(
            symplectic_form(z @ a, z @ b) + inner(on_momentum(z), commutator(a, b))
        ))
    ok = worst <= 1e-12
    report(6, "reduced-form-consistency", ok, f"worst residual={worst:.2e}")


def test_criterion_07_orbit_transitivity():
    recovered = 0
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(7000 + trial)
        n = 3 + trial % 3
        z = random_phase(n, rng)
        r0 = random_rotation(n, rng)
        if trial % 2 == 1:
            r0 = r0 @ np.diag([-1.0] + [1.0] * (n - 1))
        err = float(np.linalg.norm(orbit_transporter(z, on_action(z, r0)) - r0))
        worst = max(worst, err)
        recovered += err <= 1e-10
    ok = recovered == 100
    report(7, "orbit-transitivity", ok, f"{recovered}/100 recovered, worst={worst:.2e}")


def test_criterion_08_lift_certification():
    worst_rot = worst_res = 0.0
    passed = 0
    for trial in range(100):
        rng = np.random.default_rng(8000 + trial)
        n = 3 + trial % 3
        q0 = random_rotation(n, rng)
        pi0 = scaled_skew(n, rng, rng.uniform(0.05, 1.9))
        z0 = solve_lift(q0, pi0)
        p0 = z0[n:]
        rot = rotation_defect(p0)
        res = float(np.linalg.norm(q0.T @ p0 - p0.T @ q0 - pi0))
        worst_rot = max(worst_rot, rot)
        worst_res = max(worst_res, res)
        passed += rot <= 1e-10 and res <= 1e-10 and is_full_rank(z0)
    refused = False
    try:
        solve_lift(np.eye(3), scaled_skew(3, np.random.default_rng(8100), 2.1))
    except OutOfRangeError:
        refused = True
    ok = passed == 100 and refused
    report(8, "lift-certification", ok,
           f"{passed}/100, worst rotation defect={worst_rot:.2e}, "
           f"worst residual={worst_res:.2e}, refusal at 2.1: {refused}")


def test_criterion_09_hamiltonian_vector_field():
    spec = standard_spec()
    step = 1e-5
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(9000 + trial)
        z = random_phase(3, rng)
        y = rng.uniform(-1.0, 1.0, (6, 3))
        lhs = symplectic_form(symrep_rhs(spec, z), y)
        rhs = (hamiltonian(spec, z + step * y) - hamiltonian(spec, z - step * y)) / (
            2.0 * step
        )
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-7
    report(9, "hamiltonian-vector-field", ok, f"worst residual={worst:.2e}")


def test_criterion_10_euler_oracles():
    spec = standard_spec()
    # n=3 cross-product equivalence
    worst_cross = 0.0
    rng = np.random.default_rng(10000)
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, 3)
        omega = vee(inertia_inverse(spec, hat(v)))
        worst_cross = max(worst_cross, float(np.linalg.norm(
            vee(euler_rhs(spec, hat(v))) - np.cross(v, omega))))
    # spectral Casimirs along a long run
    traj = integrate_euler(spec, standard_pi0(), IntegratorConfig("rk4", 1e-3, 10.0))
    spectra = traj.audits["casimir_spectrum"]
    casimir_drift = float(np.max(np.abs(spectra - spectra[0])))
    # relative equilibrium stays put
    eq = integrate_euler(spec, hat([0.8, 0.0, 0.0]), IntegratorConfig("rk4", 1e-3, 10.0))
    eq_drift = max(float(np.linalg.norm(s - eq.states[0])) for s in eq.states)
    ok = worst_cross <= 1e-13 and casimir_drift <= 1e-8 and eq_drift <= 1e-12
    report(10, "euler-oracles", ok,
           f"cross-product={worst_cross:.2e}, casimir drift={casimir_drift:.2e}, "
           f"equilibrium drift={eq_drift:.2e}")


def test_criterion_11_optimal_control():
    e3 = hat([0.0, 0.0, 1.0])
    e1 = hat([1.0, 0.0, 0.0])
    # spherical geodesic
    spec_s = InertiaSpec([1.0, 1.0, 1.0])
    cfg = IntegratorConfig("rk4", 5e-3, 1.0)
    problem = BvpProblem(spec=spec_s, q0=np.eye(3), q_target=expm(0.3 * e3),
                         t_final=1.0, cfg=cfg)
    sol = shoot(problem, tol=1e-7, max_iter=30, seed=11)
    u_dev = max(
        float(np.linalg.norm(inertia_inverse(spec_s, y[3:]) - 0.3 * e3))
        for y in sol.trajectory.states
    )
    spherical_ok = (
        sol.terminal_error <= 1e-6
        and u_dev <= 1e-5
        and abs(sol.cost - 0.09) <= 1e-5
        and sol.iterations <= 30
    )
    # non-spherical principal-axis target
    spec_n = standard_spec()
    problem2 = BvpProblem(spec=spec_n, q0=np.eye(3), q_target=expm(0.4 * e1),
                          t_final=1.0, cfg=cfg)
    sol2 = shoot(problem2, tol=1e-6, max_iter=60, seed=11)
    traj = sol2.trajectory
    ms = traj.states[:, 3:]
    h = traj.times[1] - traj.times[0]
    audit = max(
        float(np.linalg.norm((ms[k + 1] - ms[k - 1]) / (2 * h) - euler_rhs(spec_n, ms[k])))
        for k in range(1, len(ms) - 1)
    )
    nonspherical_ok = sol2.terminal_error <= 1e-6 and audit <= 1e-6
    ok = spherical_ok and nonspherical_ok
    report(11, "optimal-control", ok,
           f"spherical: terminal={sol.terminal_error:.2e}, U dev={u_dev:.2e}, "
           f"cost={sol.cost:.7f}, iters={sol.iterations}; "
           f"non-spherical: terminal={sol2.terminal_error:.2e}, audit={audit:.2e}")


def test_criterion_12_integrator_orders():
    spec = standard_spec()
    pi0 = 1.8 / np.linalg.norm([0.5, 0.6, 0.7]) * standard_pi0()
    z0 = solve_lift(np.eye(3), pi0)
    y0 = np.vstack([np.eye(3), pi0])

    def finals(kind, scheme, steps):
        out = []
        for h in steps:
            cfg = IntegratorConfig(scheme, h, 1.0)
            if kind == "euler":
                out.append(integrate_euler(spec, pi0, cfg).states[-1])
            elif kind == "symrep":
                out.append(integrate_symrep(spec, z0, cfg).states[-1])
            else:
                out.append(integrate_euler_poisson(spec, y0, cfg).states[-1])
        return out

    detail = []
    ok = True
    for kind in ("euler", "symrep", "euler-poisson"):
        for scheme, steps, floor in [
            ("rk4", (0.1, 0.05, 0.025), 12.0),
            ("rkmk4", (0.1, 0.05, 0.025), 12.0),
            ("midpoint", (0.05, 0.025, 0.0125), 3.5),
        ]:
            a, b, c = finals(kind, scheme, steps)
            ratio = float(np.linalg.norm(a - b) / np.linalg.norm(b - c))
            ok = ok and ratio >= floor
            detail.append(f"{kind}/{scheme}={ratio:.1f}")
    long_run = integrate_symrep(
        spec, solve_lift(np.eye(3), standard_pi0()), IntegratorConfig("rkmk4", 1e-3, 10.0)
    )
    orth = float(np.max(long_run.audits["orthogonality_defect"]))
    ok = ok and orth <= 1e-12
    report(12, "integrator-orders", ok,
           f"ratios: {', '.join(detail)}; rkmk4 orthogonality={orth:.2e}")


def test_criterion_13_cli_contract(tmp_path, capsys):
    base = {
        "n": 3,
        "lambda": [1.0, 2.0, 3.0],
        "q0": "identity",
        "pi0": [0.5, 0.6, 0.7],
        "integrator": {"scheme": "rk4", "step": 0.01, "t_final": 2.0},
        "seed": 42,
        "outputs": {"trajectory": "traj.csv", "report": "report.txt"},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base))
    code_a = main(["simulate", "symrep", "--config", str(cfg), "--out", str(tmp_path / "a")])
    code_b = main(["simulate", "symrep", "--config", str(cfg), "--out", str(tmp_path / "b")])
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("traj.csv", "report.txt")
    )

    bad = dict(base, **{"lambda": [1.0, 5.0, -1.5]})
    cfg.write_text(json.dumps(bad))
    validation = main(["simulate", "euler", "--config", str(cfg)])

    divergent = dict(base, pi0=[5.0, 6.0, 7.0],
                     integrator={"scheme": "rk4", "step": 5.0, "t_final": 500.0})
    cfg.write_text(json.dumps(divergent))
    divergence = main(["simulate", "euler-poisson", "--config", str(cfg), "--out", str(tmp_path)])

    gated = dict(base, tolerances={"e_equiv": 0.0})
    cfg.write_text(json.dumps(gated))
    tolerance = main(["verify-reduction", "--config", str(cfg), "--out", str(tmp_path)])

    capsys.readouterr()  # swallow the commands' own output
    ok = (
        code_a == 0 and code_b == 0 and identical
        and validation == 2 and divergence == 3 and tolerance == 4
    )
    report(13, "cli-contract", ok,
           f"byte-identical={identical}, exits: ok={code_a}, validation={validation}, "
           f"divergence={divergence}, tolerance={tolerance}")
