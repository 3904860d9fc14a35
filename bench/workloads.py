"""The four benchmark workloads.

Each workload is built from the nrigid package object, a seed, a work
directory and a `Clock` (the set-up that `setup_s` times), runs one pass
over its operations per `run_pass` call, and checks the outputs it kept
with `check`, outside the timed passes.  Every pass runs the same
operations on the same inputs, so counts per pass repeat exactly and the
share of failed operations does not depend on how many passes fit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref


@dataclass
class Op:
    label: str
    seconds: float
    samples: tuple  # indices [first, end) of the calibration samples taken during it
    ok: bool = True
    error: str = ""


@dataclass
class PassResult:
    ops: list
    counts: dict = field(default_factory=dict)


class Clock:
    """Times operations while a timer signal samples the calibration kernel.

    With sampling started, SIGALRM fires every `interval` seconds of wall
    time; the handler runs at the next bytecode boundary, times one run of
    the kernel as a sample, and that time is left out of the operation it
    interrupted.  Samples are thus spread evenly over the timed passes,
    inside long operations too.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self._paused = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        ref.calibration_kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self._paused += dt

    def start_sampling(self) -> None:
        ref.calibration_kernel()  # warm-up, not recorded
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop_sampling(self) -> None:
        """Cancel the timer, then restore the previous handler; safe to repeat."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def op(self, label, fn, *args, **kwargs):
        """Run one operation; a raised exception makes it a failed operation."""
        first, t0, paused = len(self.samples), perf_counter(), self._paused
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted and reported, none stops the run
            seconds = perf_counter() - t0 - (self._paused - paused)
            op = Op(label, seconds, (first, len(self.samples)), False, f"{type(exc).__name__}: {exc}")
            return op, exc
        seconds = perf_counter() - t0 - (self._paused - paused)
        return Op(label, seconds, (first, len(self.samples))), result

    def calibrated(self, op: Op) -> float:
        """The operation's time over the mean sample taken during it.

        An operation too short to contain a sample takes the next one (or
        the last, at the end of a run).
        """
        first, end = op.samples
        inside = self.samples[first:end] or self.samples[min(first, len(self.samples) - 1):][:1]
        return op.seconds / statistics.fmean(inside)


def _cli(nr, argv):
    """cli.main with its standard output captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = nr.cli.main(argv)
    return code, buf.getvalue()


class Reduction:
    """`verify_reduction` on the README config under each scheme."""

    name = "reduction"
    # op_cal follows the README's example call, verify_reduction under rk4.
    primary = ("verify_rk4_s",)
    schemes = ("rk4", "rkmk4", "midpoint")
    lam = (1.0, 2.0, 3.0)
    m0 = (0.5, 0.6, 0.7)
    step, t_final = 1e-3, 10.0

    def __init__(self, nr, seed: int, workdir: Path, clock: Clock):
        self.clock = clock
        # The README config is fixed; the seed does not enter this workload.
        self.nr = nr
        self.spec = nr.InertiaSpec(self.lam)
        self.q0 = np.eye(3)
        self.pi0 = nr.hat(self.m0)
        self.cfgs = {s: nr.IntegratorConfig(s, self.step, self.t_final) for s in self.schemes}
        self.reports = []
        self.seeds = {}

    def run_pass(self) -> PassResult:
        ops, reports = [], {}
        for scheme in self.schemes:
            op, out = self.clock.op(f"verify_{scheme}_s", self.nr.verify_reduction,
                                    self.spec, self.q0, self.pi0, self.cfgs[scheme])
            ops.append(op)
            reports[scheme] = out if op.ok else None
        self.reports.append(reports)
        return PassResult(ops)

    def check(self) -> list:
        problems = []
        if any(r != self.reports[0] for r in self.reports):
            problems.append("verify_reduction reports differ between passes")
        # Euler solution at T against the cross-product integration at half
        # the step; bound C h^p T with C = 10 for each scheme's order p.
        m_ref = ref.euler_cross(self.lam, self.m0, self.t_final, self.step / 2)
        order = {"rk4": 4, "rkmk4": 4, "midpoint": 2}
        for scheme, report in self.reports[0].items():
            if report is None:
                continue
            for key, tol in ref.README_TOLERANCES.items():
                if not report[key] <= tol:
                    problems.append(f"{scheme}: {key} = {report[key]:.3g} exceeds {tol:g}")
            traj = self.nr.integrate_euler(self.spec, self.pi0, self.cfgs[scheme])
            err = float(np.linalg.norm(ref.vee3(traj.states[-1]) - m_ref))
            bound = 10.0 * self.step ** order[scheme] * self.t_final
            if not err <= bound:
                problems.append(f"{scheme}: Euler solution at T is {err:.3g} from the "
                                f"cross-product reference (bound {bound:.3g})")
        return problems


class SimulateLarge:
    """`nrigid simulate symrep` at n = 16 with CSV output, then the CSV reloaded."""

    name = "simulate-large"
    primary = ("simulate_s",)
    n = 16
    scheme, step, t_final = "rkmk4", 5e-3, 10.0

    def __init__(self, nr, seed: int, workdir: Path, clock: Clock):
        self.clock = clock
        self.nr = nr
        rng = np.random.default_rng([seed, 16])
        self.lam = rng.uniform(0.5, 2.0, self.n)
        x = rng.standard_normal((self.n, self.n))
        a = x - x.T
        self.pi0 = a * (1.5 / np.linalg.norm(a, 2))
        self.out = workdir / "simulate"
        self.config = workdir / "simulate.json"
        # `simulate` ignores --seed; the seed reaches it through the config.
        self.config.write_text(json.dumps({
            "n": self.n,
            "lambda": self.lam.tolist(),
            "q0": "identity",
            "pi0": self.pi0.tolist(),
            "integrator": {"scheme": self.scheme, "step": self.step, "t_final": self.t_final},
            "seed": seed,
            "outputs": {"trajectory": "traj.csv", "report": "report.txt"},
        }), encoding="utf-8")
        self.argv = ["simulate", "symrep", "--config", str(self.config), "--out", str(self.out)]
        self.seeds = {"config": [seed, 16]}
        self.codes, self.digests = [], []
        self.loaded = None

    def run_pass(self) -> PassResult:
        op, out = self.clock.op("simulate_s", _cli, self.nr, self.argv)
        ops = [op]
        csv = self.out / "traj.csv"
        if op.ok:
            self.codes.append(out[0])
            op2, loaded = self.clock.op("reload_s", self.nr.cli.load_trajectory_csv, csv)
            ops.append(op2)
            self.loaded = loaded if op2.ok else None
        counts = {"cli.csv_bytes": csv.stat().st_size if csv.exists() else 0}
        if csv.exists():
            self.digests.append(hashlib.sha256(csv.read_bytes()).hexdigest())
        return PassResult(ops, counts)

    def check(self) -> list:
        problems = []
        if any(code != 0 for code in self.codes):
            return [f"simulate exit codes {sorted(set(self.codes))}"]
        if len(set(self.digests)) > 1:
            problems.append("identical configs wrote different CSVs")
        if self.loaded is None:
            return problems + ["no reloaded trajectory to check"]
        header, rows = self.loaded
        csv = self.out / "traj.csv"
        steps = int(round(self.t_final / self.step))
        if rows.shape[0] != steps + 1:
            problems.append(f"{rows.shape[0]} rows, expected {steps + 1}")
        with open(csv, encoding="utf-8") as fh:
            own_header = fh.readline().rstrip("\n").split(",")
        own_rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        if own_header != header or own_rows.shape != rows.shape or not np.array_equal(
                own_rows.view(np.uint64), rows.view(np.uint64)):
            problems.append("load_trajectory_csv differs from numpy's parse of the CSV")
        n = self.n
        state = rows[:, 1:1 + 2 * n * n].reshape(-1, 2 * n, n)
        col = {name: i for i, name in enumerate(header)}
        h = rows[:, col["H"]]
        cas = rows[:, [col[f"casimir_{k + 1}"] for k in range(n)]]
        energy = ref.phase_energy(self.lam, state)
        if not np.allclose(h, energy, rtol=1e-12, atol=1e-14):
            problems.append(f"H column differs from the recomputed energy by "
                            f"{np.max(np.abs(h - energy)):.3g}")
        spectra = np.linalg.svd(ref.momentum_value(state), compute_uv=False)
        if not np.allclose(cas, spectra, rtol=0.0, atol=1e-12 * np.max(spectra)):
            problems.append(f"casimir columns differ from the recomputed singular values by "
                            f"{np.max(np.abs(cas - spectra)):.3g}")
        drift_h = float(np.max(np.abs(h - h[0])))
        drift_c = float(np.max(np.abs(cas - cas[0])))
        if not drift_h <= ref.README_TOLERANCES["energy_match"]:
            problems.append(f"energy drift {drift_h:.3g}")
        if not drift_c <= ref.README_TOLERANCES["casimir_drift"]:
            problems.append(f"Casimir drift {drift_c:.3g}")
        m0_gap = float(np.linalg.norm(ref.momentum_value(state[0]) - self.pi0))
        if not m0_gap <= 1e-10:
            problems.append(f"M(Z_0) is {m0_gap:.3g} from pi0")
        return problems


@dataclass
class _Target:
    label: str
    lam: tuple
    q_target: np.ndarray
    tol: float
    max_iter: int
    seed: int
    cost: float | None = None


class Steer:
    """`shoot` on the criterion-11 problems, seeded targets, and the capped target."""

    name = "steer"
    primary = ("solve_s",)
    step, t_final = 5e-3, 1.0
    n3_targets, n4_targets = 4, 2
    # Seeded solves run to 1e-10 so that every one takes three Gauss-Newton
    # iterations; at 1e-6 some stop after two, and per-seed cost would vary.
    seeded_tol = 1e-10
    capped_axis = (0.3, -0.2, 0.4)
    capped_fault = ("known fault: shoot keeps |pi0|_2 below the lift bound 2, but the "
                    "bound-free lift [Q0; Q0 pi0/2] reaches this target with |pi0|_2 ~ 2.077; "
                    "the docstring promises reason 'trust_region' for this case")

    def __init__(self, nr, seed: int, workdir: Path, clock: Clock):
        self.clock = clock
        self.nr = nr
        e1, e3 = ref.hat3((1.0, 0.0, 0.0)), ref.hat3((0.0, 0.0, 1.0))
        targets = [
            _Target("spherical", (1.0, 1.0, 1.0), ref.rotation3(0.3 * e3), 1e-7, 30, 11, 0.09),
            _Target("principal-axis", (1.0, 2.0, 3.0), ref.rotation3(0.4 * e1), 1e-6, 60, 11, 0.4),
        ]
        rng = np.random.default_rng([seed, 3])
        for k in range(self.n3_targets + self.n4_targets):
            n, lam = (3, (1.0, 2.0, 3.0)) if k < self.n3_targets else (4, (1.0, 1.5, 2.0, 2.5))
            qt = ref.plane_rotation(rng, n, rng.uniform(0.1, 0.3))
            targets.append(_Target(f"seeded-n{n}-{k}", lam, qt, self.seeded_tol, 30, k))
        self.capped = _Target("capped", (1.0, 2.0, 3.0),
                              ref.rotation3(ref.hat3(self.capped_axis)), 1e-6, 30, 0)
        self.targets = targets + [self.capped]
        cfg = nr.IntegratorConfig("rk4", self.step, self.t_final)
        self.problems = [
            nr.BvpProblem(nr.InertiaSpec(t.lam), np.eye(len(t.lam)), t.q_target, self.t_final, cfg)
            for t in self.targets
        ]
        self.seeds = {"targets": [seed, 3]}
        self.rounds = []

    def run_pass(self) -> PassResult:
        ops, sols, iterations = [], [], 0
        for target, problem in zip(self.targets, self.problems):
            label = "capped_s" if target is self.capped else "solve_s"
            op, out = self.clock.op(label, self.nr.shoot, problem, tol=target.tol,
                                    max_iter=target.max_iter, seed=target.seed)
            if op.ok:
                iterations += out.iterations
            elif isinstance(out, self.nr.ConvergenceError) and out.reason == "max_iter":
                iterations += target.max_iter
                op.error += f" [reason={out.reason}]"
            if not op.ok and target is self.capped:
                op.error += f" ({self.capped_fault})"
            ops.append(op)
            sols.append(out if op.ok else None)
        self.rounds.append(sols)
        return PassResult(ops, {"control.gn_iterations": iterations})

    def check(self) -> list:
        problems = []
        first = self.rounds[0]
        for sols in self.rounds[1:]:
            for a, b in zip(first, sols):
                if (a is None) != (b is None) or (a is not None and not np.array_equal(a.pi0, b.pi0)):
                    problems.append("shoot results differ between rounds")
                    break
        for target, sol in zip(self.targets, first):
            if sol is None:
                continue
            q = ref.euler_poisson_attitude(target.lam, sol.pi0, self.t_final, self.step / 4)
            err = float(np.linalg.norm(q - target.q_target))
            if not err <= target.tol:
                problems.append(f"{target.label}: the reference flow from pi0 ends "
                                f"{err:.3g} from the target (tol {target.tol:g})")
            if target.cost is not None and not abs(sol.cost - target.cost) <= 1e-5:
                problems.append(f"{target.label}: cost {sol.cost:.9g}, analytic {target.cost:g}")
        return problems


class Invariants:
    """`nrigid check-invariants` with a few thousand trials."""

    name = "invariants"
    primary = ("invariants_s",)
    trials = 3000
    identities = 8

    def __init__(self, nr, seed: int, workdir: Path, clock: Clock):
        self.clock = clock
        self.nr = nr
        battery_seed = int(np.random.default_rng([seed, 8]).integers(0, 2 ** 31))
        self.argv = ["check-invariants", "--seed", str(battery_seed), "--trials", str(self.trials)]
        self.seeds = {"battery": battery_seed}
        self.outputs = []

    def run_pass(self) -> PassResult:
        op, out = self.clock.op("invariants_s", _cli, self.nr, self.argv)
        if op.ok:
            self.outputs.append(out)
        return PassResult([op])

    def check(self) -> list:
        problems = []
        for code, text in self.outputs:
            lines = [ln for ln in text.splitlines() if ": " in ln]
            passed = [ln.split(": ")[1] for ln in lines]
            if code != 0 or len(passed) != self.identities or any(
                    p != f"{self.trials}/{self.trials}" for p in passed):
                problems.append(f"check-invariants exit {code}: {'; '.join(lines)}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Reduction, SimulateLarge, Steer, Invariants)}
# Per-pass counts that workloads report themselves; 0 where a workload has none.
PASS_COUNTS = ("control.gn_iterations", "cli.csv_bytes")
