"""Byte check of the CLI: two source trees must give the same bytes.

    python tools/bytecheck.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout with ``src/nrigid``.  Every command runs as
``python -m nrigid`` in its own subprocess, with that tree's ``src`` alone
on ``PYTHONPATH`` and BLAS pinned to one thread, in a fresh working
directory.  The matrix is ``simulate`` (every kind), ``verify-reduction``,
``lift`` and ``solve-bvp`` on eight configs, each under every scheme with
``project_attitude`` off and on, and ``check-invariants`` with CI's
arguments (``--trials 20`` and ``--seed 42 --trials 193``) and with
``--seed 0 --trials 3000``.  The configs are:

* ``readme``: the README config (n = 3, lambda = (1, 2, 3), pi0 = (0.5, 0.6,
  0.7), h = 1e-3), T = 10, target the identity;
* ``ci``: the same with T = 0.1 and a 0.05 rad target about e3, as in CI;
* ``crit13``: criterion 13's config, h = 0.01, T = 2, a 0.37 rad target;
* ``crit13-divergent``: its divergent config, pi0 = (5, 6, 7), h = 5,
  T = 500, the same target;
* ``n5``: n = 5, h = 0.01, T = 2;
* ``n16``: n = 16, h = 0.005, T = 0.5;
* ``overflow``: pi0 = (500, 600, 700), h = 2, T = 400;
* ``backtrack``: CI's backtracking config, h = 0.05, T = 1, a 1.5 rad
  target about (0.6, -0.48, 0.64), tol 1e-8 and max_iter 8.  Its line
  search backtracks, so ``solve-bvp`` runs damped candidates alone and
  re-runs the iterates they reach with their probes: under rk4, plain, 9
  lone runs and 10 batches, then exit 5.

The exit codes, stdout, stderr and every output file of each run are
compared.  Each difference is printed; the last line is a summary.  Exits
1 on any difference, 0 when there is none, 2 on bad arguments.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

SCHEMES = ("rk4", "rkmk4", "midpoint")
# Each command's arguments, before ``--config``.
COMMANDS = {
    "simulate-euler": ["simulate", "euler", "--out", "out"],
    "simulate-symrep": ["simulate", "symrep", "--out", "out"],
    "simulate-euler-poisson": ["simulate", "euler-poisson", "--out", "out"],
    "verify-reduction": ["verify-reduction", "--out", "out"],
    "lift": ["lift"],
    "solve-bvp": ["solve-bvp", "--out", "out"],
}
# The arguments of each check-invariants run, which takes no config.
BATTERY = (("--trials", "20"), ("--seed", "42", "--trials", "193"),
           ("--seed", "0", "--trials", "3000"))
USAGE = "usage: python tools/bytecheck.py PARENT_ROOT CHANGE_ROOT"
# CI's backtracking target, expm(1.5 hat(0.6, -0.48, 0.64)) to the bits of
# nrigid's expm.  Rodrigues' formula misses it by 1.3e-15, and under rk4 the
# search then backtracks 4 times, not 9.
_BACKTRACK_TARGET = [[0.4052718090673312, -0.9060244773462954, -0.12196067901034448],
                     [0.37076910550689346, 0.28483935040346553, -0.8839665236101135],
                     [0.8356345081295472, 0.31302746031475115, 0.45136324386461274]]
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _axis_rotation(axis, angle):
    # Rodrigues' formula about a unit 3-vector.
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return (np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)).tolist()


def _plane_rotation(n, angle):
    # A rotation by angle in the plane of the first two axes.
    r = np.eye(n)
    r[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return r.tolist()


def _skew(n, seed, norm):
    a = np.random.default_rng(seed).standard_normal((n, n))
    a = a - a.T
    return (a * (norm / np.linalg.norm(a, 2))).tolist()


def configs() -> dict:
    """The eight base configs, by name; the integrator scheme is set per run."""
    readme = {
        "n": 3, "lambda": [1.0, 2.0, 3.0], "q0": "identity", "pi0": [0.5, 0.6, 0.7],
        "integrator": {"step": 0.001, "t_final": 10.0}, "seed": 42,
        "outputs": {"trajectory": "traj.csv", "report": "report.txt"},
        "tolerances": {"e_equiv": 1e-6, "level_set_defect": 1e-8},
        "bvp": {"q_target": "identity", "tol": 1e-6, "max_iter": 30},
    }
    target = _axis_rotation((0.6, -0.48, 0.64), 0.37)
    crit13 = dict(readme, integrator={"step": 0.01, "t_final": 2.0},
                  bvp={"q_target": target, "tol": 1e-6, "max_iter": 30})

    def larger(n, step, t_final):
        return dict(readme, n=n, **{"lambda": np.linspace(0.5, 2.0, n).tolist()},
                    pi0=_skew(n, n, 1.5), integrator={"step": step, "t_final": t_final},
                    bvp={"q_target": _plane_rotation(n, 0.2), "tol": 1e-6, "max_iter": 30})

    return {
        "readme": readme,
        "ci": dict(readme, integrator={"step": 0.001, "t_final": 0.1},
                   bvp={"q_target": _axis_rotation((0.0, 0.0, 1.0), 0.05),
                        "tol": 1e-6, "max_iter": 30}),
        "crit13": crit13,
        "crit13-divergent": dict(crit13, pi0=[5.0, 6.0, 7.0],
                                 integrator={"step": 5.0, "t_final": 500.0}),
        "n5": larger(5, 0.01, 2.0),
        "n16": larger(16, 0.005, 0.5),
        "overflow": dict(readme, pi0=[500.0, 600.0, 700.0],
                         integrator={"step": 2.0, "t_final": 400.0}),
        "backtrack": dict(readme, integrator={"step": 0.05, "t_final": 1.0},
                          bvp={"q_target": _BACKTRACK_TARGET, "tol": 1e-8, "max_iter": 8}),
    }


def cases(work: Path):
    """Each run's name and arguments, in order; writes the configs into work."""
    for config_name, base in configs().items():
        for scheme in SCHEMES:
            for project in (False, True):
                config = dict(base, integrator=dict(base["integrator"], scheme=scheme,
                                                    project_attitude=project))
                case = f"{config_name}/{scheme}/{'projected' if project else 'plain'}"
                path = work / (case.replace("/", "-") + ".json")
                path.write_text(json.dumps(config), encoding="utf-8")
                for command, args in COMMANDS.items():
                    yield f"{case}/{command}", [*args, "--config", str(path)]
    for args in BATTERY:
        name = "-".join(a.lstrip("-") for a in args)
        yield f"check-invariants/{name}", ["check-invariants", *args]


def _run(root: Path, argv, cwd: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in _THREAD_VARS})
    cwd.mkdir(parents=True)
    done = subprocess.run([sys.executable, "-m", "nrigid", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=1800)
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    return done.returncode, done.stdout, done.stderr, files


def _first_line_difference(a: bytes, b: bytes) -> str:
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    for k, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {k + 1}: {x!r} != {y!r}"
    return f"{len(la)} lines != {len(lb)} lines"


def compare(name, parent, change) -> list:
    """The differences between two runs' results, one line each."""
    out = []
    if parent[0] != change[0]:
        out.append(f"{name}: exit {parent[0]} != {change[0]}")
    for label, a, b in (("stdout", parent[1], change[1]), ("stderr", parent[2], change[2])):
        if a != b:
            out.append(f"{name}: {label} {_first_line_difference(a, b)}")
    for path in sorted(set(parent[3]) | set(change[3])):
        a, b = parent[3].get(path), change[3].get(path)
        if a is None or b is None:
            out.append(f"{name}: {path} only in {'change' if a is None else 'parent'}")
        elif a != b:
            out.append(f"{name}: {path} {_first_line_difference(a, b)}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    for root in roots:
        if not (root / "src" / "nrigid").is_dir():
            print(f"{root} has no src/nrigid", file=sys.stderr)
            return 2
    differences, runs, files = 0, 0, 0
    work = Path(tempfile.mkdtemp(prefix="nrigid-bytecheck-"))
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for name, argv in cases(work):
                sides = [pool.submit(_run, root, argv, work / side / name)
                         for side, root in zip(("parent", "change"), roots)]
                parent, change = (side.result() for side in sides)
                for line in compare(name, parent, change):
                    print(line, flush=True)
                    differences += 1
                runs += 1
                files += len(parent[3])
                shutil.rmtree(work / "parent")
                shutil.rmtree(work / "change")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{runs} runs a side, {files} output files at the parent: "
          f"{differences} difference{'' if differences == 1 else 's'}")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
