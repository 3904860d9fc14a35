"""Command-line front end: JSON configs in, CSV trajectories and
plain-text key-value reports out.

Exit codes: 0 success, 2 validation error, 3 divergence or rank loss,
4 tolerance or certification failure, 5 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .body import InertiaSpec, hat
from .control import BvpProblem, shoot
from .errors import (
    CertificationError,
    ConvergenceError,
    DivergenceError,
    RankLossError,
)
from .integrate import (
    IntegratorConfig,
    Trajectory,
    integrate_euler,
    integrate_euler_poisson,
    integrate_symrep,
)
from .lift import solve_lift, verify_reduction
from .matcore import require_rotation, require_skew, rotation_defect, skew_defect
from .moment import invariant_battery

__all__ = ["main", "load_config", "load_trajectory_csv"]

# The config's one description: each section's keys, in order, with the JSON
# kind of the value and its default: _REQUIRED, or None for an optional key
# that is left out of the checked section when the config leaves it out.
# "config" is the top level; a key of kind "object" names a section.
_REQUIRED = object()
_SCHEMA = {
    "config": {"n": ("integer", _REQUIRED), "lambda": ("array", _REQUIRED),
               "q0": ("attitude", "identity"), "pi0": ("array", None), "seed": ("integer", 0),
               "integrator": ("object", None), "outputs": ("object", {}),
               "tolerances": ("object", {}), "bvp": ("object", None)},
    "integrator": {"scheme": ("string", "rk4"), "step": ("number", _REQUIRED),
                   "t_final": ("number", _REQUIRED)},
    "tolerances": {"e_equiv": ("number", 1e-6), "level_set_defect": ("number", 1e-8),
                   "energy_match": ("number", 1e-6), "casimir_drift": ("number", 1e-8)},
    "outputs": {"trajectory": ("string", None), "report": ("string", None)},
    "bvp": {"q_target": ("attitude", "identity"), "tol": ("number", 1e-6),
            "max_iter": ("integer", 30)},
}

# How an error states what each kind expected, after the key it names.
_EXPECTED = {
    "integer": ": expected an integer",
    "number": ": expected a number",
    "string": ": expected a string",
    "object": ": expected an object",
    "array": ": expected a rectangular array of numbers",
    "attitude": ': expected "identity" or a rectangular array of numbers',
}


# Rows per chunk of the CSV writer.
_CSV_BLOCK = 32


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)  # bool is an int


def _is_array(value) -> bool:
    return isinstance(value, list) and all(_is_array(v) or _is_number(v) for v in value)


def _typed(kind, value, key):
    """``value`` in its Python form if it is of the JSON ``kind``; never converted."""
    if kind == "object" and isinstance(value, dict):
        return _read(value, key)
    if kind == "integer" and _is_number(value) and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind == "number" and _is_number(value) and value == value:  # NaN is unequal to itself
        return float(value)
    if (kind == "string" and isinstance(value, str)) or (
            kind == "attitude" and value == "identity"):
        return value
    if kind in ("array", "attitude") and _is_array(value):
        try:
            return np.asarray(value, dtype=float)
        except ValueError:  # a ragged array
            pass
    raise ValueError(f"{key}{_EXPECTED[kind]}, got {value!r}")


def _read(section: dict, name) -> dict:
    """The section ``name`` checked against ``_SCHEMA[name]``, defaults filled in."""
    keys = _SCHEMA[name]
    unknown = [key for key in section if key not in keys]
    if unknown:
        raise ValueError(f"{name}: unknown key {', '.join(map(repr, unknown))}; "
                         f"known keys: {', '.join(keys)}")
    read = {}
    for key, (kind, default) in keys.items():
        dotted = key if name == "config" else f"{name}.{key}"
        if key not in section and default is _REQUIRED:
            raise ValueError(f"config must provide {dotted!r}")
        if key in section or default is not None:
            read[key] = _typed(kind, section.get(key, default), dotted)
    return read


def _parse_matrix(value, n, what, require):
    # "identity" is the one string the schema lets through, as an attitude
    rows = np.eye(n) if isinstance(value, str) else np.asarray(value, dtype=float)
    if rows.shape != (n, n):
        raise ValueError(f"{what} must be an {n}x{n} matrix of rows, got shape {rows.shape}")
    try:
        return require(rows)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def load_config(path) -> dict:
    """Read a run configuration checked against `_SCHEMA`, and build its objects."""
    with open(path, "r", encoding="utf-8") as fh:
        config = _typed("object", json.load(fh), "config")
    n = config["n"]
    pi0 = config.get("pi0", np.zeros((n, n)))
    config["spec"] = spec = InertiaSpec(config["lambda"])
    if spec.n != n:
        raise ValueError(f"lambda has {spec.n} entries, expected n = {n}")
    config["cfg"] = IntegratorConfig(**config["integrator"]) if "integrator" in config else None
    config["q0"] = _parse_matrix(config["q0"], n, "q0", require_rotation)
    # Skew inputs are validated, never symmetrized silently.
    pi0 = hat(pi0) if n == 3 and pi0.shape == (3,) else pi0
    config["pi0"] = _parse_matrix(pi0, n, "pi0", require_skew)
    if "bvp" in config:
        bvp = config["bvp"]
        bvp["q_target"] = _parse_matrix(bvp["q_target"], n, "q_target", require_rotation)
        if not 0.0 < bvp["tol"] < np.inf:  # JSON's 1e400 reads as inf
            raise ValueError(f"bvp.tol must be positive and finite, got {bvp['tol']!r}")
    return config


def _out_path(args, config, key, default) -> Path:
    return (Path(args.out) if args.out else Path(".")) / config["outputs"].get(key, default)


def _make_out_dir(args) -> None:
    # made once a run has something to write, not before
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)


def _state_columns(kind, n):
    rows = {"euler": [("pi", i) for i in range(n)],
            "symrep": [("z", i) for i in range(2 * n)],
            "euler-poisson": [("q", i) for i in range(n)] + [("pi", i) for i in range(n)]}[kind]
    return [f"{name}_{i}_{j}" for name, i in rows for j in range(n)]


def _defect_channel(traj: Trajectory) -> np.ndarray:
    if traj.kind == "euler":
        return skew_defect(traj.states)
    return traj.audits["orthogonality_defect"]


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Write t, the row-major state, H, the Casimirs and the defect, 17 digits each.

    The bytes are exactly those of ``format(v, ".17g")`` for every value,
    joined by "," and ended by "\\n" per row, under the header line.  Rows
    go out in chunks of `_CSV_BLOCK`, each formatted whole by `csv_text`
    and written at once, so no full-length table is held in memory.
    """
    # csvtext is imported where a CSV is written or read, so that the commands
    # that handle none do not compile it where no bytecode is kept
    from .csvtext import csv_text

    n = traj.audits["casimir_spectrum"].shape[1]
    header = (
        ["t"]
        + _state_columns(traj.kind, n)
        + ["H"]
        + [f"casimir_{k + 1}" for k in range(n)]
        + ["defect"]
    )
    defects = _defect_channel(traj)
    states = traj.states.reshape(len(traj), -1)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(traj), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            fh.write(csv_text(np.column_stack([
                traj.times[rows],
                states[rows],
                traj.audits["hamiltonian"][rows],
                traj.audits["casimir_spectrum"][rows],
                defects[rows],
            ])))


def load_trajectory_csv(path):
    """Reload a trajectory CSV; returns (header, rows) with float64 rows.

    The rows are bit for bit those of ``np.loadtxt(fh, delimiter=",",
    ndmin=2)`` after the header line.  `csv_rows` reads them; a body it
    does not read, and every error, is left to ``np.loadtxt``.
    """
    from .csvtext import csv_rows

    with open(path, "rb") as fh:
        # a CR would end the header line sooner in text mode
        rows = None if b"\r" in fh.readline() else csv_rows(fh)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if rows is None:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, rows


def write_report(path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                fh.write(f"{key} = {_fmt(value)}\n")
            else:
                fh.write(f"{key} = {value}\n")


def _audit_summary(traj: Trajectory) -> dict:
    h = traj.audits["hamiltonian"]
    spectra = traj.audits["casimir_spectrum"]
    summary = {
        "steps": len(traj) - 1,
        "hamiltonian_initial": float(h[0]),
        "hamiltonian_drift": float(np.max(np.abs(h - h[0]))),
        "casimir_drift": float(np.max(np.abs(spectra - spectra[0]))),
        "max_defect": float(np.max(_defect_channel(traj))),
    }
    if "j_drift" in traj.audits:
        summary["j_drift"] = float(np.max(traj.audits["j_drift"]))
    return summary


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if config["cfg"] is None:
        raise ValueError("config must provide an 'integrator' section")
    spec, cfg = config["spec"], config["cfg"]
    csv_path = _out_path(args, config, "trajectory", f"{args.kind}_trajectory.csv")
    report_path = _out_path(args, config, "report", f"{args.kind}_report.txt")
    if csv_path.resolve() == report_path.resolve():
        raise ValueError(f"outputs.trajectory and outputs.report both name {csv_path}; "
                         "the report would overwrite the trajectory")
    if args.kind == "euler":
        traj = integrate_euler(spec, config["pi0"], cfg)
    elif args.kind == "symrep":
        z0 = solve_lift(config["q0"], config["pi0"])
        traj = integrate_symrep(spec, z0, cfg)
    else:
        traj = integrate_euler_poisson(spec, np.vstack([config["q0"], config["pi0"]]), cfg)
    _make_out_dir(args)
    write_trajectory_csv(csv_path, traj)
    report = {"kind": traj.kind, "scheme": cfg.scheme, "step": float(cfg.step),
              "t_final": float(cfg.t_final)}
    report.update(_audit_summary(traj))
    write_report(report_path, report)
    print(f"wrote {csv_path} and {report_path}")
    return 0


def cmd_verify_reduction(args) -> int:
    config = load_config(args.config)
    if config["cfg"] is None:
        raise ValueError("config must provide an 'integrator' section")
    report = verify_reduction(config["spec"], config["q0"], config["pi0"], config["cfg"])
    tolerances = config["tolerances"]
    report_path = _out_path(args, config, "report", "reduction_report.txt")
    _make_out_dir(args)
    entries = {}
    for key, tolerance in tolerances.items():
        entries[key] = report[key]
        entries[f"{key}_tolerance"] = tolerance
    write_report(report_path, entries)
    for key in tolerances:
        print(f"{key} = {_fmt(report[key])}")
    failed = [key for key, tolerance in tolerances.items() if report[key] > tolerance]
    if failed:
        print(f"tolerance exceeded: {', '.join(failed)}", file=sys.stderr)
        return 4
    return 0


def cmd_lift(args) -> int:
    config = load_config(args.config)
    z0 = solve_lift(config["q0"], config["pi0"])
    n = config["n"]
    q0, p0 = z0[:n], z0[n:]
    momentum_residual = float(np.linalg.norm(q0.T @ p0 - p0.T @ q0 - config["pi0"]))
    print("P0 =")
    for row in p0:
        print("  " + " ".join(_fmt(v) for v in row))
    print(f"rotation_defect = {_fmt(rotation_defect(p0))}")
    print(f"momentum_residual = {_fmt(momentum_residual)}")
    return 0


def cmd_solve_bvp(args) -> int:
    config = load_config(args.config)
    if config["cfg"] is None or "bvp" not in config:
        raise ValueError("config must provide 'integrator' and 'bvp' sections")
    problem = BvpProblem(
        spec=config["spec"],
        q0=config["q0"],
        q_target=config["bvp"]["q_target"],
        t_final=config["cfg"].t_final,
        cfg=config["cfg"],
    )
    sol = shoot(problem, tol=config["bvp"]["tol"],
                max_iter=config["bvp"]["max_iter"], seed=config["seed"])
    report_path = _out_path(args, config, "report", "bvp_report.txt")
    _make_out_dir(args)
    entries = {
        "terminal_error": sol.terminal_error,
        "cost": sol.cost,
        "iterations": sol.iterations,
    }
    for i in range(config["n"]):
        entries[f"pi0_row_{i}"] = " ".join(_fmt(v) for v in sol.pi0[i])
    write_report(report_path, entries)
    print(f"terminal_error = {_fmt(sol.terminal_error)}")
    print(f"cost = {_fmt(sol.cost)}")
    print(f"iterations = {sol.iterations}")
    return 0


def cmd_check_invariants(args) -> int:
    trials = args.trials
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    checks = invariant_battery(args.seed, trials)
    ok = True
    for name, passed in checks.items():
        print(f"{name}: {passed}/{trials}")
        ok = ok and passed == trials
    if not ok:
        print("invariant battery failed", file=sys.stderr)
        return 4
    print("all invariants passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrigid",
        description="n-dimensional rigid body runs and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one of the three systems")
    p_sim.add_argument("kind", choices=["euler", "symrep", "euler-poisson"])
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify-reduction", help="co-integrate both pictures and gate on tolerances")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify_reduction)

    p_lift = sub.add_parser("lift", help="construct the phase point for (q0, pi0)")
    p_lift.add_argument("--config", required=True)
    p_lift.set_defaults(func=cmd_lift)

    p_bvp = sub.add_parser("solve-bvp", help="shoot for the attitude boundary value problem")
    p_bvp.add_argument("--config", required=True)
    p_bvp.add_argument("--out", default=None)
    p_bvp.set_defaults(func=cmd_solve_bvp)

    p_chk = sub.add_parser("check-invariants", help="run the seeded property battery")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--trials", type=int, default=200)
    p_chk.set_defaults(func=cmd_check_invariants)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, RankLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
