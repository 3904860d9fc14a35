"""nrigid benchmark: four user workloads timed end to end, per-layer metrics from a traced run.

Run one workload (prints the result as the last line, one JSON object):

    python3 bench/run.py --workload reduction --seed 1 --seconds 28 --trace 0

Run all four, each in its own fresh process, and keep the results:

    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 0 --out .bench_work/base.json

Compare two result files, one row per workload and end-to-end metric:

    python3 bench/run.py compare .bench_work/base.json .bench_work/new.json

BLAS is pinned to one thread before numpy is imported.  See README.md
in this directory for the workloads, the metrics and the reference
figures.
"""

from __future__ import annotations

import os

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is repeated and its median reported, so that a one-off cost
# (such as compiling bytecode on the first import in a checkout) does not
# decide the figure.  Some repeats run before the passes and the rest
# after the checks, so the figure covers the host's speed at two moments
# of the run rather than one.
SETUP_REPEATS_BEFORE, SETUP_REPEATS_AFTER = 8, 7
# Seconds between calibration samples (each about 10 ms) in untraced runs.
CALIBRATION_INTERVAL = 0.125


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_nrigid():
    """Import nrigid afresh from this checkout's src/ (and its CLI module)."""
    for name in [k for k in sys.modules if k == "nrigid" or k.startswith("nrigid.")]:
        del sys.modules[name]
    nr = importlib.import_module("nrigid")
    importlib.import_module("nrigid.cli")
    return nr


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def _provenance(nr, seed: int, seeds: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nrigid": nr.__version__,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "derived_seeds": seeds,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One workload in this process: set-up, timed passes, checks.

    Returns the result (the object printed as the last line) and a detail record
    with provenance, per-operation medians and failures.
    """
    spec = _spec()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (numpy's own import is not part of setup_s)
    from tracing import Tracer
    from workloads import PASS_COUNTS, WORKLOADS, Clock

    cls = WORKLOADS[name]
    clock = Clock(CALIBRATION_INTERVAL)
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    def set_up():
        t0 = perf_counter()
        nr = _import_nrigid()
        wl = cls(nr, seed, workdir, clock)
        setup_times.append(perf_counter() - t0)
        return nr, wl

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS_BEFORE):
            nr, wl = set_up()
        if not Path(nr.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"nrigid was imported from {nr.__file__}, not from {SRC}")

        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        else:
            clock.start_sampling()
        walls, passes, counts, layers = [], [], [], []
        t_start = perf_counter()
        while True:
            if tracer:
                tracer.begin_pass()
            res = wl.run_pass()
            # A pass's time is that of its operations, without calibration
            # samples and the bookkeeping between operations.
            walls.append(sum(op.seconds for op in res.ops))
            passes.append(res.ops)
            if len(passes) == 1:
                # Later passes repeat the same work; the heap they leave behind
                # depends on how many fit, so the first pass sets the figure.
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            counts.append(res.counts)
            if tracer:
                layers.append(tracer.end_pass())
            # Whole passes only: stop before a pass that would overrun.
            if perf_counter() - t_start + statistics.median(walls) > seconds:
                break
        clock.stop_sampling()
        if tracer:
            tracer.uninstall()
        problems = wl.check()
        for _ in range(SETUP_REPEATS_AFTER):
            set_up()
    finally:
        clock.stop_sampling()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    ops = [op for pass_ops in passes for op in pass_ops]
    per_op = {}
    for op in ops:
        if op.ok:
            per_op.setdefault(op.label, []).append(op.seconds)
    op_medians = {label: statistics.median(v) for label, v in sorted(per_op.items())}
    if name == "invariants" and "invariants_s" in op_medians:
        op_medians["trials_per_s"] = wl.trials / op_medians["invariants_s"]
    primary = [op for op in ops if op.ok and op.label in wl.primary]

    if trace:
        values = {}
        for key in spec["per_layer"]:
            metric = key["name"]
            if metric == "trace.wall_s":
                values[metric] = statistics.median(walls)
            elif metric in layers[0]:
                per_pass = [layer[metric] for layer in layers]
                middle = statistics.median_low if isinstance(per_pass[0], int) else statistics.median
                values[metric] = middle(per_pass)
            elif metric in PASS_COUNTS:
                values[metric] = statistics.median_low(c.get(metric, 0) for c in counts)
            else:
                raise KeyError(f"per-layer metric {metric!r} is not measured")
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_cal": statistics.fmean(sum(map(clock.calibrated, p)) for p in passes),
            "peak_rss_mib": peak_rss_mib,
            "op_cal": statistics.fmean(map(clock.calibrated, primary)) if primary else float("nan"),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failures = {}
    for op in ops:
        if not op.ok:
            failures[op.error] = failures.get(op.error, 0) + 1
    result = {
        "correct": not problems and bool(primary),
        "attempted": len(ops),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "provenance": _provenance(nr, seed, wl.seeds),
        "passes": len(walls),
        "pass_wall_s": walls,
        "wall_s": statistics.median(walls),
        "calibration_s": clock.samples,
        "setup_s": setup_times,
        "ops": op_medians,
        "failures": failures,
        "problems": problems,
    }
    return result, detail


def _print_run(result: dict, detail: dict) -> None:
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True))
    print(f"{detail['workload']}: {detail['passes']} passes, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for label, value in detail["ops"].items():
        print(f"  op {label} = {value:.6g}")
    for error, count in detail["failures"].items():
        print(f"  failed x{count}: {error}")
    for problem in detail["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


def _write(path: str, settings: dict, runs: dict) -> None:
    payload = {"settings": settings, "workloads": runs}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _run_all(args, settings: dict) -> int:
    from workloads import WORKLOADS

    runs, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            print(proc.stdout)
            ok = False
            continue
        for line in lines[:-1]:
            if not line.startswith(("provenance ", "detail ")):
                print(line)
        result = json.loads(lines[-1])
        detail = json.loads(next(ln[len("detail "):] for ln in lines if ln.startswith("detail ")))
        runs[name] = dict(result, detail=detail)
    if args.out:
        _write(args.out, settings, runs)
    return 0 if ok else 1


def compare(base_path: str, new_path: str) -> int:
    """Ratio new/base of each end-to-end metric, per workload; flags any outside its bound."""
    spec = _spec()
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))["workloads"]
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))["workloads"]
    for name, path, data in (("base", base_path, base), ("new", new_path, new)):
        commits = sorted({w["detail"]["provenance"]["commit"] for w in data.values()})
        print(f"{name}: {path} (commit {', '.join(commits)})")
    print(f"{'workload':<16} {'metric':<22} {'base':>12} {'new':>12} {'ratio':>8} {'bound':>6}  flag")
    regressed = False
    for workload in [w for w in base if w in new]:
        b, n = base[workload], new[workload]
        for m in spec["end_to_end"]:
            if m["name"] not in b["metrics"] or m["name"] not in n["metrics"]:
                continue
            bv, nv = b["metrics"][m["name"]]["value"], n["metrics"][m["name"]]["value"]
            ratio = nv / bv
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 / ratio - 1.0
            flag = "WORSE" if worse > m["bound"] else ("better" if -worse > m["bound"] else "")
            regressed = regressed or flag == "WORSE"
            print(f"{workload:<16} {m['name']:<22} {bv:>12.6g} {nv:>12.6g} {ratio:>8.4f} "
                  f"{m['bound']:>6g}  {flag}")
        for label in sorted(set(b["detail"]["ops"]) & set(n["detail"]["ops"])):
            bv, nv = b["detail"]["ops"][label], n["detail"]["ops"][label]
            print(f"{workload:<16} {'op ' + label:<22} {bv:>12.6g} {nv:>12.6g} {nv / bv:>8.4f}")
        if (b["failed"], b["attempted"]) != (n["failed"], n["attempted"]):
            print(f"{workload:<16} failed/attempted {b['failed']}/{b['attempted']} -> "
                  f"{n['failed']}/{n['attempted']}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE.json NEW.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="nrigid benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None, help="write the result file here")
    args = parser.parse_args(argv)
    if not (SRC / "nrigid" / "__init__.py").is_file():
        print(f"error: no nrigid sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    settings = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.workload == "all":
        return _run_all(args, settings)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_run(result, detail)
    if args.out:
        _write(args.out, settings, {args.workload: dict(result, detail=detail)})
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
