"""Span tracing of nrigid's public functions, from outside the package.

Every public function of every ``nrigid`` module is replaced, at each
module attribute that binds it (``nrigid.integrate.expm``,
``nrigid.lift.integrate_symrep``, ``nrigid.control.solve_lift``, the
defining module's own global, the package namespace), by one wrapper
that records a span: the function, its start and end, and the span that
was open when it was called.  Private helpers (leading underscore) stay
unwrapped, so their time is self time of the public caller.  The CLI's
argparse plumbing (``build_parser`` and the ``cmd_*`` handlers) also
stays unwrapped: its time, with the invariant battery it runs, is the
self time of ``cli.main``.

Spans are kept in flat arrays for one pass of a workload; `end_pass`
reduces them to ``<module>.<function>.calls``, ``.s`` (inclusive time)
and ``.self_s`` for every wrapped function, plus the integrator, lift
and shooting metrics derived from parent links, and drops them.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

import numpy as np

_INTEGRATORS = ("integrate.integrate_euler", "integrate.integrate_symrep",
                "integrate.integrate_euler_poisson")
# Audit calls made directly by integrate_*; the audit phase runs from
# the first of them to the integrator's return.
_AUDITS = ("body.reduced_hamiltonian", "moment.casimir_spectrum",
           "symrep.hamiltonian", "moment.sp_momentum",
           "matcore.orthogonality_defect", "moment.on_momentum")
# One evaluation of the vector field (or of the body velocity, for the
# Munthe-Kaas stages) calls exactly one of these directly from integrate_*.
_RHS = ("symrep.optimal_control", "body.inertia_inverse")
_LIFT_AND_INTEGRATION = ("lift.solve_lift", "lift.mu0_of",
                         "integrate.integrate_symrep", "integrate.integrate_euler")


def _untraced(module_name: str, name: str) -> bool:
    if name.startswith("_"):
        return True
    return module_name == "nrigid.cli" and (name == "build_parser" or name.startswith("cmd_"))


class Tracer:
    """Wraps nrigid's public functions and records one span per call."""

    def __init__(self):
        self._names: list[str] = []
        self._originals: list[tuple[types.ModuleType, str, object]] = []
        self._steps = 0
        self._reset()

    def _reset(self):
        self._fid = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every public nrigid function at every module binding."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "nrigid" or k.startswith("nrigid.")) and m is not None]
        wrappers: dict[object, object] = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith("nrigid.") or _untraced(home, value.__name__):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, home[len("nrigid."):] + "." + value.__name__)
                self._originals.append((module, name, value))
                setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, value in self._originals:
            setattr(module, name, value)
        self._originals.clear()

    def _wrap(self, fn, qualname: str):
        fid = len(self._names)
        self._names.append(qualname)
        counts_steps = qualname in _INTEGRATORS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer._fid)
            tracer._fid.append(fid)
            tracer._parent.append(stack[-1])
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._start[idx] = t0
                tracer._end[idx] = t1
            if counts_steps:
                tracer._steps += len(result) - 1
            return result

        return traced

    def begin_pass(self) -> None:
        self._reset()
        self._steps = 0

    def end_pass(self) -> dict:
        """Per-layer metrics of the spans recorded since `begin_pass`."""
        nfun = len(self._names)
        fid = np.frombuffer(self._fid, dtype=np.int32).astype(np.intp)
        parent = np.frombuffer(self._parent, dtype=np.int64).astype(np.intp)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        dur = end - start
        n = fid.size
        has_parent = parent >= 0
        child_dur = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        calls = np.bincount(fid, minlength=nfun)
        incl = np.bincount(fid, weights=dur, minlength=nfun)
        self_t = np.bincount(fid, weights=dur - child_dur, minlength=nfun)
        parent_fid = np.where(has_parent, fid[np.where(has_parent, parent, 0)], -1)
        ids = {name: i for i, name in enumerate(self._names)}

        def fids(names):
            return np.array([ids[x] for x in names if x in ids], dtype=np.intp)

        out = {}
        for i, fname in enumerate(self._names):
            out[f"{fname}.calls"] = int(calls[i])
            out[f"{fname}.s"] = float(incl[i])
            out[f"{fname}.self_s"] = float(self_t[i])

        # integrate_*: the audit phase starts at the first direct audit child.
        is_integ = np.isin(fid, fids(_INTEGRATORS))
        audit_start = np.where(is_integ, end, np.inf)
        audit_child = has_parent & np.isin(fid, fids(_AUDITS)) & np.isin(parent_fid, fids(_INTEGRATORS))
        np.minimum.at(audit_start, parent[audit_child], start[audit_child])
        audit_s = float(np.sum((end - audit_start)[is_integ]))
        step_s = float(np.sum(dur[is_integ])) - audit_s
        rhs_child = has_parent & np.isin(fid, fids(_RHS)) & np.isin(parent_fid, fids(_INTEGRATORS))
        rhs_child &= start < audit_start[np.where(has_parent, parent, 0)]
        rhs_evals = int(np.count_nonzero(rhs_child))
        steps = self._steps
        out["integrate.steps"] = steps
        out["integrate.rhs_evals_per_step"] = rhs_evals / steps if steps else 0.0
        out["integrate.step_s"] = step_s
        out["integrate.steps_per_s"] = steps / step_s if step_s > 0.0 else 0.0
        out["integrate.audit_s"] = audit_s

        is_verify = fid == ids.get("lift.verify_reduction", -1)
        lift_child = has_parent & np.isin(fid, fids(_LIFT_AND_INTEGRATION)) & (
            parent_fid == ids.get("lift.verify_reduction", -1))
        out["lift.compare_s"] = float(np.sum(dur[is_verify]) - np.sum(dur[lift_child]))

        shoot_id = ids.get("control.shoot", -1)
        out["control.objective_evals"] = int(np.count_nonzero(
            (fid == ids.get("integrate.integrate_symrep", -1)) & (parent_fid == shoot_id)))
        self._reset()
        return out
