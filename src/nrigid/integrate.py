"""Fixed-step integrators for the three dynamical systems.

Three schemes are provided:

* ``rk4``: the classical 4th-order Runge-Kutta scheme on the flat matrix
  space of the state.
* ``rkmk4``: a 4th-order Munthe-Kaas scheme in the Cayley chart
  cay(theta) = (I + theta/2)(I - theta/2)^-1.  Each system evolves along
  a group action generated by the body velocity (right translation for
  the phase point and the attitude, conjugation for the momentum); each
  stage pulls its velocity back through the chart's exact inverse tangent.
  For skew velocities cay is a rotation, with no truncation (Diele, Lopez
  & Peluso, Adv. Comput. Math. 8, 1998; Iserles et al., Acta Numer. 9, 2000).
* ``midpoint``: the implicit midpoint rule with fixed-point iteration,
  the simplest symplectic scheme on the flat phase space.  It conserves
  the quadratic first integrals of the flow to fixed-point tolerance.

The schemes step the package's own fields (`euler_rhs`, `symrep_rhs`, the
attitude-momentum field of `euler_poisson_rhs`) and body velocities, so
`verify_reduction` compares the flows the package publishes.  Each
integrator takes its initial state in the layout of its states (a momentum,
a phase point, a stack ``[Q; pi]``), so a run can restart from any state of
another.  Inputs are checked once, at the boundary, and the step loop calls
the unchecked kernels behind those functions; rkmk4 adds one n x n inverse
per stage.

Every accepted step is written into one stacked array.  The invariant
audits, the rank margin of the phase points among them, are computed from
the stack after the run, over blocks of states.  The step loop also takes
a batch of initial states along a leading axis, whose members step as
their own runs bit for bit; it stores the states of the first member and
the last state of each.  `shoot` runs its candidates with their
forward-difference probes that way.  `RankLossError` names the
first state below full rank, also when a later step failed first.  No
step-size adaptivity: runs are reproducible and admit clean order checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .body import InertiaSpec, reduced_hamiltonian
from .body import _attitude_momentum_velocity, _euler_poisson_rhs, _euler_rhs, _inertia_inverse
from .errors import ConvergenceError, DimensionError, DivergenceError, RankLossError
from .matcore import (
    _frobenius,
    _identity,
    _polar_project,
    orthogonality_defect,
    require_rotation,
    require_skew,
)
from .moment import casimir_spectrum, on_momentum, sp_momentum
from .symrep import FULL_RANK_TOL, _optimal_control, _symrep_rhs, min_singular_value

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate_euler",
    "integrate_symrep",
    "integrate_euler_poisson",
]

_SCHEMES = ("rk4", "rkmk4", "midpoint")

# States per block of the audit pass.  It bounds the temporaries of the
# audits, the 2n x 2n symplectic momentum values above all, whatever the
# length of the trajectory.
_AUDIT_BLOCK = 128


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str
    step: float
    t_final: float
    project_attitude: bool = False
    midpoint_tol: float = 1e-13
    midpoint_max_iter: int = 100

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise ValueError("step must be positive and finite")
        if not (self.t_final > 0.0 and np.isfinite(self.t_final)):
            raise ValueError("t_final must be positive and finite")
        if self.step > self.t_final:
            raise ValueError("step must not exceed t_final")
        if not (self.midpoint_tol > 0.0):
            raise ValueError("midpoint_tol must be positive")
        if self.midpoint_max_iter < 1:
            raise ValueError("midpoint_max_iter must be at least 1")

    def step_count(self) -> int:
        k = round(self.t_final / self.step)
        if abs(k * self.step - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(
                f"t_final {self.t_final} is not an integer multiple of step {self.step}"
            )
        return int(k)


@dataclass
class Trajectory:
    """Time-stamped states plus named invariant audit channels.

    ``states`` is one ``(N+1, ...)`` array: momenta ``(N+1, n, n)`` for
    ``euler``, and ``(N+1, 2n, n)`` phase points for ``symrep`` or stacks
    ``[Q; pi]`` for ``euler-poisson``.  Each audit channel holds one
    value (or row) per state.
    """

    kind: str
    times: np.ndarray
    states: np.ndarray
    audits: dict

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        for name, channel in self.audits.items():
            if len(channel) != len(self.times):
                raise ValueError(f"audit channel {name!r} has inconsistent length")

    def __len__(self) -> int:
        return len(self.times)


def _rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * h) * k1)
    k3 = rhs(y + (0.5 * h) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _cayley(a):
    # The Cayley chart at theta = 2a, over the last two axes: cay(theta),
    # and the exact inverse of its left-trivialised tangent, which pulls a
    # body velocity omega at cay(theta) back to theta' = (I + a) omega (I - a).
    eye = _identity(a.shape[-1])
    p, m = eye + a, eye - a
    return p @ np.linalg.inv(m), lambda omega: p @ omega @ m


def _rkmk4_step(omega_of, act, y, h):
    # Classical RK4 on the chart variable theta from 0 at y; a = theta/2.
    def stage(a):
        g, pull_back = _cayley(a)
        return pull_back(omega_of(act(g, y)))

    k1 = omega_of(y)
    k2 = stage((0.25 * h) * k1)
    k3 = stage((0.25 * h) * k2)
    k4 = stage((0.5 * h) * k3)
    g, _ = _cayley((h / 12.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return act(g, y)


def _midpoint_step(rhs, y, h, tol, max_iter):
    m = y + (0.5 * h) * rhs(y)
    for _ in range(max_iter):
        m_next = y + (0.5 * h) * rhs(m)
        delta = float(np.linalg.norm(m_next - m))
        m = m_next
        if delta <= tol:
            return 2.0 * m - y
    raise ConvergenceError(
        f"implicit midpoint fixed point did not reach {tol:g} in {max_iter} iterations"
    )


def _midpoint_batch_step(rhs, y, h, tol, max_iter):
    # `_midpoint_step` on each member of a batch (B, ...), which stops at its
    # own iteration count: a member whose test passes is frozen, and only the
    # members still iterating are evaluated.  The test takes the norm of each
    # member alone, as the single step does; a norm over the stack's last two
    # axes sums in another order and can differ in the last bit.
    out = np.empty_like(y)
    active = np.arange(len(y))
    m = y + (0.5 * h) * rhs(y)
    for _ in range(max_iter):
        y_active = y[active]
        m_next = y_active + (0.5 * h) * rhs(m)
        d = m_next - m
        done = np.array([float(np.linalg.norm(d[k])) <= tol for k in range(len(active))])
        out[active[done]] = 2.0 * m_next[done] - y_active[done]
        active, m = active[~done], m_next[~done]
        if not active.size:
            return out
    raise ConvergenceError(
        f"implicit midpoint fixed point did not reach {tol:g} in {max_iter} iterations"
    )


def _conjugate(g, pi):
    return g.swapaxes(-2, -1) @ pi @ g


def _translate(g, z):
    return z @ g


def _translate_and_conjugate(g, y):
    # Attitude translated, momentum conjugated, on stacks [Q; pi] over the last two axes.
    n = y.shape[-1]
    return np.concatenate([_translate(g, y[..., :n, :]), _conjugate(g, y[..., n:, :])], axis=-2)


def _project_rotations(blocks, y):
    # In place on a step's fresh result, whose shape and finiteness _run has checked.
    n = y.shape[-1]
    for k in range(0, blocks * n, n):
        y[..., k:k + n, :] = _polar_project(y[..., k:k + n, :])
    return y


def _projection(cfg, y0, names):
    # With project_attitude, the projection after each step of the leading
    # blocks that `names` names, which must be rotations in y0 (in each
    # member of a batch): projection repairs drift; from any other block it
    # changes the flow, or fails.  rkmk4 keeps rotations to round-off, so
    # there it only adds round-off.
    if not cfg.project_attitude:
        return None
    n = y0.shape[-1]
    for member in y0.reshape((-1,) + y0.shape[-2:]):
        for k, what in enumerate(names):
            try:
                require_rotation(member[k * n:(k + 1) * n])
            except ValueError as exc:
                raise ValueError(f"project_attitude needs rotation blocks; {what}: {exc}") from exc
    return partial(_project_rotations, len(names))


def _step(advance, project, y, i):
    y = advance(y)
    if not np.isfinite(y).all():
        raise DivergenceError(f"non-finite state at step {i}", step_index=i)
    return y if project is None else project(y)


def _run(spec, y0, cfg: IntegratorConfig, rhs, omega_of, act, project=None):
    """Step y0 by the field rhs(spec, y), or by omega_of(spec, y) and act(g, y) for rkmk4.

    y0 is one state ``(rows, n)``, or a batch ``(B, rows, n)`` of states
    whose members step together; each member's states are those of its own
    run bit for bit.  Returns the times, the stored states ``(N+1, rows,
    n)``, the last of them for every member and the failure of the step
    that failed, or None.  A batch stores the states of its first member
    only, so it holds one run's history whatever B is.  A failed run
    returns what it stored before that step, and its failure is that
    step's exception; a batch stops at the first step at which any member
    fails, and which member failed is left to the caller.
    """
    steps = cfg.step_count()
    h, tol, max_iter = cfg.step, cfg.midpoint_tol, cfg.midpoint_max_iter
    field, velocity = partial(rhs, spec), partial(omega_of, spec)
    y = np.array(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("initial state has non-finite entries")
    batch = y.ndim == 3
    if cfg.scheme == "rk4":
        advance = lambda y: _rk4_step(field, y, h)
    elif cfg.scheme == "rkmk4":
        advance = lambda y: _rkmk4_step(velocity, act, y, h)
    elif batch:
        advance = lambda y: _midpoint_batch_step(field, y, h, tol, max_iter)
    else:
        advance = lambda y: _midpoint_step(field, y, h, tol, max_iter)
    states = np.empty((steps + 1,) + y.shape[-2:])
    states[0] = y[0] if batch else y
    times = np.arange(steps + 1) * h
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for i in range(1, steps + 1):
            try:
                y = _step(advance, project, y, i)
            except (ConvergenceError, DivergenceError, ValueError) as exc:
                return times[:i], states[:i], y, exc
            states[i] = y[0] if batch else y
    return times, states, y, None


def _audit(states, channels) -> dict:
    """Evaluate audit channels over a stacked trajectory, block by block.

    ``channels`` maps each name to a function of a block of states that
    returns one value (or row) per state.
    """
    audits = {}
    for start in range(0, len(states), _AUDIT_BLOCK):
        block = states[start:start + _AUDIT_BLOCK]
        for name, channel in channels.items():
            values = channel(block)
            if name not in audits:
                audits[name] = np.empty((len(states),) + values.shape[1:])
            audits[name][start:start + len(block)] = values
    return audits


def _one_body(spec: InertiaSpec) -> None:
    if spec.lam.ndim != 1:
        raise DimensionError(f"the integrators step one body, got lambda of shape {spec.lam.shape}")


def integrate_euler(spec: InertiaSpec, pi0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the Euler equation for the body momentum.

    Audits: the reduced energy and the singular-value spectrum of the
    momentum (constant on the coadjoint orbit).
    """
    _one_body(spec)
    pi0 = require_skew(np.asarray(pi0, dtype=float))
    if pi0.shape != (spec.n, spec.n):
        raise DimensionError(f"momentum has shape {pi0.shape}, expected {(spec.n, spec.n)}")
    times, states, _, failure = _run(spec, pi0, cfg, _euler_rhs, _inertia_inverse, _conjugate)
    if failure is not None:
        raise failure
    audits = _audit(states, {
        "hamiltonian": lambda b: reduced_hamiltonian(spec, b),
        "casimir_spectrum": casimir_spectrum,
    })
    return Trajectory("euler", times, states, audits)


def integrate_symrep(spec: InertiaSpec, z0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the symmetric representation from a full-rank phase point.

    Audits: the phase-space energy, the drift of the conserved symplectic
    momentum value, the orthogonality defect of the two blocks, the
    singular-value spectrum of the orthogonal momentum value, and the rank
    margin `min_singular_value`, whose first value below `FULL_RANK_TOL`
    raises `RankLossError`, also when a later step failed.

    With ``project_attitude`` both blocks are polar-projected after every
    step, and both blocks of ``z0`` must be rotations, as they are for
    points constructed by `solve_lift`; any other start raises ValueError.
    """
    _one_body(spec)
    z0 = np.asarray(z0, dtype=float)
    n = spec.n
    if z0.shape != (2 * n, n):
        raise DimensionError(f"phase point has shape {z0.shape}, expected {(2 * n, n)}")
    times, states, _, failure = _run(
        spec, z0, cfg, _symrep_rhs, _optimal_control, _translate,
        project=_projection(cfg, z0, ("Q block of z0", "P block of z0")))
    # The rank alone first: its loss wins over a later failure, and other audits may overflow.
    margin = _audit(states, {"rank_margin": min_singular_value})["rank_margin"]
    lost = np.flatnonzero(margin < FULL_RANK_TOL)
    if lost.size:
        i, s = int(lost[0]), float(margin[lost[0]])
        raise RankLossError(f"phase point left the full-rank set at step {i} "
                            f"(min singular value {s:.3g})",
                            step_index=i, min_singular_value=s)
    if failure is not None:
        raise failure
    j0 = sp_momentum(states[0])
    audits = _audit(states, {
        "j_drift": lambda b: _frobenius(sp_momentum(b) - j0),
        "orthogonality_defect": lambda b: np.maximum(
            orthogonality_defect(b[:, :n]), orthogonality_defect(b[:, n:])
        ),
        "on_momentum": on_momentum,
    })
    audits["hamiltonian"] = reduced_hamiltonian(spec, audits["on_momentum"])  # H(Z) = h(Z^T J Z)
    audits["casimir_spectrum"] = casimir_spectrum(audits["on_momentum"])
    audits["rank_margin"] = margin
    return Trajectory("symrep", times, states, audits)


def _euler_poisson(spec: InertiaSpec, y0, cfg: IntegratorConfig):
    """The attitude-momentum run behind `integrate_euler_poisson` and `shoot`.

    y0 is one stack ``[Q; pi]``, or a batch ``(B, 2n, n)`` of them that
    steps as B runs.  Returns the audited trajectory of the first member,
    the last state of every member and None; or None, None and the
    failure of `_run`.
    """
    times, states, last, failure = _run(spec, y0, cfg, _euler_poisson_rhs,
                                        _attitude_momentum_velocity, _translate_and_conjugate,
                                        project=_projection(cfg, y0, ("the attitude block of y0",)))
    if failure is not None:
        return None, None, failure
    n = spec.n
    audits = _audit(states, {
        "hamiltonian": lambda b: reduced_hamiltonian(spec, b[:, n:]),
        "casimir_spectrum": lambda b: casimir_spectrum(b[:, n:]),
        "orthogonality_defect": lambda b: orthogonality_defect(b[:, :n]),
    })
    return Trajectory("euler-poisson", times, states, audits), last, None


def integrate_euler_poisson(spec: InertiaSpec, y0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate attitude and body momentum together from the stack ``y0 = [Q; pi]``.

    ``y0`` is one ``(2n, n)`` array, the layout of the states, so a run can
    restart from any state of another.  The momentum subsystem is
    decoupled: under ``rk4`` and ``rkmk4`` its recursion is that of
    `integrate_euler` bit for bit, under ``midpoint`` (whose stopping test
    also sees the attitude) to the fixed-point tolerance.  Audits: reduced
    energy, momentum spectrum, and the orthogonality defect of the
    attitude.  The momentum block must be skew, as the momentum of
    `integrate_euler` must be; the attitude block is audited, not
    validated, unless ``project_attitude`` polar-projects it after every
    step, which needs a rotation there.
    """
    _one_body(spec)
    y0 = np.asarray(y0, dtype=float)
    n = spec.n
    if y0.shape != (2 * n, n):
        raise DimensionError(f"attitude-momentum stack has shape {y0.shape}, expected {(2 * n, n)}")
    require_skew(y0[n:])
    traj, _, failure = _euler_poisson(spec, y0, cfg)
    if failure is not None:
        raise failure
    return traj
