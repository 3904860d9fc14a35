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

The schemes step the package's own fields and body velocities, so
`verify_reduction` compares the flows the package publishes.  Each
integrator takes its initial state in the layout of its states (a
momentum, a phase point, a stack ``[Q; pi]``), so a run can restart from
any state of another.  A run is stepped, then audited.  Stepping
(`_euler`, `_symrep`, `_euler_poisson`) checks the inputs once, writes
every accepted step into one stacked array and raises the run's failure;
the audits are per-state checks computed from that stack, over blocks of
states.  The `integrate_*` functions join the two, and `verify_reduction`
and `shoot` audit only what they read.  At n = 3 the loop costs numpy's
per-call overhead more than arithmetic, so each run binds its kernels
once, to the bits of the plain forms: the product (``ndarray.dot`` for one
state, matmul for a batch), the picture's field, velocity and action
(`body._euler_kernels`, `symrep._symrep_kernels`,
`body._attitude_momentum_kernels`) with their pair sums and block slices,
and the scheme's one ``step(y)`` with its stage coefficients as 0-d
arrays, its identity and its norm.  rkmk4 inverts by LAPACK's gufunc
without the wrapper of ``np.linalg.inv``, and the finiteness test is
``d.dot(d) == 0`` for ``d = (y - y).ravel()``, since x - x
is +0 for finite x and NaN for an infinity or NaN.  A kernel also steps a
batch of initial states along a leading axis, each member its own run bit
for bit (under midpoint each stops at its own fixed-point count); the loop
stores the states of the first member and the last state of each.  `shoot`
runs a point with its forward-difference probes that way.  A non-finite
state (a singular rkmk4 inverse among them) ends a run in
`DivergenceError`, and a midpoint step that does not converge in
`ConvergenceError`, each naming its step.  `RankLossError` names the first
state below full rank, also when a later step failed.  Finite states whose
audits overflow end in `DivergenceError` too, naming the audit and its
first non-finite state.  Rotation blocks are stepped, never projected:
rk4 drifts off SO(n), rkmk4 keeps them rotations to round-off and
midpoint to its fixed-point tolerance, and the ``orthogonality_defect``
audit shows the drift.  No step-size adaptivity: runs are reproducible and admit clean
order checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import inv as _inv

from .body import InertiaSpec, _attitude_momentum_kernels, _euler_kernels, reduced_hamiltonian
from .errors import ConvergenceError, DimensionError, DivergenceError, RankLossError
from .matcore import _frobenius, _identity, _matrix_frobenius, orthogonality_defect, require_skew
from .moment import casimir_spectrum, on_momentum, sp_momentum
from .symrep import FULL_RANK_TOL, _symrep_kernels, min_singular_value

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

_MIDPOINT_TOL = 1e-13
_MIDPOINT_MAX_ITER = 100


@dataclass(frozen=True)
class IntegratorConfig:
    """``scheme`` (rk4, rkmk4 or midpoint), ``step`` and ``t_final`` (real
    numbers, stored as floats).  ``t_final`` must be a whole number of
    steps, which construction stores as ``steps``.  Midpoint's fixed-point
    iteration stops at a change of at most `_MIDPOINT_TOL` (1e-13) within
    `_MIDPOINT_MAX_ITER` (100) iterations.
    """

    scheme: str
    step: float
    t_final: float

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")
        for name, value in (("step", self.step), ("t_final", self.t_final)):
            if type(value) is bool or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, float(value))  # float32 rounds the stage coefficients
        if self.step > self.t_final:
            raise ValueError("step must not exceed t_final")
        if self.t_final / self.step == np.inf:
            raise ValueError("t_final / step overflows a float: too many states to store")
        k = round(self.t_final / self.step)
        if abs(k * self.step - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(f"t_final {self.t_final} is not an integer multiple "
                             f"of step {self.step}")
        object.__setattr__(self, "steps", int(k))


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
        if np.ndim(self.times) != 1:
            raise ValueError(f"times must be one-dimensional, got shape {np.shape(self.times)}")
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if not np.isfinite(self.times).all():
            raise ValueError("times must be finite")
        if not (np.diff(self.times) > 0).all():
            raise ValueError("times must be strictly increasing")
        for name, channel in self.audits.items():
            if len(channel) != len(self.times):
                raise ValueError(f"audit channel {name!r} has inconsistent length")

    def __len__(self) -> int:
        return len(self.times)


def _rk4(field, h):
    # Classical RK4.  The stage coefficients are 0-d arrays: numpy multiplies
    # an array by a 0-d array faster than by a Python float, to the same bits.
    half, whole, sixth = (np.array(h / d) for d in (2.0, 1.0, 6.0))

    def step(y):
        k1 = field(y)
        k2 = field(y + half * k1)
        k3 = field(y + half * k2)
        k4 = field(y + whole * k3)
        return y + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)
    return step


def _cayley(n, mm):
    # The Cayley chart at theta = 2a: a -> (cay(theta), p, m), where p = I + a and
    # m = I - a pull a body velocity omega at cay(theta) back to theta' = p omega m.
    # The inverse is np.linalg.inv's gufunc without its wrapper (two thirds of a
    # 3 x 3 inverse's cost); a singular member comes out NaN, a divergence in _run.
    eye = _identity(n)

    def chart(a):
        p, m = eye + a, eye - a
        return mm(p, _inv(m, signature="d->d")), p, m
    return chart


def _rkmk4(velocity, act, h, chart, mm):
    # Classical RK4 on the chart variable theta from 0 at y; a = theta/2, so
    # the coefficients are h/4, h/2 and h/12.
    quarter, half, twelfth = (np.array(h / d) for d in (4.0, 2.0, 12.0))

    def step(y):
        k1 = velocity(y)
        g, p, m = chart(quarter * k1)
        k2 = mm(mm(p, velocity(act(y, g))), m)
        g, p, m = chart(quarter * k2)
        k3 = mm(mm(p, velocity(act(y, g))), m)
        g, p, m = chart(half * k3)
        k4 = mm(mm(p, velocity(act(y, g))), m)
        return act(y, chart(twelfth * (k1 + (k2 + k2) + (k3 + k3) + k4))[0])
    return step


def _midpoint(field, h, norm):
    # The implicit midpoint rule by fixed-point iteration.  The test is a Python
    # bool for one state, one bool per member of a batch, each that of its own
    # run bit for bit.  A member that passes is frozen into `out` and no longer
    # evaluated; arrays are re-indexed only when some, not all, members pass.
    half, tol, max_iter = np.array(h / 2.0), _MIDPOINT_TOL, _MIDPOINT_MAX_ITER

    def step(y):
        out = active = None
        m = y + half * field(y)
        for _ in range(max_iter):
            m_next = y + half * field(m)
            done = norm(m_next - m) <= tol
            m = m_next
            if done is False:
                continue
            if done is True or done.all():
                if out is None:
                    return (m + m) - y
                out[active] = (m + m) - y
                return out
            if done.any():
                if out is None:
                    out, active = np.empty_like(y), np.arange(len(y))
                out[active[done]] = (m + m)[done] - y[done]
                active, m, y = active[~done], m[~done], y[~done]
        raise ConvergenceError(f"implicit midpoint fixed point did not reach {tol:g} "
                               f"in {max_iter} iterations")
    return step


def _grid(cfg: IntegratorConfig, shape):
    """The times of a run of ``cfg`` and empty storage for its states of ``shape``;
    a horizon too long to store (numpy's ValueError or MemoryError) is refused,
    before any step, by a ValueError that names the step count."""
    try:
        return np.arange(cfg.steps + 1) * cfg.step, np.empty((cfg.steps + 1,) + shape)
    except (ValueError, MemoryError):
        raise ValueError(f"t_final / step is {cfg.steps:.6g} steps, "
                         "too many states to store") from None


def _run(spec, y0, cfg: IntegratorConfig, kernels):
    """Step y0 by ``kernels(spec, mm)``: a field, a body velocity and its action ``act(y, g)``.

    y0 is one state ``(rows, n)``, or a batch ``(B, rows, n)`` whose members
    step as their own runs bit for bit.  Returns the times, the stored states
    ``(N+1, rows, n)`` (of the first member only), the last state of every
    member and the failure of the step that failed, or None: a
    DivergenceError, or a ConvergenceError (reason "fixed_point") where
    midpoint's iteration did not converge.  A failed run (a batch at the
    first step any member fails) returns what it stored before that step.
    """
    y = np.array(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("initial state has non-finite entries")
    lead, n = y.shape[:-2], y.shape[-1]
    first, steps, h = (0,) * len(lead), cfg.steps, cfg.step
    times, states = _grid(cfg, y.shape[-2:])
    states[0] = y[first]
    mm, norm = (np.matmul, _frobenius) if lead else (np.ndarray.dot, _matrix_frobenius)
    field, velocity, act = kernels(spec, mm)
    advance = {"rk4": lambda: _rk4(field, h), "midpoint": lambda: _midpoint(field, h, norm),
               "rkmk4": lambda: _rkmk4(velocity, act, h, _cayley(n, mm), mm)}[cfg.scheme]()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for i in range(1, steps + 1):
            try:
                y_next = advance(y)
            except ConvergenceError as exc:  # midpoint's fixed point, which knows no step
                return times[:i], states[:i], y, ConvergenceError(
                    f"{exc} at step {i}", reason="fixed_point", step_index=i)
            d = (y_next - y_next).ravel()  # +0 where finite, NaN at inf or NaN
            if not d.dot(d) == 0.0:
                return times[:i], states[:i], y, DivergenceError(
                    f"non-finite state at step {i}", step_index=i)
            y = y_next
            states[i] = y[first]
    return times, states, y, None


def _audit(states, channels) -> dict:
    """Evaluate audit channels over a stacked trajectory, block by block.

    ``channels`` maps each name to a function of a block of states that
    returns one value (or row) per state.  Finite states can still
    overflow an audit: the channels are computed with numpy's overflow and
    invalid warnings off, and the first state at which one is not finite
    ends the run in `DivergenceError`, naming the channel and the step.
    """
    blocks = [states[k:k + _AUDIT_BLOCK] for k in range(0, len(states), _AUDIT_BLOCK)]
    with np.errstate(over="ignore", invalid="ignore"):
        audits = {name: np.concatenate([channel(b) for b in blocks])
                  for name, channel in channels.items()}
    failed = []
    for order, (name, values) in enumerate(audits.items()):
        finite = np.isfinite(values.reshape(len(values), -1)).all(axis=1)
        if not finite.all():
            failed.append((int(np.argmin(finite)), order, name))
    if failed:
        i, _, name = min(failed)  # the earliest state, then the first channel listed
        raise DivergenceError(f"audit {name} is not finite at step {i}", step_index=i)
    return audits


def _momentum_channels(spec: InertiaSpec) -> dict:
    # The energy and the singular-value spectrum of body momenta, as audit channels.
    return {"hamiltonian": lambda b: reduced_hamiltonian(spec, b),
            "casimir_spectrum": casimir_spectrum}


def _one_body(spec: InertiaSpec) -> None:
    if spec.lam.ndim != 1:
        raise DimensionError(f"the integrators step one body, got lambda of shape {spec.lam.shape}")


def _euler(spec: InertiaSpec, pi0, cfg: IntegratorConfig):
    # integrate_euler's checks and run: its times and states, or its failure raised.
    _one_body(spec)
    pi0 = require_skew(np.asarray(pi0, dtype=float))
    if pi0.shape != (spec.n, spec.n):
        raise DimensionError(f"momentum has shape {pi0.shape}, expected {(spec.n, spec.n)}")
    times, states, _, failure = _run(spec, pi0, cfg, _euler_kernels)
    if failure is not None:
        raise failure
    return times, states


def integrate_euler(spec: InertiaSpec, pi0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the Euler equation for the body momentum.

    Audits: the reduced energy and the singular-value spectrum of the
    momentum (constant on the coadjoint orbit).
    """
    times, states = _euler(spec, pi0, cfg)
    return Trajectory("euler", times, states, _audit(states, _momentum_channels(spec)))


def _symrep(spec: InertiaSpec, z0, cfg: IntegratorConfig):
    # integrate_symrep's checks and run: its times, states and rank margin, or its failure raised.
    _one_body(spec)
    z0 = np.asarray(z0, dtype=float)
    n = spec.n
    if z0.shape != (2 * n, n):
        raise DimensionError(f"phase point has shape {z0.shape}, expected {(2 * n, n)}")
    times, states, _, failure = _run(spec, z0, cfg, _symrep_kernels)
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
    return times, states, margin


def integrate_symrep(spec: InertiaSpec, z0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the symmetric representation from a full-rank phase point.

    Audits: the phase-space energy, the drift of the conserved symplectic
    momentum value, the orthogonality defect of the two blocks, the
    singular-value spectrum of the orthogonal momentum value, and the rank
    margin `min_singular_value`, whose first value below `FULL_RANK_TOL`
    raises `RankLossError`, also when a later step failed.
    """
    times, states, margin = _symrep(spec, z0, cfg)
    n, j0 = spec.n, sp_momentum(states[0])
    audits = _audit(states, {
        "j_drift": lambda b: _frobenius(sp_momentum(b) - j0),
        "orthogonality_defect": lambda b: np.maximum(
            orthogonality_defect(b[:, :n]), orthogonality_defect(b[:, n:])
        ),
        "on_momentum": on_momentum,
    })
    audits.update(_audit(audits["on_momentum"], _momentum_channels(spec)))  # H(Z) = h(Z^T J Z)
    audits["rank_margin"] = margin
    return Trajectory("symrep", times, states, audits)


def _euler_poisson(spec: InertiaSpec, y0, cfg: IntegratorConfig):
    # The attitude-momentum run behind integrate_euler_poisson and shoot, of one
    # stack [Q; pi] or a batch (B, 2n, n): the first member's times and states
    # and every member's last state, unaudited, or the run's failure raised.
    times, states, last, failure = _run(spec, y0, cfg, _attitude_momentum_kernels)
    if failure is not None:
        raise failure
    return times, states, last


def _euler_poisson_trajectory(spec: InertiaSpec, times, states) -> Trajectory:
    n = spec.n
    channels = {name: lambda b, f=f: f(b[:, n:]) for name, f in _momentum_channels(spec).items()}
    channels["orthogonality_defect"] = lambda b: orthogonality_defect(b[:, :n])
    return Trajectory("euler-poisson", times, states, _audit(states, channels))


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
    validated.
    """
    _one_body(spec)
    y0 = np.asarray(y0, dtype=float)
    n = spec.n
    if y0.shape != (2 * n, n):
        raise DimensionError(f"attitude-momentum stack has shape {y0.shape}, expected {(2 * n, n)}")
    require_skew(y0[n:])
    return _euler_poisson_trajectory(spec, *_euler_poisson(spec, y0, cfg)[:2])
