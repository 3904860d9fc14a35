"""n-dimensional rigid body dynamics in three equivalent pictures.

The package integrates the Euler equation on so(n), the symmetric
representation on stacked 2n x n phase points, and the full
attitude-momentum system, exposes the momentum maps of the commuting
symplectic and orthogonal group actions together with their coadjoint
transports, lifts body momenta to phase points, and solves the
minimum-effort attitude steering problem by shooting.
"""

from .body import (
    BodyState,
    InertiaSpec,
    euler_poisson_rhs,
    euler_rhs,
    hat,
    inertia_apply,
    inertia_inverse,
    reduced_hamiltonian,
    vee,
)
from .control import BvpProblem, BvpSolution, shoot, trajectory_cost
from .errors import (
    CertificationError,
    ConvergenceError,
    DimensionError,
    DivergenceError,
    LevelSetError,
    OutOfRangeError,
    RankLossError,
)
from .integrate import (
    IntegratorConfig,
    Trajectory,
    integrate_euler,
    integrate_euler_poisson,
    integrate_symrep,
)
from .lift import mu0_of, solve_lift, verify_reduction
from .matcore import (
    commutator,
    expm,
    inner,
    polar_project,
    random_rotation,
    random_skew,
    random_sp,
    random_sp_group,
    skew_asinh,
    symplectic_matrix,
)
from .moment import (
    ad_star,
    casimir_spectrum,
    infinitesimal_generator,
    invariant_battery,
    kks_form,
    level_set_defect,
    on_action,
    on_coadjoint,
    on_momentum,
    orbit_transporter,
    reduced_form_check,
    sp_action,
    sp_coadjoint,
    sp_momentum,
)
from .symrep import (
    FULL_RANK_TOL,
    control_hamiltonian,
    hamiltonian,
    is_full_rank,
    one_form,
    optimal_control,
    p_block,
    phase_point,
    q_block,
    symplectic_form,
    symrep_rhs,
)

__version__ = "0.1.0"
