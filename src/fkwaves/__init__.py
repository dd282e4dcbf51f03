"""Traveling waves of the driven Frenkel-Kontorova chain with a piecewise
quadratic substrate: semi-analytic wave construction, kinetic relations,
and direct lattice simulation."""

from types import ModuleType as _ModuleType

from .params import ModelParams
from .errors import (
    FKWavesError,
    ResonantVelocity,
    RootCountMismatch,
    NotConverged,
    QuadratureFail,
    NoCandidate,
    NullspaceNotRankOne,
    NoAdmissibleWave,
    ProfileRange,
    NumericBlowup,
    NoFront,
    Inconclusive,
    RegimeMismatch,
    NoSignChange,
    NoPositiveRoot,
    TruncationWarning,
)
from .dispersion import (
    RootSet,
    eval_L,
    eval_Lk,
    near_axis_roots,
    real_roots,
    root_set,
    is_resonant,
    resonance_velocities,
)
from .acwave import (
    KernelQuadrature,
    sigma_AC,
    U_profile,
    kernel_q,
    U_integral,
    q_integral,
    quad_kernel,
    ac_admissible,
)
from .bifurcation import (
    KernelJet,
    kernel_jet,
    threshold_V0,
    z_linear,
    z_quartic,
    shape_linear,
    shape_quadratic,
)
from .newwave import (
    ShapeFunction,
    KineticPoint,
    WaveSolution,
    build_Q,
    find_z,
    solve_shape,
    assemble_wave,
    check_generalized,
    kinetic_wave,
    kinetic_curve,
)
from .chain import (
    ChainState,
    SimOutcome,
    SweepResult,
    phi,
    phi_prime,
    peierls_stress,
    energy,
    init_riemann,
    init_from_wave,
    front_position,
    step,
    run_and_classify,
    sweep_dynamic_threshold,
)
from ._backend import BACKEND, PURE_ENV_VAR

__version__ = "0.1.0"

# every public name imported above, submodules excluded
__all__ = [_name for _name, _obj in list(globals().items())
           if not _name.startswith("_") and not isinstance(_obj, _ModuleType)]
__all__.append("__version__")
