"""waveinv: reconstruction of permittivity and conductivity maps in a 2D
damped-wave model from noisy partial boundary observations, via
adjoint-state gradients and projected conjugate-gradient minimization of a
regularized misfit functional, with an indicator-driven multi-level mode."""

from .grid import (
    ALL_SIDES,
    Grid2D,
    RegionMask,
    Side,
    area_weights,
    build_grid,
    refine,
    region_mask,
    time_weights,
)
from .fields import (
    AdmissibleSet,
    BoundaryTrace,
    CoefficientField,
    NoiseModel,
    RefinedTrace,
    Role,
    add_noise,
    bump_perturbed,
    constant_coefficient,
    extract_trace,
    gaussian_coefficient,
    project,
    transfer_to_refined,
)
from .forward import (
    BcConfig,
    BcKind,
    ForwardSolution,
    SourceSpec,
    StabilityError,
    solve_forward,
)
from .objective import (
    RegularizationParams,
    field_dot,
    field_norm,
    forward_defect,
    lagrangian,
    tikhonov,
    trace_dot,
    trace_norm_sq,
)
from .gradient import GradientSample, fd_gradient_oracle, gradient_sweep
from .optimizer import (
    AcgaControls,
    AcgaResult,
    CgaResult,
    CgState,
    InverseProblem,
    LevelReport,
    LogRow,
    StoppingTolerances,
    cg_step,
    fletcher_reeves,
    init_state,
    refinement_flags,
    run_acga,
    run_cga,
    step_size,
)

__version__ = "0.1.0"
