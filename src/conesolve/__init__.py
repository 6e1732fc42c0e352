"""conesolve: symmetric eigenvalue operators on cones, subsolution geometry,
and continuity-method solves of fully nonlinear elliptic equations on flat tori."""

from .cones import (
    Cone,
    ConeViolation,
    GammaCone,
    PreimageCone,
    in_gamma_tilde,
    sigma,
    t_map,
)
from .eigencalc import (
    EigenSystem,
    contract,
    eigen_decompose,
    eigenvalues,
    evaluate,
    first_derivative,
    second_form,
)
from .operators import (
    BlendedQuotient,
    ComposedWithT,
    HessianQuotientNeg,
    InverseSigmaK,
    LevelSetConstants,
    LogSigmaK,
    MongeAmpere,
    NumericError,
    SymmetricOperator,
    level_set_constants,
    operator_from_name,
    sample_level_set,
)
from .solver import (
    AdmissibilityError,
    EllipticityError,
    PathBoundError,
    PathKind,
    SolveReport,
    SolveState,
    StagnationError,
    TorusProblem,
    admissibility_margin,
    newton_solve,
    normalize,
    residual,
    run_continuity,
    uniform_schedule,
)
from .subsolution import (
    DichotomyBranch,
    SubsolutionCertificate,
    certify_field,
    dichotomy_check,
    estimate_kappa,
    is_subsolution_point,
    quotient_cone_condition,
    schur_horn_pairing,
)
from .torus import (
    DegenerateClassError,
    MatrixField,
    PeriodicGrid,
    ScalarField,
    compute_c,
    derivative,
    endomorphism_field,
    form_ratio,
    hessian,
    integral,
    load_field,
    nminus1_background,
    random_band_limited,
    save_field,
)
from .diagnostics import (
    AbpReport,
    BallFunction,
    BallGrid,
    ContactSet,
    HmwReport,
    TraceEstimate,
    abp_check,
    contact_set,
    hmw_ratio,
    strong_concavity_flags,
    trace_estimate_check,
)

__version__ = "0.1.0"
