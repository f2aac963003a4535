"""Coupled 1-D nonlinear Schrodinger systems with complex nonlinearities.

The package builds the diagonal unitary gauge map that turns the complex
nonlinearities of the supported coefficient families into purely real
ones, evolves both system forms spectrally, and verifies the conservation
laws and the equivalence of the two descriptions.
"""

__version__ = "0.1.0"

from .grid import (
    Grid1D,
    make_grid,
    derivative,
    second_derivative,
    antiderivative,
    antiderivative_parts,
    integrate,
)
from .fields import (
    VacuumError,
    DispersionMatrix,
    ComplexFieldSet,
    HydroFields,
    to_hydro,
    from_hydro,
    phase_winding,
    phase_gradient,
)
from .nonlinearity import (
    CoefficientTables,
    LinearSpec,
    DriftCubicSpec,
    DerivativeSpec,
    FamilySpec,
    eval_W,
    eval_Wim,
    eval_F,
)
from .gauge import (
    GaugeGenerator,
    TransformedSpec,
    Grid2D,
    compute_generator,
    apply_gauge,
    invert_gauge,
    phase_residuals,
    phase_relation_residual,
    cole_hopf_G,
    curl_residual_2d,
    transformed_spec,
    eval_R_numeric,
)
from .classify import (
    SpecialCase,
    classify_q1,
    case1_coeffs,
    case2_coeffs,
    case3_coeffs,
    drift_cubic_wave,
    case2_wave,
)
from .solver import (
    SimState,
    DiagnosticsRecord,
    BlowUpError,
    rhs,
    step,
    evolve,
    current,
    continuity_residual,
    stability_bound,
)
from .config import ConfigError, RunConfig, load_config, dumps_config
from .report import SweepResult, SweepRow, sweep

__all__ = [
    "__version__",
    # grid
    "Grid1D", "make_grid", "derivative", "second_derivative",
    "antiderivative", "antiderivative_parts", "integrate",
    # fields
    "VacuumError", "DispersionMatrix", "ComplexFieldSet", "HydroFields",
    "to_hydro", "from_hydro", "phase_winding", "phase_gradient",
    # nonlinearity
    "CoefficientTables", "LinearSpec", "DriftCubicSpec", "DerivativeSpec",
    "FamilySpec",
    "eval_W", "eval_Wim", "eval_F",
    # gauge
    "GaugeGenerator", "TransformedSpec", "Grid2D", "compute_generator",
    "apply_gauge", "invert_gauge", "phase_residuals", "phase_relation_residual",
    "cole_hopf_G", "curl_residual_2d", "transformed_spec", "eval_R_numeric",
    # classify
    "SpecialCase", "classify_q1", "case1_coeffs", "case2_coeffs", "case3_coeffs",
    "drift_cubic_wave", "case2_wave",
    # solver
    "SimState", "DiagnosticsRecord", "BlowUpError", "rhs", "step", "evolve",
    "current", "continuity_residual", "stability_bound",
    # config
    "ConfigError", "RunConfig", "load_config", "dumps_config",
    # report
    "SweepResult", "SweepRow", "sweep",
]
