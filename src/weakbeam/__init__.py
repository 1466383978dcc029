"""weakbeam: weak-form discovery of beam dynamics from field data.

The toolkit identifies sparse PDEs from noisy spatio-temporal
measurements via weak-form regression with data ensembling, converts the
recovered stiffness coefficient to a Young's modulus, and validates the
result by replaying the measurement through an edge-driven beam FEM.
"""

from .beamfem import (
    BoundaryHistory,
    FemMesh,
    SimulationResult,
    SweepResult,
    compare,
    extract_boundaries,
    newmark_solve,
    simulate_measured,
    sweep_modulus,
)
from .discovery import DiscoveryResult, discover
from .ensemble import EnsembleResult, run_ensemble
from .errors import (
    AggregationError,
    DegenerateDataError,
    DimensionError,
    FieldFormatError,
    GridError,
    ParameterError,
    SelectionError,
    WeakbeamError,
    WindowError,
)
from .grid import FieldGrid, load_field, save_field, window_time
from .material import (
    BeamModel,
    CrossSection,
    modulus_from_alpha,
    modulus_report,
    natural_frequencies,
    percent_error,
    smape,
)
from .pipeline import PipelineConfig, run_pipeline
from .preprocess import bandpass_time, condition, subsample_time
from .sparse import SparseSolution, mstls, optimize_lambda
from .synth import burst, generate_beam_data
from .weakform import (
    LHS,
    TERM_NAMES,
    TERMS,
    TermSpec,
    TestFunctionBasis,
    WeakSystem,
    assemble,
    rescale,
    select_support,
    spectral_corner,
    unscale_coefficients,
)

__version__ = "0.1.0"
