"""Matrix-based Renyi cross-entropy estimators over kernel Gram matrices.

Build a Gram matrix from samples with a positive-definite kernel, normalize
it to unit trace, and compare two (or three) of them with the estimators in
``gramxent.estimators``. ``gramxent.verification`` contains the invariant
suite; ``gramxent.experiments`` and the ``gramxent`` CLI reproduce the
synthetic-data sweeps.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ArgumentError,
    ContractError,
    DegenerateMatrixError,
    GramxentError,
    KernelOverflowError,
    NumericalDegeneracyError,
    ParseError,
)
from .estimators import (
    CrossEntropyResult,
    conditional_entropy,
    joint_entropy,
    matrix_renyi_entropy,
    mirrored_cross_entropy,
    mirrored_cross_entropy_two_param,
    mirrored_limit_umegaki,
    mutual_information,
    nonmirrored_cross_entropy,
    trace_distance_bounds,
    tripartite_cross_entropy,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    default_config,
    emit_results,
    load_csv,
    parse_results_csv,
    run_convergence,
    run_mean_shift,
    run_tripartite,
    run_variance_scale,
    sample_gaussian,
)
from .kernels import (
    EXP_INNER_PRODUCT,
    GAUSSIAN,
    RAW,
    UNIT_TRACE,
    CrossGram,
    GramMatrix,
    KernelSpec,
    SampleSet,
    gram_cross,
    gram_univariate,
    hadamard_joint,
    normalize_trace,
)
from .psd_linalg import (
    EigenDecomposition,
    SupportReport,
    sym_eig,
)
from .verification import (
    Partition,
    PropertyReport,
    pinch,
    random_gram,
    random_orthogonal,
    run_property_suite,
)

__version__ = "0.1.0"

# The public API: every imported name but the submodules.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
