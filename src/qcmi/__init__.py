"""Conditional mutual information bounds for tripartite quantum states.

The package computes I(A:C|B), the trace of the associated exponential
operator sigma* = exp(log rho_AB - log rho_B + log rho_BC), the
lower-bound chain cmi >= log_overlap >= thm1 >= corollary it generates,
and the recovery-map diagnostics that decide when the bound chain is
saturated. Each of these values of a TripartiteState is read from its
analysis: state.analysis.cmi, .sigma_star_trace, .log_overlap_bound,
.thm1, .corollary_bound, the recovered states .m_mdag and .mdag_m, and
their gaps .gap_m and .gap_mprime. evaluate_sample gathers them into one
scan row. The channel analogue of the bound is read from
ChannelAnalysis(rho, sigma, phi).
"""

from .analysis import ChannelAnalysis
from .channels import (
    KrausChannel,
    partial_trace_channel,
    petz_dual,
    random_channel,
)
from .entropy import (
    EntropyReport,
    classical_rel_entropy,
    fidelity,
    rel_entropy,
    vn_entropy,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InequalityViolationError,
    NoConvergenceError,
    NotDistributionError,
    NotHermitianError,
    NotPSDError,
    ParseError,
    QcmiError,
    SingularMatrixError,
    TraceNotOneError,
    ValidationError,
)
from .harness import (
    ConjectureResult,
    ScanConfig,
    ScanRow,
    evaluate_sample,
    run_conjecture,
    scan,
    write_scan_report,
)
from .linalg import (
    HermitianEigen,
    mat_exp,
    trace_norm,
)
from .recovery import (
    ClassificationLabel,
    classify,
    modular_residual,
)
from .sampling import (
    near_markov_state,
    random_classical_state,
    random_density,
    random_markov_spec,
    random_markov_state,
    random_tripartite,
    random_unitary,
    substream,
)
from .states import (
    ClassicalJoint,
    DensityMatrix,
    MarkovBlock,
    MarkovSpec,
    TripartiteState,
    classical_state,
    embed,
    markov_state,
    partial_trace,
    regularize,
    tripartite,
    validate_density,
)
from .stateio import (
    read_markov_spec,
    read_state,
    write_markov_spec,
    write_state,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelAnalysis",
    "ClassicalJoint",
    "ClassificationLabel",
    "ConfigError",
    "ConjectureResult",
    "DensityMatrix",
    "DimensionMismatchError",
    "EntropyReport",
    "HermitianEigen",
    "InequalityViolationError",
    "KrausChannel",
    "MarkovBlock",
    "MarkovSpec",
    "NoConvergenceError",
    "NotDistributionError",
    "NotHermitianError",
    "NotPSDError",
    "ParseError",
    "QcmiError",
    "ScanConfig",
    "ScanRow",
    "SingularMatrixError",
    "TraceNotOneError",
    "TripartiteState",
    "ValidationError",
    "classical_rel_entropy",
    "classical_state",
    "classify",
    "embed",
    "evaluate_sample",
    "fidelity",
    "markov_state",
    "mat_exp",
    "modular_residual",
    "near_markov_state",
    "partial_trace",
    "partial_trace_channel",
    "petz_dual",
    "random_channel",
    "random_classical_state",
    "random_density",
    "random_markov_spec",
    "random_markov_state",
    "random_tripartite",
    "random_unitary",
    "read_markov_spec",
    "read_state",
    "regularize",
    "rel_entropy",
    "run_conjecture",
    "scan",
    "substream",
    "trace_norm",
    "tripartite",
    "validate_density",
    "vn_entropy",
    "write_markov_spec",
    "write_scan_report",
    "write_state",
]
