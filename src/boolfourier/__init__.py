"""Exact Fourier analysis of Boolean functions, parity decision trees, and
communication protocols for XOR functions."""

from .core import (
    ANF,
    BooleanFunction,
    HypercontractivityResult,
    N_MAX,
    SpectralStats,
    Spectrum,
    anf_of,
    anf_to_function,
    deg2,
    hypercontractivity_check,
    inverse_wht,
    pointwise_product,
    spectral_stats,
    to_pm_spectrum,
    wht,
    xor_convolve,
)
from .errors import (
    BoolFourierError,
    ConstantInput,
    DependentConstraints,
    DependentInput,
    DimensionMismatch,
    InvalidDegree,
    InvalidEta,
    InvalidSpec,
    InvalidTree,
    NotBoolean,
    NotFound,
    TooLarge,
    ZeroDensity,
    ZeroDirection,
)
from .gf2 import (
    Gf2Matrix,
    LinearMap,
    apply_linear,
    complete_basis,
    dickson_matrix,
    gf2_invert,
    gf2_rank,
)
from .restrict import (
    AffineConstraint,
    derivative,
    fold,
    restrict_affine,
    spectrum_split,
)
from .pdt import (
    BuildTrace,
    Certificate,
    HalvingStep,
    Pdt,
    PdtCheckReport,
    PdtLeaf,
    PdtNode,
    RankResult,
    TraceNode,
    build_degree_reduce,
    build_greedy_l1,
    build_heavy_hitter,
    build_span_query,
    cert_greedy_l1,
    cert_norm_halving,
    cert_norm_halving_with_trace,
    certificate_check,
    degree_reducing_subspace,
    green_sanders_decompose,
    pdt_check,
    pdt_eval,
    rank_exact,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
)
from .comm import (
    ProtocolReport,
    Round,
    Transcript,
    matrix_rank_exact,
    simulate_protocol,
    verify_protocol,
    xor_matrix,
)
from .families import FAMILY_KINDS, FamilySpec, generate
from .verify import (
    ChangResult,
    CheckRecord,
    InvariantReport,
    bound_B,
    bound_B_leading,
    chang_check,
    invariant_report,
)

__version__ = "0.1.0"
