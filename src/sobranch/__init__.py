"""Exact branching calculus for irreducible representations of SO(N,1).

The package classifies irreducibles with regular integral infinitesimal
character matching a self-dual finite-dimensional module, converts between
Langlands-style descriptors and enhanced (theta-weight, height, signature)
parameters, and decides branching multiplicities, periods, distinguished
subgroups, and the nonvanishing of induced bilinear forms on relative Lie
algebra cohomology.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .branching import (
    Arrow,
    FiniteDimComponent,
    branch_enumerate,
    finite_dim_branch,
    gp_tempered_check,
    multiplicity,
    render_diagram,
    sb_diagram,
)
from .cohomology import (
    PairingDescriptor,
    bilinear_gate,
    bilinear_nonzero_trivial_rho,
    pairing_trivial_rho,
)
from .errors import SobranchError
from .oracle import SuiteReport, compact_branch_so, run_all, run_suite
from .periods import (
    AqDescriptor,
    KTypeLabel,
    PeriodValue,
    distinguished_subgroup,
    distinguishing_chain,
    is_aq_lambda,
    minimal_k_type_trivial_rho,
    period_value,
)
from .reps import (
    DiscreteSeries,
    EnhancedParam,
    FiniteDim,
    Nontempered,
    RepDescriptor,
    Signature,
    TemperedPS,
    classify,
    enhanced_from_langlands,
    hasse_sequence,
    height,
    infinitesimal_character,
    langlands_from_enhanced,
    signature,
    standard_sequence,
    twist_chi_minus,
)
from .weights import (
    GroupTag,
    InfChar,
    Weight,
    enumerate_interlacing,
    infchar_finite_dim,
    infchar_principal_series,
    interlaces,
    validate_weight,
    weyl_dim,
    zero_weight,
)

__all__ = [
    "Arrow",
    "AqDescriptor",
    "DiscreteSeries",
    "EnhancedParam",
    "FiniteDim",
    "FiniteDimComponent",
    "GroupTag",
    "InfChar",
    "KTypeLabel",
    "Nontempered",
    "PairingDescriptor",
    "PeriodValue",
    "RepDescriptor",
    "Signature",
    "SobranchError",
    "SuiteReport",
    "TemperedPS",
    "Weight",
    "bilinear_gate",
    "bilinear_nonzero_trivial_rho",
    "branch_enumerate",
    "classify",
    "compact_branch_so",
    "distinguished_subgroup",
    "distinguishing_chain",
    "enhanced_from_langlands",
    "enumerate_interlacing",
    "finite_dim_branch",
    "gp_tempered_check",
    "hasse_sequence",
    "height",
    "infchar_finite_dim",
    "infchar_principal_series",
    "infinitesimal_character",
    "interlaces",
    "is_aq_lambda",
    "langlands_from_enhanced",
    "minimal_k_type_trivial_rho",
    "multiplicity",
    "pairing_trivial_rho",
    "period_value",
    "render_diagram",
    "run_all",
    "run_suite",
    "sb_diagram",
    "signature",
    "standard_sequence",
    "twist_chi_minus",
    "validate_weight",
    "weyl_dim",
    "zero_weight",
]
