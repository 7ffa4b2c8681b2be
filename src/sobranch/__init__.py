"""Exact branching calculus for irreducible representations of SO(N,1).

The package classifies irreducibles with regular integral infinitesimal
character matching a self-dual finite-dimensional module, converts between
Langlands-style descriptors and enhanced (theta-weight, height, signature)
parameters, and decides branching multiplicities, periods, distinguished
subgroups, and the nonvanishing of induced bilinear forms on relative Lie
algebra cohomology.  All arithmetic is exact.

The public names below are loaded on first access (PEP 562), so that
``import sobranch`` and a CLI call load only the modules they use.
"""

__version__ = "0.1.0"

# The verification suites, in the order ``selftest`` runs them.  ``oracle``
# maps each name to its ``_suite_*`` function; the names live here so that
# the CLI parser can offer them without loading the oracle.
SUITE_NAMES = (
    "dim-conservation",
    "roundtrip",
    "height-consistency",
    "trivial-rho-diagrams",
    "chi-twist",
    "height0-vs-finite",
)

_EXPORTS = {
    "weights": "GroupTag Weight enumerate_interlacing interlaces validate_weight weyl_dim "
               "zero_weight",
    "reps": "DiscreteSeries EnhancedParam FiniteDim Nontempered RepDescriptor Signature "
            "TemperedPS classify enhanced_from_langlands hasse_sequence height "
            "langlands_from_enhanced signature standard_sequence twist_chi_minus",
    "branching": "Arrow Diagram FiniteDimComponent branch_enumerate diagram finite_dim_branch "
                 "gp_tempered_check multiplicity multiplicity_rows sb_diagram",
    "periods": "AqDescriptor KTypeLabel PeriodValue distinguished_subgroup "
               "distinguishing_chain is_aq_lambda minimal_k_type_trivial_rho period_value",
    "cohomology": "PairingDescriptor bilinear_gate bilinear_nonzero_trivial_rho "
                  "pairing_trivial_rho",
    "oracle": "SuiteReport compact_branch_so run_suite",
    "errors": "SobranchError",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
