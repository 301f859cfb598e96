"""Exact-integer combinatorics of limit linear series on elliptic chains.

Construct, validate, price and exhaustively cross-check rank-two limit
linear series with canonical determinant (and the rank-one limit
canonical series) on chains of elliptic curves, entirely at the level of
vanishing orders and divisor coefficients.
"""

from .chain import (
    ChainCurve,
    DeterminantUnavailableError,
    Indecomposable,
    RankTwoBundle,
    Split,
    SplitLineBundle,
    canonical_restriction,
    determinant,
)
from .construct import (
    LayerDecomposition,
    ThresholdError,
    canonical_limit_series,
    construct,
    construct_even,
    construct_odd,
    decompose_index,
)
from .fileformat import ParseError, parse_series, serialize_series
from .ledger import (
    DimensionLedger,
    LedgerRefusal,
    corollary_range,
    count_dimension,
    rho_canonical,
    rho_general,
    theorem_threshold,
)
from .search import (
    SearchCapError,
    SearchReport,
    SearchSpace,
    canonical_form,
    canonical_key,
    enumerate_series,
    prefix_key,
)
from .series import (
    Component,
    LimitSeries,
    NodeGluing,
    ValidationReport,
    VanishingTable,
    derive_forced_pairs,
    q_side,
    validate_all,
)
from .stability import (
    DestabilizingChain,
    StabilityReport,
    check_semistable,
    check_stable,
    external_stable_case,
)

__version__ = "0.1.0"

__all__ = [
    "ChainCurve",
    "Component",
    "DestabilizingChain",
    "DeterminantUnavailableError",
    "DimensionLedger",
    "Indecomposable",
    "LayerDecomposition",
    "LedgerRefusal",
    "LimitSeries",
    "NodeGluing",
    "ParseError",
    "RankTwoBundle",
    "SearchCapError",
    "SearchReport",
    "SearchSpace",
    "Split",
    "SplitLineBundle",
    "StabilityReport",
    "ThresholdError",
    "ValidationReport",
    "VanishingTable",
    "canonical_form",
    "canonical_key",
    "canonical_limit_series",
    "canonical_restriction",
    "check_semistable",
    "check_stable",
    "construct",
    "construct_even",
    "construct_odd",
    "corollary_range",
    "count_dimension",
    "decompose_index",
    "derive_forced_pairs",
    "determinant",
    "enumerate_series",
    "external_stable_case",
    "parse_series",
    "prefix_key",
    "q_side",
    "rho_canonical",
    "rho_general",
    "serialize_series",
    "theorem_threshold",
    "validate_all",
]
