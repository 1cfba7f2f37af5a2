"""Exact computations around local cohomology D-modules.

Four layers:

- exact arithmetic: sparse multivariate polynomials (`MultiPoly`), truncated
  power series (`TruncatedSeries`), exact sparse ranks, and a small text
  grammar for both;
- the operator algebra: normally ordered differential operators (`WeylOp`),
  formal adjoints, and the simple module E of inverse monomials (`EElement`);
- de Rham engines: module specs for R, E, monomial localizations and R[1/f]
  (optionally mod R), each a pole complex that answers every per-kind
  question the engine asks (basis rule, the class of 1 at weight 0,
  smoothness gate, certificate), read from JSON by `spec_from_json` alone; closed forms,
  pole-filtration truncation with a stabilization certificate, the
  rank-one connection route
  (`derham_rank_one`), and the long-exact-sequence splicer;
- structure predictions: Betti-profile bookkeeping, cone homology, E-copy
  counts, simplicity and vanishing verdicts, plus the series decomposition
  along a regular operator that powers the one-variable reductions.

The `socle` console script exposes predict/derham/decompose/verify/catalog.
"""

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyComplexError,
    InconsistentSequenceError,
    InternalCheckError,
    NonUnitError,
    NotLefschetzError,
    ParseError,
    SocleError,
    UnsupportedSpecError,
)
from .poly import MultiPoly, default_names, graded_piece_basis
from .series import TruncatedSeries
from .linalg import eliminate_columns, rank_of_columns
from .grammar import parse_operator, parse_poly
from .weyl import (
    EElement,
    WeylOp,
    check_euler_identity,
    formal_adjoint,
    normal_order,
    right_coefficients,
)
from .derham import (
    DeRhamDims,
    HypersurfaceLocalization,
    InjectiveHull,
    MonomialLocalization,
    PolynomialRing,
    TruncationReport,
    completion_flattening,
    derham_closed_form,
    derham_rank_one,
    derham_truncated,
    jacobian_ring_is_finite,
    les_splice,
    spec_from_json,
)
from .structure import (
    BettiProfile,
    CurveData,
    StructureReport,
    cone_homology,
    ogus_criterion,
    predict,
    singular_curve_cohomology,
    singular_curve_h1,
)
from .catalog import HYPERSURFACES, PROFILES, CatalogHypersurface, CatalogProfile
from .seriesdecomp import (
    Decomposition,
    OperatorAnalysis,
    RegularOperator,
    analyze_operator,
    decompose,
    expansion_coeffs,
    expansion_condition_report,
    valuation_growth_probe,
)

__version__ = "1.0.0"

__all__ = [
    "SocleError",
    "DimensionMismatch",
    "NonUnitError",
    "DomainError",
    "ParseError",
    "UnsupportedSpecError",
    "EmptyComplexError",
    "InconsistentSequenceError",
    "NotLefschetzError",
    "InternalCheckError",
    "MultiPoly",
    "default_names",
    "graded_piece_basis",
    "TruncatedSeries",
    "eliminate_columns",
    "rank_of_columns",
    "parse_poly",
    "parse_operator",
    "WeylOp",
    "normal_order",
    "right_coefficients",
    "formal_adjoint",
    "check_euler_identity",
    "EElement",
    "DeRhamDims",
    "TruncationReport",
    "PolynomialRing",
    "InjectiveHull",
    "MonomialLocalization",
    "HypersurfaceLocalization",
    "spec_from_json",
    "derham_closed_form",
    "derham_truncated",
    "derham_rank_one",
    "completion_flattening",
    "jacobian_ring_is_finite",
    "les_splice",
    "BettiProfile",
    "CurveData",
    "StructureReport",
    "singular_curve_h1",
    "singular_curve_cohomology",
    "cone_homology",
    "ogus_criterion",
    "predict",
    "PROFILES",
    "HYPERSURFACES",
    "CatalogProfile",
    "CatalogHypersurface",
    "RegularOperator",
    "OperatorAnalysis",
    "Decomposition",
    "analyze_operator",
    "expansion_coeffs",
    "expansion_condition_report",
    "decompose",
    "valuation_growth_probe",
]
