"""fpkit: exact arithmetic for signed fixed-point data of circle actions.

The package models a finite fixed-point set where each point carries a sign
and a multiset of nonzero integer weights.  On top of that data it provides:

* exact polynomial / rational-function / truncated-series arithmetic
  (:mod:`fpkit.algebra`),
* the JSON data model and per-point statistics (:mod:`fpkit.data`),
* the Hirzebruch-type genus computed two independent ways
  (:mod:`fpkit.genus`),
* necessary-condition checkers for realizability (:mod:`fpkit.identities`),
* signed labeled multigraphs encoding the weight data
  (:mod:`fpkit.multigraph`),
* a small-scale brute-force classifier (:mod:`fpkit.classify`),
* a command-line interface (:mod:`fpkit.cli`).
"""

from fpkit.algebra import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    geometric_rewrite,
    poly_gcd,
    ratfun_sum,
)
from fpkit.data import (
    DataFormatError,
    FixedPointData,
    FixedPointDatum,
    check_congruence,
    default_isotropy_partition,
    parse_data,
    serialize_data,
)
from fpkit.genus import (
    GenusReport,
    chi_counting,
    chi_series,
    chi_symbolic,
    semifree_report,
    signed_index_counts,
    txy_evaluate,
)
from fpkit.identities import CheckOutcome, validate_all
from fpkit.multigraph import (
    BalanceError,
    SignedMultigraph,
    build_multigraph,
    describes,
    export_dot,
    induced_data,
    sub_multigraph,
)
from fpkit.classify import (
    SearchBounds,
    TrichotomyVerdict,
    random_graph_data,
    survey,
    trichotomy_match,
)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "RationalFunction",
    "TruncatedSeries",
    "geometric_rewrite",
    "poly_gcd",
    "ratfun_sum",
    "DataFormatError",
    "FixedPointData",
    "FixedPointDatum",
    "check_congruence",
    "default_isotropy_partition",
    "parse_data",
    "serialize_data",
    "GenusReport",
    "chi_counting",
    "chi_series",
    "chi_symbolic",
    "semifree_report",
    "signed_index_counts",
    "txy_evaluate",
    "CheckOutcome",
    "validate_all",
    "BalanceError",
    "SignedMultigraph",
    "build_multigraph",
    "describes",
    "export_dot",
    "induced_data",
    "sub_multigraph",
    "SearchBounds",
    "TrichotomyVerdict",
    "random_graph_data",
    "survey",
    "trichotomy_match",
]
