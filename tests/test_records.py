"""Value semantics shared by every record type of the package."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fpkit.algebra import Polynomial, RationalFunction
from fpkit.classify import SearchBounds, SurveyReport, TrichotomyVerdict
from fpkit.data import CongruenceResult, FixedPointData, FixedPointDatum
from fpkit.genus import GenusReport, SemifreeReport, SymbolicChi
from fpkit.identities import AbbvValue, ChernAnalysis, CheckOutcome
from fpkit.multigraph import DescribesResult, Edge, SignedMultigraph

P = FixedPointDatum("p", 1, (1,))
Q = FixedPointDatum("q", -1, (1,))
CONSTANT = RationalFunction(Polynomial([1]))

#: (record type, constructor arguments, arguments of a different value,
#: one field name).
SAMPLES = [
    (FixedPointDatum, ("p", 1, (2, -1)), ("p", -1, (2, -1)), "sign"),
    (FixedPointData, ("d", 1, (P, Q)), ("e", 1, (P, Q)), "name"),
    (CongruenceResult, (True, 3), (False, 3, ("p", "q")), "passed"),
    (GenusReport, ((1, 0), True), ((1, 0), False), "N"),
    (SymbolicChi, (CONSTANT, True, 1), (CONSTANT, True, 2), "constant_term"),
    (
        SemifreeReport,
        (1, (1, 2, 1), (1, 2, 1), True, 4, True),
        (1, (1, 2, 1), (1, 2, 1), True, 4, False),
        "bound_met",
    ),
    (CheckOutcome, ("chern_sum", True), ("chern_sum", False, {"sum": 1}), "passed"),
    (AbbvValue, (0, Fraction(1, 2)), (0, Fraction(0)), "value"),
    (
        ChernAnalysis,
        (((0, ("p",), Fraction(1)),), 1, True, (0,), True, 2, False),
        (((0, ("p",), Fraction(1)),), 1, True, (0,), True, 2, True),
        "violations",
    ),
    (Edge, (0, "p", "q", 1), (0, "q", "p", 1), "label"),
    (
        SignedMultigraph,
        ((("p", 1), ("q", -1)), (Edge(0, "p", "q", 1),)),
        ((("p", 1), ("q", -1)), ()),
        "edges",
    ),
    (DescribesResult, (True,), (False, {"reason": "sign mismatch"}), "ok"),
    (SearchBounds, (2, 2, 2), (2, 2, 3), "max_weight"),
    (TrichotomyVerdict, ("none",), ("dim2-samesign", (1,)), "case"),
    (
        SurveyReport,
        (SearchBounds(1, 1, 1), 2, {"weight_balance": 2}, (), None, ()),
        (SearchBounds(1, 1, 1), 3, {"weight_balance": 3}, (), None, ()),
        "candidates",
    ),
]


@pytest.mark.parametrize(
    "cls, args, other, field", SAMPLES, ids=[sample[0].__name__ for sample in SAMPLES]
)
def test_record_semantics(cls, args, other, field):
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(cls(*other), field))
    assert record == cls(*args)
    assert record != cls(*other)
    assert repr(record).startswith(f"{cls.__name__}(")


def test_fixed_point_data_counts_points_not_fields():
    data = FixedPointData("d", 1, (P, Q, FixedPointDatum("r", 1, (-1,))))
    assert not isinstance(data, tuple)
    assert len(data) == 3
    assert list(data) == [P, Q, data.point("r")]
