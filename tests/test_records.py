"""The immutable records of the package (namedtuple subclasses) keep the
behaviour of the frozen dataclasses they replaced: repr, keyword
construction, no assignment, and a hash of the tuple of their fields."""

from fractions import Fraction

import pytest

from chainlines.chains import ChainProblem, ConditionTally, CountingFactors, Witness
from chainlines.chow import ProductSpace, hyperplane
from chainlines.criteria import DefiningData, SharpnessReport
from chainlines.finite_geometry import (Chain, ConnectivityReport, HomogPoly, Line, PrimeField,
                                        VarietySpec)

CUBIC = {"degrees": (3,), "ambient": 4}
QUADRIC_TERMS = ((1, (1, 0, 0, 1)), (4, (0, 1, 1, 0)))
QUADRIC = {"field": PrimeField(5), "ambient": 3, "polys": (HomogPoly(2, QUADRIC_TERMS),)}
LINES = (Line(((1, 0, 0, 0), (0, 0, 1, 0))), Line(((0, 0, 1, 0), (0, 0, 0, 1))))

# (class, keyword arguments in field order, repr as the dataclasses printed it)
RECORDS = [
    (ProductSpace, {"factor_dims": (2, 3)}, "ProductSpace(factor_dims=(2, 3))"),
    (DefiningData, CUBIC, "DefiningData(degrees=(3,), ambient=4)"),
    (SharpnessReport,
     {"length": 3, "degree": 4, "ambient": 5, "criterion_at_length": False,
      "criterion_at_next": True, "min_length": 4, "lines_dim": 0, "locus_bound": 3,
      "variety_dim": 4, "connected": False},
     "SharpnessReport(length=3, degree=4, ambient=5, criterion_at_length=False, "
     "criterion_at_next=True, min_length=4, lines_dim=0, locus_bound=3, variety_dim=4, "
     "connected=False)"),
    (ChainProblem, {"data": DefiningData(**CUBIC), "length": 3},
     "ChainProblem(data=DefiningData(degrees=(3,), ambient=4), length=3)"),
    (ConditionTally,
     {"endpoint_x": 3, "endpoint_y": 3, "interior_pure": 1, "interior_factors": 0,
      "mixed_per_pair": 2, "pairs": 1},
     "ConditionTally(endpoint_x=3, endpoint_y=3, interior_pure=1, interior_factors=0, "
     "mixed_per_pair=2, pairs=1)"),
    (CountingFactors,
     {"x_side": (hyperplane(ProductSpace((3,)), 1),), "y_side": (), "interior": (), "mixed": ()},
     "CountingFactors(x_side=(ChowClass(P^3: 1*h1),), y_side=(), interior=(), mixed=())"),
    (Witness, {"exponents": (4, 4), "fits": True}, "Witness(exponents=(4, 4), fits=True)"),
    (PrimeField, {"p": 5}, "PrimeField(p=5)"),
    (HomogPoly, {"degree": 2, "terms": QUADRIC_TERMS},
     "HomogPoly(degree=2, terms=((1, (1, 0, 0, 1)), (4, (0, 1, 1, 0))))"),
    (VarietySpec, QUADRIC,
     "VarietySpec(field=PrimeField(p=5), ambient=3, polys=(HomogPoly(degree=2, "
     "terms=((1, (1, 0, 0, 1)), (4, (0, 1, 1, 0)))),))"),
    (Line, {"basis": ((1, 0, 0, 0), (0, 0, 1, 0))},
     "Line(basis=((1, 0, 0, 0), (0, 0, 1, 0)))"),
    (Chain, {"points": ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "lines": LINES},
     "Chain(points=((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), lines=(Line(basis=((1, 0, 0, 0), "
     "(0, 0, 1, 0))), Line(basis=((0, 0, 1, 0), (0, 0, 0, 1)))))"),
    (ConnectivityReport,
     {"points": 36, "fractions": {1: Fraction(11, 36), 2: Fraction(1)}, "line_counts": {2: 36}},
     "ConnectivityReport(points=36, fractions={1: Fraction(11, 36), 2: Fraction(1, 1)}, "
     "line_counts={2: 36})"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, fields, text):
    record, twin = cls(**fields), cls(*fields.values())
    assert repr(record) == text
    assert record == twin
    assert {name: getattr(record, name) for name in fields} == fields
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    values = tuple(fields.values())
    try:
        expected = hash(values)
    except TypeError:  # a field holds a dict or a ChowClass
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
