import itertools
import math

import pytest

from chainlines.chains import (
    CLASS_TERM_BUDGET,
    ChainProblem,
    NegativeExpectedDimensionError,
    PositiveExpectedDimensionError,
    chain_count,
    class_term_count,
    condition_tally,
    counting_class,
    counting_factors,
    existence_class,
    expected_dimension,
    witness_exponents,
    witness_monomial,
)
from chainlines.chow import ChowClass, ProductSpace, one
from chainlines.cli import main
from chainlines.criteria import DefiningData, rc_criterion
from chainlines.finite_geometry import BudgetExceededError

import naive_poly


def problem(degrees, ambient, length):
    return ChainProblem(DefiningData(degrees, ambient), length)


CUBIC_THREEFOLD = problem((3,), 4, 3)


def test_chain_problem_space():
    assert CUBIC_THREEFOLD.space == ProductSpace((4, 4))
    assert problem((2,), 3, 2).space == ProductSpace((3,))
    assert problem((2, 2), 9, 4).space == ProductSpace((9, 9, 9))
    with pytest.raises(ValueError):
        problem((2,), 3, 1)


def test_existence_class_examples():
    cls = existence_class(CUBIC_THREEFOLD)
    # h1^3 h2^3 (h1+h2)^2 truncated in (P^4)^2
    assert cls == ChowClass(ProductSpace((4, 4)), {(4, 4): 2})
    assert not cls.is_zero()
    assert all(sum(m) == 8 for m in cls.terms)

    quadric = existence_class(problem((2,), 3, 2))
    assert quadric == ChowClass(ProductSpace((3,)), {(3,): 1})  # h^3 in P^3

    # every expansion monomial of h1^4 h2^4 (h1+h2)^3 has an exponent > 5
    assert existence_class(problem((4,), 5, 3)).is_zero()
    assert not rc_criterion(DefiningData((4,), 5), 3)


def test_counting_factors_blocks():
    blocks = counting_factors(CUBIC_THREEFOLD)
    space = CUBIC_THREEFOLD.space
    pure = ChowClass(space, {(0, 0): 1})
    for f in blocks.x_side + blocks.y_side:
        pure = pure * f
    assert pure == ChowClass(space, {(3, 3): 36})  # 36 = (3!)^2
    mixed = ChowClass(space, {(0, 0): 1})
    for f in blocks.mixed:
        mixed = mixed * f
    assert mixed == ChowClass(space, {(2, 0): 2, (1, 1): 5, (0, 2): 2})
    assert len(blocks.interior) == 0
    assert len(blocks.all()) == 8


def test_counting_class_examples():
    assert counting_class(CUBIC_THREEFOLD) == ChowClass(
        ProductSpace((4, 4)), {(4, 4): 180}
    )
    assert counting_class(problem((2,), 3, 2)) == ChowClass(
        ProductSpace((3,)), {(3,): 2}
    )
    assert counting_class(problem((3,), 5, 2)) == ChowClass(
        ProductSpace((5,)), {(5,): 12}
    )


def test_expected_dimension():
    assert expected_dimension(CUBIC_THREEFOLD) == 0
    assert expected_dimension(problem((2,), 3, 2)) == 0
    assert expected_dimension(problem((2,), 4, 2)) == 1
    assert expected_dimension(problem((4,), 5, 3)) == -1


def test_chain_count_examples():
    assert chain_count(CUBIC_THREEFOLD) == 180
    assert chain_count(problem((2,), 3, 2)) == 2
    assert chain_count(problem((3,), 5, 2)) == 12


def test_chain_count_dimension_errors():
    with pytest.raises(PositiveExpectedDimensionError) as err:
        chain_count(problem((2,), 4, 2))
    assert err.value.dimension == 1
    with pytest.raises(NegativeExpectedDimensionError) as err:
        chain_count(problem((4,), 5, 3))
    assert err.value.dimension == -1


def test_witness_exponents_examples():
    assert witness_exponents(CUBIC_THREEFOLD) == (1,)
    assert witness_exponents(problem((2,), 7, 4)) == (0, 0)
    assert witness_exponents(problem((2,), 9, 4)) == (0, 0)
    assert witness_exponents(problem((2,), 3, 2)) == ()
    p = problem((2, 2, 1), 11, 6)
    jbar = witness_exponents(p)
    dm = p.data.total_degree - p.data.m
    assert len(jbar) == 4
    assert all(0 <= j <= dm for j in jbar)


def test_witness_monomial_examples():
    w = witness_monomial(CUBIC_THREEFOLD)
    assert w.exponents == (4, 4) and w.fits
    w = witness_monomial(problem((4,), 5, 3))
    assert w.exponents == (5, 6) and not w.fits
    w = witness_monomial(problem((2,), 3, 2))
    assert w.exponents == (3,) and w.fits


def test_condition_tally_examples():
    tally = condition_tally(CUBIC_THREEFOLD)
    assert (tally.endpoint_x, tally.endpoint_y) == (3, 3)
    assert tally.interior_factors == 0
    assert (tally.mixed_per_pair, tally.pairs) == (2, 1)
    assert tally.total() == 8

    tally = condition_tally(problem((2, 2), 9, 4))
    assert (tally.endpoint_x, tally.endpoint_y) == (4, 4)
    assert (tally.interior_pure, tally.interior_factors) == (2, 1)
    assert (tally.mixed_per_pair, tally.pairs) == (2, 2)
    assert tally.total() == 14  # = l*D - m

    tally = condition_tally(problem((3, 1), 9, 2))
    assert (tally.endpoint_x, tally.endpoint_y) == (4, 2)
    assert tally.pairs == 0 and tally.interior_factors == 0
    assert tally.total() == 6


GRID = [
    (degrees, n, l)
    for m in (1, 2, 3)
    for degrees in itertools.combinations_with_replacement(range(1, 6), m)
    for n in range(2, 11)
    for l in range(2, 7)
]


def test_tally_and_degree_identities():
    for degrees, n, l in GRID:
        p = problem(degrees, n, l)
        total = l * p.data.total_degree - p.data.m
        assert condition_tally(p).total() == total
        assert len(counting_factors(p).all()) == total
        cls = existence_class(p)
        assert all(sum(mono) == total for mono in cls.terms)
        assert class_term_count(p) == len(cls.terms)


def _existence_factor_dicts(p):
    # plain-dict version of the existence factors, for the reference route
    data, l = p.data, p.length
    D, m = data.total_degree, data.m
    k = l - 1
    if l == 2:
        return [{(1,): 1}] * (2 * D - m)
    def h(i):  # exponent tuple of h_i
        return tuple(1 if j == i - 1 else 0 for j in range(k))
    factors = [{h(1): 1}] * D + [{h(l - 1): 1}] * D
    for i in range(2, l - 1):
        factors += [{h(i): 1}] * m
    for i in range(2, l):
        factors += [{h(i - 1): 1, h(i): 1}] * (D - m)
    return factors


def test_criterion_implies_nonvanishing_on_grid():
    for degrees, n, l in GRID:
        data = DefiningData(degrees, n)
        if not rc_criterion(data, l):
            continue
        p = problem(degrees, n, l)
        assert not existence_class(p).is_zero()
        w = witness_monomial(p)
        assert w.fits
        assert all(e <= n for e in w.exponents)
        # the witness coefficient is positive before truncation
        untruncated = naive_poly.product(_existence_factor_dicts(p), l - 1)
        assert untruncated.get(w.exponents, 0) > 0


def test_count_positive_at_zero_expected_dimension():
    hits = 0
    for degrees, n, l in GRID:
        p = problem(degrees, n, l)
        if expected_dimension(p) != 0 or not rc_criterion(p.data, l):
            continue
        hits += 1
        assert chain_count(p) >= 1
    assert hits > 0


def test_endpoint_prefactor_is_degree_factorial_squared():
    for d in (2, 3, 4):
        p = problem((d,), 2 * d - 1, 3)  # any ambient large enough to survive
        blocks = counting_factors(p)
        space = p.space
        x_block = ChowClass(space, {(0, 0): 1})
        for f in blocks.x_side:
            x_block = x_block * f
        y_block = ChowClass(space, {(0, 0): 1})
        for f in blocks.y_side:
            y_block = y_block * f
        assert x_block.coefficient((d, 0)) == math.factorial(d)
        assert y_block.coefficient((0, d)) == math.factorial(d)
        assert (x_block * y_block).coefficient((d, d)) == math.factorial(d) ** 2


def test_counting_class_matches_naive_expansion_golden_cases():
    cases = [
        ((3,), 4, 3),
        ((2,), 3, 2),
        ((3,), 5, 2),
        ((2,), 5, 3),
        ((2, 2), 9, 4),
        ((1, 2), 4, 3),
        ((2,), 4, 4),
    ]
    for degrees, n, l in cases:
        p = problem(degrees, n, l)
        factor_dicts = [dict(f.terms) for f in counting_factors(p).all()]
        reference = naive_poly.truncate(
            naive_poly.product(factor_dicts, l - 1), p.space.factor_dims
        )
        assert dict(counting_class(p).terms) == reference


def test_counting_class_matches_naive_expansion_full_grid():
    # the untruncated product depends only on (degrees, l); share it across N
    untruncated: dict = {}
    for degrees, n, l in GRID:
        if (n + 1) ** (l - 1) > 10**6:
            continue
        p = problem(degrees, n, l)
        key = (degrees, l)
        if key not in untruncated:
            factor_dicts = [dict(f.terms) for f in counting_factors(p).all()]
            untruncated[key] = naive_poly.product(factor_dicts, l - 1)
        reference = naive_poly.truncate(untruncated[key], p.space.factor_dims)
        assert dict(counting_class(p).terms) == reference


def _ring_product(factors, space):
    # the dense route: multiply every condition class in the truncated ring,
    # single-monomial factors first so the binomial ones meet small classes
    result = one(space)
    for f in sorted(factors, key=lambda c: len(c.terms)):
        result = result * f
    return result


def test_chain_count_matches_dense_ring_top_coefficient():
    checked = 0
    for m in (1, 2, 3):
        for degrees in itertools.combinations_with_replacement(range(1, 8), m):
            for n in range(1, 30):
                for l in range(2, 10):
                    p = problem(degrees, n, l)
                    if expected_dimension(p) != 0 or (n + 1) ** (l - 1) > 10**6:
                        continue
                    dense = _ring_product(counting_factors(p).all(), p.space)
                    assert chain_count(p) == dense.top_coefficient(), (degrees, n, l)
                    checked += 1
    assert checked > 200


def test_existence_class_matches_naive_expansion_full_grid():
    untruncated: dict = {}
    for degrees, n, l in GRID:
        p = problem(degrees, n, l)
        key = (degrees, l)
        if key not in untruncated:
            untruncated[key] = naive_poly.product(_existence_factor_dicts(p), l - 1)
        reference = naive_poly.truncate(untruncated[key], p.space.factor_dims)
        assert dict(existence_class(p).terms) == reference


def test_class_budget_refuses_long_chain_at_once(capsys):
    # 60,466,176 terms: listing them took over 7 minutes
    p = problem((6,), 40, 12)
    assert class_term_count(p) == 6**10 > CLASS_TERM_BUDGET
    for mode in ("counting", "existence"):
        code = main(["class", "--degrees", "6", "--ambient", "40",
                     "--length", "12", "--mode", mode])
        assert code == 2
        assert "budget" in capsys.readouterr().err
    with pytest.raises(BudgetExceededError):
        counting_class(p)


def test_class_budget_admits_reference_class():
    assert class_term_count(problem((5, 5), 40, 8)) == 531441 <= CLASS_TERM_BUDGET


def test_chain_count_budget_on_pair_block_size():
    # l = 2, N = 2D - m: zero-dimensional, D - m = 1001 > sqrt(budget)
    with pytest.raises(BudgetExceededError):
        chain_count(problem((1002,), 2003, 2))
    assert chain_count(problem((1001,), 2001, 2)) > 0  # D - m = 1000
