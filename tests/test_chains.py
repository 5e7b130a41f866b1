import itertools
import math
import sys
import tracemalloc

import pytest

from chainlines import chains, chow
from chainlines.chains import (
    CLASS_TERM_BUDGET,
    ChainProblem,
    NegativeExpectedDimensionError,
    PositiveExpectedDimensionError,
    chain_count,
    class_term_count,
    class_text,
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
        tally, factors = condition_tally(p), counting_factors(p)
        assert tally.total() == total
        assert len(factors.all()) == total
        assert len(factors.x_side) == tally.endpoint_x
        assert len(factors.y_side) == tally.endpoint_y
        assert len(factors.interior) == tally.interior_pure * tally.interior_factors
        assert len(factors.mixed) == tally.mixed_per_pair * tally.pairs
        cls = existence_class(p)
        assert all(sum(mono) == total for mono in cls.terms)
        assert class_term_count(p) == len(cls.terms)


def _assert_cli_class(capsys, p, mode, reference):
    """`chainlines class` prints the reference rendering of `reference`, the
    class as a dict, byte for byte, in --machine and in plain output."""
    expected = naive_poly.render(reference)
    argv = ["class", "--degrees", ",".join(map(str, p.data.degrees)),
            "--ambient", str(p.data.ambient), "--length", str(p.length), "--mode", mode]
    assert main(argv + ["--machine"]) == 0
    assert capsys.readouterr().out.endswith(f"\nclass={expected}\n"), (p, mode)
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(f"\nclass    {expected}\n"), (p, mode)


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


def test_counting_class_matches_naive_expansion_full_grid(capsys):
    # the untruncated product depends only on (degrees, l); share it across N.
    # The library class, its str() and the streamed CLI output all match it.
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
        cls = counting_class(p)
        assert dict(cls.terms) == reference
        assert str(cls) == naive_poly.render(reference)
        _assert_cli_class(capsys, p, "counting", reference)


def _ring_product(factors, space):
    # the dense route: multiply every condition class in the truncated ring,
    # single-monomial factors first so the binomial ones meet small classes
    result = one(space)
    for f in sorted(factors, key=lambda c: len(c.terms)):
        result = result * f
    return result


def test_chain_count_matches_dense_ring_top_coefficient(capsys):
    # and the streamed CLI classes match the dense ring products, in both modes
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
                    _assert_cli_class(capsys, p, "counting", dense.terms)
                    existence = _ring_product(
                        [ChowClass(p.space, f) for f in _existence_factor_dicts(p)], p.space)
                    _assert_cli_class(capsys, p, "existence", existence.terms)
                    checked += 1
    assert checked > 200


def test_existence_class_matches_naive_expansion_full_grid(capsys):
    untruncated: dict = {}
    for degrees, n, l in GRID:
        p = problem(degrees, n, l)
        key = (degrees, l)
        if key not in untruncated:
            untruncated[key] = naive_poly.product(_existence_factor_dicts(p), l - 1)
        reference = naive_poly.truncate(untruncated[key], p.space.factor_dims)
        cls = existence_class(p)
        assert dict(cls.terms) == reference
        assert str(cls) == naive_poly.render(reference)
        _assert_cli_class(capsys, p, "existence", reference)


def test_class_budget_refuses_long_chain_at_once(capsys):
    # 60,466,176 terms: listing them took over 7 minutes
    p = problem((6,), 40, 12)
    assert class_term_count(p) == 6**10 > CLASS_TERM_BUDGET
    for mode in ("counting", "existence"):
        code = main(["class", "--degrees", "6", "--ambient", "40",
                     "--length", "12", "--mode", mode])
        assert code == 2
        captured = capsys.readouterr()
        assert "budget" in captured.err
        assert captured.out == ""  # the budget is checked before any output
    with pytest.raises(BudgetExceededError):
        counting_class(p)


def test_class_budget_refuses_very_long_chain_by_a_capped_count(capsys):
    # about 2^(10^5) terms: the count, more than 4,300 digits, is never made
    code = main(["class", "--degrees", "2", "--ambient", "100", "--length", "100000",
                 "--mode", "counting"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"more than the {CLASS_TERM_BUDGET} budget" in captured.err


def test_witness_length_budget_refuses_at_once(monkeypatch, capsys):
    # the witness is l - 2 exponents and one string of them: past the budget
    # it is refused before any is made
    witness = ["witness", "--degrees", "1,1,1", "--ambient", "3", "--machine", "--length"]
    monkeypatch.setattr(chains, "LENGTH_BUDGET", 5)
    assert main(witness + ["5"]) == 0
    assert "monomial=3,3,3,3\n" in capsys.readouterr().out
    assert main(witness + ["6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chain length 6 exceeds the 5 budget" in captured.err
    for build in (witness_exponents, witness_monomial):
        with pytest.raises(BudgetExceededError):
            build(problem((1, 1, 1), 3, 6))


def test_class_length_budget_refuses_at_once(monkeypatch, capsys):
    # every term of a class holds O(l) values: past the budget the class is
    # refused before the term count, the walk or any text, and count, a
    # closed form, still answers
    def no_work(*args):
        raise AssertionError("the class did O(l) work past its length budget")

    cls = ["class", "--degrees", "1,1,1", "--ambient", "3", "--machine", "--mode"]
    monkeypatch.setattr(chains, "LENGTH_BUDGET", 5)
    assert main(cls + ["existence", "--length", "5"]) == 0
    assert "class=1*h1^3*h2^3*h3^3*h4^3\n" in capsys.readouterr().out
    monkeypatch.setattr(chains, "_term_count", no_work)
    monkeypatch.setattr(chains, "_walk", no_work)
    for mode in ("existence", "counting"):
        assert main(cls + [mode, "--length", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chain length 6 exceeds the 5 budget" in captured.err
    p = problem((1, 1, 1), 3, 6)
    for build in (counting_class, existence_class, lambda p: class_text(p, True)):
        with pytest.raises(BudgetExceededError):
            build(p)
    assert chain_count(p) == 1
    monkeypatch.undo()
    # the default budget: 3,000,000 factors would pass both class budgets
    # and stream 50 MB
    assert main(cls + ["existence", "--length", "3000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"chain length 3000000 exceeds the {chains.LENGTH_BUDGET} budget" in captured.err


def test_class_text_budget_refuses_before_the_walk(monkeypatch, capsys):
    # (300,) N=600 l=4 counting has 90,000 terms, within the term budget,
    # but coefficients of about 2,600 digits: 228 MB of text.  Its bound,
    # from bit lengths, is 246,420,000 characters, past the budget, so it
    # is refused at once with empty stdout, before the walk starts
    def no_walk(*args):
        raise AssertionError("the class walked past its text budget")

    monkeypatch.setattr(chains, "_walk", no_walk)
    p = problem((300,), 600, 4)
    assert chains._text_bound(p, True, class_term_count(p)) == 246_420_000
    code = main(["class", "--degrees", "300", "--ambient", "600", "--length", "4",
                 "--mode", "counting"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"more than the {chains.CLASS_TEXT_BUDGET} character budget" in captured.err
    # a collected class holds the same integers, so it is refused the same
    # way.  The existence text of (300,) N=600 l=4 is bounded by 18,450,000
    # characters, within the budget; that of (600,) N=1200 l=4, 360,000
    # terms of at most 362 digits, by 139,680,000
    with pytest.raises(BudgetExceededError, match="character budget"):
        counting_class(p)
    assert chains._text_bound(p, False, class_term_count(p)) == 18_450_000
    wide = problem((600,), 1200, 4)
    assert chains._text_bound(wide, False, class_term_count(wide)) == 139_680_000
    for build in (existence_class, lambda p: class_text(p, False)):
        with pytest.raises(BudgetExceededError, match="character budget"):
            build(wide)
    # (5,5) N=40 l=8 stays admitted: 531,441 terms of at most 51 digits
    reference = problem((5, 5), 40, 8)
    assert chains._text_bound(reference, True, 531441) == 51_018_336 <= chains.CLASS_TEXT_BUDGET
    monkeypatch.undo()
    # the bound holds the text, and a budget of exactly the bound admits it,
    # streamed or collected
    for degrees, n, l in CROSS_GRID + [((5, 5), 40, 5), ((1000,), 1999, 2), ((1, 1, 1), 3, 500)]:
        p = problem(degrees, n, l)
        for counting, collect in ((True, counting_class), (False, existence_class)):
            bound = chains._text_bound(p, counting, class_term_count(p))
            monkeypatch.setattr(chains, "CLASS_TEXT_BUDGET", bound)
            text = "".join(class_text(p, counting))
            assert len(text) <= bound
            assert str(collect(p)) == text
            monkeypatch.setattr(chains, "CLASS_TEXT_BUDGET", bound - 1)
            for build in (collect, lambda p: class_text(p, counting)):
                with pytest.raises(BudgetExceededError):
                    build(p)


def test_class_budget_admits_reference_class():
    assert class_term_count(problem((5, 5), 40, 8)) == 531441 <= CLASS_TERM_BUDGET


def test_chain_count_without_loop_when_ambient_equals_total_degree():
    # N = D forces every degree to be 1: the pair block is [1], the count 1
    for l in range(2, 8):
        p = problem((1, 1, 1), 3, l)
        assert chain_count(p) == 1 == counting_class(p).top_coefficient()
    assert chain_count(problem((1, 1, 1), 3, 10**6)) == 1


def test_class_walk_has_no_depth_limit(capsys):
    # one term over 4,999 factors; a recursive walk would stop at depth ~1,000
    code = main(["class", "--degrees", "1,1,1", "--ambient", "3", "--length", "5000",
                 "--mode", "existence", "--machine"])
    assert code == 0
    value = capsys.readouterr().out.splitlines()[-1]
    assert value == "class=1" + "".join(f"*h{k}^3" for k in range(1, 5000))


def test_chain_count_budget_on_pair_block_size():
    # l = 2, N = 2D - m: zero-dimensional, D - m = 1001 > sqrt(budget)
    with pytest.raises(BudgetExceededError):
        chain_count(problem((1002,), 2003, 2))
    assert chain_count(problem((1001,), 2001, 2)) > 0  # D - m = 1000


def test_streamed_long_class_memory_stays_near_its_output():
    # one term over 19,999 factors: beyond its 169 kB of text the walk holds
    # a few values and one factor string per factor, about 15 times the text
    # in all; a table of every (k, e) string made it about 26 times
    p = problem((1, 1, 1), 3, 20000)
    tracemalloc.start()
    try:
        text = "".join(class_text(p, counting=False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "1" + "".join(f"*h{k}^3" for k in range(1, 20000))
    assert peak < 20 * len(text)


# l = 2, 3, 4 over small degree data, with N below, at and above D
CROSS_GRID = [
    (degrees, n, l)
    for degrees in [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 3), (2, 3)]
    for n in range(1, 10)
    for l in (2, 3, 4)
]


def test_streamed_text_str_and_reference_rendering_agree():
    # class_text, str() of the collected class and the reference rendering
    # of the naive product are three routes to the same bytes
    seen = set()
    for degrees, n, l in CROSS_GRID:
        p = problem(degrees, n, l)
        D, m = p.data.total_degree, p.data.m
        untruncated = {
            "counting": naive_poly.product([dict(f.terms) for f in counting_factors(p).all()], l - 1),
            "existence": naive_poly.product(_existence_factor_dicts(p), l - 1),
        }
        for mode, collect in (("counting", counting_class), ("existence", existence_class)):
            expected = naive_poly.render(naive_poly.truncate(untruncated[mode], p.space.factor_dims))
            streamed = "".join(class_text(p, counting=mode == "counting"))
            assert streamed == str(collect(p)) == expected, (degrees, n, l, mode)
            seen.add(("zero", expected == "0"))
        seen.add(("all degrees 1", n == D and D == m))
        seen.add(("rise >= D-m", n - D >= D - m))
        seen.add(("l", l))
    assert seen >= {("zero", True), ("zero", False), ("all degrees 1", True),
                    ("rise >= D-m", True), ("rise >= D-m", False), ("l", 2), ("l", 3), ("l", 4)}


def test_streamed_text_past_the_int_digit_limit():
    # one polynomial of degree 1000, l = 2, N = 2D - m: the one term is
    # 1000! 999! h^1999, whose coefficient has 5,133 digits
    p = problem((1000,), 1999, 2)
    cls = counting_class(p)
    (coeff,) = cls.terms.values()
    with pytest.raises(ValueError):
        str(coeff)
    streamed = "".join(class_text(p, counting=True))
    reference = naive_poly.product([dict(f.terms) for f in counting_factors(p).all()], 1)
    # naive_poly.render formats coefficients with str(): lift its limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = naive_poly.render(reference)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 5000
    assert streamed == str(cls) == expected


def test_streamed_bodies_are_made_once_per_coefficient_and_leaves(monkeypatch):
    # (5,5) N=40 l=6 counting: 6,561 terms in 81 groups, whose runs hold
    # 729 entries but only 135 distinct bodies (coefficient, a_{l-2}); one
    # coefficient also comes with several a_{l-2}, whose bodies differ
    p = problem((5, 5), 40, 6)
    groups = list(chains._class_groups(p, counting=True))
    entries = [(coeff * weight, leaves) for _, _, coeff, run in groups
               for _, _, weight, leaves in run]
    leaves_of = {}
    for coeff, leaves in entries:
        leaves_of.setdefault(coeff, set()).add(id(leaves))
    assert len(groups) == 81
    assert len(entries) == 729
    assert sum(map(len, leaves_of.values())) == 135
    assert max(map(len, leaves_of.values())) > 1
    made = []
    body = chow._body
    monkeypatch.setattr(chow, "_body", lambda coeff, leaves: made.append(coeff) or body(coeff, leaves))
    streamed = "".join(chow.render(groups))
    assert len(made) == 135
    cls = counting_class(p)
    assert streamed == str(cls) == naive_poly.render(cls.terms)


@pytest.mark.parametrize("cap", [0, 2000])
def test_streamed_text_past_the_body_cache_cap(monkeypatch, cap):
    # at 0 no body is kept; 2,000 characters hold one or two bodies of
    # (5,5) N=40 l=6, so they are dropped again and again
    monkeypatch.setattr(chow, "BODY_CACHE_CHARS", cap)
    p = problem((5, 5), 40, 6)
    for counting, collect in ((True, counting_class), (False, existence_class)):
        cls = collect(p)
        assert "".join(class_text(p, counting)) == str(cls) == naive_poly.render(cls.terms)


def test_kept_bodies_add_at_most_the_cap_to_memory(monkeypatch):
    # (100,) N=200 l=4 counting: 100 groups of 100 terms, 7.1 MB of text,
    # and no body repeats, so bodies are kept only until the cap drops them
    p = problem((100,), 200, 4)
    cap = chow.BODY_CACHE_CHARS

    def peak():
        tracemalloc.start()
        try:
            size = sum(map(len, class_text(p, counting=True)))
            return size, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    size, kept = peak()
    monkeypatch.setattr(chow, "BODY_CACHE_CHARS", 0)
    _, none_kept = peak()
    # beyond the bodies, the cap does not count their keys and the dict
    assert kept < none_kept + cap + 64 * 1024
    # every body kept would hold all of the text
    assert kept < size / 2


def test_a_run_is_streamed_one_entry_at_a_time():
    # (100,) N=200 l=4 counting is one group whose run has 100 entries of
    # 100 terms each: render writes a chunk per entry, never the whole run
    p = problem((100,), 200, 4)
    (group,) = chains._class_groups(p, counting=True)
    assert len(group[3]) == 100
    chunks = list(class_text(p, counting=True))
    assert len(chunks) == 100
    assert max(map(len, chunks)) <= sum(map(len, chunks)) / 50


def test_two_line_chains_build_no_pair_block(monkeypatch):
    # at l = 2 there is no interior pair: the class is one term, the walk
    # reads no weight and chain_count multiplies no block entry, so the
    # O((D-m)^2) pair block is never built
    small = [problem((3,), 5, 2), problem((2, 2), 6, 2), problem((1, 2), 4, 2)]
    expected = {
        p: ([counting_class(p), existence_class(p)],
            ["".join(class_text(p, counting=c)) for c in (True, False)], chain_count(p))
        for p in small
    }

    def no_block(data):
        raise AssertionError(f"pair block built for {data}")

    monkeypatch.setattr(chains, "_pair_block", no_block)
    for p, (classes, texts, count) in expected.items():
        assert [counting_class(p), existence_class(p)] == classes
        assert ["".join(class_text(p, counting=c)) for c in (True, False)] == texts
        assert chain_count(p) == count
    # degree 1000, N = 1999: the one term is 1000! 999! h^1999
    p = problem((1000,), 1999, 2)
    scale = math.factorial(1000) * math.factorial(999)
    assert counting_class(p).terms == {(1999,): scale}
    assert chain_count(p) == scale
    streamed = "".join(class_text(p, counting=True))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert streamed == f"{scale}*h1^1999"
    finally:
        sys.set_int_max_str_digits(limit)
