import math
import random
import sys
from decimal import Decimal

import pytest

from chainlines import chow
from chainlines.chow import ChowClass, ProductSpace, int_text, render

import naive_poly
from truncated_ring import truncated_product

P44 = ProductSpace((4, 4))
P4 = ProductSpace((4,))


def test_product_space_validation():
    assert len(ProductSpace((0,)).factor_dims) == 1
    with pytest.raises(ValueError):
        ProductSpace(())
    with pytest.raises(ValueError):
        ProductSpace((3, -1))


def test_constructor_keeps_normal_form():
    c = ChowClass(P44, {(2, 0): 2, (1, 1): 5, (0, 2): 0, (5, 0): 1})
    # zero coefficients and monomials beyond truncation are dropped
    assert c.terms == {(2, 0): 2, (1, 1): 5}
    assert c == ChowClass(P44, {(1, 1): 5, (2, 0): 2})
    assert c != ChowClass(ProductSpace((4, 5)), c.terms)
    # h = 0 in P^0
    assert ChowClass(ProductSpace((0, 4)), {(1, 0): 1}).terms == {}
    with pytest.raises(ValueError):
        ChowClass(P44, {(1,): 1})
    with pytest.raises(ValueError):
        ChowClass(P44, {(-1, 1): 1})


def test_mul_examples():
    h1, h2 = {(1, 0): 1}, {(0, 1): 1}
    assert truncated_product([{(1, 0): 2, (0, 1): 1}, {(1, 0): 1, (0, 1): 2}], (4, 4)) == {
        (2, 0): 2, (1, 1): 5, (0, 2): 2}
    assert truncated_product([{**h1, **h2}] * 2, (1, 1)) == {(1, 1): 2}
    assert truncated_product([h1] * 5, (4, 4)) == {}
    assert truncated_product([h2, h1], (4, 4)) == {(1, 1): 1}


def test_top_coefficient():
    # 1*h * 2*h * 1*h in P^3: the top coefficient 2, as the untruncated
    # reference expansion has it
    factors = [{(1,): 1}, {(1,): 2}, {(1,): 1}]
    ref = naive_poly.truncate(naive_poly.product(factors, 1), (3,))
    assert truncated_product(factors, (3,)) == {(3,): 2} == ref
    assert truncated_product(factors, (2,)) == {}


def test_is_zero():
    # a product is zero once every monomial leaves the box, even though
    # no single factor does, and a coefficient that cancels is dropped
    h = {(1,): 1}
    assert truncated_product([h] * 4, (4,)) == {(4,): 1}
    assert truncated_product([h] * 5, (4,)) == {}
    assert str(ChowClass(P4, truncated_product([h] * 5, (4,)))) == "0"
    assert truncated_product([{(1,): 1, (0,): 1}, {(1,): 1, (0,): -1}], (2,)) == {
        (2,): 1, (0,): -1}


def test_rendering():
    assert str(ChowClass(P44, {})) == "0"
    assert str(ChowClass(P44, {(1, 0): 1})) == "1*h1"
    assert str(ChowClass(P44, {(0, 0): 7})) == "7"
    c = ChowClass(P44, {(0, 2): 2, (1, 1): 5, (2, 0): 2})
    assert str(c) == "2*h1^2 + 5*h1*h2 + 2*h2^2"
    assert str(ChowClass(P44, {(4, 4): 180})) == "180*h1^4*h2^4"
    assert str(ChowClass(P44, {(3, 0): -2, (0, 0): 1})) == "-2*h1^3 + 1"


def test_rendering_matches_reference_random():
    rng = random.Random(7)
    for _ in range(200):
        space = ProductSpace(tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 4))))
        c = _random_class(rng, space, max_terms=8, max_coeff=10**30)
        assert str(c) == naive_poly.render(c.terms)


def _terms(groups):
    return {head + mid + tail: coeff * weight * leaf
            for head, _, coeff, run in groups
            for mid, _, weight, (tails, weights, _) in run
            for tail, leaf in zip(tails, weights)}


def test_render_groups_share_head_and_coefficient():
    # 3*h1^2*(5*h2^3*(h3*h4 + h4^2) + h2*h3^2*h4), then 2*h1*h4^4; each
    # group carries its head's text, each run entry its own exponent's text
    # and each leaf list the seams around its coefficients, and render
    # writes the text it is given, one chunk per entry
    leaves = ([(1, 1), (0, 2)], [1, 1], ["", "*h3*h4 + ", "*h4^2"])
    groups = [((2,), "*h1^2", 3, [((3,), "*h2^3", 5, leaves),
                                   ((1,), "*h2", 1, ([(2, 1)], [1], ["", "*h3^2*h4"]))]),
              ((1,), "*h1", 2, [((0,), "", 1, ([(0, 4)], [1], ["", "*h4^4"]))])]
    expected = ("15*h1^2*h2^3*h3*h4 + 15*h1^2*h2^3*h4^2 + 3*h1^2*h2*h3^2*h4"
                " + 2*h1*h4^4")
    chunks = list(render(groups))
    assert len(chunks) == 3
    assert "".join(chunks) == expected
    # str() writes the class of those terms one term at a time, apart from render
    terms = _terms(groups)
    assert str(ChowClass(ProductSpace((4, 4, 4, 4)), terms)) == expected == naive_poly.render(terms)
    assert list(render([])) == ["0"]


def test_render_reuses_a_body_past_the_str_digit_limit(monkeypatch):
    # a 5,071-digit coefficient, twice over the same leaves (one body, two
    # heads), then over other leaves whose body must not be the kept one;
    # the second head reaches the same coefficient by another split
    big = 7**6000
    leaves = ([(1, 0), (0, 1)], [2, 1], ["", "*h3 + ", "*h4"])
    other = ([(1, 0)], [1], ["", "*h3"])
    groups = [((3,), "*h1^3", big, [((1,), "*h2", 1, leaves)]),
              ((2,), "*h1^2", big // 7, [((1,), "*h2", 7, leaves), ((0,), "", 7, other)])]
    made = []
    body = chow._body
    monkeypatch.setattr(chow, "_body", lambda coeff, leaves: made.append(coeff) or body(coeff, leaves))
    streamed = "".join(render(groups))
    assert made == [big, big]
    terms = _terms(groups)
    assert streamed == str(ChowClass(ProductSpace((3, 1, 1, 1)), terms))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert streamed == naive_poly.render(terms)
    finally:
        sys.set_int_max_str_digits(limit)


def test_int_text_past_the_str_digit_limit():
    assert [int_text(n) for n in (0, 7, -12)] == ["0", "7", "-12"]
    big = 7**6000  # 5,071 digits: str() refuses it
    with pytest.raises(ValueError):
        str(big)
    assert Decimal(int_text(big)) == big
    assert int_text(-(10**5000)) == "-1" + "0" * 5000
    assert str(ChowClass(P4, {(1,): 10**5000})) == "1" + "0" * 5000 + "*h1"


def test_from_normal_form_keeps_the_terms():
    terms = {(2, 0): 2, (1, 1): 5}
    c = ChowClass.from_normal_form(P44, terms)
    assert c.terms is terms
    assert c == ChowClass(P44, terms)


def _random_class(rng, space, max_terms=4, max_coeff=6):
    dims = space.factor_dims
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, n) for n in dims)
        terms[mono] = rng.randint(-max_coeff, max_coeff)
    return ChowClass(space, terms)


def _random_factors(rng, dims):
    return [_random_class(rng, ProductSpace(dims)).terms for _ in range(rng.randint(0, 4))]


def test_ring_laws_random():
    # the truncated product does not depend on the order or the grouping
    # of its factors, and the unit changes nothing: truncating after each
    # step is sound because the truncation ideal is an ideal
    rng = random.Random(20260810)
    for _ in range(150):
        k = rng.randint(1, 3)
        dims = tuple(rng.randint(0, 4) for _ in range(k))
        factors = _random_factors(rng, dims)
        product = truncated_product(factors, dims)
        assert truncated_product(factors[::-1], dims) == product
        split = rng.randint(0, len(factors))
        grouped = [truncated_product(factors[:split], dims),
                   truncated_product(factors[split:], dims)]
        assert truncated_product(grouped, dims) == product
        assert truncated_product(factors + [{(0,) * k: 1}], dims) == product


def test_truncation_soundness_random():
    rng = random.Random(99)
    for _ in range(100):
        k = rng.randint(1, 3)
        dims = tuple(rng.randint(0, 5) for _ in range(k))
        power = truncated_product(_random_factors(rng, dims) * rng.randint(0, 3), dims)
        for mono, coeff in power.items():
            assert coeff != 0
            assert all(0 <= e <= n for e, n in zip(mono, dims))


def _random_linear(rng, k):
    terms = {(0,) * k: rng.randint(-3, 3)}
    for i in range(k):
        mono = tuple(1 if j == i else 0 for j in range(k))
        terms[mono] = rng.randint(-3, 3)
    return {m: c for m, c in terms.items() if c}


def test_oracle_equivalence_random_products():
    # truncating after each step equals truncating once at the end
    rng = random.Random(42)
    for _ in range(250):
        k = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 5) for _ in range(k))
        factor_dicts = [_random_linear(rng, k) for _ in range(rng.randint(1, 6))]
        reference = naive_poly.truncate(naive_poly.product(factor_dicts, k), dims)
        assert truncated_product(factor_dicts, dims) == reference


def test_big_binomial_coefficients_exact():
    # (h1+h2)^40 in (P^20)^2: only the central monomial survives truncation
    s = {(1, 0): 1, (0, 1): 1}
    assert truncated_product([s] * 40, (20, 20)) == {(20, 20): math.comb(40, 20)}
    # (h1+h2)^30 keeps eleven terms with genuinely large coefficients
    expected = {(j, 30 - j): math.comb(30, j) for j in range(10, 21)}
    assert truncated_product([s] * 30, (20, 20)) == expected
