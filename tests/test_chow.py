import math
import random
import sys
from decimal import Decimal

import pytest

from chainlines import chow
from chainlines.chow import ChowClass, ProductSpace, hyperplane, int_text, one, render, zero

import naive_poly

P44 = ProductSpace((4, 4))
P11 = ProductSpace((1, 1))
P4 = ProductSpace((4,))


def test_product_space_validation():
    assert ProductSpace((0,)).nfactors == 1
    with pytest.raises(ValueError):
        ProductSpace(())
    with pytest.raises(ValueError):
        ProductSpace((3, -1))


def test_hyperplane_basics():
    assert hyperplane(P44, 1) == ChowClass(P44, {(1, 0): 1})
    assert hyperplane(P44, 2) == ChowClass(P44, {(0, 1): 1})
    # h = 0 in P^0
    assert hyperplane(ProductSpace((0, 4)), 1).is_zero()
    with pytest.raises(ValueError):
        hyperplane(P44, 0)
    with pytest.raises(ValueError):
        hyperplane(P44, 3)


def test_add():
    h1 = hyperplane(P44, 1)
    assert h1 + h1 == 2 * h1
    c = ChowClass(P44, {(2, 0): 2, (1, 1): 5})
    assert (c + (-1) * c).is_zero()
    inner = ChowClass(P44, {(2, 0): 2, (1, 1): 5, (0, 2): 2})
    assert c + ChowClass(P44, {(0, 2): 2}) == inner


def test_add_mismatched_spaces():
    with pytest.raises(ValueError):
        hyperplane(P44, 1) + hyperplane(P11, 1)
    with pytest.raises(ValueError):
        hyperplane(P44, 1) * hyperplane(P4, 1)


def test_mul_examples():
    h1, h2 = hyperplane(P44, 1), hyperplane(P44, 2)
    assert (2 * h1 + h2) * (h1 + 2 * h2) == ChowClass(
        P44, {(2, 0): 2, (1, 1): 5, (0, 2): 2}
    )
    g = hyperplane(P11, 1) + hyperplane(P11, 2)
    assert g * g == ChowClass(P11, {(1, 1): 2})
    h = hyperplane(P4, 1)
    assert (h * h * h * h * h).is_zero()


def test_coefficient():
    c = ChowClass(P44, {(2, 0): 2, (1, 1): 5, (0, 2): 2})
    assert c.coefficient((1, 1)) == 5
    assert c.coefficient((2, 0)) == 2
    assert zero(P44).coefficient((1, 1)) == 0
    assert hyperplane(P44, 1).coefficient((0, 1)) == 0
    assert c.coefficient((5, 0)) == 0  # beyond truncation
    with pytest.raises(ValueError):
        c.coefficient((1,))
    with pytest.raises(ValueError):
        c.coefficient((-1, 1))


def test_top_coefficient():
    assert ChowClass(P44, {(4, 4): 180}).top_coefficient() == 180
    assert zero(P44).top_coefficient() == 0
    p3 = ProductSpace((3,))
    h = hyperplane(p3, 1)
    prod = (1 * h) * (2 * h) * (1 * h)
    assert prod.top_coefficient() == 2
    # cross-check against the untruncated reference expansion
    ref = naive_poly.product([{(1,): 1}, {(1,): 2}, {(1,): 1}], 1)
    assert naive_poly.truncate(ref, (3,)) == dict(prod.terms)


def test_is_zero():
    assert zero(P44).is_zero()
    assert not hyperplane(P44, 1).is_zero()
    h = hyperplane(P4, 1)
    assert (h * h * h * h * h).is_zero()


def test_rendering():
    assert str(zero(P44)) == "0"
    assert str(hyperplane(P44, 1)) == "1*h1"
    assert str(one(P44) * 7) == "7"
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


def test_ring_laws_random():
    rng = random.Random(20260810)
    for _ in range(150):
        k = rng.randint(1, 3)
        space = ProductSpace(tuple(rng.randint(0, 4) for _ in range(k)))
        a = _random_class(rng, space)
        b = _random_class(rng, space)
        c = _random_class(rng, space)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero(space) == a
        assert a * one(space) == a
        assert (a - a).is_zero()


def test_truncation_soundness_random():
    rng = random.Random(99)
    for _ in range(100):
        k = rng.randint(1, 3)
        space = ProductSpace(tuple(rng.randint(0, 5) for _ in range(k)))
        result = _random_class(rng, space) * _random_class(rng, space)
        result = result + _random_class(rng, space)
        power = one(space)
        for _ in range(rng.randint(0, 3)):
            power = power * result
        for mono, coeff in power.terms.items():
            assert coeff != 0
            assert all(0 <= e <= n for e, n in zip(mono, space.factor_dims))


def _random_linear(rng, space):
    k = space.nfactors
    terms = {(0,) * k: rng.randint(-3, 3)}
    for i in range(k):
        mono = tuple(1 if j == i else 0 for j in range(k))
        terms[mono] = rng.randint(-3, 3)
    return {m: c for m, c in terms.items() if c}


def test_oracle_equivalence_random_products():
    rng = random.Random(42)
    for _ in range(250):
        k = rng.randint(1, 3)
        space = ProductSpace(tuple(rng.randint(1, 5) for _ in range(k)))
        factor_dicts = [_random_linear(rng, space) for _ in range(rng.randint(1, 6))]
        truncated = one(space)
        for d in factor_dicts:
            truncated = truncated * ChowClass(space, d)
        reference = naive_poly.truncate(
            naive_poly.product(factor_dicts, k), space.factor_dims
        )
        assert dict(truncated.terms) == reference


def test_big_binomial_coefficients_exact():
    # (h1+h2)^40 in (P^20)^2: only the central monomial survives truncation
    space = ProductSpace((20, 20))
    s = hyperplane(space, 1) + hyperplane(space, 2)
    powers = [one(space)]
    for _ in range(40):
        powers.append(powers[-1] * s)
    assert dict(powers[40].terms) == {(20, 20): math.comb(40, 20)}
    # (h1+h2)^30 keeps eleven terms with genuinely large coefficients
    expected = {(j, 30 - j): math.comb(30, j) for j in range(10, 21)}
    assert dict(powers[30].terms) == expected
