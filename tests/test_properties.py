"""Property tests over random small varieties (needs hypothesis, a test extra).

The examples are derandomized, so every run checks the same varieties and a
failure reproduces.
"""

import itertools
import math
import random
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from chainlines import chains, chow, finite_geometry  # noqa: E402
from chainlines.criteria import DefiningData  # noqa: E402
from chainlines.finite_geometry import (  # noqa: E402
    ChainGraph,
    HomogPoly,
    PrimeField,
    VarietySpec,
    eval_poly,
    format_variety,
    lines_through,
    parse_variety,
)
import naive_poly  # noqa: E402
from test_finite_geometry import (  # noqa: E402
    all_directions,
    binary_cubic,
    bitset_report,
    check_chain_search,
    check_grouped_kernels,
    column_lines,
    double_plane,
    index_line,
    pairwise_neighbors,
    searched,
    two_planes_meeting,
)

PRIMES = (2, 3, 5, 7)
SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def monomials(nvars, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]


def times(f, g, p):
    """The product of two forms (as exponent -> coefficient dicts) mod p."""
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(f.items(), g.items()):
        e = tuple(map(sum, zip(e1, e2)))
        out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


@st.composite
def forms(draw, p, nvars, degree, max_terms=5):
    chosen = draw(st.lists(st.sampled_from(monomials(nvars, degree)),
                           min_size=1, max_size=max_terms, unique=True))
    return {e: draw(st.integers(1, p - 1)) for e in chosen}


@st.composite
def hypersurfaces(draw, p, ambient):
    """A sparse form of degree 1-4, or a product of two, so that some
    varieties hold planes and many lines."""
    nvars = ambient + 1
    degree = draw(st.integers(1, 4))
    split = draw(st.integers(0, degree - 1))
    form = draw(forms(p, nvars, degree - split))
    if split:
        form = times(form, draw(forms(p, nvars, split)), p)
    return HomogPoly(degree, tuple(sorted((c, e) for e, c in form.items())))


@st.composite
def varieties(draw):
    """One or two hypersurfaces in P^2 or P^3 over F_2 ... F_7."""
    p = draw(st.sampled_from(PRIMES))
    ambient = draw(st.integers(2, 3))
    count = draw(st.integers(1, 2))
    polys = tuple(draw(hypersurfaces(p, ambient)) for _ in range(count))
    return VarietySpec(PrimeField(p), ambient, polys)


@SETTINGS
@given(varieties(), st.randoms(use_true_random=False))
def test_chain_graph_matches_pairwise_oracle(spec, rng):
    # the L_a lines, and those of explore's pass over X(F_p)
    oracle = pairwise_neighbors(spec)
    points, columns = ChainGraph(spec).join_all()
    assert points == sorted(oracle)
    lines, through = column_lines(columns, len(points))
    explored = {
        pt: {index_line(points, lines[j]) for j in numbers}
        for pt, numbers in zip(points, through)
    }
    graph = ChainGraph(spec)
    order = list(oracle)
    rng.shuffle(order)
    for pt in order:
        nbrs, at = oracle[pt]
        assert lines_through(spec, pt) == at == explored[pt]
        assert searched(graph, pt, 1).keys() == {pt, *nbrs}


@SETTINGS
@given(varieties(), st.randoms(use_true_random=False))
def test_chain_search_matches_goal_search(spec, rng):
    # chain_search, which meets y from y's own lines, against the one-point
    # search that stops at y, at every length, on a sample of ordered pairs
    # and the pair x == y, charged as check_chain_search says
    points = sorted(finite_geometry.enumerate_points(spec))
    pairs = list(itertools.product(points, repeat=2))
    pairs = rng.sample(pairs, min(len(pairs), 100)) + [(x, x) for x in points[:1]]
    check_chain_search(spec, pairs, range(1, 5))


@SETTINGS
@given(varieties(), st.randoms(use_true_random=False))
@example(double_plane(2), random.Random(0))  # Q vanishes on one line of P(W) at 0:0:0:1, over F_2
@example(two_planes_meeting(5), random.Random(0))  # and on two lines there
@example(binary_cubic(7), random.Random(0))  # c_2 is 0 on all of W at 0:0:1
def test_rooted_solve_matches_all_directions(spec, rng):
    # the solve that roots c_2 first, at all the points at once, with the
    # cut at N+1 and at a cut drawn per point, against evaluating every c_k
    # at every direction of P(W), one point at a time (all_directions): on
    # either route (c_2 rooted wherever it has a live term, _ROOTING_STEPS
    # minus infinity, or wherever that is cheaper, its own value)
    points = sorted(finite_geometry.enumerate_points(spec))
    size = spec.ambient + 1
    oracle = [all_directions(spec, a, size) for a in points]
    cuts = [rng.randrange(size + 1) for _ in points]
    for rooting in (-math.inf, finite_geometry._ROOTING_STEPS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(finite_geometry, "_ROOTING_STEPS", rooting)
            for batch in ([size] * len(points), cuts):
                found = ChainGraph(spec)._directions(points, batch)
                assert [sorted(directions) for directions in found] == [
                    [v for v in every if v.index(1) < cut] for every, cut in zip(oracle, batch)]


@SETTINGS
@given(varieties())
def test_grouped_kernels_match_one_point_kernels(spec):
    # the bases of W from the grouped elimination, at every point and at
    # both cuts, against the one-point kernel
    check_grouped_kernels(spec)


@SETTINGS
@given(varieties())
def test_connectivity_report_matches_bitset_oracle(spec):
    # the column-wise levels and closed forms against the bitset levels
    # over all the points, the census key order included
    for max_length in range(1, 5):
        report = finite_geometry.connectivity_report(spec, max_length)
        oracle = bitset_report(spec, max_length)
        assert report == oracle
        assert list(report.line_counts) == list(oracle.line_counts)


@SETTINGS
@given(st.data())
def test_local_terms_expand_g_along_a_line(data):
    # sum_k t^k c_k(a, v) = G(a + t v) - G(a) for any a, v, t, with each
    # c_k grouped by its monomials v^f; for p <= d some binomial
    # multipliers vanish mod p
    p = data.draw(st.sampled_from(PRIMES))
    ambient = data.draw(st.integers(2, 3))
    poly = data.draw(hypersurfaces(p, ambient))
    vectors = st.lists(st.integers(0, p - 1), min_size=ambient + 1, max_size=ambient + 1)
    a, v = data.draw(vectors), data.draw(vectors)
    t = data.draw(st.integers(0, p - 1))
    field = PrimeField(p)
    total = eval_poly(poly, a, field)
    for k, form in finite_geometry._local_terms(poly, p).items():
        for v_exps, terms in form.items():
            assert sum(v_exps) == k and terms
            for mult, a_exps in terms:
                assert sum(a_exps) == poly.degree - k
                term = mult * t**k
                for x, e in zip(a + v, a_exps + v_exps):
                    term *= x**e
                total += term
    assert total % p == eval_poly(poly, [x + t * y for x, y in zip(a, v)], field)


@SETTINGS
@given(varieties())
def test_format_then_parse_is_identity(spec):
    assert parse_variety(format_variety(spec)) == spec


CLASSES = (st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(1, 25),
           st.integers(2, 9), st.booleans())


def small_class(degrees, ambient, length):
    problem = chains.ChainProblem(DefiningData(tuple(degrees), ambient), length)
    hypothesis.assume(chains.class_term_count(problem) <= 5000)
    return problem


def entries(problem, counting):
    """(monomial prefix, coefficient, leaves) of every run entry of the walk."""
    return [(head + mid, coeff * weight, leaves)
            for head, _, coeff, run in chains._class_groups(problem, counting)
            for mid, _, weight, leaves in run]


@SETTINGS
@given(*CLASSES)
def test_class_walk_lists_strictly_descending_monomials(degrees, ambient, length, counting):
    problem = small_class(degrees, ambient, length)
    monos = [prefix + tail for prefix, _, (tails, _, _) in entries(problem, counting)
             for tail in tails]
    assert all(a > b for a, b in zip(monos, monos[1:]))
    assert len(monos) == chains.class_term_count(problem)


@SETTINGS
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3), st.integers(1, 25),
       st.integers(3, 9), st.booleans())
def test_class_walk_groups_have_polynomially_many_bodies(degrees, ambient, length, counting):
    # an entry's body is its coefficient, fixed by the multiset of
    # a_2..a_{l-2}, and its leaves, fixed by a_{l-2}
    problem = small_class(degrees, ambient, length)
    top = problem.data.total_degree - problem.data.m
    bodies = {(coeff, id(leaves)) for _, coeff, leaves in entries(problem, counting)}
    assert len(bodies) <= math.comb(top + length - 3, length - 3) * (top + 1)


# the default cap, none kept, and a cap of a few bodies, which is cleared
# in the middle of a run
@pytest.mark.parametrize("cap", [chow.BODY_CACHE_CHARS, 0, 300])
@SETTINGS
@given(*CLASSES)
def test_streamed_class_text_matches_str_and_reference(cap, degrees, ambient, length, counting):
    problem = small_class(degrees, ambient, length)
    cls = (chains.counting_class if counting else chains.existence_class)(problem)
    with mock.patch.object(chow, "BODY_CACHE_CHARS", cap):
        streamed = "".join(chains.class_text(problem, counting))
    assert streamed == str(cls) == naive_poly.render(cls.terms)
