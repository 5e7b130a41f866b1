import functools
import itertools
import operator
import random
import struct
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, prod
from unittest import mock

import pytest

from chainlines import finite_geometry
from chainlines.cli import main
from chainlines.finite_geometry import (
    BudgetExceededError,
    Chain,
    ChainGraph,
    ConnectivityReport,
    HomogPoly,
    Line,
    PrimeField,
    VarietyParseError,
    VarietySpec,
    chain_search,
    connectivity_report,
    coordinate_hyperplane,
    enumerate_points,
    eval_poly,
    fermat_cubic,
    format_variety,
    line_points,
    lines_through,
    locus,
    normalize_point,
    on_variety,
    parse_point,
    parse_variety,
    split_quadric,
)

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)


def projective_points(field, n):
    """Every canonical point of P^n(F_p): lead coordinate 1, zeros before it."""
    for lead in range(n + 1):
        for tail in itertools.product(range(field.p), repeat=n - lead):
            yield (0,) * lead + (1,) + tail


def sweep_points(spec):
    """Reference route: evaluate the polynomials at every point of P^N(F_p)."""
    return {pt for pt in projective_points(spec.field, spec.ambient) if on_variety(spec, pt)}


def line_through(a, b, field):
    """The line spanned by two distinct points, in canonical RREF form, by
    row reduction: the oracle for the lines the package makes in closed
    form at a point and a direction of L_a (_line_at)."""
    if a == b:
        raise ValueError("two distinct points are needed to span a line")
    reduced = rref([a, b], field.p)
    if len(reduced) < 2:
        raise ValueError("points do not span a line")
    return Line(tuple(tuple(row) for _, row in reduced))


def _mul_linear(coeffs: list[int], ai: int, bi: int, p: int) -> list[int]:
    # multiply a binary form (coefficients of u^(k-j) v^j) by (ai*u + bi*v)
    out = [0] * (len(coeffs) + 1)
    for j, c in enumerate(coeffs):
        if c:
            out[j] = (out[j] + c * ai) % p
            out[j + 1] = (out[j + 1] + c * bi) % p
    return out


def line_in_variety(spec, line):
    """Scheme-theoretic containment, by symbolic restriction to the line.

    Substitutes the parametrization u*a + v*b into each polynomial and checks
    that all d+1 coefficients of the resulting binary form vanish.  Never
    decided by sampling points: for p <= d that would accept lines that only
    look contained.  The package decides containment from the c_k table
    instead; this direct expansion is the check it is tested against.
    """
    p = spec.field.p
    a, b = line.basis
    for poly in spec.polys:
        coeffs = [0] * (poly.degree + 1)
        for c, exps in poly.terms:
            form = [c]
            for ai, bi, e in zip(a, b, exps):
                for _ in range(e):
                    form = _mul_linear(form, ai, bi, p)
            for j, v in enumerate(form):
                coeffs[j] = (coeffs[j] + v) % p
        if any(coeffs):
            return False
    return True


def sweep_lines_through(spec, x):
    """Reference route: join x to every point of P^N(F_p), keep contained lines."""
    found, seen = set(), set()
    for y in projective_points(spec.field, spec.ambient):
        if y == x:
            continue
        line = line_through(x, y, spec.field)
        if line not in seen:
            seen.add(line)
            if line_in_variety(spec, line):
                found.add(line)
    return found


def pairwise_neighbors(spec):
    """Reference route: join each point of X(F_p) to every other point.

    Maps each point to its sorted neighbor list and its set of contained
    lines; containment is decided once per line.
    """
    field, points = spec.field, sorted(sweep_points(spec))
    contained, out = {}, {}
    for a in points:
        nbrs, lines = [], set()
        for b in points:
            if b != a:
                line = line_through(a, b, field)
                if line not in contained:
                    contained[line] = line_in_variety(spec, line)
                if contained[line]:
                    nbrs.append(b)
                    lines.add(line)
        out[a] = (nbrs, lines)
    return out


def index_line(points, members):
    """The Line of one of join_all's index lines: its first two points, in
    line_points order, are the second and the first row of the basis."""
    return Line((points[members[1]], points[members[0]]))


def column_lines(columns, n):
    """join_all's p+1 index columns as the lines, each the indices of its
    points in line_points order, and for each of the n point indices the
    numbers of the lines through it."""
    lines = [list(members) for members in zip(*columns)]
    through = [[] for _ in range(n)]
    for number, members in enumerate(lines):
        for q in members:
            through[q].append(number)
    return lines, through


def indexed_lines(graph):
    """Reference route for join_all's lines, one line at a time: the sorted
    points, every line found at its least point a of the section x_0 = 0,
    made by _line_at and listed by line_points as point indices, in order of
    a and then of v, and each point's line numbers.  Charged as join_all."""
    spec = graph.spec
    points = sorted(enumerate_points(spec))
    section = [a for a in points if a[0] == 0]
    found = graph._directions(section, [a.index(1) for a in section])
    graph._charge((spec.field.p + 1) * sum(map(len, found)))
    index = {pt: i for i, pt in enumerate(points)}
    lines, through = [], [[] for _ in points]
    for a, directions in zip(section, found):
        for v in sorted(directions):
            members = [index[q] for q in line_points(finite_geometry._line_at(a, v, spec.field.p), spec.field)]
            for q in members:
                through[q].append(len(lines))
            lines.append(members)
    return points, lines, through


def rref(rows, p):
    """Gauss-Jordan elimination over F_p: the nonzero rows of the reduced
    row echelon form of rows, as (pivot column, row) sorted by pivot column."""
    reduced = []
    for row in rows:
        row = [x % p for x in row]
        for col, r in reduced:
            if row[col]:
                f = row[col]
                row = [(x - f * y) % p for x, y in zip(row, r)]
        col = next((i for i, x in enumerate(row) if x), None)
        if col is None:
            continue
        inv = pow(row[col], p - 2, p)
        row = [x * inv % p for x in row]
        reduced = [
            (c, [(x - r[col] * y) % p for x, y in zip(r, row)] if r[col] else r)
            for c, r in reduced
        ]
        reduced.append((col, row))
    return sorted(reduced)


def kernel(rows, size, j, p):
    """Reference route for the bases of W, one point at a time: a basis of
    the vectors v of length size with v_j = 0 and row.v = 0 for every row
    (there may be none), in echelon form.

    Column j of every row is 0.  The rows are reduced from the last column
    back (rref of the reversed rows), so each pivot is the last nonzero
    entry of its row.  One basis vector per free column f other than j, in
    increasing order: 1 at f, 0 at the other free columns, and nonzero
    entries only at the pivots after f.
    """
    pivots = {size - 1 - c: r[::-1] for c, r in rref([row[::-1] for row in rows], p)}
    basis = []
    for free in range(size):
        if free != j and free not in pivots:
            w = [0] * size
            w[free] = 1
            for c, r in pivots.items():
                w[c] = -r[free] % p
            basis.append(w)
    return basis


def check_grouped_kernels(spec):
    """The grouped elimination (ChainGraph._kernels) gives every point of
    X(F_p) the echelon basis of W that kernel gives it alone, at the cut j
    of its lead and at the cut N+1, and the number of directions of that
    basis before the cut; each point is in one group, and the points of a
    group share their lead and the places of their nonzero basis entries."""
    graph = ChainGraph(spec)
    points = sorted(enumerate_points(spec))
    p, size = spec.field.p, spec.ambient + 1
    grads = graph._columns(points)[0]
    for cuts in ([a.index(1) for a in points], [size] * len(points)):
        bases, groups = grouped_bases(graph, points, cuts)
        assert sorted(k for at in groups for k in at) == list(range(len(points)))
        for k, (a, cut) in enumerate(zip(points, cuts)):
            j = a.index(1)
            basis = kernel([[0 if i == j else col[k] for i, col in enumerate(grad)] for grad in grads],
                           size, j, p)
            r = sum(w.index(1) < cut for w in basis)
            assert bases[k] == (basis, (p ** len(basis) - p ** (len(basis) - r)) // (p - 1))
        for at in groups:
            shapes = {(points[k].index(1), tuple(tuple(map(bool, w)) for w in bases[k][0])) for k in at}
            assert len(shapes) == 1


def grouped_bases(graph, points, cuts):
    """The echelon basis of W at each point, rebuilt from the groups of
    ChainGraph._kernels, with the number of directions its group is
    solved at (0 for a group the cut leaves without one), and each
    group's indices."""
    size, p = graph.spec.ambient + 1, graph.spec.field.p
    bases, groups = [None] * len(points), []
    for at, j, cut, entries in graph._kernels(graph._columns(points)[0], points, cuts):
        free = [f for f in range(size) if f != j and f not in entries]
        r = sum(f < cut for f in free)
        count = (p ** len(free) - p ** (len(free) - r)) // (p - 1)
        groups.append(at)
        for q, k in enumerate(at):
            basis = []
            for f in free:
                w = [0] * size
                w[f] = 1
                for c, nonzero in entries.items():
                    w[c] = dict(nonzero).get(f, [0] * len(at))[q]
                basis.append(w)
            bases[k] = (basis, count)
    return bases, groups


def pairwise_parents(neighbors, start, max_depth):
    """Parent map of a BFS over the given neighbor lists, pair by pair."""
    parent, frontier = {start: start}, [start]
    for _ in range(max_depth):
        nxt = []
        for a in frontier:
            for b in neighbors[a][0]:
                if b not in parent:
                    parent[b] = a
                    nxt.append(b)
        frontier = nxt
    return parent


def searched(graph, start, depth):
    """The parent map of the search from start (ChainGraph._levels) once
    its levels 0..depth are made."""
    for parent, _ in itertools.islice(graph._levels(start), depth + 1):
        pass
    return parent


def one_point_solves(spec):
    """L_a solved at one point a per call, each on a fresh graph, and
    memoized: a's directions and the charge of its solve."""

    @functools.cache
    def solve(a):
        graph = ChainGraph(spec)
        [directions] = graph._directions([a], [len(a)])
        return directions, graph.charged

    return solve


def goal_search(spec, solve, start, max_depth, goal):
    """Reference route for chain_search, one point at a time: a BFS from
    start that solves L_a at one frontier point per call (solve, from
    one_point_solves) and stops as soon as goal is reached, or after
    max_depth levels.  Each contained line is expanded once, by the first
    frontier point on it, and charged its p+1 points; the new points of
    each frontier point join the next frontier in sorted order.  Returns
    the parent map and the charge: every solve plus the points listed."""
    field = spec.field
    parent, frontier, expanded, charged = {start: None}, [start], set(), 0
    while frontier and max_depth and goal not in parent:
        max_depth -= 1
        nxt = []
        for a in frontier:
            directions, charge = solve(a)
            charged += charge
            new = []
            for v in directions:
                line = finite_geometry._line_at(a, v, field.p)
                if line in expanded:
                    continue
                expanded.add(line)
                charged += field.p + 1
                for b in line_points(line, field):
                    if b not in parent:
                        parent[b] = a, line
                        new.append(b)
            if goal in parent:
                return parent, charged
            new.sort()
            nxt += new
        frontier = nxt
    return parent, charged


def goal_chain(spec, solve, x, y, max_length):
    """The chain goal_search finds from x to y, or None, and its charge."""
    parent, charged = goal_search(spec, solve, x, max_length, y)
    if y not in parent:
        return None, charged
    points, lines = [y], []
    while points[-1] != x:
        a, line = parent[points[-1]]
        points.append(a)
        lines.append(line)
    return Chain(tuple(reversed(points)), tuple(reversed(lines))), charged


def charged_chain(spec, x, y, max_length):
    """chain_search's chain and the charge of the graph it builds."""
    graphs = []
    init = ChainGraph.__init__

    def recorded(graph, spec):
        init(graph, spec)
        graphs.append(graph)

    with mock.patch.object(ChainGraph, "__init__", recorded):
        chain = chain_search(spec, x, y, max_length)
    [graph] = graphs
    return chain, graph.charged


def check_chain_search(spec, pairs, lengths):
    """chain_search gives every (x, y) pair at every length the chain of
    goal_search, and is charged at most goal_search's charge plus one solve
    at y; the same charge when y == x, when y is on level 1, when x is on
    no line or at length 1, where chain_search does not solve at y.
    Returns how many cases of each kind were met."""
    solve, kinds = one_point_solves(spec), Counter()
    for x, y in pairs:
        at_y, at_x = solve(y), solve(x)
        on_level_1 = goal_chain(spec, solve, x, y, 1)[0] is not None
        for max_length in lengths:
            chain, charged = charged_chain(spec, x, y, max_length)
            oracle, bound = goal_chain(spec, solve, x, y, max_length)
            assert chain == oracle, (x, y, max_length)
            if on_level_1 or not at_x[0] or max_length == 1:
                assert charged == bound, (x, y, max_length)
            else:
                assert charged <= bound + at_y[1], (x, y, max_length)
            kinds.update({"x == y": x == y, "y on no line": not at_y[0], "x on no line": not at_x[0],
                          "y on level 1": on_level_1 and x != y, "no chain": chain is None,
                          "level 3 on": chain is not None and chain.length >= 3,
                          "cheaper": charged < bound, "dearer": charged > bound})
    return kinds


def fermat_cubic_threefold(p):
    exps = [tuple(3 if j == i else 0 for j in range(5)) for i in range(5)]
    return VarietySpec(PrimeField(p), 4, (HomogPoly(3, tuple((1, e) for e in exps)),))


def conic_cone(p):
    """x0*x2 - x1^2 in P^3: no x3, vertex (0,0,0,1), a line through each point."""
    return VarietySpec(PrimeField(p), 3, (HomogPoly(2, ((1, (1, 0, 1, 0)), (p - 1, (0, 2, 0, 0)))),))


def two_minors(p):
    """x0*x2 - x1^2 = x0*x4 - x1*x3 = 0 in P^4: a cubic scroll plus a plane."""
    polys = (
        HomogPoly(2, ((1, (1, 0, 1, 0, 0)), (p - 1, (0, 2, 0, 0, 0)))),
        HomogPoly(2, ((1, (1, 0, 0, 0, 1)), (p - 1, (0, 1, 0, 1, 0)))),
    )
    return VarietySpec(PrimeField(p), 4, polys)


def cubic_with_line():
    """A cubic surface x0*Q1 + x1*Q2 over F_7 with mixed exponents: it holds
    the line x0 = x1 = 0, and 72 point-line incidences in all."""
    terms = (
        (6, (2, 1, 0, 0)), (5, (2, 0, 1, 0)), (6, (2, 0, 0, 1)), (3, (1, 2, 0, 0)),
        (2, (1, 1, 0, 1)), (5, (1, 0, 2, 0)), (5, (1, 0, 1, 1)), (5, (1, 0, 0, 2)),
        (5, (0, 3, 0, 0)), (2, (0, 1, 0, 2)),
    )
    return VarietySpec(PrimeField(7), 3, (HomogPoly(3, terms),))


def lineless_cubic():
    """A cubic surface over F_7 with 43 points and no line on it."""
    terms = ((5, (0, 0, 3, 0)), (6, (0, 1, 1, 1)), (2, (0, 3, 0, 0)), (3, (2, 0, 1, 0)),
             (1, (2, 1, 0, 0)), (5, (3, 0, 0, 0)))
    return VarietySpec(PrimeField(7), 3, (HomogPoly(3, terms),))


def fermat_surface(p, d):
    """x0^d + x1^d + x2^d + x3^d in P^3."""
    return VarietySpec(PrimeField(p), 3, (HomogPoly(d, tuple(
        (1, tuple(d if j == i else 0 for j in range(4))) for i in range(4))),))


def fermat_quartic(p):
    """x0^4 + x1^4 + x2^4 + x3^4 in P^3: over F_3, where x^4 + y^4 splits into
    two quadrics, 16 points on 8 lines; over F_5 no point at all."""
    return fermat_surface(p, 4)


def diagonal_quartic(p):
    """x0^4 + x1^4 - x2^4 - x3^4 in P^3: holds the lines x0 = u*x2, x1 = v*x3
    and x0 = u*x3, x1 = v*x2 for u^4 = v^4 = 1."""
    return VarietySpec(PrimeField(p), 3, (HomogPoly(4, (
        (1, (4, 0, 0, 0)), (1, (0, 4, 0, 0)), (p - 1, (0, 0, 4, 0)), (p - 1, (0, 0, 0, 4)))),))


def diagonal_quintic(p):
    """x0^5 + x1^5 - x2^5 - x3^5 in P^3: over F_7 57 points and 3 lines, and
    40 ordered pairs that pass both gradient tests without being joined;
    c_2 rules out 32 of them, and only c_3 the other 8."""
    return VarietySpec(PrimeField(p), 3, (HomogPoly(5, (
        (1, (5, 0, 0, 0)), (1, (0, 5, 0, 0)), (p - 1, (0, 0, 5, 0)), (p - 1, (0, 0, 0, 5)))),))


def quadric_and_quartic(p):
    """x0*x3 - x1*x2 = x0*x1*x2*x3 + x0^4 - x1^4 = 0 in P^3: mixed degrees;
    over F_5 10 points, one line, and 8 ordered pairs that pass both
    gradient tests without being joined, which only the quartic rules out."""
    quadric = split_quadric(p).polys[0]
    quartic = HomogPoly(4, ((1, (1, 1, 1, 1)), (1, (4, 0, 0, 0)), (p - 1, (0, 4, 0, 0))))
    return VarietySpec(PrimeField(p), 3, (quadric, quartic))


def quadric_and_skew_line(p):
    """The split quadric in x4 = x5 = 0 and the line x0 = ... = x3 = 0 in
    P^5: x0*x3 - x1*x2 and every x_i*x_k, i <= 3 < k.  Two components of
    the chain graph, the quadric's three levels deep from each of its
    points."""
    quadric = split_quadric(p).polys[0]
    lift = HomogPoly(2, tuple((c, e + (0, 0)) for c, e in quadric.terms))
    products = tuple(HomogPoly(2, ((1, tuple(int(m in (i, k)) for m in range(6))),))
                     for i in range(4) for k in (4, 5))
    return VarietySpec(PrimeField(p), 5, (lift, *products))


ORACLE_VARIETIES = {
    "quadric5": split_quadric(5),
    "fermat2": fermat_cubic(2),
    "fermat3": fermat_cubic(3),  # grad G = 3(x_i^2) vanishes identically over F_3
    "fermat5": fermat_cubic(5),
    "fermat7": fermat_cubic(7),
    "plane3": coordinate_hyperplane(3),
    "cone5": conic_cone(5),  # contains (0,0,0,1), like quadric5
    "minors5": two_minors(5),
    "cubic7": cubic_with_line(),
    "fermat3fold5": fermat_cubic_threefold(5),
    "fermat4_3": fermat_quartic(3),  # p <= d: lines whose 4 points all lie on X
    "fermat4_5": fermat_quartic(5),  # no points: n = 0
    "quartic5": diagonal_quartic(5),
    "quintic7": diagonal_quintic(7),
    "mixed5": quadric_and_quartic(5),
}


def test_prime_field_validation():
    assert PrimeField(2).p == 2
    assert PrimeField(2147483647).p == 2147483647  # largest prime below 2^31
    for bad in (1, 4, 9, 2**31, 2**31 + 11):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_homog_poly_validation():
    HomogPoly(2, ((1, (1, 0, 0, 1)), (2, (0, 1, 1, 0))))
    with pytest.raises(ValueError):
        HomogPoly(2, ())
    with pytest.raises(ValueError):
        HomogPoly(2, ((0, (1, 0, 0, 1)),))
    with pytest.raises(ValueError):
        HomogPoly(2, ((1, (1, 0, 0, 0)),))  # degree mismatch
    with pytest.raises(ValueError):
        HomogPoly(2, ((1, (1, 0, 0, 1)), (2, (1, 0, 0, 1))))  # duplicate
    with pytest.raises(ValueError):
        HomogPoly(2, ((1, (1, 0, 0, 1)), (4, (1, 1, 0))))  # mixed term lengths


def test_normalize_point():
    assert normalize_point((0, 2, 4), F5) == (0, 1, 2)
    assert normalize_point((3, 1, 0, 0), F5) == (1, 2, 0, 0)
    assert normalize_point((-1, 1), F5) == (1, 4)
    with pytest.raises(ValueError):
        normalize_point((0, 0, 5), F5)


def test_parse_point():
    assert parse_point("1:0:0:0", F5) == (1, 0, 0, 0)
    assert parse_point("0:2:4:0", F5) == (0, 1, 2, 0)
    with pytest.raises(ValueError):
        parse_point("1:x:0", F5)


def test_eval_poly_examples():
    quadric = split_quadric(5).polys[0]
    assert eval_poly(quadric, (1, 0, 0, 0), F5) == 0
    cubic = fermat_cubic(7).polys[0]
    assert eval_poly(cubic, (1, 0, 0, 0), F7) == 1
    quadric3 = split_quadric(3).polys[0]
    assert eval_poly(quadric3, (1, 1, 1, 1), F3) == 0
    with pytest.raises(ValueError):
        eval_poly(quadric, (1, 0, 0), F5)


def test_on_variety():
    spec = split_quadric(3)
    assert on_variety(spec, (1, 0, 0, 0))
    assert not on_variety(spec, (1, 0, 0, 1))
    for pt in enumerate_points(spec):
        assert on_variety(spec, pt)


def test_enumerate_points_quadric_counts():
    # split quadric has (q+1)^2 rational points
    assert len(enumerate_points(split_quadric(3))) == 16
    assert len(enumerate_points(split_quadric(5))) == 36
    assert len(enumerate_points(split_quadric(7))) == 64


def test_enumerate_points_empty_variety():
    # the full linear system x0 = ... = xN = 0 has no projective solutions
    field = PrimeField(3)
    polys = tuple(
        HomogPoly(1, ((1, tuple(1 if j == i else 0 for j in range(4))),))
        for i in range(4)
    )
    spec = VarietySpec(field, 3, polys)
    assert enumerate_points(spec) == set()


def test_budget_guard():
    spec = split_quadric(1009)
    with pytest.raises(BudgetExceededError):
        enumerate_points(spec)


def test_line_through_canonical():
    line = line_through((1, 0, 0, 0), (0, 0, 0, 1), F5)
    assert line.basis == ((1, 0, 0, 0), (0, 0, 0, 1))
    a, b = (1, 2, 0, 4), (0, 1, 1, 1)
    assert line_through(a, b, F5) == line_through(b, a, F5)
    with pytest.raises(ValueError):
        line_through(a, a, F5)
    # coordinates are read mod p: 6 is 1 and 5 is 0 over F_5
    assert line_through(a, (0, 6, 1, 6), F5) == line_through(a, b, F5)
    with pytest.raises(ValueError):
        line_through(a, (0, 5, 0, 0), F5)
    # any two points of a line span the same Line value
    pts = line_points(line_through(a, b, F5), F5)
    assert len(pts) == 6
    for c, d in itertools.combinations(pts, 2):
        assert line_through(c, d, F5) == line_through(a, b, F5)


def test_line_in_variety_quadric():
    spec = split_quadric(3)
    ruling = line_through((1, 0, 0, 0), (0, 1, 0, 0), F3)
    assert line_in_variety(spec, ruling)
    secant = line_through((1, 0, 0, 0), (0, 0, 0, 1), F3)
    assert not line_in_variety(spec, secant)


def test_line_in_variety_fermat_cubic_classical_line():
    # x0 + x1 = x2 + x3 = 0 lies on the Fermat cubic
    spec = fermat_cubic(7)
    line = line_through(
        normalize_point((1, -1, 0, 0), F7), normalize_point((0, 0, 1, -1), F7), F7
    )
    assert line_in_variety(spec, line)


def test_line_containment_needs_symbolic_check():
    # x0*x1*(x0 - x1) over F_2 vanishes at every rational point of the line
    # spanned by e0, e1 yet does not contain it
    field = PrimeField(2)
    poly = HomogPoly(3, ((1, (2, 1, 0)), (1, (1, 2, 0))))  # x0^2 x1 + x0 x1^2
    spec = VarietySpec(field, 2, (poly,))
    line = line_through((1, 0, 0), (0, 1, 0), field)
    for pt in line_points(line, field):
        assert on_variety(spec, pt)
    assert not line_in_variety(spec, line)


def test_containment_implies_pointwise_vanishing():
    spec = split_quadric(5)
    x = (1, 0, 0, 0)
    for line in lines_through(spec, x):
        for pt in line_points(line, F5):
            assert on_variety(spec, pt)


def test_lines_through_quadric_all_points():
    spec = split_quadric(5)
    for pt in sorted(enumerate_points(spec)):
        assert len(lines_through(spec, pt)) == 2


@pytest.mark.parametrize(
    "spec",
    [
        split_quadric(5),
        fermat_cubic(5),
        fermat_cubic(7),
        coordinate_hyperplane(3),
        fermat_cubic_threefold(5),
    ],
    ids=["quadric5", "fermat5", "fermat7", "plane3", "fermat3fold5"],
)
def test_lines_through_matches_sweep(spec):
    for pt in sorted(enumerate_points(spec)):
        assert lines_through(spec, pt) == sweep_lines_through(spec, pt)


@pytest.mark.parametrize("spec", ORACLE_VARIETIES.values(), ids=ORACLE_VARIETIES.keys())
def test_chain_graph_matches_pairwise_oracle(spec):
    assert enumerate_points(spec) == sweep_points(spec)
    oracle = pairwise_neighbors(spec)
    shuffled = list(oracle)
    random.Random(1).shuffle(shuffled)
    # the lines through each point, and the points a search reaches in one
    # step, where one graph searches from every point, whatever it searched
    # before
    for order in (sorted(oracle), shuffled):
        graph = ChainGraph(spec)
        for pt in order:
            nbrs, lines = oracle[pt]
            assert lines_through(spec, pt) == lines
            assert searched(graph, pt, 1).keys() == {pt, *nbrs}


@pytest.mark.parametrize("spec", ORACLE_VARIETIES.values(), ids=ORACLE_VARIETIES.keys())
def test_containment_route_matches_line_in_variety(spec):
    # explore's route: at each point a of the section x_0 = 0, the directions
    # of L_a that lead before a's lead give exactly the lines ab that lie on
    # X (symbolic containment) and have a as their least point, for every
    # other point b; no point off the section is the least point of a line
    graph = ChainGraph(spec)
    points = sorted(enumerate_points(spec))
    section = [a for a in points if a[0] == 0]
    found = graph._directions(section, [a.index(1) for a in section])
    p = spec.field.p
    for a, directions in zip(section, found):
        lines = {finite_geometry._line_at(a, v, p) for v in directions}
        assert len(lines) == len(directions)
        for b in points:
            if b != a:
                line = line_through(a, b, spec.field)
                least = min(line_points(line, spec.field)) == a
                assert (line in lines) == (least and line_in_variety(spec, line))
    for a in points[len(section):]:
        for b in points:
            if b != a:
                line = line_through(a, b, spec.field)
                assert min(line_points(line, spec.field))[0] == 0


def smooth_conic(p):
    """x0*x2 - x1^2 in P^2: p+1 points, no line."""
    return VarietySpec(PrimeField(p), 2, (HomogPoly(2, ((1, (1, 0, 1)), (p - 1, (0, 2, 0)))),))


# three more varieties for the gradients and explore's lines: every point
# of hyperplane5 lies in x_0 = 0, and conic151 has no line; their tangent
# bound (N+1)(p-1)^2 needs slots of 1, 2 and 4 bytes
MORE_VARIETIES = {
    "hyperplane5": coordinate_hyperplane(5, 4),  # bound 80
    "quadric11": split_quadric(11),  # bound 400
    "conic151": smooth_conic(151),  # bound 67,500
}
TANGENT_WIDTHS = {"hyperplane5": 1, "quadric11": 2, "conic151": 4}


def plain_gradient(spec, a):
    """grad G(a) for every G, term by term from G itself: the reference for
    the column-wise gradients."""
    p = spec.field.p
    return [[sum(c * e[i] * prod(pow(x, f - (k == i), p) for k, (x, f) in enumerate(zip(a, e)))
                  for c, e in poly.terms if e[i]) % p for i in range(len(a))]
            for poly in spec.polys]


@pytest.mark.parametrize(
    "spec",
    [*ORACLE_VARIETIES.values(), *MORE_VARIETIES.values()],
    ids=[*ORACLE_VARIETIES, *MORE_VARIETIES],
)
def test_packed_tangent_filter_matches_dot_products(spec):
    # the tangent test c_1(a, b) = grad G(a).b = 0 at every pair of points:
    # packed, one slot per b (_pack, _slots) at the tangent bound, from the
    # column-wise gradients of L_a's solve, it keeps the b the plain dot
    # products keep; and those are the b whose direction b - b_j a from a
    # (j the lead of a) lies in the solve's W (_kernel of the gradient rows),
    # as grad G(a).a = d G(a) = 0
    graph = ChainGraph(spec)
    points = sorted(enumerate_points(spec))
    p, size, n = spec.field.p, spec.ambient + 1, len(points)
    fmt = finite_geometry._slot_format(size * (p - 1) ** 2)
    packed = finite_geometry._pack(list(zip(*points)) or [()] * size, fmt)
    grads = graph._columns(points)[0]
    for k, a in enumerate(points):
        j = a.index(1)
        rows = [[col[k] for col in grad] for grad in grads]
        plain = [not any(sum(map(operator.mul, g, b)) % p for g in plain_gradient(spec, a))
                 for b in points]
        slots = [finite_geometry._slots(g, packed, fmt, n) for g in rows]
        assert [not any(s[q] % p for s in slots) for q in range(n)] == plain
        basis = kernel([[0 if i == j else x for i, x in enumerate(g)] for g in rows], size, j, p)
        for b, tangent in zip(points, plain):
            v = [(x - b[j] * y) % p for x, y in zip(b, a)]
            span = [sum(v[w.index(1)] * w[i] for w in basis) % p for i in range(size)]
            assert (span == v) == tangent


@pytest.mark.parametrize(
    "spec, width",
    [(MORE_VARIETIES[name], width) for name, width in TANGENT_WIDTHS.items()],
    ids=TANGENT_WIDTHS.keys(),
)
def test_tangent_filter_slot_widths(spec, width):
    bound = (spec.ambient + 1) * (spec.field.p - 1) ** 2
    fmt = finite_geometry._slot_format(bound)
    assert struct.calcsize(fmt) == width
    # points and gradients with entries near p - 1 fill the slots to the
    # bound, where a slot too narrow carries into the next one: each slot
    # holds its dot product exactly, not only mod p
    p, size = spec.field.p, spec.ambient + 1
    points = sorted(itertools.product(range(p - 3, p), repeat=size))
    n = len(points)
    rng = random.Random(width)
    grads = [[p - 1] * size] + [[rng.randrange(max(0, p - 8), p) for _ in range(size)] for _ in range(7)]
    packed = finite_geometry._pack(list(zip(*points)), fmt)
    for g in grads:
        # the gradient g at every point
        assert list(finite_geometry._slots(g, packed, fmt, n)) == [
            sum(map(operator.mul, g, b)) for b in points]
    # one gradient row per point, packed column-wise, against each point,
    # with rows near p - 1 and one of p - 1 throughout
    rows = [[p - 1] * size] + [[rng.randrange(max(0, p - 8), p) for _ in range(size)]
                               for _ in points[1:]]
    packed = finite_geometry._pack(list(zip(*rows)), fmt)
    for a in points:
        assert list(finite_geometry._slots(a, packed, fmt, n)) == [
            sum(map(operator.mul, row, a)) for row in rows]


@pytest.mark.parametrize(
    "spec",
    [*ORACLE_VARIETIES.values(), *MORE_VARIETIES.values()],
    ids=[*ORACLE_VARIETIES, *MORE_VARIETIES],
)
def test_gradient_columns_match_gradient(spec):
    # the gradients of all the points at once, column-wise, equal grad G at
    # one point at a time; fermat4_5 has no point at all
    points = sorted(enumerate_points(spec))
    graph = ChainGraph(spec)
    columns = graph._columns(points)[0]
    assert [len(grad) for grad in columns] == [spec.ambient + 1] * len(spec.polys)
    assert all(len(col) == len(points) for grad in columns for col in grad)
    for k, a in enumerate(points):
        assert [[col[k] for col in grad] for grad in columns] == plain_gradient(spec, a)


@pytest.mark.parametrize(
    "spec",
    [*ORACLE_VARIETIES.values(), *MORE_VARIETIES.values()],
    ids=[*ORACLE_VARIETIES, *MORE_VARIETIES],
)
def test_join_all_lines_in_closed_form(spec):
    # explore makes each line at its least point a as (v, a), v the least
    # of its other points: the RREF basis line_through gives, and its entry
    # in the p+1 columns is the index of each point line_points lists, in
    # turn; the least point has x_0 = 0, no line is found twice, and the
    # lines come in the order of the reference route, one line at a time
    points, columns = ChainGraph(spec).join_all()
    assert len(columns) == spec.field.p + 1
    assert len({len(col) for col in columns}) == 1
    lines, through = column_lines(columns, len(points))
    assert (points, lines, through) == indexed_lines(ChainGraph(spec))
    for number, members in enumerate(lines):
        line = index_line(points, members)
        pts = [points[q] for q in members]
        a, b = sorted(pts)[:2]
        assert line.basis == (b, a)
        assert a[0] == 0
        assert all(line_through(a, q, spec.field) == line for q in pts if q != a)
        assert pts == line_points(line, spec.field)
        assert all(number in through[q] for q in members)
    assert sum(map(len, through)) == (spec.field.p + 1) * len(lines)
    assert len({frozenset(members) for members in lines}) == len(lines)


def two_planes(p):
    """x1 + x2 + x3 = x1 + 2 x2 = 0 in P^3, a line: at each point the second
    gradient row takes its pivot at x2, and clears it from the first."""
    return VarietySpec(PrimeField(p), 3, (
        HomogPoly(1, ((1, (0, 1, 0, 0)), (1, (0, 0, 1, 0)), (1, (0, 0, 0, 1)))),
        HomogPoly(1, ((1, (0, 1, 0, 0)), (2, (0, 0, 1, 0))))))


@pytest.mark.parametrize("spec", [*ORACLE_VARIETIES.values(), two_planes(5)],
                         ids=[*ORACLE_VARIETIES, "planes5"])
def test_grouped_kernels_match_one_point_kernels(spec):
    # minors5 and mixed5 have two polynomials, the gradient of fermat3
    # vanishes identically, and planes5 needs a row cleared by a later one
    check_grouped_kernels(spec)


@pytest.mark.parametrize("spec", ORACLE_VARIETIES.values(), ids=ORACLE_VARIETIES.keys())
@pytest.mark.parametrize("block", [7, finite_geometry._T_BLOCK])
def test_batched_solve_matches_one_point_solves(spec, block, monkeypatch):
    # L_a at all the points at once, in blocks that join and split the
    # points' directions, gives each point the directions and the charge of
    # its own solve; with the cut at each point's lead, it keeps those that
    # lead before it.  No block handed to evaluation holds more than
    # _T_BLOCK pairs: at 7, those of plane3 join many points with few
    # directions each, and each point of fermat3fold5 has p^2 + p + 1 = 31
    # directions, more than a block holds
    points = sorted(enumerate_points(spec))
    alone = []
    for a in points:
        graph = ChainGraph(spec)
        [directions] = graph._directions([a], [len(a)])
        alone.append((sorted(directions), graph.charged))
    monkeypatch.setattr(finite_geometry, "_T_BLOCK", block)
    blocks, made = [], ChainGraph._blocks

    def recorded(graph, solves):
        for owner, cols in made(graph, solves):
            assert {len(col) for col in cols} == {len(owner)}
            blocks.append(list(owner))
            yield owner, cols

    monkeypatch.setattr(ChainGraph, "_blocks", recorded)
    batch = ChainGraph(spec)
    found = batch._directions(points, [len(a) for a in points])
    assert [(sorted(directions), charge) for directions, (_, charge) in zip(found, alone)] == alone
    assert batch.charged == sum(charge for _, charge in alone)
    # every (point, direction) pair is made once, in blocks that hold no more
    # than _T_BLOCK
    bases, _ = grouped_bases(ChainGraph(spec), points, [len(a) for a in points])
    assert sum(map(len, blocks)) == sum(count for _, count in bases)
    assert all(0 < len(owner) <= block for owner in blocks)
    if block == 7 and spec is ORACLE_VARIETIES["plane3"]:
        assert any(len(set(owner)) > 1 for owner in blocks)
    if block == 7 and spec is ORACLE_VARIETIES["fermat3fold5"]:
        spans = Counter(k for owner in blocks for k in set(owner))
        assert {count for _, count in bases} == {31} and min(spans.values()) >= 5
    cut = ChainGraph(spec)._directions(points, [a.index(1) for a in points])
    for a, kept, (directions, _) in zip(points, cut, alone):
        assert sorted(kept) == [v for v in directions if v.index(1) < a.index(1)]


def test_closed_form_lines_match_line_through():
    # the line through a and each direction v of L_a, made in closed form,
    # is the RREF line line_through gives, at every point of every oracle
    # variety, for v leading before a and after it
    pairs = 0
    for spec in ORACLE_VARIETIES.values():
        graph = ChainGraph(spec)
        for a in sorted(enumerate_points(spec)):
            [directions] = graph._directions([a], [len(a)])
            for v in directions:
                assert finite_geometry._line_at(a, v, spec.field.p) == line_through(a, v, spec.field)
                pairs += 1
    assert pairs == 1303


def test_slot_format_thresholds():
    widths = {0: 1, 255: 1, 256: 2, 65535: 2, 65536: 4, 2**32 - 1: 4, 2**32: 8, 2**64 - 1: 8}
    for bound, width in widths.items():
        assert struct.calcsize(finite_geometry._slot_format(bound)) == width
    with pytest.raises(ValueError):
        finite_geometry._slot_format(2**64)


def plane_cubic(p):
    """x0^3 + x1^3 + x0*x1*x2 + x2^3 in P^2: x2 to the powers 0, 1 and 3."""
    return VarietySpec(PrimeField(p), 2, (HomogPoly(3, (
        (1, (3, 0, 0)), (1, (0, 3, 0)), (1, (1, 1, 1)), (1, (0, 0, 3)))),))


def frobenius_curve(p):
    """x0^p*x1 - x0*x1^p in P^2: it vanishes at every point of P^2(F_p)."""
    return VarietySpec(PrimeField(p), 2, (HomogPoly(p + 1, (
        (1, (p, 1, 0)), (p - 1, (1, p, 0)))),))


def dense_quadric(p, ambient):
    """Every monomial of degree 2 in P^ambient, with seeded coefficients in
    the upper half of F_p: the slots of its enumeration fill up to the
    bound, where a slot too narrow carries into the next one."""
    rng = random.Random(p)
    monos = [e for e in itertools.product(range(3), repeat=ambient + 1) if sum(e) == 2]
    return VarietySpec(PrimeField(p), ambient, (HomogPoly(2, tuple(
        (rng.randrange(p // 2, p), e) for e in monos)),))


# varieties whose enumeration bound K(p-1)^2, K the number of powers of x_N
# in the first polynomial, needs slots of 1, 2 and 4 bytes
ENUMERATION_VARIETIES = {
    "fermat7": (fermat_cubic(7), 1),  # K = 2: 72
    "plane3": (coordinate_hyperplane(3), 1),  # no x_3: K = 1
    "frobenius3": (frobenius_curve(3), 1),  # every slot is 0 mod p
    "fermat4_5": (fermat_quartic(5), 1),  # no point at all
    "minors5": (two_minors(5), 1),  # two polynomials
    "quadric31": (split_quadric(31), 2),  # holds (0,0,0,1); 1,800
    "mixed13": (quadric_and_quartic(13), 2),  # two polynomials; 288
    "dense31": (dense_quadric(31, 3), 2),  # K = 3: 2,700
    "cubic151": (plane_cubic(151), 4),  # 67,500
    "conic257": (smooth_conic(257), 4),  # 131,072
    "dense257": (dense_quadric(257, 2), 4),  # 196,608
}


@pytest.mark.parametrize("spec, width", ENUMERATION_VARIETIES.values(),
                         ids=ENUMERATION_VARIETIES.keys())
def test_packed_enumeration_matches_sweep(spec, width):
    # the first polynomial is evaluated packed, one slot per prefix, and
    # each later one only at the points the first keeps
    n, p = spec.ambient, spec.field.p
    powers = {exps[n] for _, exps in spec.polys[0].terms}
    assert struct.calcsize(finite_geometry._slot_format(len(powers) * (p - 1) ** 2)) == width
    points = enumerate_points(spec)
    assert points == sweep_points(spec)
    last = (0,) * n + (1,)
    assert (last in points) == on_variety(spec, last)


@pytest.mark.parametrize("spec", ORACLE_VARIETIES.values(), ids=ORACLE_VARIETIES.keys())
def test_local_model_matches_incidence_passes(spec):
    # the two routes to contained lines: L_a at each point (lines, chain,
    # locus) and the pass over the pairs of X(F_p) (explore)
    oracle = pairwise_neighbors(spec)
    points, columns = ChainGraph(spec).join_all()
    assert points == sorted(oracle)
    lines, through = column_lines(columns, len(points))
    explored = [index_line(points, members) for members in lines]
    assert set(explored) == set().union(*(at for _, at in oracle.values()))
    for i, (pt, (nbrs, lines_at)) in enumerate(zip(points, oracle.values())):
        assert lines_through(spec, pt) == {explored[j] for j in through[i]} == lines_at
        reached = {points[q] for j in through[i] for q in lines[j]} - {pt}
        assert sorted(reached) == nbrs


@pytest.mark.parametrize("spec", ORACLE_VARIETIES.values(), ids=ORACLE_VARIETIES.keys())
def test_join_all_fills_the_graph_caches(spec, monkeypatch):
    # one solve of the section: explore enumerates and sorts X(F_p) itself
    # and returns its lines as columns of point indices, from one L_a solve
    # of the points with x_0 = 0, charged as any solve plus p+1 per line;
    # each point's lines are those L_a gives (the graph keeps no cache)
    explored = ChainGraph(spec)
    solve = explored._directions
    calls = []

    def one_solve(points, cuts):
        calls.append((points, cuts))
        return solve(points, cuts)

    monkeypatch.setattr(explored, "_directions", one_solve)
    points, columns = explored.join_all()
    assert points == sorted(enumerate_points(spec))
    lines, through = column_lines(columns, len(points))
    section = [a for a in points if a[0] == 0]
    assert calls == [(section, [a.index(1) for a in section])]
    alone = ChainGraph(spec)
    alone._directions(section, [a.index(1) for a in section])
    assert explored.charged == alone.charged + (spec.field.p + 1) * len(lines)
    for pt, numbers in zip(points, through):
        found = {index_line(points, lines[j]) for j in numbers}
        assert found == lines_through(spec, pt)


@pytest.mark.parametrize("spec, lengths", [(split_quadric(5), (3,)), (fermat_cubic(7), (2, 3))],
                         ids=["quadric5", "fermat7"])
def test_shortest_chain_matches_pairwise_bfs(spec, lengths):
    # one full search from each point, to the largest length, gives every
    # point it reaches the parent, and the joining line, of a BFS over the
    # pairwise neighbor lists; a search that stops sooner assigns the same
    # parents up to there, and chain_search, which meets y from y's own
    # lines, runs on a fixed sample of pairs
    oracle = pairwise_neighbors(spec)
    graph = ChainGraph(spec)
    points = sorted(oracle)
    for x in points:
        parent = pairwise_parents(oracle, x, max(lengths))
        found = searched(graph, x, max(lengths))
        assert found.keys() == parent.keys()
        for y, step in found.items():
            assert step is None if y == x else step == (parent[y], line_through(parent[y], y, spec.field))
    sample = random.Random(5).sample(list(itertools.product(points, repeat=2)), 200)
    for max_length in lengths:
        for x, y in sample:
            parent = pairwise_parents(oracle, x, max_length)
            chain = chain_search(spec, x, y, max_length)
            if y not in parent:
                assert chain is None
                continue
            path = [y]
            while path[-1] != x:
                path.append(parent[path[-1]])
            path.reverse()
            lines = tuple(line_through(a, b, spec.field) for a, b in zip(path, path[1:]))
            assert chain == Chain(tuple(path), lines)


def test_searches_on_one_graph_are_charged_each_time():
    # the graph keeps nothing per point: a second search from the same
    # point solves and lists everything again, charged as the first was
    spec = split_quadric(5)
    x, y = (1, 0, 0, 0), (0, 0, 0, 1)
    graph = ChainGraph(spec)
    state = dict(vars(graph))
    parent = searched(graph, x, 3)
    once = graph.charged
    assert parent[parent[y][0]][0] == x and once > 0  # a chain of length 2
    assert searched(graph, x, 3) == parent
    assert graph.charged == 2 * once
    assert vars(graph).keys() == state.keys()
    assert all(vars(graph)[k] is v for k, v in state.items() if k != "charged")
    # the one-point search that stops at y gives y the same chain
    reached = goal_search(spec, one_point_solves(spec), x, 3, y)[0]
    assert reached[y] == parent[y] and reached[parent[y][0]] == parent[parent[y][0]]


@pytest.mark.parametrize("spec", [split_quadric(5), fermat_cubic(7)], ids=["quadric5", "fermat7"])
def test_search_without_goal_solves_each_level_at_once(spec, monkeypatch):
    # the search solves L_a at a whole level in one call, one call per
    # level it expands; the one-point search, whose goal is never reached,
    # solves one point per call, yet both reach the same points with the
    # same parents and lines and are charged the same
    solves = []
    directions = ChainGraph._directions

    def recorded(graph, points, cuts):
        solves.append(len(points))
        return directions(graph, points, cuts)

    monkeypatch.setattr(ChainGraph, "_directions", recorded)
    outside = (1, 1, 0, 1)
    assert not finite_geometry.on_variety(spec, outside)
    for x in sorted(enumerate_points(spec))[::7]:
        batched = ChainGraph(spec)
        solves.clear()
        found = searched(batched, x, 3)
        levels = list(solves)
        solves.clear()
        parent, charged = goal_search(spec, one_point_solves(spec), x, 3, outside)
        assert parent == found
        assert set(solves) == {1} and len(solves) == sum(levels)
        assert len(levels) <= 3 and levels[0] == 1
        assert levels == [len(level) for _, level in itertools.islice(ChainGraph(spec)._levels(x), 3)]
        assert batched.charged == charged > 0


@pytest.mark.parametrize("spec", ORACLE_VARIETIES.values(), ids=ORACLE_VARIETIES.keys())
def test_chain_search_matches_goal_search(spec):
    # chain_search meets y from y's own lines; the one-point search that
    # stops at y (goal_search) gives the same chain at every length, on at
    # most 3,000 ordered pairs, and is charged as check_chain_search says
    points = sorted(enumerate_points(spec))
    pairs = list(itertools.product(points, repeat=2))
    if len(pairs) > 3000:
        pairs = random.Random(7).sample(pairs, 3000)
    kinds = check_chain_search(spec, pairs + [(x, x) for x in points[:1]], range(1, 5))
    assert kinds["x == y"] >= 4 * bool(points)


def test_chain_search_charge_against_goal_search():
    # the new charge is at most goal_search's plus one solve at y, and the
    # same in the shapes of the single-point query benchmark (y on level 1,
    # x on no line); on these samples it is lower on many pairs and higher
    # on some, where the solve at y costs more than the last level spared
    kinds = Counter()
    for spec in (fermat_cubic_threefold(5), cubic_with_line(), fermat_cubic(5)):
        points = sorted(enumerate_points(spec))
        pairs = random.Random(3).sample(list(itertools.product(points, repeat=2)), 300)
        kinds += check_chain_search(spec, pairs + [(points[0], points[0])], range(1, 5))
    for kind in ("x == y", "y on no line", "x on no line", "y on level 1", "no chain", "level 3 on",
                 "cheaper", "dearer"):
        assert kinds[kind], kind


def test_chain_search_solves_each_level_once_and_y_once(monkeypatch):
    # one _directions call per level expanded, plus one for [y]; none for
    # x == y; none past level 0 when level 1 is empty or holds y; and a y
    # on no line ends the search right after its solve
    calls = []
    directions = ChainGraph._directions

    def recorded(graph, points, cuts):
        calls.append(list(points))
        return directions(graph, points, cuts)

    def solves(spec, x, y, max_length):
        calls.clear()
        chain = chain_search(spec, x, y, max_length)
        made = list(calls)
        calls.clear()
        return chain, made

    monkeypatch.setattr(ChainGraph, "_directions", recorded)
    spec = quadric_and_skew_line(5)
    x, y = (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)
    levels = [level for _, level in ChainGraph(spec)._levels(x)]
    assert [len(level) for level in levels] == [1, 10, 25]
    for max_length in (2, 3, 4):
        # no chain: the levels before max_length - 1, and y after level 0
        assert solves(spec, x, y, max_length) == (None, [levels[0], [y], *levels[1:max_length - 1]])
    assert solves(spec, x, x, 3) == (Chain((x,), ()), [])
    on_line = levels[1][0]
    assert solves(spec, x, on_line, 3)[1] == [[x]]  # y on level 1
    spec = fermat_cubic(5)
    points = sorted(enumerate_points(spec))
    lined = [a for a in points if lines_through(spec, a)]
    lineless = [a for a in points if a not in lined]
    assert solves(spec, lineless[0], lined[0], 3) == (None, [[lineless[0]]])  # level 1 empty
    for max_length in (2, 3, 4):  # y on no line
        assert solves(spec, lined[0], lineless[0], max_length) == (None, [[lined[0]], [lineless[0]]])
    assert solves(spec, lined[0], lineless[0], 1) == (None, [[lined[0]]])


def test_search_from_a_point_off_the_variety_is_refused(monkeypatch):
    # each query checks its points before it builds its graph
    spec = split_quadric(5)
    off, y = (1, 1, 0, 1), (0, 0, 0, 1)

    def no_graph(self, spec):
        raise AssertionError("a graph was built for a point off the variety")

    monkeypatch.setattr(ChainGraph, "__init__", no_graph)
    for search in (lambda: chain_search(spec, off, y, 2), lambda: chain_search(spec, y, off, 2),
                   lambda: locus(spec, off, 2), lambda: lines_through(spec, off)):
        with pytest.raises(ValueError, match="point 1:1:0:1 is not on the variety"):
            search()


def test_each_query_checks_each_point_once(monkeypatch):
    # lines and locus check their point on X once, chain each of its two
    checks = []
    check = finite_geometry.on_variety

    def counted(spec, pt):
        checks.append(pt)
        return check(spec, pt)

    monkeypatch.setattr(finite_geometry, "on_variety", counted)
    spec = split_quadric(5)
    x, y = (1, 0, 0, 0), (0, 0, 0, 1)
    for query, count in ((lambda: lines_through(spec, x), 1), (lambda: chain_search(spec, x, y, 3), 2),
                         (lambda: chain_search(spec, x, x, 3), 2), (lambda: locus(spec, x, 2), 1)):
        checks.clear()
        query()
        assert len(checks) == count


def test_unnormalized_points_are_accepted():
    spec = split_quadric(5)
    x, x2, y = (1, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 1)
    assert lines_through(spec, x2) == lines_through(spec, x)
    assert chain_search(spec, x2, y, 3) == chain_search(spec, x, y, 3)
    assert chain_search(spec, x2, x, 2) == chain_search(spec, x, x, 2)
    assert locus(spec, x2, 1) == locus(spec, x, 1)


def test_lines_through_requires_point_on_variety():
    spec = split_quadric(5)
    with pytest.raises(ValueError):
        lines_through(spec, (1, 0, 0, 1))


def test_lines_through_plane():
    # within the plane x0 = 0 every point lies on q + 1 = 4 lines
    spec = coordinate_hyperplane(3)
    for pt in sorted(enumerate_points(spec)):
        assert len(lines_through(spec, pt)) == 4


def test_lines_through_fermat_cubic_censuses():
    # 7 = 1 mod 3: all 27 lines are rational and cover every rational point
    # (18 of which are triple points of the line configuration)
    spec7 = fermat_cubic(7)
    counts = {}
    for pt in enumerate_points(spec7):
        k = len(lines_through(spec7, pt))
        counts[k] = counts.get(k, 0) + 1
    assert counts == {2: 81, 3: 18}
    # 5 = 2 mod 3: only 3 rational lines, most points lie on none
    spec5 = fermat_cubic(5)
    zero_line_points = [
        pt for pt in sorted(enumerate_points(spec5)) if not lines_through(spec5, pt)
    ]
    assert len(zero_line_points) == 16


def test_chain_search_quadric():
    spec = split_quadric(5)
    x, y = (1, 0, 0, 0), (0, 0, 0, 1)
    chain = chain_search(spec, x, y, 3)
    assert chain is not None and chain.length == 2
    assert chain.points[0] == x and chain.points[-1] == y
    for line in chain.lines:
        assert line_in_variety(spec, line)
    # the joining line is not on the quadric, so length 1 is impossible
    assert chain_search(spec, x, y, 1) is None


def test_chain_search_trivial_and_absent():
    spec = split_quadric(5)
    x = (1, 0, 0, 0)
    chain = chain_search(spec, x, x, 2)
    assert chain.length == 0 and chain.points == (x,)
    # over F_5 the Fermat cubic has isolated vertices
    spec5 = fermat_cubic(5)
    pts = sorted(enumerate_points(spec5))
    isolated = next(pt for pt in pts if not lines_through(spec5, pt))
    other = next(pt for pt in pts if pt != isolated)
    for max_l in (1, 2, 5):
        assert chain_search(spec5, isolated, other, max_l) is None
    with pytest.raises(ValueError):
        chain_search(spec, (1, 0, 0, 1), x, 2)


def test_chain_symmetry():
    spec = split_quadric(3)
    pts = sorted(enumerate_points(spec))
    rng = random.Random(7)
    for _ in range(20):
        x, y = rng.sample(pts, 2)
        forward = chain_search(spec, x, y, 4)
        backward = chain_search(spec, y, x, 4)
        assert (forward is None) == (backward is None)
        if forward is not None:
            assert forward.length == backward.length


def test_locus_quadric():
    spec = split_quadric(5)
    x = (1, 0, 0, 0)
    step1 = locus(spec, x, 1)
    assert len(step1) == 11  # two lines of q+1 points sharing x
    assert x in step1
    step2 = locus(spec, x, 2)
    assert step2 == enumerate_points(spec)
    assert step1 <= step2
    # stabilization: once saturated, larger lengths return the same set
    assert locus(spec, x, 3) == step2


def test_locus_monotone():
    spec = fermat_cubic(5)
    x = next(
        pt for pt in sorted(enumerate_points(spec)) if lines_through(spec, pt)
    )
    previous = None
    for l in range(1, 5):
        current = locus(spec, x, l)
        if previous is not None:
            assert previous <= current
        previous = current


def test_one_step_search_matches_sweep():
    spec = split_quadric(5)
    graph = ChainGraph(spec)
    for pt in sorted(enumerate_points(spec)):
        expected = {pt}
        for line in sweep_lines_through(spec, pt):  # independent route, over P^N
            expected.update(line_points(line, F5))
        assert set(searched(graph, pt, 1)) == expected


def test_connectivity_report_quadric_f3():
    report = connectivity_report(split_quadric(3), 2)
    assert report.points == 16
    assert report.fractions[2] == 1
    assert report.fractions[1] < 1
    assert report.line_counts == {2: 16}


def test_connectivity_report_plane():
    # any two points of a plane are collinear within it
    report = connectivity_report(coordinate_hyperplane(3), 1)
    assert report.points == 13
    assert report.fractions[1] == 1


def test_connectivity_report_quadric_f31():
    # the closed forms of the split quadric: (p+1)^2 points, two lines
    # through each, (2p+1)/(p+1)^2 of the ordered pairs on a common line
    report = connectivity_report(split_quadric(31), 3)
    assert report.points == 1024
    assert report.fractions == {1: Fraction(63, 1024), 2: 1, 3: 1}
    assert report.line_counts == {2: 1024}


# connectivity_report at max_length 3 on the stock version of each explore
# family of the benchmark, pinned from the pass before it ran column-wise
PINNED_REPORTS = {
    "quadric17": (split_quadric(17), 324, {1: Fraction(35, 324), 2: 1, 3: 1}, {2: 324}),
    "fermat7": (fermat_cubic(7), 99, {1: Fraction(179, 1089), 2: Fraction(119, 121), 3: 1},
                {2: 81, 3: 18}),
    "fermat11": (fermat_cubic(11), 133, {1: Fraction(529, 17689), 2: Fraction(1189, 17689),
                                         3: Fraction(1189, 17689)}, {0: 100, 1: 30, 2: 3}),
    "hyperplane5": (coordinate_hyperplane(5, 4), 156, {1: 1, 2: 1, 3: 1}, {31: 156}),
}


@pytest.mark.parametrize("spec, points, fractions, line_counts", PINNED_REPORTS.values(),
                         ids=PINNED_REPORTS.keys())
def test_connectivity_report_pinned(spec, points, fractions, line_counts):
    report = connectivity_report(spec, 3)
    assert report.points == points
    assert report.fractions == fractions
    assert report.line_counts == line_counts


def test_explore_split_quadric_f101():
    # 10,404 points, past the n^2 <= 10^8 pairs explore once refused: the
    # closed forms (p+1)^2 points, two lines through each, (2p+1)/(p+1)^2
    # of the ordered pairs on a common line, every pair within two steps
    p = 101
    report = connectivity_report(split_quadric(p), 3)
    assert report.points == (p + 1) ** 2
    assert report.fractions == {1: Fraction(2 * p + 1, (p + 1) ** 2), 2: 1, 3: 1}
    assert report.line_counts == {2: (p + 1) ** 2}


def test_explore_random_cubic_surface_f101():
    # a seeded cubic surface with all 20 monomials over F_101: its lines are
    # contained (line_in_variety), each point's census is its own L_a solve,
    # and the pairs within one step are the points and the (p+1)p ordered
    # pairs of each line, since two lines share at most one point
    p = 101
    rng = random.Random(101)
    monos = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]
    spec = VarietySpec(PrimeField(p), 3, (HomogPoly(3, tuple((rng.randrange(1, p), e) for e in monos)),))
    points, columns = ChainGraph(spec).join_all()
    assert points == sorted(enumerate_points(spec))
    lines, through = column_lines(columns, len(points))
    report = connectivity_report(spec, 2)
    n = len(points)
    assert report.points == n
    assert report.fractions[1] == Fraction(n + len(lines) * (p + 1) * p, n * n)
    assert sum(k * count for k, count in report.line_counts.items()) == len(lines) * (p + 1)
    on_lines = {q for members in lines for q in members}
    for i in sorted(on_lines) + random.Random(7).sample(range(n), 30):
        assert {index_line(points, lines[j]) for j in through[i]} == lines_through(spec, points[i])
    for members in lines:
        assert line_in_variety(spec, index_line(points, members))
    assert lines


def test_connectivity_report_fermat_f5():
    report = connectivity_report(fermat_cubic(5), 5)
    assert report.points == 31
    for l in range(1, 6):
        assert report.fractions[l] < 1
    assert report.line_counts.get(0, 0) == 16


def distance_report(oracle, max_length):
    """Reference route: one BFS per source over the pairwise neighbor lists,
    its distances counted by value."""
    n = len(oracle)
    pairs_at = [0] * (max_length + 1)  # ordered pairs at distance exactly d
    line_counts = {}
    for x, (_, lines) in oracle.items():
        depth = {}
        for b, a in pairwise_parents(oracle, x, max_length).items():
            depth[b] = 0 if b == x else depth[a] + 1
            pairs_at[depth[b]] += 1
        line_counts[len(lines)] = line_counts.get(len(lines), 0) + 1
    reachable = list(itertools.accumulate(pairs_at))
    fractions = {l: Fraction(reachable[l], n * n) for l in range(1, max_length + 1)} if n else {}
    return ConnectivityReport(points=n, fractions=fractions, line_counts=line_counts)


def bitset_report(spec, max_length):
    """Reference route for connectivity_report: the lines one at a time
    (indexed_lines), the census from each point's line list, and a bitset
    ball over all n points about every point, grown level by level by an
    OR over each line's balls and then over each point's lines, until no
    ball grows.  Its graph is charged as connectivity_report's."""
    graph = ChainGraph(spec)
    points, lines, through = indexed_lines(graph)
    n = len(points)
    level = n * -(-n // 8)
    graph._charge(level)
    ball = [1 << i for i in range(n)]
    reachable = []
    for _ in range(max_length):
        graph._charge(level)
        spans = [functools.reduce(operator.or_, [ball[i] for i in idx]) for idx in lines]
        grown = [functools.reduce(operator.or_, [spans[j] for j in js], b) for b, js in zip(ball, through)]
        reachable.append(sum(b.bit_count() for b in grown))
        if grown == ball:
            break
        ball = grown
    reachable += reachable[-1:] * (max_length - len(reachable))
    fractions = {l: Fraction(r, n * n) for l, r in enumerate(reachable, 1)} if n else {}
    return ConnectivityReport(points=n, fractions=fractions, line_counts=dict(Counter(map(len, through))))


@pytest.mark.parametrize("spec", ORACLE_VARIETIES.values(), ids=ORACLE_VARIETIES.keys())
def test_connectivity_report_matches_distances(spec):
    oracle = pairwise_neighbors(spec)
    for max_length in range(1, 5):
        assert connectivity_report(spec, max_length) == distance_report(oracle, max_length)


# each exit of connectivity_report, and whether it grows bitsets past
# length 1: no point, no line, every pair joined at length 1, and points
# both on lines and on none
EXPLORE_EXITS = {
    "fermat4_5": (fermat_quartic(5), False),
    "lineless7": (lineless_cubic(), False),
    "plane3": (coordinate_hyperplane(3), False),
    "hyperplane5": (coordinate_hyperplane(5, 4), False),
    "fermat5": (fermat_cubic(5), True),
    "fermat11": (fermat_cubic(11), True),
}


@pytest.mark.parametrize("spec, grows", EXPLORE_EXITS.values(), ids=EXPLORE_EXITS.keys())
def test_connectivity_report_exits_match_bitset_oracle(spec, grows, monkeypatch):
    # the report, the key order of its census and the charge equal the
    # reference route's at every max_length, and the closed forms leave the
    # bitsets unmade where every ball is known without them
    graphs, grown = [], []
    init, sizes = ChainGraph.__init__, finite_geometry._ball_sizes

    def kept(self, spec):
        init(self, spec)
        graphs.append(self)

    def recorded(columns, incidence):
        grown.append(len(incidence))
        yield from sizes(columns, incidence)

    monkeypatch.setattr(ChainGraph, "__init__", kept)
    monkeypatch.setattr(finite_geometry, "_ball_sizes", recorded)
    for max_length in range(1, 5):
        report = connectivity_report(spec, max_length)
        oracle = bitset_report(spec, max_length)
        assert report == oracle
        assert list(report.line_counts) == list(oracle.line_counts)
        assert graphs[-2].charged == graphs[-1].charged
    assert bool(grown) == grows


# explore --max-length 3 where the closed forms skip the bitsets, charged
# as when every level ran: the line-free cubic surface is charged its solve
# (284) and 43 balls of 6 bytes for the points and for length 1, after
# which no ball grows (800); the plane x_0 = 0 in P^3 over F_3 its solve
# (13), its 13 lines of 4 points (52), and 13 balls of 2 bytes for the
# points and for lengths 1 and 2, where no ball grows past n^2 (143)
@pytest.mark.parametrize("spec, charge", [(lineless_cubic(), 800), (coordinate_hyperplane(3), 143)],
                         ids=["lineless7", "plane3"])
def test_explore_closed_form_exits_keep_their_charge(spec, charge, monkeypatch, tmp_path, capsys):
    path = tmp_path / "exit.variety"
    path.write_text(format_variety(spec))
    argv = ["explore", "--variety", str(path), "--max-length", "3", "--machine"]
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", charge - 1)
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", charge)
    assert main(argv) == 0
    assert "fraction_3=" in capsys.readouterr().out


def test_connectivity_report_pair_budget(monkeypatch, tmp_path):
    # explore on the plane x_0 = 0 in P^3 over F_3 (p^N = 27, 13 points) is
    # charged 117: its solve 13 (no c_k; the 9 points of lead 1 have no
    # direction before it, the 3 of lead 2 have 3 each, 0:0:0:1 has 4), the
    # 13 lines of 4 points (52), and 13 balls of 2 bytes (26) for the points
    # and again for the one level
    spec = coordinate_hyperplane(3)
    assert len(enumerate_points(spec)) == 13
    path = tmp_path / "plane3.variety"
    path.write_text(format_variety(spec))
    argv = ["explore", "--variety", str(path), "--max-length", "1"]
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 116)
    with pytest.raises(BudgetExceededError):
        connectivity_report(spec, 1)
    assert main(argv) == 2
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 117)
    assert connectivity_report(spec, 1).fractions == {1: 1}
    assert main(argv) == 0
    # a second level is charged as the first, before it runs
    with pytest.raises(BudgetExceededError):
        connectivity_report(spec, 2)


def guard_evaluations(monkeypatch, *point_lists):
    """Let _form_columns evaluate forms at the given lists of points (the
    gradients and the coefficients of the c_k), and raise at any other
    columns, those of directions."""
    evaluate = finite_geometry._form_columns
    allowed = [list(zip(*points)) for points in point_lists]

    def guarded(forms, coords, p):
        if [tuple(col) for col in coords] not in allowed:
            raise AssertionError("a c_k evaluated past the budget")
        return evaluate(forms, coords, p)

    monkeypatch.setattr(finite_geometry, "_form_columns", guarded)


def test_explore_is_refused_before_it_evaluates(monkeypatch):
    # explore on the Fermat cubic threefold over F_5 (p^N = 625) charges its
    # solve up front: c_2 at the directions of its 31 points with x_0 = 0
    # that lead before their lead, times its live terms, 2,103 in all; one
    # less refuses it before any direction is made or any c_k evaluated.
    # _blocks makes every direction column, tiled per group of points, and
    # the refusal comes after the points are grouped (_kernels)
    spec = fermat_cubic_threefold(5)
    grouped, kernels = [], ChainGraph._kernels

    def recorded(self, grads, points, cuts):
        grouped.append(len(points))
        return kernels(self, grads, points, cuts)

    def no_directions(self, solves):
        raise AssertionError("directions made past the budget")

    monkeypatch.setattr(ChainGraph, "_kernels", recorded)
    monkeypatch.setattr(ChainGraph, "_blocks", no_directions)
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 2102)
    with pytest.raises(BudgetExceededError):
        connectivity_report(spec, 1)
    assert grouped == [31]
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 2103)
    with pytest.raises(AssertionError, match="directions made past the budget"):
        connectivity_report(spec, 1)


def test_explore_length_budget_refuses_at_once(monkeypatch, tmp_path, capsys):
    # the report holds and prints one fraction per length, so a max_length
    # past the budget is refused before any point is enumerated
    spec = coordinate_hyperplane(3)
    path = tmp_path / "plane3.variety"
    path.write_text(format_variety(spec))
    explore = ["explore", "--variety", str(path), "--machine", "--max-length"]
    monkeypatch.setattr(finite_geometry, "LENGTH_BUDGET", 4)
    assert main(explore + ["4"]) == 0
    assert capsys.readouterr().out.count("fraction_") == 4

    def no_pass(self):
        raise AssertionError("explore enumerated past its length budget")

    monkeypatch.setattr(ChainGraph, "join_all", no_pass)
    with pytest.raises(BudgetExceededError):
        connectivity_report(spec, 5)
    assert main(explore + ["5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_length 5 exceeds the 4 budget" in captured.err


def test_chain_and_locus_pair_budget(monkeypatch, tmp_path, capsys):
    # on the split quadric over F_3 each L_a solve evaluates c_2 = v0*v3 -
    # v1*v2, one term once v_j = 0, at the 4 directions of P^1 (4 * 1), and
    # each line listed has 4 points; one query sums them: lines takes one
    # solve (4), locus 1 one solve and two lines (12), locus 2 seven solves
    # and eight lines (60).  The chain below solves at x (4) and lists x's
    # two lines (8); y is on neither, so it solves at y (4) and meets y from
    # the first point of level 1 on one of y's lines, listing none: 16
    spec = split_quadric(3)
    x, y = (1, 0, 0, 0), (0, 0, 0, 1)
    chain, charged = charged_chain(spec, x, y, 2)
    assert chain.length == 2 and charged == 4 + 2 * 4 + 4
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", charged - 1)
    with pytest.raises(BudgetExceededError):
        chain_search(spec, x, y, 2)
    with pytest.raises(BudgetExceededError):
        locus(spec, x, 2)
    assert len(locus(spec, x, 1)) == 7
    assert len(lines_through(spec, x)) == 2
    path = tmp_path / "quadric3.variety"
    path.write_text(format_variety(spec))
    variety = ["--variety", str(path)]
    chain_argv = ["chain", *variety, "--from", "1:0:0:0", "--to", "0:0:0:1", "--max-length", "2"]
    assert main(chain_argv) == 2
    assert main(["locus", *variety, "--point", "1:0:0:0", "--length", "2"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["locus", *variety, "--point", "1:0:0:0", "--length", "1"]) == 0
    assert main(["lines", *variety, "--point", "1:0:0:0"]) == 0
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", charged)
    assert chain_search(spec, x, y, 2) == chain
    capsys.readouterr()
    assert main(chain_argv) == 0
    assert ["length", "2"] in [row.split() for row in capsys.readouterr().out.splitlines()]


def test_lines_on_cubic_threefold_over_f101():
    # p^N = 101^4 > 10^8 points of P^4 are never enumerated: one L_a solve
    spec = fermat_cubic_threefold(101)
    field = spec.field
    # L_a at 1:100:0:0:0 is v_1 = 0, v_2^3 + v_3^3 + v_4^3 = 0, a plane cubic
    # with p + 1 points since 101 = 2 mod 3
    for x, count in (((1, 100, 0, 0, 0), 102), ((1, 100, 1, 100, 0), 2)):
        found = lines_through(spec, x)
        assert len(found) == count
        for line in found:
            assert line_in_variety(spec, line)
            assert x in line_points(line, field)


def test_lines_over_a_large_prime():
    # the P^1 of directions over F_40009 is tried in blocks of the last
    # coordinate t; the ruling through (0, 0, 1, u) has t = u, past the first
    spec = split_quadric(40009)
    p = spec.field.p
    u, w = 20000, 30000
    a = (1, u, w, u * w % p)
    rulings = {line_through(a, (0, 1, 0, w), spec.field), line_through(a, (0, 0, 1, u), spec.field)}
    assert lines_through(spec, a) == rulings


def test_line_points_are_listed_only_when_expanded(tmp_path):
    # the line x_0 = 0 in P^2 over F_(2^31 - 1): one direction answers
    # lines, while listing the 2^31 points of the line is past the budget
    spec = coordinate_hyperplane(2**31 - 1, 2)
    x, y = (0, 1, 0), (0, 0, 1)
    assert lines_through(spec, x) == {line_through(x, y, spec.field)}
    with pytest.raises(BudgetExceededError):
        locus(spec, x, 1)
    with pytest.raises(BudgetExceededError):
        chain_search(spec, x, y, 1)
    path = tmp_path / "line.variety"
    path.write_text(format_variety(spec))
    assert main(["lines", "--variety", str(path), "--point", "0:1:0"]) == 0
    assert main(["locus", "--variety", str(path), "--point", "0:1:0", "--length", "1"]) == 2


def test_lines_on_a_conic_over_a_large_prime():
    # at a smooth point of a plane curve dim W = 1: the one direction is
    # checked on its own, without a pass over the values of t, and c_2 is
    # one term, -v1^2, once v0 = 0
    p = 2**31 - 1
    conic = VarietySpec(
        PrimeField(p), 2, (HomogPoly(2, ((1, (1, 0, 1)), (p - 1, (0, 2, 0)))),)
    )
    graph = ChainGraph(conic)
    assert graph._directions([(1, 0, 0)], [3]) == [[]]
    assert graph.charged == 1 * 1
    assert lines_through(conic, (1, 5, 25)) == set()


def test_local_table_budget(monkeypatch, tmp_path, capsys):
    # the c_k table has prod(e_i + 1) - 1 terms per term x^e of G: 3 + 3 for
    # the split quadric
    spec = split_quadric(3)
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        ChainGraph(spec)
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 6)
    ChainGraph(spec)
    # explore builds the c_k table of every polynomial, as lines does, and
    # is held to it: x0^4 + x1^4 + x2^4 over F_2 (p^N = 4, n^2 = 9) has 12
    # table terms, the cubic surface x2^3 + x2*x3^2 + x3^3 over F_2
    # (p^N = 8, n^2 = 9) has 11
    quartic = VarietySpec(F2, 2, (HomogPoly(4, ((1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)))),))
    cubic = VarietySpec(F2, 3, (HomogPoly(3, ((1, (0, 0, 3, 0)), (1, (0, 0, 1, 2)), (1, (0, 0, 0, 3)))),))
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 10)
    for name, spec in (("quartic2", quartic), ("cubic2", cubic)):
        with pytest.raises(BudgetExceededError):
            connectivity_report(spec, 1)
        with pytest.raises(BudgetExceededError):
            ChainGraph(spec)
        path = tmp_path / f"{name}.variety"
        path.write_text(format_variety(spec))
        assert main(["explore", "--variety", str(path), "--max-length", "1"]) == 2
        assert capsys.readouterr().out == ""
    # past its table, explore on the cubic is charged 21: at its one point
    # 0:1:0:0 with x_0 = 0, c_3 (c_2 is 0 there, as a_2 = a_3 = 0) at the 4
    # directions of P(W) that lead before x_1 times its 3 terms, then the
    # line x_2 = x_3 = 0 (3 points), and 3 balls of 1 byte for the points
    # and again for the one level
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 20)
    with pytest.raises(BudgetExceededError):
        connectivity_report(cubic, 1)
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 21)
    assert connectivity_report(cubic, 1).fractions == {1: 1}


def test_solve_charge_budget(monkeypatch, tmp_path, capsys):
    # the octic over F_11 at 0:1:1:4: v_1 = 0 and dim W = 2, so 12
    # directions; with a_0 = 0, c_k keeps the terms in v_2^k and v_3^k for
    # k = 2..7, and c_8 those in v_0^8, v_2^8 and v_3^8.  Each c_k is
    # charged, before it runs, at the directions where the ones before it
    # vanish: c_2 at all 12 (12 * 2), and only (1:0:0:0) is left for c_3..c_7
    # (5 * 2) and c_8 (3), which rules it out: 37
    spec = fermat_surface(11, 8)
    path = tmp_path / "octic11.variety"
    path.write_text(format_variety(spec))
    argv = ["lines", "--variety", str(path), "--point", "0:1:1:4"]
    charge = 12 * 2 + 5 * 2 + 3
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", charge - 1)
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", charge)
    graph = ChainGraph(spec)
    graph._directions([(0, 1, 1, 4)], [4])
    assert graph.charged == charge
    assert main(argv) == 1  # answered: no line through the point
    assert "count    0" in capsys.readouterr().out


def test_solve_is_refused_before_it_evaluates(monkeypatch):
    # a budget below the first charge (c_2 at the 12 directions of the
    # octic above, 12 * 2) refuses the solve before any c_k is evaluated
    # (the gradient and the coefficients of the c_k at the point itself
    # are evaluated first, as columns of one entry)
    graph = ChainGraph(fermat_surface(11, 8))  # its table has 32 terms
    monkeypatch.setattr(finite_geometry, "ENUMERATION_BUDGET", 12 * 2 - 1)
    guard_evaluations(monkeypatch, [(0, 1, 1, 4)])
    with pytest.raises(BudgetExceededError):
        graph._directions([(0, 1, 1, 4)], [4])
    assert graph.charged == 12 * 2


def test_solve_drops_terms_that_vanish_on_w():
    # the nonic over F_101 at 1:100:0:0: W is v_0 = v_1 = 0, so the terms
    # in v_1^k of c_2..c_8 vanish on W and are dropped before the charge:
    # c_9 is the only c_k left, charged at the 102 directions times its two
    # terms v_2^9 + v_3^9
    graph = ChainGraph(fermat_surface(101, 9))
    [directions] = graph._directions([(1, 100, 0, 0)], [4])
    assert len(directions) == 1
    assert graph.charged == 102 * 2


def test_solve_of_high_degree_holds_no_expansion():
    # sum x_i^403 over F_101 at 1:1:1:48: dim W = 2, 102 directions and
    # c_2..c_403 with three terms each; the c_k are evaluated at the
    # directions, never expanded on W, where they had 51,302 terms
    graph = ChainGraph(fermat_surface(101, 403))
    tracemalloc.start()
    try:
        assert graph._directions([(1, 1, 1, 48)], [4]) == [[]]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_projective_reps_match_product(p, n):
    # lead 1, zeros before it, the coordinates after it in product order
    expected = [(0,) * lead + (1,) + tail
                for lead in range(n + 1) for tail in itertools.product(range(p), repeat=n - lead)]
    assert list(finite_geometry._projective_reps(p, n)) == expected
    assert len(expected) == (p ** (n + 1) - 1) // (p - 1)


def test_first_projective_reps_of_a_line_hold_no_range():
    # P^1(F_p) for p = 10^7: range(p) held as a tuple would take 80 MB
    tracemalloc.start()
    try:
        first = list(itertools.islice(finite_geometry._projective_reps(10**7, 1), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [(1, 0), (1, 1), (1, 2)]
    assert peak < 2**20


def test_binomials_mod_p():
    # Lucas' theorem against the exact binomials: rows with p <= e, with
    # several base-p digits, and with p > e
    for p in (2, 3, 5, 7, 101, 10007, 2**31 - 1):
        for e in range(80):
            assert finite_geometry._binomials(e, p) == [comb(e, f) % p for f in range(e + 1)]
    # sampled entries of a long row: each exact binomial is made once
    e = 2 * 10**5
    low = [0, 1, 2, 6, 7, 100, 101, 10006, 10007, *random.Random(e).sample(range(3000), 8)]
    exact = {f: comb(e, f) for f in low + [e // 2]}
    exact.update({e - f: c for f, c in exact.items()})
    for p in (2, 3, 7, 101, 10007, 2**31 - 1):
        row = finite_geometry._binomials(e, p)
        assert len(row) == e + 1
        assert all(row[f] == c % p for f, c in exact.items())


def test_binomials_row_is_linear_in_the_exponent():
    # the row of x0^d + x1^d + x2^d over F_2 at d = 160,000: by Lucas'
    # theorem a few products per entry, where the exact binomials have up
    # to 48,000 digits
    start = time.perf_counter()
    row = finite_geometry._binomials(160000, 2)
    assert time.perf_counter() - start < 1.0
    assert sum(row) == 2 ** bin(160000).count("1")  # odd binomials, by Lucas


def test_lines_on_a_cone_of_degree_20000(tmp_path, capsys):
    # x0^20000 + x1^20000 over F_2 holds the line x0 = x1, the only line
    # through 1:1:0; its table needs binomials mod 2, not binom(20000, f)
    # with up to 6,000 digits
    d = 20000
    spec = VarietySpec(F2, 2, (HomogPoly(d, ((1, (d, 0, 0)), (1, (0, d, 0)))),))
    path = tmp_path / "cone20000.variety"
    path.write_text(format_variety(spec))
    start = time.perf_counter()
    assert main(["lines", "--variety", str(path), "--point", "1:1:0", "--machine"]) == 0
    elapsed = time.perf_counter() - start
    assert "count=1" in capsys.readouterr().out.splitlines()
    assert elapsed < 10.0


def test_chain_invariants():
    with pytest.raises(ValueError):
        Chain(((1, 0, 0, 0), (1, 0, 0, 0)), (Line(((1, 0, 0, 0), (0, 1, 0, 0))),))
    with pytest.raises(ValueError):
        Chain(((1, 0, 0, 0),), (Line(((1, 0, 0, 0), (0, 1, 0, 0))),))


# -- variety files ----------------------------------------------------------

def test_variety_round_trip():
    for spec in (
        split_quadric(3),
        split_quadric(5),
        split_quadric(7),
        fermat_cubic(5),
        fermat_cubic(7),
        coordinate_hyperplane(3),
        coordinate_hyperplane(5, ambient=4),
    ):
        assert parse_variety(format_variety(spec)) == spec


def test_parse_variety_comments_and_negatives():
    text = """
# a split quadric
field 5
ambient 3

# x0*x3 - x1*x2
poly 2 : 1 1 0 0 1 ; -1 0 1 1 0
"""
    spec = parse_variety(text)
    assert spec == split_quadric(5)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("field 6\nambient 3\npoly 1 : 1 1 0 0 0\n", 1),
        ("field 5\nambient x\npoly 1 : 1 1 0 0 0\n", 2),
        ("field 5\nambient 1\npoly 1 : 1 1 0\n", 2),  # ambient below 2
        ("field 5\nambient 3\npoly 2 : 1 1 0 0 0\n", 3),  # degree mismatch
        ("field 5\nambient 3\npoly 2 : 1 1 0 0 1 ; 1 1 0 0\n", 3),  # short term
        ("field 5\nambient 3\npoly 2 : 5 1 0 0 1\n", 3),  # vanishes mod 5
        ("field 5\nambient 3\nquadric 2 : 1 1 0 0 1\n", 3),
        ("field 5\nambient 3\npoly 2 : 1 1 0 0 1 ; 4 1 0 0 1\n", 3),  # duplicate
        ("field 5\nambient 2\npoly 2 : 5 9 9 9 9 9 ; 1 1 1 0\n", 3),  # malformed term, 0 mod 5
        ("field 5\n", 1),
    ],
)
def test_parse_variety_errors_carry_line_numbers(text, lineno):
    with pytest.raises(VarietyParseError) as err:
        parse_variety(text)
    assert err.value.lineno == lineno
    assert f"line {lineno}" in str(err.value)


def test_split_quadric_two_middle_points():
    # between points with no common ruling line there are exactly two
    # two-step connections, matching the symbolic count for a quadric
    for p in (3, 5, 7):
        oracle = pairwise_neighbors(split_quadric(p))
        checked = 0
        for x in oracle:
            nbrs_x = set(oracle[x][0])
            for y in oracle:
                if y == x or y in nbrs_x:
                    continue
                middles = [m for m in oracle[y][0] if m in nbrs_x]
                assert len(middles) == 2
                checked += 1
        assert checked > 0
