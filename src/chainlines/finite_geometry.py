"""Brute-force projective geometry over a prime field.

This is the cross-checking engine: given explicit homogeneous polynomials
over F_p it enumerates the points of the variety, finds the lines through a
point that lie on it, searches for chains of lines between points, and
reports connectivity statistics.  Everything is exhaustive and exact.

Zeros of forms are enumerated one line at a time: each canonical point of
P^{n-1}(F_p) is a prefix (x_0, ..., x_{n-1}), on the points (prefix, t)
every form is a polynomial in t, and the t at which all of them vanish
give the zeros with that prefix.  enumerate_points runs this in P^N, on
blocks of prefixes at once: the coefficients of the first form at all the
prefixes of a block are packed into big integers, one slot per prefix, so
that its values at every (prefix, t) for one t are a few big-integer
products (_prefix_points, _pack, _slots); a later form is evaluated only
at the points the forms before it kept.

One rule decides whether a line lies on X, the paper's local model L_a:
for G of degree d, G(a + t v) = sum_{k=1}^{d} t^k c_k(a, v) with c_k of
bidegree (d-k, k), and for a on X the line through a and v lies on X iff
every c_k of every G vanishes, over any field.  The c_k are tabulated once
per graph (_local_terms), with c_1 = grad G(a).v and c_{d-1}(a, v) =
grad G(v).a.  Containment is never decided by sampling: for p <= d a
nonzero binary form can vanish at all p+1 rational points of a line.  Over
F_3 the Fermat cubic is the triple plane (x_0 + x_1 + x_2 + x_3)^3, every
c_k vanishes identically, and every pair of its points is joined.

ChainGraph finds the contained lines through points from L_a, by one
solver for a list of points at once: the gradients and the coefficients
of the c_k, as forms in a, are evaluated column by column at all the
points (_form_columns); one elimination of the gradient rows, column-wise
over all the points, gives each point its linear space W of directions
and groups the points by the shape of W (_kernels).  c_2 restricted to W
is a quadratic form, rooted on each line of P(W) by the quadratic
formula, so the later c_k are evaluated only at its zeros.  That is done
for a group of points where it costs less than evaluating c_2 at every
direction; elsewhere, and where c_2 vanishes on W, every direction is a
candidate.  The candidates are evaluated column-wise, on blocks that join
those of many points.  A single point is a group of one.  The single-point queries lines_through,
chain_search and locus check their points on X once, build one graph and
never enumerate X(F_p).  chain_search and locus run one breadth-first
search, which solves each level it expands in one batch and
expands each contained line once, not each pair of its points;
chain_search also solves L_y once at its goal y, and meets y from y's own
lines rather than by expanding the last level.

explore needs every line of X(F_p).  It enumerates the points once, and
finds each line once, at its least point (ChainGraph.join_all).  A
canonical point with a later lead comes earlier in sorted order, and a
line meets the hyperplane x_0 = 0 in one point or lies in it, so its least
point, which has the latest lead, lies in x_0 = 0.  So L_a is solved only
on the section X(F_p) with x_0 = 0, and at a point a with lead j only the
directions that lead before j are kept: those are the lines whose other
points all come after a.  On a surface that is about p points with p
directions each.

explore works on point indices, column-wise.  The lines are kept as p+1
columns of point indices, column t holding member t of every line: its
least point a, then v + t a for t = 0..p-1, made for all the lines at
once by one map chain per coordinate and t (join_all).  The census counts
each point's entries in the columns, r_x lines through x.  Two lines
through x meet only at x, so |ball_1(x)| = 1 + p r_x and length 1 has a
closed form; once a count reaches n^2 the remaining lengths repeat it.
Otherwise the balls of the points on a line grow at once, as bitsets over
those points alone, by map(or_, ...) gathers over the columns and one
scatter per slot of each point's lines (_ball_sizes); a point on no line
adds 1 to every count.  The bitset charges are those of every level up to
the first at which no ball grows, also where a closed form skips it.  The
tests check both routes against restricting each G to a line directly,
and the levels against bitsets over all the points, grown line by line.

Caveat, stated once here and repeated where it matters: the symbolic theory
lives over the complex numbers.  Counts and reachability over F_p are
evidence, not proof -- a chain can exist over C without any F_p-rational
witness, and F_p-reachability sets can differ from the characteristic-zero
chain loci (which are defined through general points and Zariski closures).
The bundled test varieties (split quadric, coordinate hyperplane, Fermat
cubic surface) are ones where the discrepancy does not bite.
"""

from __future__ import annotations

import itertools
import struct
import sys
from array import array
from bisect import bisect_left
from collections import Counter, namedtuple
from itertools import compress, repeat
from math import prod
from operator import add, getitem, lshift, mod, mul, ne, neg, not_, or_, sub, truth

from . import LENGTH_BUDGET, BudgetExceededError

# hard cap on p**N per enumeration, on the directions times the terms of
# the c_k that one graph's L_a solves evaluate plus the points of the lines
# it lists and the bytes of explore's bitsets, and on the terms of a
# graph's c_k table
ENUMERATION_BUDGET = 10**8

Point = tuple[int, ...]


class VarietyParseError(ValueError):
    """Malformed variety file; the message carries the line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField(namedtuple("PrimeField", "p")):
    """F_p for a prime p below 2^31; primality is checked at construction."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not 2 <= p < 2**31:
            raise ValueError(f"field characteristic out of range [2, 2^31): {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("cannot invert 0")
        return pow(a, self.p - 2, self.p)


def _check_terms(degree: int, terms) -> None:
    """ValueError unless the (coefficient, exponents) terms make a form of
    the degree, whatever their coefficients: a degree of at least 1, at
    least one term, as many exponents in each, none negative, each term of
    the degree, and no monomial twice."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1: {degree}")
    if not terms:
        raise ValueError("a polynomial needs at least one term")
    nvars = len(terms[0][1])
    seen = set()
    for _, exps in terms:
        if len(exps) != nvars:
            raise ValueError(
                f"term {exps} has {len(exps)} exponents, expected {nvars}"
            )
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        if sum(exps) != degree:
            raise ValueError(
                f"term {exps} has degree {sum(exps)}, expected {degree}"
            )
        if exps in seen:
            raise ValueError(f"duplicate monomial {exps}")
        seen.add(exps)


class HomogPoly(namedtuple("HomogPoly", "degree terms")):
    """A homogeneous polynomial as (coefficient, exponent-tuple) terms."""

    __slots__ = ()

    def __new__(cls, degree: int, terms: tuple[tuple[int, Point], ...]):
        _check_terms(degree, terms)
        if not all(coeff for coeff, _ in terms):
            raise ValueError("zero coefficients must not be stored")
        return super().__new__(cls, degree, terms)

    @property
    def nvars(self) -> int:
        return len(self.terms[0][1])


def _check_ambient(ambient: int) -> None:
    if ambient < 2:
        raise ValueError(f"ambient dimension must be >= 2: {ambient}")


class VarietySpec(namedtuple("VarietySpec", "field ambient polys")):
    """Explicit defining polynomials of a variety in P^N over F_p."""

    __slots__ = ()

    def __new__(cls, field: PrimeField, ambient: int, polys: tuple[HomogPoly, ...]):
        _check_ambient(ambient)
        if not polys:
            raise ValueError("at least one defining polynomial is required")
        for poly in polys:
            if poly.nvars != ambient + 1:
                raise ValueError(
                    f"polynomial has {poly.nvars} variables, expected {ambient + 1}"
                )
            for coeff, _ in poly.terms:
                if not 1 <= coeff < field.p:
                    raise ValueError(
                        f"coefficient {coeff} not reduced mod {field.p}"
                    )
        return super().__new__(cls, field, ambient, polys)


class Line(namedtuple("Line", "basis")):
    """A projective line as its reduced-row-echelon basis, a pair of
    points; canonical.

    Two Line values are equal iff they are the same projective line.
    """

    __slots__ = ()


class Chain(namedtuple("Chain", "points lines")):
    """A concrete chain witness: points q^0..q^l and the l joining lines."""

    __slots__ = ()

    def __new__(cls, points: tuple[Point, ...], lines: tuple[Line, ...]):
        if len(points) != len(lines) + 1:
            raise ValueError("a chain of l lines passes through l+1 points")
        for a, b in zip(points, points[1:]):
            if a == b:
                raise ValueError("consecutive chain points must be distinct")
        return super().__new__(cls, points, lines)

    @property
    def length(self) -> int:
        return len(self.lines)


# -- points ----------------------------------------------------------------

def normalize_point(coords, field: PrimeField) -> Point:
    """Canonical homogeneous coordinates: first nonzero entry scaled to 1."""
    p = field.p
    reduced = [c % p for c in coords]
    for c in reduced:
        if c:
            inv = field.inv(c)
            return tuple((x * inv) % p for x in reduced)
    raise ValueError("the zero vector is not a projective point")


def format_point(pt: Point) -> str:
    return ":".join(map(str, pt))


def parse_point(text: str, field: PrimeField) -> Point:
    """Parse ``a0:a1:...:aN`` (entries reduced mod p, then normalized)."""
    try:
        coords = [int(tok) for tok in text.split(":")]
    except ValueError:
        raise ValueError(f"malformed point {text!r}; expected a0:a1:...:aN") from None
    return normalize_point(coords, field)


def eval_poly(poly: HomogPoly, pt: Point, field: PrimeField) -> int:
    """Value of the polynomial at the point, in F_p."""
    if len(pt) != poly.nvars:
        raise ValueError(
            f"point has {len(pt)} coordinates, polynomial has {poly.nvars} variables"
        )
    return _eval_terms(poly.terms, pt, field.p)


def _eval_terms(terms, pt: Point, p: int) -> int:
    total = 0
    for coeff, exps in terms:
        term = coeff
        for x, e in zip(pt, exps):
            if e:
                term = term * pow(x, e, p) % p
        total = (total + term) % p
    return total


def on_variety(spec: VarietySpec, pt: Point) -> bool:
    return all(eval_poly(poly, pt, spec.field) == 0 for poly in spec.polys)


def _point_of(spec: VarietySpec, x) -> Point:
    """x in canonical form; ValueError unless it is a point of the variety."""
    pt = normalize_point(x, spec.field)
    if not on_variety(spec, pt):
        raise ValueError(f"point {format_point(x)} is not on the variety")
    return pt


def _check_budget(measure: int, what: str) -> None:
    if measure > ENUMERATION_BUDGET:
        raise BudgetExceededError(f"{what} exceeds the {ENUMERATION_BUDGET} budget")


def _projective_reps(p: int, n: int):
    """All canonical points of P^n(F_p): lead coordinate 1, zeros before it,
    in the order of itertools.product over the coordinates after the lead.
    Those with one coordinate after the lead take it from a lazy range(p),
    so the first few points of P^1 cost little at any p; a longer product
    holds range(p), but its callers charge p^2 points or more before it."""
    for lead in range(n + 1):
        head = (0,) * lead + (1,)
        if lead == n - 1:
            yield from map(add, repeat(head, p), zip(range(p)))
        else:
            for tail in itertools.product(range(p), repeat=n - lead):
                yield head + tail


_T_BLOCK = 1 << 14  # prefixes of an enumeration or of P(W), or directions of L_a, tried together
# the fixed steps of restricting c_2 to W and rooting it on the lines of
# P(W), in (direction, term) pairs of evaluating c_2 at every direction
# instead: a group of points with fewer pairs than the rooting takes plus
# this many is not rooted (ChainGraph._roots)
_ROOTING_STEPS = 256


def _prefix_points(forms, n: int, p: int) -> set[Point]:
    """The canonical points of P^n(F_p) at which every form vanishes.

    Forms are lists of (coefficient, exponents) terms in n+1 variables,
    n >= 1.  On the points (prefix, t), for the canonical points of
    P^{n-1}(F_p) as prefix, a form is sum_k t^k c_k(prefix), one c_k per
    power k of x_n it holds; (0,...,0,1) is checked on its own.  The
    prefixes run in blocks of at most _T_BLOCK.  The column of each c_k of
    the first form at all the prefixes of a block (_form_columns) is packed
    into one integer, one slot per prefix (_pack), so for each t the slots
    of sum_k (t^k mod p) c_k (_slots) hold the form at every (prefix, t)
    exactly: K powers k bound them by K(p-1)^2.  Each later form is
    evaluated only at the points the forms before it kept.
    """
    last = (0,) * n + (1,)
    found = set() if any(_eval_terms(terms, last, p) for terms in forms) else {last}
    first, *rest = forms
    by_k: dict[int, list] = {}  # the terms of each c_k, in the prefix coordinates
    for coeff, exps in first:
        by_k.setdefault(exps[n], []).append((coeff, exps[:n]))
    rows = [[pow(t, k, p) for k in by_k] for t in range(p)]
    bound = len(by_k) * (p - 1) ** 2
    fmt = _slot_format(bound)
    zeros = frozenset(range(0, bound + 1, p))
    reps = _projective_reps(p, n - 1)
    while block := list(itertools.islice(reps, _T_BLOCK)):
        packed = _pack(_form_columns(by_k.values(), list(zip(*block)), p), fmt)
        for t, row in enumerate(rows):
            kept = compress(block, map(zeros.__contains__, _slots(row, packed, fmt, len(block))))
            pts = list(map(add, kept, repeat((t,))))
            for terms in rest:
                if not pts:
                    break
                [values] = _form_columns([terms], list(zip(*pts)), p)
                pts = list(compress(pts, map(not_, values)))
            found.update(pts)
    return found


def enumerate_points(spec: VarietySpec) -> set[Point]:
    """All F_p-points of the variety, canonical and deduplicated, by the
    prefix method in P^N (see _prefix_points)."""
    n, p = spec.ambient, spec.field.p
    _check_budget(p**n, f"enumerating P^{n}(F_{p})")
    return _prefix_points([poly.terms for poly in spec.polys], n, p)


# -- lines -------------------------------------------------------------------

def _line_at(a: Point, v: Point, p: int) -> Line:
    """The line through a point a and a direction v of L_a at a, both
    canonical, in RREF without row reduction.  With j the lead of a and l
    that of v (v_j = 0, so l != j) and a_l = 0 when l < j, the basis is
    (v, a) if l < j and (a - a_l v, v) otherwise."""
    l = v.index(1)
    if l < a.index(1):
        return Line((v, a))
    c = a[l]
    return Line((tuple((x - c * y) % p for x, y in zip(a, v)), v))


def line_points(line: Line, field: PrimeField) -> list[Point]:
    """The q+1 rational points of the line, canonical.

    The RREF basis (a, b) needs no scaling: b and every a + t*b already
    lead with a 1, since the pivot of a comes first and b is 0 there.
    """
    p = field.p
    a, b = line.basis
    # one list of the p values per coordinate, zipped into the points
    cols = [[x] * p if not y else [v % p for v in range(x, x + p * y, y)] for x, y in zip(a, b)]
    return [b, *zip(*cols)]


def lines_through(spec: VarietySpec, x: Point) -> set[Line]:
    """All lines through x that lie on the variety (over F_p).

    The F_p-points of the local model L_a at a = x, one per line, from one
    solve (ChainGraph._directions), each line made in closed form; X(F_p)
    is not enumerated and no line's points are listed.
    """
    a = _point_of(spec, x)
    [directions] = ChainGraph(spec)._directions([a], [len(a)])
    return {_line_at(a, v, spec.field.p) for v in directions}


# -- the local model L_a -------------------------------------------------------

def _binomials(e: int, p: int) -> list[int]:
    """binom(e, f) mod p for f = 0..e, by Lucas' theorem: binom(e, f) is
    prod binom(e_i, f_i) mod p over the base-p digits e_i of e and f_i of
    f.  So the row is the row of e // p, each entry times the row of the
    last digit e % p, padded with zeros to p entries.  A row with e < p
    comes from the recurrence binom(e, f+1) = binom(e, f) (e-f) / (f+1),
    each step mod p, where f+1 <= e < p is invertible."""
    if e >= p:
        high, low = divmod(e, p)
        digit = _binomials(low, p) + [0] * (p - 1 - low)
        return [h * c % p for h in _binomials(high, p) for c in digit][: e + 1]
    row = [1]
    for f in range(e):
        row.append(row[-1] * (e - f) * pow(f + 1, -1, p) % p)
    return row


def _local_terms(poly: HomogPoly, p: int) -> dict[int, dict[Point, list[tuple[int, Point]]]]:
    """The coefficients c_k(a, v), k = 1..d, of G(a + t v) - G(a).

    Each c_k is grouped by its monomials v^f, |f| = k: the coefficient of
    v^f is a form in a of degree d-k, a list of (multiplier, exponents of
    a) terms.  Expanding x_i^e_i = (a_i + t v_i)^e_i binomially, the term
    coeff * x^e contributes coeff * prod binom(e_i, f_i) a^(e-f) v^f at
    t^|f|: multipliers reduced mod p, exact in every characteristic, with
    no division by k!.  Terms whose multiplier vanishes mod p are dropped.
    """
    binomials = {e: _binomials(e, p) for e in {e for _, exps in poly.terms for e in exps}}
    table: dict[int, dict] = {}
    for coeff, exps in poly.terms:
        rows = [binomials[e] for e in exps]
        for f in itertools.product(*(range(e + 1) for e in exps)):
            k = sum(f)
            if k:
                # the per-variable work runs in C: a variable with e_i = 0
                # costs one factor binom(0, 0) = 1, not a Python step
                mult = coeff * prod(map(getitem, rows, f)) % p
                if mult:
                    table.setdefault(k, {}).setdefault(f, []).append((mult, tuple(map(sub, exps, f))))
    return table


def _split(keys) -> list[list[int]]:
    """The positions of keys, grouped by their key: each group in increasing
    order, the groups in the order of their keys."""
    if not keys:
        return []
    if keys.count(keys[0]) == len(keys):  # one group
        return [list(range(len(keys)))]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [list(group) for _, group in itertools.groupby(order, keys.__getitem__)]


def _gather(col, part: list[int]):
    """The entries of col at the increasing positions part: col itself
    where part holds every position."""
    return col if len(part) == len(col) else list(map(col.__getitem__, part))


def _spread(col, width: int):
    """The entries of col, each repeated width times, lazily."""
    if len(col) == 1:
        return repeat(col[0], width)
    return itertools.chain.from_iterable(map(repeat, col, repeat(width)))


def _flags(entries) -> list[bytes]:
    """Per point, given its entries, one byte per entry: 1 where it is nonzero."""
    return list(map(bytes, map(map, repeat(truth), entries)))


def _axpy(row, factor, other, p: int):
    """row + factor * other mod p, column by column, with one factor per point."""
    if not any(factor):
        return row
    return [list(map(mod, map(add, x, map(mul, factor, y)), repeat(p))) if any(y) else x
            for x, y in zip(row, other)]


def _form_columns(forms, coords, p: int):
    """Each form, a list of (coefficient, exponents) terms, at all the points
    whose coordinate columns are coords, entries in 0..p-1: one column of its
    values mod p per form, in turn.  A coefficient is an int, or a list of
    one value per point.

    A column of x_i^e mod p is made once per coordinate and exponent e > 1
    the terms use, and shared by the forms; each term's column is a product
    of those, and the terms are summed column-wise, all by map in C.  Each
    sum past the first term is stored, so no deep chain of lazy maps forms.
    """
    n = len(coords[0])
    powers: dict[tuple[int, int], list[int]] = {}
    for terms in forms:
        total = None
        for coeff, exps in terms:
            term = coeff if isinstance(coeff, list) else repeat(coeff, n)
            for i, e in enumerate(exps):
                if e:
                    col = coords[i] if e == 1 else powers.get((i, e))
                    if col is None:
                        col = powers[i, e] = list(map(pow, coords[i], repeat(e), repeat(p)))
                    term = map(mul, term, col)
            total = term if total is None else list(map(add, total, term))
        yield [0] * n if total is None else list(map(mod, total, repeat(p)))


def _slot_format(bound: int) -> str:
    """The memoryview format of the narrowest native unsigned slot of 1, 2,
    4 or 8 bytes that holds every integer from 0 to bound."""
    for fmt in "BHIQ":
        if bound < 1 << 8 * struct.calcsize(fmt):
            return fmt
    raise ValueError(f"{bound} does not fit an 8-byte slot")


def _pack(cols, fmt: str) -> list[int]:
    """Each column of integers as one integer, one slot of format fmt
    (_slot_format) per entry."""
    return [int.from_bytes(array(fmt, col).tobytes(), sys.byteorder) for col in cols]


def _slots(v, packed: list[int], fmt: str, n: int) -> memoryview:
    """The n slots of sum_k v_k * packed_k, for columns packed by _pack.
    Exact when every such sum of entries fits a slot: no slot carries into
    the next."""
    size = n * struct.calcsize(fmt)
    return memoryview(sum(map(mul, v, packed)).to_bytes(size, sys.byteorder)).cast(fmt)


# -- roots of c_2 on the lines of P(W) ----------------------------------------

def _sqrt_mod(d: int, p: int) -> int | None:
    """A square root of d modulo the prime p, or None if d is not a square.

    The other root is p minus this one.  When p = 3 mod 4, x = d^((p+1)/4)
    has x^2 = d^((p-1)/2) d, so it is a root exactly when d is a square.
    Otherwise Euler's criterion decides whether d is a square, and the
    root comes from Tonelli-Shanks with the least non-residue.  Exact and
    deterministic, in O(log p)^2 multiplications mod p."""
    d %= p
    if d < 2 or p == 2:
        return d
    if p % 4 == 3:
        root = pow(d, (p + 1) // 4, p)
        return root if root * root % p == d else None
    if pow(d, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q 2^s with q odd
    q = (p - 1) >> s
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    # invariant: x^2 = t d, with t of order 2^i for some i < s, and c of order 2^s
    c, t, x = pow(z, q, p), pow(d, q, p), pow(d, (q + 1) // 2, p)
    while t != 1:
        i, square = 1, t * t % p
        while square != 1:
            i, square = i + 1, square * square % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


def _quadratic_roots(a: int, b: int, c: int, p: int):
    """The t in F_p with a t^2 + b t + c = 0, for a, b, c in 0..p-1, by the
    quadratic formula (over F_2, both values tried): at most two, or None
    when all three vanish and so does every t."""
    if not (a or b or c):
        return None
    if p == 2:
        return tuple(t for t in (0, 1) if not (a + b) * t + c & 1)  # t^2 = t
    if not a:
        return (-c * pow(b, -1, p) % p,) if b else ()
    root = _sqrt_mod(b * b - 4 * a * c, p)
    if root is None:
        return ()
    inv = pow(2 * a, -1, p)
    return ((root - b) * inv % p, (p - root - b) * inv % p) if root else (-b * inv % p,)


def _recipe(free: list[int], entries, size: int):
    """Each coordinate of the directions sum_s y_s w_s of a group of points
    (_kernels), as the (s, w_s at the group's points) it sums, w None for
    1: y_s itself at the free column f_s, nothing at a coordinate that is 0
    on W, and at a pivot c y_s times w_s[c] for each free f_s."""
    position = dict(zip(free, range(len(free))))
    return [[(position[f], w) for f, w in entries.get(i, ())] if i not in position
            else [(position[i], None)] for i in range(size)]


def _restricted(monomials, coeffs, recipe, m: int, p: int) -> list[list[int]]:
    """The quadratic form Q(y) = c_2(a, sum_s y_s w_s) at every point a of a
    group, column-wise: per s <= t, in the order of
    combinations_with_replacement, the column of the coefficient of
    y_s y_t.  c_2 is given by its monomials v_i v_k, as exponent tuples,
    and their coefficient columns coeffs, the coordinates by their recipe
    (_recipe).  A monomial v_i v_k adds its coefficient times w_s[i]
    w_t[k] to the coefficient of y_s y_t for every term (s, w_s) of v_i and
    (t, w_t) of v_k; for v_i^2 each pair of terms s != t is taken once,
    twice over."""
    sums: dict[tuple[int, int], list[int]] = {}
    for f, col in zip(monomials, coeffs):
        if not any(col):
            continue
        i, k = (f.index(2),) * 2 if 2 in f else compress(range(len(f)), f)
        for at, (s, ws) in enumerate(recipe[i]):
            for t, wt in recipe[k][at:] if i == k else recipe[k]:
                term = col if ws is None else map(mul, col, ws)
                if wt is not None:
                    term = map(mul, term, wt)
                if i == k and s != t:
                    term = map(lshift, term, repeat(1))
                key = (s, t) if s <= t else (t, s)
                sums[key] = list(term) if key not in sums else list(map(add, sums[key], term))
    zero = [0] * len(coeffs[0])
    return [list(map(mod, sums[key], repeat(p))) if key in sums else zero
            for key in itertools.combinations_with_replacement(range(m), 2)]


def _zeros(at: list[int], q: list[list[int]], m: int, r: int, lines: int, p: int):
    """The zeros of quadratic forms Q in m variables, none of them 0, at
    the indices at, given column-wise by Q's coefficients q (in the order
    of _restricted), among the canonical points y of P^{m-1}(F_p) that
    lead before r: the pairs (index, y), made lazily, in pieces of at most
    _T_BLOCK pairs: per piece, the index of each pair and the columns of
    its y.

    The y with lead < m-1 lie on the lines {(z, t)} through the canonical
    points z of P^{m-2}, and those that lead before r on the first `lines`
    of them.  On such a line Q(z, t) = a t^2 + b t + c, with a the
    coefficient of y_{m-1}^2, b the sum of those of y_s y_{m-1} times z_s
    and c = Q(z, 0).  The lines are taken with the indices as in _tiled,
    at most _T_BLOCK (index, line) pairs at a time; a, b and c are made
    column-wise over the pairs, and each quadratic is rooted
    (_quadratic_roots), all p points of a line being zeros where Q
    vanishes on it.  The lone y = e_{m-1}, which leads before r only when
    r = m, is a zero iff a = 0."""
    # y_s y_t, s <= t, is coefficient s m - s (s-1)/2 + t - s of q
    linear = [(s, s * m - s * (s - 1) // 2 + m - 1 - s) for s in range(m - 1)]
    square = [(s, t, s * m - s * (s - 1) // 2 + t - s) for s in range(m - 1) for t in range(s, m - 1)]
    owner, ys = [], [[] for _ in range(m)]
    step = max(1, _T_BLOCK // lines) if lines else len(at)
    for lo in range(0, len(at) if lines else 0, step):
        part, qs = at[lo:lo + step], [col[lo:lo + step] for col in q]
        prefixes = itertools.islice(_projective_reps(p, m - 2), lines)
        while chunk := list(itertools.islice(prefixes, _T_BLOCK)):
            width = len(chunk)
            zs = [list(z) * len(part) for z in zip(*chunk)]
            a = list(_spread(qs[-1], width))
            b = c = repeat(0)  # each sum stored, so no deep chain of lazy maps forms
            for s, i in linear:
                b = list(map(add, b, map(mul, zs[s], _spread(qs[i], width))))
            for s, t, i in square:
                c = list(map(add, c, map(mul, map(mul, zs[s], zs[t]), _spread(qs[i], width))))
            roots = map(_quadratic_roots, a, map(mod, b, repeat(p)), map(mod, c, repeat(p)), repeat(p))
            for k, z, ts in zip(_spread(part, width), chunk * len(part), roots):
                for t in range(p) if ts is None else ts:
                    owner.append(k)
                    for col, x in zip(ys, z + (t,)):
                        col.append(x)
                    if len(owner) == _T_BLOCK:
                        yield owner, ys
                        owner, ys = [], [[] for _ in range(m)]
    for k, a in zip(at, q[-1]) if r == m else ():  # the lone y = e_{m-1}
        if not a:
            owner.append(k)
            for col, x in zip(ys, (0,) * (m - 1) + (1,)):
                col.append(x)
            if len(owner) == _T_BLOCK:
                yield owner, ys
                owner, ys = [], [[] for _ in range(m)]
    if owner:
        yield owner, ys


def _tiled(at: list[int], p: int, n: int, count: int):
    """The pairs of each index in at with each of the first count canonical
    points y of P^n(F_p) (_projective_reps), in pieces of at most _T_BLOCK
    pairs: per piece, the index of each pair and the columns of its y.  A
    piece holds as many indices as it holds every y of, or one index with
    more than _T_BLOCK y, in chunks of at most _T_BLOCK; its y are made
    once and tiled over its indices."""
    step = max(1, _T_BLOCK // count)
    for lo in range(0, len(at), step):
        part = at[lo:lo + step]
        made = itertools.islice(_projective_reps(p, n), count)
        while chunk := list(itertools.islice(made, _T_BLOCK)):
            yield list(_spread(part, len(chunk))), [list(y) * len(part) for y in zip(*chunk)]


# -- chains of lines ---------------------------------------------------------

class ChainGraph:
    """Reachability graph on the F_p-points of a variety, never built.

    Two distinct points are adjacent iff their joining line lies on X.  The
    graph holds no point: the contained lines through a point a are solved
    from the local model L_a each time they are asked for.

    For each G of degree d and a on X, G(a + t v) = sum_{k=1}^{d} t^k c_k(a, v)
    with c_k bihomogeneous of bidegree (d-k, k) and c_1 = grad G(a).v; the
    line through a and v lies on X iff every c_k of every G vanishes, over
    any field.  The c_k are tabulated once per graph (_local_terms), their
    terms refused past ENUMERATION_BUDGET before they are made.  At a,
    with j its lead coordinate, every line through a meets the hyperplane
    v_j = 0 in exactly one point.  One solver (_directions) finds these
    points at a list of points at once:

    - column-wise over all the points (_columns): the gradients, and the
      coefficient of each monomial v^f of every c_k with k >= 2, which is
      a form in a (a constant in c_d = G(v));
    - over all the points at once (_kernels): the gradient rows, with
      column j zeroed, are reduced column-wise and cut out a linear space W
      at each point; the points are grouped by lead, cut and the shape of
      the echelon basis w_s of W, m = dim W.  Per group: its free columns,
      its number of directions, and the terms of the c_k in a coordinate
      of v that is 0 on all of W (v_j among them), which are dropped;
    - where that is cheaper (_roots), the first c_2 of the table is
      restricted to W, column-wise over a group's points: Q(y) = c_2(a,
      sum_s y_s w_s), a quadratic form with m(m+1)/2 coefficients
      (_restricted).  The canonical points y of P^{m-1}(F_p) lie on the
      lines {(z, t)} through the canonical points z of P^{m-2}, plus the
      lone y = e_{m-1}; on each line Q is a quadratic in t, made
      column-wise over the (point, line) pairs and rooted by the quadratic
      formula (_zeros, _quadratic_roots, _sqrt_mod), all p points of the
      line where Q vanishes on it.  A
      point's candidates are those zeros; at a point of a group not
      rooted, or where that c_2 has no live term or Q is 0, they are all
      its directions;
    - the candidates v = sum_s y_s w_s are made lazily and column-wise:
      all the directions of a group's points tiled over them (_tiled), and
      the zeros as they are rooted (_zeros); the pairs of all the groups
      are joined into blocks of at most _T_BLOCK (_blocks), and each c_k
      but a rooted c_2 is evaluated on a block column-wise, with the
      coefficients of its point, only at the pairs where the ones before
      it vanish;
    - each v at which they all vanish gives the line through a and v, made
      in closed form (_line_at).

    A line's p+1 points are listed only when a search (_levels) expands
    it, or explore lists every line (join_all), never by lines_through or
    at chain_search's goal.
    connectivity_report also charges the graph its bitsets.  Every solve
    charges the graph its work, each step before it runs: in a rooted
    group, c_2's restriction at its m(m+1)/2 coefficients times its live
    terms, and one unit per line of P(W) it roots, at every point where Q
    is not 0; then per block, each c_k it evaluates at the candidates of
    the block where the ones before it vanish times its live terms, and
    the candidates of a point with no c_k left at 1 each.  So a solve over
    too many lines of P(W) is refused before it roots one, and a solve
    holds at most one block of candidates beyond what it has been charged.
    Every line listed charges its p+1 points before they are built.  The
    graph raises BudgetExceededError once the sum over its life passes ENUMERATION_BUDGET.  It keeps nothing
    per point, so a second search on it does all the work of the first
    again and is charged again.  Results are deterministic and identical
    to joining a to every other point of X(F_p).
    """

    def __init__(self, spec: VarietySpec):
        self.spec = spec
        count = sum(prod(e + 1 for e in exps) - 1 for poly in spec.polys for _, exps in poly.terms)
        _check_budget(count, f"the {count} terms of the c_k table")
        tables = [_local_terms(poly, spec.field.p) for poly in spec.polys]
        # every c_k with k >= 2, in table order, by its monomials v^f: the
        # coefficient of each is a form in a, constant in c_d = G(v)
        self._forms = [form for table in tables for k, form in table.items() if k > 1]
        ks = [k for table in tables for k in table if k > 1]
        self._quadric = ks.index(2) if 2 in ks else None  # the c_2 that a solve roots
        # the forms in a that a solve evaluates: the entries of every grad G,
        # dG/dx_i the coefficient of v_i in c_1, then those of the c_k
        self._in_a = []
        for table in tables:
            grad = {f.index(1): terms for f, terms in table.get(1, {}).items()}
            self._in_a += [grad.get(i, []) for i in range(spec.ambient + 1)]
        self._in_a += [terms for form in self._forms for terms in form.values()]
        self.charged = 0  # directions times terms of the L_a solves, line points listed

    def _charge(self, steps: int) -> None:
        self.charged += steps
        _check_budget(self.charged, "the work of this graph")

    def _columns(self, points: list[Point]):
        """grad G and the coefficients of the c_k at all the points at once,
        by _form_columns from the forms in a of their terms (c_1(a, v) =
        grad G(a).v): entry [g][i][k] of the first is the i-th entry of
        grad G_g at points[k], and entry [s][t][k] of the second the
        coefficient of the t-th monomial of the s-th c_k there."""
        size = self.spec.ambient + 1
        values = _form_columns(self._in_a, list(zip(*points)) or [()] * size, self.spec.field.p)
        grads = [[next(values) for _ in range(size)] for _ in self.spec.polys]
        return grads, [[next(values) for _ in form] for form in self._forms]

    def _kernels(self, grads, points: list[Point], cuts: list[int]):
        """The points grouped by the shape of their space W of directions:
        per group (indices, j, cut, entries), the indices of its points in
        points, their lead j, their cut, and the entries of the echelon
        basis of W off its free columns.

        At a point, the gradient rows with column j zeroed are reduced from
        the last column back, so that each pivot is the last nonzero entry
        of its row.  W has one basis vector w_f per free column f (neither j
        nor a pivot): 1 at f, 0 at the other free columns, and -r_f / r_c at
        the pivot c of each reduced row r, nonzero only at pivots after f.
        The rows are taken in turn and reduced at every point at once,
        column by column; each point has its own pivot per row, reached by
        map over its entries.  Then the points are grouped by lead, cut and
        the places of the nonzero entries of every reduced row: a group has
        one set of free columns and pivots, and entries maps each pivot c to
        (f, the column of w_f[c] at the group's points) for each free f where
        w_f[c] is nonzero.  With one polynomial the pivot is the last nonzero
        entry of grad G, and these columns are -g_f / g_c mod p."""
        p = self.spec.field.p
        leads = list(map(tuple.index, points, repeat(1)))
        lead_set = set(leads)
        # (row, pivots, scale, flags): pivots[k] is the column of the last
        # nonzero entry of the row at point k, -1 where the row is 0 there,
        # scale[k] minus the inverse of that entry, and flags[k] marks the
        # nonzero entries (_flags); w_f[c] is entry f times scale at pivot c
        reduced = []
        for grad in grads:
            row = [list(map(mul, col, map(ne, leads, repeat(i)))) if i in lead_set else col
                   for i, col in enumerate(grad)]
            for other, pivots, scale, _ in reduced:
                row = _axpy(row, list(map(mul, map(getitem, zip(*row), pivots), scale)), other, p)
            at_points = list(zip(*row))
            flags = _flags(at_points)
            pivots = list(map(bytes.rfind, flags, repeat(1)))
            values = map(max, map(getitem, at_points, pivots), repeat(1))  # 1 where the row is 0
            scale = list(map(pow, map(neg, values), repeat(-1), repeat(p)))
            for at, (other, *rest) in enumerate(reduced):
                cleared = _axpy(other, list(map(mul, map(getitem, zip(*other), pivots), scale)), row, p)
                if cleared is not other:
                    reduced[at] = cleared, *rest[:2], _flags(zip(*cleared))
            reduced.append((row, pivots, scale, flags))
        groups = []
        for part in _split(list(zip(leads, cuts, *(flags for *_, flags in reduced)))):
            k = part[0]
            entries = {}
            for row, pivots, scale, flags in reduced:
                if pivots[k] >= 0:
                    factor = _gather(scale, part)
                    entries[pivots[k]] = [(f, list(map(mod, map(mul, _gather(row[f], part), factor), repeat(p))))
                                          for f in range(pivots[k]) if flags[k][f]]
            groups.append((part, leads[k], cuts[k], entries))
        return groups

    def _directions(self, points: list[Point], cuts: list[int]) -> list[list[Point]]:
        """For each canonical point a of X(F_p) and its cut, the points v of
        L_a whose lead coordinate comes before the cut: v_j = 0, j the lead
        of a, and the line through a and v on X.  Each v is canonical, and
        listed once; a cut of N+1 keeps them all.  Charged as the class
        docstring says."""
        p, size = self.spec.field.p, self.spec.ambient + 1
        grads, coefficients = self._columns(points)
        solves = []  # (first position, points, dim W, r, directions each, recipe) per group
        order = []  # the indices of the points with a direction, group by group
        zeros = []  # per group, the coordinates that are 0 on all of W
        for at, j, cut, entries in self._kernels(grads, points, cuts):
            free = [f for f in range(size) if f != j and f not in entries]
            # a direction sum_s y_s w_s leads where w_s does for the lead s of
            # y, so those that lead before the cut are the y that lead before r
            r, m = bisect_left(free, cut), len(free)
            if r:  # the y that lead before r are the first (p^m - p^(m-r))/(p-1) of _projective_reps
                count = (p ** m - p ** (m - r)) // (p - 1)
                solves.append((len(order), len(at), m, r, count, _recipe(free, entries, size)))
                zeros.append([i for i in range(size) if i not in free and not entries.get(i)])
                order += at
        if len(order) < len(points) or len(solves) > 1:  # the coefficients at those points, group by group
            coefficients = [[list(map(col.__getitem__, order)) for col in cols] for cols in coefficients]
        for (start, n, *_), zero in zip(solves, zeros):
            for form, cols in zip(self._forms, coefficients):
                for f, col in zip(form, cols):
                    if any(map(f.__getitem__, zero)):
                        col[start:start + n] = repeat(0, n)  # v^f is 0 at every direction
        live = [list(map(sub, repeat(len(cols)), map(tuple.count, zip(*cols), repeat(0)))) for cols in coefficients]
        # the candidates: the zeros of c_2 where it is rooted, made lazily,
        # and all the directions elsewhere
        pieces = []
        for (start, n, m, r, count, recipe), roots in zip(solves, self._roots(solves, coefficients, live)):
            if roots is None:
                made = _tiled(range(n), p, m - 1, count)
            else:
                rooted, made = roots
                if len(rooted) < n:
                    made = itertools.chain(_tiled([k for k in range(n) if k not in rooted], p, m - 1, count), made)
            pieces.append((start, recipe, made))
        # the c_k evaluated at the candidates, each charged per block before
        # it runs, at the candidates where the ones before it vanish, and
        # the candidates of a point with no live c_k at 1 each
        forms = list(zip(self._forms, coefficients, live))
        bare = list(map(not_, map(any, zip(*live)))) if live else [1] * len(order)
        found: list[list[Point]] = [[] for _ in points]
        for owner, cols in self._blocks(pieces):
            one = owner.count(owner[0]) == len(owner)
            self._charge(bare[owner[0]] * len(owner) if one else sum(map(bare.__getitem__, owner)))
            for form, coeffs, at in forms:
                if one:  # the pairs of one point: its coefficients
                    terms = [(col[owner[0]], f) for f, col in zip(form, coeffs) if col[owner[0]]]
                else:  # one coefficient per pair, from its point
                    terms = [(c, f) for f, col in zip(form, coeffs)
                             if any(c := list(map(col.__getitem__, owner)))]
                if not terms:
                    continue
                self._charge(at[owner[0]] * len(owner) if one else sum(map(at.__getitem__, owner)))
                [values] = _form_columns([terms], cols, p)
                kept = list(map(not_, values))
                owner = list(compress(owner, kept))
                cols = [list(compress(col, kept)) for col in cols]
                if not owner:
                    break
            for k, v in zip(map(order.__getitem__, owner), zip(*cols)):
                found[k].append(v)
        return found

    def _roots(self, solves, coefficients, live):
        """Per group of the solve, None where the c_2 it roots is not
        rooted, and otherwise (rooted, pairs): the indices of the points
        where that c_2 is restricted to a form Q that is not 0 on W, and
        Q's zeros there, made lazily in pieces (_zeros).  At the
        other points every direction is a candidate.

        A group is rooted where evaluating c_2 at all its directions, their
        number times c_2's live terms, would cost more than restricting it,
        rooting its lines and the fixed steps of both, _ROOTING_STEPS; a
        group with no live c_2 term never is.  There c_2(a, .) is restricted
        to W, a quadratic form Q(y) = c_2(a, sum_s y_s w_s) with m(m+1)/2
        coefficients, column-wise over the group's points (_restricted),
        charged before it runs at those coefficients times c_2's live
        terms; then every line of P(W) through a prefix where Q is not 0 is
        charged one unit, before any is rooted.  c_2 vanishes at every
        candidate of a rooted group, so its coefficients and live terms
        there are cleared, and it is evaluated only elsewhere."""
        if self._quadric is None:
            return [None] * len(solves)
        p = self.spec.field.p
        cols, live = coefficients[self._quadric], live[self._quadric]
        quadrics = []  # per group rooted: the indices where Q is not 0, Q there, m, r and lines
        for start, n, m, r, count, recipe in solves:
            terms = sum(live[start:start + n])
            # the prefixes of P^{m-2} that lead before r: the first (p^(m-1) -
            # p^(m-1-r'))/(p-1) of _projective_reps, r' = min(r, m-1)
            lines = (p ** (m - 1) - p ** (m - 1 - min(r, m - 1))) // (p - 1)
            if count * terms <= m * (m + 1) // 2 * terms + lines * n + _ROOTING_STEPS:
                quadrics.append(None)
                continue
            self._charge(m * (m + 1) // 2 * terms)
            group = cols if n == len(live) else [col[start:start + n] for col in cols]
            q = _restricted(self._forms[self._quadric], group, recipe, m, p)
            at = list(compress(range(n), map(any, zip(*q))))
            quadrics.append((at, [_gather(col, at) for col in q], m, r, lines))
            for col in cols:
                col[start:start + n] = repeat(0, n)
            live[start:start + n] = repeat(0, n)
        if quadrics.count(None) == len(quadrics):
            return quadrics
        self._charge(sum(len(group[0]) * group[-1] for group in quadrics if group))
        return [group and (set(group[0]), _zeros(*group, p) if group[0] else iter(()))
                for group in quadrics]

    def _blocks(self, solves):
        """The (point, direction) pairs of the groups, joined in order into
        blocks of at most _T_BLOCK pairs: per block, the position of the
        point of each pair, and the coordinate columns of the directions.

        solves holds per group (start, recipe, pieces): its first position,
        its coordinates as sums over its basis w_s of W (_recipe), and its
        pairs in pieces of at most _T_BLOCK (_tiled, _zeros), each the
        index in the group of the point of each pair and the columns of the
        y of its direction sum_s y_s w_s: y_s itself at the free column f_s,
        0 at a coordinate that is 0 on W, and at a pivot c the sum over the
        free f_s of y_s times w_s[c] at the pair's point."""
        p, size = self.spec.field.p, self.spec.ambient + 1
        owner, cols = [], []
        for start, recipe, pieces in solves:
            for at, ys in pieces:
                more = list(map(add, at, repeat(start)))
                parts = []
                for terms in recipe:
                    if not terms:
                        parts.append([0] * len(at))
                    elif terms[0][1] is None:
                        parts.append(ys[terms[0][0]])
                    else:
                        total = None
                        for s, w in terms:
                            term = map(mul, ys[s], map(w.__getitem__, at))
                            total = list(term) if total is None else list(map(add, total, term))
                        parts.append(list(map(mod, total, repeat(p))))
                if owner:
                    room = _T_BLOCK - len(owner)
                    owner += more[:room]
                    for col, part in zip(cols, parts):
                        col += part[:room]
                    if len(owner) < _T_BLOCK:
                        continue
                    yield owner, cols
                    more, parts = more[room:], [part[room:] for part in parts]
                owner, cols = more, parts
                if len(owner) == _T_BLOCK:
                    yield owner, cols
                    owner = []
        if owner:
            yield owner, cols

    def _levels(self, start: Point):
        """The breadth-first search from start, one level at a time: yields
        (parent, level) for level 0 = [start], then 1, 2, ..., where parent
        maps every point reached so far to its parent and the line joining
        them (None at start).  A level is made only when the one before it
        has been yielded and the next one is asked for, and the search ends
        at the first empty level.

        start must be a canonical point of X(F_p), which is not checked
        here: the queries check their points (_point_of) before they build
        the graph.  Each level is made from one L_a solve of the level
        before it (_directions), charged what one solve per point is on
        the same route (_roots), and what it runs.  Each
        contained line is expanded once, by the first point of the level on
        it, and charged its p+1 points before they are listed; its unvisited
        points take that point as parent, and the new points of each point
        join the next level in sorted order.  That is the order of a BFS
        over sorted neighbor lists, so every point gets the same parent as
        there, at whatever level the caller stops.
        """
        field = self.spec.field
        parent: dict[Point, tuple[Point, Line] | None] = {start: None}
        level = [start]
        expanded: set[Line] = set()
        while level:
            yield parent, level
            nxt = []
            for a, directions in zip(level, self._directions(level, [len(start)] * len(level))):
                new = []
                for v in directions:
                    line = _line_at(a, v, field.p)
                    if line in expanded:
                        continue
                    expanded.add(line)
                    self._charge(field.p + 1)
                    for b in line_points(line, field):
                        if b not in parent:
                            parent[b] = a, line
                            new.append(b)
                new.sort()
                nxt += new
            level = nxt

    def join_all(self) -> tuple[list[Point], list[list[int]]]:
        """Find every contained line of X(F_p), each at its least point:
        explore's route (connectivity_report).  Returns the sorted points
        of X(F_p), which it enumerates itself, and the lines as p+1 columns
        of point indices: column 0 holds every line's least point a, and
        column t+1 its point v + t a, for t = 0..p-1 (line_points order),
        one entry per line in each column.

        A canonical point with a later lead comes earlier in sorted order.
        A line meets the hyperplane x_0 = 0 in one point or lies in it, so
        its least point, which has the latest lead, has x_0 = 0.  At a point
        a with lead j, the line through a and a direction v of L_a has a as
        its least point iff v leads before j: then v and every a + t v lead
        before j too, while otherwise v leads after j.  So L_a is solved
        once, for all the points of the section x_0 = 0 at once
        (_directions), keeping at each a the directions that lead before j;
        a point whose W has none is dropped straight after its kernel.
        Every contained line is found once, at its least point, as (v, a)
        in RREF (_line_at), in order of a and then of v.  The columns are
        made for all the lines at once: per t, one map chain per coordinate
        gives v + t a mod p at every line from v + (t-1) a, and one map
        turns the points into indices.  The solve is charged as for the other queries, and so are
        the p+1 points of every line before any is listed.
        """
        points = sorted(enumerate_points(self.spec))
        section = points[: bisect_left(points, (1,))]  # the points with x_0 = 0
        found = self._directions(section, [a.index(1) for a in section])
        p = self.spec.field.p
        self._charge((p + 1) * sum(map(len, found)))
        index = dict(zip(points, range(len(points))))
        least = list(itertools.chain.from_iterable(map(repeat, section, map(len, found))))
        directions = list(itertools.chain.from_iterable(map(sorted, found)))
        columns = [list(map(index.__getitem__, least)), list(map(index.__getitem__, directions))]
        a_cols, coords = list(zip(*least)), list(zip(*directions))
        for _ in range(1, p):  # v + t a from v + (t-1) a, where a has a nonzero coordinate
            coords = [list(map(mod, map(add, x, a), repeat(p))) if any(a) else x for x, a in zip(coords, a_cols)]
            columns.append(list(map(index.__getitem__, zip(*coords))))
        return points, columns


def chain_search(
    spec: VarietySpec, x: Point, y: Point, max_length: int
) -> Chain | None:
    """Shortest chain of at most max_length lines on X from x to y, if any.

    x == y yields the empty chain.  Returning None means no F_p-rational
    chain of that length exists; it does not refute existence over C.

    The search from x (ChainGraph._levels) makes level 1 from a solve at
    x.  From there on each level is checked against the lines through y
    before the next is made.  L_y is solved once, when level 1 is neither
    empty nor holds y.  With j the lead of y, a point a lies on a line
    through y iff a - a_j y, canonical, is a direction of L_y, so no point
    of y's lines is listed.  The first such a in level order becomes y's
    parent, joined to y by that line: that is the parent a BFS that stops
    at y gives, since had the line been expanded from an earlier point, y
    would sit on a lower level.  The search stops when y is on no line,
    and after checking level max_length - 1, which it does not expand.
    The chain is read back along the parents.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1: {max_length}")
    x, y = _point_of(spec, x), _point_of(spec, y)
    graph, field, j = ChainGraph(spec), spec.field, y.index(1)
    for depth, (parent, level) in enumerate(graph._levels(x)):
        if y in parent or depth == max_length:  # y is x or on level 1, or max_length is 1
            break
        if not depth:
            continue
        if depth == 1:  # the directions of L_y, solved once
            [directions] = graph._directions([y], [len(y)])
            at_y = set(directions)
            if not at_y:  # y is on no line
                break
        for a in level:
            v = normalize_point([s - a[j] * t for s, t in zip(a, y)], field)
            if v in at_y:
                parent[y] = a, _line_at(y, v, field.p)
                break
        if y in parent or depth + 1 == max_length:
            break
    if y not in parent:
        return None
    points, lines = [y], []
    while points[-1] != x:
        a, line = parent[points[-1]]
        points.append(a)
        lines.append(line)
    return Chain(tuple(reversed(points)), tuple(reversed(lines)))


def locus(spec: VarietySpec, x: Point, length: int) -> set[Point]:
    """F_p-points reachable from x by at most `length` line-steps.

    Finite-field stand-in for the chain locus: full graph reachability
    rather than the characteristic-zero definition through general points
    and closures, so it can under- or over-shoot the true locus: the
    union of levels 0..length of the search from x (ChainGraph._levels).
    """
    if length < 1:
        raise ValueError(f"length must be >= 1: {length}")
    x = _point_of(spec, x)
    points: set[Point] = set()
    # stopped on depth, not by islice, whose stop must fit in sys.maxsize:
    # the search ends at its first empty level, so any length is bounded
    for depth, (_, level) in enumerate(ChainGraph(spec)._levels(x)):
        points.update(level)
        if depth == length:
            break
    return points


# -- explore: every line from the points --------------------------------------

class ConnectivityReport(namedtuple("ConnectivityReport", (
        "points",       # the number of F_p-points
        "fractions",    # l -> Fraction of ordered point pairs joined by a chain of length <= l
        "line_counts",  # histogram: number of contained lines through a point -> point count
))):
    """Connectivity statistics of the chain graph of a variety."""

    __slots__ = ()


def _ball_sizes(columns: list[list[int]], incidence: Counter):
    """sum |ball_k(x)| over the points x on a line, for k = 1, 2, ...: the
    balls are bitsets over those points alone, renumbered by their number
    of lines r_x (incidence), most first, and grown column-wise.

    The ball of radius k+1 about x is the union of the radius-k balls about
    the points of the lines through x.  A level gathers each line's balls,
    one map(or_, ...) per column, and then ORs each point's lines together,
    one slot at a time: slot s holds the s-th line of each point with more
    than s lines, which are the first points in the renumbering, so that a
    slot is one slice assignment.  Nothing runs before the first size is
    asked for."""
    lined = sorted(incidence, key=incidence.__getitem__, reverse=True)
    counts = list(map(incidence.__getitem__, lined))  # r_x, falling
    renumber = dict(zip(lined, range(len(lined))))
    columns = [list(map(renumber.__getitem__, col)) for col in columns]
    nlines = len(columns[0])
    # the incidences t * nlines + j, of line j and point columns[t][j], by
    # point: those of point i from starts[i] on
    flat = list(itertools.chain.from_iterable(columns))
    by_point = sorted(range(len(flat)), key=flat.__getitem__)
    starts = list(itertools.accumulate(counts, initial=0))
    slots = []
    for s in range(counts[0]):
        more = bisect_left(counts, -s, key=neg)  # the points with more than s lines
        slots.append(list(map(mod, map(by_point.__getitem__, map(add, starts[:more], repeat(s))), repeat(nlines))))
    ball = list(map(lshift, repeat(1), range(len(lined))))
    while True:
        spans = list(map(ball.__getitem__, columns[0]))
        for col in columns[1:]:
            spans = list(map(or_, spans, map(ball.__getitem__, col)))
        ball = list(map(spans.__getitem__, slots[0]))
        for slot in slots[1:]:
            ball[: len(slot)] = list(map(or_, ball, map(spans.__getitem__, slot)))
        yield sum(map(int.bit_count, ball))


def connectivity_report(spec: VarietySpec, max_length: int) -> ConnectivityReport:
    """Pair-connectivity fractions for l = 1..max_length plus a line census.

    ChainGraph.join_all enumerates X(F_p) and finds every contained line,
    each at its least point, as p+1 columns of point indices.  The census
    counts each point's entries in the columns, r_x lines through x.  Two
    lines through x meet only at x, so the ball of radius 1 about x has
    1 + p r_x points, and length 1 counts n + p(p+1) L ordered pairs, L
    the number of lines.  Once a count reaches n^2, every pair is joined
    and the remaining lengths repeat it.  Otherwise the balls of radius 2
    and up are bitsets (_ball_sizes) over the points on a line only: a
    point on no line has itself as its ball at every length, and adds 1
    to every count.  Once no ball grows, the remaining lengths repeat the
    last count.

    The graph is charged the n * ceil(n/8) bytes of n balls of n bits
    before the first ones would be made and again before each level up to
    the first at which no ball grows, also where the closed forms leave
    the bitsets unmade: L = 0 stops after length 1, a count of n^2 one
    length after it.  So their memory and time stay within
    ENUMERATION_BUDGET along with the solve and the lines, and the charge
    does not depend on which levels are counted in closed form.  A
    max_length past LENGTH_BUDGET is refused with BudgetExceededError
    before any of this.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1: {max_length}")
    if max_length > LENGTH_BUDGET:
        raise BudgetExceededError(
            f"max_length {max_length} exceeds the {LENGTH_BUDGET} budget")
    graph = ChainGraph(spec)
    points, columns = graph.join_all()
    n, p = len(points), spec.field.p
    incidence = Counter(itertools.chain.from_iterable(columns))  # r_x at each point x on a line
    line_counts = dict(Counter(map(incidence.__getitem__, range(n))))
    level = n * -(-n // 8)  # the bytes of n balls of n bits, charged before they are made
    graph._charge(level)
    sizes = itertools.islice(_ball_sizes(columns, incidence), 1, None)  # radius 2 on, made lazily
    reachable = []  # ordered pairs at distance <= l, for l = 1, 2, ...
    count = n  # at distance 0
    for length in range(1, max_length + 1):
        graph._charge(level)
        if length == 1:
            grown = n + p * (p + 1) * len(columns[0])
        elif count == n * n:
            grown = count
        else:
            grown = n - len(incidence) + next(sizes)
        reachable.append(grown)
        if grown == count:  # no ball grows any more
            break
        count = grown
    reachable += reachable[-1:] * (max_length - len(reachable))
    # imported here: lines, chain and locus share this module and never load fractions
    from fractions import Fraction

    fractions = {l: Fraction(r, n * n) for l, r in enumerate(reachable, 1)} if n else {}
    return ConnectivityReport(points=n, fractions=fractions, line_counts=line_counts)


# -- variety files -------------------------------------------------------------

def parse_variety(text: str) -> VarietySpec:
    """Parse the line-oriented variety format.

    ::

        field <p>
        ambient <N>
        poly <d> : <c> <e0> ... <eN> ; <c> <e0> ... <eN> ; ...

    Lines starting with ``#`` are comments; blank lines are skipped.
    Every term is checked as HomogPoly checks its terms (_check_terms),
    those that vanish mod p included, and each polynomial's number of
    variables against the ambient dimension; then coefficients are reduced
    mod p and the terms that vanish are dropped.  All that HomogPoly and
    VarietySpec check then holds, so they are made without checking it
    again (_make).  Errors are reported with the number of the line they
    concern.
    """
    lines = [
        (no, stripped)
        for no, raw in enumerate(text.splitlines(), start=1)
        if (stripped := raw.strip()) and not stripped.startswith("#")
    ]
    if len(lines) < 3:
        lineno = lines[-1][0] if lines else 1
        raise VarietyParseError(lineno, "expected field, ambient and poly lines")

    def _keyword_int(entry, keyword):
        no, content = entry
        tokens = content.split()
        if len(tokens) != 2 or tokens[0] != keyword:
            raise VarietyParseError(no, f"expected '{keyword} <int>', got {content!r}")
        try:
            return int(tokens[1])
        except ValueError:
            raise VarietyParseError(no, f"{keyword} value {tokens[1]!r} is not an integer") from None

    def _checked(lineno, build, *args):
        try:
            return build(*args)
        except ValueError as exc:
            raise VarietyParseError(lineno, str(exc)) from None

    p = _keyword_int(lines[0], "field")
    field = _checked(lines[0][0], PrimeField, p)
    ambient = _keyword_int(lines[1], "ambient")
    _checked(lines[1][0], _check_ambient, ambient)
    polys = []
    for no, content in lines[2:]:
        head, sep, rest = content.partition(":")
        tokens = head.split()
        if not sep or len(tokens) != 2 or tokens[0] != "poly":
            raise VarietyParseError(no, f"expected 'poly <d> : ...', got {content!r}")
        try:
            degree = int(tokens[1])
            terms = []
            for group in rest.split(";"):
                values = tuple(map(int, group.split()))
                terms.append((values[0], values[1:]))
        except (ValueError, IndexError):  # a term that is not all integers, or empty
            raise VarietyParseError(
                no, f"expected an integer degree and terms '<c> <e0> ... <eN>', got {content!r}"
            ) from None
        _checked(no, _check_terms, degree, terms)
        if len(terms[0][1]) != ambient + 1:
            raise VarietyParseError(no, f"polynomial has {len(terms[0][1])} variables, expected {ambient + 1}")
        terms = tuple((coeff % p, exps) for coeff, exps in terms if coeff % p)
        if not terms:
            raise VarietyParseError(no, f"polynomial vanishes modulo {p}")
        polys.append(HomogPoly._make((degree, terms)))
    return VarietySpec._make((field, ambient, tuple(polys)))


def format_variety(spec: VarietySpec) -> str:
    """Render a spec in the file format; parse_variety gives it back verbatim."""
    out = [f"field {spec.field.p}", f"ambient {spec.ambient}"]
    for poly in spec.polys:
        groups = [
            f"{coeff} " + " ".join(str(e) for e in exps) for coeff, exps in poly.terms
        ]
        out.append(f"poly {poly.degree} : " + " ; ".join(groups))
    return "\n".join(out) + "\n"


def load_variety(path) -> VarietySpec:
    with open(path) as f:
        return parse_variety(f.read())


# -- stock varieties -----------------------------------------------------------

def split_quadric(p: int) -> VarietySpec:
    """x0*x3 - x1*x2 = 0 in P^3: doubly ruled, (q+1)^2 rational points."""
    field = PrimeField(p)
    poly = HomogPoly(2, ((1, (1, 0, 0, 1)), (p - 1, (0, 1, 1, 0))))
    return VarietySpec(field, 3, (poly,))


def fermat_cubic(p: int) -> VarietySpec:
    """x0^3 + x1^3 + x2^3 + x3^3 = 0 in P^3: a cubic surface."""
    field = PrimeField(p)
    exps = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
    poly = HomogPoly(3, tuple((1, e) for e in exps))
    return VarietySpec(field, 3, (poly,))


def coordinate_hyperplane(p: int, ambient: int = 3) -> VarietySpec:
    """x0 = 0 in P^ambient: a projective subspace, line-connected."""
    field = PrimeField(p)
    exps = tuple(1 if i == 0 else 0 for i in range(ambient + 1))
    return VarietySpec(field, ambient, (HomogPoly(1, ((1, exps),)),))
