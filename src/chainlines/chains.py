"""Intersection classes that detect and count chains of lines.

A chain of l lines from x to y through l-1 intermediate points p^1, ...,
p^{l-1} is a point of (P^N)^{l-1}.  Requiring every segment to lie on the
variety imposes, per defining polynomial of degree d:

  * d conditions on p^1 (the segment through x, whose u^d coefficient is
    absent because x is on X) -- classes 1*h_1, 2*h_1, ..., d*h_1;
  * d conditions on p^{l-1} (the segment through y), symmetrically;
  * one condition purely on each interior point p^k, k = 2..l-2;
  * d-1 genuinely mixed conditions on each adjacent pair (p^{k-1}, p^k),
    k = 2..l-1 -- classes j*h_{k-1} + (d-j)*h_k for j = 1..d-1.

The pure condition on p^{k} for an interior point is the equation G(p^k)=0,
which is imposed once: it is attributed to the segment entering p^k from the
x side, while the segment through y contributes all of 1..d on p^{l-1}.
Without this bookkeeping the same equation would be counted twice.  In total
the conditions number l*D - m where D = sum(d_i) and m is the number of
polynomials.

For l = 2 there is a single intermediate point and the pure condition G(p^1)
imposed by the x-side segment would be duplicated by the y-side segment's
degree-d coefficient, so the y side contributes only 1..d-1; the two
endpoint blocks collapse onto the one factor and the class becomes
h^{2D - m} in P^N.

Block factorisation.  Grouped by the factors they constrain, the conditions
multiply to

    scale * h_1^D * h_2^m * ... * h_{l-2}^m * h_{l-1}^D
          * B(h_1, h_2) * B(h_2, h_3) * ... * B(h_{l-2}, h_{l-1}),

with scale = prod_i d_i! (d_i-1)! d_i^{l-2} (the two endpoint blocks
contribute prod d_i! each, every interior factor prod d_i) and the mixed
block of one adjacent pair

    B(u, v) = prod_i prod_{j=1}^{d_i-1} (j*u + (d_i-j)*v),

of degree D - m; B[a] is its coefficient of u^a v^{D-m-a}.  For l = 2 there
is no pair block and the class is scale * h^{2D-m}.  Picking the term
u^{a_k} from the block of pair k fixes every exponent: with a_1 = 0 and
a_l = D - m,

    e_k = D - a_k + a_{k+1}    (k = 1..l-1),

so each monomial of the class comes from exactly one choice (a_2..a_{l-1}),
with coefficient scale * prod B[a_k].  A monomial survives truncation iff
every step rises by at most N - D.  All coefficients are positive, so no
term cancels and truncating at the end equals truncating as the ring
product grows.  This is a transfer-matrix structure (Stanley, EC1 4.7):
the counting class lists the surviving paths, and the existence class --
the coefficient-free product, whose nonvanishing already certifies a
chain -- is the same listing with binomials C(D-m, a) and scale 1.  A
dynamic program over (k, a_k) counts the terms before any is built, and
classes with more than CLASS_TERM_BUDGET terms, or with l past
LENGTH_BUDGET, are refused with BudgetExceededError.  The term count does
not bound the text, whose coefficients can have thousands of digits, so a
class whose text could pass CLASS_TEXT_BUDGET characters, by a bound from
bit lengths alone (_text_bound), is refused too.  class_text,
counting_class and existence_class all pass the same checks
(_class_groups), since a collected class holds the same integers.

At zero expected dimension (l-1)(N-D) = D - m, and the top monomial forces
a_k = (k-1)(N-D), so the top coefficient -- the number of chains, with
multiplicity, for generic defining polynomials -- is the closed form

    scale * prod_{k=2}^{l-1} B[(k-1)(N-D)].

The same walk over the paths, each a_k taken in descending order, lists
the terms in render order (chow module docstring), so class_text streams a
class as text without building it, and counting_class/existence_class
collect it without sorting or checking it again.  The walk makes the text
of each exponent as it sets it, so rendering a term is one f-string of its
coefficient and a ready-made string, in O(l) memory beyond the output and
the bodies chow.render keeps.  It stops at a_{l-3}: the last two levels,
a_{l-2} and a_{l-1}, are lists made once per value of the level above, a
run per a_{l-3} and leaves per a_{l-2}.  A coefficient
scale * B[a_2] ... B[a_{l-2}] depends only on the multiset of the a_k, so
the run entries (exponentially many in l) have at most
C(D-m+l-3, l-3) * (D-m+1) distinct bodies (coefficient and a_{l-2}), and
render writes each of those once while it keeps it.

Nothing here multiplies classes.  The product of the individual condition
classes in the truncated ring lives in the tests, as the reference they
compare the blocks against.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Iterator

from . import LENGTH_BUDGET, BudgetExceededError
from .chow import (ChowClass, Group, Leaves, Monomial, ProductSpace, Run, _factor_text,
                   _seams, render)
from .criteria import DefiningData, rc_criterion

CLASS_TERM_BUDGET = 10**6  # hard cap on the terms of a class, and on (D-m)^2
CLASS_TEXT_BUDGET = 10**8  # hard cap on a bound of the characters of a class's text


class ExpectedDimensionError(ValueError):
    """Chain counting needs a zero-dimensional expected solution set."""

    def __init__(self, dimension: int, message: str):
        super().__init__(message)
        self.dimension = dimension


class PositiveExpectedDimensionError(ExpectedDimensionError):
    """Infinitely many chains expected; shorten the chain or shrink N."""


class NegativeExpectedDimensionError(ExpectedDimensionError):
    """Overdetermined system; lengthen the chain or grow N."""


class ChainProblem(namedtuple("ChainProblem", "data length")):
    """Degree data plus a chain length; lives in (P^N)^{l-1}."""

    __slots__ = ()

    def __new__(cls, data: DefiningData, length: int):
        if length < 2:
            raise ValueError(f"chain length must be >= 2: {length}")
        return super().__new__(cls, data, length)

    @property
    def space(self) -> ProductSpace:
        """One projective factor per intermediate point."""
        return ProductSpace((self.data.ambient,) * (self.length - 1))


class ConditionTally(namedtuple("ConditionTally", (
        "endpoint_x",        # equations only in p^1
        "endpoint_y",        # equations only in p^{l-1}
        "interior_pure",     # equations on each single interior factor
        "interior_factors",  # number of interior factors, max(l-3, 0)
        "mixed_per_pair",    # bihomogeneous equations per adjacent pair
        "pairs",             # number of adjacent pairs, l-2
))):
    """How the l*D - m conditions distribute over the factors."""

    __slots__ = ()

    def total(self) -> int:
        return (
            self.endpoint_x
            + self.endpoint_y
            + self.interior_pure * self.interior_factors
            + self.mixed_per_pair * self.pairs
        )


def condition_tally(problem: ChainProblem) -> ConditionTally:
    """Bookkeeping of the conditions; the total always equals l*D - m."""
    data, l = problem.data, problem.length
    D, m = data.total_degree, data.m
    tally = ConditionTally(
        endpoint_x=D,
        # the y side's top coefficient is d - (l == 2): at l = 2 the
        # degree-d coefficient is G(p^1) again, which the x side already
        # imposed, so it is left out by design (module docstring)
        endpoint_y=sum(d - (l == 2) for d in data.degrees),
        interior_pure=m,
        interior_factors=max(l - 3, 0),
        mixed_per_pair=D - m,
        pairs=l - 2,
    )
    assert tally.total() == l * D - m
    return tally


def _pair_block(data: DefiningData) -> list[int]:
    """Coefficients B[a] of u^a v^{D-m-a} in the mixed block of one pair."""
    coeffs = [1]
    for d in data.degrees:
        for j in range(1, d):
            # multiply by j*u + (d-j)*v
            coeffs = [
                j * lower + (d - j) * same
                for lower, same in zip([0] + coeffs, coeffs + [0])
            ]
    return coeffs


def _check_length_budget(problem: ChainProblem) -> None:
    # the witness and every term of a class hold O(l) values
    if problem.length > LENGTH_BUDGET:
        raise BudgetExceededError(
            f"chain length {problem.length} exceeds the {LENGTH_BUDGET} budget"
        )


def _check_block_budget(data: DefiningData) -> None:
    # building the pair block takes O((D-m)^2) operations
    size = (data.total_degree - data.m) ** 2
    if size > CLASS_TERM_BUDGET:
        raise BudgetExceededError(
            f"pair block size (D-m)^2 {size} exceeds the {CLASS_TERM_BUDGET} budget"
        )


def _term_count(problem: ChainProblem, cap: float) -> int:
    """min(cap, number of terms): the paths 0 = a_1, a_2, ..., a_l = D-m in
    [0, D-m] whose steps rise by at most N - D, one row of the transfer
    matrix at a time, in O(l*(D-m)) without listing any term.

    Each row holds min(cap, the number of paths 0 = a_1, ..., a_k that end
    at each value); capped sums stay exact below the cap.  Every step
    applies the same map, so once a row repeats, every later row equals it
    and the count stops there.
    """
    data, l = problem.data, problem.length
    top = data.total_degree - data.m
    rise = data.ambient - data.total_degree
    ways = [1] + [0] * top  # paths ending at a_1 = 0
    for _ in range(l - 1):
        # tail[a] = number of paths ending at some value >= a
        tail = [0] * (top + 2)
        for a in range(top, -1, -1):
            tail[a] = tail[a + 1] + ways[a]
        row = [min(cap, tail[min(max(0, b - rise), top + 1)]) for b in range(top + 1)]
        if row == ways:
            break
        ways = row
    return ways[top]


def class_term_count(problem: ChainProblem) -> int:
    """Number of terms of the counting class, and of the existence class,
    exact at any size."""
    return _term_count(problem, math.inf)


def _text_bound(problem: ChainProblem, counting: bool, terms: int) -> int:
    """An upper bound on the characters of the class's text, from bit
    lengths alone: per term, " + " and the digits of the largest possible
    coefficient, and l-1 factors *hk^e with k <= l-1 and e <= N; with no
    term, the text is "0".

    A counting coefficient scale * B[a_2] ... B[a_{l-1}] is at most
    prod d_i! (d_i-1)! times (prod d_i^{d_i})^{l-2}, since each B[a] is
    at most sum_a B[a] = B(1, 1) = prod d_i^{d_i-1}; an existence one, a
    product of l-2 binomials C(D-m, a), is below 2^{(D-m)(l-2)}.  A number
    of b bits has at most floor(b log10 2) + 1 digits.
    """
    data, l = problem.data, problem.length
    if counting:
        ends = math.prod(math.factorial(d) * math.factorial(d - 1) for d in data.degrees)
        step = math.prod(d**d for d in data.degrees)
        bits = ends.bit_length() + (l - 2) * step.bit_length()
    else:
        bits = (data.total_degree - data.m) * (l - 2) + 1
    factor = 3 + len(str(l - 1)) + len(str(data.ambient))
    return max(1, terms * (3 + bits * 30103 // 100000 + 1 + (l - 1) * factor))  # "0" for none


def _walk(problem: ChainProblem, weights: list[int], scale: int) -> Iterator[Group]:
    """The class with pair-block coefficients `weights`, one term per
    surviving path (a_2, ..., a_{l-1}), as `chow.render` groups in render
    order, with their exponents and their text; see the module docstring.

    A depth-first walk over the paths, with an explicit stack, that takes
    every a_k in descending order: e_1 = D + a_2 falls with a_2, and once
    a_2..a_k are fixed e_k = D - a_k + a_{k+1} falls with a_{k+1}, so the
    exponent tuples come out in descending lexicographic order.  The walk
    stops one level above the last head choice: one group per choice of
    a_2..a_{l-3}, whose head is e_1..e_{l-4} and whose coefficient is
    scale * B[a_2] ... B[a_{l-3}].  Its run has one entry per a_{l-2}, in
    descending order, which adds e_{l-3}, its factor text `*h{l-3}^e`,
    the weight B[a_{l-2}] and the leaves of a_{l-2}; each leaf a_{l-1}
    adds (e_{l-2}, e_{l-1}) and the weight B[a_{l-1}].  l = 2 and l = 3
    have no a_{l-3}: one group, whose run is one entry with no exponent
    and weight 1.  The text is made as the walk goes: setting e_k also
    sets its factor `*hk^e`, and a head's text is one join of those.  The
    run of one a_{l-3} and the leaves of one a_{l-2} (tails, weights and
    the seams between the coefficients) are made once, and every group or
    entry below gets the same object, which is what lets chow.render key
    its kept bodies on the leaves' identity, and each e_{l-3} with its
    text is made once for all runs.  Besides the runs and the leaves, at
    most D-m+1 of each with at most D-m+1 entries or tails each, it holds
    O(l) values: a choice, a partial coefficient, an exponent and its
    factor text per factor.
    """
    data, l = problem.data, problem.length
    D, top = data.total_degree, data.total_degree - data.m
    rise = data.ambient - data.total_degree
    # lows[k-1]: least a_k from which a_l = D-m is still reachable
    lows = [top]
    for _ in range(l - 1):
        lows.append(max(0, lows[-1] - rise))
    lows.reverse()
    if lows[0] > 0:
        return
    if l == 2:
        tails = [(D + top,)]
        yield (), "", scale, [((), "", 1, (tails, [1], _seams(tails, 1)))]
        return

    @functools.cache
    def leaves(parent: int) -> Leaves:
        # the same for every entry with a_{l-2} = parent, so made once
        choices = range(min(top, parent + rise), lows[l - 2] - 1, -1)
        tails = [(D - parent + b, D - b + top) for b in choices]
        return tails, [weights[b] for b in choices], _seams(tails, l - 2)

    if l == 3:
        yield (), "", scale, [((), "", 1, leaves(0))]
        return

    @functools.cache
    def mid(e: int) -> tuple[Monomial, str]:
        # e_{l-3} and its factor text, shared by every run
        return (e,), _factor_text(l - 3, e)

    @functools.cache
    def run(parent: int) -> Run:
        # the same for every group with a_{l-3} = parent, so made once
        return [(*mid(D - parent + b), weights[b], leaves(b))
                for b in range(min(top, parent + rise), lows[l - 3] - 1, -1)]

    # a[k-1] = a_k and coeffs[k-1] = scale * B[a_2] ... B[a_k] along the
    # current path; exps[k-1] = e_k and texts[k-1] its factor.  Depth j
    # picks a_{j+1}, j = 1..l-4.
    depth = l - 4
    a, coeffs = [0] * (depth + 1), [scale] * (depth + 1)
    exps, texts = [0] * depth, [""] * depth
    j = 1
    if depth:
        a[1] = min(top, rise) + 1
    while j:
        if j > depth:
            yield tuple(exps), "".join(texts), coeffs[depth], run(a[depth])
            j -= 1
            continue
        a[j] -= 1
        if a[j] < lows[j]:
            j -= 1
            continue
        coeffs[j] = coeffs[j - 1] * weights[a[j]]
        e = exps[j - 1] = D - a[j - 1] + a[j]
        texts[j - 1] = _factor_text(j, e)
        j += 1
        if j <= depth:
            a[j] = min(top, a[j - 1] + rise) + 1


def _counting_scale(problem: ChainProblem) -> int:
    """prod d_i! (d_i-1)! d_i^{l-2}: endpoint blocks and interior monomials."""
    return math.prod(
        math.factorial(d) * math.factorial(d - 1) * d ** (problem.length - 2)
        for d in problem.data.degrees
    )


def _class_groups(problem: ChainProblem, counting: bool) -> Iterator[Group]:
    """The walk for the counting or the existence class, after the budget
    checks, which run at once and in this order: l against LENGTH_BUDGET,
    before any O(l) work; (D-m)^2, the cost of the pair block; the number
    of terms against CLASS_TERM_BUDGET; and a bound on the characters of
    the class's text (_text_bound) against CLASS_TEXT_BUDGET.  The text
    bound holds for a collected class too, whose coefficients are the
    same integers."""
    _check_length_budget(problem)
    _check_block_budget(problem.data)
    # counted only up to the budget, so no row carries O(l)-bit integers
    terms = _term_count(problem, CLASS_TERM_BUDGET + 1)
    if terms > CLASS_TERM_BUDGET:
        raise BudgetExceededError(
            f"class term count is more than the {CLASS_TERM_BUDGET} budget"
        )
    if _text_bound(problem, counting, terms) > CLASS_TEXT_BUDGET:
        raise BudgetExceededError(
            f"class text could be more than the {CLASS_TEXT_BUDGET} character budget"
        )
    top = problem.data.total_degree - problem.data.m
    if problem.length == 2:  # one term, and the walk reads no weight
        weights = []
    elif counting:
        weights = _pair_block(problem.data)
    else:
        weights = [math.comb(top, a) for a in range(top + 1)]
    return _walk(problem, weights, _counting_scale(problem) if counting else 1)


def _collect(problem: ChainProblem, groups: Iterator[Group]) -> ChowClass:
    return ChowClass.from_normal_form(problem.space, {
        head + mid + tail: coeff * weight * leaf
        for head, _, coeff, run in groups
        for mid, _, weight, (tails, weights, _) in run
        for tail, leaf in zip(tails, weights)
    })


def counting_class(problem: ChainProblem) -> ChowClass:
    """Product of all condition classes in the truncated ring.

    Listed from the blocks; raises BudgetExceededError, before any term
    is made, beyond CLASS_TERM_BUDGET terms, with l past LENGTH_BUDGET, or
    when the text could pass CLASS_TEXT_BUDGET characters (_class_groups).
    """
    return _collect(problem, _class_groups(problem, counting=True))


def existence_class(problem: ChainProblem) -> ChowClass:
    """The coefficient-free condition product.

    For l >= 3 this is
        h_1^D * h_2^m * ... * h_{l-2}^m * h_{l-1}^D *
        (h_1+h_2)^{D-m} * ... * (h_{l-2}+h_{l-1})^{D-m},
    and for l = 2 simply h^{2D-m}.  Every surviving term has total degree
    l*D - m; the class is nonzero whenever the chain criterion holds.
    Refused like counting_class, by the same checks (_class_groups).
    """
    return _collect(problem, _class_groups(problem, counting=False))


def class_text(problem: ChainProblem, counting: bool) -> Iterator[str]:
    """str() of the counting (or existence) class, in chunks, never built.

    The budgets are checked at once, before the first chunk is asked for;
    raises BudgetExceededError like counting_class and existence_class.
    """
    return render(_class_groups(problem, counting))


def expected_dimension(problem: ChainProblem) -> int:
    """Ambient dimension N*(l-1) minus the condition count l*D - m."""
    data, l = problem.data, problem.length
    return data.ambient * (l - 1) - (l * data.total_degree - data.m)


def chain_count(problem: ChainProblem) -> int:
    """Number of length-l chains between two general points, with multiplicity.

    This is the intersection number of the counting class, valid when the
    expected dimension is zero.  It assumes generic transversality: for
    special defining polynomials the actual chains may be fewer (with higher
    multiplicities) or form positive-dimensional families.  Computed in
    closed form from the pair block in O(l + (D-m)^2), and without a loop
    over l when N = D; raises BudgetExceededError when (D-m)^2 exceeds
    CLASS_TERM_BUDGET.
    """
    dim = expected_dimension(problem)
    if dim > 0:
        raise PositiveExpectedDimensionError(
            dim, f"expected dimension {dim} > 0: chains form a family, not a finite set"
        )
    if dim < 0:
        raise NegativeExpectedDimensionError(
            dim, f"expected dimension {dim} < 0: the condition system is overdetermined"
        )
    data = problem.data
    rise = data.ambient - data.total_degree
    if rise == 0:
        # then D = m: every degree is 1, the pair block is [1], and the
        # product below would multiply l-2 ones
        return _counting_scale(problem)
    _check_block_budget(data)
    # at l = 2 the product below is empty: no block is needed
    block = _pair_block(data) if problem.length > 2 else []
    # (l-1)(N-D) = D-m at dimension zero, so every index lies in 0..D-m
    return _counting_scale(problem) * math.prod(
        block[k * rise] for k in range(1, problem.length - 1)
    )


def witness_exponents(problem: ChainProblem) -> tuple[int, ...]:
    """The floor exponents jbar_k = floor(k*(D-m)/(l-1)), k = 1..l-2.

    Empty for l = 2 (no interior adjustments).  Each value lies in [0, D-m].
    Raises BudgetExceededError, before any value is made, when l exceeds
    LENGTH_BUDGET.
    """
    _check_length_budget(problem)
    data, l = problem.data, problem.length
    D, m = data.total_degree, data.m
    return tuple((k * (D - m)) // (l - 1) for k in range(1, l - 1))


class Witness(namedtuple("Witness", (
        "exponents",  # a Monomial, one exponent per factor
        "fits",       # True iff every exponent is within its truncation bound
))):
    """A single expansion monomial whose survival certifies nonvanishing."""

    __slots__ = ()


def witness_monomial(problem: ChainProblem) -> Witness:
    """The distinguished expansion monomial of the existence class.

    Choosing j_k = jbar_k in each binomial factor produces the monomial with
        e_k = D - jbar_{k-1} + jbar_k   (k = 1..l-1),
    where jbar_0 = 0 and jbar_{l-1} = D - m, so e_1 = D + jbar_1 and
    e_{l-1} = 2D - m - jbar_{l-2}; for l = 2 the single exponent is
    2D - m.  When the chain criterion holds, every exponent is at most N
    and the witness survives truncation.
    Refused like witness_exponents past LENGTH_BUDGET.
    """
    data, l = problem.data, problem.length
    D, m = data.total_degree, data.m
    jbar = (0, *witness_exponents(problem), D - m)  # jbar_0 .. jbar_{l-1}
    exponents = tuple(D - jbar[k - 1] + jbar[k] for k in range(1, l))
    witness = Witness(exponents, all(e <= data.ambient for e in exponents))
    if rc_criterion(data, l):
        assert witness.fits
    return witness
