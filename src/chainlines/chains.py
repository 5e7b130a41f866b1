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
classes with more than CLASS_TERM_BUDGET terms are refused with
BudgetExceededError.

At zero expected dimension (l-1)(N-D) = D - m, and the top monomial forces
a_k = (k-1)(N-D), so the top coefficient -- the number of chains, with
multiplicity, for generic defining polynomials -- is the closed form

    scale * prod_{k=2}^{l-1} B[(k-1)(N-D)].

counting_factors keeps the individual condition classes; their product in
the truncated ring is the reference the tests compare the blocks against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chow import ChowClass, Monomial, ProductSpace, hyperplane
from .criteria import DefiningData, rc_criterion
from .finite_geometry import BudgetExceededError

CLASS_TERM_BUDGET = 10**6  # hard cap on the terms of a class, and on (D-m)^2


class ExpectedDimensionError(ValueError):
    """Chain counting needs a zero-dimensional expected solution set."""

    def __init__(self, dimension: int, message: str):
        super().__init__(message)
        self.dimension = dimension


class PositiveExpectedDimensionError(ExpectedDimensionError):
    """Infinitely many chains expected; shorten the chain or shrink N."""


class NegativeExpectedDimensionError(ExpectedDimensionError):
    """Overdetermined system; lengthen the chain or grow N."""


@dataclass(frozen=True)
class ChainProblem:
    """Degree data plus a chain length; lives in (P^N)^{l-1}."""

    data: DefiningData
    length: int

    def __post_init__(self):
        if self.length < 2:
            raise ValueError(f"chain length must be >= 2: {self.length}")

    @property
    def space(self) -> ProductSpace:
        """One projective factor per intermediate point."""
        return ProductSpace((self.data.ambient,) * (self.length - 1))


@dataclass(frozen=True)
class ConditionTally:
    """How the l*D - m conditions distribute over the factors."""

    endpoint_x: int        # equations only in p^1
    endpoint_y: int        # equations only in p^{l-1}
    interior_pure: int     # equations on each single interior factor
    interior_factors: int  # number of interior factors, max(l-3, 0)
    mixed_per_pair: int    # bihomogeneous equations per adjacent pair
    pairs: int             # number of adjacent pairs, l-2 for l >= 3

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
    if l == 2:
        tally = ConditionTally(
            endpoint_x=D,
            endpoint_y=D - m,
            interior_pure=m,
            interior_factors=0,
            mixed_per_pair=D - m,
            pairs=0,
        )
    else:
        tally = ConditionTally(
            endpoint_x=D,
            endpoint_y=D,
            interior_pure=m,
            interior_factors=l - 3,
            mixed_per_pair=D - m,
            pairs=l - 2,
        )
    assert tally.total() == l * D - m
    return tally


@dataclass(frozen=True)
class CountingFactors:
    """The condition classes, grouped by which factor(s) they constrain."""

    x_side: tuple[ChowClass, ...]
    y_side: tuple[ChowClass, ...]
    interior: tuple[ChowClass, ...]
    mixed: tuple[ChowClass, ...]

    def all(self) -> tuple[ChowClass, ...]:
        return self.x_side + self.y_side + self.interior + self.mixed


def counting_factors(problem: ChainProblem) -> CountingFactors:
    """Condition classes with their degree coefficients, one per condition."""
    data, l = problem.data, problem.length
    space = problem.space
    x_side = [
        j * hyperplane(space, 1) for d in data.degrees for j in range(1, d + 1)
    ]
    if l == 2:
        # the degree-d coefficient on the y side duplicates G(p^1), which the
        # x side already imposed
        y_side = [
            j * hyperplane(space, 1) for d in data.degrees for j in range(1, d)
        ]
        interior: list[ChowClass] = []
        mixed: list[ChowClass] = []
    else:
        y_side = [
            j * hyperplane(space, l - 1)
            for d in data.degrees
            for j in range(1, d + 1)
        ]
        interior = [
            d * hyperplane(space, k)
            for d in data.degrees
            for k in range(2, l - 1)
        ]
        mixed = [
            j * hyperplane(space, k - 1) + (d - j) * hyperplane(space, k)
            for d in data.degrees
            for k in range(2, l)
            for j in range(1, d)
        ]
    factors = CountingFactors(tuple(x_side), tuple(y_side), tuple(interior), tuple(mixed))
    assert len(factors.all()) == l * data.total_degree - data.m
    return factors


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


def _check_budget(measure: int, what: str) -> None:
    if measure > CLASS_TERM_BUDGET:
        raise BudgetExceededError(
            f"{what} {measure} exceeds the {CLASS_TERM_BUDGET} budget"
        )


def _check_block_budget(data: DefiningData) -> None:
    # building the pair block takes O((D-m)^2) operations
    _check_budget((data.total_degree - data.m) ** 2, "pair block size (D-m)^2")


def class_term_count(problem: ChainProblem) -> int:
    """Number of terms of the counting class, and of the existence class.

    Counts the paths 0 = a_1, a_2, ..., a_l = D-m in [0, D-m] whose steps
    rise by at most N - D, one row of the transfer matrix at a time, in
    O(l*(D-m)) without listing any term.
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
        ways = [tail[min(max(0, b - rise), top + 1)] for b in range(top + 1)]
    return ways[top]


def _check_class_budget(problem: ChainProblem) -> None:
    _check_block_budget(problem.data)
    _check_budget(class_term_count(problem), "class term count")


def _block_class(problem: ChainProblem, weights: list[int], scale: int) -> ChowClass:
    """The class with pair-block coefficients `weights`, one term per
    surviving path (a_2, ..., a_{l-1}); see the module docstring."""
    data, l = problem.data, problem.length
    D, top = data.total_degree, data.total_degree - data.m
    rise = data.ambient - data.total_degree
    # lows[k-1]: least a_k from which a_l = D-m is still reachable
    lows = [top]
    for _ in range(l - 1):
        lows.append(max(0, lows[-1] - rise))
    lows.reverse()
    if lows[0] > 0:
        return ChowClass(problem.space, {})
    partial: list[tuple[Monomial, int, int]] = [((), 0, scale)]
    for low in lows[1:-1]:
        partial = [
            (exps + (D - a + b,), b, coeff * weights[b])
            for exps, a, coeff in partial
            for b in range(low, min(top, a + rise) + 1)
        ]
    return ChowClass(
        problem.space,
        {exps + (D - a + top,): coeff for exps, a, coeff in partial},
    )


def _counting_scale(problem: ChainProblem) -> int:
    """prod d_i! (d_i-1)! d_i^{l-2}: endpoint blocks and interior monomials."""
    return math.prod(
        math.factorial(d) * math.factorial(d - 1) * d ** (problem.length - 2)
        for d in problem.data.degrees
    )


def counting_class(problem: ChainProblem) -> ChowClass:
    """Product of all condition classes in the truncated ring.

    Listed from the blocks; raises BudgetExceededError beyond
    CLASS_TERM_BUDGET terms.
    """
    _check_class_budget(problem)
    return _block_class(
        problem, _pair_block(problem.data), _counting_scale(problem)
    )


def existence_class(problem: ChainProblem) -> ChowClass:
    """The coefficient-free condition product.

    For l >= 3 this is
        h_1^D * h_2^m * ... * h_{l-2}^m * h_{l-1}^D *
        (h_1+h_2)^{D-m} * ... * (h_{l-2}+h_{l-1})^{D-m},
    and for l = 2 simply h^{2D-m}.  Every surviving term has total degree
    l*D - m; the class is nonzero whenever the chain criterion holds.
    Raises BudgetExceededError beyond CLASS_TERM_BUDGET terms.
    """
    _check_class_budget(problem)
    top = problem.data.total_degree - problem.data.m
    return _block_class(problem, [math.comb(top, a) for a in range(top + 1)], 1)


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
    closed form from the pair block in O(l + (D-m)^2); raises
    BudgetExceededError when (D-m)^2 exceeds CLASS_TERM_BUDGET.
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
    _check_block_budget(data)
    block = _pair_block(data)
    rise = data.ambient - data.total_degree
    # (l-1)(N-D) = D-m at dimension zero, so every index lies in 0..D-m
    return _counting_scale(problem) * math.prod(
        block[k * rise] for k in range(1, problem.length - 1)
    )


def witness_exponents(problem: ChainProblem) -> tuple[int, ...]:
    """The floor exponents jbar_k = floor(k*(D-m)/(l-1)), k = 1..l-2.

    Empty for l = 2 (no interior adjustments).  Each value lies in [0, D-m].
    """
    data, l = problem.data, problem.length
    D, m = data.total_degree, data.m
    return tuple((k * (D - m)) // (l - 1) for k in range(1, l - 1))


@dataclass(frozen=True)
class Witness:
    """A single expansion monomial whose survival certifies nonvanishing."""

    exponents: Monomial
    fits: bool  # True iff every exponent is within its truncation bound


def witness_monomial(problem: ChainProblem) -> Witness:
    """The distinguished expansion monomial of the existence class.

    Choosing j_k = jbar_k in each binomial factor produces the monomial with
        e_1 = D + jbar_1,
        e_k = D - jbar_{k-1} + jbar_k   (k = 2..l-2),
        e_{l-1} = 2D - m - jbar_{l-2};
    for l = 2 the single exponent is 2D - m.  When the chain criterion holds,
    every exponent is at most N and the witness survives truncation.
    """
    data, l = problem.data, problem.length
    D, m, N = data.total_degree, data.m, data.ambient
    if l == 2:
        exponents: tuple[int, ...] = (2 * D - m,)
    else:
        jbar = witness_exponents(problem)
        exps = [D + jbar[0]]
        exps += [D - jbar[k - 2] + jbar[k - 1] for k in range(2, l - 1)]
        exps += [2 * D - m - jbar[-1]]
        exponents = tuple(exps)
    witness = Witness(exponents, all(e <= N for e in exponents))
    if rc_criterion(data, l):
        assert witness.fits
    return witness
