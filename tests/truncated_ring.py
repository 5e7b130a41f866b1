"""The truncated-ring route to the chain classes, as a test oracle.

The condition classes of a chain of lines, one per condition, as plain
dicts from exponent tuples to integer coefficients, and their product in
Z[h_1, ..., h_k] / (h_i^{N_i+1}) with out-of-range monomials dropped after
every step.  This is the route the package took before it listed the
classes from their blocks.  It imports nothing from chainlines, so the two
routes can disagree.
"""

from __future__ import annotations

from operator import add, le


def truncated_product(factors, dims) -> dict:
    """The product of the factors, truncated at the factor dimensions dims
    after each step, without zero coefficients."""
    result = {(0,) * len(dims): 1}
    for factor in factors:
        out: dict = {}
        for m1, c1 in result.items():
            for m2, c2 in factor.items():
                mono = tuple(map(add, m1, m2))
                if all(map(le, mono, dims)):
                    out[mono] = out.get(mono, 0) + c1 * c2
        result = {m: c for m, c in out.items() if c}
    return result


def condition_factors(degrees, l: int) -> dict[str, list[dict]]:
    """The condition classes of a chain of l lines on l-1 points, for
    defining polynomials of the given degrees, grouped by the factors they
    constrain (chainlines.chains module docstring):

    * x_side: j*h_1 for j = 1..d;
    * y_side: j*h_{l-1} for j = 1..d - (l == 2), since at l = 2 the
      degree-d coefficient is the x side's G(p^1) again;
    * interior: d*h_k for k = 2..l-2;
    * mixed: j*h_{k-1} + (d-j)*h_k for k = 2..l-1 and j = 1..d-1.
    """
    def h(i: int) -> tuple[int, ...]:  # the exponents of h_i
        return tuple(int(k == i) for k in range(1, l))

    return {
        "x_side": [{h(1): j} for d in degrees for j in range(1, d + 1)],
        "y_side": [{h(l - 1): j} for d in degrees for j in range(1, d - (l == 2) + 1)],
        "interior": [{h(k): d} for d in degrees for k in range(2, l - 1)],
        "mixed": [{h(k - 1): j, h(k): d - j}
                  for d in degrees for k in range(2, l) for j in range(1, d)],
    }


def all_factors(degrees, l: int) -> list[dict]:
    """Every condition class of condition_factors, in one list."""
    return [f for group in condition_factors(degrees, l).values() for f in group]
