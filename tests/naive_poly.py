"""Reference arithmetic and rendering for cross-checking the truncated ring.

Plain dict-based integer polynomials with NO truncation during computation;
out-of-range monomials are discarded only at the very end.  Deliberately
independent of chainlines.chow so the two routes can disagree.
"""

from __future__ import annotations


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def product(factors, nvars: int) -> dict:
    result = {(0,) * nvars: 1}
    for f in factors:
        result = mul(result, f)
    return result


def truncate(poly: dict, dims) -> dict:
    return {
        m: c for m, c in poly.items() if all(e <= n for e, n in zip(m, dims))
    }


def render(poly: dict) -> str:
    """The rendering contract of chainlines.chow, spelled out term by term:
    sort, then format every factor of every term."""
    if not poly:
        return "0"
    parts = []
    for mono in sorted(poly, reverse=True):
        factors = [f"h{i + 1}^{e}" if e > 1 else f"h{i + 1}" for i, e in enumerate(mono) if e]
        parts.append("*".join([str(poly[mono])] + factors))
    return " + ".join(parts)
