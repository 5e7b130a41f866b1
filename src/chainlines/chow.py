"""Exact arithmetic in the Chow ring of a product of projective spaces.

The intersection ring of P^{N_1} x ... x P^{N_k} is the integer polynomial
ring Z[h_1, ..., h_k] modulo the relations h_i^{N_i+1} = 0, where h_i is the
hyperplane class pulled back from the i-th factor.  A class is stored
sparsely: a mapping from exponent tuples to nonzero integer coefficients.
Python ints are arbitrary precision, so products of many degree coefficients
never overflow.  Any monomial with some exponent above its factor dimension
lies in the truncation ideal and is dropped the moment it appears, which
keeps intermediate results bounded by prod(N_i + 1) monomials.

All operations are pure: they never mutate their operands, so values can be
shared freely across threads.

Rendering contract (used verbatim by the command-line `class` output): terms
are listed with the lexicographically largest exponent tuple first, each term
formatted as ``<coeff>*h1^<e1>*...*hk^<ek>`` with ``^1`` and zero-exponent
factors omitted, terms joined by `` + ``; the zero class renders as ``0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class ProductSpace:
    """A product of projective spaces, recorded by its factor dimensions."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.factor_dims)
        if len(dims) < 1:
            raise ValueError("a product space needs at least one factor")
        if any(n < 0 for n in dims):
            raise ValueError(f"factor dimensions must be nonnegative: {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def nfactors(self) -> int:
        return len(self.factor_dims)

    def __str__(self) -> str:
        return " x ".join(f"P^{n}" for n in self.factor_dims)


class ChowClass:
    """A cycle class, kept in normal form.

    Stored terms never include a zero coefficient or a monomial outside the
    truncation bounds.  Classes need not be homogeneous; operations that care
    about homogeneity must check it themselves.  Instances are treated as
    immutable: every operation returns a fresh class.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: ProductSpace, terms: dict[Monomial, int]):
        dims = space.factor_dims
        clean: dict[Monomial, int] = {}
        for mono, coeff in terms.items():
            if len(mono) != len(dims):
                raise ValueError(
                    f"monomial {mono} has {len(mono)} exponents, expected {len(dims)}"
                )
            if min(mono) < 0:
                raise ValueError(f"negative exponent in monomial {mono}")
            if coeff == 0 or any(map(gt, mono, dims)):
                continue
            clean[tuple(mono)] = coeff
        self.space = space
        self.terms = clean

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> int:
        """Coefficient of the given monomial (0 if absent or truncated)."""
        mono = tuple(mono)
        if len(mono) != self.space.nfactors:
            raise ValueError(
                f"monomial {mono} has {len(mono)} exponents, "
                f"expected {self.space.nfactors}"
            )
        if any(e < 0 for e in mono):
            raise ValueError(f"negative exponent in monomial {mono}")
        return self.terms.get(mono, 0)

    def top_coefficient(self) -> int:
        """Coefficient of h_1^{N_1} ... h_k^{N_k}.

        For a zero-dimensional class this is the intersection number.
        Homogeneity is not checked; that is the caller's business.
        """
        return self.terms.get(self.space.factor_dims, 0)

    # -- ring structure ----------------------------------------------------

    def _require_same_space(self, other: "ChowClass") -> None:
        if self.space != other.space:
            raise ValueError(
                f"classes live in different spaces: {self.space} vs {other.space}"
            )

    def __add__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._require_same_space(other)
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc[mono] = acc.get(mono, 0) + coeff
        return ChowClass(self.space, acc)

    def __neg__(self) -> "ChowClass":
        return ChowClass(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ChowClass":
        if isinstance(other, int):
            return ChowClass(self.space, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._require_same_space(other)
        dims = self.space.factor_dims
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                # product monomials in the truncation ideal are dropped here,
                # not at the end, so intermediates stay small
                if any(e > n for e, n in zip(mono, dims)):
                    continue
                acc[mono] = acc.get(mono, 0) + c1 * c2
        return ChowClass(self.space, acc)

    def __rmul__(self, other) -> "ChowClass":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "ChowClass":
        """Binary exponentiation over the truncated product; a**0 == 1."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers do not exist in the Chow ring")
        result = one(self.space)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- comparison and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    __hash__ = None  # mutable dict inside; classes are not hashable

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            factors = [
                f"h{i + 1}^{e}" if e > 1 else f"h{i + 1}"
                for i, e in enumerate(mono)
                if e
            ]
            parts.append("*".join([str(coeff)] + factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ChowClass({self.space}: {self})"


def zero(space: ProductSpace) -> ChowClass:
    return ChowClass(space, {})


def one(space: ProductSpace) -> ChowClass:
    """The multiplicative identity (empty monomial, coefficient 1)."""
    return ChowClass(space, {(0,) * space.nfactors: 1})


def hyperplane(space: ProductSpace, i: int) -> ChowClass:
    """The hyperplane class h_i of the i-th factor (1-based, matching h_1..h_k).

    In a P^0 factor the hyperplane class is already zero (h^1 = 0 when N = 0).
    """
    if not 1 <= i <= space.nfactors:
        raise ValueError(
            f"factor index {i} out of range 1..{space.nfactors}"
        )
    mono = tuple(1 if j == i - 1 else 0 for j in range(space.nfactors))
    return ChowClass(space, {mono: 1})
