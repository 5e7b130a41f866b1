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
``str`` writes it term by term.  ``render`` writes it from terms in groups
that share a head, each group a run of entries that each add one
exponent, with the text of every head, entry and tail ready-made, as the
chain walk (``chains._walk``) makes that text as it sets each exponent.
An entry's text below its head depends only on its coefficient and its
leaves, so ``render`` makes each such body once and keeps it, up to
BODY_CACHE_CHARS characters, for the later entries with the same
coefficient and leaves.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from operator import gt

Monomial = tuple[int, ...]


class ProductSpace(namedtuple("ProductSpace", "factor_dims")):
    """A product of projective spaces, recorded by its factor dimensions."""

    __slots__ = ()

    def __new__(cls, factor_dims: tuple[int, ...]):
        dims = tuple(int(n) for n in factor_dims)
        if len(dims) < 1:
            raise ValueError("a product space needs at least one factor")
        if any(n < 0 for n in dims):
            raise ValueError(f"factor dimensions must be nonnegative: {dims}")
        return super().__new__(cls, dims)

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

    @classmethod
    def from_normal_form(cls, space: ProductSpace, terms: dict[Monomial, int]) -> "ChowClass":
        """Wrap terms already in normal form, without checking or copying them.

        For producers that build only valid terms (tuples of the right
        length, within the truncation bounds, nonzero coefficients).
        """
        self = object.__new__(cls)
        self.space = space
        self.terms = terms
        return self

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

    # -- comparison and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    __hash__ = None  # mutable dict inside; classes are not hashable

    def __str__(self) -> str:
        # the rendering contract term by term, apart from render: the tests
        # check the two against each other
        return " + ".join(f"{int_text(c)}{_exponents_text(m, 1)}"
                          for m, c in sorted(self.terms.items(), reverse=True)) or "0"

    def __repr__(self) -> str:
        return f"ChowClass({self.space}: {self})"


def int_text(n: int) -> str:
    """The decimal digits of n, exact at any size.

    ``str(int)`` refuses more than ``sys.get_int_max_str_digits()`` digits
    (4,300 by default); ``Decimal`` converts without that limit.  decimal
    is imported only here, so that importing the package does not load it.
    """
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def _factor_text(k: int, e: int) -> str:
    """``*h<k>^<e>``, without ``^1``, and empty for e = 0."""
    return f"*h{k}^{e}" if e > 1 else f"*h{k}" if e else ""


def _exponents_text(exps: Monomial, first: int) -> str:
    """The factors ``*h<k>^<e>`` for exponents ``exps`` of h_first, h_first+1, ..."""
    return "".join([_factor_text(k, e) for k, e in enumerate(exps, first)])


# (tails, weights, seams); a run, entries (mid, mid text, weight, leaves);
# and a group (head, head text, coeff, run): for each entry, the terms
# head + mid + tails[i] with coefficients coeff * weight * weights[i].  The
# seams are the texts around the coefficients, seams[i] before the i-th
# and seams[-1] after the last, as _seams writes them
Leaves = tuple[Sequence[Monomial], Sequence[int], Sequence[str]]
Run = Sequence[tuple[Monomial, str, int, Leaves]]
Group = tuple[Monomial, str, int, Run]


def _seams(tails: Sequence[Monomial], first: int) -> list[str]:
    """The seams of tails that are exponents of h_first, h_first+1, ...: "",
    then each tail's factors and " + " before the next coefficient, and the
    last tail's factors at the end."""
    texts = [_exponents_text(tail, first) for tail in tails]
    return [""] + [text + " + " for text in texts[:-1]] + texts[-1:]


# characters of entry bodies that one render call keeps for reuse, each part
# counted with PART_CHARS more for its str object and list slot; past the cap
# the kept bodies are dropped and the count starts again
BODY_CACHE_CHARS = 10**6
PART_CHARS = 64


def _body(coeff: int, leaves: Leaves) -> list[str]:
    """An entry's text cut at its head's text: ``[c_1, tail_1 + " + " + c_2,
    ..., tail_k]``, with ``c_i`` the digits of ``coeff * weights[i]``.  One
    f-string per term."""
    _, weights, seams = leaves
    try:
        parts = [f"{seam}{coeff * weight}" for seam, weight in zip(seams, weights)]
    except ValueError:  # a coefficient beyond str's digit limit
        parts = [seam + int_text(coeff * weight) for seam, weight in zip(seams, weights)]
    parts.append(seams[-1])
    return parts


def render(groups: Iterable[Group]) -> Iterator[str]:
    """The rendering contract (module docstring) as a stream of text chunks.

    ``groups`` yields ``(head, head_text, coeff, run)`` in render order, and
    each run at least one entry ``(mid, mid_text, weight, leaves)`` with at
    least one leaf.  The texts come ready-made, and the exponents are not
    read.  An entry's text is its body (``_body`` of ``coeff * weight`` and
    the leaves) joined by ``head_text + mid_text``.  The body is kept under
    the key ``(coeff * weight, id(leaves))``, and a later entry with that
    key is one join: a chain walk hands every entry with the same
    ``a_{l-2}`` the same leaves.  Each kept body holds its leaves, so no id
    is reused while its key is kept, and the leaves are never hashed.  The
    kept bodies hold at most BODY_CACHE_CHARS characters, PART_CHARS more
    per part; the leaves they hold, the walk holds anyway.  Making a body
    takes one f-string per term, whether it is kept or not.  One chunk per
    entry, never one per run, so no chunk holds more than one body's text.
    """
    bodies: dict[tuple[int, int], tuple[Leaves, list[str]]] = {}
    room = BODY_CACHE_CHARS
    sep = ""
    for _, head, coeff, run in groups:
        for _, mid, weight, leaves in run:
            prefix = head + mid
            key = coeff * weight, id(leaves)
            kept = bodies.get(key)
            if kept is None:
                parts = _body(key[0], leaves)
                text = prefix.join(parts)
                size = len(text) - len(prefix) * (len(parts) - 1) + PART_CHARS * len(parts)
                if size > room:
                    bodies.clear()
                    room = BODY_CACHE_CHARS
                if size <= room:
                    bodies[key] = leaves, parts
                    room -= size
            else:
                text = prefix.join(kept[1])
            yield sep + text
            sep = " + "
    if not sep:
        yield "0"


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
