"""Classes in the Chow ring of a product of projective spaces, as values.

The intersection ring of P^{N_1} x ... x P^{N_k} is the integer polynomial
ring Z[h_1, ..., h_k] modulo the relations h_i^{N_i+1} = 0, where h_i is the
hyperplane class pulled back from the i-th factor.  A class is stored
sparsely: a mapping from exponent tuples to nonzero integer coefficients,
Python ints of any size.  Any monomial with some exponent above its factor
dimension lies in the truncation ideal and is left out.  The module does no
ring arithmetic: the chain classes are listed term by term from their
blocks (chains), and a class is a value to compare, collect and render.
The product of the condition classes in the truncated ring is kept in the
tests, as the oracle those listings are checked against.

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
    truncation bounds; the constructor drops those and refuses monomials
    of the wrong length or with a negative exponent.  Classes need not be
    homogeneous.  Instances are treated as immutable.
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
    is imported only past that limit, so that ``count`` and ``class`` on
    smaller coefficients never load it.
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
