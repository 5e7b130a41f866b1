"""Numeric criteria for connecting points of a projective variety by lines.

A variety X in P^N cut out set-theoretically by m homogeneous polynomials of
degrees d_1, ..., d_m is rationally chain connected by chains of lines of
length at most l as soon as

    l * (d_1 + ... + d_m)  <=  N*(l - 1) + m.

Everything here is evaluated in exact integer arithmetic (the flagship
examples sit exactly on the equality, so floating point is banned).  The
functions below package that inequality together with the quantities that
accompany it: the least admissible chain length, the length formula for
smooth complete intersections, the Fano index, the dimension of the family
of lines through a general point, and the upper bound on the dimension of
the locus swept by length-l chains.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DefiningData:
    """Degrees of a defining system of homogeneous polynomials in P^N.

    For a complete intersection the number of polynomials m equals the
    codimension c and dim X = N - c; nothing here verifies smoothness,
    completeness of the intersection, or irreducibility.
    """

    degrees: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        degrees = tuple(int(d) for d in self.degrees)
        if len(degrees) < 1:
            raise ValueError("at least one defining polynomial is required")
        if any(d < 1 for d in degrees):
            raise ValueError(f"degrees must be >= 1: {degrees}")
        if self.ambient < 1:
            raise ValueError(f"ambient dimension must be >= 1: {self.ambient}")
        object.__setattr__(self, "degrees", degrees)

    @property
    def m(self) -> int:
        """Number of defining polynomials."""
        return len(self.degrees)

    @property
    def total_degree(self) -> int:
        """Sum of the defining degrees (written D below)."""
        return sum(self.degrees)


def _ceil_div(a: int, b: int) -> int:
    # exact ceiling for a >= 0, b >= 1; the preconditions upstream keep both
    # operands nonnegative, so no negative-operand ambiguity arises
    if a == 0:
        return 0
    return (a + b - 1) // b


def rc_criterion(data: DefiningData, length: int) -> bool:
    """True iff length-l chains of lines connect two general points.

    Evaluates l*D <= N*(l-1) + m by cross-multiplied integer comparison.
    Whenever it holds, D < N, so X is covered by lines; the one exception
    is N hyperplanes in P^N (D = m = N), which cut out a point.
    """
    if length < 2:
        raise ValueError(f"chain length must be >= 2: {length}")
    N, m, D = data.ambient, data.m, data.total_degree
    holds = length * D <= N * (length - 1) + m
    if holds:
        assert D < N or D == m == N
    return holds


def min_chain_length(data: DefiningData) -> int | None:
    """Least chain length for which the criterion holds, if any.

    Conventions: an all-linear system defines a projective subspace, whose
    two points always lie on one line, so the result is 1.  When D >= N the
    criterion fails for every length and None is returned (e.g. a cubic
    surface in P^3).  Otherwise the answer is max(2, ceil((N-m)/(N-D))).
    """
    N, m, D = data.ambient, data.m, data.total_degree
    if all(d == 1 for d in data.degrees):
        return 1
    if D >= N:
        return None
    length = max(2, _ceil_div(N - m, N - D))
    assert rc_criterion(data, length)
    assert length == 2 or not rc_criterion(data, length - 1)
    return length


def ci_length(data: DefiningData) -> int:
    """Length of a smooth complete intersection: ceil((N-c)/(N-sum d_i)).

    Here the number of polynomials is read as the codimension c.  Requires
    sum(d_i) <= N-1; smoothness is an assumption, not something checked.
    """
    N, m, D = data.ambient, data.m, data.total_degree
    if D > N - 1:
        raise ValueError(
            f"length formula requires total degree <= ambient-1 (D={D}, N={N})"
        )
    return _ceil_div(N - m, N - D)


def fano_index_ci(data: DefiningData) -> int:
    """Index N + 1 - sum(d_i) of a smooth Fano complete intersection."""
    N, D = data.ambient, data.total_degree
    if D > N:
        raise ValueError(f"index would not be positive (D={D}, N={N})")
    return N + 1 - D


def lx_dim_ci(data: DefiningData) -> int:
    """dim of the variety of lines through a general point: N - sum(d_i) - 1.

    Valid for complete intersections with sum(d_i) <= N-1.
    """
    N, D = data.ambient, data.total_degree
    if D > N - 1:
        raise ValueError(
            f"line-family dimension requires total degree <= ambient-1 (D={D}, N={N})"
        )
    return N - D - 1


def wa_bound(lx_dim: int, length: int) -> int:
    """Upper bound l*(dim L_x + 1) on the dimension of the length-l chain locus.

    At length 1 the bound is attained: the locus of lines through the point
    has dimension dim(L_x) + 1.
    """
    if lx_dim < 0:
        raise ValueError(f"line-family dimension must be >= 0: {lx_dim}")
    if length < 1:
        raise ValueError(f"length must be >= 1: {length}")
    return length * (lx_dim + 1)


@dataclass(frozen=True)
class SharpnessReport:
    """Why the criterion cannot be improved at a given length.

    For the degree-(l+1) hypersurface in P^{l+2} the criterion first holds at
    length l+1, and the chain-locus bound l*(dim L_x + 1) = l falls short of
    dim X = l+1, so no length-l chain connects two general points.
    """

    length: int
    degree: int
    ambient: int
    criterion_at_length: bool
    criterion_at_next: bool
    min_length: int
    lines_dim: int
    locus_bound: int
    variety_dim: int
    connected: bool


def sharpness_report(length: int) -> SharpnessReport:
    """Boundary family showing the criterion is best possible at each length."""
    if length < 2:
        raise ValueError(f"chain length must be >= 2: {length}")
    data = DefiningData((length + 1,), length + 2)
    lines_dim = lx_dim_ci(data)
    bound = wa_bound(lines_dim, length)
    variety_dim = data.ambient - 1
    return SharpnessReport(
        length=length,
        degree=length + 1,
        ambient=length + 2,
        criterion_at_length=rc_criterion(data, length),
        criterion_at_next=rc_criterion(data, length + 1),
        min_length=min_chain_length(data),
        lines_dim=lines_dim,
        locus_bound=bound,
        variety_dim=variety_dim,
        connected=bound >= variety_dim,
    )
