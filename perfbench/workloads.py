"""Seeded query lists for the four workloads, and the varieties they read.

A workload is a list of *slots*.  Each slot holds one or more candidate
queries of about the same cost; the run seed picks one candidate per slot and
shuffles the slot order.  So every seed sends different inputs, yet the cost
of a pass barely depends on the seed, and the union of all candidates is a
finite pool whose reference outputs can be stored (see ``digests.json``).

Variety files are written by this module in the documented text format, and
query points come from its own small evaluator, never from the package.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("sym_count", "sym_class", "fp_explore", "fp_query")


@dataclass(frozen=True)
class Query:
    """One CLI call; an argument ``@name`` stands for the variety file ``name``."""

    argv: tuple[str, ...]
    rung: str | None = None  # per-layer rung metric this query is timed into

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# -- varieties and the independent evaluator -------------------------------------

@dataclass(frozen=True)
class Variety:
    name: str
    family: str  # quadric, fermat, fermat3fold, hyperplane or random
    p: int
    ambient: int
    polys: tuple  # ((degree, ((coeff, exponents), ...)), ...)

    def text(self) -> str:
        out = [f"# {self.family} over F_{self.p}", f"field {self.p}", f"ambient {self.ambient}"]
        for degree, terms in self.polys:
            groups = " ; ".join(
                f"{c} " + " ".join(map(str, e)) for c, e in terms
            )
            out.append(f"poly {degree} : {groups}")
        return "\n".join(out) + "\n"

    def on(self, pt) -> bool:
        p = self.p
        for _, terms in self.polys:
            total = 0
            for c, exps in terms:
                v = c
                for x, e in zip(pt, exps):
                    if e:
                        v = v * pow(x, e, p)
                total += v
            if total % p:
                return False
        return True

    def points(self) -> list[tuple[int, ...]]:
        """All points of X(F_p), first nonzero coordinate 1, in sorted order."""
        n, p = self.ambient, self.p
        reps = (
            (0,) * lead + (1,) + tail
            for lead in range(n + 1)
            for tail in itertools.product(range(p), repeat=n - lead)
        )
        return sorted(pt for pt in reps if self.on(pt))

    def joined(self, x, y) -> bool:
        """Whether the line xy lies on X, by evaluating at its p+1 points.

        A binary form of degree d < p+1 that vanishes at p+1 points is zero,
        so this is exact for every variety built here (degree < p).
        """
        p = self.p
        if not self.on(y):
            return False
        return all(
            self.on(tuple((a + t * b) % p for a, b in zip(x, y))) for t in range(1, p)
        )


def _poly(degree, terms):
    return ((degree, tuple(terms)),)


def _unit(n, i, e):
    return tuple(e if j == i else 0 for j in range(n + 1))


def split_quadric(p):
    return Variety(f"quadric{p}", "quadric", p, 3,
                   _poly(2, [(1, (1, 0, 0, 1)), (p - 1, (0, 1, 1, 0))]))


def fermat(p, ambient=3):
    name = f"fermat{p}" if ambient == 3 else f"fermat3fold{p}"
    family = "fermat" if ambient == 3 else "fermat3fold"
    return Variety(name, family, p, ambient,
                   _poly(3, [(1, _unit(ambient, i, 3)) for i in range(ambient + 1)]))


def hyperplane(p, ambient=4):
    return Variety(f"hyperplane{p}", "hyperplane", p, ambient,
                   _poly(1, [(1, _unit(ambient, 0, 1))]))


def random_cubic_surfaces(p, count, points, terms=10):
    """``count`` seeded random cubic surfaces over F_p, alike in cost.

    Each has ``terms`` monomials, exactly ``points`` points and no line, so
    the n^2 graph work and the containment checks of every surface match and
    the surfaces a seed picks hardly move the time of a pass.
    """
    rng = random.Random(f"random-cubic-surfaces-{p}")
    monomials = [e for e in itertools.product(range(4), repeat=4) if sum(e) == 3]
    found = []
    while len(found) < count:
        chosen = rng.sample(monomials, terms)
        v = Variety(f"random{p}_{len(found)}", "random", p, 3,
                    _poly(3, [(rng.randrange(1, p), e) for e in chosen]))
        pts = v.points()
        if len(pts) == points and not any(
            v.joined(x, y) for x, y in itertools.combinations(pts, 2)
        ):
            found.append(v)
    return found


# -- workloads ---------------------------------------------------------------------

def _deg(degrees) -> str:
    return ",".join(map(str, degrees))


def _count(degrees, n, l, rung=None):
    return Query(("count", "--degrees", _deg(degrees), "--ambient", str(n),
                  "--length", str(l), "--machine"), rung)


def _class(degrees, n, l, mode, rung=None):
    return Query(("class", "--degrees", _deg(degrees), "--ambient", str(n),
                  "--length", str(l), "--mode", mode, "--machine"), rung)


def _partitions(total, parts, least=2):
    """Nondecreasing tuples of ``parts`` integers >= least summing to ``total``."""
    if parts == 1:
        return [(total,)] if total >= least else []
    return [
        (first,) + rest
        for first in range(least, total // parts + 1)
        for rest in _partitions(total - first, parts - 1, first)
    ]


LIGHT_DEGREES = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 3), (2, 4),
                 (2, 2, 2), (2, 2, 3), (3, 3, 3)]
LIGHT_AMBIENT = range(3, 11)
LIGHT_LENGTH = range(2, 6)


def _light_pools():
    """Degree-data queries costing a few ms each; some exit 1, some exit 2."""
    def cmd(name, degrees, n, l=None):
        argv = (name, "--degrees", _deg(degrees), "--ambient", str(n))
        if l is not None:
            argv += ("--length", str(l))
        return Query(argv + ("--machine",))

    grid = list(itertools.product(LIGHT_DEGREES, LIGHT_AMBIENT))
    errors = [  # every one of these must exit 2
        _count(d, n, l)
        for d in LIGHT_DEGREES[:6] for n in (4, 6, 8) for l in (3, 4)
        if n * (l - 1) != l * sum(d) - len(d)
    ] + [
        Query(("check", "--degrees", "3,x", "--ambient", "4", "--length", "3", "--machine")),
        Query(("check", "--degrees", "3", "--ambient", "4", "--length", "1", "--machine")),
        Query(("count", "--degrees", "3", "--ambient", "4", "--machine")),
        Query(("minlength", "--degrees", "0", "--ambient", "4", "--machine")),
        Query(("sharpness", "--length", "1", "--machine")),
    ]
    return {
        "check": [cmd("check", d, n, l) for d, n in grid for l in LIGHT_LENGTH],
        "witness": [cmd("witness", d, n, l) for d, n in grid for l in LIGHT_LENGTH],
        "minlength": [cmd("minlength", d, n) for d, n in grid],
        "cilength": [cmd("cilength", d, n) for d, n in grid],
        "sharpness": [Query(("sharpness", "--length", str(l), "--machine"))
                      for l in range(2, 18)],
        "error": errors,
    }


LIGHT_MIX = {"check": 30, "witness": 20, "minlength": 15, "cilength": 15,
             "sharpness": 8, "error": 12}

# zero-expected-dimension strata (m, D, N) at l = 3: 2N = 3D - m.  The seed
# picks how D splits into m degrees; at l = 3 that leaves the cost unchanged
# (longer chains are not: (2,12) and (7,7) at N=16, l=7 differ six-fold)
COUNT_STRATA = [(2, 8, 11), (2, 10, 14), (2, 12, 17), (2, 14, 20), (2, 16, 23),
                (2, 18, 26), (3, 9, 12), (3, 11, 15)]

# A tail taken from one query is at the mercy of one noisy sample, so a
# query about as dear as the one at rank 11 is sent PLATEAU times to take
# ranks 9-13: the tail is then the middle of five like samples.
PLATEAU = 5

# fixed counts (d, N, l) between the ladders' rungs; eight queries of a pass
# cost more than (21,) N=26 l=5, the plateau
COUNT_LADDER_EXTRA = [(29, 36, 5), (21, 25, 6)] + [(21, 26, 5)] * PLATEAU


def sym_count_slots():
    slots = []
    # ladder along l: (d,) in P^{d+1} at l = d; (3,) N=4 l=3 is the 180 count
    for d in range(3, 12):
        slots.append([_count((d,), d + 1, d, f"rung.count.l{d}" if d >= 8 else None)])
    # ladder along N at l = 7
    for d, n in ((13, 15), (19, 22), (25, 29)):
        slots.append([_count((d,), n, 7, f"rung.count.N{n}" if n >= 22 else None)])
    slots += [[_count((d,), n, l)] for d, n, l in COUNT_LADDER_EXTRA]
    for m, total, n in COUNT_STRATA:
        slots.append([_count(ds, n, 3) for ds in _partitions(total, m)])
    pools = _light_pools()
    for kind, k in LIGHT_MIX.items():
        slots += [pools[kind]] * k
    return slots


# (degrees, N, l, mode), 4.9 s down to 12 ms at the seed; eight queries of a
# pass cost more than (6,) N=20 l=6 counting, the plateau
CLASS_FIXED = (
    [((5, 5), 40, 7, "counting"), ((5, 5), 40, 7, "existence"),
     ((5, 5), 40, 6, "counting"), ((4, 4), 30, 6, "counting")]
    + [((3, 3), 20, 7, "counting")] * 3 + [((5, 5), 40, 6, "existence")]
    + [((6,), 20, 6, "counting")] * PLATEAU
    + [((3, 3), 20, 7, "existence"), ((3, 3), 20, 6, "counting"),
       ((6,), 20, 6, "existence"), ((5, 5), 40, 5, "existence"),
       ((4, 4), 30, 5, "counting")]
)


def sym_class_slots():
    """Fixed classes, then cheap ones whose degree split the seed picks.

    Only the cheap classes are seeded: for larger ones the split changes the
    cost (see COUNT_STRATA).
    """
    slots = [
        [_class(ds, n, l, mode, f"rung.class.l{l}" if (n, l, mode) in (
            (40, 6, "counting"), (40, 7, "counting")) else None)]
        for ds, n, l, mode in CLASS_FIXED
    ]
    for total, n, l, mode in ((6, 12, 3, "counting"), (6, 12, 4, "existence"),
                              (8, 20, 3, "counting"), (8, 20, 3, "existence")):
        slots.append([_class(ds, n, l, mode) for ds in _partitions(total, 2)])
    return slots


EXPLORE_FAMILIES = (
    [split_quadric(p) for p in (5, 7, 11, 13, 17)]
    + [fermat(p) for p in (2, 5, 11)]  # p = 2 mod 3: sparse, disconnected
    + [fermat(7)]  # p = 1 mod 3: all 27 lines rational
    + [hyperplane(p) for p in (2, 3, 5)]  # P^3 inside P^4: every pair adjacent
)
RANDOM_SURFACES = 24
RANDOM_PER_PASS = 12  # with quadric7, about as dear, ranks 7-19 around the tail


def _explore(v, rung):
    return Query(("explore", "--variety", "@" + v.name, "--max-length", "3", "--machine"), rung)


def fp_explore_slots(varieties):
    slots = [[_explore(v, f"rung.explore.{v.name}")] for v in EXPLORE_FAMILIES]
    randoms = [v for v in varieties if v.family == "random"]
    slots += [[_explore(v, "rung.explore.random7") for v in randoms]] * RANDOM_PER_PASS
    return slots


def _point(x) -> str:
    return ":".join(map(str, x))


QUERY_FAMILIES = (split_quadric(23), split_quadric(31), fermat(7, ambient=4), fermat(11))
POOL_POINTS = 16


def fp_query_slots(varieties):
    """Single-point queries on pooled points drawn by the own evaluator.

    Chains join a point to a point on a contained line through it (found at
    the first BFS step), or start at a point with no line (exit 1), or ask
    for one step between unrelated points; longer searches would make a
    pass's cost depend on which pair the seed picked.
    """
    slots = []
    for v in varieties:
        pts = v.points()
        pool = random.Random(f"points-{v.name}").sample(pts, POOL_POINTS)
        rng = random.Random(f"partners-{v.name}")
        at = "@" + v.name
        rung = f"rung.query.{v.name}"

        def q(*argv):
            return Query(argv + ("--machine",), rung)

        lines = [q("lines", "--variety", at, "--point", _point(x)) for x in pool]

        def locus(l):
            return [q("locus", "--variety", at, "--point", _point(x), "--length", str(l))
                    for x in pool]

        def chain(pairs, max_length):
            return [q("chain", "--variety", at, "--from", _point(x), "--to", _point(y),
                      "--max-length", str(max_length)) for x, y in pairs]

        adjacent = []
        lineless = []
        for x in pool:
            partners = [y for y in pts if y != x and v.joined(x, y)]
            if partners:
                adjacent += [(x, y) for y in rng.sample(partners, min(2, len(partners)))]
            else:
                lineless.append(x)
        # six queries of a pass cost more than the nine quadric31 chains and
        # loci (the full locus and the quadric sweeps), so those nine, about
        # as dear as each other, take ranks 7-15, around the tail (rank 11)
        if v.family == "quadric" and v.p < 29:
            slots += [lines] * 3 + [locus(2)] + [chain(adjacent, 3)] * 3
        elif v.family == "quadric":
            slots += [lines] * 2 + [locus(1)] * 2 + [chain(adjacent, 3)] * 7
        elif v.family == "fermat3fold":
            apart = list(itertools.permutations(pool, 2))
            slots += ([lines] * 4 + [locus(1)] * 4 + [chain(adjacent, 3)] * 3
                      + [chain(apart, 1)] * 3)
        else:  # Fermat surface, p = 2 mod 3: most points lie on no line
            starts = [(x, y) for x in lineless for y in pool if y != x]
            slots += [lines] * 6 + [chain(starts, 3)] * 4 + [locus(1)] * 2
    return slots


def varieties_for(workload: str) -> list[Variety]:
    if workload == "fp_explore":
        return list(EXPLORE_FAMILIES) + random_cubic_surfaces(7, RANDOM_SURFACES, 57)
    if workload == "fp_query":
        return list(QUERY_FAMILIES)
    return []


def slots_for(workload: str, varieties: list[Variety]):
    if workload == "sym_count":
        return sym_count_slots()
    if workload == "sym_class":
        return sym_class_slots()
    if workload == "fp_explore":
        return fp_explore_slots(varieties)
    if workload == "fp_query":
        return fp_query_slots(varieties)
    raise ValueError(f"unknown workload {workload!r}")


def select(slots, seed: int) -> list[Query]:
    """One pass: a candidate per slot, in a seeded order."""
    rng = random.Random(seed)
    chosen = [rng.choice(cands) for cands in slots]
    rng.shuffle(chosen)
    return chosen


def pool(slots) -> list[Query]:
    """Every query any seed can send, each once, in a stable order."""
    seen = {}
    for cands in slots:
        for q in cands:
            seen.setdefault(q.key, q)
    return list(seen.values())


RUNGS = (
    [f"rung.count.l{d}" for d in range(8, 12)] + ["rung.count.N22", "rung.count.N29"]
    + ["rung.class.l6", "rung.class.l7"]
    + [f"rung.explore.{v.name}" for v in EXPLORE_FAMILIES] + ["rung.explore.random7"]
    + [f"rung.query.{v.name}" for v in QUERY_FAMILIES]
)

# the first call after import, timed as part of set-up
_SYM_WARMUP = ("check", "--degrees", "3", "--ambient", "4", "--length", "3", "--machine")
_FP_WARMUP = ("lines", "--variety", "@fermat11", "--point", "0:0:1:10", "--machine")
WARMUP = {"sym_count": _SYM_WARMUP, "sym_class": _SYM_WARMUP,
          "fp_explore": _FP_WARMUP, "fp_query": _FP_WARMUP}
