"""Cubic surfaces and the limits of finite-field evidence.

A cubic surface in P^3 has D = 3 >= N = 3, so the chain criterion fails at
every length: general points are NOT connected by chains of lines (a cubic
surface contains only 27 lines, and a general point lies on none of them).

Over a finite field the picture depends on the prime in a way worth seeing.
For p = 2 (mod 3) only 3 of the Fermat cubic's 27 lines are rational and
most rational points lie on no line at all -- the graph of line-chains is
mostly isolated vertices, exactly the characteristic-zero intuition.  For
p = 1 (mod 3) all 27 lines are rational, and over F_7 their union swallows
every single rational point (81 double points and 18 triple points -- the
Eckardt points -- account for all 27*8 = 216 incidences), so the rational
chain graph is connected even though X itself is not chain connected.
Finite-field reachability is evidence about F_p-points only.
"""

from collections import Counter

from chainlines import (
    DefiningData,
    chain_search,
    connectivity_report,
    enumerate_points,
    fermat_cubic,
    format_point,
    lines_through,
    min_chain_length,
)

print("symbolic verdict for degrees (3,) in P^3:",
      min_chain_length(DefiningData((3,), 3)), "(no admissible length)")
print()

for p in (5, 7):
    spec = fermat_cubic(p)
    points = sorted(enumerate_points(spec))
    census = Counter(len(lines_through(spec, pt)) for pt in points)
    report = connectivity_report(spec, 5)
    print(f"Fermat cubic over F_{p}: {len(points)} points")
    print(f"  lines-through-point histogram: {dict(sorted(census.items()))}")
    print(f"  pair connectivity by length: "
          f"{ {l: str(f) for l, f in sorted(report.fractions.items())} }")

print()
spec5 = fermat_cubic(5)
isolated = next(
    pt for pt in sorted(enumerate_points(spec5)) if not lines_through(spec5, pt)
)
target = next(pt for pt in sorted(enumerate_points(spec5)) if pt != isolated)
print(f"over F_5 the point {format_point(isolated)} lies on no line;")
print(f"chain search {format_point(isolated)} -> {format_point(target)} "
      f"(max length 5):", chain_search(spec5, isolated, target, 5))
