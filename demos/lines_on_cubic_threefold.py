"""Lines through single points of the Fermat cubic threefold over F_101.

For a cubic threefold in P^4 the lines through a general point form the
local model L_a of dimension N - D - 1 = 0: finitely many (six over C).  At
special points L_a is larger.  At a = 1:100:0:0:0 (x0 = -x1, the other
coordinates 0) the gradient is (3, 3, 0, 0, 0), so L_a is v_1 = 0,
v_2^3 + v_3^3 + v_4^3 = 0: a plane cubic curve, with p + 1 = 102 rational
points because 101 = 2 mod 3, hence 102 rational lines through a.

Each answer comes from one solve of L_a (a few thousand directions).
X(F_101) is never enumerated: its ambient P^4 has 101^4 > 10^8 points,
more than the enumeration budget allows.
"""

from chainlines import (
    DefiningData,
    HomogPoly,
    PrimeField,
    VarietySpec,
    format_point,
    line_points,
    lines_through,
    lx_dim_ci,
    on_variety,
)

p = 101
exps = [tuple(3 if j == i else 0 for j in range(5)) for i in range(5)]
spec = VarietySpec(PrimeField(p), 4, (HomogPoly(3, tuple((1, e) for e in exps)),))
print("x0^3 + x1^3 + x2^3 + x3^3 + x4^3 = 0 in P^4 over F_101")
print("dim L_a at a general point:", lx_dim_ci(DefiningData((3,), 4)))
print()

for a in ((1, 100, 0, 0, 0), (1, 100, 1, 100, 0)):
    found = sorted(lines_through(spec, a), key=lambda ln: ln.basis)
    # each line holds a and lies on X: the cubic restricted to a line is a
    # binary cubic form, and a nonzero one has at most 3 zeros on P^1, so
    # vanishing at all p + 1 = 102 points of the line (p = 101 > d = 3)
    # means it is zero
    for ln in found:
        pts = line_points(ln, spec.field)
        assert a in pts and all(on_variety(spec, q) for q in pts)
    print(f"{len(found)} lines through {format_point(a)}:")
    for line in found[:4]:
        print(f"  span({format_point(line.basis[0])}, {format_point(line.basis[1])})")
    if len(found) > 4:
        print(f"  ... and {len(found) - 4} more")
    print()
