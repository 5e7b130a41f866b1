"""The numerical chain-connectedness criterion and its relatives.

A variety in P^N cut out by m polynomials of degrees d_1..d_m is connected
by chains of at most l lines whenever l*(d_1+...+d_m) <= N*(l-1) + m.
This script walks through the criterion, the least admissible length, the
complete-intersection length formula, and the family showing the bound is
best possible.
"""

from chainlines import (
    DefiningData,
    ci_length,
    fano_index_ci,
    lx_dim_ci,
    min_chain_length,
    rc_criterion,
    sharpness_report,
    wa_bound,
)

cubic3fold = DefiningData((3,), 4)
print("cubic threefold in P^4:")
for l in (2, 3, 4):
    lhs = l * cubic3fold.total_degree
    rhs = cubic3fold.ambient * (l - 1) + cubic3fold.m
    print(f"  l={l}: {lhs} <= {rhs}?  {rc_criterion(cubic3fold, l)}")
print("  least length:", min_chain_length(cubic3fold))
print("  complete-intersection length formula:", ci_length(cubic3fold))
print("  Fano index:", fano_index_ci(cubic3fold),
      " dim of lines through a general point:", lx_dim_ci(cubic3fold))
print()

print("a cubic surface in P^3 is never in range (D >= N):")
print("  least length:", min_chain_length(DefiningData((3,), 3)))
print()

print("intersection of two quadrics in P^8:")
two_quadrics = DefiningData((2, 2), 8)
print("  least length:", min_chain_length(two_quadrics),
      " (conic-connected)")
print()

print("hypersurfaces of degree d <= N-1 connect at length N-1:")
for n in (4, 6, 9):
    row = [rc_criterion(DefiningData((d,), n), n - 1) for d in range(2, n)]
    print(f"  N={n}: {row}")
print()

print("sharpness: degree l+1 hypersurfaces in P^{l+2}")
for l in (2, 3, 4):
    rep = sharpness_report(l)
    print(f"  l={l}: criterion false at {l}, true at {l+1}; "
          f"chain locus dim <= {rep.locus_bound} < dim X = {rep.variety_dim} "
          f"(bound {wa_bound(rep.lines_dim, l)})")
