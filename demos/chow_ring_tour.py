"""A tour of the truncated intersection ring.

Classes on a product of projective spaces multiply like integer polynomials
in the hyperplane classes h1, ..., hk, except that h_i^(N_i+1) = 0.  The
top coefficient of a zero-dimensional class is an intersection number.
"""

from chainlines import ChowClass, ProductSpace, hyperplane, one

space = ProductSpace((4, 4))  # P^4 x P^4
h1, h2 = hyperplane(space, 1), hyperplane(space, 2)

print("working in", space)
print()

print("sums and products are exact:")
print("  (2h1 + h2)(h1 + 2h2) =", (2 * h1 + h2) * (h1 + 2 * h2))
print("  (h1 + h2)^2          =", (h1 + h2) * (h1 + h2))
print()

print("truncation kills overflowing exponents:")
print("  h1^4 * h1 =", h1 * h1 * h1 * h1 * h1)
print("  in P^1 x P^1, (h1+h2)^2 =", end=" ")
small = ProductSpace((1, 1))
g = hyperplane(small, 1) + hyperplane(small, 2)
print(g * g)
print()

print("an intersection number is a top coefficient:")
cls = ChowClass(space, {(4, 4): 180})
print(f"  top_coefficient({cls}) =", cls.top_coefficient())
print()

print("coefficients never overflow (Python ints are exact):")
big = ProductSpace((20, 20))
s = hyperplane(big, 1) + hyperplane(big, 2)
s40 = one(big)
for _ in range(40):
    s40 = s40 * s
print("  central coefficient of (h1+h2)^40 in (P^20)^2:", s40.coefficient((20, 20)))
print()

print("identity and zero behave as expected:")
print("  1 * h1 =", one(space) * h1)
print("  h1 - h1 =", h1 - h1)
