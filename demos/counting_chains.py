"""Counting chains of lines on a cubic threefold: the number 180.

At the boundary of the criterion the expected dimension of the chain system
is zero, so the conditions cut out finitely many chains and their number is
an intersection number.  For the cubic threefold in P^4 and length 3 the
conditions are: three classes h1, 2h1, 3h1 carving the cone of lines
through x, three classes h2, 2h2, 3h2 for the cone through y, and two mixed
classes 2h1+h2, h1+2h2 tying the intermediate points together.  Their
product is (3!)^2 h1^3 h2^3 times 2h1^2 + 5h1h2 + 2h2^2, and only the middle
term reaches h1^4 h2^4: 36 * 5 = 180.
"""

from chainlines import (
    ChainProblem,
    DefiningData,
    chain_count,
    condition_tally,
    counting_class,
    existence_class,
    expected_dimension,
    witness_exponents,
    witness_monomial,
)

problem = ChainProblem(DefiningData((3,), 4), 3)
print("cubic threefold in P^4, chains of length 3")
print("working space:", problem.space)
print("expected dimension:", expected_dimension(problem))
print()

tally = condition_tally(problem)
print(f"conditions: {tally.endpoint_x} on p^1, {tally.endpoint_y} on p^2, "
      f"{tally.mixed_per_pair} mixed; total {tally.total()}")

print("counting class:", counting_class(problem))
print("chains through two general points:", chain_count(problem))
print()

print("the coefficient-free existence class already certifies a chain:")
print("  ", existence_class(problem), "(nonzero)")
w = witness_monomial(problem)
print("  witness exponents", witness_exponents(problem),
      "-> surviving monomial", w.exponents, "fits:", w.fits)
print()

print("two more boundary cases:")
for degrees, n, l in (((2,), 3, 2), ((3,), 5, 2)):
    p = ChainProblem(DefiningData(degrees, n), l)
    print(f"  degrees={degrees} in P^{n}, length {l}: "
          f"class {counting_class(p)}, count {chain_count(p)}")
print()
print("note: counts are intersection numbers; chains are counted with")
print("multiplicity and assume generic defining polynomials.")
