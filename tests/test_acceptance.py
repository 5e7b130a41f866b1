"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criterion 8 pins an expectation about the Fermat cubic over
F_7 (isolated points, connectivity fractions below 1) that turns out to be
mathematically false over that particular prime; it is kept as stated and
fails honestly rather than being quietly retargeted at a prime where the
behavior holds (such as F_5, covered in test_finite_geometry.py).  The
failure message carries the full analysis.
"""

import itertools
import math
import random
import time

from chainlines.chains import (
    ChainProblem,
    chain_count,
    existence_class,
    expected_dimension,
    witness_exponents,
    witness_monomial,
)
from chainlines.cli import main
from chainlines.criteria import (
    DefiningData,
    ci_length,
    min_chain_length,
    rc_criterion,
    sharpness_report,
    wa_bound,
)
from chainlines.finite_geometry import (
    connectivity_report,
    enumerate_points,
    fermat_cubic,
    lines_through,
    split_quadric,
)

import naive_poly
from test_finite_geometry import pairwise_neighbors
from truncated_ring import condition_factors, truncated_product


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_golden_count(capsys):
    start = time.perf_counter()
    code = main(
        ["count", "--degrees", "3", "--ambient", "4", "--length", "3", "--machine"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    count_ok = code == 0 and "count=180" in out.splitlines()

    blocks = condition_factors((3,), 3)
    pure = truncated_product(blocks["x_side"] + blocks["y_side"], (4, 4))
    mixed = truncated_product(blocks["mixed"], (4, 4))
    pure_ok = pure == {(3, 3): 36}
    mixed_ok = mixed == {(2, 0): 2, (1, 1): 5, (0, 2): 2}

    ok = count_ok and pure_ok and mixed_ok and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"count=180 via CLI in {elapsed:.3f}s; "
                      f"pure block 36*h1^3*h2^3, mixed block 2*h1^2+5*h1*h2+2*h2^2")
    assert count_ok, out
    assert pure_ok, pure
    assert mixed_ok, mixed
    assert elapsed < 1.0


def test_criterion_2_nonvanishing_grid():
    start = time.perf_counter()
    instances = 0
    failures = []
    for m in (1, 2, 3):
        for degrees in itertools.combinations_with_replacement(range(1, 6), m):
            for n in range(2, 11):
                data = DefiningData(degrees, n)
                for l in range(2, 7):
                    if not rc_criterion(data, l):
                        continue
                    instances += 1
                    problem = ChainProblem(data, l)
                    D = data.total_degree
                    jbar = witness_exponents(problem)
                    witness = witness_monomial(problem)
                    # the three exponent checks from the nonvanishing argument
                    if l == 2:
                        bounds = [2 * D - data.m <= n]
                    else:
                        bounds = [D + jbar[0] <= n]
                        bounds += [
                            D - jbar[k - 2] + jbar[k - 1] <= n
                            for k in range(2, l - 1)
                        ]
                        bounds += [2 * D - data.m - jbar[-1] <= n]
                    if not (
                        existence_class(problem).terms
                        and witness.fits
                        and all(bounds)
                    ):
                        failures.append((degrees, n, l))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0 and instances > 0
    report(2, ok, f"{instances} criterion-true grid instances, "
                  f"{len(failures)} counterexamples, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 120.0


def test_criterion_3_ring_oracle_equivalence():
    rng = random.Random(20250814)
    checked = 0
    for _ in range(220):
        k = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 5) for _ in range(k))
        factor_dicts = []
        for _ in range(rng.randint(1, 6)):
            terms = {(0,) * k: rng.randint(-3, 3)}
            for i in range(k):
                mono = tuple(1 if j == i else 0 for j in range(k))
                terms[mono] = rng.randint(-3, 3)
            factor_dicts.append({m: c for m, c in terms.items() if c})
        truncated = truncated_product(factor_dicts, dims)
        reference = naive_poly.truncate(naive_poly.product(factor_dicts, k), dims)
        assert truncated == reference
        checked += 1
    ok = checked >= 200
    report(3, ok, f"{checked} random factor products match the naive expansion")
    assert ok


def test_criterion_4_sharpness_family():
    ok = True
    for l in range(2, 9):
        data = DefiningData((l + 1,), l + 2)
        rep = sharpness_report(l)
        ok = ok and min_chain_length(data) == l + 1
        ok = ok and not rc_criterion(data, l)
        ok = ok and wa_bound(0, l) == l < l + 1 == rep.variety_dim
        ok = ok and not rep.connected
    report(4, ok, "degree l+1 hypersurface in P^{l+2} for l = 2..8: "
                  "criterion first true at l+1, locus bound l < dim l+1")
    assert ok


def test_criterion_5_formula_agreement():
    mismatches = []
    checked = 0
    for m in range(1, 5):
        for degrees in itertools.combinations_with_replacement(range(1, 9), m):
            if not any(d >= 2 for d in degrees):
                continue
            for n in range(2, 21):
                data = DefiningData(degrees, n)
                if data.total_degree > n - 1:
                    continue
                checked += 1
                if ci_length(data) != min_chain_length(data):
                    mismatches.append((degrees, n))
    ok = not mismatches and checked > 0
    report(5, ok, f"{checked} complete-intersection instances, "
                  f"{len(mismatches)} mismatches")
    assert not mismatches, mismatches[:5]


def test_criterion_6_hypersurface_length_bound():
    ok = True
    checked = 0
    for n in range(3, 21):
        for d in range(2, n):
            checked += 1
            ok = ok and rc_criterion(DefiningData((d,), n), n - 1)
    report(6, ok, f"degree-d hypersurfaces connect at length N-1 "
                  f"for all 2 <= d <= N-1 <= 19 ({checked} cases)")
    assert ok


def test_criterion_7_quadric_over_f5():
    start = time.perf_counter()
    spec = split_quadric(5)
    points = sorted(enumerate_points(spec))
    count_ok = len(points) == 36
    lines_ok = all(len(lines_through(spec, pt)) == 2 for pt in points)

    pair_ok = connectivity_report(spec, 2).fractions[2] == 1

    symbolic = chain_count(ChainProblem(DefiningData((2,), 3), 2))
    chains_ok = symbolic == 2
    # the middle points from the pairwise oracle: each pair of points joined
    # and its line restricted to the quadric symbolically
    oracle = pairwise_neighbors(spec)
    checked_pairs = 0
    for x in points:
        nbrs_x = set(oracle[x][0])
        for y in points:
            if y == x or y in nbrs_x:
                continue  # skip pairs sharing a line on the quadric
            middles = [m for m in oracle[y][0] if m in nbrs_x]
            chains_ok = chains_ok and len(middles) == symbolic
            checked_pairs += 1
    elapsed = time.perf_counter() - start
    ok = (
        count_ok and lines_ok and pair_ok and chains_ok
        and checked_pairs > 0 and elapsed < 10.0
    )
    report(7, ok, f"|X(F_5)|=36, 2 rulings per point, all pairs joined by "
                  f"length <= 2, {checked_pairs} skew pairs with exactly 2 "
                  f"middle points, {elapsed:.1f}s")
    assert count_ok and lines_ok and pair_ok and chains_ok
    assert elapsed < 10.0


def test_criterion_8_fermat_cubic_over_f7():
    start = time.perf_counter()
    spec = fermat_cubic(7)
    points = sorted(enumerate_points(spec))
    line_census = {pt: len(lines_through(spec, pt)) for pt in points}
    zero_line_exists = any(count == 0 for count in line_census.values())

    rep = connectivity_report(spec, 5)
    fractions_below_one = all(rep.fractions[l] < 1 for l in range(1, 6))

    minlen_none = min_chain_length(DefiningData((3,), 3)) is None
    elapsed = time.perf_counter() - start

    ok = zero_line_exists and fractions_below_one and minlen_none and elapsed < 60.0
    census = sorted(set(line_census.values()))
    fr = {l: str(rep.fractions[l]) for l in sorted(rep.fractions)}
    report(8, ok, f"zero-line point exists: {zero_line_exists}; fractions < 1 "
                  f"at l<=5: {fractions_below_one}; minlength none: "
                  f"{minlen_none}; {elapsed:.1f}s")
    assert minlen_none
    assert elapsed < 60.0
    assert zero_line_exists and fractions_below_one, (
        "Not attainable over F_7: since 7 = 1 (mod 3) all 27 lines of the "
        "Fermat cubic are F_7-rational and their union contains every one of "
        f"the {len(points)} rational points (line census {census}: 81 simple "
        "double points and 18 triple points exhaust 27*8 = 216 incidences), "
        f"so no zero-line point exists and connectivity reaches {fr}. "
        "The expected behavior does hold over primes p = 2 (mod 3), e.g. "
        "F_5, where only 3 of the 27 lines are rational; see "
        "tests/test_finite_geometry.py for those checks."
    )


def test_criterion_9_numeric_shadow_of_exempt_claims():
    # deformation/smoothing of chains and the planar recount of the 180 are
    # out of desk range; their numeric shadow is the 180 itself (criterion 1)
    # plus the 6 = 1*2*3 lines through each endpoint
    problem = ChainProblem(DefiningData((3,), 4), 3)
    blocks = condition_factors((3,), 3)
    x_block = truncated_product(blocks["x_side"], (4, 4))
    y_block = truncated_product(blocks["y_side"], (4, 4))
    shadow_ok = (
        x_block == {(3, 0): 6}
        and y_block == {(0, 3): 6}
        and chain_count(problem) == 180
    )
    report(9, shadow_ok, "endpoint blocks are 6*h1^3 and 6*h2^3; "
                         "count 180 re-checked; geometric re-derivations exempt")
    assert shadow_ok
