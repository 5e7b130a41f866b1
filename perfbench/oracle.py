"""Checks on every query's output that do not come from the code under test.

* ``count`` answers are recomputed by the closed form
  ``(prod d_i!)^2 * (prod d_i)^(l-3) * prod_{k=2}^{l-1} [u^((k-1)(N-D))] B(u, v)``
  with ``B = prod_i prod_{j=1}^{d_i-1} (j*u + (d_i-j)*v)``, or
  ``prod d_i! (d_i-1)!`` at ``l = 2``.
* ``explore`` reports are held to facts known in advance: the split quadric
  has fraction_1 = (2p+1)/(p+1)^2, every later fraction 1 and two lines
  through each of its (p+1)^2 points; the hyperplane is one line-connected
  P^3; the Fermat cubic surface with p = 2 mod 3 has p^2+p+1 points.
* Every exit code and every stdout is compared with the SHA-256 digest of
  the reference commit's ``--machine`` output, stored in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def closed_form_count(degrees, n: int, l: int) -> int:
    """Number of length-l chains of lines at zero expected dimension."""
    if l == 2:
        return prod(factorial(d) * factorial(d - 1) for d in degrees)
    big_d = sum(degrees)
    b = [1]  # coefficients of u^0 .. u^k in B(u, v)
    for d in degrees:
        for j in range(1, d):
            nxt = [0] * (len(b) + 1)
            for i, c in enumerate(b):
                nxt[i] += c * (d - j)
                nxt[i + 1] += c * j
            b = nxt
    count = prod(factorial(d) for d in degrees) ** 2 * prod(degrees) ** (l - 3)
    for k in range(2, l):
        e = (k - 1) * (n - big_d)
        count *= b[e] if 0 <= e < len(b) else 0
    return count


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _pairs(out: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def independent_check(argv, variety, code, out) -> str | None:
    """The reason the output is wrong by the closed forms, or None."""
    if argv[0] == "count" and "--length" in argv:
        degrees = [int(t) for t in _arg(argv, "--degrees").split(",")]
        n, l = int(_arg(argv, "--ambient")), int(_arg(argv, "--length"))
        if n * (l - 1) != l * sum(degrees) - len(degrees):
            return None if code == 2 else f"exit {code} at nonzero expected dimension"
        want = closed_form_count(degrees, n, l)
        got = _pairs(out).get("count")
        if got != str(want) or code != (0 if want else 1):
            return f"count={got} exit {code}; closed form gives {want}"
        return None
    if argv[0] != "explore" or variety is None:
        return None
    pairs, p = _pairs(out), variety.p
    fractions = {int(k[9:]): Fraction(v) for k, v in pairs.items() if k.startswith("fraction_")}
    points = int(pairs.get("points", -1))
    if variety.family == "quadric":
        want = {1: Fraction(2 * p + 1, (p + 1) ** 2)}
        ok = (points == (p + 1) ** 2 and pairs.get("lines_hist_2") == str(points)
              and all(f == want.get(l, 1) for l, f in fractions.items()))
    elif variety.family == "hyperplane":
        ok = points == p**3 + p**2 + p + 1 and all(f == 1 for f in fractions.values())
    elif variety.family == "fermat" and p % 3 == 2:
        ok = points == p * p + p + 1
    else:
        return None
    return None if ok and fractions else f"explore facts of {variety.name} violated"


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def load_digests() -> dict[str, list]:
    """Query key -> [exit code, SHA-256 of stdout] at the reference commit."""
    return json.loads(DIGESTS.read_text())


def check(query, variety, code, out, reference) -> str | None:
    """Why this answer is wrong, or None if every check passes."""
    want = reference.get(query.key)
    if want is None:
        return "query missing from digests.json"
    if code != want[0]:
        return f"exit {code}, expected {want[0]}"
    if digest(out) != want[1]:
        return "stdout differs from the reference digest"
    return independent_check(query.argv, variety, code, out)
