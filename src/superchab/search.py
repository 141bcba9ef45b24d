"""Exhaustive rational-point search on y^m = f(x) up to a naive height,
with exact membership tests and bound-versus-observation verification.

Height of x = a/b (reduced, b > 0) is max(|a|, |b|).  The search works on
the integer form of f that the curve keeps (`integer_f`): with den the lcm
of the coefficient denominators and G(a, b) = sum den*f_k a^k b^(d-k),
f(a/b) = G / (den*b^d).  For each row prime q the sieve lists the points
of P^1(F_q) where the homogeneous form N = G den^(m-1) b^(D-d),
D = m*ceil(d/m), is an m-th power residue.  Row b at q, a 2H+1 bit mask
over a, has one bit per listed point in each period of q; it depends on b
only through b mod q, so each residue class builds its row once per search
and every b of the class reuses it.  How many row primes a search takes
follows H: past the first eight, a prime is a row while the (a, b) expected
to survive the rows before it outnumber the work of building its rows.
The rows reject almost every (a, b) before any exact arithmetic, and the
set bits of what is left are stepped one at a time.  A survivor must then
give an m-th power residue at up to eight further primes before the
integer root test, so exact roots are taken about twice per point found,
and every point reported is confirmed over Q by one integer Horner of f.
Nothing here touches floating point.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .bounds import bound_report
from .curve import SuperellipticCurve
from .padic import is_prime

__all__ = [
    "MAX_SEARCH_HEIGHT",
    "RationalPoint",
    "SearchReport",
    "enumerate_points",
    "infinity_count",
    "verify_bound",
]

# A row of the sieve is a 2H+1 bit mask and the work grows like H^2; at this
# height a search takes under 1 s of CPU on a 2-core x86 host (Python 3.11)
# for the README curves, y^3 = x^12 + 1, y^2 = x^16 + 1 and a degree-12
# cubic with 12 rational roots, where 15 and 14 row primes leave 12,680 and
# 33,010 (a, b) to evaluate: 0.10 s for y^2 = x^16 + 1 and 0.15 s for the
# cubic (medians of three runs).  The kept rows take at most sum(q) * (2H+1)
# bits, about 1 MB and 2.2 MB on those last two curves.  The worst case, an
# even m with every odd prime below 200 a row (sum(q) = 4225), is 10.6 MB;
# it needs tables that each reject only a few points, which no curve here
# has shown.
MAX_SEARCH_HEIGHT = 10_000

# Sieve primes are the usable odd primes below 200.  The first eight below
# 100 whose table rejects a point are always rows; further rows and the
# pre-test primes come from the same fixed range (see _sieve_tables), so an
# m with no usable prime there (a large prime m) is searched without a
# sieve.
_ODD_PRIMES = [q for q in range(3, 200, 2) if is_prime(q)]
_ROW_PRIME_LIMIT = 100
_MAX_SIEVE_PRIMES = 8


@dataclass(frozen=True)
class RationalPoint:
    """An affine point (x, y); points at infinity are only counted."""

    x: Fraction
    y: Fraction


@dataclass
class SearchReport:
    height: int
    points: list[RationalPoint]
    count: int
    infinity_count: int
    bound_comparison: tuple[int, bool] | None = None

    def total_count(self) -> int:
        return self.count + self.infinity_count

    def to_json_dict(self) -> dict:
        payload: dict = {
            "height": self.height,
            "points": [
                {"x": _frac_str(pt.x), "y": _frac_str(pt.y)} for pt in self.points
            ],
            "count": self.count,
            "infinity_count": self.infinity_count,
        }
        if self.bound_comparison is not None:
            total, ok = self.bound_comparison
            payload["bound"] = total
            payload["satisfied"] = ok
        return payload


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _iroot(n: int, k: int) -> tuple[int, bool]:
    """Largest r >= 0 with r^k <= n, plus exactness, by integer Newton.

    The step y = floor(((k-1) x + floor(n / x^(k-1))) / k) equals
    floor(((k-1) x + n / x^(k-1)) / k), since floor((A + floor(B)) / k) =
    floor((A + B) / k) for an integer A; by AM-GM that real mean is at
    least n^(1/k), so every step stays at or above r.  While x > r, x^k > n
    puts n / x^(k-1) below x, so the step goes strictly down.  The start
    2^ceil(bits(n) / k) is above r, so the loop stops exactly at r, with no
    correction after it.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root index must be positive")
    if n in (0, 1):
        return n, True
    if n.bit_length() <= k:  # 2 <= n < 2^k
        return 1, False
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x ** k == n


def _rational_mth_roots(v: Fraction, m: int) -> list[Fraction]:
    """All rational y with y^m = v."""
    if v == 0:
        return [Fraction(0)]
    rd, okd = _iroot(v.denominator, m)
    if not okd:
        return []
    if v.numerator > 0:
        rn, okn = _iroot(v.numerator, m)
        if not okn:
            return []
        root = Fraction(rn, rd)
        return [root, -root] if m % 2 == 0 else [root]
    if m % 2 == 0:
        return []
    rn, okn = _iroot(-v.numerator, m)
    return [Fraction(-rn, rd)] if okn else []


def infinity_count(curve: SuperellipticCurve) -> int:
    """Rational points at infinity on the smooth model.

    With delta = gcd(m, deg f), the places above x = infinity carry residue
    fields Q(w) for the delta-th roots w of the leading coefficient, so the
    rational ones are counted by rational roots: one for odd delta when the
    leading coefficient is a delta-th power, two for even delta and a
    positive delta-th power, and always one when delta = 1.
    """
    delta = math.gcd(curve.m, curve.degree)
    return len(_rational_mth_roots(curve.leading_coefficient, delta))


def _sieve_primes(m: int) -> list[int]:
    """The odd primes q below 200 at which m-th powers are a proper subset
    of the residues, that is gcd(m, q - 1) > 1, in increasing order; the
    sieve takes its rows and pre-test primes from them (see _sieve_tables)."""
    return [q for q in _ODD_PRIMES if math.gcd(m, q - 1) > 1]


def _power_residues(m: int, q: int) -> set[int]:
    """The m-th power residues mod q, 0 counted."""
    return {pow(x, m, q) for x in range(q)}


def _passing_points(
    ints: list[int], den: int, m: int, q: int
) -> tuple[list[int], bool]:
    """The points of P^1(F_q) at which the form N = G den^(m-1) b^(D-d),
    D = m*ceil(d/m), is an m-th power residue mod q (0 counted): the t in
    [0, q) with (t : 1) passing, in increasing order, and whether (1 : 0)
    passes.

    N is homogeneous of degree D, so N(l a, l b) = l^D N(a, b) for a unit l,
    and l^D is a nonzero m-th power: the test depends only on (a : b).
    """
    d = len(ints) - 1
    powers = _power_residues(m, q)
    scale = pow(den, m - 1, q)
    coeffs = [c * scale % q for c in reversed(ints)]
    passing = []
    for t in range(q):
        v = 0
        for c in coeffs:
            v = (v * t + c) % q
        if v in powers:
            passing.append(t)
    # N(1, 0) = den^(m-1) f_d when D = d, and 0 when D > d
    return passing, d % m != 0 or coeffs[0] in powers


def _sieve_tables(
    ints: list[int], den: int, m: int, height: int
) -> tuple[list[tuple[int, list[int], bool]], list[int]]:
    """The rows of the sieve, one (q, passing, infinity) table of
    _passing_points per row prime, and the pre-test primes.

    The row primes are taken in increasing order from _sieve_primes.  A
    prime whose table passes every point of P^1(F_q), as each q dividing
    den does (N is then 0 mod q), would reject nothing and is skipped.  The
    first eight others below 100 are always rows.  After them the next
    prime q is a row while the expected survivors (2H+1) H prod rho, with
    rho the passing share of each row's table, exceed min(H, q) q, about
    the work of building its rows, one per residue class of b mod q that
    occurs; a larger q costs no less, so the first that fails ends the
    rows.  The rule counts a survivor as one bit of row building, though a
    survivor costs a gcd, a Horner evaluation and pre-tests, and it leaves
    out the per-b AND of each row and the share rho the row lets through;
    so the first eight are fixed rather than left to it.  Started at the
    first prime it stops after three to five rows at heights 40 to 120,
    and the benchmark search corpus took 1.4 times the CPU; weighing the
    expected rejections, survivors (1 - rho), gave no gain there and
    dropped a row of the cubic at H = 10000, 0.52 -> 0.58 s.  The pre-test
    primes are the next eight, less those dividing den.
    """
    width = 2 * height + 1
    primes = _sieve_primes(m)
    tables = []
    # expected survivors, as the fraction survivors / points
    survivors, points = width * height, 1
    for i, q in enumerate(primes):
        if len(tables) >= _MAX_SIEVE_PRIMES or q > _ROW_PRIME_LIMIT:
            if survivors <= min(height, q) * q * points:
                return tables, [p for p in primes[i:] if den % p][:_MAX_SIEVE_PRIMES]
        passing, infinity = _passing_points(ints, den, m, q)
        passed = len(passing) + infinity
        if passed <= q:
            tables.append((q, passing, infinity))
            survivors *= passed
            points *= q + 1
    return tables, []


def _row(q: int, passing: list[int], infinity: bool, b: int, height: int) -> int:
    """Row b of the sieve modulo q, a 2H+1 bit mask: bit j is set when
    a = j - H may leave N(a, b) an m-th power mod q.  When q does not divide
    b that is when a = t b mod q for a passing t of (t : 1), so the q-bit
    pattern has one bit per passing t; when q divides b, every a prime to q
    gives (1 : 0).  When q divides both a and b the bit stays set;
    gcd(a, b) = 1 rejects that a.  The pattern repeats across the row."""
    width = 2 * height + 1
    if b % q:
        pattern = 0
        for t in passing:
            pattern |= 1 << (t * b + height) % q
    else:
        pattern = (1 << q) - 1 if infinity else 1 << height % q
    repeat = ((1 << (q * -(-width // q))) - 1) // ((1 << q) - 1)
    return pattern * repeat & ((1 << width) - 1)


def _row_masks(
    tables: list[tuple[int, list[int], bool]], height: int
) -> Iterator[tuple[int, int]]:
    """(b, mask) for b = 1..H: bit j of mask is set when a = j - H passes
    the row of b at every row prime (see _row).  A row is built the first
    time its class b mod q appears and kept until the iteration ends."""
    rows: list[dict[int, int]] = [{} for _ in tables]
    full = (1 << (2 * height + 1)) - 1
    for b in range(1, height + 1):
        mask = full
        for (q, passing, infinity), by_class in zip(tables, rows):
            row = by_class.get(b % q)
            if row is None:
                row = by_class[b % q] = _row(q, passing, infinity, b, height)
            mask &= row
        yield b, mask


def enumerate_points(curve: SuperellipticCurve, height: int) -> SearchReport:
    """All affine points with x = a/b of height at most H, sorted by (x, y),
    plus the points at infinity, which do not depend on H.

    Each row prime q (see _sieve_tables) has the list of points of
    P^1(F_q) at which N(a, b) = G(a, b) den^(m-1) b^(D-d) is an m-th power
    residue mod q (see _passing_points); f(a/b) can only be an m-th power
    in Q when N is one in Z.  Row b at q is the 2H+1 bit mask over a in
    [-H, H] of the a with (a : b) passing (see _row); it depends on b only
    through b mod q, so it is built the first time its class appears and
    kept until the call returns.  A b whose AND of the rows (see
    _row_masks) is 0 is skipped; otherwise each set bit, stepped as the
    lowest set bit of what is left, gives an a.  Each such a with
    gcd(a, b) = 1 gets G(a, b) by integer Horner, whose coefficients
    den*f_k b^(d-k) come from a running power of b, built with the
    pre-test scales when the row's first such a comes up.  It is dropped
    unless G (den*b^d)^(m-1) is an m-th power residue (0 counted) at every
    pre-test prime q: when G / (den*b^d) = y^m that number is the integer
    (y den b^d)^m.  The rest get an exact root test of G / (den*b^d) in
    lowest terms (with the sign rule G >= 0 for even m); N itself is never
    formed, since b^(D-d) is huge when m is much larger than d.  Each hit
    is confirmed, once per x, by the exact rational roots of f(a/b) from
    `curve.evaluate_f`, so the sieve, the pre-test and the integer test
    only reject.
    Raises ValueError above MAX_SEARCH_HEIGHT.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    if height > MAX_SEARCH_HEIGHT:
        raise ValueError(
            f"height {height} exceeds the search limit {MAX_SEARCH_HEIGHT}"
        )
    m = curve.m
    ints, den = curve.integer_f
    lower = ints[-2::-1]
    tables, pretest_primes = _sieve_tables(ints, den, m, height)
    pretests = [(q, _power_residues(m, q)) for q in pretest_primes]
    found: list[RationalPoint] = []
    for b, mask in _row_masks(tables, height):
        horner = None
        while mask:
            low = mask & -mask
            mask ^= low
            a = low.bit_length() - 1 - height
            if math.gcd(a, b) != 1:
                continue
            if horner is None:
                # the coefficients of G(a, b) as a polynomial in a, highest first
                horner, power = [ints[-1]], 1
                for c in lower:
                    power *= b
                    horner.append(c * power)
                scaled_den = den * power
                scales = [(q, powers, pow(scaled_den, m - 1, q)) for q, powers in pretests]
            g = 0
            for c in horner:
                g = g * a + c
            for q, powers, s in scales:
                if g * s % q not in powers:
                    break
            else:
                if _rational_mth_roots(Fraction(g, scaled_den), m):
                    x = Fraction(a, b)
                    for y in _rational_mth_roots(curve.evaluate_f(x), m):
                        found.append(RationalPoint(x, y))
    found.sort(key=lambda pt: (pt.x, pt.y))
    return SearchReport(height, found, len(found), infinity_count(curve))


def verify_bound(curve: SuperellipticCurve, r: int, height: int) -> SearchReport:
    """Search up to the height and compare against the uniform total.

    The rank r is taken on the user's word.  The total comes from
    `bound_report` before the search, so a curve or rank outside the
    bound's hypotheses raises there.  satisfied means the observed
    count (affine plus infinity, the conservative reading) stays strictly
    below the bound; a violation would falsify either the implementation
    or the asserted rank, so it is raised as a loud warning on the report.
    """
    total = bound_report(curve, r).total_bound
    report = enumerate_points(curve, height)
    satisfied = report.total_count() < total
    report.bound_comparison = (total, satisfied)
    if not satisfied:
        warnings.warn(
            f"observed {report.total_count()} points but the bound is {total}; "
            "either the implementation or the asserted rank is wrong",
            RuntimeWarning,
            stacklevel=2,
        )
    return report
