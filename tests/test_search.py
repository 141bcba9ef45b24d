"""Point search: exact membership, the sieved height-H sweep against the
Fraction double loop it replaced, against the row-table sieve without a
row cache or pre-test, and against an independent oracle, the number of
exact root tests, the height limit, infinity accounting, and bound
verification."""

import math
import random
import time
from fractions import Fraction

import pytest

import superchab.search
from superchab import ratpoly
from superchab.curve import HypothesisViolation, SuperellipticCurve
from superchab.search import (
    MAX_SEARCH_HEIGHT,
    RationalPoint,
    SearchReport,
    enumerate_points,
    infinity_count,
    verify_bound,
)
from superchab.search import (
    _iroot,
    _passing_points,
    _rational_mth_roots,
    _row,
    _row_masks,
    _sieve_primes,
    _sieve_tables,
)

# y^3 = prod (x - t) over twelve rational roots in nested residue classes,
# and y^2 = x^16 + 1: the two curves on which most (a, b) survive the first
# eight rows
NESTED_CUBIC = SuperellipticCurve.from_branch_points(
    3, 1, [(t, 1) for t in (1, 8, 50, 344, 2, 9, 51, 345, 3, 10, 52, 346)]
)
HYPERELLIPTIC_16 = SuperellipticCurve(2, [1] + [0] * 15 + [1])


def _bisect_root(n: int, k: int) -> tuple[int, bool]:
    lo, hi = 0, 1
    while hi ** k < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo, lo ** k == n


def _oracle_points(curve: SuperellipticCurve, height: int) -> set:
    pts = set()
    for a in range(-height, height + 1):
        for b in range(1, height + 1):
            if math.gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            v = curve.evaluate_f(x)
            if v == 0:
                pts.add((x, Fraction(0)))
                continue
            dn, okd = _bisect_root(v.denominator, curve.m)
            if not okd:
                continue
            if v > 0:
                nn, okn = _bisect_root(v.numerator, curve.m)
                if okn:
                    pts.add((x, Fraction(nn, dn)))
                    if curve.m % 2 == 0:
                        pts.add((x, Fraction(-nn, dn)))
            elif curve.m % 2 == 1:
                nn, okn = _bisect_root(-v.numerator, curve.m)
                if okn:
                    pts.add((x, Fraction(-nn, dn)))
    return pts


def _fraction_loop(curve: SuperellipticCurve, height: int) -> SearchReport:
    """The unsieved search: f over Q at every coprime (a, b)."""
    found: list[RationalPoint] = []
    for a in range(-height, height + 1):
        for b in range(1, height + 1):
            if math.gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            for y in _rational_mth_roots(curve.evaluate_f(x), curve.m):
                found.append(RationalPoint(x, y))
    found.sort(key=lambda pt: (pt.x, pt.y))
    return SearchReport(height, found, len(found), infinity_count(curve))


def _sweep_curve(rng: random.Random, m: int, d: int) -> SuperellipticCurve:
    """Degree d with one or two planted rational roots (points with y = 0),
    coefficients with denominators up to 12, a leading coefficient of
    either sign, and, where the cofactor has a constant term to spare, a
    planted point with y != 0."""
    roots = [
        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(rng.randint(1, min(2, d)))
    ]
    lead = rng.choice([-1, 1]) * Fraction(rng.randint(1, 7), rng.randint(1, 12))
    g = [Fraction(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(d - len(roots))]
    g.append(lead)
    x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    base = math.prod(x0 - r for r in roots)
    if len(g) > 1 and base != 0:
        y0 = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))
        g[0] += y0 ** m / base - ratpoly.evaluate(g, x0)
    f = g
    for r in roots:
        f = ratpoly.mul(f, [-r, Fraction(1)])
    return SuperellipticCurve(m, f)


def _horner_row_mask(ints: list[int], den: int, m: int, q: int, powers: set[int],
                     b: int, height: int) -> int:
    """The row mask as the sieve first computed it, kept as an oracle: N
    evaluated by Horner at every residue of a mod q, for each b anew.
    Bit i is set when a = i - H leaves N = G(a, b) den^(m-1) b^(D-d),
    with D = m*ceil(d/m), in powers, the m-th power residues mod q."""
    d = len(ints) - 1
    scale = pow(den, m - 1, q) * pow(b, m * -(-d // m) - d, q)
    coeffs = [c * pow(b, d - k, q) * scale % q for k, c in enumerate(ints)][::-1]
    pattern = 0
    for j in range(q):
        r, v = (j - height) % q, 0
        for c in coeffs:
            v = (v * r + c) % q
        if v in powers:
            pattern |= 1 << j
    width = 2 * height + 1
    reps = -(-width // q)
    return pattern * (((1 << (q * reps)) - 1) // ((1 << q) - 1)) & ((1 << width) - 1)


def _table_sieve_points(curve: SuperellipticCurve, height: int) -> SearchReport:
    """The row-table sieve without a row cache or pre-test, kept as an
    oracle: every row of every b built anew from one P^1(F_q) table per
    sieve prime (the smallest eight odd primes q < 100 with
    gcd(m, q - 1) > 1), and every coprime survivor sent to the exact root
    test.  Its residue sets and tables are its own, so a fault in the
    package's helpers cannot hide here."""
    m = curve.m
    ints, den = ratpoly.integer_form(curve.f)
    d = len(ints) - 1
    width = 2 * height + 1
    tables = []
    primes = [q for q in range(3, 100, 2) if all(q % p for p in range(3, q, 2))]
    for q in [q for q in primes if math.gcd(m, q - 1) > 1][:8]:
        powers = {pow(x, m, q) for x in range(q)}
        scale = pow(den, m - 1, q)
        coeffs = [c * scale % q for c in reversed(ints)]
        table = []
        for t in range(q):
            v = 0
            for c in coeffs:
                v = (v * t + c) % q
            table.append(int(v in powers))
        table.append(int(d % m != 0 or coeffs[0] in powers))
        repeat = ((1 << (q * -(-width // q))) - 1) // ((1 << q) - 1)
        tables.append((q, table, repeat))
    full = (1 << width) - 1
    found: list[RationalPoint] = []
    for b in range(1, height + 1):
        mask = full
        for q, table, repeat in tables:
            if b % q:
                inverse = pow(b, -1, q)
                row = sum(table[(j - height) * inverse % q] << j for j in range(q))
            else:
                row = (1 << q) - 1 if table[q] else 1 << height % q
            mask &= row * repeat
        horner = [c * b ** (d - k) for k, c in enumerate(ints)][::-1]
        scaled_den = den * b ** d
        bits = bin(mask)[:1:-1]
        i = bits.find("1")
        while i >= 0:
            a = i - height
            i = bits.find("1", i + 1)
            if math.gcd(a, b) != 1:
                continue
            g = 0
            for c in horner:
                g = g * a + c
            if not _rational_mth_roots(Fraction(g, scaled_den), m):
                continue
            x = Fraction(a, b)
            for y in _rational_mth_roots(curve.evaluate_f(x), m):
                found.append(RationalPoint(x, y))
    found.sort(key=lambda pt: (pt.x, pt.y))
    return SearchReport(height, found, len(found), infinity_count(curve))


class TestIntegerRoot:
    def test_exact_powers(self):
        for r in range(0, 40):
            for k in (2, 3, 5):
                assert _iroot(r ** k, k) == (r, True)

    def test_off_by_one(self):
        assert _iroot(8, 3) == (2, True)
        assert _iroot(9, 3) == (2, False)
        assert _iroot(7, 3) == (1, False)

    def test_large(self):
        n = 10 ** 60 + 1
        r, exact = _iroot(n, 4)
        assert not exact
        assert r ** 4 <= n < (r + 1) ** 4


def is_on_curve(pt: RationalPoint, curve: SuperellipticCurve) -> bool:
    """Exact check y^m = f(x) for an affine point."""
    return pt.y ** curve.m == curve.evaluate_f(pt.x)


class TestMembership:
    def test_examples(self):
        quartic = SuperellipticCurve(3, [1, 0, 0, 0, 1])
        assert is_on_curve(RationalPoint(Fraction(0), Fraction(1)), quartic)
        assert not is_on_curve(RationalPoint(Fraction(1), Fraction(1)), quartic)
        cubic = SuperellipticCurve(3, [1, 0, 0, 1])
        assert is_on_curve(RationalPoint(Fraction(-1), Fraction(0)), cubic)


class TestEnumerate:
    def test_cubic_quartic(self):
        curve = SuperellipticCurve(3, [1, 0, 0, 0, 1])
        report = enumerate_points(curve, 10)
        assert [(pt.x, pt.y) for pt in report.points] == [(Fraction(0), Fraction(1))]
        assert report.count == 1
        assert report.infinity_count == 1

    def test_even_m_both_signs(self):
        curve = SuperellipticCurve(2, [1, 0, 0, 0, 0, 0, 1])
        report = enumerate_points(curve, 10)
        got = {(pt.x, pt.y) for pt in report.points}
        assert got == {(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))}
        assert report.infinity_count == 2

    def test_zero_height(self):
        curve = SuperellipticCurve(3, [1, 0, 0, 0, 1])
        report = enumerate_points(curve, 0)
        assert report.points == []
        assert report.count == 0
        assert report.infinity_count == 1

    def test_soundness_and_order(self):
        curve = SuperellipticCurve(2, [0, 1, 0, 0, 1])
        report = enumerate_points(curve, 8)
        assert len({(pt.x, pt.y) for pt in report.points}) == report.count
        assert report.points == sorted(report.points, key=lambda p: (p.x, p.y))
        for pt in report.points:
            assert is_on_curve(pt, curve)

    def test_height_monotone(self):
        curve = SuperellipticCurve(2, [0, 1, 0, 0, 1])
        small = enumerate_points(curve, 5)
        large = enumerate_points(curve, 10)
        assert small.count <= large.count
        assert {(p.x, p.y) for p in small.points} <= {
            (p.x, p.y) for p in large.points
        }


class TestSieveAgainstFractionLoop:
    def test_seeded_sweep(self):
        rng = random.Random(4099)
        signs, zero_y, nonzero_y, divisible = set(), 0, 0, set()
        for i in range(90):
            m, d = 2 + i % 5, 1 + i % 9
            curve = _sweep_curve(rng, m, d)
            height = i % 26
            got = enumerate_points(curve, height).to_json_dict()
            assert got == _fraction_loop(curve, height).to_json_dict(), (m, curve.f, height)
            signs.add(curve.leading_coefficient > 0)
            divisible.add(d % m == 0)
            zero_y += sum(p["y"] == "0/1" for p in got["points"])
            nonzero_y += sum(p["y"] != "0/1" for p in got["points"])
        assert signs == {True, False} and divisible == {True, False}
        assert zero_y > 0 and nonzero_y > 0

    def test_prime_m_beyond_the_sieve_range(self):
        # 1000003 is prime, so no prime q < 100 has m | q - 1 and nothing is
        # sieved; forming N = G den^(m-1) b^(D-d) would take seconds here
        curve = SuperellipticCurve(1000003, [1, 0, 1])
        start = time.process_time()
        report = enumerate_points(curve, 5)
        assert time.process_time() - start < 5.0
        assert report.to_json_dict() == _fraction_loop(curve, 5).to_json_dict()
        assert [(pt.x, pt.y) for pt in report.points] == [(Fraction(0), Fraction(1))]

    def test_height_limit_within_three_seconds(self):
        # the two curves that eight rows sieve worst each stay under 3 s of
        # CPU at the height limit; their 14 and 15 rows leave these (a, b),
        # where eight rows left about 1.9 million on each
        for curve, survivors, points in ((NESTED_CUBIC, 33_010, 12),
                                         (HYPERELLIPTIC_16, 12_680, 2)):
            start = time.process_time()
            report = enumerate_points(curve, MAX_SEARCH_HEIGHT)
            assert time.process_time() - start < 3.0, curve.f
            assert report.count == points
            ints, den = ratpoly.integer_form(curve.f)
            tables, _ = _sieve_tables(ints, den, curve.m, MAX_SEARCH_HEIGHT)
            assert sum(mask.bit_count() for _, mask in
                       _row_masks(tables, MAX_SEARCH_HEIGHT)) == survivors


class TestSieveAgainstTableOracle:
    def test_seeded_sweep(self):
        """The same point lists as the sieve without row cache or pre-test,
        on seeded curves with m = 2..7 and planted points, at heights where
        each of the first sixteen usable primes divides some b and each
        residue class of b recurs."""
        rng = random.Random(7919)
        nonzero_y, zero_y, pretested = 0, 0, set()
        for i in range(48):
            m, d = 2 + i % 6, 2 + i % 5
            curve = _sweep_curve(rng, m, d)
            height = max(_sieve_primes(m)[:16]) + rng.randint(0, 4)
            got = enumerate_points(curve, height).to_json_dict()
            assert got == _table_sieve_points(curve, height).to_json_dict(), (m, curve.f, height)
            zero_y += sum(p["y"] == "0/1" for p in got["points"])
            nonzero_y += sum(p["y"] != "0/1" for p in got["points"])
            if _sieve_tables(*ratpoly.integer_form(curve.f), m, height)[1]:
                pretested.add(m)
        assert zero_y > 0 and nonzero_y > 0
        assert pretested == {2, 3, 4, 5, 6, 7}

    def test_rows_past_the_first_eight(self):
        """The same point lists at heights 300 to 600, where the rows differ
        from the first eight usable primes below 100: more rows by the cost
        rule for m = 2 and 4, and primes dividing den (7 and 13, scaled in
        on every other curve) replaced for m = 3."""
        rng = random.Random(8111)
        changed, more = set(), set()
        for i in range(9):
            m = (2, 3, 4)[i % 3]
            curve = _sweep_curve(rng, m, rng.randint(2, 5))
            if i % 2:
                curve = SuperellipticCurve(m, [c / 91 for c in curve.f])
            height = rng.randint(300, 600)
            ints, den = ratpoly.integer_form(curve.f)
            rows = [q for q, _, _ in _sieve_tables(ints, den, m, height)[0]]
            first_eight = [q for q in _sieve_primes(m) if q < 100][:8]
            if rows != first_eight:
                changed.add(m)
            if len(rows) > 8:
                more.add(m)
            got = enumerate_points(curve, height).to_json_dict()
            assert got == _table_sieve_points(curve, height).to_json_dict(), (m, curve.f, height)
        assert changed == {2, 3, 4} and more == {2, 4}

    def test_no_row_passes_everything(self):
        """Over den = 105 = 3*5*7, N is 0 mod 3, 5 and 7, so their tables
        pass every point: no row is made from them, every row rejects some
        point of P^1(F_q), and the points still match the oracle, which
        keeps 3, 5 and 7 among its eight rows."""
        for m, height in ((2, 150), (3, 150), (4, 150)):
            curve = SuperellipticCurve(m, [Fraction(1, 105), Fraction(-2, 35),
                                           Fraction(4, 15), Fraction(1, 3), Fraction(1, 7)])
            ints, den = ratpoly.integer_form(curve.f)
            assert den == 105
            tables, pretests = _sieve_tables(ints, den, m, height)
            assert len(tables) >= 8
            for q, passing, infinity in tables:
                assert den % q and len(passing) + infinity <= q, (m, q)
            assert all(den % q for q in pretests)
            got = enumerate_points(curve, height).to_json_dict()
            assert got == _table_sieve_points(curve, height).to_json_dict(), m


class TestExactRootTests:
    def test_about_two_per_point_found(self, monkeypatch):
        """The row and pre-test residues reject every false survivor of
        these two curves at H = 300 (983 and 735 exact root tests without
        the pre-test): each x found takes one integer root test and one
        of f(x), and the points at infinity one more."""
        calls = 0

        def counted(v, m):
            nonlocal calls
            calls += 1
            return _rational_mth_roots(v, m)

        monkeypatch.setattr(superchab.search, "_rational_mth_roots", counted)
        for curve in (NESTED_CUBIC, HYPERELLIPTIC_16):
            calls = 0
            report = enumerate_points(curve, 300)
            assert report.count > 0
            assert calls <= 2 * report.count + 1, (curve.m, report.count, calls)


class TestRowTable:
    def test_rows_against_horner_oracle(self):
        """Every row built from the passing points of P^1(F_q) equals the
        per-row Horner mask, at every prime the row rule can take (each
        usable prime below 200).  Below 100 that holds for every b in 1..H,
        with H past the largest such prime so that each q also divides some
        b; above 100, for a sample of b in 1..q + 2 that includes b = q,
        with H = q + 2."""
        rng = random.Random(6121)
        seen = {"D > d": 0, "D = d": 0, "q | den": 0, "q | b": 0, "q > 100": 0,
                "N(1, 0) not a power": 0, "negative": 0, "rational": 0}
        for m in range(2, 8):
            primes = _sieve_primes(m)
            low_height = max(q for q in primes if q < 100) + 2
            for d in (m - 1, m, m + 1, 2 * m):
                if d < 1:
                    continue
                dens = [1, 1, 2, rng.choice(primes), 3 * 7]
                f = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(d)]
                f.append(Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 6]), rng.choice(dens)))
                den = math.lcm(*(c.denominator for c in f))
                ints = [c.numerator * (den // c.denominator) for c in f]
                for q in primes:
                    if q < 100:
                        height = low_height
                        bs = range(1, height + 1)
                    else:
                        height = q + 2
                        bs = {1, 2, 3, rng.randint(1, q - 1), q, q + 1, q + 2}
                    passing, infinity = _passing_points(ints, den, m, q)
                    powers = {pow(x, m, q) for x in range(q)}
                    for b in bs:
                        got = _row(q, passing, infinity, b, height)
                        want = _horner_row_mask(ints, den, m, q, powers, b, height)
                        assert got == want, (m, f, q, b)
                        seen["q | b"] += b % q == 0
                    seen["q | den"] += den % q == 0
                    seen["q > 100"] += q > 100
                    seen["N(1, 0) not a power"] += not infinity
                seen["D > d" if d % m else "D = d"] += 1
                seen["negative"] += any(c < 0 for c in f)
                seen["rational"] += den > 1
        assert all(seen.values()), seen


class TestHeightLimit:
    def test_above_limit_rejected(self):
        curve = SuperellipticCurve(3, [1, 0, 0, 0, 1])
        with pytest.raises(ValueError, match="10000"):
            enumerate_points(curve, MAX_SEARCH_HEIGHT + 1)


class TestInfinity:
    def test_counts(self):
        assert infinity_count(SuperellipticCurve(2, [1, 0, 0, 0, 0, 0, 1])) == 2
        assert infinity_count(SuperellipticCurve(2, [1, 0, 0, 0, 0, 0, 2])) == 0
        assert infinity_count(SuperellipticCurve(2, [1, 0, 0, 0, 0, 0, -1])) == 0
        assert infinity_count(SuperellipticCurve(3, [1, 0, 0, 0, 1])) == 1
        assert infinity_count(SuperellipticCurve(3, [1] + [0] * 11 + [1])) == 1
        assert infinity_count(SuperellipticCurve(4, [1, 0, 0, 0, 0, 0, 1])) == 2


class TestOracleAgreement:
    def test_twenty_curves(self):
        rng = random.Random(23)
        curves = [
            SuperellipticCurve(3, [1, 0, 0, 0, 1]),
            SuperellipticCurve(2, [1, 0, 0, 0, 0, 0, 1]),
            SuperellipticCurve(3, [0, -2, 0, 1]),
            SuperellipticCurve(2, [0, 1, 0, 0, 1]),
        ]
        while len(curves) < 20:
            m = rng.choice([2, 3, 4, 5])
            deg = rng.randint(3, 6)
            coeffs = [rng.randint(-4, 4) for _ in range(deg)]
            coeffs.append(rng.choice([1, 2, -1, 3]))
            try:
                curves.append(SuperellipticCurve(m, coeffs))
            except ValueError:
                continue
        for curve in curves:
            report = enumerate_points(curve, 20)
            got = {(pt.x, pt.y) for pt in report.points}
            assert got == _oracle_points(curve, 20)


class TestVerifyBound:
    def test_deg12_rank0(self):
        curve = SuperellipticCurve(3, [1] + [0] * 11 + [1])
        report = verify_bound(curve, 0, 50)
        total, satisfied = report.bound_comparison
        assert total == 378
        assert satisfied
        assert report.total_count() < 378

    def test_rank_violation(self):
        curve = SuperellipticCurve(3, [1, 0, 0, 0, 1])
        with pytest.raises(ValueError):
            verify_bound(curve, 0, 10)

    def test_hypotheses_gated_before_the_search(self, monkeypatch):
        def no_search(curve, height):
            raise AssertionError("searched a curve outside the bound's hypotheses")

        monkeypatch.setattr(superchab.search, "enumerate_points", no_search)
        curve = SuperellipticCurve.from_branch_points(
            3, 1, [(k, 1) for k in range(1, 12)] + [(20, 3)]
        )
        with pytest.raises(HypothesisViolation, match="multiplicity 3"):
            verify_bound(curve, 0, 10)
