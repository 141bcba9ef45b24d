"""Point search: exact membership, the height-H sweep against an
independent oracle, infinity accounting, covers, and bound verification."""

import math
import random
from fractions import Fraction

import pytest

from superchab.curve import SuperellipticCurve
from superchab.search import (
    RationalPoint,
    enumerate_points,
    infinity_count,
    is_on_curve,
    verify_bound,
)
from superchab.search import _iroot


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
