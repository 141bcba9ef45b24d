import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import fraction_horner
from superchab import ratpoly
from superchab.curve import (
    MAX_DEGREE,
    HypothesisViolation,
    SuperellipticCurve,
    genus,
    move_branch_from_infinity,
    validate,
)


def curve_x4_plus_1(m=3):
    return SuperellipticCurve(m, [1, 0, 0, 0, 1])


def _point_multiplicities(curve):
    return sorted(e for k, e in curve.branch_multiplicities() for _ in range(k))


def _factored_flip(m, c, roots):
    """The flip of c * prod (x - theta)^n done on the branch points: with t
    the least nonnegative integer that is not a root and D = m*ceil(deg/m),
    x^D f(t + 1/x) = f(t) * x^(D - deg) * prod (x - 1/(theta - t))^n."""
    t = 0
    while any(theta == t for theta, _ in roots):
        t += 1
    value = c * math.prod((t - theta) ** n for theta, n in roots)
    d = sum(n for _, n in roots)
    target = m * ((d + m - 1) // m)
    moved = [(1 / (theta - t), n) for theta, n in roots]
    if target > d:
        moved.append((Fraction(0), target - d))
    return SuperellipticCurve.from_branch_points(m, value, moved)


class TestValidation:
    def test_x4_plus_1_valid(self):
        assert validate(curve_x4_plus_1()) == 3

    def test_total_multiplicity_rejected(self):
        c = SuperellipticCurve.from_branch_points(3, 1, [(1, 3), (2, 1)])
        with pytest.raises(HypothesisViolation) as exc:
            validate(c)
        assert any("multiplicity 3" in v for v in exc.value.violations)

    def test_low_genus_rejected(self):
        with pytest.raises(HypothesisViolation) as exc:
            validate(curve_x4_plus_1(m=2))
        assert any("genus 1" in v for v in exc.value.violations)

    def test_low_degree_rejected(self):
        c = SuperellipticCurve(3, [1, 1, 0, 1])
        with pytest.raises(HypothesisViolation) as exc:
            validate(c)
        assert any("below 4" in v for v in exc.value.violations)


class TestGenus:
    def test_frozen_values(self):
        assert genus(SuperellipticCurve(2, [1] + [0] * 7 + [1])) == 3
        assert genus(curve_x4_plus_1()) == 3
        assert genus(SuperellipticCurve(3, [1] + [0] * 11 + [1])) == 10

    def test_classical_hyperelliptic(self):
        rng = random.Random(7)
        done = 0
        while done < 20:
            deg = rng.randrange(4, 24)
            coeffs = [Fraction(rng.randrange(-9, 10)) for _ in range(deg)] + [
                Fraction(1)
            ]
            if not ratpoly.is_squarefree(coeffs):
                continue
            g = genus(SuperellipticCurve(2, coeffs))
            want = (deg - 2) // 2 if deg % 2 == 0 else (deg - 1) // 2
            assert g == want
            done += 1

    def test_multiplicity_blocks(self):
        # y^3 = (x-1)^2 (x-2): 2g-2 = 3*1 - gcd(3,3) - (1+1) = -2
        c = SuperellipticCurve.from_branch_points(3, 1, [(1, 2), (2, 1)])
        assert genus(c) == 0


class TestMoveBranchFromInfinity:
    def test_x4_plus_1(self):
        moved = move_branch_from_infinity(curve_x4_plus_1())
        assert moved.f == ratpoly.normalize(
            [Fraction(0), 0, 1, 0, 0, 0, 1]
        )
        # one new branch point (x = 0) of multiplicity 2 = 3 - (4 mod 3)
        assert (1, 2) in moved.branch_multiplicities()

    def test_divisible_degree_adds_no_root(self):
        c = SuperellipticCurve(2, [1] + [0] * 7 + [1])
        moved = move_branch_from_infinity(c)
        assert moved.degree == 8
        assert moved.branch_point_count == 8

    def test_root_at_origin_translates_first(self):
        c = SuperellipticCurve.from_branch_points(
            3, 1, [(0, 1), (2, 1), (3, 1), (4, 1)]
        )
        moved = move_branch_from_infinity(c)
        # t = 1 shifts the roots to -1, 1, 2, 3, which invert to -1, 1, 1/2, 1/3
        for root in (-1, 1, Fraction(1, 2), Fraction(1, 3)):
            assert moved.evaluate_f(Fraction(root)) == 0
        assert genus(moved) == genus(c)

    def test_genus_invariant_random(self):
        rng = random.Random(23)
        done = reducible = 0
        while done < 100:
            m = rng.randrange(2, 7)
            s = rng.randrange(4, 8)
            pool = list(range(-8, 9))
            rng.shuffle(pool)
            roots = [(Fraction(pool[i]), rng.randrange(1, m) if m > 2 else 1)
                     for i in range(s)]
            c = SuperellipticCurve.from_branch_points(m, rng.randrange(1, 5), roots)
            if c.degree < 4:
                continue
            moved = move_branch_from_infinity(c)
            d = math.gcd(m, *(n for _, n in roots))
            if d > 1:
                # a reducible cover has no genus, before or after the flip
                for side in (c, moved):
                    with pytest.raises(HypothesisViolation, match=f"= {d}, "):
                        genus(side)
                reducible += 1
            else:
                assert genus(moved) == genus(c)
            done += 1
        assert reducible >= 1

    def test_factored_flip_matches_coefficient_flip(self):
        """The flip expands and reverses f; moving the branch points one by
        one, as the oracle does, must give the same curve."""
        rng = random.Random(31)
        divisible = Counter()
        for _ in range(120):
            m = rng.randrange(3, 7)
            count = rng.randrange(2, 7)
            thetas = []
            while len(thetas) < count:
                theta = Fraction(rng.randrange(-30, 31), rng.randrange(1, 7))
                if theta not in thetas:
                    thetas.append(theta)
            # one simple root keeps the cover irreducible
            roots = [(t, 1 if i == 0 else rng.randrange(1, m)) for i, t in enumerate(thetas)]
            if rng.random() < 0.5:
                while sum(n for _, n in roots) % m:
                    theta = Fraction(rng.randrange(31, 99), rng.randrange(1, 7))
                    if all(theta != t for t, _ in roots):
                        roots.append((theta, 1))
            c = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 5]))
            factored = SuperellipticCurve.from_branch_points(m, c, roots)
            divisible[factored.degree % m == 0] += 1
            moved = move_branch_from_infinity(factored)
            oracle = _factored_flip(m, c, roots)
            assert moved.f == oracle.f
            assert _point_multiplicities(moved) == _point_multiplicities(oracle)
            assert genus(moved) == genus(oracle) == genus(factored)
        assert divisible[True] > 20 and divisible[False] > 20


class TestEvaluate:
    def test_against_fraction_horner(self):
        """evaluate_f, one integer Horner over the kept integer form, equals
        the Fraction Horner over the rational coefficients on curves of both
        grammars, coefficient lists and products of branch points, of degree
        1 to MAX_DEGREE with denominators up to 12, at x = 0, at the roots,
        at negative x and at x with large denominators."""
        rng = random.Random(16001)
        for d in (1, 2, 3, 4, 7, 12, 33, MAX_DEGREE):
            m = rng.randint(2, 7)
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(d)]
            coeffs.append(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 12)))
            roots: dict[Fraction, int] = {}
            while sum(roots.values()) < d:
                theta = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                roots.setdefault(theta, min(rng.randint(1, 3), d - sum(roots.values())))
            lead = Fraction(rng.choice([-2, -1, 1, 5]), rng.randint(1, 12))
            factored = SuperellipticCurve.from_branch_points(m, lead, list(roots.items()))
            assert all(factored.evaluate_f(theta) == 0 for theta in roots)
            for curve in (SuperellipticCurve(m, coeffs), factored):
                assert curve.degree == d
                xs = [Fraction(0), Fraction(-1), Fraction(1, 12), *list(roots)[:5],
                      Fraction(rng.randint(-99, -1), rng.randint(1, 12)),
                      Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 12)),
                      Fraction(-(10 ** 20) - 3, 10 ** 18 + 1), Fraction(1, 10 ** 30 + 7)]
                for x in xs:
                    assert curve.evaluate_f(x) == fraction_horner(curve.f, x), (d, curve.f, x)


class TestDegreeLimit:
    def test_coefficients_above_the_limit(self):
        with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
            SuperellipticCurve(3, [1] + [0] * MAX_DEGREE + [1])

    def test_trailing_zeros_do_not_count(self):
        curve = SuperellipticCurve(3, [1] + [0] * (MAX_DEGREE - 1) + [1] + [0] * 10)
        assert curve.degree == MAX_DEGREE

    def test_factored_above_the_limit_is_not_expanded(self, monkeypatch):
        monkeypatch.setattr(ratpoly, "mul", None)
        with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
            SuperellipticCurve.from_branch_points(3, 1, [(0, 2), (1, MAX_DEGREE - 1)])
