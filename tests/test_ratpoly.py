"""Polynomials over Q: the integer-form gcd against Euclid over Fraction,
and Yun's square-free decomposition on integer forms against Yun over
Fraction."""

import random
import time
from fractions import Fraction

import pytest

from helpers import fraction_euclid as _fraction_euclid
from helpers import fraction_yun
from superchab import ratpoly


def _random_poly(rng, degree, dens=(1,)):
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(degree)]
    return coeffs + [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice(dens))]


def _product(factors):
    out = [Fraction(1)]
    for g, e in factors:
        for _ in range(e):
            out = ratpoly.mul(out, g)
    return out


def _planted_pair(rng):
    """f and g sharing planted factors, some repeated, with denominators."""
    dens = rng.choice(((1,), (1, 2, 3), (5, 7, 12)))
    shared = [(_random_poly(rng, rng.randint(1, 3), dens), rng.randint(1, 3))
              for _ in range(rng.randint(0, 2))]
    f = _product(shared + [(_random_poly(rng, rng.randint(0, 4), dens), rng.randint(1, 2))])
    g = _product(shared[: rng.randint(0, len(shared))]
                 + [(_random_poly(rng, rng.randint(0, 4), dens), 1)])
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return [scale * c for c in f], g


def _gcd(f, g):
    """The monic gcd of two polynomials over Q by ratpoly._int_gcd on their
    integer forms, as square-free decomposition reads it."""
    return ratpoly._monic(ratpoly._int_gcd(*(ratpoly.integer_form(h)[0] for h in (f, g))))


class TestGcd:
    def test_matches_fraction_euclid(self):
        rng = random.Random(909)
        nontrivial = 0
        for _ in range(300):
            f, g = _planted_pair(rng)
            want = _fraction_euclid(f, g)
            assert _gcd(f, g) == want
            assert _gcd(g, f) == want
            df = ratpoly.derivative(f)
            assert _gcd(f, df) == _fraction_euclid(f, df)
            nontrivial += ratpoly.degree(want) > 0
        assert nontrivial >= 100

    @pytest.mark.parametrize(
        "f, g, want",
        [
            ([], [], []),
            ([], [Fraction(-4), Fraction(2)], [Fraction(-2), Fraction(1)]),
            ([Fraction(2), Fraction(6)], [], [Fraction(1, 3), Fraction(1)]),
            ([Fraction(5)], [Fraction(1), Fraction(1)], [Fraction(1)]),
            ([Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)],
             [Fraction(3, 2), Fraction(1)]),
        ],
    )
    def test_edge_cases(self, f, g, want):
        assert _gcd(f, g) == want == _fraction_euclid(f, g)

    def test_degree_128_within_cpu_bound(self):
        # Euclid over Fraction takes minutes here; the integer form takes
        # about 0.12 s of CPU on a 2-core x86 host with Python 3.11
        rng = random.Random(128)
        f = _random_poly(rng, 128)
        start = time.process_time()
        g = _gcd(f, ratpoly.derivative(f))
        assert time.process_time() - start < 2.0
        assert g == [Fraction(1)]


class TestSquarefreeDecomposition:
    def test_recovers_planted_blocks(self):
        rng = random.Random(56)
        for _ in range(40):
            dens = rng.choice(((1,), (2, 3)))
            blocks = []
            for e in rng.sample(range(1, 5), rng.randint(1, 3)):
                roots = {Fraction(rng.randint(-20, 20), rng.choice(dens))
                         for _ in range(rng.randint(1, 3))}
                blocks.append((roots, e))
            # distinct roots across blocks keep the blocks coprime
            used = set()
            factors = []
            for roots, e in blocks:
                roots -= used
                used |= roots
                if roots:
                    factors.append((_product([([-t, Fraction(1)], 1) for t in sorted(roots)]), e))
            lead = Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 5)))
            f = [lead * c for c in _product(factors)]
            got_lead, got = ratpoly.squarefree_decomposition(f)
            assert got_lead == lead
            assert sorted((e, g) for g, e in got) == sorted((e, g) for g, e in factors)

    def test_integer_forms_match_fraction_yun(self):
        """Identical (lead, blocks) to Yun over Fraction, on products of
        random blocks with rational coefficients, content other than 1,
        negative leads and multiplicities 1 to 4."""
        rng = random.Random(21)
        repeated = 0
        for _ in range(150):
            dens = rng.choice(((1,), (1, 2, 3), (5, 7, 12)))
            factors = [(_random_poly(rng, rng.randint(0, 3), dens), rng.randint(1, 4))
                       for _ in range(rng.randint(1, 3))]
            lead = Fraction(rng.choice((-6, -2, -1, 1, 4, 9)), rng.choice((1, 3, 10)))
            f = [lead * c for c in _product(factors)]
            got = ratpoly.squarefree_decomposition(f)
            assert got == fraction_yun(f)
            repeated += any(e > 1 for _, e in got[1])
        assert repeated >= 75


def _horner_compose(f, a, b):
    """f(a + b*x) by Horner over polynomials, as ratpoly.compose_linear
    computed it before the Taylor shift."""
    out = []
    for c in reversed(ratpoly.normalize(f)):
        out = ratpoly.mul(out, [a, b]) or [Fraction(0)]
        out = ratpoly.normalize([out[0] + c, *out[1:]])
    return out


class TestComposeLinear:
    def test_taylor_shift_matches_horner(self):
        # over Fraction and over int (the Q_p zoom's integer polynomials),
        # with the same values and an int result for int input
        rng = random.Random(2020)
        for _ in range(200):
            f = _random_poly(rng, rng.randint(0, 9), rng.choice(((1,), (2, 3, 7))))
            a = Fraction(rng.randint(-30, 30), rng.choice((1, 1, 4)))
            b = Fraction(rng.choice((1, 3, 7, 49, -5)), rng.choice((1, 1, 2)))
            assert ratpoly.compose_linear(f, a, b) == _horner_compose(f, a, b)
            ints = [rng.randint(-99, 99) for _ in range(rng.randint(0, 9))] + [rng.randint(1, 9)]
            a, b = rng.randint(0, 12), rng.choice((2, 7, 13))
            got = ratpoly.compose_linear(ints, a, b)
            assert all(type(c) is int for c in got)
            assert got == _horner_compose(ints, Fraction(a), Fraction(b))
