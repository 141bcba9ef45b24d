"""Core p-adic arithmetic: frozen values plus algebraic properties."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchab.padic import (
    MAX_M,
    MAX_PRECISION,
    PadicContext,
    PadicNumber,
    _hensel_lift,
    chabauty_prime,
    euler_phi,
    is_mth_power,
    is_prime,
    iwasawa_log,
    mth_root,
    primitive_root_of_unity,
    qp_roots,
)

Q7 = PadicContext(7, 20)


def from_q(a, b=1, ctx=Q7):
    return PadicNumber.from_rational(a, b, ctx)


class TestRepresentation:
    def test_one_seventh(self):
        x = from_q(1, 7)
        assert x.valuation == -1
        assert x.residue() == 1

    def test_fourteen(self):
        x = from_q(14)
        assert x.valuation == 1
        assert x.residue() == 2

    def test_zero(self):
        z = PadicNumber.zero(Q7)
        assert z.is_zero
        assert z.valuation is None

    def test_fraction_multiplies_back(self):
        x = from_q(22, 35)
        assert ((x * from_q(35)) - from_q(22)).is_zero

    def test_context_rejects_composite(self):
        with pytest.raises(ValueError):
            PadicContext(10, 20)

    def test_context_precision_limit(self):
        assert PadicContext(7, MAX_PRECISION).precision == 1000
        with pytest.raises(ValueError, match="exceeds the limit 1000"):
            PadicContext(7, MAX_PRECISION + 1)

    def test_power_table_built_once(self):
        ctx = PadicContext(13, 40)
        assert ctx.powers == tuple(13**k for k in range(41))
        assert ctx.powers is ctx.powers
        # the table is a cache, not part of the context's value
        assert ctx == PadicContext(13, 40)

    @given(
        a=st.integers(min_value=-(10**6), max_value=10**6),
        b=st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=200)
    def test_round_trip(self, a, b):
        x = from_q(a, b)
        if a == 0:
            assert x.is_zero
            return
        q = Fraction(a, b)
        v = 0
        num, den = q.numerator, q.denominator
        while num % 7 == 0:
            num //= 7
            v += 1
        while den % 7 == 0:
            den //= 7
            v -= 1
        assert x.valuation == v
        assert ((x * from_q(q.denominator)) - from_q(q.numerator)).is_zero


class TestArithmetic:
    def test_subtraction(self):
        got = from_q(3, 5) - from_q(2, 35)
        assert got.valuation == -1
        assert (got - from_q(19, 35)).is_zero

    def test_exact_cancellation(self):
        x = from_q(5, 3)
        assert (x - x).is_zero

    def test_precision_loss_on_add(self):
        # inputs agree through 19 digits, so the difference has one known digit
        a = from_q(1)
        b = from_q(7**19 + 1)
        d = a - b
        assert d.valuation == 19
        assert d.known == 1

    def test_full_cancellation_collapses_to_zero(self):
        # the difference is 7^20, invisible at 20 digits, so it rounds to zero
        a = from_q(1)
        b = from_q(7**20 + 1)
        assert (a - b).is_zero

    def test_division_by_p_shifts(self):
        x = from_q(14) / from_q(7)
        assert x.valuation == 0
        assert x.residue() == 2

    @given(
        a=st.integers(min_value=-999, max_value=999).filter(lambda n: n != 0),
        b=st.integers(min_value=-999, max_value=999).filter(lambda n: n != 0),
    )
    @settings(max_examples=150)
    def test_mul_valuations_add(self, a, b):
        x, y = from_q(a), from_q(b)
        assert (x * y).valuation == x.valuation + y.valuation

    @given(st.integers(min_value=-50, max_value=50).filter(lambda n: n != 0))
    def test_div_inverts(self, a):
        x = from_q(a)
        assert ((x / x) - from_q(1)).is_zero


class TestRootsAndPowers:
    def test_cube_detection(self):
        assert not is_mth_power(from_q(2), 3)
        assert not is_mth_power(from_q(7), 3)
        assert is_mth_power(from_q(6), 3)
        assert is_mth_power(from_q(343), 3)

    def test_cube_root_of_six(self):
        r = mth_root(from_q(6), 3)
        assert r.value_mod(2) == 24
        assert ((r * r * r) - from_q(6)).is_zero

    def test_cube_root_of_343(self):
        r = mth_root(from_q(343), 3)
        assert (r - from_q(7)).is_zero

    def test_root_of_unity(self):
        z3 = primitive_root_of_unity(3, Q7)
        assert z3.value_mod(2) == 30
        assert ((z3**3) - from_q(1)).is_zero
        z2 = primitive_root_of_unity(2, Q7)
        assert (z2 + from_q(1)).is_zero

    def test_root_of_unity_exact_order(self):
        ctx13 = PadicContext(13, 20)
        z6 = primitive_root_of_unity(6, ctx13)
        one = PadicNumber.from_int(1, ctx13)
        for k in range(1, 6):
            assert not ((z6**k) - one).is_zero
        assert ((z6**6) - one).is_zero

    def test_p_dividing_m_rejected(self):
        with pytest.raises(ValueError):
            is_mth_power(from_q(6), 7)

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=100)
    def test_mth_root_of_cube(self, a):
        x = from_q(a)
        c = x * x * x
        r = mth_root(c, 3)
        assert ((r**3) - c).is_zero


class TestHenselLift:
    """The Newton lift shared by mth_root, primitive_root_of_unity and
    qp_roots, checked against its defining congruences and against frozen
    values of its three callers."""

    def test_defining_congruences(self):
        rng = random.Random(5)
        for p in (7, 13, 31):
            for m in [m for m in range(1, p) if (p - 1) % m == 0]:
                for digits in (1, 2, 9, 20):
                    mod = p**digits
                    t = rng.randrange(1, mod)
                    while t % p == 0 or pow(t, (p - 1) // m, p) != 1:
                        t = rng.randrange(1, mod)
                    w0 = rng.choice([w for w in range(1, p) if pow(w, m, p) == t % p])
                    w = _hensel_lift([-t] + [0] * (m - 1) + [1], w0, p, digits)
                    assert 0 <= w < mod
                    assert w % p == w0
                    assert pow(w, m, mod) == t

    @staticmethod
    def _digits(x):
        return (x.valuation, x.unit, x.known)

    def test_frozen_mth_roots(self):
        q13, q31 = PadicContext(13, 15), PadicContext(31, 12)
        cases = [
            (from_q(6), 3, (0, 74501260446390690, 20)),
            (from_q(343 * 6), 3, (1, 74501260446390690, 20)),
            (PadicNumber.from_int(3, q13), 4, (0, 29490207606702364, 15)),
            (PadicNumber.from_rational(25, 6, q31), 5, (0, 325107998386650448, 12)),
            (PadicNumber.from_int(31**5 * 30, q31), 5, (1, 534764195231326620, 12)),
            # the scan stops at the least cube root 60 of 60^3 mod p
            (PadicNumber.from_int(216000, PadicContext(999979, 20)), 3, (0, 60, 20)),
        ]
        for x, m, want in cases:
            assert self._digits(mth_root(x, m)) == want

    def test_frozen_roots_of_unity(self):
        q13, q31 = PadicContext(13, 15), PadicContext(31, 12)
        cases = [
            (3, Q7, 22143577275619760),
            (6, Q7, 22143577275619761),
            (4, q13, 13920898306972194),
            (12, q13, 30846840611253682),
            (5, q31, 72477097614684992),
            (15, q31, 374184469601122065),
        ]
        for m, ctx, unit in cases:
            zeta = primitive_root_of_unity(m, ctx)
            assert self._digits(zeta) == (0, unit, ctx.precision)

    def test_frozen_qp_roots(self):
        q13 = PadicContext(13, 15)
        cases = [
            ([-2, 0, 1], Q7, [(0, 4609765579368303, 20), (0, 75182500718243698, 20)]),
            ([344, -345, 1], Q7, [(0, 1, 20), (0, 344, 20)]),
            ([2, -15, 7], Q7, [(-1, 1, 20), (0, 2, 20)]),
            ([0, 1, 1], Q7, [None, (0, 79792266297612000, 20)]),
            (
                [-3, 0, 0, 0, 1],
                q13,
                [
                    (0, 2399150696294628, 15),
                    (0, 21695685407388393, 15),
                    (0, 29490207606702364, 15),
                    (0, 48786742317796129, 15),
                ],
            ),
        ]
        for poly, ctx, want in cases:
            roots, complete = qp_roots([Fraction(c) for c in poly], ctx)
            assert complete
            got = [None if r.is_zero else self._digits(r) for r in roots]
            assert sorted(got, key=repr) == sorted(want, key=repr)


class TestIwasawaLog:
    def test_log_of_p_vanishes(self):
        assert iwasawa_log(from_q(7)).is_zero

    def test_log_eight(self):
        assert iwasawa_log(from_q(8)).value_mod(3) == 154

    def test_log_one(self):
        assert iwasawa_log(from_q(1)).is_zero

    @given(
        a=st.integers(min_value=1, max_value=200),
        b=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, a, b):
        la = iwasawa_log(from_q(a))
        lb = iwasawa_log(from_q(b))
        lab = iwasawa_log(from_q(a * b))
        diff = lab - (la + lb)
        assert diff.is_zero or diff.valuation >= 15

    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_p_power_invariance(self, a, k):
        x = from_q(a)
        shifted = from_q(a * 7**k)
        d = iwasawa_log(shifted) - iwasawa_log(x)
        assert d.is_zero or d.valuation >= 15


class TestChabautyPrime:
    def test_frozen_values(self):
        assert chabauty_prime(3) == (7, 3)
        assert chabauty_prime(2) == (3, 1)
        assert chabauty_prime(5) == (11, 15)

    def test_prime_is_one_mod_m(self):
        for m in range(2, 40):
            q, _ = chabauty_prime(m)
            assert is_prime(q)
            assert q % m == 1

    def test_minimality_by_sieve(self):
        for m in range(2, 40):
            q, _ = chabauty_prime(m)
            for candidate in range(2, q):
                assert not (is_prime(candidate) and candidate % m == 1)

    def test_m_limit(self):
        assert chabauty_prime(MAX_M)[0] == 70001
        with pytest.raises(ValueError, match=f"MAX_M = {MAX_M}"):
            chabauty_prime(MAX_M + 1)

    @given(st.integers(min_value=2, max_value=64))
    @settings(max_examples=63)
    def test_size_bound(self, m):
        q, cap = chabauty_prime(m)
        assert cap == 2 ** euler_phi(m) - 1
        # the reporting cap fails for m in {2, 3, 4, 6, 8}; one extra
        # doubling always suffices
        assert q <= 2 ** (euler_phi(m) + 1) - 1
        if m not in (2, 3, 4, 6, 8):
            assert q <= cap
        else:
            assert q > cap


class TestPrimality:
    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=200)
    def test_against_trial_division(self, n):
        trial = all(n % d for d in range(2, int(math.isqrt(n)) + 1))
        assert is_prime(n) == trial

    def test_strong_pseudoprimes(self):
        # Carmichael numbers and base-2 pseudoprimes
        for n in (341, 561, 1105, 1729, 25326001, 3215031751):
            assert not is_prime(n)
