"""Laurent series on discs and annuli: arithmetic, Newton polygons, zero
counts, branch factors and Coleman integration on a single chart."""

import inspect
import math
import random
import textwrap
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superchab.series
from helpers import (
    abs_precision,
    full_branch_product,
    fused_product_stripped,
    lift_fraction,
    padic_agree,
    series_agree,
)
from superchab.padic import PadicContext, PadicNumber, PrecisionError, _vp, iwasawa_log
from superchab.series import (
    AnnulusSpec,
    LaurentSeries,
    TailBound,
    bc_integral,
    branch_root_series,
    count_zeros_annulus,
    formal_antiderivative,
    mth_root_series,
    mu_factor,
    newton_polygon,
    rolle_zero_bound,
)

Q7 = PadicContext(7, 20)
ANN1 = AnnulusSpec.annulus(1)
DISC = AnnulusSpec.disc()


def series(data, ctx=Q7, domain=ANN1):
    return LaurentSeries.from_dict(data, ctx, domain)


class TestRingOps:
    def test_add_aligns_windows(self):
        a = series({0: 1, 2: 3})
        b = series({1: 7, 2: -3})
        c = a + b
        assert c.coefficient(0).residue() == 1
        assert c.coefficient(2).is_zero
        assert c.coefficient(1).valuation == 1

    def test_mul_convolves(self):
        a = series({-1: 1, 0: 1})
        b = series({1: 1, 0: 1})
        c = a * b
        # (z^-1 + 1)(1 + z) = z^-1 + 2 + z
        assert c.coefficient(-1).residue() == 1
        assert c.coefficient(0).residue() == 2
        assert c.coefficient(1).residue() == 1

    def test_pow_matches_repeated_mul(self):
        a = series({0: 2, 1: 1, -1: 7})
        assert series_agree(pow(a, 3, 3), a * a * a, 15)
        cut = pow(a, 3, 1)
        assert (cut.lo, cut.hi) == (-3, 1)
        assert series_agree(cut, a * a * a, 15)

    def test_disc_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            LaurentSeries.from_dict({-1: 1}, Q7, AnnulusSpec.disc())

    def test_shift(self):
        a = series({0: 5})
        assert a.shifted(3).coefficient(3).residue() == 5

    def test_scaled_by_p_raises_tail_floor(self):
        f = branch_root_series(PadicNumber.from_int(7, Q7), 3, order=8, domain=ANN1)
        g = f.scaled(PadicNumber.from_int(7, Q7))
        assert g.tail_below.offset == f.tail_below.offset + 1

    @given(
        st.dictionaries(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-50, max_value=50),
            max_size=5,
        ),
        st.dictionaries(
            st.integers(min_value=-4, max_value=4),
            st.integers(min_value=-50, max_value=50),
            max_size=5,
        ),
    )
    @settings(max_examples=100)
    def test_mul_commutes(self, d1, d2):
        a, b = series(d1 or {0: 1}), series(d2 or {0: 1})
        assert series_agree(a * b, b * a, 18)


# -- the PadicNumber double loop the triple kernel replaced, as an oracle ------


def _oracle_add(a, b, seen):
    """PadicNumber.__add__ as it was before the shared sum rule; `seen`
    counts the exact and partial cancellations it meets."""
    if a.context != b.context:
        raise ValueError("mixed p-adic contexts")
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    p = a.context.prime
    v = min(a.valuation, b.valuation)
    window = min(abs_precision(a), abs_precision(b)) - v
    if window <= 0:
        raise PrecisionError("additive window exhausted")
    mod = p**window
    s = (a.unit * p ** (a.valuation - v) + b.unit * p ** (b.valuation - v)) % mod
    if s == 0:
        seen["exact"] += 1
        return PadicNumber.zero(a.context)
    t = _vp(s, p)
    seen["partial"] += t > 0
    known = min(window - t, a.context.precision)
    if known <= 0:
        return PadicNumber.zero(a.context)
    return PadicNumber(a.context, v + t, (s // p**t) % p**known, known)


def _oracle_mul(a, b):
    """PadicNumber.__mul__ of two nonzero numbers, as it was."""
    if a.context != b.context:
        raise ValueError("mixed p-adic contexts")
    known = min(a.known, b.known)
    mod = a.context.prime**known
    return PadicNumber(a.context, a.valuation + b.valuation, a.unit * b.unit % mod, known)


def _oracle_products(x, y, seen):
    """The dict-of-PadicNumber double loop of LaurentSeries.__mul__."""
    acc = {}
    for i, a in x.coefficients.items():
        for j, b in y.coefficients.items():
            n = i + j
            prod = _oracle_mul(a, b)
            acc[n] = _oracle_add(acc[n], prod, seen) if n in acc else prod
    return acc


def _triples(items):
    return [(n, (c.valuation, c.unit, c.known)) for n, c in items]


def _random_coefficient(rng, ctx):
    p, prec = ctx.prime, ctx.precision
    roll = rng.random()
    # mostly full precision, some fewer digits, a few with no digit known
    # (the only way to exhaust an additive window)
    known = prec if roll < 0.5 else (0 if roll > 0.98 else rng.randint(1, prec))
    unit = rng.randrange(1, p ** (known + 1))
    if unit % p == 0:
        unit += 1
    return PadicNumber(ctx, rng.randint(-6, 6), unit % p**known, known)


def _truncated(c, known):
    """c with only `known` unit digits kept."""
    p = c.context.prime
    known = min(known, c.known)
    return PadicNumber(c.context, c.valuation, c.unit % p**known, known)


def _random_coefficients(rng, ctx, exps):
    return {rng.randint(*exps): _random_coefficient(rng, ctx) for _ in range(rng.randint(1, 6))}


def _random_pair(rng, domain=ANN1, exps=(-5, 5)):
    """Two series over one context; often with a planted cancellation
    and sometimes with a truncated side that clips the product window."""
    ctx = PadicContext(rng.choice((3, 5, 7, 13)), rng.randint(2, 40))
    p = ctx.prime
    xs, ys = (_random_coefficients(rng, ctx, exps) for _ in range(2))
    if len(xs) >= 2 and rng.random() < 0.6:
        # plant x_i1*y_j1 + x_i2*y_j2 = p^r*w, exactly 0 when w = 0
        i1, i2 = rng.sample(sorted(xs), 2)
        j1 = rng.choice(sorted(ys))
        j2 = i1 + j1 - i2
        w = rng.choice((0, rng.randint(1, 50)))
        r = xs[i1].valuation + ys[j1].valuation + rng.randint(1, 8)
        target = Fraction(p) ** r * w - lift_fraction(xs[i1]) * lift_fraction(ys[j1])
        if (
            target
            and all(xs[i].known and ys[j1].known for i in (i1, i2))
            and not (domain.is_disc and j2 < 0)
        ):
            exact = PadicNumber.from_fraction(target / lift_fraction(xs[i2]), ctx)
            keep = ctx.precision if rng.random() < 0.6 else rng.randint(1, ctx.precision)
            ys[j2] = _truncated(exact, keep)
    x = LaurentSeries.from_dict(xs, ctx, domain)
    y = LaurentSeries.from_dict(ys, ctx, domain)
    if rng.random() < 0.25:
        x = LaurentSeries(
            ctx, x.coefficients, domain, x.lo, x.hi + rng.randint(0, 2),
            None, TailBound(Fraction(1)),
        )
    return x, y


def _checked_product(x, y, seen):
    """x * y, asserted equal to the oracle loop in every coefficient and in
    key order; a PrecisionError of the oracle must be raised by x * y too."""
    try:
        acc = _oracle_products(x, y, seen)
    except PrecisionError:
        seen["raised"] += 1
        with pytest.raises(PrecisionError):
            x * y
        raise
    got = x * y
    want = [(n, c) for n, c in acc.items() if not c.is_zero and got.lo <= n <= got.hi]
    assert _triples(got.coefficients.items()) == _triples(want)
    seen["collapsed"] += any(c.is_zero for c in acc.values())
    seen["unsorted"] += list(got.coefficients) != got.support()
    return got


def _checked_power(x, e, seen):
    """x ** e by the square-and-multiply of LaurentSeries.__pow__, each
    product checked against the oracle."""
    result = LaurentSeries.one(x.context, x.domain)
    base = x
    while e:
        if e & 1:
            result = _checked_product(result, base, seen)
        e >>= 1
        if e:
            base = _checked_product(base, base, seen)
    return result


class TestProductOracle:
    def test_seeded_sweep(self):
        rng = random.Random(20240531)
        seen = {"exact": 0, "partial": 0, "raised": 0, "clipped": 0}
        for _ in range(2400):
            x, y = _random_pair(rng)
            try:
                acc = _oracle_products(x, y, seen)
            except PrecisionError:
                seen["raised"] += 1
                with pytest.raises(PrecisionError):
                    x * y
                continue
            got = x * y
            nonzero = [(n, c) for n, c in acc.items() if not c.is_zero]
            want = [(n, c) for n, c in nonzero if got.lo <= n <= got.hi]
            seen["clipped"] += len(want) < len(nonzero)
            assert _triples(got.coefficients.items()) == _triples(want)
        # the sweep must reach every branch of the sum rule
        assert seen["exact"] >= 300
        assert seen["partial"] >= 150
        assert seen["raised"] >= 30
        assert seen["clipped"] >= 100

    @pytest.mark.parametrize(
        "domain, exps, seed",
        [(ANN1, (-5, 5), 20261018), (AnnulusSpec.disc(), (0, 8), 20261019)],
    )
    def test_chained_products_and_powers(self, domain, exps, seed):
        """A product's output, with the key order it produced and its
        collapsed exponents dropped, feeds a second product and a power.
        The power is taken whole and cut at a drawn bound: the cut one keeps
        the full power's coefficients up to the bound, in the same key
        order, and its tail floor holds every coefficient it drops."""
        rng = random.Random(seed)
        seen = {"exact": 0, "partial": 0, "raised": 0, "collapsed": 0, "unsorted": 0}
        chained = cut = 0
        for _ in range(500):
            x, y = _random_pair(rng, domain, exps)
            w = LaurentSeries.from_dict(_random_coefficients(rng, x.context, exps), x.context, domain)
            e = rng.randint(2, 7)
            try:
                xy = _checked_product(x, y, seen)
                _checked_product(xy, w, seen)
                _checked_product(w, xy, seen)
                want = _checked_power(xy, e, seen)
            except PrecisionError:
                continue
            for hi in (want.hi, rng.randint(want.lo, want.hi)):
                got = pow(xy, e, hi)
                assert (got.lo, got.hi) == (want.lo, hi)
                kept = [(n, c) for n, c in want.coefficients.items() if n <= hi]
                assert _triples(got.coefficients.items()) == _triples(kept)
                if hi == want.hi:
                    assert (got.tail_below, got.tail_above) == (want.tail_below, want.tail_above)
                    continue
                for n, c in want.coefficients.items():
                    if n > hi:
                        assert c.valuation >= got.tail_above.at(n - hi)
                        cut += 1
            chained += 1
        assert chained >= 350
        assert cut >= 1000
        assert seen["exact"] >= 500
        assert seen["partial"] >= 1000
        assert seen["raised"] >= 30
        assert seen["collapsed"] >= 100
        assert seen["unsorted"] >= 1000

    def test_mixed_contexts_rejected(self):
        a = series({0: 1, 1: 2})
        b = series({0: 1, 1: 2}, ctx=PadicContext(7, 30))
        with pytest.raises(ValueError, match="mixed p-adic contexts"):
            a * b


def _inner_like(rng):
    """A series shaped like a product of inner branch factors: coefficients
    at -n of valuation about n * beta, a few at n >= 0, all shifted by a
    common valuation, some known to fewer digits than the precision, and a
    tail on both sides."""
    ctx = PadicContext(rng.choice((3, 5, 7, 13)), rng.randint(8, 30))
    p, prec = ctx.prime, ctx.precision
    beta, shift = rng.randint(1, 3), rng.randint(-2, 2)
    below, above = rng.randint(1, 8), rng.randint(0, 5)
    coeffs = {}
    for n in range(-below, above + 1):
        if n not in (-1, 0) and rng.random() < 0.2:
            continue
        v = shift + beta * max(-n, 0) + (0 if n == 0 else rng.randint(0, 2))
        known = prec if rng.random() < 0.7 else rng.randint(1, prec)
        unit = rng.randrange(1, p**known)
        coeffs[n] = PadicNumber(ctx, v, unit + (unit % p == 0), known)
    domain = AnnulusSpec.annulus(beta)
    lo, hi = -below - rng.randint(0, 2), above + rng.randint(0, 2)
    return LaurentSeries(
        ctx, coeffs, domain, lo, hi,
        TailBound(Fraction(beta), Fraction(beta * (below + 1) + shift)),
        TailBound(Fraction(rng.randint(0, 1)), Fraction(shift)),
    )


def _bottom_floor_holds(cut, full):
    """Every coefficient of full below cut's window sits on or above cut's
    lower tail floor."""
    return all(
        c.valuation >= cut.tail_below.at(cut.lo - n)
        for n, c in full.coefficients.items()
        if n < cut.lo
    )


class TestBottomCut:
    """`s.__pow__(m, hi, lo)` against the power whole below,
    `pow(s, m, hi)`, kept as its oracle."""

    def test_seeded_sweep(self):
        rng = random.Random(2023)
        cuts = dropped = partial = 0
        for _ in range(400):
            s = _inner_like(rng)
            m = rng.randint(2, 7)
            whole = pow(s, m, s.hi * m)
            for hi in (whole.hi, rng.randint(0, whole.hi)):
                full = pow(s, m, hi)
                lo = rng.randint(full.lo - 2, min(0, hi))
                got = s.__pow__(m, hi, lo)
                kept = [(n, c) for n, c in full.coefficients.items() if n >= lo]
                assert _triples(got.coefficients.items()) == _triples(kept)
                assert got.hi == full.hi
                assert (got.tail_above is None) == (full.tail_above is None)
                if lo < full.lo:
                    assert (got.lo, got.tail_below) == (full.lo, full.tail_below)
                    continue
                cuts += 1
                partial += hi < whole.hi
                assert got.lo == lo
                assert _bottom_floor_holds(got, full)
                low = [c.valuation for n, c in full.coefficients.items() if n < lo]
                if not low:
                    continue
                dropped += 1
                planted = LaurentSeries(
                    s.context, got.coefficients, s.domain, got.lo, got.hi,
                    TailBound(Fraction(0), Fraction(min(low) + 1)), got.tail_above,
                )
                assert not _bottom_floor_holds(planted, full)
        assert cuts >= 500
        assert dropped >= 400
        assert partial >= 200

    def test_floor_is_the_stored_slope(self):
        # alpha = 0 and sigma = 2/2 = 1: the floor at exponent e < 0 of s^3
        # is -e, read from the cut at -2 as 2 + d at distance d
        s = series({-2: 7**2, -1: 7**3, 0: 1, 1: 1})
        got = s.__pow__(3, 3, -2)
        assert got.tail_below == TailBound(Fraction(1), Fraction(2))

    def test_needs_a_positive_slope(self):
        for data in ({0: 1, 1: 1}, {-1: 1, 0: 1}, {-1: Fraction(1, 7), 0: 1}):
            with pytest.raises(ValueError, match="positive slope"):
                series(data).__pow__(3, 3, -1)


# -- product tail floors against products of longer factors -------------------


def _unit_at(rng, ctx, v):
    """An exact coefficient of valuation v: a unit known to every digit."""
    p = ctx.prime
    unit = rng.randrange(1, p**ctx.precision)
    return PadicNumber(ctx, v, unit + (unit % p == 0), ctx.precision)


def _truncation(rng, ctx, side):
    """A factor on [lo, hi] and a longer one that agrees with it there.
    On the side drawn (1 above, -1 below) the factor is entire or carries a
    tail floor that the longer one's extra coefficients meet, often with
    equality; on the other side both are entire, so no pair of a lower and
    an upper tail lands anywhere."""
    lo, hi = rng.randint(-4, 0), rng.randint(0, 4)
    stored = {n: _unit_at(rng, ctx, rng.randint(-2, 4)) for n in range(lo, hi + 1) if rng.random() < 0.8}
    stored = stored or {lo: _unit_at(rng, ctx, 0)}
    longer = dict(stored)
    tail = None
    if rng.random() < 0.7:
        tail = TailBound(Fraction(rng.randint(0, 2)), Fraction(rng.randint(-3, 4)))
        rim = hi if side > 0 else lo
        for d in range(1, rng.randint(1, 6) + 1):
            if rng.random() < 0.8:
                v = tail.at(d) + (0 if rng.random() < 0.6 else rng.randint(1, 2))
                longer[rim + side * d] = _unit_at(rng, ctx, int(v))
    below, above = (None, tail) if side > 0 else (tail, None)
    return (
        LaurentSeries(ctx, stored, ANN1, lo, hi, below, above),
        LaurentSeries.from_dict(longer, ctx, ANN1),
    )


def _floor_misses(got, whole, side):
    """The coefficients of whole past got's window on one side (1 above,
    -1 below) that sit under got's tail floor there, as (exponent,
    valuation, floor at their distance)."""
    tail, edge = (got.tail_above, got.hi) if side > 0 else (got.tail_below, got.lo)
    return [
        (n, c.valuation, tail and tail.at(d))
        for n, c in whole.coefficients.items()
        if (d := side * (n - edge)) > 0 and (tail is None or c.valuation < tail.at(d))
    ]


class TestProductFloors:
    """Every tail floor of a product holds the coefficients that the
    products of longer factors, consistent with the factors' own floors,
    have past the product's window."""

    def test_seeded_sweep(self):
        rng = random.Random(20261020)
        seen = Counter()
        for _ in range(1500):
            ctx = PadicContext(rng.choice((3, 5, 7)), 12)
            side = rng.choice((1, -1))
            (x, xl), (y, yl) = (_truncation(rng, ctx, side) for _ in range(2))
            kind = rng.choice(("mul", "cut", "pow"))
            try:
                if kind == "mul":
                    got, whole = x * y, xl * yl
                elif kind == "cut":
                    top = rng.randint(x.lo + y.lo, x.hi + y.hi)
                    got, whole = x.mul_cut(y, top), xl * yl
                else:
                    e = rng.randint(2, 3)
                    top = rng.randint(e * x.lo, e * x.hi)
                    got, whole = pow(x, e, top), pow(xl, e, e * max(xl.coefficients))
            except PrecisionError:
                seen["collapsed"] += 1
                continue
            assert _floor_misses(got, whole, side) == []
            edge = got.hi if side > 0 else got.lo
            past = [n for n in whole.coefficients if side * (n - edge) > 0]
            seen[kind] += bool(past)
            tails = [s.tail_above if side > 0 else s.tail_below for s in (x, y)]
            seen["two tails"] += kind != "pow" and None not in tails and bool(past)
            natural = x.hi + y.hi if side > 0 else x.lo + y.lo
            seen["pinned"] += kind == "mul" and edge != natural and bool(past)
        assert min(seen["mul"], seen["cut"], seen["pow"]) >= 300, seen
        assert seen["two tails"] >= 200 and seen["pinned"] >= 150, seen

    def test_pinned_edge_folds_the_dropped_coefficients(self):
        # a stores c_n of valuation n on [0, 5] with tail TailBound(1, 5);
        # the entire b stores units on [-3, 0], so a * b is pinned at
        # 5 - 3 = 2, and its coefficient at 3, c_3 b_0 + ... , has valuation 3
        a = LaurentSeries(
            Q7, {n: PadicNumber.from_int(7**n, Q7) for n in range(6)}, ANN1, 0, 5,
            None, TailBound(Fraction(1), Fraction(5)),
        )
        b = series({n: 1 for n in range(-3, 1)})
        longer = series({n: 7**n for n in range(9)})
        got = a * b
        assert (got.lo, got.hi) == (-3, 2)
        assert (longer * b).coefficient(3).valuation == 3
        assert _floor_misses(got, longer * b, 1) == []

    def test_tail_measured_from_the_edge(self):
        # an entire factor times one whose lower tail TailBound(1, 3) is met
        # with equality: the product's coefficients at distance d past its
        # edge have valuation 3 + d, which is its floor there
        a = LaurentSeries(
            Q7, {0: PadicNumber.from_int(1, Q7)}, ANN1, 0, 0, TailBound(Fraction(1), Fraction(3))
        )
        longer = series({0: 1, **{-d: 7 ** (3 + d) for d in range(1, 6)}})
        one = series({0: 1})
        got = a * one
        assert got.tail_below == TailBound(Fraction(1), Fraction(3))
        assert _floor_misses(got, longer * one, -1) == []

    def test_two_tails_meet(self):
        # p^5 + O(z): each unknown coefficient past the window may be a unit,
        # so the product's coefficient at 2 may be a unit too, under the
        # floor of 5 that a tail times the other's stored p^5 gives
        a = LaurentSeries(
            Q7, {0: PadicNumber.from_int(7**5, Q7)}, ANN1, 0, 0, None, TailBound(Fraction(0))
        )
        longer = series({0: 7**5, 1: 1, 2: 1})
        got = a * a
        assert (longer * longer).coefficient(2).valuation == 0
        assert _floor_misses(got, longer * longer, 1) == []


# -- the stripped-state kernel as the oracle for the unstripped one -------------


def _chart_shaped(rng, ctx, domain, zero_known):
    """A series shaped like a chart's branch product: 30 to 70 stored
    coefficients around exponent 0, valuations growing with |n| (a steeper
    rate below 0, as inner factors give, than above), some known to fewer
    digits than the precision, one known to no digit when zero_known, a tail
    on each side or none, and often keys out of exponent order."""
    p, prec = ctx.prime, ctx.precision
    count = rng.randint(30, 70)
    span = count + rng.randint(0, 6)
    below = 0 if domain.is_disc else rng.randint(span // 4, 3 * span // 4)
    exps = sorted(rng.sample(range(-below, span - below), count))
    down, up, shift = rng.randint(1, 3), rng.randint(0, 1), rng.randint(-2, 2)
    coeffs = {}
    for n in exps:
        v = shift + down * max(-n, 0) + up * max(n, 0) + rng.randint(0, 1)
        known = prec if rng.random() < 0.7 else rng.randint(1, prec)
        unit = rng.randrange(1, p**known)
        coeffs[n] = PadicNumber(ctx, v, unit + (unit % p == 0), known)
    if zero_known:
        n = rng.choice(exps)
        coeffs[n] = PadicNumber(ctx, coeffs[n].valuation, 0, 0)
    if rng.random() < 0.5:
        items = list(coeffs.items())
        rng.shuffle(items)
        coeffs = dict(items)
    lo, hi = exps[0] - rng.randint(0, 2), exps[-1] + rng.randint(0, 2)
    if domain.is_disc:
        lo = 0
    below_tail = TailBound(Fraction(down), Fraction(shift + down * (-lo)))
    above_tail = TailBound(Fraction(up), Fraction(shift + up * hi))
    return LaurentSeries(
        ctx, coeffs, domain, lo, hi,
        below_tail if rng.random() < 0.6 else None,
        above_tail if rng.random() < 0.6 else None,
    )


def _plant_cancellation(rng, x, y):
    """y with one coefficient y_j2 replaced so that the coefficient of x * y
    at some n = i1 + j1 is p^r * w, w = 0 or small and r past most
    windows, and the exponent n; y and None when the drawn pair has no
    room in y."""
    ctx = x.context
    p = ctx.prime
    i1, i2 = rng.sample(sorted(x.coefficients), 2)
    j1 = rng.choice(sorted(y.coefficients))
    n, j2 = i1 + j1, i1 + j1 - i2
    if not y.lo <= j2 <= y.hi or not x.coefficients[i2].known:
        return y, None
    lift = lambda s, k: lift_fraction(s.coefficients[k]) if k in s.coefficients else 0
    rest = sum(lift(x, i) * lift(y, n - i) for i in x.coefficients if i != i2)
    v = x.coefficients[i1].valuation + y.coefficients[j1].valuation
    target = Fraction(p) ** (v + rng.randint(1, ctx.precision + 4)) * rng.choice((0, rng.randint(1, 50)))
    if target == rest:
        return y, None
    exact = PadicNumber.from_fraction((target - rest) / lift(x, i2), ctx)
    keep = ctx.precision if rng.random() < 0.6 else rng.randint(1, ctx.precision)
    coeffs = dict(y.coefficients)
    coeffs[j2] = _truncated(exact, keep)
    planted = LaurentSeries(ctx, coeffs, y.domain, y.lo, y.hi, y.tail_below, y.tail_above)
    return planted, n


def _kernel_case(rng):
    """Two chart-shaped factors with planted cancellations, and the cut
    arguments of one _product call: a top cut with its floor, a bottom
    cut with its tail, both or neither."""
    ctx = PadicContext(rng.choice((3, 5, 7, 13)), rng.randint(6, 40))
    domain = DISC if rng.random() < 0.25 else AnnulusSpec.annulus(rng.randint(1, 3))
    zero = rng.random() < 0.15
    x = _chart_shaped(rng, ctx, domain, zero and rng.random() < 0.5)
    y = _chart_shaped(rng, ctx, domain, zero)
    planted = []
    for _ in range(rng.randint(1, 3)):
        y, n = _plant_cancellation(rng, x, y)
        if n is not None:
            planted.append(n)
    lo, hi = x.lo + y.lo, x.hi + y.hi
    top = floor = bottom = tail = None
    if rng.random() < 0.6:
        top = rng.randint((lo + hi) // 2, hi + 2)
        floor = x._min_stored_valuation() + y._min_stored_valuation()
    if not domain.is_disc and rng.random() < 0.5:
        upper = hi if top is None else min(hi, top)
        bottom = rng.randint(lo - 2, (lo + upper) // 2)
        tail = TailBound(Fraction(rng.randint(1, 3)), Fraction(rng.randint(-4, 8)))
    return x, y, (top, floor, bottom, tail), planted


def _outcome(kernel, x, y, cut):
    """Triples in key order, window and tails of kernel(x, y, *cut), or the
    type and message of what it raised."""
    try:
        r = kernel(x, y, *cut)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (_triples(r.coefficients.items()), (r.lo, r.hi), (r.tail_below, r.tail_above))


def _kernel_sweep(kernel, seed, cases):
    """kernel against fused_product_stripped on seeded chart-shaped products;
    counts of the branches the cases reached."""
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(cases):
        x, y, cut, planted = _kernel_case(rng)
        want = _outcome(fused_product_stripped, x, y, cut)
        assert _outcome(kernel, x, y, cut) == want
        seen["top"] += cut[0] is not None
        seen["bottom"] += cut[2] is not None
        seen["zero_known"] += any(not c.known for c in y.coefficients.values())
        if want[0] == "raised":
            seen[want[2]] += 1
            continue
        got = dict(want[0])
        lo, hi = want[1]
        seen["collapsed"] += sum(lo <= n <= hi and n not in got for n in planted)
        seen["lowered"] += sum(n in got and got[n][2] < x.context.precision for n in planted)
    return seen


def _product_mutant(anchor, lines):
    """LaurentSeries._product with lines put in before its one line that
    ends in anchor, at that line's indent."""
    source = textwrap.dedent(inspect.getsource(LaurentSeries._product))
    assert source.count(anchor) == 1
    indent = source[: source.index(anchor)].rsplit("\n", 1)[1]
    inserted = "".join(indent + line + "\n" for line in lines)
    mutated = source.replace(indent + anchor, inserted + indent + anchor)
    namespace = dict(vars(superchab.series))
    exec(mutated, namespace)
    return namespace["_product"]


def _strip_first_mutant():
    """LaurentSeries._product with p stripped from each sum before the
    collapse test, the window shrunk by the digits stripped: a sum that
    vanishes to more digits than its window no longer collapses."""
    return _product_mutant(
        "s %= powers[window]\n",
        ("while s and s % p == 0:", "    s //= p", "    w += 1", "    window -= 1"),
    )


class TestKernelOracle:
    """LaurentSeries._product, which strips p once per output coefficient,
    against the kernel that stripped it from every sum
    (`helpers.fused_product_stripped`)."""

    def test_seeded_sweep(self):
        seen = _kernel_sweep(LaurentSeries._product, 20261020, 400)
        assert seen["top"] >= 200 and seen["bottom"] >= 120
        assert seen["zero_known"] >= 40
        assert seen["additive window exhausted"] >= 40
        assert seen["product window collapsed"] >= 10
        assert seen["collapsed"] >= 50
        assert seen["lowered"] >= 120

    def test_strip_before_collapse_fails(self):
        with pytest.raises(AssertionError):
            _kernel_sweep(_strip_first_mutant(), 20261020, 160)

    @pytest.mark.parametrize("v, want", [(2, None), (3, None), (4, (3, 1))])
    def test_digitless_pair_over_a_cancellation(self, v, want):
        # At z^1, 1 * (p^3 - 1) + 1 * 1 = p^3 is summed from valuation 0;
        # then a pair of valuation v with no digit known lands there.  At or
        # below the stripped valuation 3 its window is exhausted; above it
        # the sum keeps valuation 3 known to v - 3 digits.
        x = LaurentSeries(
            Q7,
            {0: PadicNumber.from_int(1, Q7), 1: PadicNumber.from_int(1, Q7),
             2: PadicNumber(Q7, v, 0, 0)},
            ANN1, 0, 2,
        )
        y = series({1: 7**3 - 1, 0: 1, -1: 1})
        args = (x, y, (None, None, None, None))
        assert _outcome(LaurentSeries._product, *args) == _outcome(fused_product_stripped, *args)
        if want is None:
            with pytest.raises(PrecisionError, match="additive window exhausted"):
                x * y
        else:
            c = (x * y).coefficients[1]
            assert (c.valuation, c.known) == want


# -- one bigint multiply where it gives what the pair loop gives ---------------


def _run_series(rng, ctx, domain, first, count, gaps, uniform):
    """A power series stored at first .. first + count - 1 in ascending key
    order, less the keys in gaps.  Valuations sit at a base in [-3, 2],
    some 1 to 3 above it in some series.  When uniform every coefficient is
    known to one absolute precision where it can be, else each to 1 to the
    precision digits.  Each side has no tail, a drawn tail, or the
    sentinel floor of geometry._pseudo_entire."""
    p, prec = ctx.prime, ctx.precision
    base = rng.randint(-3, 2)
    absolute = base + rng.randint(3, prec)
    bumps = rng.choice((0, 0, 0.1, 0.3))
    coeffs = {}
    for n in range(first, first + count):
        if n in gaps:
            continue
        v = base + (rng.randint(1, 3) if rng.random() < bumps else 0)
        known = min(max(absolute - v, 1), prec) if uniform else rng.randint(1, prec)
        unit = rng.randrange(1, p**known)
        coeffs[n] = PadicNumber(ctx, v, unit + (unit % p == 0), known)
    lo = first - rng.randint(0, 2)
    if domain.is_disc:
        lo = max(lo, 0)
    tails = [rng.choice((None, TailBound(rng.randint(0, 2), base + rng.randint(0, 4)),
                         TailBound(0, 10**9))) for _ in range(2)]
    return LaurentSeries(ctx, coeffs, domain, lo, first + count - 1 + rng.randint(0, 2), *tails)


def _shuffled(rng, s):
    """s with its keys in a drawn order."""
    items = list(s.coefficients.items())
    rng.shuffle(items)
    return LaurentSeries(s.context, dict(items), s.domain, s.lo, s.hi, s.tail_below, s.tail_above)


def _one_multiply_case(rng):
    """Two power series shaped like a disc chart's factors, x often with
    exact zeros inside its run and y (when it is not x itself) mostly a
    run without gaps, now and then one factor's keys out of order, and the
    cut arguments of one _product call: a top cut with its floor, a bottom
    cut with its tail, both or neither."""
    ctx = PadicContext(rng.choice((3, 5, 7, 13)), rng.randint(4, 30))
    domain = DISC if rng.random() < 0.5 else AnnulusSpec.annulus(rng.randint(1, 3))
    uniform = rng.random() < 0.8
    count = rng.randint(1, 30)
    gaps = set()
    if count > 2 and rng.random() < 0.4:
        gaps = set(rng.sample(range(1, count - 1), rng.randint(1, max(1, count // 5))))
    x = _run_series(rng, ctx, domain, rng.randint(0, 3), count, gaps, uniform)
    if not gaps and rng.random() < 0.2:
        y = x
    else:
        count = rng.randint(3, 30)
        gaps = {rng.randrange(1, count - 1)} if rng.random() < 0.1 else set()
        y = _run_series(rng, ctx, domain, rng.randint(0, 3), count, gaps, uniform)
        if rng.random() < 0.1:
            x, y = rng.choice(((_shuffled(rng, x), y), (x, _shuffled(rng, y))))
    lo, hi = x.lo + y.lo, x.hi + y.hi
    top = floor = bottom = tail = None
    if rng.random() < 0.5:
        top = rng.randint((lo + hi) // 2, hi + 2)
        floor = x._min_stored_valuation() + y._min_stored_valuation()
    if not domain.is_disc and rng.random() < 0.4:
        upper = hi if top is None else min(hi, top)
        bottom = rng.randint(lo - 2, (lo + upper) // 2)
        tail = TailBound(rng.randint(1, 3), rng.randint(-4, 8))
    return x, y, (top, floor, bottom, tail)


def _count_paths(monkeypatch):
    """A Counter, for the rest of the test, of the products that take one
    multiply (True) and those left to the pair loop (False)."""
    taken = Counter()
    real = superchab.series._one_multiply

    def counted(*args):
        sums = real(*args)
        taken[sums is not None] += 1
        return sums

    monkeypatch.setattr(superchab.series, "_one_multiply", counted)
    return taken


def _in_rule_order(x, y):
    """True when x lists its keys in ascending order and y a run of
    consecutive keys in ascending order."""
    keys = list(y.coefficients)
    return list(x.coefficients) == sorted(x.coefficients) and keys == list(
        range(keys[0], keys[0] + len(keys))
    )


def _pinned(x, y):
    """True when one factor's entire side pins the product's window."""
    return any(
        (u.tail_above is None and w.tail_above is not None)
        or (u.tail_below is None and w.tail_below is not None)
        for u, w in ((x, y), (y, x))
    )


class TestOneMultiply:
    """Products that pass the rule of series._one_multiply take their sums
    from one bigint multiply: every triple, the key order, the window and
    both tails must be what the pair loop gives
    (`helpers.fused_product_stripped`), and every product that fails the
    rule must run the pair loop."""

    def test_seeded_sweep(self, monkeypatch):
        taken = _count_paths(monkeypatch)
        rng = random.Random(20261021)
        seen = Counter()
        for _ in range(400):
            x, y, cut = _one_multiply_case(rng)
            want = _outcome(fused_product_stripped, x, y, cut)
            before = taken[True]
            assert _outcome(LaurentSeries._product, x, y, cut) == want
            if not _in_rule_order(x, y):
                assert taken[True] == before
                seen["out of order"] += 1
            if taken[True] == before:
                continue
            stored = [*x.coefficients.values(), *y.coefficients.values()]
            seen["taken"] += 1
            seen["square"] += x is y
            seen["negative"] += any(c.valuation < 0 for c in stored)
            seen["partial"] += any(c.known < x.context.precision for c in stored)
            seen["one digit"] += any(c.known == 1 for c in stored)
            seen["zeros"] += len(x.coefficients) < max(x.coefficients) - min(x.coefficients) + 1
            seen["top"] += cut[0] is not None
            seen["bottom"] += cut[2] is not None
            seen["pinned"] += _pinned(x, y)
            seen["sentinel"] += TailBound(0, 10**9) in (
                x.tail_below, x.tail_above, y.tail_below, y.tail_above
            )
            seen["raised"] += want[0] == "raised"
        assert seen["taken"] >= 150 and taken[False] >= 100
        for case in ("square", "negative", "partial", "zeros", "top", "bottom", "pinned",
                     "sentinel"):
            assert seen[case] >= 30, case
        assert seen["one digit"] >= 5 and seen["raised"] >= 3 and seen["out of order"] >= 30

    def test_collapse_before_a_last_pair_above_the_floor(self, monkeypatch):
        # At z^2 the pairs come as 1 * 1 (to 7^20), then 1 * -1 (to 7^3),
        # whose sum vanishes to its window and collapses, then 1 * 1 (to
        # 7^20) starts afresh: the pair loop keeps 1 to 20 digits where the
        # column sum read modulo the floor 7^3 would keep 3.  The last pair
        # lies above the floor, so the product runs the pair loop.
        taken = _count_paths(monkeypatch)
        one, minus = PadicNumber.from_int(1, Q7), PadicNumber.from_int(-1, Q7)
        x = LaurentSeries(Q7, {0: one, 1: PadicNumber(Q7, 0, 1, 3), 2: one}, DISC, 0, 2)
        y = LaurentSeries(Q7, {0: one, 1: minus, 2: one}, DISC, 0, 2)
        args = (x, y, (None, None, None, None))
        assert _outcome(LaurentSeries._product, *args) == _outcome(fused_product_stripped, *args)
        assert taken == {False: 1}
        c = (x * y).coefficients[2]
        assert (c.valuation, c.unit, c.known) == (0, 1, 20)

    def test_column_vanishing_to_the_floor_is_dropped(self, monkeypatch):
        # z^1 sums 1 * (7^20 - 1) + 1 * 1 = 7^20, zero modulo the floor
        # 7^20: the pair loop collapses it, and one multiply drops it.
        taken = _count_paths(monkeypatch)
        one = PadicNumber.from_int(1, Q7)
        x = LaurentSeries(Q7, {0: one, 1: one}, DISC, 0, 1)
        y = LaurentSeries(Q7, {0: one, 1: PadicNumber.from_int(-1, Q7)}, DISC, 0, 1)
        args = (x, y, (None, None, None, None))
        assert _outcome(LaurentSeries._product, *args) == _outcome(fused_product_stripped, *args)
        assert taken == {True: 1}
        assert list((x * y).coefficients) == [0, 2]

    def test_digitless_coefficient_takes_the_pair_loop(self, monkeypatch):
        # Every pair reaches 7^5 and no further, but x_1 = O(7^5) has no
        # digit: the pair loop keeps z^1 as a digitless 7^5, where the
        # column sum read modulo 7^5 would drop it.
        taken = _count_paths(monkeypatch)
        x = LaurentSeries(
            Q7, {0: PadicNumber(Q7, 0, 2, 5), 1: PadicNumber(Q7, 5, 0, 0)}, DISC, 0, 1
        )
        y = LaurentSeries(Q7, {0: PadicNumber(Q7, 0, 1, 5)}, DISC, 0, 0)
        args = (x, y, (None, None, None, None))
        assert _outcome(LaurentSeries._product, *args) == _outcome(fused_product_stripped, *args)
        assert taken == {False: 1}
        c = (x * y).coefficients[1]
        assert (c.valuation, c.unit, c.known) == (5, 0, 0)

    def test_outer_branch_factors_skip_the_pair_loop(self, monkeypatch):
        # Two outer factors at p = 101, whose coefficients are units
        # through z^34, multiply under the top cut, and their product is cubed,
        # with the pair loop made to raise: both take one multiply and
        # equal the oracle kernel run in _product's place.
        ctx = PadicContext(101, 20)
        f, g = (branch_root_series(PadicNumber.from_int(t, ctx), 3, 20, DISC) for t in (3, 5))
        with monkeypatch.context() as oracle:
            oracle.setattr(LaurentSeries, "_product", fused_product_stripped)
            want = f.mul_cut(g, 20)
            want_cube = pow(want, 3, 20)
        monkeypatch.setattr(LaurentSeries, "_product", _product_mutant(
            "val: list[int | None] = [None] * size\n",
            ('raise AssertionError("the pair loop ran")',),
        ))
        h = f.mul_cut(g, 20)
        assert _state(h) == _state(want)
        assert _state(pow(h, 3, 20)) == _state(want_cube)


class TestNewtonPolygon:
    def test_z2_minus_7(self):
        s = series({2: 1, 0: -7})
        poly = newton_polygon(s)
        assert poly.vertices == ((0, Fraction(1)), (2, Fraction(0)))
        assert poly.slopes == ((Fraction(-1, 2), 2),)

    def test_7z2_plus_z(self):
        s = series({2: 7, 1: 1})
        poly = newton_polygon(s)
        assert poly.vertices == ((1, Fraction(0)), (2, Fraction(1)))

    def test_zero_counts_respect_radius(self):
        s = series({2: 1, 0: -7})
        assert count_zeros_annulus(s, ANN1).count == 2
        assert count_zeros_annulus(s, AnnulusSpec.annulus(Fraction(1, 4))).count == 0
        assert count_zeros_annulus(series({2: 7, 1: 1}), ANN1).count == 0

    def test_exact_verdict_for_polynomials(self):
        assert count_zeros_annulus(series({3: 1, 0: -343}), ANN1).kind == "exact"

    def test_indeterminate_when_tails_could_cut(self):
        # a truncated series whose hull floats above the unknown-tail floor
        s = LaurentSeries(
            Q7,
            {0: PadicNumber.from_int(7, Q7), 1: PadicNumber.from_int(49, Q7)},
            ANN1,
            0,
            1,
            None,
            TailBound(Fraction(0), Fraction(0)),
        )
        assert count_zeros_annulus(s, ANN1).kind == "indeterminate"

    def test_certified_when_floor_reached(self):
        s = LaurentSeries(
            Q7,
            {0: PadicNumber.from_int(1, Q7), -1: PadicNumber.from_int(7, Q7)},
            ANN1,
            -1,
            0,
            TailBound(Fraction(1), Fraction(2)),
            TailBound(Fraction(0), Fraction(0)),
        )
        out = count_zeros_annulus(s, ANN1)
        assert out.kind == "certified"
        assert out.count == 0

    @given(st.lists(st.tuples(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=0, max_value=5),
    ), min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_hull_is_lower_bound(self, pts):
        data = {}
        for n, v in pts:
            data[n] = 7**v
        s = series(data)
        poly = newton_polygon(s)
        # every coefficient sits on or above every hull segment
        for n, c in s.coefficients.items():
            for (x1, y1), (x2, y2) in zip(poly.vertices, poly.vertices[1:]):
                if x1 <= n <= x2:
                    lhs = (c.valuation - y1) * (x2 - x1)
                    rhs = (y2 - y1) * (n - x1)
                    assert lhs >= rhs


class TestBranchFactors:
    def test_minus_side_linear_coefficient(self):
        theta = PadicNumber.from_int(2, Q7)
        f = branch_root_series(theta, 3, order=16, domain=DISC)
        want = PadicNumber.from_rational(-1, 6, Q7)
        assert (f.coefficient(1) - want).is_zero

    def test_minus_side_cubes_back(self):
        theta = PadicNumber.from_int(2, Q7)
        f = branch_root_series(theta, 3, order=24, domain=DISC)
        cube = (f * f * f).window_clipped(0, 20)
        target = series({0: 1, 1: Fraction(-1, 2)}, domain=AnnulusSpec.disc())
        assert series_agree(cube, target, 15)

    def test_plus_side_window_and_decay(self):
        theta = PadicNumber.from_int(7, Q7)
        f = branch_root_series(theta, 3, order=24, domain=ANN1)
        assert (f.lo, f.hi) == (-24, 0)
        assert f.tail_below.slope == 1
        assert (f.coefficient(-1) - PadicNumber.from_rational(-7, 3, Q7)).is_zero

    def test_side_follows_valuation(self):
        # v(theta) = 0 gives the outer factor (1 - x/theta)^(1/m) on
        # [0, order]; v(theta) = 1 the inner one (1 - theta/x)^(1/m) on
        # [-order, 0]
        outer = branch_root_series(PadicNumber.from_int(2, Q7), 3, 16, DISC)
        assert (outer.lo, outer.hi) == (0, 16)
        assert (outer.tail_below, outer.tail_above.slope) == (None, 0)
        inner = branch_root_series(PadicNumber.from_int(14, Q7), 3, 16, ANN1)
        assert (inner.lo, inner.hi) == (-16, 0)
        assert (inner.tail_below.slope, inner.tail_above) == (1, None)

    def test_tail_floor_holds_past_the_window(self):
        # theta = 7, m = 3: binom(1/3, 9) is a 7-adic unit, so z^-9 of the
        # order-12 expansion has valuation 9, one step past the order-8
        # window, and the floor there is 8 + 1 * 1
        theta = PadicNumber.from_int(7, Q7)
        short = branch_root_series(theta, 3, 8, ANN1)
        longer = branch_root_series(theta, 3, 12, ANN1)
        assert longer.coefficient(-9).valuation == 9
        assert short.tail_below == TailBound(Fraction(1), Fraction(8))
        # every coefficient past the window, on either side, sits on or
        # above the floor at its distance
        for num, den, m in ((7, 1, 3), (98, 1, 2), (49, 3, 5), (1, 7, 3), (2, 49, 4), (3, 1, 2)):
            theta = PadicNumber.from_rational(num, den, Q7)
            domain = ANN1 if theta.valuation > 0 else DISC
            for order in (4, 8):
                short = branch_root_series(theta, m, order, domain)
                longer = branch_root_series(theta, m, order + 6, domain)
                tail = short.tail_below or short.tail_above
                for n, c in longer.coefficients.items():
                    if abs(n) > order:
                        assert c.valuation >= tail.at(abs(n) - order)

    def test_p_dividing_m_rejected(self):
        with pytest.raises(ValueError):
            branch_root_series(PadicNumber.from_int(2, Q7), 7, 64, DISC)

    @given(
        theta=st.integers(min_value=1, max_value=40).filter(lambda n: n % 7),
        m=st.sampled_from([2, 3, 4, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_mth_power_recovers_linear(self, theta, m):
        t = PadicNumber.from_int(theta, Q7)
        f = branch_root_series(t, m, order=28, domain=DISC)
        power = pow(f, m, 12)
        target = series({0: 1, 1: Fraction(-1, theta)}, domain=AnnulusSpec.disc())
        assert series_agree(power, target, 10)


def _fraction_branch_root_series(theta, m, order, domain):
    """branch_root_series as it was before the p-adic recurrence: exact
    Fraction binomials, each turned into Q_p, times a fresh power."""
    ctx = theta.context
    inner = theta.valuation > 0
    coeffs = {}
    binom = Fraction(1)
    alpha = Fraction(1, m)
    inv_theta = PadicNumber.from_int(1, ctx) / theta
    for k in range(order + 1):
        if k > 0:
            binom *= (alpha - (k - 1)) / k
        if inner:
            coeffs[-k] = (-theta) ** k * PadicNumber.from_fraction(binom, ctx)
        else:
            coeffs[k] = (-inv_theta) ** k * PadicNumber.from_fraction(binom, ctx)
    tv = Fraction(theta.valuation)
    if inner:
        tail = TailBound(tv, tv * order)
        return LaurentSeries(ctx, coeffs, domain, -order, 0, tail, None)
    tail = TailBound(max(-tv, Fraction(0)), max(-tv, Fraction(0)) * order)
    return LaurentSeries(ctx, coeffs, domain, 0, order, None, tail)


class TestBranchRootOracle:
    def test_seeded_sweep(self):
        """Same window, tails and (valuation, unit, known) in key order as
        the Fraction binomials, for m = 2..9 and every v(theta) in -2..3,
        the side read off v(theta), with theta known to full or fewer
        digits."""
        rng = random.Random(20261019)
        cases = 0
        for m in range(2, 10):
            for v in range(-2, 4):
                for order in (rng.randint(0, 63), 64):
                    p = rng.choice([q for q in (3, 5, 7, 11, 13) if m % q])
                    ctx = PadicContext(p, rng.randint(2, 40))
                    known = ctx.precision if rng.random() < 0.7 else rng.randint(1, ctx.precision)
                    unit = rng.randrange(1, p**known)
                    theta = PadicNumber(ctx, v, unit + (unit % p == 0), known)
                    domain = ANN1 if v > 0 else DISC
                    got = branch_root_series(theta, m, order, domain)
                    want = _fraction_branch_root_series(theta, m, order, domain)
                    assert (got.lo, got.hi) == (want.lo, want.hi)
                    assert (got.tail_below, got.tail_above) == (want.tail_below, want.tail_above)
                    assert _triples(got.coefficients.items()) == _triples(want.coefficients.items())
                    cases += 1
        assert cases == 8 * 6 * 2


def _disc_root_case(rng, m, p, precision):
    """One seeded disc recentred at its origin: f(t) = lead * t^k * prod
    (t - theta)^n over one to three outer points theta of valuation -2..0,
    multiplicity 1..3, with a leading coefficient that p divides in half of
    the cases.  Returns the context, k, the points in Q_p and u = f / (Q t^k)
    in Q_p, Q = lead * prod (-theta)^n."""
    ctx = PadicContext(p, precision)
    k = rng.choice((0, 0, 1, 2, 3))
    lead = rng.choice([a for a in range(1, 3 * p) if a % p]) * p ** rng.choice((0, 0, 1, 2))
    points = []
    for _ in range(rng.randint(1, 3)):
        u = Fraction(rng.choice([a for a in range(1, 4 * p) if a % p]), rng.choice((1, 2, 3, 4)))
        points.append((rng.choice((1, -1)) * u * Fraction(p) ** rng.randint(-2, 0), rng.randint(1, 3)))
    f = [Fraction(0)] * k + [Fraction(lead)]
    for theta, n in points:
        for _ in range(n):
            f = [a - theta * b for a, b in zip([Fraction(0), *f], [*f, Fraction(0)])]
    points = [(PadicNumber.from_fraction(theta, ctx), n) for theta, n in points]
    q = math.prod(((-theta) ** n for theta, n in points), start=PadicNumber.from_int(lead, ctx))
    return ctx, k, lead, points, [PadicNumber.from_fraction(c, ctx) / q for c in f[k:]]


# (m, p, precision) of the sweep's discs where the root claims fewer digits
# than the chain, with how many exponents it does so at.  All the chain's
# extra digits are relative ones: there every pair summed into a coefficient
# has positive valuation, so the chain's absolute precision exceeds u's.
_ROOT_BELOW_CHAIN = {
    (2, 5, 20): 18, (2, 5, 40): 13, (2, 5, 80): 48, (2, 7, 20): 3, (2, 7, 40): 9,
    (2, 11, 20): 18, (2, 11, 80): 12, (2, 13, 20): 9, (2, 13, 40): 19, (2, 13, 80): 48,
    (3, 5, 40): 1, (3, 7, 20): 3, (3, 7, 80): 19, (3, 11, 20): 1, (3, 11, 40): 1,
    (3, 11, 80): 8, (3, 13, 20): 1, (3, 13, 40): 19, (3, 13, 80): 1, (4, 5, 20): 8,
    (4, 5, 40): 28, (4, 7, 40): 28, (4, 11, 20): 9, (4, 11, 40): 28, (4, 11, 80): 4,
    (4, 13, 20): 9, (4, 13, 80): 39, (5, 7, 20): 18, (5, 7, 40): 28, (5, 7, 80): 48,
    (5, 11, 20): 18, (5, 11, 80): 48, (5, 13, 20): 19, (5, 13, 80): 48, (6, 5, 20): 15,
    (6, 5, 40): 11, (6, 5, 80): 39, (6, 7, 40): 19, (6, 7, 80): 7, (6, 11, 20): 18,
    (6, 11, 40): 20, (6, 11, 80): 8, (6, 13, 20): 19, (6, 13, 40): 28, (6, 13, 80): 48,
}


def _binomial_root(u, m, order):
    """(sum u_j t^j)^(1/m) to t^order for u_0 = 1 over Fraction: the
    binomial series sum binom(1/m, i) (u - 1)^i."""
    w = [Fraction(0), *u[1:]]
    h = [Fraction(0)] * (order + 1)
    power, binom = [Fraction(1)] + [Fraction(0)] * order, Fraction(1)
    for i in range(order + 1):
        h = [a + binom * b for a, b in zip(h, power)]
        power = [sum(power[n - j] * c for j, c in enumerate(w) if j <= n) for n in range(order + 1)]
        binom *= (Fraction(1, m) - i) / (i + 1)
    return h


class TestMthRootSeries:
    def test_agrees_with_the_branch_chain(self):
        """mth_root_series on u = f(o + t) / (Q t^k) against the branch
        factors multiplied one at a time (helpers.full_branch_product),
        for m = 2..6 at p in {5, 7, 11, 13} not dividing m and precision
        20, 40 and 80: at every exponent of [0, order] the two agree modulo
        the lesser absolute precision, and the root never claims more
        digits than the chain.  Where it claims fewer is pinned."""
        rng = random.Random(29)
        kinds, below = set(), {}
        for m in range(2, 7):
            for p in (5, 7, 11, 13):
                if m % p == 0:
                    continue
                for precision in (20, 40, 80):
                    ctx, k, lead, points, u = _disc_root_case(rng, m, p, precision)
                    kinds |= {(k > 0, lead % p == 0, th.valuation < 0, n) for th, n in points}
                    order = max(24, precision // 2 + 8)
                    root = mth_root_series(u, m, order, ctx)
                    chain = full_branch_product(points, m, order, DISC, ctx)
                    digits = min(c.valuation + c.known for c in u if not c.is_zero)
                    assert (root.lo, root.hi, root.tail_below, root.tail_above) == (
                        0, order, None, TailBound(0, 0)
                    )
                    for n in range(order + 1):
                        a, b = chain.coefficient(n), root.coefficient(n)
                        assert padic_agree(a, b, min(digits, abs_precision(a) or digits))
                        if not (a.is_zero or b.is_zero):
                            assert b.known <= a.known
                            if b.known < a.known:
                                below[m, p, precision] = below.get((m, p, precision), 0) + 1
        assert {k for k, *_ in kinds} == {False, True}
        assert {div for _, div, *_ in kinds} == {False, True}
        assert {neg for *_, neg, _ in kinds} == {False, True}
        assert {n for *_, n in kinds} == {1, 2, 3}
        assert below == _ROOT_BELOW_CHAIN

    def test_guard_digits_cover_division_by_p_squared(self):
        """At p = 5 the recurrence divides by 5 at every fifth exponent and
        by 25 at exponent 25, which costs later terms up to v_5(30!) = 7
        digits: the guard digits keep every coefficient to exponent 30 right
        modulo p^N against the binomial series over Fraction."""
        ctx = PadicContext(5, 12)
        u = [Fraction(1), Fraction(3), Fraction(-7, 2), Fraction(4), Fraction(10)]
        for m in (2, 3, 4, 6):
            root = mth_root_series([PadicNumber.from_fraction(c, ctx) for c in u], m, 30, ctx)
            exact = _binomial_root(u, m, 30)
            assert all(
                padic_agree(root.coefficient(n), PadicNumber.from_fraction(exact[n], ctx), 12)
                for n in range(31)
            )

    def test_refuses_what_it_cannot_root(self):
        ctx = PadicContext(5, 12)
        one, fifth = PadicNumber.from_int(1, ctx), PadicNumber.from_fraction(Fraction(1, 5), ctx)
        with pytest.raises(ValueError, match="p divides m"):
            mth_root_series([one], 5, 4, ctx)
        with pytest.raises(PrecisionError, match="not a unit"):
            mth_root_series([PadicNumber.from_int(5, ctx), one], 3, 4, ctx)
        with pytest.raises(PrecisionError, match="not p-integral"):
            mth_root_series([one, fifth], 3, 4, ctx)


class TestWindowClipped:
    def test_inward_edge_keeps_a_sloped_floor(self):
        # stored on [0, 5] in the window [0, 8] with upper tail
        # TailBound(1, 8): the coefficient at 9 may have valuation 9.  Clipped
        # to [0, 6], 9 lies 3 past the edge, and the floor there must not
        # claim more than 9
        s = LaurentSeries(
            Q7, {n: PadicNumber.from_int(7**n, Q7) for n in range(6)}, ANN1, 0, 8,
            None, TailBound(1, 8),
        )
        got = s.window_clipped(0, 6)
        assert (got.lo, got.hi, got.tail_above) == (0, 6, TailBound(1, 6))
        # an int floor is the same floor as its Fraction
        assert got.tail_above == TailBound(Fraction(1), Fraction(6))
        assert hash(got.tail_above) == hash(TailBound(Fraction(1), Fraction(6)))
        for n in range(9, 20):
            assert got.tail_above.at(n - 6) <= s.tail_above.at(n - 8)

    def test_both_edges_rebase_then_fold(self):
        # lower tail TailBound(2, 3) on [-6, 4], clipped to [-2, 1]: moved by
        # 4 it reads 3 - 8 = -5, and the clipped z^-5 of valuation 1 and z^3
        # of valuation 0 join each side as constant floors
        s = LaurentSeries(
            Q7, {-5: PadicNumber.from_int(7, Q7), 0: PadicNumber.from_int(1, Q7),
                 3: PadicNumber.from_int(2, Q7)},
            ANN1, -6, 4, TailBound(2, 3), TailBound(1, 2),
        )
        got = s.window_clipped(-2, 1)
        assert got.tail_below == TailBound(0, -5)
        assert got.tail_above == TailBound(0, -1)
        for d in range(1, 12):
            assert got.tail_below.at(d + 4) <= s.tail_below.at(d)
            assert got.tail_above.at(d + 3) <= s.tail_above.at(d)


def _state(s):
    return (s.context, s.domain, s.lo, s.hi, s.tail_below, s.tail_above, [
        (n, c.context, c.valuation, c.unit, c.known) for n, c in s.coefficients.items()
    ])


def _rebuilt(s):
    """s through the public constructor, which checks every coefficient."""
    return LaurentSeries(
        s.context, s.coefficients, s.domain, s.lo, s.hi, s.tail_below, s.tail_above
    )


def _random_scale(rng, ctx):
    known = ctx.precision if rng.random() < 0.6 else rng.randint(0, ctx.precision)
    unit = rng.randrange(1, ctx.prime ** (known + 1))
    unit += unit % ctx.prime == 0
    return PadicNumber(ctx, rng.randint(-2, 2), unit % ctx.prime**known, known)


class TestValidByConstruction:
    """The operations that build their result without the per-coefficient
    checks give a series those checks pass unchanged: rebuilt through the
    public constructor, it has the same state."""

    def test_seeded_sweep(self):
        rng = random.Random(20261027)
        seen = Counter()

        def check(kind, s):
            assert _state(_rebuilt(s)) == _state(s), kind
            seen[kind] += 1
            for op, t in (
                ("scaled", lambda: s.scaled(_random_scale(rng, s.context))),
                ("shifted", lambda: s.shifted(rng.randint(0 if s.domain.is_disc else -3, 3))),
                ("clipped", lambda: s.window_clipped(
                    rng.randint(s.lo - 2, s.hi), rng.randint(s.lo, s.hi + 2))),
            ):
                try:
                    got = t()
                except (ValueError, PrecisionError):
                    continue
                assert _state(_rebuilt(got)) == _state(got), op
                seen[op] += 1
            if s.lo >= -8 and s.hi <= 40:
                c, k = _random_scale(rng, s.context), rng.randint(1, 3)
                got = s.compose_monomial(c, k, s.domain)
                assert _state(_rebuilt(got)) == _state(got), "compose"
                want = [(n * k, coef * c**n) for n, coef in s.coefficients.items()]
                assert _triples(got.coefficients.items()) == _triples(want)
                seen["compose"] += 1

        for _ in range(300):
            domain = rng.choice((ANN1, DISC))
            x, y = _random_pair(rng, domain, (0, 6) if domain.is_disc else (-5, 5))
            try:
                check("mul", x * y)
                check("cut", x.mul_cut(y, rng.randint(x.lo + y.lo, x.hi + y.hi)))
                e = rng.randint(2, 4)
                check("pow", pow(x, e, rng.randint(e * x.lo, e * x.hi)))
            except PrecisionError:
                seen["raised"] += 1
        for _ in range(100):
            s = _inner_like(rng)
            m = rng.randint(2, 5)
            hi = rng.randint(0, m * s.hi)
            full = pow(s, m, hi)
            check("pow both cuts", s.__pow__(m, hi, rng.randint(full.lo - 2, min(0, hi))))
        for _ in range(60):
            m = rng.randint(2, 6)
            p = rng.choice([q for q in (3, 5, 7, 11, 13) if m % q])
            ctx = PadicContext(p, rng.randint(2, 30))
            theta = _random_scale(rng, ctx)
            if theta.known:
                check("branch", branch_root_series(
                    theta, m, rng.randint(0, 30), ANN1 if theta.valuation > 0 else DISC
                ))
        assert min(seen[k] for k in ("mul", "cut", "pow", "pow both cuts", "branch")) >= 40, seen
        assert min(seen[k] for k in ("scaled", "shifted", "clipped", "compose")) >= 300, seen


class TestComposeInvert:
    def test_compose_monomial(self):
        theta = PadicNumber.from_int(2, Q7)
        f = branch_root_series(theta, 3, order=16, domain=DISC)
        g = f.compose(series({1: 7}, domain=AnnulusSpec.disc()))
        assert (g.coefficient(1) - PadicNumber.from_rational(-7, 6, Q7)).is_zero

    def test_compose_monomial_exponent_map(self):
        f = series({0: 1, 2: 3}, domain=AnnulusSpec.disc())
        g = f.compose_monomial(PadicNumber.from_int(2, Q7), 3, AnnulusSpec.disc())
        assert g.coefficient(6).residue() == 3 * 4 % 7


class TestIntegration:
    def test_antiderivative_divides_by_index(self):
        s = series({3: 21, 0: 5}, domain=AnnulusSpec.disc())
        F, a0 = formal_antiderivative(s)
        assert (F.coefficient(3) - PadicNumber.from_int(7, Q7)).is_zero
        assert a0.residue() == 5
        assert F.coefficient(0).is_zero

    def test_dT_integral(self):
        omega = series({1: 1}, domain=AnnulusSpec.disc())
        a = PadicNumber.from_int(7, Q7)
        b = PadicNumber.from_int(14, Q7)
        assert (bc_integral(omega, a, b) - a).is_zero

    def test_dT_over_T_integral_is_log_ratio(self):
        omega = series({0: 1}, domain=AnnulusSpec.disc())
        a = PadicNumber.from_int(7, Q7)
        b = PadicNumber.from_int(14, Q7)
        got = bc_integral(omega, a, b)
        want = iwasawa_log(PadicNumber.from_int(2, Q7))
        d = got - want
        assert d.is_zero or d.valuation >= 15

    def test_endpoint_outside_domain_rejected(self):
        omega = series({1: 1}, domain=AnnulusSpec.disc())
        with pytest.raises(ValueError):
            bc_integral(omega, PadicNumber.from_int(1, Q7), PadicNumber.from_int(7, Q7))

    @given(
        exps=st.dictionaries(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-20, max_value=20),
            min_size=1,
            max_size=4,
        ),
        xa=st.integers(min_value=1, max_value=5),
        xb=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_path_additivity(self, exps, xa, xb):
        dom = AnnulusSpec.annulus(3)
        omega = LaurentSeries.from_dict(exps, Q7, dom)
        a = PadicNumber.from_int(7 * xa, Q7)
        b = PadicNumber.from_int(7 * xb, Q7)
        c = PadicNumber.from_int(7 * (xa + xb), Q7)
        ab = bc_integral(omega, a, b)
        bc = bc_integral(omega, b, c)
        ac = bc_integral(omega, a, c)
        d = ab + bc - ac
        assert d.is_zero or d.valuation >= 12


class TestZeroBounds:
    def test_mu_values(self):
        assert mu_factor(7) == Fraction(6, 5)
        assert mu_factor(3) == Fraction(2)

    def test_rolle_values(self):
        assert rolle_zero_bound(5, 7) == 6
        assert rolle_zero_bound(10, 3) == 20

    def test_small_prime_hard_error(self):
        with pytest.raises(ValueError):
            rolle_zero_bound(3, 3, e=2)

    def test_genus_hypothesis_warns(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            rolle_zero_bound(4, 7, g=5)
        assert any("2g" in str(w.message) for w in rec)

    def test_monomial_antiderivative_respects_bound(self):
        # omega = z^w dT/T integrates to z^w / w with no zeros on the annulus
        rng = random.Random(11)
        for _ in range(50):
            w = rng.randrange(1, 30)
            s = series({w: rng.randrange(1, 200) * 7 ** rng.randrange(0, 3)})
            F, a0 = formal_antiderivative(s)
            assert a0.is_zero
            zc = count_zeros_annulus(F, ANN1)
            assert zc.count <= rolle_zero_bound(w, 7)

    def test_random_sources_respect_stretched_width(self):
        # zeros of the constant-free antiderivative never exceed mu times the
        # in-range width of the source form's polygon
        rng = random.Random(401)
        beta = Fraction(2)
        dom = AnnulusSpec.annulus(beta)
        for _ in range(120):
            data = {}
            for _ in range(rng.randrange(1, 6)):
                n = rng.randrange(-8, 9)
                if n == 0:
                    continue
                data[n] = rng.randrange(1, 400) * 7 ** rng.randrange(0, 5)
            if not data:
                continue
            omega = LaurentSeries.from_dict(data, Q7, dom)
            # closed slope range: boundary zeros of the source can migrate
            # inward when division by the index shifts valuations
            width = sum(
                length
                for slope, length in newton_polygon(omega).slopes
                if 0 <= -slope <= beta
            )
            F, a0 = formal_antiderivative(omega)
            assert a0.is_zero
            zc = count_zeros_annulus(F, dom)
            assert zc.kind == "exact"
            assert zc.count <= rolle_zero_bound(width, 7)
