"""Bound formulas: frozen example values, the grid consistency sweep, and
the minimal-width certificate."""

import json
import random
from fractions import Fraction

import pytest

from superchab.bounds import (
    BoundReport,
    annulus_point_bound,
    bound_report,
    cover_transfer,
    disc_point_bound,
    minimal_width_differential,
    mu_factor,
    pullback_exponent,
    rank_hypothesis,
    stoll_reference_bound,
    total_point_bound,
)
from superchab.curve import HypothesisViolation, SuperellipticCurve
from superchab.geometry import ResidueAnnulus, classify_annulus
from superchab.padic import PadicContext, PadicNumber, chabauty_prime

Q7 = PadicContext(7, 20)


def _annulus(k0: int, m: int, ctx: PadicContext) -> ResidueAnnulus:
    inner = [(PadicNumber.from_int(ctx.prime, ctx), k0)]
    outer = [(PadicNumber.from_int(1, ctx), 1)]
    a = ResidueAnnulus(PadicNumber.from_int(0, ctx), 0, (0, 1), inner, outer)
    classify_annulus(a, m)
    return a


class TestMu:
    def test_values(self):
        assert mu_factor(7, 1) == Fraction(6, 5)
        assert mu_factor(3, 1) == 2

    def test_monotone_to_one(self):
        vals = [mu_factor(p, 1) for p in (5, 7, 11, 13)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 1 for v in vals)

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            mu_factor(3, 2)


class TestRankHypothesis:
    def test_examples(self):
        assert rank_hypothesis(12, 3, 0)
        assert not rank_hypothesis(4, 3, 0)
        assert rank_hypothesis(15, 3, 1)

    def test_m_two_rejected(self):
        with pytest.raises(ValueError):
            rank_hypothesis(12, 2, 0)


class TestPullbackExponents:
    def test_frozen(self):
        a = _annulus(2, 3, Q7)
        assert pullback_exponent(0, a, 3) == 1
        assert pullback_exponent(2, a, 3) == 7
        b = _annulus(2, 4, PadicContext(5, 20))
        assert pullback_exponent(0, b, 4) == 1

    def test_arithmetic_progression(self):
        for m, k0 in [(3, 2), (4, 2), (5, 3), (6, 4)]:
            p, _ = chabauty_prime(m)
            a = _annulus(k0, m, PadicContext(p, 16))
            exps = [pullback_exponent(i, a, m) for i in range(5)]
            step = m // a.d
            assert [e2 - e1 for e1, e2 in zip(exps, exps[1:])] == [step] * 4


class TestMinimalWidth:
    def test_no_constraints(self):
        a = _annulus(2, 3, Q7)
        vec, width = minimal_width_differential([], 0, a)
        assert width == 0
        assert not vec.coefficients[0].is_zero
        assert all(c.is_zero for c in vec.coefficients[1:])

    def test_single_generic_constraint(self):
        a = _annulus(2, 3, Q7)
        row = [PadicNumber.from_int(v, Q7) for v in (1, 1, 1)]
        vec, width = minimal_width_differential([row], 0, a)
        assert not vec.is_zero()
        assert width <= 7
        dot = PadicNumber.from_int(0, Q7)
        for c, x in zip(row, vec.coefficients):
            dot = dot + c * x
        assert dot.is_zero or dot.valuation >= 14

    def test_too_many_constraints(self):
        a = _annulus(2, 3, Q7)
        rows = [
            [PadicNumber.from_int(v, Q7) for v in r]
            for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        ]
        with pytest.raises(ValueError):
            minimal_width_differential(rows, 0, a)

    def test_width_certificate_sweep(self):
        rng = random.Random(7)
        contexts = {m: PadicContext(chabauty_prime(m)[0], 16) for m in (3, 4, 5, 6)}
        for _ in range(200):
            m = rng.choice([3, 4, 5, 6])
            ctx = contexts[m]
            k0 = rng.randint(1, 6)
            r = rng.randint(0, 3)
            a = _annulus(k0, m, ctx)
            n = r + 3
            rows = [
                [PadicNumber.from_int(rng.randint(-9, 9), ctx) for _ in range(n)]
                for _ in range(rng.randint(0, r + 2))
            ]
            vec, width = minimal_width_differential(rows, r, a)
            assert not vec.is_zero()
            assert width <= m * (r + 2) // a.d + 1
            for row in rows:
                dot = PadicNumber.from_int(0, ctx)
                for c, x in zip(row, vec.coefficients):
                    dot = dot + c * x
                assert dot.is_zero or dot.valuation >= ctx.precision - 6


class TestComponentBounds:
    def test_disc_frozen(self):
        assert disc_point_bound(10, 7, 1, 0) == 144
        assert disc_point_bound(10, 7, 1, 2) == 148
        assert disc_point_bound(3, 3, 1, 0) == 16

    def test_annulus_frozen(self):
        assert annulus_point_bound(10, 3, 7, 1, 0) == 140
        assert annulus_point_bound(3, 3, 7, 1, 0) == 39

    def test_annulus_genus_one_edge(self):
        # 4g - 4 = 0 leaves the single-orbit term mu * m * 3
        assert annulus_point_bound(1, 3, 7, 1, 0) == 10

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            disc_point_bound(10, 3, 2, 0)
        with pytest.raises(ValueError):
            annulus_point_bound(10, 2, 7, 1, 0)


class TestTotal:
    def test_frozen(self):
        assert total_point_bound(10, 3, 0, 7) == 378
        assert total_point_bound(10, 3, 1, 7) == 460

    def test_sharp_components(self):
        assert disc_point_bound(10, 7, 1, 0) + annulus_point_bound(10, 3, 7, 1, 0) == 284

    def test_wrong_prime_rejected(self):
        with pytest.raises(ValueError):
            total_point_bound(10, 3, 0, 13)

    def test_monotone_in_rank(self):
        vals = [total_point_bound(10, 3, r, 7) for r in range(6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_grid_consistency(self):
        # the internal assertion checks sharp <= total at every grid point
        for m in (3, 4, 5, 6):
            p, _ = chabauty_prime(m)
            for g in range(3, 21):
                for r in range(5):
                    assert total_point_bound(g, m, r, p) > 0


class TestReference:
    def test_frozen(self):
        assert stoll_reference_bound(3, 0) == 67
        assert stoll_reference_bound(4, 1) == 130

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            stoll_reference_bound(3, 1)
        with pytest.raises(ValueError):
            stoll_reference_bound(2, 0)


class TestCoverTransfer:
    def test_examples(self):
        assert cover_transfer(100, 6, 3) == 200
        assert cover_transfer(100, 6, 2) == 100
        assert cover_transfer(100, 6, 6) == 100

    def test_non_divisor(self):
        with pytest.raises(ValueError):
            cover_transfer(100, 6, 4)


class TestBoundReport:
    def test_deg12_rank0(self):
        curve = SuperellipticCurve(3, [1] + [0] * 11 + [1])
        report = bound_report(curve, 0)
        assert report.g == 10
        assert report.p == 7
        assert report.mu == Fraction(6, 5)
        assert report.disc_bound == 144
        assert report.annulus_bound == 140
        assert report.sharp_total == 284
        assert report.total_bound == 378
        assert report.rank_ok
        assert report.small_prime_warning  # 7 <= 2g = 20
        payload = report.to_json_dict()
        assert payload["theorem3_total"] == 378
        assert payload["prime"] == 7
        assert payload["mu"] == "6/5"
        json.dumps(payload)

    def test_rank_too_large(self):
        curve = SuperellipticCurve(3, [1] + [0] * 11 + [1])
        with pytest.raises(ValueError):
            bound_report(curve, 1)

    def test_hypotheses_gated(self):
        # a triple branch point on a cubic cover; the rank hypothesis holds
        curve = SuperellipticCurve.from_branch_points(
            3, 1, [(k, 1) for k in range(1, 12)] + [(20, 3)]
        )
        with pytest.raises(HypothesisViolation) as info:
            bound_report(curve, 0)
        assert info.value.violations == [
            "branch multiplicity 3 (at 1 point) is not below m = 3"
        ]
