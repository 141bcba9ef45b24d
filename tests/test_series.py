"""Laurent series on discs and annuli: arithmetic, Newton polygons, zero
counts, branch factors and Coleman integration on a single chart."""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchab.padic import PadicContext, PadicNumber, iwasawa_log
from superchab.series import (
    AnnulusSpec,
    LaurentSeries,
    TailBound,
    bc_integral,
    branch_root_series,
    count_zeros_annulus,
    formal_antiderivative,
    mu_factor,
    newton_polygon,
    rolle_zero_bound,
)

Q7 = PadicContext(7, 20)
ANN1 = AnnulusSpec.annulus(1)


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
        assert (a**3).agrees_with(a * a * a, 15)

    def test_disc_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            LaurentSeries.from_dict({-1: 1}, Q7, AnnulusSpec.disc())

    def test_shift(self):
        a = series({0: 5})
        assert a.shifted(3).coefficient(3).residue() == 5

    def test_scaled_by_p_raises_tail_floor(self):
        f = branch_root_series(PadicNumber.from_int(7, Q7), 3, "plus", order=8)
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
        assert (a * b).agrees_with(b * a, 18)


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
        f = branch_root_series(theta, 3, "minus", order=16)
        want = PadicNumber.from_rational(-1, 6, Q7)
        assert (f.coefficient(1) - want).is_zero

    def test_minus_side_cubes_back(self):
        theta = PadicNumber.from_int(2, Q7)
        f = branch_root_series(theta, 3, "minus", order=24)
        cube = (f * f * f).window_clipped(0, 20)
        target = series({0: 1, 1: Fraction(-1, 2)}, domain=AnnulusSpec.disc())
        assert cube.agrees_with(target, 15)

    def test_plus_side_window_and_decay(self):
        theta = PadicNumber.from_int(7, Q7)
        f = branch_root_series(theta, 3, "plus", order=24)
        assert (f.lo, f.hi) == (-24, 0)
        assert f.tail_below.slope == 1
        assert (f.coefficient(-1) - PadicNumber.from_rational(-7, 3, Q7)).is_zero

    def test_plus_side_requires_positive_valuation(self):
        with pytest.raises(ValueError):
            branch_root_series(PadicNumber.from_int(2, Q7), 3, "plus")

    def test_p_dividing_m_rejected(self):
        with pytest.raises(ValueError):
            branch_root_series(PadicNumber.from_int(2, Q7), 7, "minus")

    @given(
        theta=st.integers(min_value=1, max_value=40).filter(lambda n: n % 7),
        m=st.sampled_from([2, 3, 4, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_mth_power_recovers_linear(self, theta, m):
        t = PadicNumber.from_int(theta, Q7)
        f = branch_root_series(t, m, "minus", order=28)
        power = f**m
        target = series({0: 1, 1: Fraction(-1, theta)}, domain=AnnulusSpec.disc())
        assert power.window_clipped(0, 12).agrees_with(target, 10)


class TestComposeInvert:
    def test_compose_monomial(self):
        theta = PadicNumber.from_int(2, Q7)
        f = branch_root_series(theta, 3, "minus", order=16)
        g = f.compose(series({1: 7}, domain=AnnulusSpec.disc()))
        assert (g.coefficient(1) - PadicNumber.from_rational(-7, 6, Q7)).is_zero

    def test_compose_monomial_exponent_map(self):
        f = series({0: 1, 2: 3}, domain=AnnulusSpec.disc())
        g = f.compose_monomial(PadicNumber.from_int(2, Q7), 3)
        assert g.coefficient(6).residue() == 3 * 4 % 7

    def test_invert_unit_series(self):
        h = series({0: 1, -1: 7, 1: 3})
        inv = h.invert()
        prod = (h * inv).window_clipped(-1, 1)
        assert prod.agrees_with(LaurentSeries.one(Q7, ANN1), 12)

    def test_invert_rejects_interior_zeros(self):
        # z^2 - 7 vanishes at valuation 1/2, inside the annulus
        with pytest.raises(ValueError):
            series({2: 1, 0: -7}).invert()

    def test_invert_balanced_hull(self):
        # z + z^-1 has no annulus zeros; 1/(z + z^-1) = z - z^3 + ...
        h = series({1: 1, -1: 1})
        inv = h.invert()
        prod = (h * inv).window_clipped(-1, 1)
        assert prod.agrees_with(LaurentSeries.one(Q7, ANN1), 12)


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
