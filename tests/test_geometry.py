import importlib
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import superchab.geometry
import superchab.padic
from helpers import full_branch_product, full_power_annulus, lift_fraction, series_agree
from superchab import ratpoly
from superchab.curve import SuperellipticCurve, genus
from superchab.geometry import (
    ChartVerificationError,
    ClusterNode,
    DiscSpec,
    _branch_series_product,
    annulus_orbit_count,
    build_cluster_tree,
    curve_branch_points,
    enumerate_maximal_annuli,
    parameterize_annulus,
    parameterize_disc,
    pruned_annulus_count,
)
from superchab.padic import (
    PadicContext,
    PadicNumber,
    is_mth_power,
    is_prime,
    primitive_root_of_unity,
    qp_roots,
)
from superchab.series import AnnulusSpec, LaurentSeries, TailBound, branch_root_series

Q7 = PadicContext(7, 20)
Q13 = PadicContext(13, 20)


def from_ints(values, ctx):
    return [PadicNumber.from_int(v, ctx) for v in values]


class TestQpRoots:
    def test_rational_split(self):
        poly = [Fraction(49), Fraction(0), Fraction(-50), Fraction(0), Fraction(1)]
        # (x^2 - 1)(x^2 - 49)
        roots, complete = qp_roots(poly, Q7)
        assert complete
        assert len(roots) == 4
        for expected in (1, -1, 7, -7):
            target = PadicNumber.from_int(expected, Q7)
            assert any(
                (r - target).is_zero or (r - target).valuation >= 18 for r in roots
            )

    def test_inert_quadratic(self):
        roots, complete = qp_roots([Fraction(1), Fraction(0), Fraction(1)], Q7)
        assert roots == []
        assert not complete

    def test_hensel_irrational(self):
        roots, complete = qp_roots([Fraction(-2), Fraction(0), Fraction(1)], Q7)
        assert complete and len(roots) == 2
        for r in roots:
            sq = r * r - PadicNumber.from_int(2, Q7)
            assert sq.is_zero or sq.valuation >= 18

    def test_close_roots_blowup(self):
        # roots 1 and 1 + 7^3 share three residue digits
        poly = [Fraction((1) * (1 + 343)), Fraction(-(2 + 343)), Fraction(1)]
        roots, complete = qp_roots(poly, Q7)
        assert complete and len(roots) == 2
        a, b = roots
        assert (a - b).valuation == 3

    def test_negative_valuation_root(self):
        # (7x - 1)(x - 2)
        poly = [Fraction(2), Fraction(-15), Fraction(7)]
        roots, complete = qp_roots(poly, Q7)
        assert complete
        vals = sorted(r.valuation for r in roots)
        assert vals == [-1, 0]

    def test_zero_root_kept(self):
        roots, complete = qp_roots([Fraction(0), Fraction(1), Fraction(1)], Q7)
        assert complete
        assert any(r.is_zero for r in roots)

    @pytest.mark.parametrize("v", [-30, 12, 30])
    def test_deep_root_keeps_every_digit(self, v):
        # x - 7^v: the root is lifted by its own valuation, so neither a deep
        # root of f nor one of its reversal is lost or taken for zero
        roots, complete = qp_roots([-Fraction(7) ** v, Fraction(1)], Q7)
        assert complete
        [root] = roots
        assert (root.valuation, root.unit, root.known) == (v, 1, Q7.precision)

    def test_zoom_gives_up_below_three_times_precision(self):
        # (x - 1)(x - 1 - 5^8): the two roots part at digit 8, past the
        # 3 * precision zoom levels of precision 2 but not of precision 3
        close = ratpoly.mul([Fraction(-1), Fraction(1)], [Fraction(-1 - 5**8), Fraction(1)])
        roots, complete = qp_roots(close, PadicContext(5, 2))
        assert roots == [] and not complete
        with_three = ratpoly.mul(close, [Fraction(-3), Fraction(1)])
        roots, complete = qp_roots(with_three, PadicContext(5, 2))
        assert [r.value_mod(2) for r in roots] == [3] and not complete
        roots, complete = qp_roots(close, PadicContext(5, 3))
        assert len(roots) == 2 and complete


def _two_scan_qp_roots(coeffs, ctx):
    """qp_roots as it was when the reversal was scanned over all p residues
    and its roots were kept only at valuation >= 1; the oracle for the
    residue-0 search."""
    poly = ratpoly.normalize([Fraction(c) for c in coeffs])
    deg = ratpoly.degree(poly)
    roots = []
    if poly[0] == 0:
        roots.append(PadicNumber.zero(ctx))
        poly = poly[1:]
    den = math.lcm(*(c.denominator for c in poly))
    P = [int(c * den) for c in poly]
    g = math.gcd(*(abs(c) for c in P))
    P = [c // g for c in P]
    nonneg = superchab.padic._zp_roots_squarefree(P, ctx)
    roots.extend(nonneg)
    small = superchab.padic._zp_roots_squarefree(list(reversed(P)), ctx)
    one = PadicNumber.from_int(1, ctx)
    for r in small:
        if not r.is_zero and r.valuation >= 1:
            roots.append(one / r)
    return roots, len(roots) == deg


def _sweep_polynomial(rng, p):
    """A square-free product of linear factors b*x - a over distinct roots
    a/b drawn from: 0, units, valuation -1 to -3 (so p divides the leading
    coefficient), pairs agreeing to 2 or 3 digits (the zoom branch, also
    among the inverses of roots of the reversal), and at times a quadratic
    with no root in Q_p or one of valuation -1/2."""
    roots = set()
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(["zero", "unit", "negative", "close", "close_negative"])
        u = rng.choice([k for k in range(1, 4 * p) if k % p])
        if kind == "zero":
            roots.add(Fraction(0))
        elif kind == "unit":
            roots.add(Fraction(u, rng.choice([1, 2, 3, 4]) if p > 4 else 1))
        elif kind == "negative":
            roots.add(Fraction(u, p ** rng.randint(1, 3)))
        elif kind == "close":
            k = rng.randint(2, 3)
            roots.update({Fraction(u), Fraction(u + p**k * rng.randint(1, 5))})
        else:
            k = rng.randint(2, 3)
            roots.update({Fraction(1, p * u), Fraction(1, p * u + p**k)})
    poly = [Fraction(rng.choice([1, -2, p, 3 * p]))]
    for r in sorted(roots):
        poly = ratpoly.mul(poly, [-r.numerator, r.denominator])
    extra = rng.choice([None, [1, 0, 1], [-2, 0, 1], [-3, 0, p]])
    if extra is not None and ratpoly.is_squarefree(ratpoly.mul(poly, extra)):
        poly = ratpoly.mul(poly, extra)
    return poly


class TestQpRootsOracle:
    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_two_scan_search(self, p):
        ctx = PadicContext(p, 12)
        rng = random.Random(20261018 + p)
        kinds = {"zero": 0, "negative": 0, "lead": 0, "zoom": 0}
        for _ in range(60):
            poly = _sweep_polynomial(rng, p)
            got = qp_roots(poly, ctx)
            assert got == _two_scan_qp_roots(poly, ctx)
            vals = [r.valuation for r in got[0] if not r.is_zero]
            kinds["zero"] += any(r.is_zero for r in got[0])
            kinds["negative"] += any(v < 0 for v in vals)
            kinds["lead"] += ratpoly._primitive(ratpoly.normalize(poly))[-1] % p == 0
            kinds["zoom"] += any(
                (a - b).valuation >= 2 for i, a in enumerate(got[0]) for b in got[0][:i]
            )
        assert all(count >= 5 for count in kinds.values()), kinds


class TestClusterTree:
    def test_frozen_quadruple(self):
        tree = build_cluster_tree(from_ints([1, -1, 7, -7], Q7), [1] * 4)
        assert tree.root.depth == 0
        assert len(tree.root.children) == 3
        proper = tree.proper_clusters()
        assert len(proper) == 1
        assert proper[0].depth == 1
        annuli = enumerate_maximal_annuli(tree, m=3, infinity_is_branch=False)
        assert len(annuli) == 1
        a = annuli[0]
        assert a.valuation_interval == (0, 1)
        assert a.weighted_inner_count() == 2
        assert len(a.theta_infty) == 2

    def test_frozen_chain(self):
        tree = build_cluster_tree(from_ints([0, 49, 7], Q7), [1] * 3)
        assert tree.root.depth == 1
        proper = tree.proper_clusters()
        assert [c.depth for c in proper] == [2]
        annuli = enumerate_maximal_annuli(tree, m=3, infinity_is_branch=False)
        assert len(annuli) == 1
        assert annuli[0].valuation_interval == (1, 2)
        assert (annuli[0].d, annuli[0].case) == (1, "rotation")

    def test_star_has_no_annuli(self):
        tree = build_cluster_tree(from_ints([1, 2, 3, 4], Q7), [1] * 4)
        assert enumerate_maximal_annuli(tree, m=3, infinity_is_branch=False) == []
        assert pruned_annulus_count(tree, infinity_is_branch=False) == 0

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            build_cluster_tree(from_ints([1, 1, 2], Q7), [1] * 3)

    def test_coincidence_names_the_precision(self):
        # 1 and 1 + 7^20 are distinct but agree to all 20 working digits
        pts = [PadicNumber.from_int(1, Q7), PadicNumber.from_int(1 + 7**20, Q7)]
        with pytest.raises(ValueError, match="20 digits.*raise --precision"):
            build_cluster_tree(pts, [1] * 2)

    def test_multiplicity_weighting(self):
        tree = build_cluster_tree(from_ints([7, -7, 1], Q7), [2, 1, 1])
        annuli = enumerate_maximal_annuli(tree, m=3, infinity_is_branch=False)
        assert annuli[0].weighted_inner_count() == 3
        assert annuli[0].d == 3

    def test_caterpillar_pruning(self):
        tree = build_cluster_tree(from_ints([0, 7, 49, 1], Q7), [1] * 4)
        annuli = enumerate_maximal_annuli(tree, m=3, infinity_is_branch=True)
        assert len(annuli) == 2
        assert pruned_annulus_count(tree, infinity_is_branch=True) == 2
        assert pruned_annulus_count(tree, infinity_is_branch=False) == 1


def _pairwise_cluster_root(theta, multiplicities):
    """The cluster tree's root as built before the depth came from one
    member: every cluster takes the least valuation over all its pairs."""
    pair = superchab.geometry._pair_valuation

    def build(indices, parent_depth):
        if len(indices) == 1:
            return ClusterNode(indices, None, parent_depth)
        depth = min(
            pair(theta[i], theta[j])
            for k, i in enumerate(indices)
            for j in indices[k + 1 :]
        )
        groups = []
        for i in indices:
            for grp in groups:
                if pair(theta[i], theta[grp[0]]) > depth:
                    grp.append(i)
                    break
            else:
                groups.append([i])
        children = tuple(build(tuple(g), depth) for g in groups)
        return ClusterNode(indices, depth, parent_depth, children)

    return build(tuple(range(len(theta))), None)


class TestClusterTreeOracle:
    def test_seeded_sweep_against_pairwise_depths(self):
        rng = random.Random(2024)
        errors = 0
        for _ in range(2000):
            ctx = PadicContext(rng.choice([2, 3, 5, 7]), rng.randint(3, 8))
            p, n = ctx.prime, ctx.precision
            values = []
            for _ in range(rng.randint(1, 7)):
                roll = rng.random()
                if values and roll < 0.08:
                    values.append(rng.choice(values))  # an exact repeat
                elif values and roll < 0.16:
                    # distinct, but equal to all n working digits
                    values.append(rng.choice(values) + rng.randint(1, 3) * p**n)
                else:
                    num = sum(rng.randrange(p) * p**k for k in range(rng.randint(1, n)))
                    values.append(Fraction(num, p ** rng.choice([0, 0, 0, 1, 2])))
            theta = [PadicNumber.from_fraction(Fraction(v), ctx) for v in values]
            mults = [rng.randint(1, 3) for _ in theta]
            try:
                want = _pairwise_cluster_root(theta, mults)
            except ValueError as exc:
                errors += 1
                with pytest.raises(ValueError) as info:
                    build_cluster_tree(theta, mults)
                assert str(info.value) == str(exc)
                continue
            assert build_cluster_tree(theta, mults).root == want
        assert errors >= 100


class TestClassification:
    def test_rotation_when_d_is_one(self):
        tree = build_cluster_tree(from_ints([1, -1, 7, -7], Q7), [1] * 4)
        a = enumerate_maximal_annuli(tree, m=3, infinity_is_branch=False)[0]
        assert a.case == "rotation"
        assert a.d == 1

    def test_split_when_d_exceeds_one(self):
        for values, ctx, m in (([1, -1, 13, -13], Q13, 4), ([1, -1, 7, -7], Q7, 2)):
            tree = build_cluster_tree(from_ints(values, ctx), [1] * len(values))
            a = enumerate_maximal_annuli(tree, m=m, infinity_is_branch=False)[0]
            assert a.case == "split"
            assert a.d == 2

    def test_seeded_sweep_never_inverts(self):
        rng = random.Random(11)
        primes = {3: PadicContext(7, 16), 5: PadicContext(11, 16), 7: PadicContext(29, 16)}
        for _ in range(60):
            m = rng.choice([3, 5, 7])
            ctx = primes[m]
            p = ctx.prime
            pts: set[int] = set()
            while len(pts) < rng.randint(4, 7):
                pts.add(rng.randrange(p) + rng.randrange(1, p) * p ** rng.randint(0, 3))
            pts = sorted(pts)
            mults = [rng.randint(1, m - 1) for _ in pts]
            tree = build_cluster_tree(from_ints(pts, ctx), mults)
            deg = sum(mults)
            inf_branch = deg % m != 0
            annuli = enumerate_maximal_annuli(tree, m, infinity_is_branch=inf_branch)
            for a in annuli:
                assert a.case in ("split", "rotation")
            s_eff = len(pts) + (1 if inf_branch else 0)
            assert pruned_annulus_count(tree, inf_branch) <= max(0, s_eff - 3)
            curve = SuperellipticCurve.from_branch_points(
                m, 1, [(t, n) for t, n in zip(pts, mults)]
            )
            if genus(curve) >= 1:
                count = annulus_orbit_count(curve, ctx)
                assert count <= (4 * genus(curve) - 4) // m + 1


class TestWorkedChart:
    def setup_method(self):
        self.curve = SuperellipticCurve.from_branch_points(
            3, 1, [(1, 1), (-1, 1), (7, 1), (-7, 1)]
        )

    def test_chart_shape_and_identity(self):
        pts, complete = curve_branch_points(self.curve, Q7)
        assert complete
        tree = build_cluster_tree([t for t, _ in pts], [n for _, n in pts])
        a = enumerate_maximal_annuli(tree, m=3, infinity_is_branch=False)[0]
        analysis = parameterize_annulus(a, self.curve, Q7)
        assert analysis.status == "charts"
        assert len(analysis.charts) == 1
        chart = analysis.charts[0]
        # x(z) = z^3 on the nose
        assert chart.x_series.support() == [3]
        one = PadicNumber.from_int(1, Q7)
        assert (chart.x_series.coefficient(3) - one).is_zero
        # gamma is a cube root of -1 and y(z) = gamma z^2 (1 + ...)
        g3 = chart.gamma**3 + one
        assert g3.is_zero or g3.valuation >= 18
        # leading behaviour y ~ gamma z^2: the unit factor h(0) is 1 + O(7)
        lead = chart.y_series.coefficient(2)
        diff = lead - chart.gamma
        assert diff.is_zero or diff.valuation >= 1
        assert analysis.attained >= 10

    def test_negative_scale_valuation(self):
        # with f scaled by 7, Q0 * U^2 is a cube only for v(U) = 1 mod 3, so
        # the scale search passes v = 0 and settles at v = -2
        curve = SuperellipticCurve.from_branch_points(
            3, 7, [(1, 1), (-1, 1), (7, 1), (-7, 1)]
        )
        analysis = _first_annulus_analysis(curve, Q7)
        assert analysis.status == "charts"
        assert analysis.attained >= 10
        x = analysis.charts[0].x_series
        assert x.support() == [3]
        assert (x.coefficient(3) - PadicNumber.from_rational(1, 49, Q7)).is_zero

    def test_budget_that_reads_no_exponent_fails_the_chart(self):
        # f scaled by the cube 7^-90 keeps the charts' power classes but
        # puts v(Q0) at -90, so the residual budget is below the target at
        # every exponent; the check reads nothing and reports a chart error
        # (the cut power of h must not collapse its window first)
        curve = SuperellipticCurve.from_branch_points(
            3, Fraction(1, 7**90), [(1, 1), (-1, 1), (7, 1), (-7, 1)]
        )
        with pytest.raises(ChartVerificationError, match="attains None, below target 10"):
            _first_annulus_analysis(curve, Q7)

    def test_orbit_count(self):
        assert annulus_orbit_count(self.curve, Q7) == 1
        assert genus(self.curve) == 3

    def test_report_fields(self):
        pts, _ = curve_branch_points(self.curve, Q7)
        tree = build_cluster_tree([t for t, _ in pts], [n for _, n in pts])
        a = enumerate_maximal_annuli(tree, m=3, infinity_is_branch=False)[0]
        rep = parameterize_annulus(a, self.curve, Q7).report()
        assert rep["interval"] == [0, 1]
        assert rep["theta_0_count"] == 2
        assert rep["d"] == 1
        assert rep["case"] == "rotation"
        assert rep["status"] == "charts"
        assert rep["verification_precision"] >= 10


class TestAnnulusVerdicts:
    def test_no_points_when_constant_is_not_a_dth_power(self):
        curve = SuperellipticCurve(4, [Fraction(c) for c in self._coeffs(2)])
        pts, complete = curve_branch_points(curve, Q13)
        assert complete
        tree = build_cluster_tree([t for t, _ in pts], [n for _, n in pts])
        a = enumerate_maximal_annuli(tree, m=4, infinity_is_branch=False)[0]
        analysis = parameterize_annulus(a, curve, Q13)
        assert analysis.status == "no_points"
        assert analysis.power_tests["d_th_power(Q0)"] == "False"

    def test_no_points_is_one_dth_power_test(self, monkeypatch):
        curve = SuperellipticCurve(4, [Fraction(c) for c in self._coeffs(2)])
        pts, _ = curve_branch_points(curve, Q13)
        tree = build_cluster_tree([t for t, _ in pts], [n for _, n in pts])
        a = enumerate_maximal_annuli(tree, m=4, infinity_is_branch=False)[0]
        exponents = []

        def counted(x, m):
            exponents.append(m)
            return is_mth_power(x, m)

        def no_search(*args):
            raise AssertionError("scale searched on an annulus with no points")

        monkeypatch.setattr(superchab.geometry, "is_mth_power", counted)
        monkeypatch.setattr(superchab.geometry, "_chart_scale", no_search)
        assert parameterize_annulus(a, curve, Q13).status == "no_points"
        assert exponents == [a.d] == [2]

    def test_split_charts_and_deck_action(self):
        curve = SuperellipticCurve(4, [Fraction(c) for c in self._coeffs(1)])
        pts, _ = curve_branch_points(curve, Q13)
        tree = build_cluster_tree([t for t, _ in pts], [n for _, n in pts])
        a = enumerate_maximal_annuli(tree, m=4, infinity_is_branch=False)[0]
        analysis = parameterize_annulus(a, curve, Q13)
        assert analysis.status == "charts"
        assert len(analysis.charts) == 2
        assert [c.sheet_index for c in analysis.charts] == [0, 1]
        # the deck transformation y -> zeta_4 y carries sheet 0 to sheet 1
        zeta = primitive_root_of_unity(4, Q13)
        image = analysis.charts[0].y_series.scaled(zeta)
        assert series_agree(image, analysis.charts[1].y_series, Q13.precision // 2)
        assert analysis.attained >= 10

    @staticmethod
    def _coeffs(lead):
        # lead * (x^2 - 1)(x^2 - 169^2)
        k = 169**2
        return [k * lead, 0, -(k + 1) * lead, 0, lead]


class TestChartScale:
    def test_scale_exists_exactly_for_dth_powers(self):
        # with d = gcd(k, m), a scale among m/d consecutive valuations makes
        # q * U^k an m-th power exactly when q is a d-th power; at k = 1
        # (disc case 2) one always exists at the valuation the radius picks
        rng = random.Random(18)
        chart_scale = superchab.geometry._chart_scale
        seen = {"split_prime": 0, "other_prime": 0, "found": 0, "none": 0}
        for m in range(2, 10):
            for p in [q for q in range(2, 80) if is_prime(q) and m % q]:
                ctx = PadicContext(p, 4)
                for vq in range(-8, 9):
                    seen["split_prime" if p % m == 1 else "other_prime"] += 1
                    unit = rng.randrange(1, p) + p * rng.randrange(p**3)
                    q = PadicNumber(ctx, vq, unit, 4)
                    k = rng.randint(1, 14)
                    d = math.gcd(k, m)
                    valuations = [0, *range(1 - m // d, 0)]
                    if d == 1 or is_mth_power(q, d):
                        scale = chart_scale(q, k, m, valuations)
                        assert is_mth_power(q * scale**k, m)
                        seen["found"] += 1
                    else:
                        with pytest.raises(ChartVerificationError):
                            chart_scale(q, k, m, valuations)
                        seen["none"] += 1
                    lam = next(lam for lam in range(1, m + 1) if (lam + vq) % m == 0)
                    scale = chart_scale(q, 1, m, [lam - m])
                    assert is_mth_power(q * scale, m)
        assert min(seen.values()) >= 800, seen


def _floor_holds(cut, full):
    """Every coefficient of full above cut's window sits on or above cut's
    upper tail floor."""
    return all(
        c.valuation >= cut.tail_above.at(n - cut.hi)
        for n, c in full.coefficients.items()
        if n > cut.hi
    )


def _branch_setup(rng, i):
    """Branch points of one seeded set-up: a disc's are all outer
    (v(theta) <= 0); an annulus mixes outer and inner (v(theta) > 0)."""
    m = 3 + i % 4
    p = rng.choice([q for q in (5, 7, 11, 13) if m % q])
    ctx = PadicContext(p, rng.randint(8, 20))
    disc = i % 3 == 0
    points = []
    for j in range(rng.randint(1, 4)):
        inner = not disc and (j == 0 or rng.random() < 0.5)
        v = rng.randint(1, 3) if inner else rng.randint(-2, 0)
        # p >= 5, so the denominator is a unit
        u = Fraction(rng.choice([a for a in range(1, 4 * p) if a % p]), rng.choice((1, 2, 3, 4)))
        theta = PadicNumber.from_fraction(rng.choice((1, -1)) * u * Fraction(p) ** v, ctx)
        points.append((theta, rng.randint(1, 3)))
    domain = AnnulusSpec.disc() if disc else AnnulusSpec.annulus(1)
    return points, m, rng.randint(4, 14), domain, ctx


class TestBranchProductOracle:
    """The branch product under the kernel's top cut against the product it
    replaced, which multiplied every factor over its full window and then
    clipped (`helpers.full_branch_product`)."""

    def test_cut_matches_the_full_product(self):
        rng = random.Random(22)
        kinds = set()
        for i in range(60):
            points, m, order, domain, ctx = _branch_setup(rng, i)
            kinds |= {(domain.is_disc, th.valuation > 0, n) for th, n in points}
            h = _branch_series_product(points, m, order, domain, ctx)
            old = full_branch_product(points, m, order, domain, ctx)
            assert list(h.coefficients) == list(old.coefficients)
            for n, c in h.coefficients.items():
                o = old.coefficients[n]
                assert (c.valuation, c.unit, c.known) == (o.valuation, o.unit, o.known)
            assert (h.lo, h.hi) == (old.lo, old.hi)
            assert (h.tail_below is None, h.tail_above is None) == (
                old.tail_below is None, old.tail_above is None
            )
            assert h.tail_below == old.tail_below
            if h.tail_above is not None:
                assert h.tail_above.slope <= old.tail_above.slope
                assert h.tail_above.offset <= old.tail_above.offset
        assert {(d, inner) for d, inner, _ in kinds} == {
            (True, False), (False, False), (False, True)
        }
        assert {n for _, _, n in kinds} == {1, 2, 3}

    def test_cut_floor_bounds_every_dropped_coefficient(self):
        rng = random.Random(2022)
        dropped = 0
        for i in range(60):
            points, m, order, domain, ctx = _branch_setup(rng, i)
            p = ctx.prime
            h = full_branch_product(points, m, order, domain, ctx)
            theta = PadicNumber.from_fraction(
                Fraction(rng.choice((1, -1, 2, 3)), p ** rng.randint(0, 2)), ctx
            )
            fac = branch_root_series(theta, m, order, domain)
            # with no tails on either factor, the cut's upper floor is the
            # kernel's floor alone
            h, fac = (LaurentSeries(ctx, s.coefficients, domain, s.lo, s.hi) for s in (h, fac))
            cut = h.mul_cut(fac, order)
            full = h * fac
            above = [c.valuation for n, c in full.coefficients.items() if n > cut.hi]
            if not above:
                continue
            dropped += 1
            assert cut.tail_above.slope == 0 and _floor_holds(cut, full)
            planted = LaurentSeries(
                ctx, cut.coefficients, domain, cut.lo, cut.hi, cut.tail_below,
                TailBound(Fraction(0), Fraction(min(above) + 1)),
            )
            assert not _floor_holds(planted, full)
        assert dropped >= 30


def _series_state(s):
    return (s.lo, s.hi, s.tail_below, s.tail_above, [
        (n, c.valuation, c.unit, c.known) for n, c in s.coefficients.items()
    ])


def _nested_annulus(rng, i):
    """One seeded annulus: a cluster of inner branch points about 0 at
    valuation beta >= 2, with 0 itself among them half of the time, and at
    least two outer points at units.  Multiplicities below m make k0 large,
    and a leading coefficient p^j sets v(Q) = j, negative or large."""
    m = 2 + i % 6
    p = rng.choice([q for q in (5, 7, 11, 13, 29) if q % m == 1])
    ctx = PadicContext(p, rng.randint(12, 24))
    beta = rng.randint(2, 3)
    mult = lambda: rng.randint(1, m - 1)
    units = rng.sample(range(1, p), 3)
    inner = [(p**beta * u, mult()) for u in units[: rng.randint(1, 3)]]
    if rng.random() < 0.5 or len(inner) == 1:
        inner.append((0, mult()))
    outer = [(u + p * rng.randint(-2, 2), mult()) for u in rng.sample(range(1, p), rng.randint(2, 3))]
    roots = inner + outer
    roots[0] = (roots[0][0], 1)  # gcd(m, multiplicities) = 1
    j = rng.choice((-2, -1, 0, 1, 2 * beta * 12, 2 * beta * 20))
    curve = SuperellipticCurve.from_branch_points(m, Fraction(p) ** j, roots)
    pts, _ = curve_branch_points(curve, ctx)
    tree = build_cluster_tree([t for t, _ in pts], [n for _, n in pts])
    [a] = enumerate_maximal_annuli(tree, m, curve.degree % m != 0)
    assert a.valuation_interval[1] - a.valuation_interval[0] == beta
    return a, curve, ctx


class TestBottomCutCharts:
    """Annulus charts with h^m cut below against the set-up that computed
    it whole (`helpers.full_power_annulus`)."""

    def test_charts_match_the_whole_power(self, monkeypatch):
        rng = random.Random(23)
        cuts = []
        honest = superchab.geometry._bottom_cut

        def recorded(h, m, q, k, cap):
            lo = honest(h, m, q, k, cap)
            cuts.append((lo, -k, q.valuation))
            return lo

        monkeypatch.setattr(superchab.geometry, "_bottom_cut", recorded)
        charted = set()
        for i in range(96):
            a, curve, ctx = _nested_annulus(rng, i)
            try:
                want = full_power_annulus(a, curve, ctx)
            except ChartVerificationError as exc:
                with pytest.raises(ChartVerificationError) as caught:
                    parameterize_annulus(a, curve, ctx)
                assert str(caught.value) == str(exc)
                continue
            got = parameterize_annulus(a, curve, ctx)
            assert got.report() == want.report()
            assert len(got.charts) == len(want.charts)
            for g, w in zip(got.charts, want.charts):
                assert (g.sheet_index, g.attained) == (w.sheet_index, w.attained)
                assert (g.gamma.valuation, g.gamma.unit, g.gamma.known) == (
                    w.gamma.valuation, w.gamma.unit, w.gamma.known
                )
                assert _series_state(g.x_series) == _series_state(w.x_series)
                assert _series_state(g.y_series) == _series_state(w.y_series)
            if got.status == "charts":
                charted.add(curve.m)
        made = [c for c in cuts if c[0] is not None]
        assert charted == {2, 3, 4, 5, 6, 7}
        assert len(made) >= 45
        # each side of the cut rule binds: the residual's support, e + k < 0,
        # and the floor reaching the cap
        assert sum(lo == k for lo, k, _ in made) >= 10
        assert sum(lo < k for lo, k, _ in made) >= 20
        assert sum(vq < 0 for _, _, vq in made) >= 10


class TestDiscCharts:
    def test_case_one_charts_and_evaluation(self):
        # y^3 = (x^2 - 1)(x^2 - 2)(x^2 - 4), f(0) = -8 = (-2)^3
        curve = SuperellipticCurve(3, [-8, 0, 14, 0, -7, 0, 1])
        analysis = parameterize_disc(DiscSpec(Fraction(0)), curve, Q7)
        assert analysis.case == 1
        assert analysis.status == "charts"
        assert len(analysis.charts) == 3
        z0 = PadicNumber.from_int(7, Q7)
        for chart in analysis.charts:
            x0 = chart.x_series.eval_at(z0)
            y0 = chart.y_series.eval_at(z0)
            fx = PadicNumber.from_fraction(curve.evaluate_f(lift_fraction(x0)), Q7)
            diff = y0**3 - fx
            assert diff.is_zero or diff.valuation >= 8

    def test_case_one_no_points(self):
        # y^3 = 2(x^2 - 2)(x^2 - 4), f(0) = 16 is not a cube mod 7
        curve = SuperellipticCurve(3, [16, 0, -12, 0, 2])
        analysis = parameterize_disc(DiscSpec(Fraction(0)), curve, Q7)
        assert analysis.status == "no_points"
        assert analysis.power_tests["d_th_power(Q0)"] == "False"

    def test_case_two_simple_branch_point(self):
        curve = SuperellipticCurve(3, [0, -2, 0, 1])  # y^3 = x^3 - 2x = x(x^2 - 2)
        analysis = parameterize_disc(DiscSpec(Fraction(0)), curve, Q7)
        assert analysis.case == 2
        assert analysis.status == "charts"
        chart = analysis.charts[0]
        # v(x) + v(f'(0)) = 0 mod 3 with v(f'(0)) = v(-2) = 0 puts the disc's
        # points at v(x) = 3, 6, ...: the scale U, the z^3 coefficient of x,
        # is a unit
        assert chart.x_series.coefficient(3).valuation == 0
        z0 = PadicNumber.from_int(7, Q7)
        x0 = chart.x_series.eval_at(z0)
        y0 = chart.y_series.eval_at(z0)
        fx = PadicNumber.from_fraction(curve.evaluate_f(lift_fraction(x0)), Q7)
        diff = y0**3 - fx
        assert diff.is_zero or diff.valuation >= 8

    @pytest.mark.parametrize(
        "m, ctx, roots, sheets",
        [
            (3, Q7, [(0, 2), (1, 1)], 1),  # Q = -1, d = 1
            (4, Q13, [(0, 2), (1, 1), (4, 1)], 2),  # Q = 4 = 2^2
            (4, Q13, [(0, 2), (1, 1), (2, 1)], 0),  # Q = 2, no square mod 13
            (6, Q7, [(0, 3), (1, 1), (6, 1)], 3),  # Q = 6 = (-1)^3
        ],
        ids=["m3_one_sheet", "m4_two_sheets", "m4_no_points", "m6_three_sheets"],
    )
    def test_case_two_multiplicity(self, m, ctx, roots, sheets):
        # a branch point of multiplicity k at the origin gives gcd(k, m)
        # sheets when Q is a gcd(k, m)-th power, and no points otherwise
        curve = SuperellipticCurve.from_branch_points(m, 1, roots)
        analysis = parameterize_disc(DiscSpec(Fraction(0)), curve, ctx)
        assert analysis.case == 2
        assert len(analysis.charts) == sheets
        if not sheets:
            assert analysis.status == "no_points"
            assert analysis.power_tests["d_th_power(Q0)"] == "False"
            assert analysis.detail.endswith("over this disc")
            return
        assert analysis.status == "charts"
        p = ctx.prime
        for chart in analysis.charts:
            for z in (p, 2 * p, p * p):
                z0 = PadicNumber.from_int(z, ctx)
                x0 = chart.x_series.eval_at(z0)
                y0 = chart.y_series.eval_at(z0)
                fx = PadicNumber.from_fraction(curve.evaluate_f(lift_fraction(x0)), ctx)
                diff = y0**m - fx
                assert diff.is_zero or diff.valuation >= 8

    def test_case_three_odd_m_rejected(self):
        curve = SuperellipticCurve(3, [98, 0, -51, 0, 1])
        # (x^2 - 49)(x^2 - 2): both 7 and -7 in the center disc
        with pytest.raises(ValueError, match="even"):
            parameterize_disc(DiscSpec(Fraction(0)), curve, Q7)

    def test_case_three_even_m_unanalyzed(self):
        # y^m = ±(x^2 - 49)(x^2 - 2): both 7 and -7 in the center disc
        for m in (2, 4):
            for sign in (1, -1):
                curve = SuperellipticCurve(m, [sign * c for c in (98, 0, -51, 0, 1)])
                analysis = parameterize_disc(DiscSpec(Fraction(0)), curve, Q7)
                assert analysis.case == 3
                assert analysis.status == "unanalyzed"
                assert analysis.charts == []


def _binomial_shift(coeffs, c, ctx):
    """f(c + t) by binomial expansion, term by term: the reference for the
    Taylor shift."""
    out = [PadicNumber.zero(ctx) for _ in coeffs]
    for k, ck in enumerate(coeffs):
        for j in range(k + 1):
            term = PadicNumber.from_fraction(ck * math.comb(k, j), ctx) * c ** (k - j)
            out[j] = out[j] + term
    return out


def _padic_shift(coeffs, c, ctx):
    """f(c + t) over Q_p as parameterize_disc computes it: the Taylor shift
    of ratpoly.compose_linear on the p-adic images of the coefficients."""
    padic = [PadicNumber.from_fraction(ck, ctx) for ck in coeffs]
    return ratpoly.compose_linear(padic, c, PadicNumber.from_int(1, ctx))


class TestShiftPolyPadic:
    def test_seeded_sweep_against_exact_and_binomial_shift(self):
        # at a rational center the shift agrees with the exact rational one,
        # and at a p-adic center with the binomial expansion, to every
        # digit of working precision
        rng = random.Random(19)
        shift = _padic_shift
        for p in (5, 7, 13):
            ctx = PadicContext(p, 20)
            for _ in range(30):
                coeffs = [Fraction(rng.randint(-50, 50)) for _ in range(rng.randint(2, 10))]
                center = rng.randint(-3 * p, 3 * p)
                exact = ratpoly.compose_linear(coeffs, Fraction(center), Fraction(1))
                exact += [Fraction(0)] * (len(coeffs) - len(exact))
                unit = rng.randrange(1, p) + p * rng.randrange(p**19)
                padic_center = PadicNumber(ctx, rng.randint(0, 3), unit, 20)
                pairs = [
                    *zip(shift(coeffs, PadicNumber.from_int(center, ctx), ctx),
                         [PadicNumber.from_fraction(e, ctx) for e in exact]),
                    *zip(shift(coeffs, padic_center, ctx),
                         _binomial_shift(coeffs, padic_center, ctx)),
                ]
                for got, want in pairs:
                    diff = got - want
                    assert diff.is_zero or diff.valuation >= ctx.precision


def _is_dth_power_in_qp(q, d, p):
    """Brute force for an integer q != 0 and p not dividing d: v_p(q) is a
    multiple of d and the unit residue is a d-th power mod p."""
    v = 0
    while q % p == 0:
        q //= p
        v += 1
    return v % d == 0 and q % p in {pow(u, d, p) for u in range(1, p)}


class TestDiscStatusOracle:
    def test_seeded_sweep_against_brute_force_power_test(self):
        # a residue disc with one root o of multiplicity k, or none (o the
        # residue, k = 0), has d = gcd(k, m) charts exactly when
        # Q = lead * prod (o - theta)^n over the other roots is a d-th power
        rng = random.Random(19)
        seen = {}
        start = time.process_time()
        for m in range(3, 7):
            p = next(r for r in range(m + 1, 50) if is_prime(r) and r % m == 1)
            ctx = PadicContext(p, 20)
            for _ in range(6):
                lead = rng.choice([1, -1, 2, 3, p, 2 * p, p * p])
                thetas = rng.sample(range(-12, 13), rng.randint(2, 4))
                roots = [(t, rng.randint(1, m - 1)) for t in thetas]
                curve = SuperellipticCurve.from_branch_points(m, lead, roots)
                for x in range(p):
                    inside = [(t, n) for t, n in roots if (t - x) % p == 0]
                    if len(inside) > 1:
                        continue
                    o, k = inside[0] if inside else (x, 0)
                    q = math.prod(((o - t) ** n for t, n in roots if t != o), start=lead)
                    d = math.gcd(k, m)
                    charted = _is_dth_power_in_qp(q, d, p)
                    analysis = parameterize_disc(DiscSpec(Fraction(x)), curve, ctx)
                    assert analysis.case == len(inside) + 1
                    assert analysis.status == ("charts" if charted else "no_points")
                    if charted:
                        assert len(analysis.charts) == d
                        assert analysis.attained >= ctx.precision // 2
                    key = (analysis.status, k > 1)
                    seen[key] = seen.get(key, 0) + 1
        assert time.process_time() - start < 3.0
        assert len(seen) == 4 and min(seen.values()) >= 5, seen


class TestInertBranch:
    def test_incomplete_split_flagged(self):
        # x^2 + 1 is inert over Q7
        curve = SuperellipticCurve(3, [1, 0, 1])
        pts, complete = curve_branch_points(curve, Q7)
        assert not complete
        analysis = parameterize_disc(DiscSpec(Fraction(0)), curve, Q7)
        assert analysis.status == "unanalyzed"
        assert "bound still valid" in analysis.detail


def _first_annulus_analysis(curve, ctx):
    pts, _ = curve_branch_points(curve, ctx)
    tree = build_cluster_tree([t for t, _ in pts], [n for _, n in pts])
    a = enumerate_maximal_annuli(tree, m=curve.m, infinity_is_branch=False)[0]
    return parameterize_annulus(a, curve, ctx)


_K = 169**2
CHART_CASES = {
    "rotation_annulus": lambda: _first_annulus_analysis(
        SuperellipticCurve.from_branch_points(3, 1, [(1, 1), (-1, 1), (7, 1), (-7, 1)]),
        Q7,
    ),
    "split_annulus": lambda: _first_annulus_analysis(
        SuperellipticCurve(4, [Fraction(c) for c in (_K, 0, -(_K + 1), 0, 1)]), Q13
    ),
    "disc_case_one": lambda: parameterize_disc(
        DiscSpec(Fraction(0)), SuperellipticCurve(3, [-8, 0, 14, 0, -7, 0, 1]), Q7
    ),
    "disc_case_two": lambda: parameterize_disc(
        DiscSpec(Fraction(0)), SuperellipticCurve(3, [0, -2, 0, 1]), Q7
    ),
}

# (attained, [(gamma, x, y) per sheet]) with every value reduced mod
# p^(precision/2) and zero residues left out; captured from the chart code
# before its verifier was shared.
CHART_GOLDEN = {
    "rotation_annulus": (10, [(
        146507973,
        {3: 1},
        {-22: 46118408, -16: 128237410, -10: 251538364, -4: 220803457,
         2: 149782839, 8: 90978208, 14: 147283663, 20: 276581884,
         26: 222168556, 32: 242147105, 38: 252217077, 44: 250400047,
         50: 185993924, 56: 110437718, 62: 63292195, 68: 126375070,
         74: 10900510},
    )]),
    "split_annulus": (10, [
        (
            85658552022,
            {2: 2},
            {-7: 48943843260, -3: 119810024802, 1: 119205902768,
             5: 41341161871, 9: 119444814938, 13: 5754041032,
             17: 63458848200, 21: 12377223789, 25: 2607058449,
             29: 80836415976, 33: 136750160034, 37: 82204901377,
             41: 84252946372, 45: 23918645855, 49: 127937421313},
        ),
        (
            52199939825,
            {2: 2},
            {-7: 117465223824, -3: 110124075750, 1: 61988280062,
             5: 22438778524, 9: 131341386107, 13: 59466144915,
             17: 89579779467, 21: 85350813939, 25: 82068541712,
             29: 2196413005, 33: 108832065949, 37: 687141200,
             41: 98463005938, 45: 110242953769, 49: 65162568276},
        ),
    ]),
    "disc_case_one": (20, [
        (
            271934554,
            {1: 1},
            {0: 271934554, 2: 76767551, 4: 29936900, 6: 257477044,
             8: 56262248, 10: 99636964, 12: 197460832, 14: 47188974,
             16: 54017495, 18: 86106557, 20: 134782298, 22: 115978121,
             24: 48779907},
        ),
        (
            10540697,
            {1: 1},
            {0: 10540697, 2: 252786905, 4: 185842804, 6: 194897477,
             8: 267334655, 10: 218709239, 12: 81695541, 14: 65394154,
             16: 126113981, 18: 159949485, 20: 281915536, 22: 57221311,
             24: 263574929},
        ),
        (
            282475247,
            {1: 1},
            {0: 282475247, 2: 235396042, 4: 66695545, 6: 112575977,
             8: 241353595, 10: 246604295, 12: 3318876, 14: 169892121,
             16: 102343773, 18: 36419207, 20: 148252664, 22: 109275817,
             24: 252595662},
        ),
    ]),
    "disc_case_two": (20, [(
        94670661,
        {3: 3},
        {1: 94670661, 7: 281706882, 13: 140085074, 19: 67737436,
         25: 203212308, 31: 218640218, 37: 200290265, 43: 104147914,
         49: 249317053, 55: 155368831, 61: 12740418, 67: 24702994,
         73: 98811976},
    )]),
}


def _residues(series, digits):
    out = {}
    for n, c in sorted(series.coefficients.items()):
        r = c.value_mod(digits)
        if r:
            out[n] = r
    return out


class TestChartGolden:
    """Every chart kind pinned to its values mod p^(precision/2)."""

    @pytest.mark.parametrize("name", sorted(CHART_CASES))
    def test_values(self, name):
        analysis = CHART_CASES[name]()
        attained, sheets = CHART_GOLDEN[name]
        assert analysis.status == "charts"
        assert analysis.attained == attained
        assert len(analysis.charts) == len(sheets)
        for chart, (gamma, x, y) in zip(analysis.charts, sheets):
            digits = chart.gamma.context.precision // 2
            assert chart.attained == attained
            assert chart.gamma.value_mod(digits) == gamma
            assert _residues(chart.x_series, digits) == x
            assert _residues(chart.y_series, digits) == y

    @pytest.mark.parametrize("name", sorted(CHART_CASES))
    def test_planted_branch_fault_is_caught(self, name, monkeypatch):
        # h wrong by p^3 in its first-order coefficient, or in its last one
        # (exponent order, the top of every window a chart reports), must
        # make the residual check fail at exactly three digits.  An annulus
        # takes the fault through one of its branch factors, a disc through
        # the m-th root that is its h.
        def planted(s, n):
            ctx = s.context
            coeffs = dict(s.coefficients)
            coeffs[n] = coeffs.get(n, PadicNumber.zero(ctx)) + PadicNumber.from_int(ctx.prime**3, ctx)
            return LaurentSeries(ctx, coeffs, s.domain, s.lo, s.hi, s.tail_below, s.tail_above)

        root, factor = superchab.geometry.mth_root_series, superchab.geometry.branch_root_series
        for last in (False, True):
            if name.startswith("disc"):

                def faulty(coeffs, m, order, ctx):
                    return planted(root(coeffs, m, order, ctx), order if last else 1)

                monkeypatch.setattr(superchab.geometry, "mth_root_series", faulty)
            else:

                def faulty(theta, m, order, domain):
                    s = factor(theta, m, order=order, domain=domain)
                    return planted(s, (order if last else 1) * (-1 if theta.valuation > 0 else 1))

                monkeypatch.setattr(superchab.geometry, "branch_root_series", faulty)
            with pytest.raises(ChartVerificationError, match="attains 3, below target 10"):
                CHART_CASES[name]()

    @pytest.mark.parametrize("name", sorted(CHART_CASES))
    def test_planted_gamma_fault_is_caught(self, name, monkeypatch):
        # gamma wrong by a factor 1 + p^3 breaks gamma^m = Q * U^k at three
        # digits, which no residual coefficient shows
        honest = superchab.geometry.mth_root

        def faulty(x, m):
            ctx = x.context
            return honest(x, m) * PadicNumber.from_int(1 + ctx.prime**3, ctx)

        monkeypatch.setattr(superchab.geometry, "mth_root", faulty)
        with pytest.raises(ChartVerificationError, match="attains 3, below target 10"):
            CHART_CASES[name]()


def _disc_roots(monkeypatch):
    """Record, for every disc chart built from here on, the h it used (the
    m-th root of the recentred f) beside the product of its branch factors
    (helpers.full_branch_product), as (chain, root) pairs."""
    pairs, disc = [], []
    build, root = superchab.geometry._build_charts, superchab.geometry.mth_root_series

    def recorded_build(analysis, m, q, k, origin, points, domain, *rest, **kwargs):
        disc[:] = [points, domain]
        return build(analysis, m, q, k, origin, points, domain, *rest, **kwargs)

    def recorded_root(coeffs, m, order, ctx):
        h = root(coeffs, m, order, ctx)
        pairs.append((full_branch_product(disc[0], m, order, disc[1], ctx), h))
        return h

    monkeypatch.setattr(superchab.geometry, "_build_charts", recorded_build)
    monkeypatch.setattr(superchab.geometry, "mth_root_series", recorded_root)
    return pairs


def _root_state(s):
    return (s.lo, s.hi, s.tail_below, s.tail_above,
            [(n, c.valuation, c.unit, c.known) for n, c in s.coefficients.items()])


class TestDiscRoot:
    """A disc chart takes h as one m-th root of the recentred f; on the
    benchmark's charts corpus and the golden discs that is the branch
    product, to every (valuation, unit, known) and the key order."""

    def test_equals_the_chain_on_the_charts_corpus(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        corpus = importlib.import_module("corpus")
        pairs = _disc_roots(monkeypatch)
        for seed in (1, 401, 402, 777, 901, 902):
            for c in corpus.charts_corpus(seed):
                curve = SuperellipticCurve.from_branch_points(c.m, c.lead, list(c.roots))
                ctx = PadicContext(c.p, corpus.CHARTS_PRECISION)
                for x in range(c.p):
                    if [n for t, n in c.roots if (t - x) % c.p == 0] in ([], [1]):
                        parameterize_disc(DiscSpec(Fraction(x)), curve, ctx)
        assert len(pairs) == 42
        assert all(_root_state(chain) == _root_state(root) for chain, root in pairs)

    @pytest.mark.parametrize("name", ["disc_case_one", "disc_case_two"])
    def test_equals_the_chain_on_the_golden_discs(self, name, monkeypatch):
        pairs = _disc_roots(monkeypatch)
        CHART_CASES[name]()
        [(chain, root)] = pairs
        assert _root_state(chain) == _root_state(root)

    def test_pinned_divergence(self, monkeypatch):
        """Branch points 0, 1/49, 3/7 and 2 of y^3 = f(x) at p = 7: on the
        disc at 0, where the outer points have valuations -2, -1 and 0,
        every pair summed into h_6, h_13 and h_20 has positive valuation.
        The chain keeps 20 relative digits there, the root the 19 that
        u's 20 absolute digits fix; the chart's y keeps those 19 at
        exponents 19, 40 and 61, and the residual still attains 20."""
        pairs = _disc_roots(monkeypatch)
        curve = SuperellipticCurve.from_branch_points(
            3, 1, [(0, 1), (Fraction(1, 49), 1), (Fraction(3, 7), 1), (2, 1)]
        )
        analysis = parameterize_disc(DiscSpec(Fraction(0)), curve, Q7)
        [(chain, root)] = pairs
        differ = [n for n in range(25) if chain.coefficient(n) != root.coefficient(n)]
        assert differ == [6, 13, 20]
        for n in differ:
            a, b = chain.coefficients[n], root.coefficients[n]
            assert (a.valuation, a.known, b.valuation, b.known) == (1, 20, 1, 19)
            assert a.unit % 7**19 == b.unit
        assert _root_state(chain)[:4] == _root_state(root)[:4]
        assert analysis.attained == 20
        y = analysis.charts[0].y_series.coefficients
        assert [y[n].known for n in (19, 40, 61)] == [19, 19, 19]
