"""Residue geometry over Q_p: cluster trees of branch points, maximal
annuli, their classification, and explicit verified chart maps.  The
branch points themselves are the Q_p roots that padic.qp_roots finds;
this module arranges them.

Every chart, on an annulus or on a disc, recentres f at an origin o and
reads the curve through one identity,

    y^m = Q * t^k * h(t)^m,

with t the recentred coordinate, k the branch points (with multiplicity) at
the origin, h the unit product of the branch factors, (1 - theta/t)^(n/m)
for v(theta) > 0 (inside) and (1 - t/theta)^(n/m) for v(theta) <= 0
(outside), and Q the leading coefficient times prod (-theta)^n over the
outside points.  On an annulus k counts the points inside; a disc's origin
is its one branch point, with k its multiplicity, or its center, with
k = 0.  The callers pick (o, Q, k) and the budget, and one set-up,
_build_charts, does the rest.  With d = gcd(k, m) it records
no_points when Q is not a d-th power; otherwise it finds a scale U with
gamma^m = Q * U^k and records the d sheets t = U z^(m/d),
y_j = zeta_m^j gamma z^(k/d) h(U z^(m/d)).  The check reads gamma^m - Q * U^k
and, term by term, the residual Q * [h^m]_(n-k) - f_n at every n from
min(0, the lowest exponent h^m * t^k knows) up to the cut plus k, each to
a cap: the digits truncation leaves reliable there.  There are two
budgets.  On an annulus of width beta the cap falls by beta per exponent
past k, and exponents whose cap is below the target are skipped; h^m is
also cut below, where a sloped floor from h's stored valuations already
clears the cap, a certificate the check tests.  On a disc every cap is the
working precision, so each exponent the chart reports, and each one below
k, is checked.  A chart that misses its target raises
ChartVerificationError, never a silent result.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from . import ratpoly
from .curve import SuperellipticCurve, genus
from .padic import (
    ChartVerificationError,
    PadicContext,
    PadicNumber,
    _check_cap,
    is_mth_power,
    mth_root,
    primitive_root_of_unity,
    qp_roots,
)
from .series import (
    AnnulusSpec,
    LaurentSeries,
    TailBound,
    _negative_slope,
    branch_root_series,
)

__all__ = [
    "AnnulusAnalysis",
    "ChartMap",
    "ChartVerificationError",
    "ClusterNode",
    "ClusterTree",
    "DiscAnalysis",
    "DiscSpec",
    "MAX_PRIME",
    "ResidueAnnulus",
    "annulus_orbit_count",
    "build_cluster_tree",
    "classify_annulus",
    "curve_branch_points",
    "enumerate_maximal_annuli",
    "parameterize_annulus",
    "parameterize_disc",
    "pruned_annulus_count",
]


# -- branch points over Q_p ----------------------------------------------------

# padic.qp_roots scans all p residues once per square-free block, so its time
# grows linearly in p: about 1 s of CPU at p = 999979 for a quartic with four
# rational roots (2-core x86 host, Python 3.11).  The limit admits the least
# prime = 1 mod m for every m up to padic.MAX_M (the largest is 496747).
MAX_PRIME = 1_000_000


def curve_branch_points(
    curve: SuperellipticCurve, ctx: PadicContext
) -> tuple[list[tuple[PadicNumber, int]], bool]:
    """Branch points of f in Q_p with multiplicities; the flag reports
    whether every branch point was found (full splitting)."""
    points = [
        (r, mult)
        for block, mult in curve.branch_blocks()
        for r in qp_roots(block, ctx)[0]
    ]
    return points, len(points) == curve.branch_point_count


# -- cluster trees --------------------------------------------------------------


@dataclass
class ClusterNode:
    members: tuple[int, ...]
    depth: int | None  # None on singleton leaves
    parent_depth: int | None
    children: tuple["ClusterNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return len(self.members) == 1


@dataclass
class ClusterTree:
    points: list[PadicNumber]
    multiplicities: list[int]
    root: ClusterNode

    def proper_clusters(self) -> list[ClusterNode]:
        out: list[ClusterNode] = []

        def walk(node: ClusterNode, is_root: bool) -> None:
            if not is_root and not node.is_leaf:
                out.append(node)
            for ch in node.children:
                walk(ch, False)

        walk(self.root, True)
        return out


def _pair_valuation(a: PadicNumber, b: PadicNumber) -> int:
    d = a - b
    if d.is_zero:
        raise ValueError(
            "coincident branch points: two of them agree to all "
            f"{a.context.precision} digits of working precision; if they are "
            "distinct, raise --precision"
        )
    return d.valuation


def build_cluster_tree(
    theta: list[PadicNumber], multiplicities: list[int]
) -> ClusterTree:
    """Hierarchical clustering of points under v(theta_i - theta_j).

    Children of a cluster of depth delta are the classes of the relation
    v(theta_i - theta_j) > delta; ultrametricity makes this an equivalence.
    """
    if len(theta) != len(multiplicities):
        raise ValueError("one multiplicity per branch point")
    if len(theta) < 1:
        raise ValueError("empty branch locus")

    def build(indices: tuple[int, ...], parent_depth: int | None) -> ClusterNode:
        if len(indices) == 1:
            return ClusterNode(indices, None, parent_depth)
        # the least pairwise valuation is the least one from any member
        first = theta[indices[0]]
        depth = min(_pair_valuation(first, theta[j]) for j in indices[1:])
        groups: list[list[int]] = []
        for i in indices:
            for grp in groups:
                if _pair_valuation(theta[i], theta[grp[0]]) > depth:
                    grp.append(i)
                    break
            else:
                groups.append([i])
        children = tuple(build(tuple(g), depth) for g in groups)
        return ClusterNode(indices, depth, parent_depth, children)

    root = build(tuple(range(len(theta))), None)
    return ClusterTree(list(theta), list(multiplicities), root)


def pruned_annulus_count(tree: ClusterTree, infinity_is_branch: bool) -> int:
    """Edges of the pruned skeleton: annuli separating at least two branch
    classes on each side.  This is the count the leaf-edge bound applies to.

    Every proper cluster is one edge, except the root's proper children when
    the root has fewer than three legs (children, plus infinity when it
    ramifies): their edges then count once when both of two children are
    proper, and not at all otherwise.
    """
    root = tree.root
    edges = len(tree.proper_clusters())
    if len(root.children) + infinity_is_branch >= 3:
        return edges
    top = sum(not c.is_leaf for c in root.children)
    return edges - top + (len(root.children) == 2 and top == 2)


# -- residue annuli -------------------------------------------------------------


@dataclass
class ResidueAnnulus:
    """A maximal annulus with theta_0 the branch points inside.  Its sheet
    count d = gcd(k0, m) and case follow from m (see classify_annulus);
    both are None while m is unknown."""

    center: PadicNumber
    rational_center: int
    valuation_interval: tuple[int, int]
    theta_0: list[tuple[PadicNumber, int]]
    theta_infty: list[tuple[PadicNumber, int]]
    m: int | None = None

    def __post_init__(self) -> None:
        """Check the partition: theta_0 and rational_center at
        v(x - center) >= hi, theta_infty at v(x - center) <= lo."""
        lo, hi = self.valuation_interval
        if lo >= hi:
            raise ValueError("empty annulus interval")
        c_rat = PadicNumber.from_int(self.rational_center, self.center.context)
        for x in [c_rat, *(th for th, _ in self.theta_0)]:
            diff = x - self.center
            if not diff.is_zero and diff.valuation < hi:
                raise ValueError(
                    f"theta_0 or the rational center lies at v(x - center) < {hi}"
                )
        for th, _ in self.theta_infty:
            diff = th - self.center
            if diff.is_zero or diff.valuation > lo:
                raise ValueError(f"theta_infty lies at v(x - center) > {lo}")

    def weighted_inner_count(self) -> int:
        return sum(n for _, n in self.theta_0)

    @property
    def d(self) -> int | None:
        return None if self.m is None else math.gcd(self.weighted_inner_count(), self.m)

    @property
    def case(self) -> str | None:
        return None if self.m is None else ("split" if self.d > 1 else "rotation")


def enumerate_maximal_annuli(
    tree: ClusterTree, m: int, infinity_is_branch: bool
) -> list[ResidueAnnulus]:
    """One annulus per proper cluster: interval from the parent's depth to
    the cluster's own.  The pruned skeleton count is checked against the
    leaf bound s - 3 (counting the place at infinity when it ramifies)."""
    annuli: list[ResidueAnnulus] = []
    for node in tree.proper_clusters():
        members = set(node.members)
        center = tree.points[node.members[0]]
        hi = node.depth
        lo = node.parent_depth
        if not center.is_zero and center.valuation < 0:
            raise ValueError(
                "annulus center of negative valuation; renormalize the curve"
            )
        c_rat = center.value_mod(max(hi, 1))
        th0 = [(tree.points[i], tree.multiplicities[i]) for i in sorted(members)]
        thinf = [
            (tree.points[i], tree.multiplicities[i])
            for i in range(len(tree.points))
            if i not in members
        ]
        annuli.append(ResidueAnnulus(center, c_rat, (lo, hi), th0, thinf, m))
    s_eff = len(tree.points) + (1 if infinity_is_branch else 0)
    pruned = pruned_annulus_count(tree, infinity_is_branch)
    _check_cap(pruned, max(0, s_eff - 3), "pruned annulus count", "leaf bound")
    return annuli


def classify_annulus(a: ResidueAnnulus, m: int) -> str:
    """Record m on the annulus and return its case: split (d > 1 disjoint
    annuli permuted) or rotation (single annulus, rotated), where
    d = gcd(k0, m) for k0 branch points inside."""
    a.m = m
    return a.case


def annulus_orbit_count(curve: SuperellipticCurve, ctx: PadicContext) -> int:
    """Number of deck-orbits of maximal annuli (one per skeleton edge);
    checked against floor((4g-4)/m) + 1."""
    points, complete = curve_branch_points(curve, ctx)
    if not complete:
        raise ValueError("branch locus does not split over Q_p")
    tree = build_cluster_tree([t for t, _ in points], [n for _, n in points])
    inf_branch = curve.degree % curve.m != 0
    count = pruned_annulus_count(tree, inf_branch)
    g = genus(curve)
    cap = (4 * g - 4) // curve.m + 1
    _check_cap(count, cap, "orbit count", "cap")
    return count


# -- charts ---------------------------------------------------------------------


@dataclass
class ChartMap:
    """One sheet of a chart: the curve point (x_series(z), y_series(z)).

    On an annulus x_series is the recentred coordinate x', with
    x = c + p^L * x' for c the annulus's rational_center and L the lower
    end of its valuation_interval; on a disc x_series is x itself.
    """

    x_series: LaurentSeries
    y_series: LaurentSeries
    sheet_index: int
    gamma: PadicNumber
    attained: int


@dataclass
class AnnulusAnalysis:
    annulus: ResidueAnnulus
    status: str  # "charts" | "no_points" | "unanalyzed"
    charts: list[ChartMap] = field(default_factory=list)
    power_tests: dict[str, str] = field(default_factory=dict)
    attained: int | None = None
    detail: str = ""

    def report(self) -> dict:
        lo, hi = self.annulus.valuation_interval
        return {
            "center": str(self.annulus.rational_center),
            "interval": [lo, hi],
            "theta_0_count": self.annulus.weighted_inner_count(),
            "d": self.annulus.d,
            "case": self.annulus.case,
            "status": self.status,
            "power_tests": dict(self.power_tests),
            "charts": len(self.charts),
            "verification_precision": self.attained,
            "detail": self.detail,
        }


def _branch_series_product(
    points: list[tuple[PadicNumber, int]],
    m: int,
    order: int,
    domain: AnnulusSpec,
    ctx: PadicContext,
) -> LaurentSeries:
    """h = prod of the branch factors (1 - theta/x)^(n/m) for points of
    positive valuation and (1 - x/theta)^(n/m) for the rest; converges on
    the open annulus, or on the open disc when no point has positive
    valuation.  Each partial product is kept to exponents [-order, order]
    on an annulus, [0, order] on a disc.

    An outer factor (v(theta) <= 0, window [0, order]) multiplies under
    the series kernel's top cut, which skips every pair landing above
    order.  An inner factor (window [-order, 0]) never lifts the product
    above order, so a top cut would skip nothing there; its product is
    full and clipped below -order."""
    lo = 0 if domain.is_disc else -order
    h = LaurentSeries.one(ctx, domain)
    for th, n in points:
        if th.is_zero:
            continue  # factor x^n is carried by the monomial part
        # The exactly-zero side of each factor is tagged with an explicit
        # floor so repeated products keep the full window instead of
        # pinning at the one-sided supports (a disc has no lower side).
        fac = _pseudo_entire(branch_root_series(th, m, order=order, domain=domain))
        for _ in range(n):
            if th.valuation > 0:
                h = (h * fac).window_clipped(lo, order)
            else:
                h = h.mul_cut(fac, order)
    return h


def _bottom_cut(
    h: LaurentSeries, m: int, q: PadicNumber, k: int, cap: Callable[[int], int]
) -> int | None:
    """The exponent lo below which an annulus chart leaves h^m uncomputed,
    or None when it computes all of h^m.

    With alpha the least stored valuation of h and sigma > 0 its
    _negative_slope, every computed coefficient of h^m at e < 0 has
    valuation at least m * alpha + sigma * (-e) (LaurentSeries.__pow__).
    Below -k the residual Q * t^k * h^m - f is Q * t^k * h^m alone, f
    having no negative exponent, and an annulus's cap is the same at every
    exponent below 0.  So lo is the greatest e <= -k at which the floor of the
    residual at e - 1, v(Q) + m * alpha + sigma * (1 - e), reaches that cap;
    it reaches it at every lower exponent too.
    """
    sigma = _negative_slope(h)
    if sigma is None or sigma <= 0:
        return None
    need = cap(-1) - q.valuation - m * h._min_stored_valuation()
    lo = min(-k, 1 - math.ceil(need / sigma))
    return lo if lo > m * h.lo else None


def _verified_digits(
    constant: PadicNumber,
    checks: Iterable[tuple[PadicNumber, int]],
    target: int,
    floor: tuple[Fraction, int] | None = None,
) -> int:
    """Digits to which a chart's identity holds, checked against a budget.

    constant is gamma^m - Q * U^k, read at working precision.  checks
    yields the residual's (coefficient, cap) pairs, cap being the digits
    truncation leaves reliable there.  Pairs with cap below target are
    skipped; every other value counts min(v, cap) digits, and a zero one
    min(cap, working precision).  A residual read at no exponent verifies
    nothing, whatever the constant.

    floor, when a bottom cut left h^m uncomputed below some exponent, is
    the residual's valuation floor at the first exponent dropped, paired
    with that exponent's cap.  It is a certificate only: a floor under a
    cap that reaches the target fails the chart.  It counts no digits: each
    dropped coefficient would count that cap (an annulus's caps are equal
    below 0), and so can no exponent read up to 0 exceed it.
    """
    if target < 1:
        raise ValueError(
            f"verification target of {target} digits is below one p-adic "
            "digit; use precision 2 or more"
        )
    precision = constant.context.precision

    def digits(c: PadicNumber, cap: int) -> int:
        return min(cap, precision) if c.is_zero else min(c.valuation, cap)

    read = [digits(c, cap) for c, cap in checks if cap >= target]
    if floor is not None:
        value, cap = floor
        if target <= cap and value < cap:
            raise ChartVerificationError(
                f"residual floor {value} below the cut of h^m is under its cap {cap}"
            )
    attained = min(digits(constant, precision), *read) if read else None
    if attained is None or attained < target:
        raise ChartVerificationError(
            f"chart residual attains {attained}, below target {target}"
        )
    return attained


def _build_charts(
    analysis: AnnulusAnalysis | DiscAnalysis, m: int, q: PadicNumber, k: int,
    origin: PadicNumber, points: list, domain: AnnulusSpec,
    order: int, cut: int, f_coeffs: list, cap: Callable[[int], int],
):
    """Decide and verify y^m = Q * t^k * h(t)^m on one chart, and record its
    sheets or that it has no rational points.

    The chart coordinate is origin + t: x on a disc, and x' on an annulus,
    whose origin is 0.  f_coeffs is f in t over Q_p, and h the unit branch
    product of the recentred points on domain, clipped at order; each
    factor takes its side from the point's valuation.  With
    d = gcd(k, m) there are no rational points unless Q is a d-th power.
    Otherwise a scale U makes Q * U^k = gamma^m, each sheet's x_series is
    origin + U z^(m/d), and the d sheets are
    y_j = zeta_m^j * gamma * z^(k/d) * h(U z^(m/d)).  With h^m cut at
    cut, the residual Q * [h^m]_(n-k) - f_n is read term by term at every n
    from min(0, the lowest exponent h^m * t^k knows) to cut + k, to cap(n)
    digits; the z-charts inherit the identity through the exact monomial
    substitution and gamma^m = Q * U^k, which is read too.

    On an annulus h^m is also cut below, at _bottom_cut's exponent, where
    its sloped floor reaches the cap; that floor plus v(Q) is checked as a
    certificate for the dropped exponents.  A disc has no negative side.
    """
    ctx = q.context
    d = math.gcd(k, m)
    md = m // d
    is_power = d == 1 or is_mth_power(q, d)
    analysis.power_tests["d_th_power(Q0)"] = str(is_power) if d > 1 else "trivial"
    if not is_power:
        analysis.status = "no_points"
        analysis.detail = (
            "scale constant is not a d-th power: no rational points over "
            f"this {'disc' if domain.is_disc else 'annulus'}"
        )
        return analysis

    # U = u0 * p^sigma with 1 - m/d <= sigma <= 0, where one sigma solves
    # v(Q) + k sigma = 0 mod m: the z-annulus keeps positive radii, and a
    # disc chart reaches v(x - origin) = sigma + m/d >= 1 at v(z) = 1
    scale = _chart_scale(
        q, k, m, [v for v in range(1 - md, 1) if (q.valuation + k * v) % m == 0]
    )
    analysis.power_tests["m_th_power(Q0*U^k0)"] = "True"
    qu = q * scale**k
    gamma = mth_root(qu, m)
    h = _branch_series_product(points, m, order, domain, ctx)
    lo = None if domain.is_disc else _bottom_cut(h, m, q, k, cap)
    hm = h.__pow__(m, cut, lo)
    f = dict(enumerate(f_coeffs))
    zero = PadicNumber.zero(ctx)
    read = hm.coefficients
    attained = _verified_digits(
        gamma**m - qu,
        ((read.get(n - k, zero) * q - f.get(n, zero), cap(n))
         for n in range(min(hm.lo + k, 0), cut + k + 1)),
        ctx.precision // 2,
        None if lo is None else (hm.tail_below.at(1) + q.valuation, cap(hm.lo + k - 1)),
    )
    z_dom = domain if domain.is_disc else AnnulusSpec.annulus(
        (domain.inner_valuation - scale.valuation) / md
    )
    x_series = LaurentSeries.from_dict({0: origin, md: scale}, ctx, z_dom)
    y0 = h.compose_monomial(scale, md, z_dom).shifted(k // d).scaled(gamma)
    charts = [ChartMap(x_series, y0, 0, gamma, attained)]
    if d > 1:
        zeta = primitive_root_of_unity(m, ctx)
        for j in range(1, d):
            w = zeta**j
            charts.append(ChartMap(x_series, y0.scaled(w), j, gamma * w, attained))
    analysis.status = "charts"
    analysis.charts = charts
    analysis.attained = attained
    return analysis


def _chart_scale(
    q: PadicNumber, k: int, m: int, valuations: list[int]
) -> PadicNumber:
    """The first scale U = u0 * p^v, over v in the given order and then
    u0 = 1..p-1, for which q * U^k is an m-th power.

    With d = gcd(k, m), v(q) + k v = 0 mod m picks v modulo m/d, and the
    residues u0^k reach every coset of the m-th powers that a d-th power
    does.  So over m/d consecutive valuations a scale exists exactly when q
    is a d-th power; _build_charts tests that first, and a search that finds
    none raises ChartVerificationError.
    """
    ctx = q.context
    p = ctx.prime
    for v in valuations:
        for u0 in range(1, p):
            cand = PadicNumber(ctx, v, u0, ctx.precision)
            if is_mth_power(q * cand**k, m):
                return cand
    raise ChartVerificationError(
        f"no scale U makes Q * U^{k} an m-th power for m = {m} over "
        f"valuations {valuations}"
    )


def parameterize_annulus(
    a: ResidueAnnulus,
    curve: SuperellipticCurve,
    ctx: PadicContext,
) -> AnnulusAnalysis:
    """Verified charts over a maximal annulus.

    After recentering (x = c + p^L x') the curve reads
    y^m = Q0 * x'^k0 * h(x')^m with k0 branch points (with multiplicity)
    inside, h a unit branch-series product and Q0 the leading coefficient
    times prod (-theta)^n over the outer points.  _build_charts decides
    no_points or the d sheets x'(z) = U z^(m/d) from (Q0, k0).
    """
    m = curve.m
    p = ctx.prime
    target = ctx.precision // 2
    L, hi = a.valuation_interval
    beta = hi - L
    c_rat = a.rational_center

    scaled = ratpoly.compose_linear(curve.f, Fraction(c_rat), Fraction(p) ** L)

    # the annulus's own partition check puts theta_0 at v >= beta (or at
    # zero) and theta_infty at v <= 0 after recentering, so each branch
    # factor's valuation puts it on its side
    pl = PadicNumber.from_int(p, ctx) ** L
    c_p = PadicNumber.from_int(c_rat, ctx)
    theta0 = [((th - c_p) / pl, n) for th, n in a.theta_0]
    thetainf = [((th - c_p) / pl, n) for th, n in a.theta_infty]

    k0 = a.weighted_inner_count()
    f_padic = [PadicNumber.from_fraction(c, ctx) for c in scaled]
    q0 = math.prod(((-th) ** n for th, n in thetainf), start=f_padic[-1])

    # The check runs at the x'-level, where every stored coefficient has
    # nonnegative valuation.  Its cap falls by beta per exponent past k0, so
    # the residual is read at no exponent above k0 + reach, and h^m is cut
    # there (at 0 when it is read nowhere, so the check still fails as a
    # chart error).
    order = max(24, (target + 2) // beta + 12)
    vq = min(0, q0.valuation)
    reach = order + 1 + (vq - target) // beta
    return _build_charts(
        AnnulusAnalysis(annulus=a, status="unanalyzed"), m, q0, k0,
        PadicNumber.zero(ctx), theta0 + thetainf, AnnulusSpec.annulus(beta),
        order, cut=max(reach, 0), f_coeffs=f_padic,
        cap=lambda n: beta * (order + 1 - max(0, n - k0)) + vq,
    )


# -- discs ----------------------------------------------------------------------


@dataclass
class DiscSpec:
    """The residue disc v(x - center) >= 1 of reduction mod p."""

    center: Fraction

    def __post_init__(self) -> None:
        self.center = Fraction(self.center)


@dataclass
class DiscAnalysis:
    case: int
    status: str
    charts: list[ChartMap] = field(default_factory=list)
    power_tests: dict[str, str] = field(default_factory=dict)
    attained: int | None = None
    detail: str = ""


def parameterize_disc(
    spec: DiscSpec,
    curve: SuperellipticCurve,
    ctx: PadicContext,
) -> DiscAnalysis:
    """Chart construction on a residue disc, split by branch-point count.

    The origin o is the one branch point inside, with k its multiplicity
    (case 2), or the center, with k = 0 (case 1).  Recentred at o, x = o + t,
    the curve reads y^m = Q * t^k * h(t)^m with h the unit product over the
    other branch points and Q the leading coefficient times prod (o - theta)^n
    over them.  _build_charts decides from (Q, k) as on an annulus: no
    rational points over the disc unless Q is a d-th power, d = gcd(k, m),
    and otherwise d sheets x = o + U z^(m/d).  Case 3 (two branch points,
    m even) is reported unanalyzed, with no charts.
    """
    m = curve.m
    points, complete = curve_branch_points(curve, ctx)
    if not complete:
        return DiscAnalysis(
            0, "unanalyzed",
            detail="branch locus does not split over Q_p; bound still valid",
        )
    center_p = PadicNumber.from_fraction(spec.center, ctx)
    inside, outside = [], []
    for th, n in points:
        diff = th - center_p
        (inside if diff.is_zero or diff.valuation >= 1 else outside).append((th, n))
    if len(inside) > 2:
        raise ValueError("disc contains more than two branch points")
    if len(inside) == 2:
        if m % 2 == 1:
            raise ValueError("two branch points in a disc require even m")
        return DiscAnalysis(
            3, "unanalyzed",
            detail="two branch points in the disc; not charted",
        )

    [(origin, k)] = inside or [(center_p, 0)]
    outer = [(th - origin, n) for th, n in outside]
    f_padic = [PadicNumber.from_fraction(c, ctx) for c in curve.f]
    q = math.prod(((-th) ** n for th, n in outer), start=f_padic[-1])
    order = max(24, ctx.precision // 2 + 8)
    return _build_charts(
        DiscAnalysis(len(inside) + 1, "unanalyzed"), m, q, k, origin, outer,
        AnnulusSpec.disc(), order, cut=order,
        f_coeffs=ratpoly.compose_linear(f_padic, origin, PadicNumber.from_int(1, ctx)),
        cap=lambda n: ctx.precision,
    )


def _pseudo_entire(s: LaurentSeries) -> LaurentSeries:
    """Tag an exact Laurent polynomial with explicit huge tail floors.

    True coefficients beyond the window are zero, so the floor is sound;
    the tag keeps window knowledge from pinning at the polynomial's support
    when it multiplies a truncated series.  The tagged series shares s's
    coefficients, which are valid already.
    """
    big = TailBound(0, 10**9)
    return LaurentSeries._valid(
        s.context,
        s.coefficients,
        s.domain,
        s.lo,
        s.hi,
        s.tail_below if s.tail_below is not None else big,
        s.tail_above if s.tail_above is not None else big,
    )
