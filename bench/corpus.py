"""Seeded corpus generators, one per workload.

Each generator takes the seed and returns plain data (integers, Fractions,
tuples, strings); nothing here imports the package, so the package sees only
the generated curves.  The same seed always gives the same corpus.

Every workload is stratified: the seed picks digits, roots and coefficients,
but the shape of each curve (cover degree, cluster pattern, degree, search
height) comes from a fixed schedule, so the cost of a corpus varies little
from seed to seed and any prefix of the item order mixes every stratum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from localmath import (
    annulus_has_charts,
    cluster_members,
    is_power_in_qp,
    least_prime,
    residue_value,
)

CHARTS_PRECISION = 40
SURVEY_PRECISION = 20


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- charts ---------------------------------------------------------------------


@dataclass(frozen=True)
class ChartsCurve:
    """y^m = lead * prod (x - root)^mult with integer roots planted in
    nested p-adic clusters at the least prime p = 1 mod m."""

    m: int
    p: int
    lead: int
    roots: tuple[tuple[int, int], ...]


# One curve per cover degree.  The roots follow one cluster pattern with
# digits a + b*p + c*p^2 drawn by the seed: residue class A holds three roots,
# two of which share their second digit (a cluster one level deeper), class B
# holds two roots and class C one simple root.  That gives three maximal
# annuli, one disc with a single simple branch point, one with two (charted
# only for even m) and p - 3 discs without branch points.  The multiplicities
# (A1, A2, A3, B1, B2, C) are fixed per m, so the degree, and with it the
# cost of every chart, is the same for every seed; each pattern labels some
# annuli split and some rotation.
_CHARTS_SCHEDULE = {
    3: (1, 1, 1, 1, 2, 1),
    4: (1, 1, 2, 1, 2, 1),
    5: (1, 2, 2, 1, 1, 1),
    6: (2, 3, 1, 1, 1, 1),
}
# Whether an annulus or a disc without branch points carries charts depends
# on p-adic power classes that the seed's digits decide.  The generator keeps
# only curves where every annulus carries charts and exactly
# _CHARTED_ROOT_FREE[m] discs without branch points do, so every seed has the
# same mix of work.  For m = 3, 4 and 6 no curve of this pattern whose annuli
# all carry charts has a charted disc without branch points; for m = 5 three
# such discs are planted, so the m disc charts of parameterize_disc's first
# case (series products over every branch point, mth_root and a root of
# unity) are timed and checked too.  The other discs without branch points
# end at an m-th power test, in about a millisecond.  With three, 19 of the
# 36 items build charts, so the median item is one of the two cheapest disc
# charts (about 0.1 s) and not the slowest of the millisecond power tests,
# whose median over a few repeats is at the mercy of the host's noise.
_CHARTED_ROOT_FREE = {3: 0, 4: 0, 5: 3, 6: 0}


def _charts_curve(rng: random.Random, m: int) -> ChartsCurve:
    p = least_prime(m)
    a_res, b_res, c_res = rng.sample(range(p), 3)
    b1, b2 = rng.sample(range(p), 2)
    c1, c2 = rng.sample(range(p), 2)
    b4, b5 = rng.sample(range(p), 2)
    digits = [
        (a_res, b1, c1),
        (a_res, b1, c2),
        (a_res, b2, rng.randrange(p)),
        (b_res, b4, rng.randrange(p)),
        (b_res, b5, rng.randrange(p)),
        (c_res, rng.randrange(p), rng.randrange(p)),
    ]
    roots = tuple(
        (a + b * p + c * p * p, mult) for (a, b, c), mult in zip(digits, _CHARTS_SCHEDULE[m])
    )
    lead = rng.choice([u for u in range(1, 2 * p) if u % p])
    return ChartsCurve(m, p, lead, roots)


def charts_plan_holds(curve: ChartsCurve) -> bool:
    m, p = curve.m, curve.p
    roots = [(Fraction(t), n) for t, n in curve.roots]
    lead = Fraction(curve.lead)
    if not all(
        annulus_has_charts(roots, inner, lo, lead, m, p)
        for lo, _, inner in cluster_members(roots, p)
    ):
        return False
    charted = sum(
        is_power_in_qp(*residue_value(lead, roots, x, p), m, p)
        for x in range(p)
        if all((t - x) % p for t, _ in curve.roots)
    )
    return charted == _CHARTED_ROOT_FREE[m]


def charts_corpus(seed: int) -> list[ChartsCurve]:
    rng = _rng("charts", seed)
    curves = []
    for m in _CHARTS_SCHEDULE:
        for _ in range(10_000):
            curve = _charts_curve(rng, m)
            if charts_plan_holds(curve):
                break
        else:
            raise RuntimeError(f"no charts curve for m = {m} meets the plan")
        curves.append(curve)
    return curves


# -- search ---------------------------------------------------------------------


@dataclass(frozen=True)
class SearchCurve:
    """y^m = lead * prod (x - root)^mult * prod quadratic^mult.

    The quadratics have negative discriminant, so the factors are pairwise
    coprime over Q and the branch data is known without factoring.
    """

    m: int
    lead: Fraction
    linear: tuple[tuple[Fraction, int], ...]
    quadratic: tuple[tuple[tuple[Fraction, Fraction], int], ...]  # x^2 + b x + c
    height: int
    kind: str  # "enumerate" or "verify"
    rank: int

    @property
    def degree(self) -> int:
        return sum(n for _, n in self.linear) + 2 * sum(n for _, n in self.quadratic)

    def coefficients(self) -> list[Fraction]:
        f = [self.lead]
        for root, n in self.linear:
            for _ in range(n):
                f = _poly_mul(f, [-root, Fraction(1)])
        for (b, c), n in self.quadratic:
            for _ in range(n):
                f = _poly_mul(f, [c, b, Fraction(1)])
        return f


def _poly_mul(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


# Each cover degree m = 2..5 meets each (degree, height) pair once; the cost
# of an item grows like degree * height^2, and the pairs keep it within a
# factor of about two.  With an odd number of pairs the median item falls
# inside one stratum, not between two.  An item verifies the bound where the
# uniform bound applies (m > 2 and r <= deg // m - 4 for some r >= 0), else
# it enumerates.
_SEARCH_SHAPES = ((4, 120), (6, 90), (8, 70), (10, 60), (12, 50), (14, 45), (16, 40))
_SEARCH_SCHEDULE = tuple(
    (m, degree, height, "verify" if m > 2 and degree // m >= 4 else "enumerate")
    for degree, height in _SEARCH_SHAPES
    for m in (2, 3, 4, 5)
)


# denominators of the roots and coefficients of the non-integral curves, by
# position, so that coefficient sizes (and with them the cost of evaluating f)
# do not depend on the seed
_SEARCH_DENS = (2, 3, 2, 5, 3, 4)


def search_corpus(seed: int) -> list[SearchCurve]:
    rng = _rng("search", seed)
    curves = []
    for idx, (m, degree, height, kind) in enumerate(_SEARCH_SCHEDULE):
        integral = (idx + idx // 4) % 2 == 0  # alternates within each m and shape

        def den(k: int) -> int:
            return 1 if integral else _SEARCH_DENS[k % len(_SEARCH_DENS)]

        quads: list[tuple[tuple[Fraction, Fraction], int]] = []
        while len(quads) < degree // 6:
            k = len(quads)
            b = Fraction(rng.randint(-6, 6), den(k))
            # c > b^2 / 4 keeps the discriminant negative
            if integral:
                c = Fraction(math.floor(b * b / 4) + rng.randint(1, 9))
            else:
                c = b * b / 4 + Fraction(rng.randint(1, 9), den(k))
            if all(q != (b, c) for q, _ in quads):
                quads.append(((b, c), 1))
        roots: dict[Fraction, int] = {}
        left = degree - 2 * len(quads)
        while left:
            k = len(roots)
            root = Fraction(rng.randint(-9, 9), den(k))
            if root in roots:
                continue
            roots[root] = min(1 + k % (m - 1), left)
            left -= roots[root]
        lead = Fraction(rng.choice([-2, -1, 1, 2, 4, 5]), 1 if integral else 3)
        rank = rng.randint(0, degree // m - 4) if kind == "verify" else 0
        curves.append(
            SearchCurve(m, lead, tuple(roots.items()), tuple(quads), height, kind, rank)
        )
    return curves


# -- survey ---------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyCurve:
    """One CLI line in the factored grammar, with its asserted rank."""

    m: int
    lead: Fraction
    roots: tuple[tuple[Fraction, int], ...]
    rank: int

    @property
    def degree(self) -> int:
        return sum(n for _, n in self.roots)

    def text(self) -> str:
        body = ",".join(f"({_q(t)},{n})" for t, n in self.roots)
        return f"m={self.m}; f=prod[{body}]; c={_q(self.lead)}"


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_SURVEY_M = (2, 3, 4, 5)
_SURVEY_ROOT_COUNTS = (12, 15, 18, 21, 24)
SURVEY_CURVES = 60


def survey_corpus(seed: int) -> list[SurveyCurve]:
    """Multiplicities cycle through 1..m-1 and every third root has a
    denominator, so the degree and coefficient sizes of each curve depend on
    its stratum only.  With 12 or more roots the degree is at least 4m, so
    the uniform bound applies at some rank r >= 0 when m > 2."""
    rng = _rng("survey", seed)
    curves = []
    for idx in range(SURVEY_CURVES):
        m = _SURVEY_M[idx % len(_SURVEY_M)]
        s = _SURVEY_ROOT_COUNTS[(idx // len(_SURVEY_M)) % len(_SURVEY_ROOT_COUNTS)]
        p = least_prime(m)
        # denominators prime to p keep every root p-integral, so each annulus
        # center has nonnegative valuation
        dens = [d for d in range(2, 8) if d % p]
        roots: dict[Fraction, int] = {}
        while len(roots) < s:
            k = len(roots)
            root = Fraction(rng.randint(-60, 60), dens[k % len(dens)] if k % 3 == 2 else 1)
            if root not in roots:
                roots[root] = 1 + k % (m - 1)
        degree = sum(roots.values())
        if m == 2:
            rank = rng.randint(0, (degree - 1) // 2 - 3)  # r <= g - 3
        else:
            rank = rng.randint(0, degree // m - 4)
        lead = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), (1, 2, 7)[idx % 3])
        curves.append(SurveyCurve(m, lead, tuple(roots.items()), rank))
    return curves
