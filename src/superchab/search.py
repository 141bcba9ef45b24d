"""Exhaustive rational-point search on y^m = f(x) up to a naive height,
with exact membership tests and bound-versus-observation verification.

Height of x = a/b (reduced) is max(|a|, |b|).  All root extraction is
exact integer arithmetic; nothing here touches floating point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .bounds import bound_report, rank_hypothesis
from .curve import SuperellipticCurve

__all__ = [
    "RationalPoint",
    "SearchReport",
    "enumerate_points",
    "infinity_count",
    "is_on_curve",
    "verify_bound",
]


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction
    y: Fraction
    at_infinity: bool = False


@dataclass
class SearchReport:
    height: int
    points: list[RationalPoint]
    count: int
    infinity_count: int
    bound_comparison: tuple[int, bool] | None = None

    def total_count(self) -> int:
        return self.count + self.infinity_count

    def to_json_dict(self) -> dict:
        payload: dict = {
            "height": self.height,
            "points": [
                {"x": _frac_str(pt.x), "y": _frac_str(pt.y)} for pt in self.points
            ],
            "count": self.count,
            "infinity_count": self.infinity_count,
        }
        if self.bound_comparison is not None:
            total, ok = self.bound_comparison
            payload["bound"] = total
            payload["satisfied"] = ok
        return payload


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _iroot(n: int, k: int) -> tuple[int, bool]:
    """Largest r >= 0 with r^k <= n, plus exactness, by integer Newton."""
    if n < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root index must be positive")
    if n in (0, 1) or k == 1:
        return n, True
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x, x ** k == n


def _rational_mth_roots(v: Fraction, m: int) -> list[Fraction]:
    """All rational y with y^m = v."""
    if v == 0:
        return [Fraction(0)]
    rd, okd = _iroot(v.denominator, m)
    if not okd:
        return []
    if v.numerator > 0:
        rn, okn = _iroot(v.numerator, m)
        if not okn:
            return []
        root = Fraction(rn, rd)
        return [root, -root] if m % 2 == 0 else [root]
    if m % 2 == 0:
        return []
    rn, okn = _iroot(-v.numerator, m)
    return [Fraction(-rn, rd)] if okn else []


def is_on_curve(pt: RationalPoint, curve: SuperellipticCurve) -> bool:
    """Exact check y^m = f(x); infinity points hold by the place count."""
    if pt.at_infinity:
        return True
    return pt.y ** curve.m == curve.evaluate_f(pt.x)


def infinity_count(curve: SuperellipticCurve) -> int:
    """Rational points at infinity on the smooth model.

    With delta = gcd(m, deg f), the places above x = infinity carry residue
    fields Q(w) for the delta-th roots w of the leading coefficient, so the
    rational ones are counted by rational roots: one for odd delta when the
    leading coefficient is a delta-th power, two for even delta and a
    positive delta-th power, and always one when delta = 1.
    """
    delta = math.gcd(curve.m, curve.degree)
    return len(_rational_mth_roots(curve.leading_coefficient, delta))


def enumerate_points(curve: SuperellipticCurve, height: int) -> SearchReport:
    """All affine points with x = a/b of height at most H, sorted by (x, y),
    plus the points at infinity, which do not depend on H.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    found: list[RationalPoint] = []
    for a in range(-height, height + 1):
        for b in range(1, height + 1):
            if math.gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            for y in _rational_mth_roots(curve.evaluate_f(x), curve.m):
                found.append(RationalPoint(x, y))
    found.sort(key=lambda pt: (pt.x, pt.y))
    return SearchReport(height, found, len(found), infinity_count(curve))


def verify_bound(curve: SuperellipticCurve, r: int, height: int) -> SearchReport:
    """Search up to the height and compare against the uniform total.

    The rank r is taken on the user's word.  satisfied means the observed
    count (affine plus infinity, the conservative reading) stays strictly
    below the bound; a violation would falsify either the implementation
    or the asserted rank, so it is raised as a loud warning on the report.
    """
    if not rank_hypothesis(curve.degree, curve.m, r):
        raise ValueError(
            f"rank {r} exceeds floor(deg/m) - 4 = {curve.degree // curve.m - 4}"
        )
    report = enumerate_points(curve, height)
    total = bound_report(curve, r).total_bound
    satisfied = report.total_count() < total
    report.bound_comparison = (total, satisfied)
    if not satisfied:
        warnings.warn(
            f"observed {report.total_count()} points but the bound is {total}; "
            "either the implementation or the asserted rank is wrong",
            RuntimeWarning,
            stacklevel=2,
        )
    return report
