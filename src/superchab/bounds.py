"""Point-count bound formulas: disc and annulus component bounds, their
uniform total, Stoll's hyperelliptic reference, and the minimal-width
differential certificate on an annulus.

Everything here is exact integer or rational arithmetic; floors are taken
only at the end, since each quantity bounds an integer count of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .curve import SuperellipticCurve, validate
from .geometry import ResidueAnnulus
from .padic import PadicContext, PadicNumber, _check_cap, chabauty_prime
from .series import mu_factor

__all__ = [
    "BoundReport",
    "DifferentialVector",
    "annulus_point_bound",
    "bound_report",
    "cover_transfer",
    "disc_point_bound",
    "minimal_width_differential",
    "mu_factor",
    "pullback_exponent",
    "rank_hypothesis",
    "stoll_reference_bound",
    "total_point_bound",
]


def rank_hypothesis(degree: int, m: int, r: int) -> bool:
    """Whether r <= floor(degree/m) - 4.

    The degree is that of the defining polynomial as given, before any
    branch point is moved away from infinity (moving one only increases
    the degree, so the original value is the binding one).
    """
    if m <= 2:
        raise ValueError("the uniform bound needs m > 2")
    if r < 0:
        raise ValueError("rank must be nonnegative")
    return r <= degree // m - 4


def pullback_exponent(i: int, a: ResidueAnnulus, m: int) -> int:
    """Exponent of z in the pullback of x^i dx/y to an annulus chart.

    The chart substitutes x = U z^(m/d), y = gamma z^(k0/d) h, with
    k0 the weighted count of branch points inside, d = gcd(m, k0); the
    i-th basis differential pulls back to a single monomial in z times the
    common unit factor, with exponent (i+1)m/d - k0/d.
    """
    k0 = a.weighted_inner_count()
    return ((i + 1) * m - k0) // math.gcd(m, k0)


@dataclass
class DifferentialVector:
    """Coefficients c_0..c_k of a differential sum(c_i x^i dx/y)."""

    coefficients: list[PadicNumber]

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coefficients)


def _kernel_vector(
    rows: Sequence[Sequence[PadicNumber]], n: int, ctx: PadicContext
) -> list[PadicNumber]:
    """A nonzero vector annihilated by every row, by Gaussian elimination.

    Pivots are chosen at minimal valuation so divisions stay as close to
    unit scale as the data allows.
    """
    mat = [list(row) for row in rows]
    for row in mat:
        if len(row) != n:
            raise ValueError("constraint length does not match the span dimension")
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(n):
        best = None
        for i in range(rank, len(mat)):
            entry = mat[i][col]
            if entry.is_zero:
                continue
            if best is None or entry.valuation < mat[best][col].valuation:
                best = i
        if best is None:
            continue
        mat[rank], mat[best] = mat[best], mat[rank]
        piv = mat[rank][col]
        for i in range(len(mat)):
            if i == rank or mat[i][col].is_zero:
                continue
            factor = mat[i][col] / piv
            mat[i] = [mat[i][j] - factor * mat[rank][j] for j in range(n)]
        pivot_of_col[col] = rank
        rank += 1
    free_cols = [c for c in range(n) if c not in pivot_of_col]
    if not free_cols:
        raise ValueError("no nonzero kernel vector; too many independent constraints")
    free = free_cols[0]
    zero = PadicNumber.from_int(0, ctx)
    vec = [zero] * n
    vec[free] = PadicNumber.from_int(1, ctx)
    for col, i in pivot_of_col.items():
        vec[col] = (PadicNumber.from_int(0, ctx) - mat[i][free]) / mat[i][col]
    return vec


def minimal_width_differential(
    constraints: Sequence[Sequence[PadicNumber]],
    r: int,
    a: ResidueAnnulus,
) -> tuple[DifferentialVector, int]:
    """A nonzero differential in the span of x^0..x^(r+2) dx/y killed by the
    given linear functionals, together with the width of its pullback.

    The span has dimension r + 3, so at most r + 2 constraints can leave a
    nonzero kernel.  The width is the spread max - min of the occupied
    pullback exponents; it is certified against m(r+2)/d + 1.
    """
    if a.m is None:
        raise ValueError("annulus has not been classified; m is unknown")
    m = a.m
    n = r + 3
    if len(constraints) > r + 2:
        raise ValueError(
            f"{len(constraints)} constraints on a {n}-dimensional span leave "
            "no guaranteed kernel"
        )
    vec = _kernel_vector(constraints, n, a.center.context)
    occupied = [
        pullback_exponent(i, a, m) for i, c in enumerate(vec) if not c.is_zero
    ]
    width = max(occupied) - min(occupied)
    cap = m * (r + 2) // a.d + 1
    _check_cap(width, cap, "width", "the certificate cap")
    return DifferentialVector(vec), width


def disc_point_bound(g: int, p: int, e: int, r: int) -> int:
    """Common zeros of the Chabauty integrals on the disc part:
    floor((2p + 2)(g - 1) + 2*mu*r), residue field of size p."""
    mu = mu_factor(p, e)
    value = (2 * p + 2) * (g - 1) + 2 * mu * r
    return math.floor(value)


def annulus_point_bound(g: int, m: int, p: int, e: int, r: int) -> int:
    """Common zeros on the annulus part: floor(((4g-4)/m + 1) * mu * m * (r+3))."""
    if m <= 2:
        raise ValueError("the annulus orbit bound needs m > 2")
    mu = mu_factor(p, e)
    value = (Fraction(4 * g - 4, m) + 1) * mu * m * (r + 3)
    return math.floor(value)


def total_point_bound(g: int, m: int, r: int, p: int) -> int:
    """The closed-form total (8g-8)(r+3) + 2m(r+3) + (2p+2)(g-1) + 4r.

    p must be the least prime congruent to 1 mod m.  The sharp component
    sum disc + annulus is recomputed and checked to sit below the total;
    the total is exactly the component sum relaxed through mu <= 2.
    """
    if m <= 2:
        raise ValueError("the uniform total needs m > 2")
    expected, _ = chabauty_prime(m)
    if p != expected:
        raise ValueError(f"prime {p} is not the least prime = 1 mod {m} ({expected})")
    total = (8 * g - 8) * (r + 3) + 2 * m * (r + 3) + (2 * p + 2) * (g - 1) + 4 * r
    sharp = disc_point_bound(g, p, 1, r) + annulus_point_bound(g, m, p, 1, r)
    _check_cap(sharp, total, "sharp total", "the relaxed total")
    return total


def stoll_reference_bound(g: int, r: int) -> int:
    """Hyperelliptic reference: 33(g-1) + 1 at rank zero, 8rg + 33(g-1) - 1
    for positive rank; needs g >= 3 and r <= g - 3."""
    if g < 3:
        raise ValueError("the reference bound needs genus at least 3")
    if r < 0 or r > g - 3:
        raise ValueError(f"rank {r} violates r <= g - 3 = {g - 3}")
    if r == 0:
        return 33 * (g - 1) + 1
    return 8 * r * g + 33 * (g - 1) - 1


def cover_transfer(bound: int, m: int, s_divisor: int) -> int:
    """Transfer a bound along y^m = f -> y^s = f: multiply by the number of
    rational (m/s)-th roots of unity (2 when m/s is even, else 1)."""
    if s_divisor <= 0 or m % s_divisor:
        raise ValueError(f"{s_divisor} does not divide {m}")
    roots = 2 if (m // s_divisor) % 2 == 0 else 1
    return roots * bound


@dataclass
class BoundReport:
    g: int
    r: int
    m: int
    degree: int
    p: int
    e: int
    mu: Fraction
    rank_ok: bool
    disc_bound: int
    annulus_bound: int
    sharp_total: int
    total_bound: int
    small_prime_warning: bool

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "r": self.r,
            "m": self.m,
            "degree": self.degree,
            "prime": self.p,
            "e": self.e,
            "mu": f"{self.mu.numerator}/{self.mu.denominator}",
            "rank_ok": self.rank_ok,
            "disc_bound": self.disc_bound,
            "annulus_bound": self.annulus_bound,
            "sharp_total": self.sharp_total,
            "theorem3_total": self.total_bound,
            "small_prime_warning": self.small_prime_warning,
        }


def bound_report(curve: SuperellipticCurve, r: int, e: int = 1) -> BoundReport:
    """Assemble every bound quantity for one curve and asserted rank.

    This is the one gate of the uniform bound: it needs m > 2, the
    hypotheses of `validate` and r <= floor(deg/m) - 4, and raises
    ValueError (HypothesisViolation for `validate`'s) when one fails.
    The prime is the least p = 1 mod m.  small_prime_warning records that
    p <= 2g, in which case the annulus zero count leans on a comparison
    whose stated hypothesis asks for a prime beyond twice the genus.
    """
    m = curve.m
    if m <= 2:
        raise ValueError("uniform bound reports need m > 2; use the reference bound")
    g = validate(curve)
    p, _ = chabauty_prime(m)
    rank_ok = rank_hypothesis(curve.degree, m, r)
    if not rank_ok:
        raise ValueError(
            f"rank {r} exceeds floor(deg/m) - 4 = {curve.degree // m - 4}"
        )
    disc = disc_point_bound(g, p, e, r)
    ann = annulus_point_bound(g, m, p, e, r)
    total = total_point_bound(g, m, r, p)
    return BoundReport(
        g=g,
        r=r,
        m=m,
        degree=curve.degree,
        p=p,
        e=e,
        mu=mu_factor(p, e),
        rank_ok=rank_ok,
        disc_bound=disc,
        annulus_bound=ann,
        sharp_total=disc + ann,
        total_bound=total,
        small_prime_warning=p <= 2 * g,
    )
