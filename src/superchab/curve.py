"""Superelliptic curves y^m = f(x): model, validation, genus, normal forms."""

from __future__ import annotations

import math
from fractions import Fraction

from . import ratpoly

__all__ = [
    "HypothesisViolation",
    "MAX_DEGREE",
    "SuperellipticCurve",
    "genus",
    "move_branch_from_infinity",
    "validate",
]


# Every curve is expanded and decomposed in exact rational arithmetic whose
# cost grows faster than quadratically in deg f.  Near this limit `genus`
# takes 0.39 s of CPU on prod[(1,250)] and 0.47 s on 250 distinct 7-digit
# roots (2-core x86 host, Python 3.11); the benchmark's survey corpus
# reaches degree 60.  Checked before any expansion or decomposition.
MAX_DEGREE = 256


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise ValueError(f"deg(f) = {d} exceeds the limit MAX_DEGREE = {MAX_DEGREE}")


class HypothesisViolation(ValueError):
    """One or more named hypothesis failures, kept as a structured list."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class SuperellipticCurve:
    """y^m = f(x) with f given by exact rational coefficients.

    A curve built by `from_branch_points` takes its square-free blocks, one
    linear factor per distinct root, from the roots it is given; otherwise
    they are recovered once, on first use.  The genus formula only consumes
    block degrees and multiplicities, so no algebraic factorization is ever
    needed.  The integer form of f, `integer_f` = (ints, den) with den the
    lcm of the coefficient denominators and den*f = sum ints[k] x^k, is
    computed once per curve; `evaluate_f` and the point search read it.
    """

    def __init__(self, m: int, f_coefficients: list[Fraction | int]):
        if m < 2:
            raise ValueError("m must be at least 2")
        coeffs = ratpoly.normalize(f_coefficients)
        d = ratpoly.degree(coeffs)
        _check_degree(d)
        if d < 1:
            raise ValueError("f must be non-constant")
        self.m = m
        self.f = coeffs
        self.integer_f = ratpoly.integer_form(coeffs)
        self._blocks: list[tuple[ratpoly.Poly, int]] | None = None

    @staticmethod
    def from_branch_points(
        m: int, c: Fraction | int, roots: list[tuple[Fraction | int, int]]
    ) -> "SuperellipticCurve":
        seen = set()
        for theta, _ in roots:
            if Fraction(theta) in seen:
                raise ValueError("repeated branch point; merge multiplicities")
            seen.add(Fraction(theta))
        _check_degree(sum(int(n) for _, n in roots))
        # f is expanded from the roots themselves, so the blocks taken from
        # them factor f by construction
        curve = SuperellipticCurve(m, _branch_product(c, roots))
        curve._blocks = [([-Fraction(t), Fraction(1)], int(n)) for t, n in roots]
        return curve

    @property
    def degree(self) -> int:
        return ratpoly.degree(self.f)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.f[-1]

    def branch_blocks(self) -> list[tuple[list[Fraction], int]]:
        """Square-free blocks (monic factor, multiplicity), pairwise coprime.

        Each block of degree k carries k distinct branch points sharing one
        multiplicity.  The decomposition runs once per curve.
        """
        if self._blocks is None:
            self._blocks = ratpoly.squarefree_decomposition(self.f)[1]
        return list(self._blocks)

    def branch_multiplicities(self) -> list[tuple[int, int]]:
        """(count of distinct points, shared multiplicity) per block."""
        return [(ratpoly.degree(g), e) for g, e in self.branch_blocks()]

    @property
    def branch_point_count(self) -> int:
        return sum(k for k, _ in self.branch_multiplicities())

    def evaluate_f(self, x: Fraction) -> Fraction:
        """f(x), exact.  For x = a/b in lowest terms (b > 0),
        G = sum ints[k] a^k b^(d-k) by one integer Horner in a, and
        f(x) = G / (den b^d)."""
        ints, den = self.integer_f
        a, b = x.numerator, x.denominator
        g, power = ints[-1], 1
        for c in ints[-2::-1]:
            power *= b
            g = g * a + c * power
        return Fraction(g, den * power)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SuperellipticCurve(m={self.m}, deg={self.degree})"


def _branch_product(
    c: Fraction | int, roots: list[tuple[Fraction | int, int]]
) -> ratpoly.Poly:
    """c * prod (x - theta)^n over the branch data (theta, n), n >= 1."""
    f = [Fraction(c)]
    for theta, mult in roots:
        if mult < 1:
            raise ValueError("branch multiplicities must be positive")
        factor = [-Fraction(theta), Fraction(1)]
        for _ in range(mult):
            f = ratpoly.mul(f, factor)
    return f


def _reducibility(curve: SuperellipticCurve) -> str | None:
    """The failed irreducibility hypothesis, or None when it holds.

    y^m = f(x) is geometrically irreducible exactly when d = gcd(m, n_1, ...,
    n_s) = 1 over the branch multiplicities n_i; otherwise f is a d-th power
    over the algebraic closure and the curve splits into d components.
    """
    d = math.gcd(curve.m, *(e for _, e in curve.branch_multiplicities()))
    if d == 1:
        return None
    return (
        f"y^m = f(x) is not irreducible: gcd(m, branch multiplicities) = {d}, "
        f"so the curve splits into {d} components"
    )


def genus(curve: SuperellipticCurve) -> int:
    """Riemann-Hurwitz: 2g - 2 = m(s-1) - gcd(m, deg f) - sum gcd(m, n_i).

    Raises:
        HypothesisViolation: if the curve is reducible (no genus is defined).
    """
    split = _reducibility(curve)
    if split is not None:
        raise HypothesisViolation([split])
    m = curve.m
    s = curve.branch_point_count
    ram = sum(k * math.gcd(m, e) for k, e in curve.branch_multiplicities())
    rhs = m * (s - 1) - math.gcd(m, curve.degree) - ram
    if rhs % 2:
        raise ValueError("non-integral genus: inconsistent input")
    g = rhs // 2 + 1
    if g < 0:
        raise ValueError("negative genus: inconsistent input")
    return g


def validate(curve: SuperellipticCurve) -> int:
    """Main-theorem hypotheses: an irreducible curve, multiplicities below m,
    degree at least 4, genus at least 3.  All violations are reported
    together; otherwise the genus is returned."""
    try:
        g, violations = genus(curve), []
    except HypothesisViolation as split:  # reducible: no genus is defined
        g, violations = None, split.violations
    for k, e in curve.branch_multiplicities():
        if e >= curve.m:
            violations.append(
                f"branch multiplicity {e} (at {k} point{'s' if k > 1 else ''}) "
                f"is not below m = {curve.m}"
            )
    if curve.degree < 4:
        violations.append(f"deg(f) = {curve.degree} is below 4")
    if g is not None and g < 3:
        violations.append(f"genus {g} is below 3")
    if violations:
        raise HypothesisViolation(violations)
    return g


def move_branch_from_infinity(curve: SuperellipticCurve) -> SuperellipticCurve:
    """Invert the x-coordinate so no branch point hides above infinity.

    First translate x by the least nonnegative integer t with f(t) != 0,
    then substitute x -> 1/x, y -> y/x^ceil(deg f / m).  When m does not
    divide deg f a new branch point appears at 0 with multiplicity
    m - (deg f mod m); the genus never changes.  The new degree is
    m * ceil(deg f / m), which must stay within MAX_DEGREE.
    """
    t = 0
    while curve.evaluate_f(Fraction(t)) == 0:
        t += 1
    d = curve.degree
    m = curve.m
    target = m * ((d + m - 1) // m)
    shifted = ratpoly.compose_linear(curve.f, Fraction(t), Fraction(1))
    return SuperellipticCurve(m, ratpoly.reverse(shifted, target))
