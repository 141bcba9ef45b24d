"""Inspection helpers that the unit tests state their checks with.  No
command needs them, so they live with the tests, not in the package."""

from fractions import Fraction

from superchab.padic import PadicNumber
from superchab.series import LaurentSeries


def abs_precision(x: PadicNumber) -> int | None:
    """Exponent e such that x is pinned down modulo p^e (None for zero)."""
    if x.is_zero:
        return None
    return x.valuation + x.known


def lift_fraction(x: PadicNumber) -> Fraction:
    """The canonical rational lift p^valuation * unit (zero for zero)."""
    if x.is_zero:
        return Fraction(0)
    return Fraction(x.unit) * Fraction(x.context.prime) ** x.valuation


def padic_agree(a: PadicNumber, b: PadicNumber, abs_digits: int) -> bool:
    """True when a - b vanishes modulo p^abs_digits."""
    d = a - b
    return d.is_zero or d.valuation >= abs_digits


def fraction_horner(f: list[Fraction], x: Fraction) -> Fraction:
    """f(x) by a Horner of Fraction operations over the rational
    coefficients (ascending powers), apart from the integer form that
    `SuperellipticCurve.evaluate_f` reads: the oracle for it."""
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def series_agree(s: LaurentSeries, t: LaurentSeries, abs_digits: int) -> bool:
    """Coefficientwise agreement modulo p^abs_digits on the joint window."""
    return all(
        padic_agree(s.coefficient(n), t.coefficient(n), abs_digits)
        for n in range(max(s.lo, t.lo), min(s.hi, t.hi) + 1)
    )
