"""Dense polynomials over Q as plain coefficient lists (ascending powers).

Just enough exact machinery for the curve model: products, the integer
form, Yun's square-free decomposition, and the package's one
recentring f(a + b*x), which also runs over integer and p-adic
coefficients.  The exact algebra (gcd, square-freeness, Yun) runs on
primitive integer forms only, so coefficient sizes stay bounded and no
Fraction is built until a monic result is returned.  Lists are never
mutated in place by the exported helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

Poly = list[Fraction]


def normalize(c: list) -> Poly:
    """Coerce to Fraction and strip trailing zeros (zero poly -> [])."""
    return _strip([Fraction(x) for x in c])


def _strip(f: list) -> list:
    """f without its trailing zeros, stripped in place."""
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return normalize(out)


def integer_form(f: Poly) -> tuple[list[int], int]:
    """(den*f as integers, den), with den the lcm of the coefficient
    denominators (1 for the zero polynomial)."""
    den = math.lcm(*(c.denominator for c in f))
    return [c.numerator * (den // c.denominator) for c in f], den


def _primitive(f: Poly) -> list[int]:
    """A primitive integer multiple of a nonzero f: clear the denominators,
    then divide out the content."""
    return _primitive_part(integer_form(f)[0])


def _primitive_part(f: list[int]) -> list[int]:
    content = math.gcd(*f)
    return [c // content for c in f]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lead(b)^k * a on division by b, with k the number of
    division steps that met a nonzero leading term; trailing zeros stripped."""
    lead = b[-1]
    shift = len(a) - len(b)
    rem = list(a)
    while shift >= 0:
        top = rem[-1]
        if top:
            rem = [lead * c for c in rem]
            for i, c in enumerate(b):
                rem[shift + i] -= top * c
        rem.pop()
        shift -= 1
    return _strip(rem)


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials with b primitive and dividing a over Q.

    By Gauss's lemma the quotient then has integer coefficients, so each
    step of the long division divides its leading coefficient exactly.
    """
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        coef = quo[shift] = rem[shift + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            rem[shift + i] -= coef * c
    return quo


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two integer polynomials (zero for two zeros),
    by a primitive pseudo-remainder sequence.

    Each remainder is divided by its content, so the coefficients stay as
    small as the gcd allows; over Fraction, Euclid's remainders grow so fast
    that degree 128 takes minutes.
    """
    a, b = (_primitive_part(h) if h else [] for h in (a, b))
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, (_primitive_part(r) if r else r)
    return a


def _monic(f: list[int]) -> Poly:
    return [Fraction(c, f[-1]) for c in f]


def derivative(f: list) -> list:
    """f' over int or Fraction coefficients, for f with no trailing zero."""
    return [i * c for i, c in enumerate(f)][1:]


def squarefree_decomposition(f: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Yun's algorithm: f = lead * prod g_i^i with the g_i monic, square-free,
    and pairwise coprime.  Returns (lead, [(g_i, i), ...]) omitting trivial
    factors.

    It runs on the primitive integer form of f.  Yun's monic b_i, c_i and
    d_i = c_i - b_i' are kept as integer polynomials b, c and d with
    b_i = b / lead(b), c_i = c / lead(b) and d_i = d / lead(b): exact
    division by each primitive gcd keeps that scale, so no step before the
    monic output builds a Fraction.
    """
    f = normalize(f)
    if not f:
        raise ValueError("zero polynomial")
    b = _primitive(f)
    c = derivative(b)
    a = _int_gcd(b, c)
    b, c = _exact_quotient(b, a), _exact_quotient(c, a)
    factors: list[tuple[Poly, int]] = []
    i = 1
    while len(b) > 1:
        d = _strip([x - y for x, y in zip_longest(c, derivative(b), fillvalue=0)])
        g = _int_gcd(b, d)
        if len(g) > 1:
            factors.append((_monic(g), i))
        b, c = _exact_quotient(b, g), _exact_quotient(d, g)
        i += 1
    return f[-1], factors


def compose_linear(f: list, a, b) -> list:
    """f(a + b*x), by the Taylor shift: deg f rounds of synthetic division
    by x - a give f(a + x), then x -> b*x.

    It works over int, Fraction and PadicNumber alike: f, a and b share one
    type (b = 1 over Q_p is PadicNumber.from_int(1, ctx)), and every sum and
    product runs in it.  Nothing is normalised, so a trailing zero of f
    stays in the result; callers pass f without one (curve.f and the
    primitive integer forms have none).
    """
    out = list(f)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] = out[j] + a * out[j + 1]
    return [c * b**i for i, c in enumerate(out)]


def reverse(f: Poly, n: int) -> Poly:
    """x^n * f(1/x) for n >= deg f."""
    f = normalize(f)
    if n < degree(f):
        raise ValueError("reversal order below degree")
    out = [Fraction(0)] * (n + 1)
    for i, c in enumerate(f):
        out[n - i] = c
    return normalize(out)


def is_squarefree(f: Poly) -> bool:
    f = normalize(f)
    if degree(f) < 1:
        return False
    b = _primitive(f)
    return len(_int_gcd(b, derivative(b))) == 1
