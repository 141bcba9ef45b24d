"""Dense polynomials over Q as plain coefficient lists (ascending powers).

Just enough exact machinery for the curve model: arithmetic, the integer
form, gcd (on the integer form, so coefficient sizes stay bounded), Yun's
square-free decomposition, and the package's one recentring f(a + b*x),
which also runs over integer and p-adic coefficients.  Lists are never
mutated in place by the exported helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction

Poly = list[Fraction]


def normalize(c: list) -> Poly:
    """Coerce to Fraction and strip trailing zeros (zero poly -> [])."""
    out = [Fraction(x) for x in c]
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(f: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def add(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return normalize(
        [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]
    )


def scale(f: Poly, c: Fraction) -> Poly:
    return normalize([c * a for a in f])


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return normalize(out)


def divmod_poly(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    quo = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    inv_lead = 1 / g[-1]
    while len(rem) >= len(g) and any(c != 0 for c in rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(g)
        coef = rem[-1] * inv_lead
        quo[shift] = coef
        for i, b in enumerate(g):
            rem[shift + i] -= coef * b
        rem.pop()
    return normalize(quo), normalize(rem)


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
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by a primitive pseudo-remainder sequence on the integer forms.

    Each remainder is divided by its content, so the coefficients stay as
    small as the gcd allows; over Fraction, Euclid's remainders grow so fast
    that degree 128 takes minutes.
    """
    a, b = (_primitive(h) if h else [] for h in (normalize(f), normalize(g)))
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, (_primitive_part(r) if r else r)
    return [Fraction(c, a[-1]) for c in a]


def derivative(f: Poly) -> Poly:
    return normalize([i * c for i, c in enumerate(f)][1:])


def squarefree_decomposition(f: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Yun's algorithm: f = lead * prod g_i^i with the g_i monic, square-free,
    and pairwise coprime.  Returns (lead, [(g_i, i), ...]) omitting trivial
    factors.
    """
    f = normalize(f)
    if not f:
        raise ValueError("zero polynomial")
    lead = f[-1]
    f = scale(f, 1 / lead)
    df = derivative(f)
    a = gcd(f, df)
    b = divmod_poly(f, a)[0]
    c = divmod_poly(df, a)[0]
    d = add(c, scale(derivative(b), Fraction(-1)))
    factors: list[tuple[Poly, int]] = []
    i = 1
    while degree(b) > 0:
        g = gcd(b, d)
        if degree(g) > 0:
            factors.append((g, i))
        b = divmod_poly(b, g)[0]
        c = divmod_poly(d, g)[0]
        d = add(c, scale(derivative(b), Fraction(-1)))
        i += 1
    return lead, factors


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
    return degree(f) >= 1 and degree(gcd(f, derivative(f))) == 0
