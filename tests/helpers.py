"""Inspection helpers that the unit tests state their checks with.  No
command needs them, so they live with the tests, not in the package."""

from fractions import Fraction

from superchab import geometry
from superchab.geometry import _pseudo_entire
from superchab.padic import PadicNumber, PrecisionError
from superchab.series import (
    MAX_WINDOW,
    LaurentSeries,
    TailBound,
    _fold_clipped,
    _merge_tails,
    _product_floor,
    branch_root_series,
)


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


def fraction_divmod(
    f: list[Fraction], g: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of long division over Fraction, trailing
    zeros stripped: the division Yun's algorithm and Euclid ran on before
    the integer forms."""
    rem = list(f)
    quo = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g):
        coef = rem[-1] / g[-1]
        shift = len(rem) - len(g)
        quo[shift] = coef
        for i, c in enumerate(g):
            rem[shift + i] -= coef * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    while quo and quo[-1] == 0:
        quo.pop()
    return quo, rem


def fraction_euclid(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """The monic gcd by Euclid over Fraction, the oracle for
    ratpoly._int_gcd made monic; f and g have no trailing zero."""
    a, b = f, g
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def fraction_yun(f: list[Fraction]) -> tuple[Fraction, list[tuple[list[Fraction], int]]]:
    """Yun's square-free decomposition over Fraction, as
    ratpoly.squarefree_decomposition computed it before the integer forms,
    with Euclid over Fraction for its gcd: the oracle for it.  f is nonzero
    and has no trailing zero."""

    def derivative(h):
        return [i * c for i, c in enumerate(h)][1:]

    def minus(h, k):
        out = [(h[i] if i < len(h) else 0) - (k[i] if i < len(k) else 0)
               for i in range(max(len(h), len(k)))]
        while out and out[-1] == 0:
            out.pop()
        return out

    lead = f[-1]
    f = [c / lead for c in f]
    df = derivative(f)
    a = fraction_euclid(f, df)
    b = fraction_divmod(f, a)[0]
    d = minus(fraction_divmod(df, a)[0], derivative(b))
    factors = []
    i = 1
    while len(b) > 1:
        g = fraction_euclid(b, d)
        if len(g) > 1:
            factors.append((g, i))
        b = fraction_divmod(b, g)[0]
        d = minus(fraction_divmod(d, g)[0], derivative(b))
        i += 1
    return lead, factors


def series_agree(s: LaurentSeries, t: LaurentSeries, abs_digits: int) -> bool:
    """Coefficientwise agreement modulo p^abs_digits on the joint window."""
    return all(
        padic_agree(s.coefficient(n), t.coefficient(n), abs_digits)
        for n in range(max(s.lo, t.lo), min(s.hi, t.hi) + 1)
    )


def full_branch_product(points, m, order, domain, ctx) -> LaurentSeries:
    """h as geometry._branch_series_product built it before outer factors
    multiplied under the kernel's top cut: every factor over its full
    window, then the product clipped to [lo, order], with the least
    valuation of the coefficients clipped above folded into its tail
    floor.  The oracle for the cut, and on a disc for the m-th root
    (series.mth_root_series) that disc charts take h as."""
    lo = 0 if domain.is_disc else -order
    h = LaurentSeries.one(ctx, domain)
    for th, n in points:
        if th.is_zero:
            continue
        fac = _pseudo_entire(branch_root_series(th, m, order=order, domain=domain))
        for _ in range(n):
            h = (h * fac).window_clipped(lo, order)
    return h


def full_power_annulus(a, curve, ctx):
    """geometry.parameterize_annulus with h^m computed whole below, as
    pow(h, m, cut), and the residual read at every exponent: the chart
    set-up before the bottom cut, and the oracle for it."""
    saved = geometry._bottom_cut
    geometry._bottom_cut = lambda *args: None
    try:
        return geometry.parameterize_annulus(a, curve, ctx)
    finally:
        geometry._bottom_cut = saved


def fused_product_stripped(a, b, top, floor, bottom=None, tail=None) -> LaurentSeries:
    """LaurentSeries._product as it was before its state kept the unit
    unstripped: the per-pair sum rule stripped p from every sum and kept
    (valuation, unit, known) per exponent.  The oracle for the kernel that
    strips once per output coefficient; same arguments, same result."""
    ctx = a.context
    if b.context != ctx:
        raise ValueError("mixed p-adic contexts")
    domain = a._join_domain(b)
    lo = base = a.lo + b.lo
    hi = a.hi + b.hi
    powers = ctx.powers
    p = ctx.prime
    cut = (hi if top is None else min(hi, top)) - base
    start = 0 if bottom is None else bottom - base
    size = max(cut + 1, 0)
    val = [None] * size
    unit = [0] * size
    known = [-1] * size
    order = []
    right = [(j - base, c.valuation, c.unit, c.known) for j, c in b.coefficients.items()]
    j_lo = min(b.coefficients, default=0) - base
    j_hi = max(b.coefficients, default=0) - base
    for i, c in a.coefficients.items():
        room = cut - i
        least = start - i
        if room >= j_hi and least <= j_lo:
            row = right
        elif room >= j_lo and least <= j_hi:
            row = [r for r in right if least <= r[0] <= room]
        else:
            continue
        va, ua, ka = c.valuation, c.unit, c.known
        for j, vb, ub, kb in row:
            n = i + j
            k = ka if ka < kb else kb
            v = va + vb
            u = ua * ub
            vs = val[n]
            if vs is None:
                if known[n] < 0:
                    order.append(n)
                val[n] = v
                unit[n] = u % powers[k]
                known[n] = k
                continue
            ks = known[n]
            if v < vs:
                d = vs - v
                window = ks + d if ks + d < k else k
                s = u + unit[n] * powers[d] if d < window else u
            else:
                d = v - vs
                window = k + d if k + d < ks else ks
                s = unit[n] + u * powers[d] if d < window else unit[n]
                v = vs
            if window <= 0:
                raise PrecisionError("additive window exhausted")
            s %= powers[window]
            if s == 0:
                val[n] = None
                continue
            while s % p == 0:
                s //= p
                v += 1
                window -= 1
            val[n] = v
            unit[n] = s
            known[n] = window
    skipped = top is not None and top < hi
    for x, y in ((a, b), (b, a)):
        if x.tail_above is None and y.tail_above is not None:
            hi = y.hi + min(x.coefficients, default=0)
        if x.tail_below is None and y.tail_below is not None:
            lo = y.lo + max(x.coefficients, default=0)
    if top is not None:
        hi = min(hi, top)
    cut_below = bottom is not None and bottom >= lo
    if cut_below:
        lo = bottom
    lo = max(lo, -MAX_WINDOW)
    hi = min(hi, MAX_WINDOW)
    if lo > hi:
        raise PrecisionError("product window collapsed")
    above = _product_floor(a, b, hi, 1)
    if skipped:
        above = _merge_tails(above, TailBound(Fraction(0), floor))
    below = tail if cut_below else _product_floor(a, b, lo, -1)
    coeffs, dropped = {}, {}
    for n in order:
        if val[n] is not None:
            e = n + base
            (coeffs if lo <= e <= hi else dropped)[e] = PadicNumber(ctx, val[n], unit[n], known[n])
    below, above = _fold_clipped(dropped, lo, hi, below, above)
    return LaurentSeries(ctx, coeffs, domain, lo, hi, below, above)
