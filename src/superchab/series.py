"""Finite-window Laurent series over Q_p on p-adic discs and annuli.

A series is a dict of PadicNumber coefficients supported in an exponent
window [lo, hi].  Outside the window a side is either exactly zero (an
"entire" side, as for polynomials) or unknown-but-bounded, recorded as a
linear lower bound on coefficient valuations.  The annulus 0 < v(z) < beta
is the standard domain; a disc is the same with nonnegative exponents only.

The window never silently swallows known-nonzero mass: shifting or growing
past the hard cap raises instead of truncating.

Products convolve plain (valuation, unit, known) integers in one fused
loop over flat per-exponent lists and build one PadicNumber per output
coefficient.  Each pair's product keeps the lesser `known`, as
`PadicNumber.__mul__` does; each sum applies the p-adic sum rule of
`PadicNumber.__add__` inline, with moduli read from the context's power
table.  The state of an exponent is the least valuation summed into it,
a unit not yet stripped of p, and the absolute precision; p is stripped
once, when the output coefficient is built.  The pairs are summed in the
order of a double loop over the two coefficient dicts, so every `known`,
every collapse to exact zero, every "additive window exhausted" and the
key order of the result are the ones PadicNumber arithmetic would give.
The collapse (a sum that vanishes modulo its whole window is taken for
exact zero and the exponent starts afresh) is one explicit branch of the
loop, the one a capped-absolute kernel would change.

Powers are truncated: `pow(s, m, hi)` is s^m cut to exponents <= hi, the
truncated power series of the capped model (Caruso, Roe and Vaccon,
"Tracking p-adic precision").  The same kernel skips every pair that lands
above a cut, and square-and-multiply cuts each intermediate power where no
coefficient above the cut can reach the result, so each kept coefficient
and its key order equal the full power's.  The dropped side gets a
constant tail floor at m times the least stored valuation, which no
dropped coefficient goes below.  The chart checks read only a prefix of
h^m and pass the last exponent they read.

`s.__pow__(m, hi, lo)` also cuts below lo, the same way from the other
side.  There the floor slopes: with alpha the least stored valuation and
sigma > 0 the least (v(s_n) - alpha) / -n over stored n < 0, no computed
coefficient of s^m at e < 0 goes below m * alpha + sigma * (-e).  An
annulus chart cuts h^m where that floor already clears its check's cap.

The same cut serves branch products: `s.mul_cut(t, hi)` is s * t cut to
exponents <= hi, its dropped side floored at the sum of the two least
stored valuations.  The chart set-up multiplies each power-series branch
factor this way, at the top of its window.

A product's tail floor on a side is measured from its final edge, be it
a pin, a cut or the sum of the factors' edges.  It covers each tail times
the other factor's stored coefficients or tail, the pairs a cut skipped,
and the coefficients computed past a pinned edge.

Floors are plain integers wherever they are integral: branch-factor
tails, cut floors and the constant floors that fold in clipped mass.  A
Fraction remains only where a division makes one, as in the bottom cut's
slope; a TailBound compares and hashes equal either way.  The least stored
valuation of a series is found once, as an int.  A clip that moves a
tailed edge inward rebases the tail onto the new edge.

The public constructor checks every coefficient: its context, that it
lies in the window, and it drops exact zeros.  Products, branch factors,
`scaled`, `shifted`, `window_clipped` and `compose_monomial` make
coefficients that pass those checks by construction, and build their
result through `LaurentSeries._valid`, which keeps only the window checks
and the disc-tail rule.

A branch factor's side is its point's valuation and nothing else:
branch_root_series expands (1 - theta/x)^(1/m) in inverse powers when
v(theta) > 0 and (1 - x/theta)^(1/m) otherwise, by an integer binomial
recurrence modulo p^known with one modular inverse per factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .padic import PadicContext, PadicNumber, PrecisionError, _ilog

__all__ = [
    "AnnulusSpec",
    "LaurentSeries",
    "NewtonPolygon",
    "TailBound",
    "ZeroCount",
    "bc_integral",
    "branch_root_series",
    "count_zeros_annulus",
    "formal_antiderivative",
    "mu_factor",
    "newton_polygon",
    "rolle_zero_bound",
]

MAX_WINDOW = 4096


@dataclass(frozen=True)
class AnnulusSpec:
    """Domain marker: open annulus 0 < v(z) < inner_valuation, or the open
    disc v(z) > 0 when inner_valuation is None."""

    inner_valuation: Fraction | None

    def __post_init__(self) -> None:
        if self.inner_valuation is not None and self.inner_valuation <= 0:
            raise ValueError("annulus needs a positive inner valuation")

    @property
    def is_disc(self) -> bool:
        return self.inner_valuation is None

    @staticmethod
    def disc() -> "AnnulusSpec":
        return AnnulusSpec(None)

    @staticmethod
    def annulus(beta: Fraction | int) -> "AnnulusSpec":
        return AnnulusSpec(Fraction(beta))

    def contains_valuation(self, t: Fraction) -> bool:
        if self.is_disc:
            return t > 0
        return 0 < t < self.inner_valuation


@dataclass(frozen=True)
class TailBound:
    """Valuation floor for unknown coefficients beyond a window edge.

    At distance d >= 1 past the edge the coefficient valuation is at least
    offset + slope * d.
    """

    slope: Fraction | int
    offset: Fraction | int = 0

    def at(self, d: int) -> Fraction | int:
        return self.offset + self.slope * d


def _merge_tails(a: TailBound | None, b: TailBound | None) -> TailBound | None:
    if a is None:
        return b
    if b is None:
        return a
    return TailBound(min(a.slope, b.slope), min(a.offset, b.offset))


def _fold_clipped(coeffs: dict[int, PadicNumber], lo: int, hi: int, below, above):
    """The tail floors below and above, each merged with a constant floor at
    the least valuation of the coeffs clipped on its side of [lo, hi]."""
    dropped_lo = [c.valuation for n, c in coeffs.items() if n < lo]
    dropped_hi = [c.valuation for n, c in coeffs.items() if n > hi]
    if dropped_lo:
        below = _merge_tails(below, TailBound(0, min(dropped_lo)))
    if dropped_hi:
        above = _merge_tails(above, TailBound(0, min(dropped_hi)))
    return below, above


def _rebased(t: TailBound | None, delta: int) -> TailBound | None:
    """t measured from an edge moved delta >= 0 inward: a coefficient d
    past the old edge lies d + delta past the new one."""
    if t is None or not delta:
        return t
    return TailBound(t.slope, t.offset - t.slope * delta)


def _negative_slope(s: "LaurentSeries") -> Fraction | None:
    """sigma, the least (v(c_n) - alpha) / -n over the stored n < 0, with
    alpha the least stored valuation; None when nothing is stored below 0."""
    alpha = s._min_stored_valuation()
    return min(
        (Fraction(c.valuation - alpha, -n) for n, c in s.coefficients.items() if n < 0),
        default=None,
    )


def _product_floor(
    a: "LaurentSeries", b: "LaurentSeries", edge: int, side: int
) -> TailBound | None:
    """The tail floor of a * b past edge on one side (1 above, -1 below).

    A tail t (slope >= 0) at a factor's window end rim bounds its
    coefficient at rim + side * i, i >= 1, by t.at(i).  A pair of a's tail
    with b's stored coefficients or tail lands d past edge only with i
    (plus b's i) >= d - side * (rim_a + rim_b - edge), so its valuation is
    at least t.offset + slope * that, slope the least tail slope there,
    plus the least of b's stored valuations and tail offset; and likewise
    with a and b swapped.
    """
    ta, tb = (s.tail_above if side > 0 else s.tail_below for s in (a, b))
    terms = [(t, u, other) for t, u, other in ((ta, tb, b), (tb, ta, a)) if t is not None]
    if not terms:
        return None
    slope = min(t.slope for t, _, _ in terms)
    offset = min(
        t.offset + min(other._min_stored_valuation(), u.offset if u else math.inf)
        for t, u, other in terms
    )
    rims = a.hi + b.hi if side > 0 else a.lo + b.lo
    return TailBound(slope, offset - slope * side * (rims - edge))


def _check_window(domain: AnnulusSpec, lo: int, hi: int) -> None:
    if lo > hi:
        raise ValueError("empty window")
    if hi - lo > MAX_WINDOW:
        raise ValueError("window growth exceeds the hard cap")
    if domain.is_disc and lo < 0:
        raise ValueError("disc series cannot have negative exponents")


class LaurentSeries:
    """Immutable by convention; operations return fresh instances.  The
    constructor checks every coefficient, `_valid` only the window (see
    the module docstring)."""

    def __init__(
        self,
        ctx: PadicContext,
        coefficients: dict[int, PadicNumber],
        domain: AnnulusSpec,
        lo: int,
        hi: int,
        tail_below: TailBound | None = None,
        tail_above: TailBound | None = None,
    ):
        _check_window(domain, lo, hi)
        coeffs = {}
        for n, c in coefficients.items():
            if c.context != ctx:
                raise ValueError("coefficient context mismatch")
            if c.is_zero:
                continue
            if not (lo <= n <= hi):
                raise ValueError(f"coefficient exponent {n} outside window [{lo},{hi}]")
            coeffs[n] = c
        self._store(ctx, coeffs, domain, lo, hi, tail_below, tail_above)

    @classmethod
    def _valid(
        cls,
        ctx: PadicContext,
        coefficients: dict[int, PadicNumber],
        domain: AnnulusSpec,
        lo: int,
        hi: int,
        tail_below: TailBound | None = None,
        tail_above: TailBound | None = None,
    ) -> "LaurentSeries":
        """A series from coefficients that are nonzero, in ctx and inside
        [lo, hi] by construction; the dict is kept, not copied."""
        _check_window(domain, lo, hi)
        s = cls.__new__(cls)
        s._store(ctx, coefficients, domain, lo, hi, tail_below, tail_above)
        return s

    def _store(self, ctx, coeffs, domain, lo, hi, tail_below, tail_above) -> None:
        self.context = ctx
        self.coefficients = coeffs
        self.domain = domain
        self.lo = lo
        self.hi = hi
        self.tail_below = None if (domain.is_disc and lo == 0) else tail_below
        self.tail_above = tail_above
        self._least: int | None = None

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_dict(
        data: dict[int, object],
        ctx: PadicContext,
        domain: AnnulusSpec,
    ) -> "LaurentSeries":
        """Exact Laurent polynomial from int/Fraction/PadicNumber values, zeros
        dropped, on the window of its nonzero exponents (from 0 on a disc)."""
        coeffs: dict[int, PadicNumber] = {}
        for n, v in data.items():
            c = v if isinstance(v, PadicNumber) else PadicNumber.from_fraction(Fraction(v), ctx)
            coeffs[n] = c
        exps = [n for n, c in coeffs.items() if not c.is_zero]
        w_lo = min(exps, default=0)
        w_hi = max(exps, default=0)
        return LaurentSeries(
            ctx, coeffs, domain, min(w_lo, 0 if domain.is_disc else w_lo), w_hi
        )

    @staticmethod
    def zero(ctx: PadicContext, domain: AnnulusSpec) -> "LaurentSeries":
        return LaurentSeries(ctx, {}, domain, 0, 0)

    @staticmethod
    def one(ctx: PadicContext, domain: AnnulusSpec) -> "LaurentSeries":
        return LaurentSeries(ctx, {0: PadicNumber.from_int(1, ctx)}, domain, 0, 0)

    # -- inspection ----------------------------------------------------------

    @property
    def entire(self) -> bool:
        return self.tail_below is None and self.tail_above is None

    def coefficient(self, n: int) -> PadicNumber:
        return self.coefficients.get(n, PadicNumber.zero(self.context))

    def support(self) -> list[int]:
        return sorted(self.coefficients)

    def __repr__(self) -> str:  # pragma: no cover
        terms = ", ".join(f"{n}: {c!r}" for n, c in sorted(self.coefficients.items()))
        return f"LaurentSeries([{self.lo},{self.hi}] {{{terms}}})"

    # -- ring operations -----------------------------------------------------

    def _join_domain(self, other: "LaurentSeries") -> AnnulusSpec:
        if self.entire and not other.entire:
            return other.domain
        if other.entire and not self.entire:
            return self.domain
        if self.domain != other.domain:
            raise ValueError("domain mismatch between Laurent series")
        return self.domain

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        domain = self._join_domain(other)
        lo_known = max(
            self.lo if self.tail_below is not None else -MAX_WINDOW,
            other.lo if other.tail_below is not None else -MAX_WINDOW,
        )
        hi_known = min(
            self.hi if self.tail_above is not None else MAX_WINDOW,
            other.hi if other.tail_above is not None else MAX_WINDOW,
        )
        lo = max(min(self.lo, other.lo), lo_known)
        hi = min(max(self.hi, other.hi), hi_known)
        if lo > hi:
            raise PrecisionError("windows do not overlap")
        coeffs: dict[int, PadicNumber] = {}
        for n in set(self.coefficients) | set(other.coefficients):
            if lo <= n <= hi:
                coeffs[n] = self.coefficient(n) + other.coefficient(n)
        below = _merge_tails(self.tail_below, other.tail_below)
        above = _merge_tails(self.tail_above, other.tail_above)
        # Stored mass of one operand dropped past the shared window folds
        # into the tail bound as a constant floor.
        for s in (self, other):
            below, above = _fold_clipped(s.coefficients, lo, hi, below, above)
        return LaurentSeries(self.context, coeffs, domain, lo, hi, below, above)

    def scaled(self, c: PadicNumber) -> "LaurentSeries":
        if c.is_zero:
            return LaurentSeries.zero(self.context, self.domain)
        shift_val = c.valuation
        bump = lambda t: None if t is None else TailBound(t.slope, t.offset + shift_val)
        return LaurentSeries._valid(
            self.context,
            {n: coef * c for n, coef in self.coefficients.items()},
            self.domain,
            self.lo,
            self.hi,
            bump(self.tail_below),
            bump(self.tail_above),
        )

    def shifted(self, k: int) -> "LaurentSeries":
        """Multiply by z^k (the window shifts with the coefficients)."""
        domain = self.domain
        if domain.is_disc and self.lo + k < 0:
            raise ValueError("shift would move known mass below a disc window")
        return LaurentSeries._valid(
            self.context,
            {n + k: c for n, c in self.coefficients.items()},
            domain,
            self.lo + k,
            self.hi + k,
            self.tail_below,
            self.tail_above,
        )

    def _min_stored_valuation(self) -> int:
        """The least stored valuation (0 when nothing is stored), found once
        per series."""
        if self._least is None:
            self._least = min((c.valuation for c in self.coefficients.values()), default=0)
        return self._least

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._product(other, None, None)

    def _product(
        self,
        other: "LaurentSeries",
        top: int | None,
        floor: int | None,
        bottom: int | None = None,
        tail: TailBound | None = None,
    ) -> "LaurentSeries":
        """self * other, cut to exponents <= top unless top is None and to
        exponents >= bottom unless bottom is None.  floor bounds the
        valuation of every coefficient the top cut drops.  A bottom cut at
        or above the product's own lower edge becomes that edge, and tail,
        the floor of every coefficient computed below it here or in the
        factors, is its lower tail floor in place of the factors' own."""
        ctx = self.context
        if other.context != ctx:
            raise ValueError("mixed p-adic contexts")
        domain = self._join_domain(other)
        lo = base = self.lo + other.lo
        hi = self.hi + other.hi
        # Convolve in the pair order of a PadicNumber double loop, each
        # product as in PadicNumber.__mul__ and each sum by the p-adic sum
        # rule (PadicNumber.__add__), written out inline over three flat
        # lists indexed by exponent - base.  The state of an exponent is
        # p^val * unit known modulo p^prec: val is the least valuation summed
        # since the state started, unit is not stripped of p, and prec is the
        # absolute precision, the least v + k of the pairs summed.  A sum
        # costs one product, one shift by p^d, one reduction mod p^(prec -
        # val) and a zero test; p is stripped once per output coefficient,
        # where the dict is built, which gives the PadicNumber the stripped
        # rule would have given.  A pair's unit product is reduced mod p^k
        # only when it starts a state: a sum's window is at most k when the
        # product is the lower term, and at most k + d when it is the higher
        # term shifted by p^d, so the raw product gives the same residue.
        # `val[n] is None` marks a fresh state: never reached (prec None) or
        # collapsed to exact zero, which keeps its place in the
        # first-reached order and takes the next product as it is.  That
        # collapse, a sum that vanishes modulo its whole window taken for
        # exact zero, is the `elif k` branch below, the one branch a
        # capped-absolute kernel changes.  Under a cut the pairs that land
        # above it, or below it, are skipped, row by row; every kept pair
        # and exponent keeps its place in that order.
        powers = ctx.powers
        p = ctx.prime
        cut = (hi if top is None else min(hi, top)) - base
        start = 0 if bottom is None else bottom - base
        size = max(cut + 1, 0)
        val: list[int | None] = [None] * size
        unit = [0] * size
        prec: list[int | None] = [None] * size
        order: list[int] = []
        right = [(j - base, c.valuation, c.unit, c.known) for j, c in other.coefficients.items()]
        j_lo = min(other.coefficients, default=0) - base
        j_hi = max(other.coefficients, default=0) - base
        for i, a in self.coefficients.items():
            room = cut - i
            least = start - i
            if room >= j_hi and least <= j_lo:
                row = right
            elif room >= j_lo and least <= j_hi:
                row = [r for r in right if least <= r[0] <= room]
            else:
                continue
            va, ua, ka = a.valuation, a.unit, a.known
            for j, vb, ub, kb in row:
                n = i + j
                k = ka if ka < kb else kb
                v = va + vb
                u = ua * ub
                w = val[n]
                if w is None:
                    if prec[n] is None:
                        order.append(n)
                    val[n] = v
                    unit[n] = u % powers[k]
                    prec[n] = v + k
                    continue
                ap = v + k
                if prec[n] < ap:
                    ap = prec[n]
                if v < w:
                    d = w - v
                    w = v
                    window = ap - v
                    s = u + unit[n] * powers[d] if d < window else u
                else:
                    d = v - w
                    window = ap - w
                    s = unit[n] + u * powers[d] if d < window else unit[n]
                if window <= 0:
                    raise PrecisionError("additive window exhausted")
                s %= powers[window]
                if s:
                    val[n] = w
                    unit[n] = s
                    prec[n] = ap
                elif k:
                    val[n] = None
                else:
                    # With k = 0 the pair adds no digit, so the sum vanishes
                    # only when the pair lands at or below the state's
                    # stripped valuation, where its window is exhausted.
                    raise PrecisionError("additive window exhausted")
        # Knowledge boundaries: an entire side of one factor extends the other
        # factor's window by its extreme stored exponent; a truncated side pins
        # the result at the sum of the truncated edges.
        for x, y in ((self, other), (other, self)):
            if x.tail_above is None and y.tail_above is not None:
                hi = y.hi + min(x.coefficients, default=0)
            if x.tail_below is None and y.tail_below is not None:
                lo = y.lo + max(x.coefficients, default=0)
        hi = min(hi, cut + base)  # the top cut, if any
        cut_below = bottom is not None and bottom >= lo
        if cut_below:
            lo = bottom
        lo = max(lo, -MAX_WINDOW)
        hi = min(hi, MAX_WINDOW)
        if lo > hi:
            raise PrecisionError("product window collapsed")
        above = _product_floor(self, other, hi, 1)
        if top is not None and top < self.hi + other.hi:
            # the kernel skipped the pairs above top, under a pin too
            above = _merge_tails(above, TailBound(0, floor))
        below = tail if cut_below else _product_floor(self, other, lo, -1)
        # a coefficient computed past a pinned edge folds into its floor
        coeffs, dropped = {}, {}
        for n in order:
            v = val[n]
            if v is None:
                continue
            s, k = unit[n], prec[n] - v
            if k:
                while s % p == 0:
                    s //= p
                    v += 1
                    k -= 1
            e = n + base
            (coeffs if lo <= e <= hi else dropped)[e] = PadicNumber(ctx, v, s, k)
        below, above = _fold_clipped(dropped, lo, hi, below, above)
        return LaurentSeries._valid(ctx, coeffs, domain, lo, hi, below, above)

    def mul_cut(self, other: "LaurentSeries", hi: int) -> "LaurentSeries":
        """self * other cut to exponents <= hi.

        Every kept coefficient, and its place in the key order, is the one
        the full product has.  Each pair's product has valuation at least
        the sum of the two least stored valuations, and so has every sum of
        them, which is the constant tail floor the cut adds above.
        """
        floor = self._min_stored_valuation() + other._min_stored_valuation()
        return self._product(other, hi, floor)

    def __pow__(self, m: int, hi: int, lo: int | None = None) -> "LaurentSeries":
        """self^m cut to exponents <= hi (`pow(s, m, hi)`), and to exponents
        >= lo unless lo is None (`s.__pow__(m, hi, lo)`).

        Every kept coefficient, and its place in the key order, is the one
        the full power has.  With L the least stored exponent of self, no
        coefficient of self^e above t - (m - e) * L reaches an exponent
        <= t of the result, so the square-and-multiply cuts each
        intermediate self^e there, with t = max(hi, m * L + 1): the windows
        of two cut factors then reach past the cut of their product, so
        every product after a cut is cut too.  The last product is cut at
        hi.  Every coefficient of the full self^e has valuation at least e
        times the least stored valuation of self, which is the constant
        tail floor each cut adds above.

        The bottom cut mirrors it with H the greatest stored exponent:
        self^e is cut below at b - (m - e) * H, with b = min(lo, m * H - 1),
        and the last product at lo.  With alpha the least stored valuation
        and sigma = _negative_slope(self) > 0, every stored coefficient at
        n sits at or above alpha + sigma * (-n), so every computed
        coefficient of self^e at n has valuation at least
        e * alpha + sigma * (-n): pair valuations add, and the p-adic sum
        rule never lowers a valuation.  That sloped floor, and not the
        factors' own tails, is the lower tail floor each bottom cut leaves.
        """
        if m < 0:
            raise ValueError("series powers must be nonnegative")
        least = min(self.coefficients, default=0)
        greatest = max(self.coefficients, default=0)
        top = max(hi, m * least + 1)
        v = self._min_stored_valuation()
        if lo is not None:
            slope = _negative_slope(self)
            if slope is None or slope <= 0:
                raise ValueError("a bottom cut needs a positive slope below exponent 0")
            bottom = min(lo, m * greatest - 1)

        def cuts(e: int, last: bool) -> tuple:
            """The _product cut arguments for self^e."""
            upper = hi if last else top - (m - e) * least
            if lo is None:
                return upper, e * v
            lower = lo if last else bottom - (m - e) * greatest
            return upper, e * v, lower, TailBound(slope, e * v - slope * lower)

        result = LaurentSeries.one(self.context, self.domain)
        base, e, done, rest = self, 1, 0, m
        while rest:
            if rest & 1:
                done += e
                result = result._product(base, *cuts(done, done == m))
            rest >>= 1
            if rest:
                e *= 2
                base = base._product(base, *cuts(e, False))
        return result

    # -- composition ---------------------------------------------------------

    def compose_monomial(
        self, c: PadicNumber, k: int, domain: AnnulusSpec
    ) -> "LaurentSeries":
        """Substitute z -> c * w^k (k > 0), remapping exponents exactly, onto
        the domain of w.

        Coefficient n becomes coef * c^n, the same PadicNumber as
        `coef * c**n`: c^n is read off running powers of c's unit and of its
        inverse, modulo p^known of c, and c^0 = 1 leaves coef's digits.
        """
        if k <= 0:
            raise ValueError("monomial substitution needs a positive exponent")
        if c.is_zero:
            raise ValueError("monomial substitution needs a nonzero scale")
        ctx = self.context
        powers = ctx.powers
        kc, v = c.known, c.valuation
        mod = powers[kc]
        least = min(self.coefficients, default=0)
        greatest = max(self.coefficients, default=0)
        units = {0: 1}
        run = 1
        for n in range(1, greatest + 1):
            run = run * c.unit % mod
            units[n] = run
        if least < 0:
            inv, run = pow(c.unit, -1, mod), 1
            for n in range(-1, least - 1, -1):
                run = run * inv % mod
                units[n] = run
        coeffs = {}
        for n, a in self.coefficients.items():
            known = min(a.known, kc if n else ctx.precision)
            coeffs[n * k] = PadicNumber(
                ctx, a.valuation + n * v, a.unit * units[n] % powers[known], known
            )
        scale = lambda t: None if t is None else TailBound(
            Fraction(t.slope, k) if t.slope else 0,
            t.offset + min(0, v),
        )
        return LaurentSeries._valid(
            ctx,
            coeffs,
            domain,
            self.lo * k,
            self.hi * k,
            scale(self.tail_below),
            scale(self.tail_above),
        )

    def compose(self, inner: "LaurentSeries") -> "LaurentSeries":
        """Substitute an entire series with strictly positive lowest exponent.

        Horner evaluation.  The inner series must be an exact polynomial
        vanishing at the disc center, so every power raises the minimum
        exponent and the substitution is exact up to the outer truncation.
        """
        if self.lo < 0:
            raise ValueError("composition target must be a power series")
        if not inner.entire:
            raise ValueError("inner series must be entire")
        if min(inner.support(), default=1) < 1 or not inner.domain.is_disc:
            raise ValueError("inner series must vanish at the disc center")
        result = LaurentSeries.zero(self.context, inner.domain)
        for n in range(self.hi, -1, -1):
            result = result * inner
            coef = self.coefficient(n)
            if not coef.is_zero:
                result = result + LaurentSeries(
                    self.context, {0: coef}, inner.domain, 0, 0
                )
        if self.tail_above is not None:
            in_lo = min(inner.support(), default=1)
            cut = (self.hi + 1) * in_lo - 1
            slope = Fraction(self.tail_above.slope, in_lo)
            off = self.tail_above.at(1) + (self.hi + 1) * min(
                0, inner._min_stored_valuation()
            )
            result = result.window_clipped(result.lo, cut)
            result = LaurentSeries(
                self.context,
                result.coefficients,
                result.domain,
                result.lo,
                result.hi,
                result.tail_below,
                _merge_tails(result.tail_above, TailBound(slope, off)),
            )
        return result

    def window_clipped(self, lo: int, hi: int) -> "LaurentSeries":
        """Restrict to a subwindow, folding clipped mass into tail floors.

        A tailed edge only moves inward.  Its tail, measured from the new
        edge, is rebased by slope times the move, so that it still bounds
        every coefficient past the old edge; the stored coefficients
        clipped on that side then join it as a constant floor."""
        lo = max(lo, self.lo) if self.tail_below is not None else lo
        hi = min(hi, self.hi) if self.tail_above is not None else hi
        lo = max(lo, -MAX_WINDOW)
        hi = min(hi, MAX_WINDOW)
        below, above = _fold_clipped(
            self.coefficients, lo, hi,
            _rebased(self.tail_below, lo - self.lo), _rebased(self.tail_above, self.hi - hi),
        )
        coeffs = {n: c for n, c in self.coefficients.items() if lo <= n <= hi}
        return LaurentSeries._valid(self.context, coeffs, self.domain, lo, hi, below, above)

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, z: PadicNumber) -> PadicNumber:
        """Evaluate at a point whose valuation lies strictly inside the domain.

        Tail contributions are folded into the attained precision of the
        result; an evaluation the tails would dominate raises.
        """
        if z.is_zero:
            raise ValueError("evaluation at the puncture")
        t = Fraction(z.valuation)
        if not self.domain.contains_valuation(t):
            raise ValueError("evaluation point outside the domain of convergence")
        total = PadicNumber.zero(self.context)
        for n, c in self.coefficients.items():
            total = total + c * z**n
        caps: list[Fraction] = []
        if self.tail_above is not None:
            caps.append(self.tail_above.at(1) + (self.hi + 1) * t)
        if self.tail_below is not None:
            if self.tail_below.slope <= t:
                raise PrecisionError("tail does not converge at this point")
            # increasing in the distance once slope > t, so d = 1 is extremal
            caps.append(self.tail_below.at(1) + (self.lo - 1) * t)
        if not caps:
            return total
        cap_int = int(min(caps))
        if total.is_zero:
            return total
        if cap_int <= total.valuation:
            raise PrecisionError("evaluation drowned in tail uncertainty")
        known = min(total.known, cap_int - total.valuation)
        return PadicNumber(self.context, total.valuation, total.unit_mod(known), known)


# -- Newton polygons ----------------------------------------------------------


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (exponent, valuation) with its slope runs."""

    vertices: tuple[tuple[int, Fraction], ...]
    slopes: tuple[tuple[Fraction, int], ...]


def newton_polygon(s: LaurentSeries) -> NewtonPolygon:
    pts = sorted((n, Fraction(c.valuation)) for n, c in s.coefficients.items())
    if not pts:
        raise ValueError("Newton polygon of the zero series")
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep the hull lower-convex: drop the middle point when it lies
            # on or above the chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes: list[tuple[Fraction, int]] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(tuple(hull), tuple(slopes))


@dataclass(frozen=True)
class ZeroCount:
    """Zero count on an open annulus/disc with its confidence grade."""

    kind: str  # "exact" | "certified" | "indeterminate"
    count: int


def count_zeros_annulus(s: LaurentSeries, dom: AnnulusSpec) -> ZeroCount:
    """Zeros (with multiplicity, over the algebraic closure) of valuation
    strictly inside the domain: slope -L segments of length l contribute l
    zeros of valuation L.
    """
    if not s.coefficients:
        raise ValueError("zero counting needs a nonzero series")
    poly = newton_polygon(s)
    count = 0
    for slope, length in poly.slopes:
        lam = -slope
        if lam <= 0:
            continue
        if dom.is_disc or lam < dom.inner_valuation:
            count += length
    if s.entire:
        return ZeroCount("exact", count)
    certified = True
    hull = poly.vertices
    h_min = min(v for _, v in hull)
    if s.tail_above is not None:
        # safe when the hull reaches its floor at its right end and unknown
        # upper coefficients cannot dip below that floor
        right_ok = hull[-1][1] == h_min and s.tail_above.at(1) >= h_min
        certified = certified and right_ok
    if s.tail_below is not None:
        beta = Fraction(0) if dom.is_disc else dom.inner_valuation
        t = s.tail_below
        n1, h1 = hull[0]
        steep = max((lam for lam, _ in ((-sl, ln) for sl, ln in poly.slopes)), default=Fraction(0))
        need = max(beta, steep)
        ok = t.slope >= need and t.at(1) >= h1 - need * (n1 - (s.lo - 1))
        certified = certified and ok
    return ZeroCount("certified" if certified else "indeterminate", count)


# -- integration --------------------------------------------------------------


def formal_antiderivative(s: LaurentSeries) -> tuple[LaurentSeries, PadicNumber]:
    """For omega = s dT/T, return (F, a0) with dF = (s - a0) dT/T.

    F = sum over n != 0 of (a_n / n) T^n; the residue a0 multiplies Log
    downstream.  Division by n costs v_p(n) digits of absolute precision,
    tracked by the coefficients themselves.
    """
    ctx = s.context
    coeffs: dict[int, PadicNumber] = {}
    for n, c in s.coefficients.items():
        if n == 0:
            continue
        coeffs[n] = c.scaled(Fraction(1, n))
    p = ctx.prime
    loss = Fraction(_ilog(max(abs(s.lo), abs(s.hi), 1) + MAX_WINDOW // 2, p) + 1)
    relax = lambda t: None if t is None else TailBound(t.slope, t.offset - loss)
    F = LaurentSeries(
        ctx, coeffs, s.domain, s.lo, s.hi, relax(s.tail_below), relax(s.tail_above)
    )
    return F, s.coefficient(0)


def bc_integral(
    omega: LaurentSeries, x: PadicNumber, y: PadicNumber
) -> PadicNumber:
    """Coleman integral of omega = s dT/T from x to y on one annulus/disc.

    Symmetric normalization: (F(y) + a0 Log y) - (F(x) + a0 Log x), with Log
    the Iwasawa branch.  Both endpoints must sit strictly inside the domain.
    """
    from .padic import iwasawa_log

    F, a0 = formal_antiderivative(omega)
    out = F.eval_at(y) - F.eval_at(x)
    if not a0.is_zero:
        out = out + a0 * (iwasawa_log(y) - iwasawa_log(x))
    return out


# -- branch factor series ------------------------------------------------------


def branch_root_series(
    theta: PadicNumber,
    m: int,
    order: int,
    domain: AnnulusSpec,
) -> LaurentSeries:
    """m-th root factor attached to one branch point, on the side its
    valuation puts it.

    v(theta) > 0: (1 - theta/x)^(1/m) in inverse powers on [-order, 0],
    converging on v(x) < v(theta); otherwise (1 - x/theta)^(1/m), a power
    series on [0, order] converging on v(x) > v(theta).  The binomial
    coefficients binom(1/m, k) are p-integral as long as p does not divide
    m.  Coefficient k is binom(1/m, k) * step^k, with step = -theta (or
    -1/theta), so it is coefficient k - 1 times (1 - m(k-1)) / (mk) * step.
    The recurrence runs on plain integers modulo p^known, known the digits
    of theta: each factor's numerator and denominator are stripped of p
    into the valuation, the unit of theta joins the numerator (or the
    denominator), the prefix products are kept, and one modular inverse of
    the last denominator prefix gives every other one on a walk back.  Each
    coefficient becomes one PadicNumber, the one the Q_p recurrence at full
    precision would give.

    Every coefficient of the factor is binom(1/m, k) * step^k, of
    valuation at least k * |v(theta)|, so the dropped side at distance
    d past the edge sits at or above |v(theta)| * order + |v(theta)| * d.
    """
    ctx = theta.context
    if theta.is_zero:
        raise ValueError("branch factor at the origin is a plain monomial")
    p = ctx.prime
    if m < 1 or math.gcd(p, m) != 1:
        raise ValueError("p divides m")
    tv = theta.valuation
    inner = tv > 0
    known = theta.known
    mod = ctx.powers[known]
    step_val, sign = (tv, -1) if inner else (-tv, 1)
    # the unit of step is -u (inner) or -1/u (outer), u the unit of theta
    num_unit, den_unit = (-theta.unit, 1) if inner else (-1, theta.unit)
    # coefficient k: valuation vals[k], and unit units[k] once divided by
    # the product of steps[:k], the denominators of its k factors
    vals, units, steps = [0], [1], []
    v, num, den = 0, 1, 1
    for k in range(1, order + 1):
        a, b = 1 - m * (k - 1), m * k
        if a == 0:
            break  # binom(1/m, k) vanishes from here on (m = 1)
        while a % p == 0:
            a //= p
            v += 1
        while b % p == 0:
            b //= p
            v -= 1
        v += step_val
        b = b * den_unit % mod
        num = num * a * num_unit % mod
        den = den * b % mod
        vals.append(v)
        units.append(num)
        steps.append(b)
    # walking back from the top, inv is 1 over the product of steps[:k]
    inv = pow(den, -1, mod)
    for k in range(len(units) - 1, 0, -1):
        units[k] = units[k] * inv % mod
        inv = inv * steps[k - 1] % mod
    coeffs = {0: PadicNumber.from_int(1, ctx)}
    for k in range(1, len(units)):
        coeffs[sign * k] = PadicNumber(ctx, vals[k], units[k], known)
    tail = TailBound(abs(tv), abs(tv) * order)
    if inner:
        return LaurentSeries._valid(ctx, coeffs, domain, -order, 0, tail, None)
    return LaurentSeries._valid(ctx, coeffs, domain, 0, order, None, tail)


# -- zero bounds ---------------------------------------------------------------


def mu_factor(p: int, e: int = 1) -> Fraction:
    """The antiderivative stretch factor 1 + e/(p - e - 1)."""
    if p <= e + 1:
        raise ValueError("prime too small for the ramification index")
    return 1 + Fraction(e, p - e - 1)


def rolle_zero_bound(w: int, p: int, e: int = 1, g: int | None = None) -> int:
    """Zeros of an antiderivative on an annulus: at most floor(mu * w).

    p <= e + 1 is a hard error; p <= 2g only warns, since the underlying
    comparison theorem assumes the prime clears twice the genus.
    """
    if w < 0:
        raise ValueError("negative Newton polygon width")
    if p <= e + 1:
        raise ValueError("prime does not exceed e + 1")
    if g is not None and p <= 2 * g:
        warnings.warn(
            f"prime {p} does not exceed 2g = {2 * g}; the zero bound's "
            "hypothesis is violated",
            RuntimeWarning,
            stacklevel=2,
        )
    mu = mu_factor(p, e)
    return int(mu * w)
