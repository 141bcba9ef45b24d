"""Exact arithmetic in Q_p at a fixed working precision.

A nonzero element is stored as p^valuation * unit, with the unit kept as an
integer modulo p^known (1 <= known <= precision).  The valuation is always
exact; `known` is the number of reliable unit digits and shrinks when
additive cancellation eats into the window.  Nothing here uses floating
point.

The sum rule (the additive window, the digits lost to cancellation, the
collapse to exact zero) is `PadicNumber.__add__`; the product kernel of
`series.LaurentSeries` applies the same rule inline over plain integers,
without a call per pair.  Each `PadicContext` builds its table
p^0..p^precision once (`PadicContext.powers`), and the arithmetic reads
moduli from it.  The precision is capped at MAX_PRECISION,
so the table stays small.

Every root in Z_p the package needs is found here, by a scan of the
residues mod p and one Newton lift (`_hensel_lift`): the m-th root gamma of
a chart (`mth_root`), the root of unity zeta_m of its deck action
(`primitive_root_of_unity`), and the Q_p roots of a rational polynomial, the
branch points of y^m = f(x) (`qp_roots`, which zooms into a residue that is
a repeated root mod p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import ratpoly

__all__ = [
    "ChartVerificationError",
    "MAX_M",
    "PadicContext",
    "PadicNumber",
    "PrecisionError",
    "chabauty_prime",
    "check_m",
    "euler_phi",
    "is_prime",
    "iwasawa_log",
    "mth_root",
    "is_mth_power",
    "primitive_root_of_unity",
    "qp_roots",
]

# The power table of a context holds O(precision^2) bits.
MAX_PRECISION = 1000
# The reporting cap 2^phi(m) - 1 of chabauty_prime has about 0.3*phi(m)
# digits; below this limit it stays under Python's 4300-digit int-to-str
# limit, so the prime command can print it.
MAX_M = 10_000


class PrecisionError(ArithmeticError):
    """Raised when an operation cannot deliver a single reliable digit."""


class ChartVerificationError(Exception):
    """A certificate failed its own check: a chart's series identity, or a
    computed count or bound above the cap the theory guarantees.  It is an
    explicit raise, so it also holds under python -O."""


def _check_cap(value: int, cap: int, what: str, cap_name: str) -> None:
    """Raise ChartVerificationError when a certified quantity exceeds its cap."""
    if value > cap:
        raise ChartVerificationError(f"{what} {value} exceeds {cap_name} {cap}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any prime used here."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("euler_phi expects a positive integer")
    phi, rest, q = 1, m, 2
    while q * q <= rest:
        if rest % q == 0:
            e = 0
            while rest % q == 0:
                rest //= q
                e += 1
            phi *= (q - 1) * q ** (e - 1)
        q += 1
    if rest > 1:
        phi *= rest - 1
    return phi


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero requested")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PadicContext:
    """A prime together with the working precision (unit digits carried)."""

    prime: int
    precision: int

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.precision < 1:
            raise ValueError("precision must be at least 1")
        if self.precision > MAX_PRECISION:
            raise ValueError(
                f"precision {self.precision} exceeds the limit {MAX_PRECISION}"
            )

    @cached_property
    def powers(self) -> tuple[int, ...]:
        """p^0, p^1, ..., p^precision: the moduli of every known digit count."""
        p = self.prime
        table = [1]
        for _ in range(self.precision):
            table.append(table[-1] * p)
        return tuple(table)


@dataclass(frozen=True)
class PadicNumber:
    """p^valuation * unit, the unit known modulo p^known.

    Zero is represented with valuation None and unit 0; it is treated as
    exactly zero (an additive cancellation that clears the whole precision
    window also collapses to this).
    """

    context: PadicContext
    valuation: int | None
    unit: int
    known: int

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: PadicContext) -> "PadicNumber":
        return PadicNumber(ctx, None, 0, ctx.precision)

    @staticmethod
    def from_rational(a: int, b: int, ctx: PadicContext) -> "PadicNumber":
        """The image of a/b in Q_p at full working precision.

        Args:
            a: numerator (any integer).
            b: denominator, nonzero.

        Raises:
            ZeroDivisionError: if b == 0.
        """
        if b == 0:
            raise ZeroDivisionError("denominator is zero")
        if a == 0:
            return PadicNumber.zero(ctx)
        p, n = ctx.prime, ctx.precision
        va, vb = _vp(a, p), _vp(b, p)
        ua = a // p**va
        ub = b // p**vb
        mod = ctx.powers[n]
        unit = ua * pow(ub, -1, mod) % mod
        return PadicNumber(ctx, va - vb, unit, n)

    @staticmethod
    def from_int(a: int, ctx: PadicContext) -> "PadicNumber":
        return PadicNumber.from_rational(a, 1, ctx)

    @staticmethod
    def from_fraction(q: Fraction, ctx: PadicContext) -> "PadicNumber":
        return PadicNumber.from_rational(q.numerator, q.denominator, ctx)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    def residue(self) -> int:
        """Unit residue modulo p (0 for zero, whose unit is 0)."""
        return self.unit % self.context.prime

    def unit_mod(self, digits: int) -> int:
        if self.is_zero:
            return 0
        if digits > self.known:
            raise PrecisionError(
                f"requested {digits} unit digits, only {self.known} known"
            )
        return self.unit % self.context.prime**digits

    def value_mod(self, digits: int) -> int:
        """Canonical representative modulo p^digits (valuation must be >= 0)."""
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise ValueError("value_mod needs a p-adic integer")
        if self.valuation >= digits:
            return 0
        if digits - self.valuation > self.known:
            raise PrecisionError("not enough digits known")
        p = self.context.prime
        return self.unit * p**self.valuation % p**digits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero:
            return "0"
        p = self.context.prime
        return f"{self.unit}*{p}^{self.valuation} + O({p}^{self.valuation + self.known})"

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "PadicNumber") -> None:
        if self.context != other.context:
            raise ValueError("mixed p-adic contexts")

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        mod = self.context.powers[self.known]
        return PadicNumber(self.context, self.valuation, (-self.unit) % mod, self.known)

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        """The sum is known modulo the coarser of the two absolute
        precisions, so its window is that precision minus the lower
        valuation (at most the lower summand's `known`, hence at most the
        precision).  Cancellation of t leading digits leaves window - t known
        unit digits.  A sum that vanishes in the whole window is taken for
        exact zero.

        Raises:
            PrecisionError: if the window is empty, so not a single digit of
                the sum is known (only a summand with known 0 gets there).
        """
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        ctx = self.context
        powers = ctx.powers
        lo, hi = (other, self) if other.valuation < self.valuation else (self, other)
        d = hi.valuation - lo.valuation
        window = hi.known + d if hi.known + d < lo.known else lo.known
        if window <= 0:
            raise PrecisionError("additive window exhausted")
        if d < window:
            s = (lo.unit + hi.unit * powers[d]) % powers[window]
        else:
            s = lo.unit % powers[window]
        if s == 0:
            return PadicNumber.zero(ctx)
        p = ctx.prime
        t = 0
        while s % p == 0:
            s //= p
            t += 1
        return PadicNumber(ctx, lo.valuation + t, s, window - t)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if self.is_zero or other.is_zero:
            return PadicNumber.zero(self.context)
        known = min(self.known, other.known)
        mod = self.context.powers[known]
        return PadicNumber(
            self.context,
            self.valuation + other.valuation,
            self.unit * other.unit % mod,
            known,
        )

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("p-adic division by zero")
        if self.is_zero:
            return self
        known = min(self.known, other.known)
        mod = self.context.powers[known]
        return PadicNumber(
            self.context,
            self.valuation - other.valuation,
            self.unit * pow(other.unit, -1, mod) % mod,
            known,
        )

    def __pow__(self, n: int) -> "PadicNumber":
        if n == 0:
            return PadicNumber.from_int(1, self.context)
        if self.is_zero:
            if n < 0:
                raise ZeroDivisionError("negative power of zero")
            return self
        mod = self.context.powers[self.known]
        u = pow(self.unit, -1, mod) if n < 0 else self.unit
        return PadicNumber(
            self.context,
            self.valuation * n,
            pow(u, abs(n), mod),
            self.known,
        )

    def scaled(self, q: Fraction | int) -> "PadicNumber":
        """Multiply by an exact rational without precision loss."""
        return self * PadicNumber.from_fraction(Fraction(q), self.context)


# -- unit-group structure ---------------------------------------------------


def is_mth_power(x: PadicNumber, m: int) -> bool:
    """Whether x is an m-th power in Q_p (requires p coprime to m).

    The unit part is an m-th power iff its residue is one in F_p^*, tested
    via u^((p-1)/gcd(m, p-1)) = 1 mod p; the valuation must be divisible
    by m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if x.is_zero:
        raise ValueError("zero has no well-defined power class")
    p = x.context.prime
    if m > 1 and math.gcd(p, m) != 1:
        raise ValueError("p divides m; wild case not supported")
    if x.valuation % m != 0:
        return False
    g = math.gcd(m, p - 1)
    return pow(x.residue(), (p - 1) // g, p) == 1


def _poly_eval_mod(P: list[int], x: int, mod: int) -> int:
    acc = 0
    for c in reversed(P):
        acc = (acc * x + c) % mod
    return acc


def _hensel_lift(P: list[int], w0: int, p: int, digits: int) -> int:
    """Lift a simple root w0 mod p of the integer polynomial P (ascending
    coefficients) to its unique lift modulo p^digits, doubling the digits
    per Newton step."""
    dP = ratpoly.derivative(P)
    w, have = w0 % p, 1
    while have < digits:
        have = min(2 * have, digits)
        mod = p**have
        fw = _poly_eval_mod(P, w, mod)
        dw = _poly_eval_mod(dP, w, mod)
        w = (w - fw * pow(dw, -1, mod)) % mod
    return w


def mth_root(x: PadicNumber, m: int) -> PadicNumber:
    """A deterministic m-th root of x in Q_p.

    The branch is fixed by taking the smallest nonnegative residue among the
    valid starting residues mod p, then Hensel lifting (p coprime to m keeps
    the derivative a unit, so lifting is quadratic and lossless).

    Raises:
        ValueError: if x is not an m-th power.
    """
    if not is_mth_power(x, m):
        raise ValueError("not an m-th power in Q_p")
    p = x.context.prime
    u0 = x.residue()
    w0 = next(w for w in range(1, p) if pow(w, m, p) == u0)
    w = _hensel_lift([-x.unit_mod(x.known)] + [0] * (m - 1) + [1], w0, p, x.known)
    return PadicNumber(x.context, x.valuation // m, w, x.known)


def primitive_root_of_unity(m: int, ctx: PadicContext) -> PadicNumber:
    """The lift of the smallest residue of exact multiplicative order m.

    Requires p = 1 mod m so that mu_m lives in Q_p; the root is pinned down
    by Hensel lifting X^m - 1 from the chosen residue.
    """
    p = ctx.prime
    if m < 1:
        raise ValueError("m must be positive")
    if (p - 1) % m != 0:
        raise ValueError(f"Q_{p} has no primitive {m}-th root of unity")
    divisors = [d for d in range(1, m) if m % d == 0]
    for w0 in range(1, p):
        if pow(w0, m, p) == 1 and all(pow(w0, d, p) != 1 for d in divisors):
            break
    else:
        # F_p^* is cyclic of order divisible by m, so this cannot happen
        raise ChartVerificationError(f"no residue of order {m} modulo {p}")
    w = _hensel_lift([-1] + [0] * (m - 1) + [1], w0, p, ctx.precision)
    return PadicNumber(ctx, 0, w, ctx.precision)


# -- roots of rational polynomials in Q_p --------------------------------------


def _hensel_root(P: list[int], a: int, ctx: PadicContext) -> PadicNumber:
    """Lift of a simple residue root a to `precision` known digits.  The root
    is a unit unless a = 0; there P'(0) is a unit, so the root has valuation
    v(P(0)) and is lifted by that many more digits (P(0) = 0: exact zero)."""
    p = ctx.prime
    if a == 0 and P[0] == 0:
        return PadicNumber.zero(ctx)
    v = _vp(P[0], p) if a == 0 else 0
    x = _hensel_lift(P, a, p, ctx.precision + v)
    return PadicNumber(ctx, v, x // p**v, ctx.precision)


def _zp_roots_squarefree(
    P: list[int], ctx: PadicContext, depth: int = 0
) -> list[PadicNumber]:
    """Simple roots of a square-free integer polynomial in Z_p; a disc still
    unresolved after 3 * precision zoom levels is given up."""
    p = ctx.prime
    if depth > 3 * ctx.precision:
        return []
    return [
        root
        for a in range(p)
        if _poly_eval_mod(P, a, p) == 0
        for root in _zp_roots_in_residue(P, a, ctx, depth)
    ]


def _zp_roots_in_residue(
    P: list[int], a: int, ctx: PadicContext, depth: int
) -> list[PadicNumber]:
    """Roots in a + pZ_p of a square-free integer polynomial with a root a
    mod p."""
    p = ctx.prime
    if _poly_eval_mod(ratpoly.derivative(P), a, p) != 0:
        return [_hensel_root(P, a, ctx)]
    # repeated residue root: zoom in on the sub-disc a + pZ_p
    zoomed = ratpoly.compose_linear(P, a, p)
    content = min(_vp(q, p) for q in zoomed if q != 0)
    Q = [q // p**content for q in zoomed]
    a_p = PadicNumber.from_int(a, ctx)
    p_p = PadicNumber.from_int(p, ctx)
    return [a_p + p_p * y for y in _zp_roots_squarefree(Q, ctx, depth + 1)]


def qp_roots(
    coeffs: list[Fraction], ctx: PadicContext
) -> tuple[list[PadicNumber], bool]:
    """All Q_p roots of a square-free rational polynomial, plus a flag
    telling whether the polynomial splits completely over Q_p.  Roots of
    negative valuation invert the roots in pZ_p of the reversal R, so R is
    searched at residue 0 alone.  The flag is len(roots) == deg: when P
    splits over Q_p every residue root lies over a root, so a disc the zoom
    gives up on, which holds none of the roots found, leaves fewer than deg.
    """
    poly = ratpoly.normalize(coeffs)
    deg = ratpoly.degree(poly)
    if deg < 1:
        return [], True
    if not ratpoly.is_squarefree(poly):
        raise ValueError("qp_roots expects a square-free polynomial")
    roots: list[PadicNumber] = []
    # strip a root at the origin before reversing
    if poly[0] == 0:
        roots.append(PadicNumber.zero(ctx))
        poly = poly[1:]
    P = ratpoly._primitive(poly)
    roots.extend(_zp_roots_squarefree(P, ctx))
    if P[-1] % ctx.prime == 0:
        one = PadicNumber.from_int(1, ctx)
        roots.extend(one / r for r in _zp_roots_in_residue(P[::-1], 0, ctx, 0))
    return roots, len(roots) == deg




def _ilog(n: int, p: int) -> int:
    """floor(log_p(n)) for n >= 1."""
    e, q = 0, p
    while q <= n:
        q *= p
        e += 1
    return e


def iwasawa_log(x: PadicNumber) -> PadicNumber:
    """The Iwasawa branch of the p-adic logarithm (Log p = 0).

    The valuation is discarded; the unit u is pushed into the principal
    units by u^(p-1), fed through log(1+t) = sum (-1)^(n+1) t^n / n, and the
    result divided by p-1.  Division by n costs v_p(n) digits of absolute
    precision, which the summation tracks automatically.
    """
    if x.is_zero:
        raise ValueError("log of zero")
    ctx = x.context
    p = ctx.prime
    mod = p**x.known
    w = pow(x.unit % mod, p - 1, mod)
    z = PadicNumber.from_int(w, ctx) - PadicNumber.from_int(1, ctx)
    if z.is_zero:
        return PadicNumber.zero(ctx)
    target = x.known
    t = z.valuation
    total = PadicNumber.zero(ctx)
    z_pow = PadicNumber.from_int(1, ctx)
    n = 0
    while True:
        n += 1
        z_pow = z_pow * z
        term = z_pow.scaled(Fraction((-1) ** (n + 1), n))
        total = total + term
        if n * t - _ilog(n + 1, p) > target:
            break
    return total.scaled(Fraction(1, p - 1))


# -- the working prime -------------------------------------------------------


def check_m(m: int) -> None:
    """Raise ValueError when m is outside 2..MAX_M, the range in which the
    least prime and its reporting cap are computed."""
    if m < 2:
        raise ValueError("m must be at least 2")
    if m > MAX_M:
        raise ValueError(
            f"m = {m} exceeds the limit MAX_M = {MAX_M} for the least prime = 1 mod m"
        )


def chabauty_prime(m: int) -> tuple[int, int]:
    """Least prime p = 1 mod m, together with the reporting cap 2^phi(m) - 1.

    The sieve is unconditional (Dirichlet).  The reporting cap understates
    the true elementary bound, which carries one more doubling: for m in
    {2, 3, 4, 6, 8} the least prime (3, 7, 5, 7, 17) already exceeds
    2^phi(m) - 1, while 2^(phi(m)+1) - 1 holds in every case (and is tight
    at m = 2, 3, 6).  The cap is therefore returned for reporting but only
    the corrected bound is enforced, by bit length.  Raises ValueError for
    m outside 2..MAX_M.
    """
    check_m(m)
    phi = euler_phi(m)
    q = m + 1
    while True:
        if is_prime(q):
            break
        q += m
    if q.bit_length() > phi + 1:  # q > 2^(phi+1) - 1
        raise ChartVerificationError(
            f"least prime {q} exceeds the corrected elementary cap 2^{phi + 1} - 1"
        )
    return q, 2 ** phi - 1
