"""Reference arithmetic of the benchmark's own, independent of the package.

The correctness gate and the corpus generators use only this module and the
standard library: genus by Riemann-Hurwitz, the closed-form bounds, p-adic
valuations and residues of rationals, cluster structure of rational branch
points, and exact integer roots.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def least_prime(m: int) -> int:
    """Least prime congruent to 1 mod m, by trial division."""
    q = m + 1
    while not is_prime(q):
        q += m
    return q


def genus(m: int, degree: int, multiplicities: list[int]) -> int:
    """Riemann-Hurwitz for y^m = f with one entry per distinct root of f."""
    s = len(multiplicities)
    ram = sum(math.gcd(m, n) for n in multiplicities)
    twice = m * (s - 1) - math.gcd(m, degree) - ram + 2
    if twice % 2:
        raise ValueError("non-integral genus")
    return twice // 2


def closed_form_total(g: int, m: int, r: int, p: int) -> int:
    return (8 * g - 8) * (r + 3) + 2 * m * (r + 3) + (2 * p + 2) * (g - 1) + 4 * r


def hyperelliptic_reference(g: int, r: int) -> int:
    return 33 * (g - 1) + 1 if r == 0 else 8 * r * g + 33 * (g - 1) - 1


# -- p-adic valuations and residues of rationals -------------------------------


def vp_int(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(q: Fraction, p: int) -> int:
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def unit_residue(q: Fraction, p: int) -> int:
    """Residue mod p of q / p^vp(q), for nonzero q."""
    num = q.numerator // p ** vp_int(q.numerator, p)
    den = q.denominator // p ** vp_int(q.denominator, p)
    return num * pow(den, -1, p) % p


def is_power_in_qp(valuation: int, residue: int, k: int, p: int) -> bool:
    """Whether p^valuation * (unit with this residue) is a k-th power in Q_p,
    for p odd and prime to k."""
    if valuation % k:
        return False
    return pow(residue, (p - 1) // math.gcd(k, p - 1), p) == 1


# -- cluster structure ----------------------------------------------------------


def cluster_members(
    roots: list[tuple[Fraction, int]], p: int
) -> list[tuple[int, int, set[int]]]:
    """(lo, hi, member indices) for every proper cluster of the p-integral
    roots: the annulus runs from the parent's depth lo to the cluster's hi."""
    out: list[tuple[int, int, set[int]]] = []

    def split(members: list[int], parent_depth: int | None) -> None:
        if len(members) == 1:
            return
        depth = min(
            vp(roots[i][0] - roots[j][0], p)
            for a, i in enumerate(members)
            for j in members[a + 1 :]
        )
        if parent_depth is not None:
            out.append((parent_depth, depth, set(members)))
        groups: list[list[int]] = []
        for i in members:
            for grp in groups:
                if vp(roots[i][0] - roots[grp[0]][0], p) > depth:
                    grp.append(i)
                    break
            else:
                groups.append([i])
        for grp in groups:
            split(grp, depth)

    split(list(range(len(roots))), None)
    return out


def maximal_annuli(
    roots: list[tuple[Fraction, int]], m: int, p: int
) -> list[tuple[int, int, int, str]]:
    """(lo, hi, weighted inner count, label) per proper cluster, sorted; the
    label is split when gcd(count, m) > 1 and rotation otherwise."""
    out = []
    for lo, hi, members in cluster_members(roots, p):
        count = sum(roots[i][1] for i in members)
        out.append((lo, hi, count, "split" if math.gcd(count, m) > 1 else "rotation"))
    return sorted(out)


def annulus_has_charts(
    roots: list[tuple[Fraction, int]],
    inner: set[int],
    lo: int,
    lead: Fraction,
    m: int,
    p: int,
) -> bool:
    """Whether the annulus around the cluster `inner` carries charts.

    After x = c + p^lo x', the curve reads Q0 x'^k0 h^m with
    Q0 = lead * p^(lo * deg) * prod over outer roots of (-(t - c) / p^lo)^n;
    charts exist exactly when Q0 is a d-th power, d = gcd(k0, m).
    """
    k0 = sum(roots[i][1] for i in inner)
    d = math.gcd(k0, m)
    if d == 1:
        return True
    c = roots[min(inner)][0]
    degree = sum(n for _, n in roots)
    val = vp(lead, p) + lo * degree
    res = unit_residue(lead, p)
    for j, (t, n) in enumerate(roots):
        if j in inner:
            continue
        diff = c - t
        val += n * (vp(diff, p) - lo)
        res = res * pow(unit_residue(diff, p), n, p) % p
    return is_power_in_qp(val, res, d, p)


def residue_value(lead: Fraction, roots: list[tuple[Fraction, int]], x: int, p: int):
    """(valuation, unit residue) of f(x) = lead * prod (x - t)^n, f(x) != 0."""
    val = vp(lead, p)
    res = unit_residue(lead, p)
    for t, n in roots:
        diff = Fraction(x) - t
        val += n * vp(diff, p)
        res = res * pow(unit_residue(diff, p), n, p) % p
    return val, res


# -- exact roots and rational points ----------------------------------------------


def integer_root(n: int, k: int) -> int | None:
    """The r >= 0 with r^k == n, or None; bisection on the bit length."""
    if n < 0:
        return None
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def rational_roots(v: Fraction, k: int) -> list[Fraction]:
    """Every rational y with y^k == v."""
    if v == 0:
        return [Fraction(0)]
    den = integer_root(v.denominator, k)
    if den is None:
        return []
    if v > 0:
        num = integer_root(v.numerator, k)
        if num is None:
            return []
        return [Fraction(num, den), Fraction(-num, den)] if k % 2 == 0 else [Fraction(num, den)]
    if k % 2 == 0:
        return []
    num = integer_root(-v.numerator, k)
    return [] if num is None else [Fraction(-num, den)]


def integer_form(coeffs: list[Fraction]) -> tuple[list[int], int]:
    """(C, L) with L * f = sum C_k x^k, C integral."""
    L = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * L) for c in coeffs], L


def homogeneous_value(C: list[int], a: int, b: int) -> int:
    """F(a, b) = sum C_k a^k b^(d-k), so f(a/b) = F(a, b) / (L b^d)."""
    d = len(C) - 1
    return sum(c * a**k * b ** (d - k) for k, c in enumerate(C))


def on_curve(C: list[int], L: int, m: int, x: Fraction, y: Fraction) -> bool:
    """y^m == f(x) checked as u^m * L * b^d == F(a, b) * v^m."""
    a, b = x.numerator, x.denominator
    u, v = y.numerator, y.denominator
    d = len(C) - 1
    return u**m * L * b**d == homogeneous_value(C, a, b) * v**m


def naive_points(C: list[int], L: int, m: int, height: int) -> set[tuple[Fraction, Fraction]]:
    """Every affine rational point with x of height at most `height`."""
    d = len(C) - 1
    out = set()
    for a in range(-height, height + 1):
        for b in range(1, height + 1):
            if math.gcd(a, b) != 1:
                continue
            value = Fraction(homogeneous_value(C, a, b), L * b**d)
            for y in rational_roots(value, m):
                out.add((Fraction(a, b), y))
    return out


def infinity_points(lead: Fraction, m: int, degree: int) -> int:
    """Rational places above x = infinity: rational delta-th roots of the
    leading coefficient, delta = gcd(m, deg f)."""
    return len(rational_roots(lead, math.gcd(m, degree)))


def height(x: Fraction) -> int:
    return max(abs(x.numerator), x.denominator)
