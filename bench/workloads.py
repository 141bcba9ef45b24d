"""The three workloads: how each turns its corpus into items, runs one item
through the package, renders the result canonically, and checks it.

`prepare` and `execute` call the package through module attributes looked
up at call time, so the tracer's patches see every call.  `check` uses only
the corpus and `localmath`, never the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import corpus
import localmath

CHART_TARGET = corpus.CHARTS_PRECISION // 2
# points at this height or below are also found by the naive local loop
SUB_HEIGHT = 12


@dataclass
class Item:
    id: str
    kind: str
    args: tuple
    expect: Any  # what the gate compares the output against


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _interleave(groups: list[list[Item]]) -> list[Item]:
    """Round-robin over the groups, so every prefix mixes them."""
    out: list[Item] = []
    for k in range(max(len(g) for g in groups)):
        out.extend(g[k] for g in groups if k < len(g))
    return out


# -- charts ----------------------------------------------------------------------


def charts_prepare(pkg, data: list[corpus.ChartsCurve]) -> list[Item]:
    groups = []
    for ci, c in enumerate(data):
        roots = [(Fraction(t), n) for t, n in c.roots]
        lead = Fraction(c.lead)
        curve = pkg.curve.SuperellipticCurve.from_branch_points(c.m, c.lead, list(c.roots))
        ctx = pkg.padic.PadicContext(c.p, corpus.CHARTS_PRECISION)
        points, complete = pkg.geometry.curve_branch_points(curve, ctx)
        tree = pkg.geometry.build_cluster_tree([t for t, _ in points], [n for _, n in points])
        annuli = pkg.geometry.enumerate_maximal_annuli(
            tree, m=c.m, infinity_is_branch=curve.degree % c.m != 0
        )
        local = localmath.maximal_annuli(roots, c.m, c.p)
        found = sorted((*a.valuation_interval, a.weighted_inner_count(), a.case) for a in annuli)
        front_ok = complete and found == local
        clusters = localmath.cluster_members(roots, c.p)
        items = []
        for k, a in enumerate(annuli):
            lo, hi = a.valuation_interval
            # the cluster is the set of planted roots within p^hi of the center
            members = {i for i, (t, _) in enumerate(c.roots) if (t - a.rational_center) % c.p**hi == 0}
            expect = {"front_ok": front_ok, "planted": (lo, hi, members) in clusters}
            expect["charts"] = localmath.annulus_has_charts(roots, members, lo, lead, c.m, c.p)
            expect["sheets"] = math.gcd(sum(roots[i][1] for i in members), c.m)
            items.append(Item(f"c{ci}.annulus{k}", "annulus", (a, curve, ctx), expect))
        for x in range(c.p):
            inside = [n for t, n in c.roots if (t - x) % c.p == 0]
            if not inside:
                val, res = localmath.residue_value(lead, roots, x, c.p)
                charted = localmath.is_power_in_qp(val, res, c.m, c.p)
                expect = {"status": "charts" if charted else "no_points", "sheets": c.m}
            elif inside == [1]:
                expect = {"status": "charts", "sheets": 1}
            elif len(inside) == 2 and c.m % 2 == 0:
                expect = {"status": "unanalyzed", "sheets": 0}
            else:
                continue  # outside parameterize_disc's documented hypotheses
            expect["front_ok"] = front_ok
            items.append(Item(f"c{ci}.disc{x}", "disc", (x, curve, ctx), expect))
        groups.append(items)
    return _interleave(groups)


def charts_execute(pkg, item: Item):
    if item.kind == "annulus":
        a, curve, ctx = item.args
        return pkg.geometry.parameterize_annulus(a, curve, ctx)
    x, curve, ctx = item.args
    return pkg.geometry.parameterize_disc(pkg.geometry.DiscSpec(Fraction(x)), curve, ctx)


def _digits(c, absolute: int) -> str:
    """A p-adic coefficient modulo p^absolute, as valuation:unit."""
    if c.is_zero or c.valuation >= absolute:
        return "0"
    keep = min(c.known, absolute - c.valuation)
    return f"{c.valuation}:{c.unit % c.context.prime ** keep}"


def charts_render(result) -> str:
    charts = []
    for ch in result.charts:
        charts.append({
            "sheet": ch.sheet_index,
            "attained": ch.attained,
            "gamma": _digits(ch.gamma, CHART_TARGET),
            "x": {str(n): _digits(c, CHART_TARGET) for n, c in sorted(ch.x_series.coefficients.items())},
            "y": {str(n): _digits(c, CHART_TARGET) for n, c in sorted(ch.y_series.coefficients.items())},
        })
    payload = {"status": result.status, "attained": result.attained, "charts": charts}
    if hasattr(result, "annulus"):
        payload["report"] = result.report()
    else:
        payload["case"] = result.case
    return _canon(payload)


def charts_check(item: Item, output: str) -> list[str]:
    got = json.loads(output)
    expect = item.expect
    errors = []
    if not expect["front_ok"]:
        errors.append("annulus count or labels differ from the planted cluster structure")
    if item.kind == "annulus":
        if not expect["planted"]:
            errors.append("annulus matches no planted cluster")
        want = "charts" if expect["charts"] else "no_points"
        sheets = expect["sheets"] if expect["charts"] else 0
    else:
        want = expect["status"]
        sheets = expect["sheets"] if want == "charts" else 0
    if got["status"] != want:
        errors.append(f"status {got['status']}, expected {want}")
    if len(got["charts"]) != sheets:
        errors.append(f"{len(got['charts'])} charts, expected {sheets}")
    if got["status"] == "charts":
        attained = [got["attained"]] + [ch["attained"] for ch in got["charts"]]
        if min(attained) < CHART_TARGET:
            errors.append(f"chart residual attains {min(attained)} < {CHART_TARGET}")
    return errors


def charts_attained(outputs: list[str]) -> int | None:
    values = [json.loads(o)["attained"] for o in outputs]
    values = [v for v in values if v is not None]
    return min(values) if values else None


# -- search ----------------------------------------------------------------------


def search_prepare(pkg, data: list[corpus.SearchCurve]) -> list[Item]:
    items = []
    for ci, c in enumerate(data):
        coeffs = c.coefficients()
        curve = pkg.curve.SuperellipticCurve(c.m, coeffs)
        items.append(Item(f"s{ci}.{c.kind}", c.kind, (curve, c.rank, c.height), c))
    return items


def search_execute(pkg, item: Item):
    curve, rank, height = item.args
    if item.kind == "verify":
        return pkg.search.verify_bound(curve, rank, height)
    return pkg.search.enumerate_points(curve, height)


def search_render(report) -> str:
    return _canon(report.to_json_dict())


def _parse_frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def search_check(item: Item, output: str) -> list[str]:
    c: corpus.SearchCurve = item.expect
    got = json.loads(output)
    C, L = localmath.integer_form(c.coefficients())
    errors = []
    points = [(_parse_frac(pt["x"]), _parse_frac(pt["y"])) for pt in got["points"]]
    if got["height"] != c.height or got["count"] != len(points):
        errors.append("height or count does not match the point list")
    if points != sorted(set(points)):
        errors.append("points are not distinct and sorted")
    for x, y in points:
        if localmath.height(x) > c.height:
            errors.append(f"x = {x} exceeds height {c.height}")
        if not localmath.on_curve(C, L, c.m, x, y):
            errors.append(f"({x}, {y}) is not on the curve")
    low = {pt for pt in points if localmath.height(pt[0]) <= SUB_HEIGHT}
    if low != localmath.naive_points(C, L, c.m, min(SUB_HEIGHT, c.height)):
        errors.append(f"point set up to height {SUB_HEIGHT} differs from the naive search")
    if got["infinity_count"] != localmath.infinity_points(c.lead, c.m, c.degree):
        errors.append("infinity count differs")
    if c.kind == "verify":
        mults = [n for _, n in c.linear] + [n for _, n in c.quadratic for _ in range(2)]
        g = localmath.genus(c.m, c.degree, mults)
        bound = localmath.closed_form_total(g, c.m, c.rank, localmath.least_prime(c.m))
        if got.get("bound") != bound:
            errors.append(f"bound {got.get('bound')}, expected {bound}")
        if got.get("satisfied") != (len(points) + got["infinity_count"] < bound):
            errors.append("satisfied flag disagrees with the count")
    return errors


# -- survey ----------------------------------------------------------------------


def survey_prepare(pkg, data: list[corpus.SurveyCurve]) -> list[Item]:
    return [Item(f"v{ci}.m{c.m}", "survey", (c.text(), c.rank), c) for ci, c in enumerate(data)]


def survey_execute(pkg, item: Item):
    text, rank = item.args
    cli, geometry = pkg.cli, pkg.geometry
    cin = cli.parse_curve_input(text)
    cin.rank_claim = rank
    genus_json = cli._dump(cli.run("genus", cin))
    bound_json = cli._dump(cli.run("bound", cin))
    curve = cin.build_curve()
    ctx = pkg.padic.PadicContext(pkg.padic.chabauty_prime(curve.m)[0], corpus.SURVEY_PRECISION)
    points, complete = geometry.curve_branch_points(curve, ctx)
    tree = geometry.build_cluster_tree([t for t, _ in points], [n for _, n in points])
    annuli = geometry.enumerate_maximal_annuli(
        tree, m=curve.m, infinity_is_branch=curve.degree % curve.m != 0
    )
    return genus_json, bound_json, complete, len(points), annuli


def survey_render(result) -> str:
    genus_json, bound_json, complete, n_points, annuli = result
    front = {
        "complete": complete,
        "branch_points": n_points,
        "annuli": [
            [a.valuation_interval[0], a.valuation_interval[1], a.weighted_inner_count(), a.d, a.case]
            for a in annuli
        ],
    }
    return _canon({"genus": json.loads(genus_json), "bound": json.loads(bound_json), "front": front})


def survey_check(item: Item, output: str) -> list[str]:
    c: corpus.SurveyCurve = item.expect
    got = json.loads(output)
    errors = []
    mults = [n for _, n in c.roots]
    g = localmath.genus(c.m, c.degree, mults)
    p = localmath.least_prime(c.m)
    if (got["genus"]["genus"], got["genus"]["degree"], got["genus"]["m"]) != (g, c.degree, c.m):
        errors.append("genus report differs from Riemann-Hurwitz")
    bound = got["bound"]
    if c.m == 2:
        want = localmath.hyperelliptic_reference(g, c.rank)
        if (bound.get("reference_bound"), bound.get("g")) != (want, g):
            errors.append(f"reference bound {bound.get('reference_bound')}, expected {want}")
    else:
        want = localmath.closed_form_total(g, c.m, c.rank, p)
        if (bound.get("theorem3_total"), bound.get("prime"), bound.get("g")) != (want, p, g):
            errors.append(f"total bound {bound.get('theorem3_total')}, expected {want}")
    front = got["front"]
    local = localmath.maximal_annuli(list(c.roots), c.m, p)
    found = sorted((lo, hi, count, case) for lo, hi, count, _, case in front["annuli"])
    if not front["complete"] or front["branch_points"] != len(c.roots) or found != local:
        errors.append("front end differs from the local cluster structure")
    return errors


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int], list]
    prepare: Callable
    execute: Callable
    render: Callable[[Any], str]
    check: Callable[[Item, str], list[str]]
    # picks the set-up's warm-up item from the items of the first curve of
    # the WARMUP_SEED corpus, so that its cost does not depend on the seed
    warmup: Callable[[list[Item]], Item] = lambda items: items[0]


WARMUP_SEED = 0
WARMUP_HEIGHT = 24


def charts_warmup(items: list[Item]) -> Item:
    """The disc with one simple branch point: it always carries a chart."""
    return next(i for i in items if i.kind == "disc" and i.expect["sheets"] == 1)


def search_warmup(items: list[Item]) -> Item:
    """The first item at height WARMUP_HEIGHT, so that the set-up stays short."""
    curve, rank, _ = items[0].args
    return Item(items[0].id, items[0].kind, (curve, rank, WARMUP_HEIGHT), items[0].expect)


WORKLOADS = {
    "charts": Workload(
        corpus.charts_corpus, charts_prepare, charts_execute, charts_render, charts_check, charts_warmup
    ),
    "search": Workload(
        corpus.search_corpus, search_prepare, search_execute, search_render, search_check, search_warmup
    ),
    "survey": Workload(corpus.survey_corpus, survey_prepare, survey_execute, survey_render, survey_check),
}
