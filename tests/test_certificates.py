"""Certificates are explicit raises, so they hold under python -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superchab
from superchab.geometry import ResidueAnnulus
from superchab.padic import ChartVerificationError, PadicContext, PadicNumber

PACKAGE = Path(superchab.__file__).parent


def test_package_has_no_assert():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_verification_error_is_not_an_assertion():
    assert not issubclass(ChartVerificationError, AssertionError)


def test_total_bound_check_survives_optimize():
    # an annulus bound far above the closed-form total must be caught even
    # with assert statements compiled away
    code = (
        "import sys\n"
        "import superchab.bounds as b\n"
        "from superchab.padic import ChartVerificationError\n"
        "b.annulus_point_bound = lambda *args: 10**9\n"
        "print('optimize', sys.flags.optimize)\n"
        "try:\n"
        "    print('silent', b.total_point_bound(3, 3, 0, 7))\n"
        "except ChartVerificationError as exc:\n"
        "    print('caught', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout
    assert out.splitlines() == [
        "optimize 1",
        "caught sharp total 1000000032 exceeds the relaxed total 98",
    ]


def test_scale_certificate_survives_optimize():
    # a scale search that finds nothing is an explicit raise, not a None
    # return a caller could miss
    code = (
        "import sys\n"
        "from superchab.geometry import _chart_scale\n"
        "from superchab.padic import ChartVerificationError, PadicContext, PadicNumber\n"
        "q = PadicNumber.from_int(3, PadicContext(7, 10))\n"
        "print('optimize', sys.flags.optimize)\n"
        "try:\n"
        "    print('silent', _chart_scale(q, 2, 4, []))\n"
        "except ChartVerificationError as exc:\n"
        "    print('caught', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout
    assert out.splitlines() == [
        "optimize 1",
        "caught no scale U makes Q * U^2 an m-th power for m = 4 over valuations []",
    ]


def test_disc_residual_below_k_survives_optimize():
    # a disc chart of y^3 = x^3 - 2x at the origin o = 7^5, off the branch
    # point 0, with k = 1 and the other points the roots of
    # (f(x) - f(o)) / (x - o): the identity holds from t^1 on, and only the
    # residual's constant term -f(o), of valuation 5, misses target 10
    code = (
        "import math, sys\n"
        "from superchab.geometry import DiscAnalysis, _build_charts\n"
        "from superchab.padic import ChartVerificationError, PadicContext, PadicNumber, qp_roots\n"
        "from superchab.ratpoly import compose_linear\n"
        "from superchab.series import AnnulusSpec\n"
        "ctx = PadicContext(7, 20)\n"
        "o = 7**5\n"
        "roots, _ = qp_roots([o * o - 2, o, 1], ctx)\n"
        "origin = PadicNumber.from_int(o, ctx)\n"
        "outer = [(th - origin, 1) for th in roots]\n"
        "q = math.prod((-th for th, _ in outer), start=PadicNumber.from_int(1, ctx))\n"
        "print('optimize', sys.flags.optimize)\n"
        "try:\n"
        "    analysis = _build_charts(\n"
        "        DiscAnalysis(2, 'unanalyzed'), 3, q, 1, origin, outer,\n"
        "        AnnulusSpec.disc(), 24, 24,\n"
        "        compose_linear([PadicNumber.from_int(c, ctx) for c in [0, -2, 0, 1]],\n"
        "                       origin, PadicNumber.from_int(1, ctx)),\n"
        "        lambda n: 20)\n"
        "    print('silent', analysis.status, analysis.attained)\n"
        "except ChartVerificationError as exc:\n"
        "    print('caught', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout
    assert out.splitlines() == [
        "optimize 1",
        "caught chart residual attains 5, below target 10",
    ]


def test_bottom_cut_floor_survives_optimize():
    # the rotation annulus of y^3 = (x^2 - 1)(x^2 - 49) over Q_7, whose h
    # has slope 1 below exponent 0, cut as if it had slope 2: h's stored
    # coefficients violate the claimed slope, so the floor that h^m's cut
    # reports at the first dropped exponent, 13, misses the cap 25 there
    code = (
        "import sys\n"
        "import superchab.geometry as g\n"
        "from superchab.curve import SuperellipticCurve\n"
        "from superchab.padic import ChartVerificationError, PadicContext\n"
        "ctx = PadicContext(7, 20)\n"
        "curve = SuperellipticCurve.from_branch_points(3, 1, [(1, 1), (-1, 1), (7, 1), (-7, 1)])\n"
        "pts, _ = g.curve_branch_points(curve, ctx)\n"
        "tree = g.build_cluster_tree([t for t, _ in pts], [n for _, n in pts])\n"
        "[a] = g.enumerate_maximal_annuli(tree, 3, False)\n"
        "honest = g._negative_slope\n"
        "g._negative_slope = lambda h: honest(h) + 1\n"
        "print('optimize', sys.flags.optimize)\n"
        "try:\n"
        "    print('silent', g.parameterize_annulus(a, curve, ctx).attained)\n"
        "except ChartVerificationError as exc:\n"
        "    print('caught', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    ).stdout
    assert out.splitlines() == [
        "optimize 1",
        "caught residual floor 13 below the cut of h^m is under its cap 25",
    ]


def _annulus(rational_center, inner, outer):
    """The annulus 0 < v(x) < 1 of Q_7 about 0, with one inner and one outer
    branch point."""
    ctx = PadicContext(7, 10)
    return ResidueAnnulus(
        PadicNumber.from_int(0, ctx), rational_center, (0, 1),
        [(PadicNumber.from_int(inner, ctx), 1)],
        [(PadicNumber.from_int(outer, ctx), 1)],
    )


def test_annulus_partition_holds():
    assert _annulus(7, 49, 1).valuation_interval == (0, 1)


@pytest.mark.parametrize(
    "rational_center, inner, outer",
    [
        (3, 49, 1),  # rational center at v = 0 from the center, below hi
        (0, 5, 1),  # inner point at v = 0 < hi
        (0, 49, 14),  # outer point at v = 1 > lo
    ],
)
def test_annulus_rejects_a_broken_partition(rational_center, inner, outer):
    with pytest.raises(ValueError):
        _annulus(rational_center, inner, outer)
