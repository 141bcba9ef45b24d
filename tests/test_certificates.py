"""Certificates are explicit raises, so they hold under python -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import superchab
from superchab.padic import ChartVerificationError

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
