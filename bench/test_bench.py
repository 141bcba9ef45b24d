"""Self-tests of the benchmark: seeding, the correctness gate, the tracer.

    PYTHONPATH=src python3 -m pytest -q bench

Each test runs a few items of a workload, not a full run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import localmath
import run
from corpus import charts_corpus, search_corpus, survey_corpus

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

GENERATORS = {"charts": charts_corpus, "search": search_corpus, "survey": survey_corpus}
LIMITS = {"charts": 3, "search": 4, "survey": 8}


def one_pass(name: str, seed: int, patch=None) -> run.Verdict:
    state = run.setup(name, seed, limit=LIMITS[name])
    if patch is not None:
        patch(state.pkg)
    return run.gate(state, run.closed_loop(state, 0))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_corpus_other_seed_other_corpus(name):
    generate = GENERATORS[name]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_outputs_and_gate_passes(name):
    first, second = one_pass(name, 3), one_pass(name, 3)
    assert first.failed == 0, first.errors
    assert first.digest == second.digest
    assert first.attempted == LIMITS[name]


def test_charts_mix_is_the_same_for_every_seed():
    def mix(seed):
        state = run.setup("charts", seed)
        return sorted(
            (i.kind, i.expect.get("status", i.expect.get("charts")), i.expect["sheets"])
            for i in state.items
        )

    first = mix(3)
    assert first == mix(4)
    # three planted root-free discs of the m = 5 curve carry 5 disc charts each
    assert first.count(("disc", "charts", 5)) == 3


def test_tail_has_ten_values_beyond_it_or_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)


def test_planted_wrong_search_point_fails():
    def corrupt(pkg):
        original = pkg.search.enumerate_points

        def enumerate_points(curve, height):
            report = original(curve, height)
            pt = report.points[0]
            report.points[0] = dataclasses.replace(pt, y=pt.y + 1)
            return report

        pkg.search.enumerate_points = enumerate_points

    verdict = one_pass("search", 3, corrupt)
    assert verdict.failed >= 1
    assert any("not on the curve" in e for errors in verdict.errors.values() for e in errors)


def test_planted_wrong_bound_fails():
    def corrupt(pkg):
        original = pkg.cli.bound_report

        def bound_report(curve, r, e=1):
            report = original(curve, r, e)
            return dataclasses.replace(report, total_bound=report.total_bound + 1)

        pkg.cli.bound_report = bound_report

    verdict = one_pass("survey", 3, corrupt)
    # items alternate m = 2, 3, 4, 5 and only m > 2 uses the uniform bound
    assert verdict.failed == 3 * LIMITS["survey"] // 4
    assert verdict.failed / verdict.attempted > 0


@pytest.mark.parametrize(
    "name, zero, live",
    [
        ("charts", "search.f_evals", "series.mul_calls"),
        ("search", "series.mul_calls", "search.f_evals"),
        ("survey", "series.mul_calls", "curve.build_calls"),
        ("survey", "search.f_evals", "ratpoly.mul_calls"),
    ],
)
def test_traced_layers_follow_the_workload_design(name, zero, live):
    state = run.setup(name, 3, limit=LIMITS[name])
    samples, metrics, _ = run.traced_loop(state, 0)
    assert metrics[zero][0] == 0
    assert metrics[live][0] > 0
    assert run.gate(state, samples).failed == 0
    # every patch is undone
    assert not hasattr(state.pkg.padic.PadicNumber.__add__, "__wrapped__")
    assert not hasattr(state.pkg.cli.parse_curve_input, "__wrapped__")
    assert not hasattr(state.pkg.geometry.parameterize_annulus, "__wrapped__")


def test_local_bound_matches_the_readme_example():
    # y^3 = x^12 + 1 at rank 0: genus 10, least prime 7, total 378
    g = localmath.genus(3, 12, [1] * 12)
    assert g == 10
    assert localmath.least_prime(3) == 7
    assert localmath.closed_form_total(g, 3, 0, 7) == 378


def test_local_point_search():
    # y^2 = x^3 - x + 1 passes through (3, 5) and (1/4, -7/8)
    C, L = localmath.integer_form([Fraction(1), Fraction(-1), Fraction(0), Fraction(1)])
    points = localmath.naive_points(C, L, 2, 5)
    assert (Fraction(3), Fraction(5)) in points
    assert (Fraction(1, 4), Fraction(-7, 8)) in points
    assert all(localmath.on_curve(C, L, 2, x, y) for x, y in points)


def test_metric_names_match_benchmark_json(capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "survey", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {m["name"] for m in spec[key]} == set(result["metrics"])
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
