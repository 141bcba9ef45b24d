"""Seeded end-to-end and per-layer benchmark of the superchab package.

    python3 bench/run.py --workload charts --seed 1 --seconds 36 --trace 0

Run it from the repository root.  Workloads (see BENCHMARK.json for why each
exists): `charts` (p-adic charts on annuli and discs), `search` (rational
point search and bound verification) and `survey` (CLI genus and bound plus
the analyze front end on many curves).

One process, no threads.  Each run:

1. makes the seeded corpus (the benchmark's own code, untimed) and sets up:
   a fresh import of the package, the items the package builds from the
   corpus, and one warm-up item of fixed cost; with `--trace 0` it sets up
   SETUPS times in all, spread over the run, and `setup_s` is the median,
   each set-up scaled by host timings taken around it;
2. with `--trace 0`, runs a closed loop with one client over the items for
   `--seconds` (and at least one full pass), timing each item;
   with `--trace 1`, runs passes over the items until `--seconds` have
   passed, each item once untraced and once traced, and reports per-layer
   totals per pass (median over passes); spans go to .bench_out/;
3. checks every output with the benchmark's own arithmetic (`localmath`),
   requires repeats of an item to give the same output, prints a sha256 of
   the canonical outputs of one pass, every metric with its unit and sample
   count, and as the last line one JSON object with the keys `correct`,
   `attempted`, `failed` and `metrics`.

Every reported time is process CPU time, scaled to a nominal host speed by a
reference computation timed between items (see hostspeed.py); the unscaled
values are printed too.  `--seconds` and the pacing of the run are wall time,
and so are the spans of the traced run.  The end-to-end numbers come only from untraced runs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed, cpu  # noqa: E402
from spans import Totals, Tracer  # noqa: E402
from workloads import WARMUP_SEED, WORKLOADS, Item, Workload, charts_attained  # noqa: E402

SETUPS = 7
TAIL_BEYOND = 10
MODULES = ("padic", "series", "ratpoly", "curve", "geometry", "bounds", "search", "cli")
clock = time.perf_counter


def _ours(module_name: str) -> bool:
    return module_name == "superchab" or module_name.startswith("superchab.")


class Package:
    """The package modules from one fresh import."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        importlib.import_module("superchab")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"superchab.{name}"))


@dataclass
class Sample:
    index: int
    start: float  # wall clock
    seconds: float  # CPU time
    output: str | None
    error: str | None


@dataclass
class State:
    name: str
    seed: int
    workload: Workload
    data: list
    warm_data: list
    host: HostSpeed = field(default_factory=HostSpeed)
    pkg: Package | None = None
    items: list[Item] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)  # scaled to nominal host speed
    setup_raw_s: list[float] = field(default_factory=list)

    def set_up(self) -> tuple[Package, list[Item]]:
        """One timed set-up: a fresh import, the items the package builds
        from the corpus, and one warm-up item."""

        def once():
            pkg = Package()
            items = self.workload.prepare(pkg, self.data)
            warm = self.workload.warmup(self.workload.prepare(pkg, self.warm_data))
            self.workload.render(self.workload.execute(pkg, warm))
            return pkg, items

        gc.collect()
        result, scaled, raw = self.host.timed(once)
        self.setup_s.append(scaled)
        self.setup_raw_s.append(raw)
        return result

    def set_up_again(self) -> None:
        """Time one more set-up, then put this state's package modules back,
        so that the items keep running on the modules they started with."""
        kept = {n: m for n, m in sys.modules.items() if _ours(n)}
        self.set_up()
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        sys.modules.update(kept)


def setup(name: str, seed: int, limit: int | None = None) -> State:
    """Make the corpus and set up once.

    The corpus generators run no package code, and the charts generator's
    cost depends on the seed (it draws curves until one meets its plan), so
    they stay out of the timed set-up.  The warm-up item comes from the first
    curve of the WARMUP_SEED corpus, so its cost is the same for every seed.
    """
    workload = WORKLOADS[name]
    state = State(name, seed, workload, workload.generate(seed), workload.generate(WARMUP_SEED)[:1])
    state.pkg, items = state.set_up()
    state.items = items[:limit]
    return state


def run_item(state: State, index: int) -> Sample:
    item = state.items[index]
    start, cpu_start = clock(), cpu()
    try:
        result = state.workload.execute(state.pkg, item)
    except Exception as exc:  # every exception is a failed item
        return Sample(index, start, cpu() - cpu_start, None, f"{type(exc).__name__}: {exc}")
    elapsed = cpu() - cpu_start
    return Sample(index, start, elapsed, state.workload.render(result), None)


def closed_loop(state: State, seconds: float) -> list[Sample]:
    """One client: the next item starts when the previous one returns.
    Runs at least one full pass so that every item is checked.  Between
    items it sets up again at even intervals until there are SETUPS set-ups,
    so that one slow stretch of the host moves few of them."""
    samples = []
    n = len(state.items)
    start = clock()
    k = 0
    while k < n or clock() - start < seconds:
        if len(state.setup_s) < SETUPS and clock() - start >= seconds * len(state.setup_s) / SETUPS:
            state.set_up_again()
        samples.append(run_item(state, k % n))
        state.host.maybe_sample()
        k += 1
    while len(state.setup_s) < SETUPS:
        state.set_up_again()
    return samples


@dataclass
class Verdict:
    attempted: int
    failed: int
    errors: dict[str, list[str]]
    digest: str
    outputs: list[str]


def gate(state: State, samples: list[Sample]) -> Verdict:
    """Check each item's first output with the workload's own arithmetic, and
    every repeat against the first output."""
    first: dict[int, Sample] = {}
    for s in samples:
        first.setdefault(s.index, s)
    errors: dict[str, list[str]] = {}
    for index, s in first.items():
        item = state.items[index]
        if s.error is not None:
            errors[item.id] = [s.error]
            continue
        problems = state.workload.check(item, s.output)
        if problems:
            errors[item.id] = problems
    for s in samples:
        if s.error is None and s.output != first[s.index].output:
            errors.setdefault(state.items[s.index].id, []).append("output differs between repeats")
    failed = sum(s.error is not None or state.items[s.index].id in errors for s in samples)
    digest = hashlib.sha256()
    for index, item in enumerate(state.items):
        digest.update(f"{item.id}\t{first[index].output}\n".encode())
    outputs = [s.output for s in first.values() if s.output is not None]
    return Verdict(len(samples), failed, errors, digest.hexdigest(), outputs)


# -- end-to-end metrics ------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values
    beyond it; with TAIL_BEYOND + 1 values or fewer, the maximum."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND + 1:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(state: State, samples: list[Sample]) -> tuple[dict, list[str]]:
    """Throughput and the median come from each item's median over its
    repeats, so a burst of outside load on one repeat moves neither;
    items_per_s is items over one such pass.  item_tail_ms is taken over
    every executed sample.  Each sample is scaled to nominal host speed by
    the reference timings nearest to it (see hostspeed.py)."""
    host = state.host
    per_item: dict[int, list[float]] = {}
    raw_item: dict[int, list[float]] = {}
    scaled_all_ms = []
    for s in samples:
        ms = s.seconds * 1000
        scaled = ms * host.factor_at(s.start + s.seconds / 2)
        per_item.setdefault(s.index, []).append(scaled)
        raw_item.setdefault(s.index, []).append(ms)
        scaled_all_ms.append(scaled)
    latencies = [statistics.median(v) for v in per_item.values()]
    raw_ms = [statistics.median(v) for v in raw_item.values()]
    raw_all_ms = [s.seconds * 1000 for s in samples]
    tail_ms, tail_pct = tail(scaled_all_ms)
    metrics = {
        "setup_s": (statistics.median(state.setup_s), "s"),
        "items_per_s": (1000 * len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": (statistics.median(latencies), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    repeats = min(len(v) for v in per_item.values())
    notes = [
        f"samples {len(samples)}: {len(per_item)} items, each run at least {repeats} times; "
        f"setups {len(state.setup_s)}",
        f"item_p50_ms is the median over items of each item's median; "
        f"item_tail_ms is p{tail_pct:.1f} of all {len(samples)} samples ({TAIL_BEYOND} beyond it)",
        f"host speed factor {host.factor():.4f} (run median) from {len(host.times)} reference timings; unscaled: "
        f"setup_s {statistics.median(state.setup_raw_s):.6g} "
        f"items_per_s {1000 * len(raw_ms) / sum(raw_ms):.6g} "
        f"item_p50_ms {statistics.median(raw_ms):.6g} item_tail_ms {tail(raw_all_ms)[0]:.6g}",
    ]
    return metrics, notes


# -- per-layer metrics --------------------------------------------------------------

def pass_layers(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals of one traced pass over every item, with units."""
    t, c = tracer.totals, tracer.counters

    def get(name: str) -> Totals:
        return t.get(name, Totals())

    attempts = c.get("geometry.chart_attempts", 0)
    f_evals = c.get("search.f_evals", 0)
    return {
        "padic.arith_calls": (get("padic.arith").calls, "count"),
        "padic.arith_self_s": (get("padic.arith").self_s, "s"),
        "padic.mth_power_tests": (get("padic.power_tests").calls, "count"),
        "padic.power_tests_s": (get("padic.power_tests").total_s, "s"),
        "series.mul_calls": (get("series.mul").calls, "count"),
        "series.mul_coeff_pairs": (c.get("series.mul_coeff_pairs", 0), "count"),
        "series.mul_self_s": (get("series.mul").self_s, "s"),
        "series.pow_self_s": (get("series.pow").self_s, "s"),
        "series.compose_self_s": (get("series.compose").self_s, "s"),
        "series.clip_self_s": (get("series.clip").self_s, "s"),
        "geometry.branch_points_s": (get("geometry.branch_points").total_s, "s"),
        "geometry.cluster_tree_s": (get("geometry.cluster_tree").total_s, "s"),
        "geometry.annuli_s": (get("geometry.annuli").total_s, "s"),
        "geometry.annulus_chart_self_s": (get("geometry.annulus_chart").self_s, "s"),
        "geometry.disc_chart_self_s": (get("geometry.disc_chart").self_s, "s"),
        "geometry.chart_yield": (c.get("geometry.charts_built", 0) / attempts if attempts else 0, "ratio"),
        "geometry.attained_digits_min": (c.get("geometry.attained_min", 0), "digits"),
        "curve.build_calls": (get("curve.build").calls, "count"),
        "curve.build_s": (get("curve.build").total_s, "s"),
        "curve.validate_s": (get("curve.validate").total_s, "s"),
        "curve.genus_s": (get("curve.genus").total_s, "s"),
        "ratpoly.mul_calls": (get("ratpoly.mul").calls, "count"),
        "bounds.report_calls": (get("bounds.report").calls, "count"),
        "bounds.report_s": (get("bounds.report").total_s, "s"),
        "search.enumerate_s": (get("search.enumerate").total_s, "s"),
        "search.verify_s": (get("search.verify").total_s, "s"),
        "search.f_evals": (f_evals, "count"),
        "search.hit_ratio": (c.get("search.points", 0) / f_evals if f_evals else 0, "ratio"),
        "cli.parse_s": (get("cli.parse").total_s, "s"),
        "cli.run_self_s": (get("cli.run").self_s, "s"),
        "cli.dump_s": (get("cli.dump").total_s, "s"),
    }


def traced_loop(state: State, seconds: float) -> tuple[list[Sample], dict, list[str]]:
    """Run passes over every item until `seconds` have passed, each item once
    untraced and then once traced, so that both see the same host speed;
    per-layer values are medians over passes."""
    tracer = Tracer()
    n = len(state.items)
    samples: list[Sample] = []
    passes: list[dict[str, tuple[float, str]]] = []
    ratios = []
    start = clock()
    pass_s = 0.0
    # start another pass only if it should end within `seconds`
    while not passes or clock() - start + pass_s < seconds:
        pass_start = clock()
        tracer.reset()
        plain_s = traced_s = 0.0
        for i, item in enumerate(state.items):
            plain = run_item(state, i)
            tracer.install()
            try:
                traced = tracer.span("item", item.id, run_item, state, i)
            finally:
                tracer.remove()
            samples += [plain, traced]
            state.host.maybe_sample()
            plain_s += plain.seconds
            traced_s += traced.seconds
        passes.append(pass_layers(tracer))
        ratios.append(traced_s / plain_s)
        pass_s = clock() - pass_start
    factor = state.host.factor()
    metrics = {}
    for name, (_, unit) in passes[0].items():
        value = statistics.median(p[name][0] for p in passes)
        metrics[name] = (value * factor if unit == "s" else value, unit)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{state.name}-seed{state.seed}.jsonl"
    tracer.write(path)
    notes = [
        f"traced passes {len(passes)} of {n} items each; host speed factor {factor:.4f}; "
        f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"
    ]
    return samples, metrics, notes


# -- command line -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superchab" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    state = setup(args.workload, args.seed)
    if args.trace:
        samples, metrics, notes = traced_loop(state, args.seconds)
    else:
        samples = closed_loop(state, args.seconds)
        metrics, notes = end_to_end(state, samples)
    verdict = gate(state, samples)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(line)
    for item_id, problems in sorted(verdict.errors.items()):
        for problem in problems:
            print(f"FAILED {item_id}: {problem}")
    print(f"failed_ratio {verdict.failed / verdict.attempted:g} ({verdict.failed} of {verdict.attempted})")
    if args.workload == "charts":
        print(f"attained_digits_min {charts_attained(verdict.outputs)} digits")
    print(f"outputs_sha256 {verdict.digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
