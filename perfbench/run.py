"""Entry point: one workload, one seed, one closed-loop single-client run.

    python3 perfbench/run.py --workload fleet-mixed --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory.  The run

1. measures set-up (import plus everything before the timed phase) in
   fresh interpreters, several times, and keeps the median;
2. sets up in this process and runs the workload's untimed correctness
   legs, which also finish lazy set-up;
3. repeats the workload until ``--seconds`` have passed (and at least
   the workload's minimum number of repetitions), checking every output;
4. prints every metric by name with its unit, the host block, and as the
   last line one JSON object: ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the window untraced and half with spans around each layer's public
calls, and reports the per-layer metrics (see ``README.md``).  Records
and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

PASS_STAGES = (
    "taint",
    "lower",
    "infer-regions",
    "war-omegas",
    "shape-atomics",
    "check",
    "opt-checks",
    "policies",
    "validate",
    "verify-ir",
)

#: span name -> per-layer self-time metric
SPAN_METRICS = {
    "core.compile": "core.compile_s",
    "analysis.lint": "analysis.lint_s",
    "verify.explore": "verify.explore_s",
    "verify.program": "verify.minimize_s",
    "runtime.execute": "runtime.execute_s",
    "fleet.spec.expand": "fleet.spec.expand_s",
    "fleet.memo.probe": "fleet.memo.probe_s",
    "fleet.memo.put": "fleet.memo.put_s",
    "fleet.aggregate.fold": "fleet.aggregate.fold_s",
    "fleet.memostore.load": "fleet.memostore.load_s",
    "fleet.memostore.save": "fleet.memostore.save_s",
    "fleet.vector": "fleet.vector.self_s",
}

#: registry counter -> per-layer count metric
COUNTERS = {
    "compile.passes": "core.passes",
    "core.cache.compiles": "core.cache.compiles",
    "core.cache.hits": "core.cache.hits",
    "analysis.lint_checks": "analysis.lint_checks",
    "verify.explored": "verify.explored",
    "verify.pruned": "verify.pruned",
    "verify.deduped": "verify.deduped",
    "fleet.memo.hits": "fleet.memo.hits",
    "fleet.memo.misses": "fleet.memo.misses",
    "fleet.memo.entries": "fleet.memo.entries",
    "fleet.memo.evictions": "fleet.memo.evictions",
    "fleet.memo.disk_loads": "fleet.memo.disk_loads",
    "fleet.activations": "fleet.activations",
    "fleet.reboots": "fleet.reboots",
    "fleet.cycles_on": "fleet.cycles_on",
    "fleet.detector_queries": "fleet.detector_queries",
    "fleet.violations": "fleet.violations",
}


def host_block() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "git_rev": git_rev(),
    }


def git_rev() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds measured inside fresh interpreters."""
    probe = HERE / "setup_probe.py"
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            cwd=CHECKOUT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def install_layer_spans(recorder) -> None:
    """Spans around each layer's public methods (restored by
    ``recorder.uninstall``)."""
    from repro.core.cache import CompileCache
    from repro.fleet import ActivationMemo, FleetAggregator, FleetSpec, MemoStore
    from repro.runtime.engine import FastMachine
    from repro.verify.explorer import Explorer

    def instructions(counts, result) -> None:
        counts["runtime.instructions"] += result.stats.instructions

    recorder.patch(CompileCache, "get_or_compile_with_info", "core.compile")
    recorder.patch(Explorer, "run", "verify.explore")
    recorder.patch(FastMachine, "run", "runtime.execute", instructions)
    recorder.patch(FleetSpec, "expand", "fleet.spec.expand")
    recorder.patch(ActivationMemo, "get", "fleet.memo.probe")
    recorder.patch(ActivationMemo, "put", "fleet.memo.put")
    for method in ("observe", "observe_many", "merge"):
        recorder.patch(FleetAggregator, method, "fleet.aggregate.fold")
    recorder.patch(MemoStore, "load", "fleet.memostore.load")
    recorder.patch(MemoStore, "save", "fleet.memostore.save")


def run_reps(workload, state, seconds: float, min_reps: int, call) -> list:
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        # Every repetition starts from the same collector state, so a
        # collection left over from the last one is not billed to it.
        if reps:
            reps[-1].lighten()
        gc.collect()
        reps.append(workload.rep(state, OUT, call))
    return reps


def end_to_end(reps, setup_samples) -> tuple[dict, dict]:
    cold = [r.cold_s for r in reps]
    warm = [r.warm_s for r in reps]
    ops = [ms for r in reps for ms in r.ops_ms]
    items = reps[0].attempted // 2
    tail_ms, tail_pct = tail(ops)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(c + w for c, w in zip(cold, warm)), "s"),
        # Throughput is all work over all time: host speed flips between
        # two levels every few seconds, and a median over repetitions
        # jumps between them where a total moves smoothly.
        "items_per_s": (items * len(cold) / sum(cold), "1/s"),
        "warm_items_per_s": (items * len(warm) / sum(warm), "1/s"),
        "p50_ms": (statistics.median(ops), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }
    detail = {
        "repetitions": len(reps),
        "items_per_pass": items,
        "op_samples": len(ops),
        "tail_percentile": round(tail_pct, 2),
        "setup_samples": setup_samples,
        "cold_s": cold,
        "warm_s": warm,
    }
    return metrics, detail


def per_layer(workload, state, recorder, setup_end, traced, untraced) -> dict:
    """Per-layer metrics: set-up time plus timed-phase time per traced
    repetition (compile runs only in set-up on the fleets)."""
    from repro.telemetry import MetricsRegistry, absorb_pass_timings

    n = len(traced)
    setup_own, _ = recorder.self_times(0, setup_end)
    timed_own, roots = recorder.self_times(setup_end, len(recorder.spans))
    metrics: dict[str, tuple[float, str]] = {}
    for span, metric in SPAN_METRICS.items():
        value = setup_own.get(span, 0.0) + timed_own.get(span, 0.0) / n
        metrics[metric] = (value, "s")

    registry = MetricsRegistry()
    compiled = workload.compiled(state)
    for program in compiled:
        absorb_pass_timings(registry, program)
    for key, value in state.get("cache_stats", {}).items():
        registry.counter(f"core.cache.{key}").inc(value)
    traced[-1].absorb(registry)
    counters = registry.to_dict()["counters"]
    for counter, metric in COUNTERS.items():
        metrics[metric] = (counters.get(counter, 0), "count")

    stages = dict.fromkeys(PASS_STAGES, 0.0)
    staged = 0.0
    for program in compiled + traced[-1].extra.get("compiled", []):
        for timing in program.timings:
            staged += timing.seconds
            if timing.stage in stages:
                stages[timing.stage] += timing.seconds
    for stage, seconds in stages.items():
        metrics[f"core.pass.{stage}_s"] = (seconds, "s")
    metrics["core.compile_unstaged_s"] = (metrics["core.compile_s"][0] - staged, "s")

    hits = metrics["fleet.memo.hits"][0]
    lookups = hits + metrics["fleet.memo.misses"][0]
    metrics["fleet.memo.hit_rate"] = (hits / lookups if lookups else 0.0, "ratio")
    metrics["fleet.memostore.bytes"] = (traced[-1].extra.get("store_bytes", 0), "B")
    explore_s = timed_own.get("verify.explore", 0.0) / n
    explored = metrics["verify.explored"][0]
    metrics["verify.states_per_s"] = (explored / explore_s if explore_s else 0.0, "1/s")
    runs = sum(1 for s in recorder.spans[setup_end:] if s[0] == "runtime.execute")
    execute_s = timed_own.get("runtime.execute", 0.0) / n
    metrics["runtime.machine_runs"] = (runs / n, "count")
    instructions = recorder.counts["runtime.instructions"] / n
    metrics["runtime.instructions_per_s"] = (
        instructions / execute_s if execute_s else 0.0,
        "1/s",
    )
    walls = [r.cold_s + r.warm_s for r in traced]
    baseline = statistics.median(r.cold_s + r.warm_s for r in untraced)
    metrics["untraced_s"] = ((sum(walls) - roots) / n, "s")
    metrics["telemetry.trace_overhead"] = (statistics.median(walls) / baseline, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"no program sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    from spans import SpanRecorder
    from workloads import WORKLOADS, plain_call

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        choices = ", ".join(sorted(WORKLOADS))
        print(f"unknown workload {args.workload!r}; choose from {choices}",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    recorder = SpanRecorder() if args.trace else None
    if args.trace:
        install_layer_spans(recorder)
    else:
        setup_samples = measure_setup(args.workload, args.seed)
    state = workload.setup(args.seed)
    setup_end = len(recorder.spans) if recorder else 0
    if recorder:
        recorder.uninstall()
    workload.check(state, OUT)

    if args.trace:
        half = args.seconds / 2
        min_half = max(1, workload.min_reps // 2)
        untraced = run_reps(workload, state, half, min_half, plain_call)
        install_layer_spans(recorder)
        try:
            traced = run_reps(workload, state, half, min_half, recorder.span)
        finally:
            recorder.uninstall()
        reps = untraced + traced
        metrics = per_layer(workload, state, recorder, setup_end, traced, untraced)
        detail = {"repetitions": len(reps), "traced_repetitions": len(traced)}
        recorder.write(OUT / f"{args.workload}.spans.json")
    else:
        reps = run_reps(workload, state, args.seconds, workload.min_reps, plain_call)
        metrics, detail = end_to_end(reps, setup_samples)

    attempted = state["attempted"] + sum(r.attempted for r in reps)
    failed = state["failed"] + sum(r.failed for r in reps)
    host = host_block()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "detail": detail,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"detail: {json.dumps(detail, sort_keys=True)}")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
