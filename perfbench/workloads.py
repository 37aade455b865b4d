"""The benchmark's workloads, driven only through the program's public API.

Each workload builds its inputs from the benchmark seed, sets up once,
and then runs *repetitions*: one repetition is a cold pass followed by a
warm pass over the same inputs, with every output checked.

* ``fleet-uniform`` / ``fleet-mixed``: ``run_fleet(spec, "vector",
  memo_dir=...)`` twice on a fresh memo directory -- the cold pass
  writes the persistent memo store, the warm pass reads it.
* ``toolchain``: each of the 18 app x {ocelot, jit, atomics} cells goes
  source -> compile (fresh ``CompileCache``) -> staleness lint ->
  bounded model check; the warm pass repeats the cells on their now-warm
  caches.

``call(name, fn, *args)`` runs ``fn`` inside the traced run's span
``name`` (a plain call when tracing is off), so spans around the calls
the benchmark itself makes come from this file.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.analysis.staleness import analyze_staleness
from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE, CacheKey, CompileCache
from repro.eval.campaign import SupplySpec
from repro.fleet import (
    DeviceClass,
    FleetSpec,
    SerialFleetExecutor,
    aggregate_fingerprint,
    precompile_fleet,
    run_fleet,
)
from repro.sensors.environment import Environment
from repro.telemetry import (
    MetricsRegistry,
    absorb_fleet,
    absorb_pass_timings,
    absorb_verify,
)
from repro.verify import VerifyBounds, verify_program

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
ORACLE_PATH = HERE / "oracle.json"

#: The seed whose full-size serial-oracle fingerprints are stored in
#: ``oracle.json``; any other seed is checked by the reduced parity leg.
DEFAULT_SEED = 1

Call = Callable[..., object]


def plain_call(_name: str, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Rep:
    """One repetition: timings, checked outcomes, and counts to absorb."""

    cold_s: float
    warm_s: float
    #: latency of each cold operation (a cell, or a whole fleet pass)
    ops_ms: list[float]
    attempted: int
    failed: int
    #: folds this repetition's counts into a registry (traced run only)
    absorb: Callable[[MetricsRegistry], None] | None
    extra: dict = field(default_factory=dict)

    def lighten(self) -> None:
        """Drop the results kept for counting, so that memory does not
        grow with the number of repetitions (only the last one's counts
        are read)."""
        self.absorb = None
        self.extra = {}


# -- fleets -------------------------------------------------------------------


def uniform_spec(seed: int, devices: int) -> FleetSpec:
    """One tire/ocelot class with deterministic supply randomness: every
    device provably repeats device zero, so memo reads dominate."""
    return FleetSpec(
        name="perfbench-uniform",
        fleet_seed=seed,
        budget_cycles=25_000,
        classes=(
            DeviceClass(
                name="tire-uniform",
                app="tire",
                config="ocelot",
                count=devices,
                supply=SupplySpec(
                    name="rf",
                    harvest_rate=300,
                    harvest_spread=1.0,
                    boot_fraction=(1.0, 1.0),
                ),
            ),
        ),
    )


def mixed_spec(seed: int, devices: int) -> FleetSpec:
    """``examples/fleet_small.json`` (4 classes, harvest/phase jitter,
    env-seed strides) rescaled, with the benchmark seed as fleet seed."""
    base = FleetSpec.from_dict(
        json.loads((CHECKOUT / "examples" / "fleet_small.json").read_text())
    )
    return replace(base, fleet_seed=seed).with_total_devices(devices)


def class_digests(result) -> dict[str, str]:
    aggregate = result.aggregate
    return {
        name: hashlib.sha256(
            json.dumps(aggregate[name].to_dict(), sort_keys=True).encode()
        ).hexdigest()
        for name in aggregate.class_names
    }


def mismatched(got: dict, want: dict) -> set[str]:
    """Class names whose digests differ, or that only one side has."""
    return {name for name in set(got) | set(want) if got.get(name) != want.get(name)}


def fingerprint_digest(result) -> str:
    """SHA-256 of the whole run's parity fingerprint (spec, device
    count and aggregate)."""
    return hashlib.sha256(aggregate_fingerprint(result).encode()).hexdigest()


def oracle_entry(spec: FleetSpec, result) -> dict:
    """What ``oracle.json`` stores for one fleet run."""
    return {
        "seed": spec.fleet_seed,
        "devices": result.devices,
        "fingerprint": fingerprint_digest(result),
        "classes": class_digests(result),
    }


def _tree_bytes(root: str) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


class FleetWorkload:
    def __init__(self, name: str, make_spec, devices: int, parity_devices: int):
        self.name = name
        self.make_spec = make_spec
        self.devices = devices
        self.parity_devices = parity_devices
        self.min_reps = 3

    def setup(self, seed: int) -> dict:
        spec = self.make_spec(seed, self.devices)
        precompile_fleet(spec)
        return {
            "spec": spec,
            "seed": seed,
            "cache_stats": GLOBAL_CACHE.stats.snapshot(),
        }

    def compiled(self, state: dict) -> list:
        """The builds setup compiled, read without touching cache stats."""
        spec = state["spec"]
        pairs = sorted({(c.app, c.config) for c in spec.classes})
        return [
            GLOBAL_CACHE.lookup(CacheKey.make(BENCHMARKS[app].source, config))
            for app, config in pairs
        ]

    def _passes(self, spec, memo_root: Path, call: Call):
        """Cold then warm ``run_fleet`` on one fresh memo directory."""
        memo_dir = tempfile.mkdtemp(dir=memo_root)
        try:
            start = time.perf_counter()
            cold = call("fleet.vector", run_fleet, spec, "vector", memo_dir=memo_dir)
            mid = time.perf_counter()
            store_bytes = _tree_bytes(memo_dir)
            mid2 = time.perf_counter()
            warm = call("fleet.vector", run_fleet, spec, "vector", memo_dir=memo_dir)
            end = time.perf_counter()
        finally:
            shutil.rmtree(memo_dir, ignore_errors=True)
        return cold, warm, mid - start, end - mid2, store_bytes

    def check(self, state: dict, memo_root: Path) -> None:
        """Untimed correctness legs; also finishes lazy set-up.

        The serial oracle runs on a reduced fleet (same seed, so the
        same leading devices) and both vector passes must match it per
        class.  For the default seed the full-size fingerprints stored in
        ``oracle.json`` become each pass's expectation; otherwise the
        first cold pass is, so every later pass must repeat it.
        """
        spec = state["spec"]
        small = spec.with_total_devices(self.parity_devices)
        serial = class_digests(run_fleet(small, SerialFleetExecutor()))
        cold, warm, *_ = self._passes(small, memo_root, plain_call)
        sizes = {c.name: c.count for c in small.classes}
        bad = mismatched(class_digests(cold), serial)
        bad |= mismatched(class_digests(warm), serial)
        state["parity_bad"] = bad
        state["attempted"] = 2 * small.device_count
        state["failed"] = 2 * sum(sizes.get(name, 0) for name in bad)
        state["expected"] = None
        state["expected_fp"] = None
        if state["seed"] == DEFAULT_SEED:
            stored = json.loads(ORACLE_PATH.read_text()).get(self.name)
            if stored is None or stored["devices"] != spec.device_count:
                raise SystemExit(
                    f"oracle.json has no {self.name} entry at "
                    f"{spec.device_count} devices; run perfbench/oracle.py"
                )
            state["expected"] = stored["classes"]
            state["expected_fp"] = stored["fingerprint"]

    def _wrong_devices(self, state: dict, result) -> int:
        """Devices of classes whose aggregate misses its expectation."""
        digests = class_digests(result)
        whole = fingerprint_digest(result)
        if state["expected"] is None:
            state["expected"], state["expected_fp"] = digests, whole
        wrong = mismatched(digests, state["expected"]) | state["parity_bad"]
        if whole != state["expected_fp"] and not wrong:
            return result.devices  # the spec or the device count drifted
        sizes = {c.name: c.count for c in state["spec"].classes}
        return sum(sizes.get(name, 0) for name in wrong)

    def rep(self, state: dict, memo_root: Path, call: Call) -> Rep:
        spec = state["spec"]
        cold, warm, cold_s, warm_s, store_bytes = self._passes(spec, memo_root, call)
        cold_wrong = self._wrong_devices(state, cold)
        if aggregate_fingerprint(warm) == aggregate_fingerprint(cold):
            warm_wrong = cold_wrong
        else:  # the warm aggregate must be byte-identical to the cold one
            warm_wrong = max(self._wrong_devices(state, warm), 1)

        def absorb(registry: MetricsRegistry) -> None:
            absorb_fleet(registry, cold)
            absorb_fleet(registry, warm)

        return Rep(
            cold_s=cold_s,
            warm_s=warm_s,
            ops_ms=[cold_s * 1e3],
            attempted=cold.devices + warm.devices,
            failed=cold_wrong + warm_wrong,
            absorb=absorb,
            extra={"store_bytes": store_bytes},
        )


# -- toolchain ----------------------------------------------------------------

CONFIGS = ("ocelot", "jit", "atomics")
#: Deep enough that the ocelot legs' exploration, not compile, sets the
#: per-cell tail; every cell still ends in a proof or a counterexample.
VERIFY_BOUNDS = VerifyBounds(
    max_activations=2, max_failures=2, max_cycles=200_000, max_states=500_000
)


def lint_projection(report) -> list[dict]:
    """The stable verdict projection ``tests/golden/lint_verdicts.json``
    pins (the same one ``tools/check_lint.py`` compares)."""
    return [
        {
            "pid": v.pid,
            "kind": v.kind,
            "site": str(v.site),
            "verdict": v.verdict,
            "reason": v.reason,
            "threshold": v.threshold,
        }
        for v in sorted(report.verdicts, key=lambda v: (str(v.site), v.pid))
    ]


class ToolchainWorkload:
    name = "toolchain"
    #: the tail reads the 11th-slowest cold cell, so at least 11 cold
    #: passes keep it inside the slowest cell's mode on every run
    min_reps = 12

    def setup(self, seed: int) -> dict:
        golden = json.loads(
            (CHECKOUT / "tests" / "golden" / "lint_verdicts.json").read_text()
        )
        expected = json.loads((HERE / "expected_verdicts.json").read_text())
        cells = [(app, config) for app in sorted(BENCHMARKS) for config in CONFIGS]
        missing = [c for c in cells if f"{c[0]}/{c[1]}" not in expected]
        if missing:
            raise SystemExit(f"expected_verdicts.json lacks {missing}")
        # One seeded order per run: reshuffling every repetition doubled
        # the spread between repetitions of one run.
        random.Random(seed).shuffle(cells)
        return {"cells": cells, "golden": golden, "expected": expected}

    def compiled(self, state: dict) -> list:
        return []

    def check(self, state: dict, memo_root: Path) -> None:
        """One untimed, checked repetition that finishes lazy set-up."""
        warmup = self.rep(state, memo_root, plain_call)
        state["attempted"] = warmup.attempted
        state["failed"] = warmup.failed

    def _cell(self, state: dict, cell, cache: CompileCache, call: Call):
        app, config = cell
        compiled = cache.get_or_compile(BENCHMARKS[app].source, config)
        report = call("analysis.lint", analyze_staleness, compiled)
        env = Environment.constant_for(compiled.module.channels, 0)
        verdict = call("verify.program", verify_program, compiled, env, VERIFY_BOUNDS)
        leg = f"{app}/{config}"
        ok = (
            lint_projection(report) == state["golden"].get(leg)
            and verdict.kind == state["expected"][leg]
        )
        return compiled, report, verdict, ok

    def rep(self, state: dict, memo_root: Path, call: Call) -> Rep:
        order = state["cells"]
        caches: dict = {}
        compiled_all, reports, verdicts, ops_ms = [], [], [], []
        failed = 0
        start = time.perf_counter()
        for cell in order:
            t0 = time.perf_counter()
            caches[cell] = CompileCache()
            compiled, report, verdict, ok = self._cell(state, cell, caches[cell], call)
            ops_ms.append((time.perf_counter() - t0) * 1e3)
            compiled_all.append(compiled)
            reports.append(report)
            verdicts.append(verdict)
            failed += not ok
        mid = time.perf_counter()
        for cell in order:
            _, report, verdict, ok = self._cell(state, cell, caches[cell], call)
            reports.append(report)
            verdicts.append(verdict)
            failed += not ok
        end = time.perf_counter()

        def absorb(registry: MetricsRegistry) -> None:
            for compiled in compiled_all:
                absorb_pass_timings(registry, compiled)
            for verdict in verdicts:
                absorb_verify(registry, verdict)
            for cache in caches.values():
                for key, value in cache.stats.snapshot().items():
                    registry.counter(f"core.cache.{key}").inc(value)
            registry.counter("analysis.lint_checks").inc(
                sum(len(r.verdicts) for r in reports)
            )

        return Rep(
            cold_s=mid - start,
            warm_s=end - mid,
            ops_ms=ops_ms,
            attempted=2 * len(order),
            failed=failed,
            absorb=absorb,
            extra={"compiled": compiled_all},
        )


WORKLOADS = {
    "fleet-uniform": FleetWorkload("fleet-uniform", uniform_spec, 200_000, 300),
    "fleet-mixed": FleetWorkload("fleet-mixed", mixed_spec, 600, 100),
    "toolchain": ToolchainWorkload(),
}
