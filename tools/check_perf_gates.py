"""CI perf gates: wall-clock ratios measured within one run.

Deterministic properties (parity, compile counts, verdicts, the paper's
shapes) are held by ``tests/``; end-to-end numbers compared across
commits are ``perfbench/``'s job.  What is left are ratios of two
timings taken in the same process on the same host, each against a
fixed threshold:

* campaign -- a warm compile cache runs the sweep faster than a cold one;
* fleet -- the vector executor runs a homogeneous fleet at least 10x
  faster per device than serial (the memo's win does not depend on the
  core count), and on a multi-core host the two-worker pool beats the
  in-process vector executor;
* machine -- the fast engine is at least as fast as the reference, and
  ``ocelot-opt`` keeps at least 0.95x ``ocelot``'s instructions/s on
  the same supply stream (the two run identical instructions, so "not
  slower" is the expectation, with a small allowance for timer noise);
* telemetry -- ``run()`` with telemetry disabled costs at most 2% over
  calling the activation body directly.

Every timing is the best of several rounds.  Scheduler noise only ever
*inflates* a sample, so the per-leg minimum converges on the true time
from above and the ratio of minimums is the robust estimate: a lone
preempted round cannot flip a gate the way a mean (or a thin median)
can.

Usage::

    python tools/check_perf_gates.py    # exit 1 if any gate fails
"""

# ruff: noqa: E402 -- repro is imported after putting src/ on the path
from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.eval.campaign import CampaignSpec, EnvironmentSpec, SupplySpec, run_campaign
from repro.eval.profiles import STANDARD_PROFILE
from repro.fleet import DeviceClass, FleetSpec, precompile_fleet, run_fleet
from repro.runtime.engine import ENGINE_FAST, ENGINE_REFERENCE, create_machine
from repro.runtime.executor import NVState
from repro.runtime.supply import ContinuousPower

ENGINES = (ENGINE_REFERENCE, ENGINE_FAST)

#: (app, config, supply kind): region-heavy, JIT-only, checkpoint-free
#: and continuous execution shapes.  The first two legs feed the
#: check-optimizer gate: same app and supply, baseline vs. optimized.
MACHINE_WORKLOAD = (
    ("tire", "ocelot", "harvest"),
    ("tire", "ocelot-opt", "harvest"),
    ("greenhouse", "jit", "harvest"),
    ("cem", "atomics", "harvest"),
    ("activity", "ocelot", "continuous"),
)
#: tire/ocelot, greenhouse/jit and activity/ocelot (continuous).
TELEMETRY_WORKLOAD = MACHINE_WORKLOAD[::2]


def best_of(rounds: int, fn, *args, **kwargs):
    """(minimum wall seconds, last result) over ``rounds`` calls."""
    best, result = math.inf, None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def cold_campaign(spec: CampaignSpec):
    GLOBAL_CACHE.clear()
    return run_campaign(spec)


def gate_campaign():
    spec = CampaignSpec(
        name="gate-campaign",
        apps=("greenhouse", "tire", "cem"),
        configs=("ocelot", "jit", "atomics"),
        environments=(
            EnvironmentSpec("default", env_seed=0),
            EnvironmentSpec("shifted", env_seed=7),
        ),
        supplies=(SupplySpec.from_profile(seed_offset=23),),
        seeds=(0, 1),
        budget_cycles=20_000,
    )
    cold_s, _ = best_of(3, cold_campaign, spec)
    cached_s, _ = best_of(3, run_campaign, spec)
    speedup = cold_s / cached_s
    yield speedup > 1.0, f"campaign: warm cache {speedup:.2f}x cold (gate > 1.0x)"


def uniform_fleet(devices: int) -> FleetSpec:
    """One class, deterministic supply randomness, no per-device jitter."""
    rf = SupplySpec(
        name="rf", harvest_rate=300, harvest_spread=1.0, boot_fraction=(1.0, 1.0)
    )
    tire = DeviceClass("tire-uniform", "tire", "ocelot", devices, supply=rf)
    return FleetSpec((tire,), fleet_seed=23, budget_cycles=20_000, name="uniform")


def gate_fleet_vector():
    sample, full = uniform_fleet(100), uniform_fleet(2_000)
    precompile_fleet(sample)
    serial_s, _ = best_of(3, run_fleet, sample, "serial")
    vector_s, _ = best_of(3, run_fleet, full, "vector")
    speedup = (2_000 / vector_s) / (100 / serial_s)
    yield speedup >= 10.0, (
        f"fleet: vector {speedup:.1f}x serial per device on a homogeneous "
        "fleet (gate >= 10x)"
    )


def gate_fleet_pool():
    classes = (
        DeviceClass(
            "tire-ocelot", "tire", "ocelot", 2, supply=SupplySpec(harvest_rate=300),
            harvest_jitter=0.5, phase_jitter=8_000,
        ),
        DeviceClass("greenhouse-jit", "greenhouse", "jit", harvest_jitter=0.3),
        DeviceClass("cem-atomics", "cem", "atomics", phase_jitter=10_000),
    )
    spec = FleetSpec(classes, fleet_seed=17, budget_cycles=20_000, name="mixed")
    spec = spec.with_total_devices(200)
    precompile_fleet(spec)  # forked workers inherit warm builds
    vector_s, _ = best_of(3, run_fleet, spec, "vector")
    pool_s, _ = best_of(3, run_fleet, spec, "vector", processes=2)
    speedup = vector_s / pool_s
    cores = os.cpu_count() or 1
    message = f"fleet: 2-worker pool {speedup:.2f}x in-process on {cores} cores"
    if cores < 2:
        yield None, (
            f"{message}; single core: the pool has nothing to win; "
            "speedup reported but not asserted"
        )
    else:
        yield speedup > 1.0, f"{message} (gate > 1.0x)"


def drive(engine: str, app: str, config: str, supply_kind: str, raw=False):
    """One device's activation stream to a 300k-cycle budget.

    ``raw`` calls the activation body ``_run_to_completion()`` directly,
    bypassing ``run()``'s per-activation tracer check.  Returns the
    counters two legs must agree on before their times compare.
    """
    meta = BENCHMARKS[app]
    compiled = GLOBAL_CACHE.get_or_compile(meta.source, config)
    costs, plan = meta.cost_model(), compiled.detector_plan()
    env = meta.env_factory(13)
    supply = (
        ContinuousPower()
        if supply_kind == "continuous"
        else STANDARD_PROFILE.make_supply(seed=5).spawn(31)
    )
    nv = NVState.initial(compiled.module)
    tau = instructions = activations = queries = 0
    while tau < 300_000:
        machine = create_machine(
            engine, compiled, env, supply,
            costs=costs, plan=plan, nv=nv, start_tau=tau,
        )
        result = machine._run_to_completion() if raw else machine.run()
        tau = machine.tau
        instructions += result.stats.instructions
        queries += machine.detector_queries
        activations += 1
        if not result.stats.completed:
            break
    return instructions, activations, queries, tau


def gate_machine():
    seconds, counters = {}, {}
    for engine in ENGINES:
        for leg in MACHINE_WORKLOAD:
            seconds[engine, leg], counters[engine, leg] = best_of(
                3, drive, engine, *leg
            )
    for leg in MACHINE_WORKLOAD:
        assert counters[ENGINE_REFERENCE, leg] == counters[ENGINE_FAST, leg], leg
    ref_s, fast_s = (
        sum(seconds[engine, leg] for leg in MACHINE_WORKLOAD) for engine in ENGINES
    )
    speedup = ref_s / fast_s
    yield speedup >= 1.0, f"machine: fast {speedup:.2f}x reference (gate >= 1.0x)"
    base_ips, opt_ips = (
        counters[ENGINE_FAST, leg][0] / seconds[ENGINE_FAST, leg]
        for leg in MACHINE_WORKLOAD[:2]
    )
    yield opt_ips >= 0.95 * base_ips, (
        f"machine: ocelot-opt at {opt_ips / base_ips:.3f}x ocelot's "
        "instructions/s (gate >= 0.95x)"
    )


def telemetry_leg(raw: bool):
    return [drive(ENGINE_FAST, *leg, raw=raw) for leg in TELEMETRY_WORKLOAD]


def gate_telemetry():
    best = {True: math.inf, False: math.inf}
    counters = {}
    for _ in range(12):  # interleaved, so drift hits both legs alike
        for raw in (True, False):
            seconds, counters[raw] = best_of(1, telemetry_leg, raw)
            best[raw] = min(best[raw], seconds)
    assert counters[True] == counters[False], "telemetry perturbed execution"
    overhead = best[False] / best[True]
    yield overhead <= 1.02, (
        f"telemetry: disabled path {overhead:.4f}x the raw hot path "
        "(gate <= 1.02x)"
    )


GATES = (
    gate_campaign, gate_fleet_vector, gate_fleet_pool, gate_machine, gate_telemetry
)


def main() -> int:
    failures = 0
    for gate in GATES:
        for passed, message in gate():
            status = {True: "ok", False: "FAIL", None: "skip"}[passed]
            print(f"{status:4} {message}", flush=True)
            failures += passed is False
    if failures:
        print(f"{failures} perf gate(s) failed")
        return 1
    print("all perf gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
