"""Benchmark: fleet throughput -- serial, vectorized, and pooled.

The fleet engine's pitch is device scaling: same-class devices batch
through the memoizing vector executor, which replays equivalent
activations instead of stepping them, and its worker pool deals devices
across processes.  This benchmark times the same fleet all ways and, run
as a script, records devices/second in ``BENCH_fleet.json`` at the repo
root so the scaling trajectory is tracked alongside the code::

    python benchmarks/bench_fleet.py          # write BENCH_fleet.json
    python benchmarks/bench_fleet.py --quick  # CI gate: small fleet, no record
    pytest benchmarks/bench_fleet.py          # pytest-benchmark timings

Four tiers:

* **heterogeneous** -- serial, in-process vector, and vector on a
  two-worker pool (``--jobs 2``) over a mixed 3-class fleet (parity
  enforced everywhere; the pool's speedup over in-process is gated only
  on multi-core hosts, where there is something to win -- the record
  carries the gate decision and its reason);
* **memo** -- a homogeneous fleet (one device class, deterministic
  supply randomness) through the vector executor, recording the memo
  hit rate and devices/second against a serial baseline measured on a
  sample of the same class.  The full run sizes this tier at 500k
  devices (the cohort engine's cost per wave is population-independent);
  ``--quick`` runs a small version and *fails* (exit 1) if the vector
  executor stops beating serial by at least 10x -- the memoizer's win is
  core-count independent, so this gate holds on single-core CI too;
* **jittered** -- a stochastic fleet with per-device harvest-rate jitter
  sharing one environment: the case exact supply tokens could never hit
  on.  Quantized supply keys replay the reboot-free prefix across the
  whole population, so the gate asserts a *nonzero* hit rate (it was
  exactly 0 before quantization) on top of byte parity;
* **persistent** -- the jittered fleet run twice through ``--memo-dir``
  style persistence: the cold run populates the on-disk store, the warm
  run must report ``disk_loads > 0``, a strictly better hit rate, and a
  byte-identical aggregate.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from pathlib import Path

try:  # only the pytest entry points need it; script mode runs without
    import pytest
except ModuleNotFoundError:  # pragma: no cover - exercised in CI smoke
    pytest = None

from repro.eval.campaign import SupplySpec
from repro.fleet import (
    DeviceClass,
    FleetSpec,
    SerialFleetExecutor,
    VectorFleetExecutor,
    aggregate_fingerprint,
    precompile_fleet,
    run_fleet,
)
from repro.telemetry import MetricsRegistry, absorb_fleet

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Worker processes for the pooled leg (the CLI's ``--jobs 2``).
POOL_PROCESSES = 2


def bench_spec(devices: int = 240, budget: int = 25_000) -> FleetSpec:
    """A representative heterogeneous fleet, rescaled to ``devices``."""
    spec = FleetSpec(
        name="bench-fleet",
        fleet_seed=17,
        budget_cycles=budget,
        classes=(
            DeviceClass(
                name="tire-ocelot",
                app="tire",
                config="ocelot",
                count=2,
                supply=SupplySpec(harvest_rate=300),
                harvest_jitter=0.5,
                phase_jitter=8_000,
            ),
            DeviceClass(
                name="greenhouse-jit",
                app="greenhouse",
                config="jit",
                count=1,
                harvest_jitter=0.3,
            ),
            DeviceClass(
                name="cem-atomics",
                app="cem",
                config="atomics",
                count=1,
                phase_jitter=10_000,
            ),
        ),
    )
    return spec.with_total_devices(devices)


def uniform_spec(devices: int, budget: int = 25_000) -> FleetSpec:
    """A homogeneous fleet: the vector executor's representative case.

    One class, deterministic supply randomness (no harvest spread,
    degenerate boot band), no per-device jitter -- every device provably
    repeats device zero, so the memoizer replays nearly everything.
    """
    return FleetSpec(
        name="bench-fleet-uniform",
        fleet_seed=23,
        budget_cycles=budget,
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


def jittered_spec(devices: int, budget: int = 25_000) -> FleetSpec:
    """A stochastic, per-device-jittered fleet sharing one environment.

    Every device draws its own harvest rate (RF shadowing) and boot/off
    randomness, so exact supply tokens are unique per device and the
    memoizer used to score exactly zero hits here.  Quantized supply
    keys ride the reboot-free prefix -- the devices share charge
    trajectories until their first power failure scatters them.
    """
    return FleetSpec(
        name="bench-fleet-jittered",
        fleet_seed=31,
        budget_cycles=budget,
        classes=(
            DeviceClass(
                name="tire-jittered",
                app="tire",
                config="ocelot",
                count=devices,
                supply=SupplySpec(harvest_rate=300),
                harvest_jitter=0.5,
            ),
        ),
    )


def test_fleet_serial(benchmark):
    spec = bench_spec(devices=60, budget=15_000)
    precompile_fleet(spec)
    result = benchmark(run_fleet, spec, SerialFleetExecutor())
    assert result.devices == 60


def _slow(fn):
    return pytest.mark.slow(fn) if pytest is not None else fn


@_slow
def test_fleet_vector_pool(benchmark):
    spec = bench_spec(devices=120, budget=15_000)
    precompile_fleet(spec)  # forked workers inherit warm builds
    result = benchmark.pedantic(
        run_fleet,
        args=(spec, VectorFleetExecutor(processes=POOL_PROCESSES)),
        rounds=3,
        iterations=1,
    )
    assert result.devices == 120


def measure(devices: int = 240, budget: int = 25_000, rounds: int = 3) -> dict:
    """Serial vs. vector in-process vs. vector pooled, best-of-``rounds``.

    Every leg uses a fresh executor, so the vector legs start cold.
    Legs are timed through a :class:`MetricsRegistry` -- the same
    machinery behind the CLI's ``--metrics-out`` -- so this record and
    the metrics schema agree on field names; the final serial run is
    absorbed into the registry and published under ``"metrics"``.
    """
    spec = bench_spec(devices=devices, budget=budget)
    precompile_fleet(spec)

    registry = MetricsRegistry()
    serial = None
    fingerprints = set()
    for _ in range(rounds):
        with registry.timer("bench.fleet.serial.seconds"):
            serial = run_fleet(spec, SerialFleetExecutor())
        fingerprints.add(aggregate_fingerprint(serial))

        with registry.timer("bench.fleet.vector.seconds"):
            vector = run_fleet(spec, VectorFleetExecutor())
        fingerprints.add(aggregate_fingerprint(vector))

        with registry.timer("bench.fleet.pool.seconds"):
            pooled = run_fleet(
                spec, VectorFleetExecutor(processes=POOL_PROCESSES)
            )
        fingerprints.add(aggregate_fingerprint(pooled))

    assert len(fingerprints) == 1, "serial, vector and pooled aggregates differ"
    absorb_fleet(registry, serial)
    histograms = registry.to_dict()["histograms"]
    serial_s = histograms["bench.fleet.serial.seconds"]["min"]
    vector_s = histograms["bench.fleet.vector.seconds"]["min"]
    pool_s = histograms["bench.fleet.pool.seconds"]["min"]
    return {
        "benchmark": "fleet-throughput",
        "spec": {
            "devices": devices,
            "classes": len(spec.classes),
            "budget_cycles": spec.budget_cycles,
            "activations": serial.aggregate.total_activations,
        },
        "rounds": rounds,
        "cores": os.cpu_count() or 1,
        "pool_processes": POOL_PROCESSES,
        "pool_used": pooled.executor_used,
        "serial_seconds": round(serial_s, 4),
        "vector_seconds": round(vector_s, 4),
        "pool_seconds": round(pool_s, 4),
        "serial_devices_per_second": round(devices / serial_s, 2),
        "vector_devices_per_second": round(devices / vector_s, 2),
        "pool_devices_per_second": round(devices / pool_s, 2),
        "pool_speedup": round(vector_s / pool_s, 3),
        "metrics": registry.to_dict(command="bench_fleet"),
    }


def measure_memo_tier(
    devices: int = 100_000,
    budget: int = 25_000,
    serial_sample: int = 200,
) -> dict:
    """Vectorized throughput on a homogeneous fleet vs. a serial baseline.

    The serial baseline runs on a ``serial_sample``-device slice of the
    same class (serial cost is linear in devices, so per-device rates
    compare directly); byte parity is asserted on that slice before the
    full vectorized run is timed.
    """
    sample_count = min(serial_sample, devices)
    sample = uniform_spec(sample_count, budget=budget)
    precompile_fleet(sample)

    registry = MetricsRegistry()
    with registry.timer("bench.fleet.memo.serial.seconds"):
        serial = run_fleet(sample, SerialFleetExecutor())
    vector_sample = run_fleet(sample, VectorFleetExecutor())
    assert aggregate_fingerprint(vector_sample) == aggregate_fingerprint(
        serial
    ), "serial and vector aggregates differ"

    full = uniform_spec(devices, budget=budget)
    with registry.timer("bench.fleet.memo.vector.seconds"):
        vector = run_fleet(full, VectorFleetExecutor())
    serial_s = registry.seconds("bench.fleet.memo.serial.seconds")
    vector_s = registry.seconds("bench.fleet.memo.vector.seconds")

    serial_dps = sample_count / serial_s
    vector_dps = devices / vector_s
    return {
        "devices": devices,
        "serial_sample_devices": sample_count,
        "budget_cycles": budget,
        "activations": vector.aggregate.total_activations,
        "serial_seconds": round(serial_s, 4),
        "vector_seconds": round(vector_s, 4),
        "serial_devices_per_second": round(serial_dps, 2),
        "vector_devices_per_second": round(vector_dps, 2),
        "vector_speedup": round(vector_dps / serial_dps, 2),
        "memo_hit_rate": round(vector.memo["hit_rate"], 6),
        "memo_hits": vector.memo["hits"],
        "memo_misses": vector.memo["misses"],
    }


def measure_jittered_tier(
    devices: int = 2_000,
    budget: int = 25_000,
    serial_sample: int = 200,
) -> dict:
    """Vectorized run of a per-device-jittered fleet: nonzero hit rate.

    Byte parity against serial is asserted on a sample slice (the jitter
    makes serial cost dominate at full size); the full vectorized run
    records the quantized-key hit rate, which must be > 0 -- exact
    supply tokens scored exactly 0 here.
    """
    sample_count = min(serial_sample, devices)
    sample = jittered_spec(sample_count, budget=budget)
    precompile_fleet(sample)

    registry = MetricsRegistry()
    with registry.timer("bench.fleet.jittered.serial.seconds"):
        serial = run_fleet(sample, SerialFleetExecutor())
    vector_sample = run_fleet(sample, VectorFleetExecutor())
    assert aggregate_fingerprint(vector_sample) == aggregate_fingerprint(
        serial
    ), "serial and vector aggregates differ on the jittered fleet"

    full = jittered_spec(devices, budget=budget)
    with registry.timer("bench.fleet.jittered.vector.seconds"):
        vector = run_fleet(full, VectorFleetExecutor())
    serial_s = registry.seconds("bench.fleet.jittered.serial.seconds")
    vector_s = registry.seconds("bench.fleet.jittered.vector.seconds")
    return {
        "devices": devices,
        "serial_sample_devices": sample_count,
        "budget_cycles": budget,
        "activations": vector.aggregate.total_activations,
        "serial_seconds": round(serial_s, 4),
        "vector_seconds": round(vector_s, 4),
        "serial_devices_per_second": round(sample_count / serial_s, 2),
        "vector_devices_per_second": round(devices / vector_s, 2),
        "memo_hit_rate": round(vector.memo["hit_rate"], 6),
        "memo_hits": vector.memo["hits"],
        "memo_misses": vector.memo["misses"],
    }


def measure_persistent_tier(devices: int = 500, budget: int = 25_000) -> dict:
    """Cold vs. warm runs of the jittered fleet through an on-disk memo.

    The cold run populates the store; the warm run (a fresh executor, as
    a fresh process would be) must load entries from disk, score a
    strictly better hit rate, and produce byte-identical aggregates.
    """
    spec = jittered_spec(devices, budget=budget)
    precompile_fleet(spec)
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="bench-memo-") as memo_dir:
        with registry.timer("bench.fleet.persistent.cold.seconds"):
            cold = run_fleet(spec, "vector", memo_dir=memo_dir)
        with registry.timer("bench.fleet.persistent.warm.seconds"):
            warm = run_fleet(spec, "vector", memo_dir=memo_dir)
    assert aggregate_fingerprint(cold) == aggregate_fingerprint(
        warm
    ), "cold and warm persistent-memo aggregates differ"
    assert warm.memo["disk_loads"] > 0, "warm run loaded nothing from disk"
    assert (
        warm.memo["hit_rate"] > cold.memo["hit_rate"]
    ), "disk-backed warm run did not improve the hit rate"
    cold_s = registry.seconds("bench.fleet.persistent.cold.seconds")
    warm_s = registry.seconds("bench.fleet.persistent.warm.seconds")
    return {
        "devices": devices,
        "budget_cycles": budget,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "cold_hit_rate": round(cold.memo["hit_rate"], 6),
        "warm_hit_rate": round(warm.memo["hit_rate"], 6),
        "warm_disk_loads": warm.memo["disk_loads"],
    }


def pool_gate(record: dict) -> dict:
    """The pool-speedup gate decision for ``record``, with its reason.

    On a single-core host two workers share one core, so
    ``pool_speedup <= 1.0`` is expected behavior, not a regression --
    the assertion is skipped and the record says why.
    """
    cores = record["cores"]
    if cores < 2:
        return {
            "cores": cores,
            "gated": False,
            "reason": "single core: the pool has nothing to win; "
            "speedup reported but not asserted",
        }
    return {
        "cores": cores,
        "gated": True,
        "reason": f"multi-core host ({cores} cores): the "
        f"{POOL_PROCESSES}-worker pool must beat in-process vector",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fleet throughput benchmark")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI gate: >=200 devices, parity always, pool speedup on "
        "multi-core, vector >=10x serial on a homogeneous fleet",
    )
    args = parser.parse_args(argv)

    if args.quick:
        record = measure(devices=200, budget=20_000, rounds=1)
        record["pool_gate"] = pool_gate(record)
        record["memo_tier"] = measure_memo_tier(
            devices=2_000, budget=20_000, serial_sample=100
        )
        record["jittered_tier"] = measure_jittered_tier(
            devices=300, budget=20_000, serial_sample=100
        )
        record["persistent_tier"] = measure_persistent_tier(
            devices=150, budget=20_000
        )
        print(json.dumps(record, indent=2))
        vector_speedup = record["memo_tier"]["vector_speedup"]
        if vector_speedup < 10.0:
            print(
                "FAIL: vector executor below 10x serial on a homogeneous "
                f"fleet ({vector_speedup=})"
            )
            return 1
        print(f"ok: vector speedup {vector_speedup}x (memoized)")
        jittered_hits = record["jittered_tier"]["memo_hit_rate"]
        if jittered_hits <= 0.0:
            print(
                "FAIL: zero memo hits on the jittered fleet "
                f"({jittered_hits=}); quantized supply keys regressed"
            )
            return 1
        print(f"ok: jittered-fleet hit rate {jittered_hits} (quantized keys)")
        print(
            "ok: persistent memo warm run loaded "
            f"{record['persistent_tier']['warm_disk_loads']} entries "
            f"(hit rate {record['persistent_tier']['cold_hit_rate']} cold "
            f"-> {record['persistent_tier']['warm_hit_rate']} warm)"
        )
        gate = record["pool_gate"]
        speedup = record["pool_speedup"]
        if not gate["gated"]:
            print(f"note: pool gate skipped -- {gate['reason']} "
                  f"(speedup {speedup}x)")
            return 0
        if speedup <= 1.0:
            print(f"FAIL: vector pool no faster than in-process ({speedup=})")
            return 1
        print(f"ok: vector pool speedup {speedup}x on {record['cores']} cores")
        return 0

    record = measure()
    record["pool_gate"] = pool_gate(record)
    record["memo_tier"] = measure_memo_tier(devices=500_000)
    record["jittered_tier"] = measure_jittered_tier(devices=2_000)
    record["persistent_tier"] = measure_persistent_tier(devices=500)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"record written to {RECORD_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
