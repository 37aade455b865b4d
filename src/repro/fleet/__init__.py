"""``repro.fleet``: scalable multi-device intermittent fleet simulation.

The paper evaluates one device at a time; deployments run fleets.  This
subsystem executes thousands of intermittently-powered devices in one
simulation:

* :mod:`repro.fleet.spec` -- declarative :class:`FleetSpec` (JSON-loadable,
  mirroring campaign specs) and :class:`FleetDevices`, its lazy
  per-class view of the device population;
* :mod:`repro.fleet.device` -- materialization: shared environments and
  cheaply re-seeded per-device supplies, for both executors;
* :mod:`repro.fleet.aggregate` -- streaming, mergeable, byte-deterministic
  aggregates (violation rates, staleness/consistency histograms, duty
  cycles) that never materialize per-activation results;
* :mod:`repro.fleet.engine` -- the serial reference executor (one device
  at a time, each to exhaustion), plus checkpoint/resume so long runs split across invocations;
* :mod:`repro.fleet.vector` -- the vectorized executor: activation
  memoization with quantized supply keys, cohort wave batching over
  same-class devices, a batched miss driver, and an optional fork pool
  (``--jobs N``), still bit-identical to the serial path;
* :mod:`repro.fleet.memostore` -- content-addressed on-disk persistence
  for the activation memo (``--memo-dir``), so re-runs start warm;
* :mod:`repro.fleet.report` -- tables and parity fingerprints.

Entry point: ``python -m repro fleet SPEC.json --devices N --executor vector``.
"""

from repro.fleet.aggregate import ClassAggregate, FleetAggregator
from repro.fleet.device import DeviceBuilder
from repro.fleet.engine import (
    AGGREGATE_PARITY_SCHEME,
    FleetCheckpoint,
    FleetResult,
    SerialFleetExecutor,
    checkpoint_fingerprint,
    make_fleet_executor,
    precompile_fleet,
    run_fleet,
    run_shard,
)
from repro.fleet.memostore import MemoStore
from repro.fleet.vector import (
    ActivationMemo,
    NVCodec,
    QuantEntry,
    VectorFleetExecutor,
)
from repro.fleet.report import (
    aggregate_fingerprint,
    duty_table,
    fleet_table,
    histogram_table,
)
from repro.fleet.spec import (
    DeviceClass,
    DeviceSpec,
    FleetDevices,
    FleetError,
    FleetSpec,
)

__all__ = [
    "AGGREGATE_PARITY_SCHEME",
    "ActivationMemo",
    "ClassAggregate",
    "FleetAggregator",
    "DeviceBuilder",
    "FleetCheckpoint",
    "FleetResult",
    "MemoStore",
    "NVCodec",
    "QuantEntry",
    "SerialFleetExecutor",
    "VectorFleetExecutor",
    "checkpoint_fingerprint",
    "make_fleet_executor",
    "precompile_fleet",
    "run_fleet",
    "run_shard",
    "aggregate_fingerprint",
    "duty_table",
    "fleet_table",
    "histogram_table",
    "DeviceClass",
    "DeviceSpec",
    "FleetDevices",
    "FleetError",
    "FleetSpec",
]
