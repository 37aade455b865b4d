"""Vectorized fleet execution: cohorts, memoized activations, quantized keys.

A fleet's cost is dominated by stepping instructions, yet most of that
work is redundant: devices of one class share a compiled program, and an
activation's outcome is a pure function of its resume-point state --
nonvolatile memory, supply state, and the environment's behavior from
the start time (the observation behind the formal treatment in
Surbatovich et al.).  This executor exploits that in five layers:

* **Activation memoization** (:class:`ActivationMemo`).  Every executed
  activation is cached under a key built from equivalence *tokens*:
  program (app, build config, engine), environment identity, a
  time token (:meth:`Environment.segment_token
  <repro.sensors.environment.Environment.segment_token>` quantizes the
  start time when the environment is exactly periodic and the
  nonvolatile state carries no absolute-time taint), a structural
  nonvolatile-state token, and a supply token
  (:mod:`repro.energy.segments`).  A hit replays the cached
  :class:`~repro.runtime.harness.ActivationRecord`, time delta, and
  post-states without stepping a single instruction.  The memo is
  LRU-bounded by entry count and can persist to a
  content-addressed on-disk store (:mod:`repro.fleet.memostore`) keyed
  under the program fingerprint and aggregate-parity scheme, so re-runs
  and resumed checkpoints start warm.

* **Quantized supply keys** (:class:`QuantEntry`).  Exact supply tokens
  make every key unique on jittered fleets (per-device harvest rates
  and RNG stream positions).  Stochastic energy-driven supplies instead
  key on the capacitor geometry plus a charge *bucket*
  (:data:`SUPPLY_BUCKETS` per capacity), excluding everything
  per-device.  The bucketed key is paired with a
  replay gate that keeps it exact: an entry is stored only for a
  reboot-free activation and records the charge level it executed at; a
  hit replays only for devices at or above that level.  A reboot-free
  activation consults the supply only through charge checks monotone in
  the starting level, so the gated replay is bit-identical to real
  execution (contract spelled out in :mod:`repro.energy.segments`,
  perturbation-tested in ``tests/test_fleet_vector.py``).

* **Cohort wave batching** (:class:`_Cohort`).  Devices in provably
  identical situations -- same tokens, same logical time -- live in one
  cohort carrying a single shared state plus either a member count
  (exact-token cohorts) or per-member charge levels (quantized
  cohorts).  Waves iterate cohorts, not devices: a homogeneous
  million-device class is *one* cohort, formed from its first device
  alone without stamping the others
  (:attr:`~repro.fleet.spec.DeviceClass.homogeneous`), and each wave
  costs one memo probe and one aggregate fold, independent of
  population.  Cohorts split when replayed charge levels straddle a
  bucket boundary and merge when states reconverge.

* **Worker pool** (``processes``).  With more than one process, ``run``
  cuts every class into one contiguous sub-range per share, sizes
  differing by at most one device; this process runs one share and
  forked workers run the rest, each with the in-process cohort engine
  over a copy of the warm memo.  Aggregates merge by integer sums;
  workers ship back the memo entries they created, and the parent
  adopts them and is the only process that touches the persistent
  store.

* **Batched miss path** (:class:`_MissBatch`).  Misses within a class
  batch run through one driver holding the shared decoded program, cost
  model, and detector plan; it drives the machine directly from a
  tokenized resume state, reuses the codec's preallocated
  struct-of-arrays NV buffers (:class:`NVCodec`), and folds each wave's
  records through one ``observe_many``-style sink.

Soundness: tokens are conservative.  An aperiodic environment or an
unencodable nonvolatile state only *loses cache hits*; it never
manufactures a false equivalence.  A supply without memo hooks has no
token at all and is a :class:`~repro.fleet.spec.FleetError` here (run
it on the serial executor), so it can never share a key.  The
aggregate is commutative integer summation, so the vectorized fold is
byte-identical to the serial executor, pooled or not (property-tested in
``tests/test_fleet_vector.py``, including bucketed hits and warm
disk-memo runs).
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, NamedTuple, Optional, Sequence

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE, CacheKey
from repro.core.passes import BuildConfig, get_config, register_config
from repro.energy.segments import (
    capture_supply_state,
    restore_supply_state,
    supply_memo_token,
    supply_quantum,
)
from repro.fleet.aggregate import FleetAggregator
from repro.fleet.device import DeviceBuilder
from repro.fleet.memostore import MEMO_SCHEMA, MemoStore
from repro.fleet.spec import DeviceSpec, FleetDevices, FleetError
from repro.runtime.engine import ENGINE_FAST, create_machine
from repro.runtime.executor import NVState
from repro.runtime.detector import BitVector
from repro.runtime.harness import ActivationRecord
from repro.telemetry.trace import span as _span


#: Number of charge buckets spanning a capacitor's capacity for
#: quantized supply keys.  Coarser (fewer) buckets collapse more devices
#: onto one key; the replay gate keeps any granularity exact.
SUPPLY_BUCKETS = 32

#: Fewest devices a pool worker is dealt.  Batches too small to give
#: every worker this many use fewer workers, down to the in-process
#: path, where fork and result shipping would cost more than they win.
POOL_MIN_SHARE = 16


# ---------------------------------------------------------------------------
# Nonvolatile-state tokens


class NVRef(NamedTuple):
    """A tokenized nonvolatile state: hashable identity + replayable copy."""

    #: hashable structural token; equal tokens => equal nonvolatile states
    token: Hashable
    #: immutable copy: (globals dict, arrays dict of tuples, bits frozenset)
    snapshot: tuple
    #: True when any cell carries input taint (absolute-time provenance)
    tainted: bool


def materialize_nv(ref: NVRef) -> NVState:
    """A fresh mutable :class:`NVState` from a tokenized snapshot."""
    globals_, arrays, bits = ref.snapshot
    return NVState(
        globals=dict(globals_),
        arrays={name: list(cells) for name, cells in arrays.items()},
        bits=BitVector(set(bits)),
    )


class NVCodec:
    """Per-program struct-of-arrays encoder for nonvolatile state.

    A compiled program fixes the nonvolatile layout: its global names,
    array names and lengths, and the universe of detector bit chains.
    The codec assigns each a slot once, then digests any state of that
    program as (packed int64 values, bit mask, sparse taint list) --
    the value digest is one ``tobytes`` over a packed ``array("q")``.
    The value buffer is preallocated once and reused across
    encodes, so the batched miss path pays no per-activation list
    churn.  Anything outside the fixed layout (huge integers, an
    unexpected chain, a shape drift) falls back to a slower but exact
    structural tuple; the fallback only costs speed, never identity.
    """

    def __init__(self, module, plan) -> None:
        self.global_names = tuple(sorted(module.globals))
        self.array_names = tuple(sorted(module.arrays))
        self._bit_index = {
            chain: i for i, chain in enumerate(sorted(plan.bit_chains))
        }
        # Reused across encodes; tobytes() copies, so reuse is safe.
        self._values: list[int] = []

    def encode(self, nv: NVState) -> NVRef:
        """Tokenize ``nv``; the snapshot copies every mutable container."""
        globals_ = nv.globals
        arrays = nv.arrays
        bits = nv.bits.bits
        snapshot = (
            dict(globals_),
            {name: tuple(cells) for name, cells in arrays.items()},
            frozenset(bits),
        )
        try:
            token, tainted = self._packed(globals_, arrays, bits)
        except (KeyError, OverflowError, TypeError, ValueError):
            token, tainted = self._structural(globals_, arrays, bits)
        return NVRef(token=token, snapshot=snapshot, tainted=tainted)

    def _packed(self, globals_, arrays, bits):
        if len(globals_) != len(self.global_names):
            raise ValueError("global layout drifted")
        if len(arrays) != len(self.array_names):
            raise ValueError("array layout drifted")
        values = self._values
        values.clear()
        taints: list[tuple[int, frozenset]] = []
        for name in self.global_names:
            cell = globals_[name]
            if cell.taint:
                taints.append((len(values), cell.taint))
            values.append(cell.value)
        for name in self.array_names:
            cells = arrays[name]
            values.append(len(cells))
            for cell in cells:
                if cell.taint:
                    taints.append((len(values), cell.taint))
                values.append(cell.value)
        mask = 0
        for chain in bits:
            mask |= 1 << self._bit_index[chain]
        # Out-of-range values raise OverflowError (structural fallback).
        # bytes objects cache their hash, so repeated dict probes on the
        # same token re-digest nothing.
        packed = array("q", values).tobytes()
        return ("v", packed, mask, tuple(taints)), bool(taints)

    @staticmethod
    def _structural(globals_, arrays, bits):
        token = (
            "s",
            tuple((name, globals_[name]) for name in sorted(globals_)),
            tuple((name, tuple(arrays[name])) for name in sorted(arrays)),
            frozenset(bits),
        )
        tainted = any(cell.taint for cell in globals_.values()) or any(
            cell.taint for cells in arrays.values() for cell in cells
        )
        return token, tainted


# ---------------------------------------------------------------------------
# The memo table


@dataclass
class MemoEntry:
    """Everything needed to replay one memoized activation (exact key)."""

    record: object  # ActivationRecord; treated as immutable once cached
    tau_delta: int
    post_nv: NVRef
    post_supply_token: Optional[Hashable]
    post_supply_capture: object


@dataclass
class QuantEntry:
    """A replayable activation under a *quantized* supply key.

    Stored only for reboot-free activations.  ``exec_level`` is the
    charge level the recorded run started from; the replay gate admits
    only devices at or above it (monotonicity makes that exact -- see
    :mod:`repro.energy.segments`).  ``exec_level`` tightens downward
    whenever a lower-level device re-executes the same key reboot-free.
    A replayed device ends at ``level - consumed`` with its RNG streams
    untouched (a reboot-free activation never draws them).
    """

    record: object  # ActivationRecord; reboot-free, treated as immutable
    tau_delta: int
    post_nv: NVRef
    consumed: int
    exec_level: int


@dataclass
class MemoStats:
    """Hit/miss accounting, in device-activations."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: entries adopted from the persistent store (cold size of warm runs)
    disk_loads: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self, entries: int = 0) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_loads": self.disk_loads,
            "hit_rate": self.hit_rate,
            "entries": entries,
        }


class ActivationMemo:
    """Bounded LRU activation cache shared across batches and chunks.

    Capped by entry count; eviction drops the least-recently-used
    entry.  Entries still referenced by in-flight cohorts stay alive
    through those references, so eviction can only cause future misses,
    never wrong replays -- an evicted key simply re-executes on next
    encounter and the aggregate bytes are unchanged (tested).
    """

    def __init__(self, max_entries: int = 65_536) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = MemoStats()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def items(self):
        return self._entries.items()

    def get(self, key: Hashable):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


# ---------------------------------------------------------------------------
# The batched miss driver


class _MissBatch:
    """Amortized miss execution for one class batch.

    Holds the batch's shared decoded program, cost model, detector
    plan, and NV codec once; every miss drives the machine directly
    from a tokenized resume state, and post-state tokenization reuses
    the codec's preallocated buffers.
    """

    __slots__ = ("compiled", "costs", "plan", "engine", "codec")

    def __init__(self, compiled, costs, plan, engine: str, codec: NVCodec):
        self.compiled = compiled
        self.costs = costs
        self.plan = plan
        self.engine = engine
        self.codec = codec

    def run(self, env, supply, nv_ref: NVRef, tau: int, index: int):
        """One real activation; returns (record, tau_delta, post_nv)."""
        machine = create_machine(
            self.engine,
            self.compiled,
            env,
            supply,
            costs=self.costs,
            plan=self.plan,
            nv=materialize_nv(nv_ref),
            start_tau=tau,
        )
        record = ActivationRecord.from_run(index, machine.run())
        return record, machine.tau - tau, self.codec.encode(machine.nv)


# ---------------------------------------------------------------------------
# Cohorts

#: Sentinel: a uni cohort whose supply has never run (spawn, don't restore).
_FRESH = object()


class _Cohort:
    """A set of devices in a provably identical situation.

    All members share logical time, activation index, nonvolatile
    state, and supply equivalence; liveness (budget, activation cap) is
    all-or-nothing because those limits are uniform within the cohort,
    and a stuck activation drops the whole cohort.  Two kinds:

    * ``uni`` -- exact supply-token equivalence (deterministic
      supplies): one shared capture; members are a count, and one
      representative device (``spec``) executes for all of them.
    * ``quant`` -- bucketed equivalence (stochastic energy-driven
      supplies): members (``positions`` in the class batch) share the
      charge *bucket* but keep individual levels (a list) and
      lazily-materialized supply objects.
    """

    __slots__ = (
        "kind",
        "tau",
        "index",
        "budget",
        "cap",
        "env_key",
        "env",
        "period",
        "nv_ref",
        # uni
        "members",
        "spec",
        "stoken",
        "capture",
        # quant
        "positions",
        "static",
        "bucket_size",
        "bucket",
        "levels",
        "supplies",
    )

    def __init__(self, kind, budget, cap, env_key, env, period, nv_ref):
        self.kind = kind
        self.tau = 0
        self.index = 0
        self.budget = budget
        self.cap = cap
        self.env_key = env_key
        self.env = env
        self.period = period
        self.nv_ref = nv_ref
        self.members = 0
        self.spec = None
        self.stoken = None
        self.capture = _FRESH
        self.positions = None
        self.static = None
        self.bucket_size = 0
        self.bucket = 0
        self.levels = None
        self.supplies = None

    def alive(self) -> bool:
        return self.tau < self.budget and self.index < self.cap

    def time_token(self):
        """Period-quantized start time, absolute when taint forbids it."""
        if self.period is None or self.nv_ref.tainted:
            return self.tau
        return self.tau % self.period

    def successor(self, tau, index, nv_ref, bucket) -> "_Cohort":
        """An empty quant cohort of this one's class, at ``bucket``."""
        nxt = _Cohort(
            "quant",
            self.budget,
            self.cap,
            self.env_key,
            self.env,
            self.period,
            nv_ref,
        )
        nxt.tau = tau
        nxt.index = index
        nxt.static = self.static
        nxt.bucket_size = self.bucket_size
        nxt.bucket = bucket
        nxt.positions = []
        nxt.levels = []
        nxt.supplies = []
        return nxt


# ---------------------------------------------------------------------------
# The executor


class VectorFleetExecutor:
    """Batch same-class devices through one shared decode + memo table.

    Drop-in peer of the serial executor: ``run`` takes device specs and
    returns a :class:`FleetAggregator` whose canonical JSON is
    byte-identical to serial's.  The memo table persists across ``run``
    calls, so checkpointed chunked runs keep their warm cache; with
    ``memo_dir`` it also persists across processes through a
    :class:`~repro.fleet.memostore.MemoStore`.

    ``processes`` > 1 runs each batch on a fork pool of that many
    workers (fewer when the batch is too small for every worker to get
    :data:`POOL_MIN_SHARE` devices); ``None`` or 1 runs in-process.
    ``used`` records which path ran the last batch, so the fleet report
    can say what actually executed.
    """

    name = "vector"

    def __init__(
        self,
        engine: str = ENGINE_FAST,
        memo: Optional[ActivationMemo] = None,
        max_entries: int = 65_536,
        memo_dir: Optional[Path | str] = None,
        processes: Optional[int] = None,
    ) -> None:
        if processes is not None and processes <= 0:
            raise ValueError("processes must be positive (or None)")
        self.engine = engine
        self.processes = processes
        #: path that ran the last batch: "vector" or "vector-pool"
        self.used = "vector"
        self.memo = memo if memo is not None else ActivationMemo(max_entries)
        self.store = MemoStore(memo_dir) if memo_dir is not None else None
        self.devices = DeviceBuilder()
        self._shard_tokens: dict = {}
        self._dirty: set = set()
        self._codecs: dict = {}
        self._initials: dict = {}

    # -- shared-resource caches ---------------------------------------------

    def memo_stats(self) -> dict:
        """Hit/miss accounting for reports and benchmarks."""
        return self.memo.stats.to_dict(entries=len(self.memo))

    def _codec(self, spec: DeviceSpec, compiled, plan):
        key = (spec.app, spec.config)
        codec = self._codecs.get(key)
        if codec is None:
            codec = self._codecs[key] = NVCodec(compiled.module, plan)
            self._initials[key] = codec.encode(
                NVState.initial(compiled.module)
            )
        return codec, self._initials[key]

    @staticmethod
    def _quantized(sspec) -> bool:
        """Whether a supply spec's devices group by charge bucket.

        The alternative, exact-token grouping, needs spawn-equivalence
        across per-device seeds, which is provable for our own spec
        kinds: continuous and schedule supplies are seed-invariant, and
        a harvest supply with degenerate jitter and boot band excludes
        every RNG from its token.  Stochastic harvest supplies quantize.
        """
        if sspec.kind != "harvest":
            return False
        lo, hi = sspec.boot_fraction
        return not (sspec.harvest_spread == 1.0 and hi <= lo)

    # -- persistent shards ---------------------------------------------------

    def _load_shard(self, prog_key, meta) -> None:
        if self.store is None or prog_key in self._shard_tokens:
            return
        app, config, engine = prog_key
        token = repr(
            (
                MEMO_SCHEMA,
                _parity_scheme(),
                app,
                config,
                engine,
                CacheKey.make(meta.source, config),
                repr(meta.cost_model()),
            )
        )
        self._shard_tokens[prog_key] = token
        loaded = 0
        for key, entry in self.store.load(token).items():
            if key not in self.memo:
                self.memo.put(key, entry)
                loaded += 1
        self.memo.stats.disk_loads += loaded

    def _save_shards(self) -> None:
        if self.store is None:
            return
        for prog_key in sorted(self._dirty):
            entries = {
                key: entry
                for key, entry in self.memo.items()
                if key[0] == prog_key
            }
            if self.store.save(self._shard_tokens[prog_key], entries):
                self._dirty.discard(prog_key)

    # -- execution -----------------------------------------------------------

    def run(self, devices: Sequence[DeviceSpec]) -> FleetAggregator:
        workers = min(self.processes or 1, len(devices) // POOL_MIN_SHARE)
        with _span("fleet.vector", "fleet", devices=len(devices)):
            if workers > 1:
                self.used = "vector-pool"
                aggregator = self._run_pool(devices, workers)
            else:
                self.used = "vector"
                aggregator = self._run_local(devices)
            self._save_shards()
            return aggregator

    def _run_local(self, devices: Sequence[DeviceSpec]) -> FleetAggregator:
        aggregator = FleetAggregator()
        for batch in _class_batches(devices):
            self._run_batch(batch, aggregator)
        return aggregator

    def _run_pool(
        self, devices: Sequence[DeviceSpec], workers: int
    ) -> FleetAggregator:
        """Deal ``workers`` shares (see :func:`_deal`); merge the results.

        Every memo store shard the batch needs is loaded first, so
        forked workers inherit the warm memo and never open the store
        themselves.  This process runs the first share, so its own
        entries need no shipping, while ``workers - 1`` forked workers
        run one share each.  Every share starts from the memo as it is
        now: the pool forks before this process runs its share, and a
        barrier keeps a worker from taking a second share after
        finishing its first.
        """
        batches = _class_batches(devices)
        programs = {(batch[0].app, batch[0].config) for batch in batches}
        for app, config in sorted(programs):
            self._load_shard((app, config, self.engine), BENCHMARKS[app])
        configs = tuple(
            get_config(name) for name in sorted({c for _, c in programs})
        )
        worker = VectorFleetExecutor(engine=self.engine, memo=self.memo)
        shares = _deal(batches, workers)
        ctx = _pool_context()
        with ctx.Pool(
            processes=workers - 1,
            initializer=_init_worker,
            initargs=(configs, worker, ctx.Barrier(workers - 1)),
        ) as pool:
            pending = pool.map_async(_run_share, shares[1:])
            aggregator = self._run_local(shares[0])
            for payload, created, stats in pending.get():
                aggregator.merge(FleetAggregator.from_dict(payload))
                self._adopt(_loads_untracked(created), stats)
        return aggregator

    def _adopt(self, created: list, stats: MemoStats) -> None:
        """Fold one worker's new memo entries and accounting into ours."""
        for key, entry in created:
            held = self.memo.get(key)
            if held is None:
                self.memo.put(key, entry)
            elif isinstance(held, QuantEntry) and (
                entry.exec_level < held.exec_level
            ):
                # Two shares ran this key reboot-free; keep the wider
                # replay gate, as in-process tightening would.
                held.exec_level = entry.exec_level
            else:
                continue
            self._dirty.add(key[0])
        self.memo.stats.hits += stats.hits
        self.memo.stats.misses += stats.misses
        self.memo.stats.evictions += stats.evictions

    def _run_batch(
        self, specs: Sequence[DeviceSpec], aggregator: FleetAggregator
    ) -> None:
        first = specs[0]
        aggregator.add_devices(first, len(specs))
        meta = BENCHMARKS[first.app]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, first.config)
        costs = meta.cost_model()
        plan = compiled.detector_plan()
        codec, init_ref = self._codec(first, compiled, plan)
        prog_key = (first.app, first.config, self.engine)
        self._load_shard(prog_key, meta)
        driver = _MissBatch(compiled, costs, plan, self.engine, codec)

        cohorts = self._initial_cohorts(specs, first, init_ref)
        sink: dict = {}
        while True:
            live = [c for c in cohorts if c.alive()]
            if not live:
                break
            groups: dict = {}
            next_cohorts: list[_Cohort] = []
            for c in live:
                if c.kind == "uni":
                    gkey = (
                        "u",
                        c.env_key,
                        c.budget,
                        c.cap,
                        c.index,
                        c.tau,
                        c.nv_ref.token,
                        c.stoken,
                    )
                else:
                    gkey = (
                        "q",
                        c.env_key,
                        c.budget,
                        c.cap,
                        c.index,
                        c.tau,
                        c.nv_ref.token,
                        c.static,
                        c.bucket_size,
                        c.bucket,
                    )
                groups.setdefault(gkey, []).append(c)
            for gkey, cs in groups.items():
                if gkey[0] == "u":
                    next_cohorts.extend(
                        self._wave_uni(cs, prog_key, driver, sink)
                    )
                else:
                    next_cohorts.extend(
                        self._wave_quant(cs, prog_key, specs, driver, sink)
                    )
            self._flush_sink(sink, first, aggregator)
            cohorts = next_cohorts

    # -- cohort formation ----------------------------------------------------

    def _initial_cohorts(
        self, specs: Sequence[DeviceSpec], first: DeviceSpec, init_ref: NVRef
    ) -> list[_Cohort]:
        """Group one class batch into cohorts of identical situations.

        A homogeneous class run is one cohort by construction, formed
        from its first device without stamping the rest; any other batch
        is grouped device by device, since each device's own draws
        (rate, phase, environment seed) decide its cohort.
        """
        if isinstance(specs, FleetDevices) and specs.homogeneous:
            ckey, full = self._cohort_key(first)
            cohort = self._new_cohort(first, ckey, full, init_ref)
            n = len(specs)
            if cohort.kind == "quant":
                cohort.positions = range(n)
                cohort.levels = [full] * n
                cohort.supplies = [None] * n
            else:
                cohort.members = n
            return [cohort]
        cohorts: dict = {}
        for pos, spec in enumerate(specs):
            ckey, full = self._cohort_key(spec)
            cohort = cohorts.get(ckey)
            if cohort is None:
                cohort = cohorts[ckey] = self._new_cohort(
                    spec, ckey, full, init_ref
                )
            if cohort.kind == "quant":
                cohort.positions.append(pos)
                cohort.levels.append(full)
                cohort.supplies.append(None)
            else:
                cohort.members += 1
        return list(cohorts.values())

    def _cohort_key(self, spec: DeviceSpec):
        """``spec``'s initial cohort key, and its full charge level when
        its supply quantizes (``None`` otherwise)."""
        env_key = self.devices.env(spec).key
        if self._quantized(spec.supply):
            static, full = _memo_token(
                supply_quantum(self.devices.prototype(spec)), spec
            )
            limits = (spec.budget_cycles, spec.max_activations)
            return ("q", env_key, *limits, static), full
        return (
            ("u", env_key, spec.budget_cycles, spec.max_activations, spec.supply),
            None,
        )

    def _new_cohort(self, spec: DeviceSpec, ckey, full, init_ref) -> _Cohort:
        """An empty fresh cohort for devices in ``spec``'s situation."""
        env_key, env, period = self.devices.env(spec)
        cohort = _Cohort(
            "quant" if ckey[0] == "q" else "uni",
            spec.budget_cycles,
            spec.max_activations,
            env_key,
            env,
            period,
            init_ref,
        )
        if cohort.kind == "quant":
            # A fresh supply is fully charged: ``full`` is every
            # member's starting level and the span the buckets divide.
            cohort.static = ckey[-1]
            cohort.bucket_size = max(1, full // SUPPLY_BUCKETS)
            cohort.bucket = full // cohort.bucket_size
            cohort.positions = []
            cohort.levels = []
            cohort.supplies = []
        else:
            # Spawn-equivalence: one member's token is everyone's.
            cohort.spec = spec
            cohort.stoken = _memo_token(
                supply_memo_token(self.devices.supply(spec)), spec
            )
        return cohort

    # -- wave processing -----------------------------------------------------

    def _wave_uni(self, cs, prog_key, driver, sink):
        rep = cs[0]
        members = sum(c.members for c in cs)
        mkey = (prog_key, rep.env_key, rep.time_token(), rep.nv_ref.token, rep.stoken)
        entry = self.memo.get(mkey)
        if entry is None:
            spec = rep.spec
            supply = self.devices.supply(spec)
            if rep.capture is not _FRESH:
                restore_supply_state(supply, rep.capture)
            record, tau_delta, post_nv = driver.run(
                rep.env, supply, rep.nv_ref, rep.tau, rep.index
            )
            entry = MemoEntry(
                record=record,
                tau_delta=tau_delta,
                post_nv=post_nv,
                post_supply_token=_memo_token(supply_memo_token(supply), spec),
                post_supply_capture=capture_supply_state(supply),
            )
            self.memo.put(mkey, entry)
            self._dirty.add(prog_key)
            self.memo.stats.misses += 1
            self.memo.stats.hits += members - 1
        else:
            self.memo.stats.hits += members
        _sink(sink, entry.record, members)
        if not entry.record.completed:
            return []  # every member is stuck; records already folded
        rep.members = members
        rep.tau += entry.tau_delta
        rep.index += 1
        rep.nv_ref = entry.post_nv
        rep.stoken = entry.post_supply_token
        rep.capture = entry.post_supply_capture
        return [rep]

    def _wave_quant(self, cs, prog_key, specs, driver, sink):
        rep = cs[0]
        bsize = rep.bucket_size
        qkey = (
            prog_key,
            rep.env_key,
            rep.time_token(),
            rep.nv_ref.token,
            ("q", rep.static, bsize, rep.bucket),
        )
        entry = self.memo.get(qkey)
        if entry is not None and all(
            min(c.levels) >= entry.exec_level for c in cs
        ):
            return self._quant_replay_all(cs, entry, sink)
        # Mixed wave: walk members in deterministic order; the first
        # reboot-free execution publishes (or tightens) the bucket entry
        # and later members in the same wave ride it.
        new_index = rep.index + 1
        regroup: dict = {}
        order: list[_Cohort] = []
        for c in cs:
            levels = c.levels
            supplies = c.supplies
            for i, pos in enumerate(c.positions):
                level = levels[i]
                if entry is not None and level >= entry.exec_level:
                    self.memo.stats.hits += 1
                    _sink(sink, entry.record, 1)
                    if entry.record.completed:
                        self._requeue(
                            regroup,
                            order,
                            c,
                            new_index,
                            rep.tau + entry.tau_delta,
                            entry.post_nv,
                            level - entry.consumed,
                            pos,
                            supplies[i],
                        )
                    continue
                supply = supplies[i]
                if supply is None:
                    supply = self.devices.supply(specs[pos])
                # Bucketed replays track levels outside the supply
                # object; re-sync before real execution.
                supply.capacitor.level = level
                record, tau_delta, post_nv = driver.run(
                    c.env, supply, c.nv_ref, rep.tau, rep.index
                )
                self.memo.stats.misses += 1
                _sink(sink, record, 1)
                new_level = supply.capacitor.level
                if record.reboots == 0 and record.cycles_off == 0:
                    if entry is None:
                        entry = QuantEntry(
                            record=record,
                            tau_delta=tau_delta,
                            post_nv=post_nv,
                            consumed=level - new_level,
                            exec_level=level,
                        )
                        self.memo.put(qkey, entry)
                        self._dirty.add(prog_key)
                    elif level < entry.exec_level:
                        # Same key, reboot-free from a lower level: the
                        # identical path re-ran; widen the gate.
                        entry.exec_level = level
                        self._dirty.add(prog_key)
                if record.completed:
                    self._requeue(
                        regroup,
                        order,
                        c,
                        new_index,
                        rep.tau + tau_delta,
                        post_nv,
                        new_level,
                        pos,
                        supply,
                    )
        return order

    def _quant_replay_all(self, cs, entry: QuantEntry, sink) -> list:
        """Whole-group bucketed replay: drain every level, split by bucket."""
        members = sum(len(c.positions) for c in cs)
        self.memo.stats.hits += members
        _sink(sink, entry.record, members)
        if not entry.record.completed:
            return []
        consumed = entry.consumed
        by_bucket: dict = {}
        order: list[_Cohort] = []
        for c in cs:
            tau = c.tau + entry.tau_delta
            levels = [lv - consumed for lv in c.levels]
            groups: dict[int, list[int]] = {}
            for j, level in enumerate(levels):
                groups.setdefault(level // c.bucket_size, []).append(j)
            for bucket in sorted(groups):
                target = by_bucket.get(bucket)
                if target is None:
                    target = by_bucket[bucket] = c.successor(
                        tau, c.index + 1, entry.post_nv, bucket
                    )
                    order.append(target)
                sel = groups[bucket]
                target.positions.extend(c.positions[j] for j in sel)
                target.levels.extend(levels[j] for j in sel)
                target.supplies.extend(c.supplies[j] for j in sel)
        return order

    @staticmethod
    def _requeue(
        regroup, order, src: _Cohort, index, tau, nv_ref, level, pos, supply
    ) -> None:
        """File one quant member into its post-activation cohort."""
        bucket = level // src.bucket_size
        key = (tau, nv_ref.token, bucket)
        cohort = regroup.get(key)
        if cohort is None:
            cohort = regroup[key] = src.successor(tau, index, nv_ref, bucket)
            order.append(cohort)
        cohort.positions.append(pos)
        cohort.levels.append(level)
        cohort.supplies.append(supply)

    @staticmethod
    def _flush_sink(sink: dict, spec: DeviceSpec, aggregator) -> None:
        """One ``observe_many`` per distinct record content per wave."""
        for record, count in sink.values():
            aggregator.observe_many(spec, record, count)
        sink.clear()


def _memo_token(token, spec: DeviceSpec):
    """``token``, or a :class:`FleetError` when it is ``None``.

    A supply without memo hooks has no token; keying it as ``None``
    would let unrelated opaque supplies share memo entries.
    """
    if token is None:
        raise FleetError(
            f"device '{spec.device_id}': supply '{spec.supply.name}' has "
            "no memo token, so the vector executor cannot key it; run it "
            "on the serial executor"
        )
    return token


def _sink(sink: dict, record, count: int) -> None:
    key = (
        record.index,
        record.completed,
        record.violations,
        record.cycles_on,
        record.cycles_off,
        record.reboots,
        record.fresh_violations,
        record.consistent_violations,
        record.detector_queries,
    )
    slot = sink.get(key)
    if slot is None:
        sink[key] = [record, count]
    else:
        slot[1] += count


def _class_batches(devices: Sequence[DeviceSpec]) -> list[Sequence[DeviceSpec]]:
    """``devices`` cut into per-class batches.

    A lazy :class:`FleetDevices` view yields one batch per run; a plain
    device list is grouped by class name, in first-seen order.
    """
    if isinstance(devices, FleetDevices):
        return devices.class_runs()
    batches: dict[str, list[DeviceSpec]] = {}
    for spec in devices:
        batches.setdefault(spec.class_name, []).append(spec)
    return list(batches.values())


def _deal(
    batches: list[Sequence[DeviceSpec]], workers: int
) -> list[Sequence[DeviceSpec]]:
    """Cut every class batch into ``workers`` contiguous shares.

    A class's shares differ in size by at most one device.  The shares
    that take a class's remainder rotate from class to class, so share
    totals also differ by at most one.  Shares of lazy views stay lazy
    (one run per class); shares of device lists are lists.
    """
    pieces: list[list[Sequence[DeviceSpec]]] = [[] for _ in range(workers)]
    turn = 0
    for batch in batches:
        base, extra = divmod(len(batch), workers)
        lo = 0
        for j in range(workers):
            hi = lo + base + (j < extra)
            if hi > lo:
                pieces[(turn + j) % workers].append(batch[lo:hi])
            lo = hi
        turn = (turn + extra) % workers
    shares: list[Sequence[DeviceSpec]] = []
    for share in pieces:
        if share and isinstance(share[0], FleetDevices):
            runs = [run for view in share for run in view.runs]
            shares.append(FleetDevices(share[0].fleet, runs))
        else:
            shares.append([spec for part in share for spec in part])
    return shares


#: The executor a pool worker runs its share on, and the barrier every
#: worker passes once it holds a share (both set by ``_init_worker``).
_WORKER: Optional[VectorFleetExecutor] = None
_BARRIER = None


def _pool_context():
    """Fork, so workers inherit the warm compile cache and memo; where
    fork is unavailable, workers start cold (still correct)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _init_worker(
    configs: tuple[BuildConfig, ...], executor: VectorFleetExecutor, barrier
) -> None:
    """Pool initializer: register the batch's build configs (spawned
    workers resolve them by name too) and install the worker state."""
    global _WORKER, _BARRIER
    for config in configs:
        register_config(config, replace=True)
    _WORKER = executor
    _BARRIER = barrier


#: What ``pickle.dumps`` raises for objects it cannot serialize.
_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


def _picklable(item) -> bool:
    try:
        pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
    except _UNPICKLABLE:
        return False
    return True


def _loads_untracked(blob: bytes):
    """``pickle.loads`` with cyclic GC paused: every object a worker's
    entries unpickle into survives, so collections meanwhile free
    nothing and roughly double the load time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(blob)
    finally:
        if enabled:
            gc.enable()


def _run_share(devices: Sequence[DeviceSpec]):
    """Worker entry point: run one share in-process.

    Returns the aggregate as primitives, the pickled (key, entry) pairs
    this share added to the memo, and the share's memo stats.  Entries
    are pickled as one list, so the objects they share are written
    once; an entry that will not pickle is dropped, which only costs
    hits.
    """
    executor = _WORKER
    assert executor is not None, "pool worker was not initialized"
    if _BARRIER is not None:
        # There are as many shares as workers: once every worker holds
        # one, none is left for a worker whose memo has moved on.
        _BARRIER.wait()
    memo = executor.memo
    inherited = set(memo._entries)
    memo.stats = MemoStats()
    aggregate = executor._run_local(devices)
    created = [item for item in memo.items() if item[0] not in inherited]
    try:
        blob = pickle.dumps(created, pickle.HIGHEST_PROTOCOL)
    except _UNPICKLABLE:
        blob = pickle.dumps(
            [item for item in created if _picklable(item)],
            pickle.HIGHEST_PROTOCOL,
        )
    return aggregate.to_dict(), blob, memo.stats


def _parity_scheme() -> str:
    from repro.fleet.engine import AGGREGATE_PARITY_SCHEME

    return AGGREGATE_PARITY_SCHEME
