"""Vectorized fleet executor: parity, memo-key soundness, hit rates.

The vector executor's whole value proposition is "same bytes, fewer
instructions": these tests pin the byte-identity against the serial
executor, in-process and on the worker pool (including under
hypothesis-generated fleets, with quantized supply keys at aggressive
bucket sizes and warm disk-backed memo runs), prove the memo key cannot
produce false hits (perturbing one nonvolatile bit, one stored value,
one taint, or one environment segment changes the key; capacitor
geometry separates quantized keys; a supply with no token is refused),
and check that the intended hits actually happen (a homogeneous
deterministic fleet replays almost everything; a jittered fleet scores
nonzero hits via quantization).
"""

from __future__ import annotations

import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.energy.segments import supply_memo_token, supply_quantum
from repro.eval.campaign import SupplySpec
from repro.fleet import vector as vector_module
from repro.fleet import (
    ActivationMemo,
    DeviceClass,
    FleetAggregator,
    FleetCheckpoint,
    FleetError,
    FleetSpec,
    MemoStore,
    NVCodec,
    VectorFleetExecutor,
    aggregate_fingerprint,
    checkpoint_fingerprint,
    run_fleet,
    run_shard,
)
from repro.fleet.memostore import MEMO_SCHEMA
from repro.ir.instructions import InstrId
from repro.runtime.executor import NVState
from repro.runtime.supply import (
    ContinuousPower,
    EnergyDrivenSupply,
    FailurePoint,
    ScheduledFailures,
)
from repro.runtime.values import InputEvent, TVal
from repro.sensors.environment import Environment, constant, steps
from tests.strategies import fleet_specs


def uniform_spec(count: int = 40, **overrides) -> FleetSpec:
    """A homogeneous fleet whose devices are provably equivalent.

    Deterministic supply randomness (no harvest spread, degenerate boot
    band) plus no per-device jitter means every device repeats device
    zero's activations exactly -- the memoizer's best case.
    """
    defaults = dict(
        classes=(
            DeviceClass(
                name="tire",
                app="tire",
                config="ocelot",
                count=count,
                supply=SupplySpec(
                    name="rf",
                    harvest_rate=300,
                    harvest_spread=1.0,
                    boot_fraction=(1.0, 1.0),
                ),
            ),
        ),
        fleet_seed=11,
        budget_cycles=60_000,
        name="uniform",
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def mixed_spec(**overrides) -> FleetSpec:
    """A small heterogeneous fleet with real stochastic supplies."""
    defaults = dict(
        classes=(
            DeviceClass(
                name="tire",
                app="tire",
                config="ocelot",
                count=5,
                supply=SupplySpec(name="rf", harvest_rate=300),
            ),
            DeviceClass(
                name="gh",
                app="greenhouse",
                config="jit",
                count=4,
                supply=SupplySpec(
                    name="weak", harvest_rate=220, seed_offset=3
                ),
                phase_jitter=4_000,
            ),
        ),
        fleet_seed=5,
        budget_cycles=30_000,
        name="mixed",
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def jittered_spec(count: int = 12, **overrides) -> FleetSpec:
    """A stochastic fleet with per-device harvest jitter, one shared env.

    Exact supply tokens are unique per device here (per-device rates and
    RNG streams); only quantized keys can score hits.
    """
    defaults = dict(
        classes=(
            DeviceClass(
                name="tire-jittered",
                app="tire",
                config="ocelot",
                count=count,
                supply=SupplySpec(name="rf", harvest_rate=300),
                harvest_jitter=0.5,
            ),
        ),
        fleet_seed=29,
        budget_cycles=30_000,
        name="jittered",
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def _harvest_supply(seed: int = 0, rate: int = 300):
    """A spawned stochastic :class:`EnergyDrivenSupply` on stream ``seed``."""
    return SupplySpec(name="rf", harvest_rate=rate).build(0).spawn(seed)


def _tire_codec() -> tuple[NVCodec, NVState]:
    meta = BENCHMARKS["tire"]
    compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
    plan = compiled.detector_plan()
    return NVCodec(compiled.module, plan), NVState.initial(compiled.module)


class TestVectorParity:
    def test_matches_serial_on_mixed_fleet(self):
        spec = mixed_spec()
        serial = run_fleet(spec, "serial")
        vector = run_fleet(spec, "vector")
        assert aggregate_fingerprint(vector) == aggregate_fingerprint(serial)
        assert vector.executor == vector.executor_used == "vector"
        assert serial.memo is None
        assert vector.memo is not None and vector.memo["misses"] > 0

    def test_matches_serial_on_uniform_fleet(self):
        spec = uniform_spec(count=12)
        serial = run_fleet(spec, "serial")
        vector = run_fleet(spec, "vector")
        assert aggregate_fingerprint(vector) == aggregate_fingerprint(serial)

    @given(spec=fleet_specs(), processes=st.sampled_from([1, 2]))
    @settings(max_examples=10, deadline=None)
    def test_vector_matches_serial_property(self, spec, processes):
        devices = spec.expand()
        serial = run_shard(devices)
        executor = VectorFleetExecutor(processes=processes)
        # Generated fleets are small; let every share be one device so
        # processes=2 really runs the pool.
        with mock.patch.object(vector_module, "POOL_MIN_SHARE", 1):
            vector = executor.run(devices)
        pooled = processes > 1 and len(devices) > 1
        assert executor.used == ("vector-pool" if pooled else "vector")
        assert vector.to_json() == serial.to_json()

    def test_pool_hit_counts_are_deterministic_with_more_workers_than_cores(
        self,
    ):
        # Shares this small finish in milliseconds; without the start
        # barrier a worker could take a second share on top of its own
        # memo, and the hit counts would vary from run to run.
        spec = uniform_spec(
            count=8 * vector_module.POOL_MIN_SHARE, budget_cycles=5_000
        )
        in_process = run_fleet(spec, "vector")
        runs = [run_fleet(spec, "vector", processes=8) for _ in range(4)]
        assert {run.executor_used for run in runs} == {"vector-pool"}
        assert all(run.memo == runs[0].memo for run in runs)
        for run in runs:
            assert run.aggregate.to_json() == in_process.aggregate.to_json()

    @pytest.mark.parametrize(
        "spec, hook",
        [
            (
                lambda: FleetSpec(
                    classes=(
                        DeviceClass(
                            name="wall",
                            app="tire",
                            config="ocelot",
                            count=3,
                            supply=SupplySpec.continuous(),
                        ),
                    ),
                    budget_cycles=5_000,
                ),
                (ContinuousPower, "memo_token"),
            ),
            (lambda: jittered_spec(count=3), (EnergyDrivenSupply, "memo_quantum")),
        ],
        ids=["exact-token", "quantum"],
    )
    def test_supply_without_memo_token_is_an_error(self, spec, hook):
        # A tokenless supply keyed as None could share memo entries with
        # unrelated supplies; the vector executor refuses it, while the
        # serial oracle, which keys nothing, still runs it.
        spec = spec()
        with mock.patch.object(*hook, lambda self: None):
            with pytest.raises(FleetError, match="no memo token"):
                run_fleet(spec, "vector")
            assert run_fleet(spec, "serial").devices == 3

    def test_memo_survives_chunking(self):
        # One executor over many chunks must equal one-shot execution:
        # entries learned in chunk k legally replay in chunk k+1.
        spec = uniform_spec(count=20)
        devices = spec.expand()
        one_shot = VectorFleetExecutor().run(devices)
        chunked_executor = VectorFleetExecutor()
        merged = FleetAggregator()
        for lo in range(0, len(devices), 6):
            merged.merge(chunked_executor.run(devices[lo : lo + 6]))
        assert merged.to_json() == one_shot.to_json()
        assert chunked_executor.memo.stats.hits > 0


class TestMemoKeySoundness:
    def test_flipping_one_nv_bit_changes_token(self):
        codec, nv = _tire_codec()
        baseline = codec.encode(nv).token
        chains = sorted(codec._bit_index)
        assert chains, "tire/ocelot should have detector bit chains"
        nv.bits.set(chains[0])
        assert codec.encode(nv).token != baseline

    def test_each_bit_is_distinct(self):
        codec, nv = _tire_codec()
        chains = sorted(codec._bit_index)
        tokens = set()
        for chain in chains:
            fresh = NVState.initial(
                GLOBAL_CACHE.get_or_compile(
                    BENCHMARKS["tire"].source, "ocelot"
                ).module
            )
            fresh.bits.set(chain)
            tokens.add(codec.encode(fresh).token)
        assert len(tokens) == len(chains)

    @given(delta=st.integers(-1000, 1000).filter(lambda d: d != 0))
    @settings(max_examples=25, deadline=None)
    def test_perturbing_one_value_changes_token(self, delta):
        codec, nv = _tire_codec()
        baseline = codec.encode(nv).token
        name = sorted(nv.globals)[0]
        cell = nv.globals[name]
        nv.globals[name] = TVal(cell.value + delta, cell.taint)
        assert codec.encode(nv).token != baseline

    def test_tainting_a_value_changes_token(self):
        codec, nv = _tire_codec()
        ref = codec.encode(nv)
        assert ref.tainted is False
        name = sorted(nv.globals)[0]
        cell = nv.globals[name]
        event = InputEvent(uid=InstrId("main", 1), channel="pressure", tau=7)
        nv.globals[name] = TVal(cell.value, frozenset({event}))
        tainted = codec.encode(nv)
        assert tainted.token != ref.token
        assert tainted.tainted is True

    def test_changing_one_environment_segment_changes_token(self):
        env = Environment(
            {"pressure": steps([10, 20, 30], dwell=100), "temp": constant(4)}
        )
        period = env.period()
        assert period == 300
        # Same segment => same token; a different segment => different
        # token; one full period later => provably the same world again.
        assert env.segment_token(50) == env.segment_token(50)
        assert env.segment_token(50) != env.segment_token(150)
        assert env.segment_token(50) == env.segment_token(50 + period)

    def test_aperiodic_environment_never_collapses_times(self):
        from repro.sensors.environment import random_walk

        env = Environment({"walk": random_walk(0, 2, seed=9)})
        assert env.period() is None
        assert env.segment_token(123) == 123
        assert env.segment_token(123) != env.segment_token(456)

    def test_structural_fallback_agrees_on_identity(self):
        # Values beyond int64 force the structural token path; identical
        # states must still collide and perturbed ones must not.
        codec, nv = _tire_codec()
        name = sorted(nv.globals)[0]
        nv.globals[name] = TVal(2**80, frozenset())
        one = codec.encode(nv).token
        two = codec.encode(nv).token
        assert one == two
        nv.globals[name] = TVal(2**80 + 1, frozenset())
        assert codec.encode(nv).token != one


class TestHitRates:
    def test_homogeneous_fleet_replays_almost_everything(self):
        executor = VectorFleetExecutor()
        result = run_fleet(uniform_spec(count=50), executor=executor)
        stats = executor.memo.stats
        assert stats.hits + stats.misses > 0
        # 49 of 50 equivalent devices ride the first device's entries.
        assert stats.hit_rate >= 0.9
        assert result.memo["hit_rate"] >= 0.9

    def test_jittered_fleet_still_correct_with_low_hit_rate(self):
        spec = FleetSpec(
            classes=(
                DeviceClass(
                    name="tire",
                    app="tire",
                    config="ocelot",
                    count=6,
                    supply=SupplySpec(name="rf", harvest_rate=300),
                ),
            ),
            fleet_seed=11,
            budget_cycles=30_000,
            name="jittered",
        )
        serial = run_fleet(spec, "serial")
        vector = run_fleet(spec, "vector")
        assert aggregate_fingerprint(vector) == aggregate_fingerprint(serial)


class TestQuantizedSupplyTokens:
    """Soundness of bucketed supply keys (the no-false-hit contract)."""

    def test_quantized_token_ignores_per_device_randomness(self):
        # Two devices with different seeds and harvest rates: exact
        # tokens must differ (RNG streams diverge), quanta at the same
        # charge level must agree -- that is the whole point.
        one = _harvest_supply(seed=1, rate=200)
        two = _harvest_supply(seed=2, rate=400)
        assert supply_memo_token(one) != supply_memo_token(two)
        assert supply_quantum(one) == supply_quantum(two)

    def test_quantized_token_tracks_geometry(self):
        # The same charge level on different capacitor geometry must
        # key differently: the static token carries the geometry.
        small = SupplySpec(name="a", capacity=2000, low_threshold=400)
        big = SupplySpec(name="b", capacity=4000, low_threshold=800)
        one = small.build(0).spawn(1)
        two = big.build(0).spawn(1)
        one.capacitor.level = two.capacitor.level = 1500
        static_one, level_one = supply_quantum(one)
        static_two, level_two = supply_quantum(two)
        assert level_one == level_two == 1500
        assert static_one != static_two

    def test_quantized_token_conservative_fallbacks(self):
        # Supplies without charge state have no quantum.
        assert supply_quantum(ContinuousPower()) is None
        assert supply_quantum(ScheduledFailures([], off_cycles=1)) is None

    @given(spec=fleet_specs(), buckets=st.sampled_from([1, 2, 5, 32, 500]))
    @settings(max_examples=10, deadline=None)
    def test_bucketed_replay_matches_serial_property(self, spec, buckets):
        # The acceptance property: byte parity under quantized keys at
        # aggressive bucket sizes, across random apps x configs x
        # jittered fleets.  Coarse buckets collapse more devices onto
        # one key; the reboot-free replay gate must keep every hit
        # bit-identical to real execution.
        devices = spec.expand()
        serial = run_shard(devices)
        with mock.patch.object(vector_module, "SUPPLY_BUCKETS", buckets):
            vector = VectorFleetExecutor().run(devices)
        assert vector.to_json() == serial.to_json()

    def test_jittered_fleet_scores_nonzero_hits(self):
        spec = jittered_spec(count=12)
        serial = run_fleet(spec, "serial")
        executor = VectorFleetExecutor()
        vector = run_fleet(spec, executor=executor)
        assert aggregate_fingerprint(vector) == aggregate_fingerprint(serial)
        # Exact tokens scored exactly 0 here; quantization must not.
        assert executor.memo.stats.hits > 0

    def test_scheduled_failures_armed_token_quantizes_history(self):
        # Devices that reached the same *armed* schedule state through
        # different firing histories must compare equal: the fired
        # bookkeeping can never influence a future answer.
        a_uid, b_uid = InstrId("main", 1), InstrId("main", 9)
        fired_path = ScheduledFailures(
            [FailurePoint(uid=a_uid), FailurePoint(uid=b_uid, occurrence=2)],
            off_cycles=500,
        )
        assert fired_path.fail_before(a_uid) is True  # fire point A
        fresh_path = ScheduledFailures(
            [FailurePoint(uid=b_uid, occurrence=2)], off_cycles=500
        )
        assert fired_path.memo_token() == fresh_path.memo_token()
        # ... but progress toward an armed point still distinguishes.
        fresh_path.fail_before(b_uid)
        assert fired_path.memo_token() != fresh_path.memo_token()


class TestMemoCapAndEviction:
    def test_lru_eviction_order_and_stats(self):
        memo = ActivationMemo(max_entries=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refresh "a": "b" is now LRU
        memo.put("c", 3)
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert memo.stats.evictions == 1

    def test_capped_memo_produces_byte_identical_aggregates(self):
        # The satellite bugfix contract: eviction only causes re-misses,
        # never wrong replays -- aggregates must not change by a byte.
        for spec in (uniform_spec(count=20), jittered_spec(count=8)):
            devices = spec.expand()
            unbounded = VectorFleetExecutor().run(devices)
            capped_executor = VectorFleetExecutor(max_entries=4)
            capped = capped_executor.run(devices)
            assert capped.to_json() == unbounded.to_json()
        assert capped_executor.memo.stats.evictions > 0
        assert len(capped_executor.memo) <= 4


class TestPersistentMemo:
    def test_warm_run_is_byte_identical_and_reports_disk_loads(
        self, tmp_path
    ):
        spec = jittered_spec(count=10)
        serial = run_fleet(spec, "serial")
        cold = run_fleet(spec, "vector", memo_dir=tmp_path)
        warm_executor = VectorFleetExecutor(memo_dir=tmp_path)
        warm = run_fleet(spec, executor=warm_executor)
        assert aggregate_fingerprint(cold) == aggregate_fingerprint(serial)
        assert aggregate_fingerprint(warm) == aggregate_fingerprint(serial)
        assert warm.memo["disk_loads"] > 0
        assert warm.memo["hit_rate"] > cold.memo["hit_rate"]

    def test_corrupt_shard_degrades_to_cold(self, tmp_path):
        spec = uniform_spec(count=6)
        run_fleet(spec, "vector", memo_dir=tmp_path)
        shards = list(tmp_path.glob("memo-*.pkl"))
        assert shards, "cold run should have written a shard"
        for shard in shards:
            shard.write_bytes(b"\x80corrupt garbage")
        warm = run_fleet(spec, "vector", memo_dir=tmp_path)
        assert warm.memo["disk_loads"] == 0  # cold, not crashed
        serial = run_fleet(spec, "serial")
        assert aggregate_fingerprint(warm) == aggregate_fingerprint(serial)

    def test_schema_or_token_mismatch_loads_nothing(self, tmp_path):
        store = MemoStore(tmp_path)
        store.save("token-a", {"k": "v"})
        assert store.load("token-a") == {"k": "v"}
        assert store.load("token-b") == {}
        # A forged payload under the right digest but wrong schema.
        path = store.shard_path("token-a")
        path.write_bytes(
            pickle.dumps(
                {"schema": "other", "shard": "token-a", "entries": {"k": 1}}
            )
        )
        assert store.load("token-a") == {}
        assert MEMO_SCHEMA == "repro-memo-1"

    def test_pooled_warm_run_is_byte_identical_and_reports_disk_loads(
        self, tmp_path
    ):
        spec = jittered_spec(count=2 * vector_module.POOL_MIN_SHARE)
        serial = run_fleet(spec, "serial")
        cold = run_fleet(spec, "vector", memo_dir=tmp_path, processes=2)
        assert cold.executor_used == "vector-pool"
        assert cold.memo["disk_loads"] == 0
        # Workers never open the store: the parent is its only writer.
        assert not list(tmp_path.glob("*.tmp"))
        warm = run_fleet(spec, "vector", memo_dir=tmp_path, processes=2)
        assert aggregate_fingerprint(cold) == aggregate_fingerprint(serial)
        assert warm.aggregate.to_json() == cold.aggregate.to_json()
        assert warm.memo["disk_loads"] > 0
        assert warm.memo["hit_rate"] > cold.memo["hit_rate"]

    def test_pool_worker_drops_only_unpicklable_entries(self, monkeypatch):
        devices = uniform_spec(count=4).expand()

        class LeakyExecutor(VectorFleetExecutor):
            def _run_local(self, devices):
                aggregate = super()._run_local(devices)
                self.memo.put(("unpicklable",), lambda: None)
                return aggregate

        worker = LeakyExecutor()
        worker.memo.put(("inherited",), "not shipped back")
        monkeypatch.setattr(vector_module, "_WORKER", worker)
        payload, blob, stats = vector_module._run_share(tuple(devices))
        created = dict(pickle.loads(blob))
        assert ("unpicklable",) not in created
        assert ("inherited",) not in created
        assert created and len(created) == len(worker.memo) - 2
        assert stats.misses > 0
        reference = VectorFleetExecutor().run(devices)
        assert FleetAggregator.from_dict(payload).to_json() == reference.to_json()

    def test_save_leaves_another_writers_temp_file_alone(self, tmp_path):
        store = MemoStore(tmp_path)
        # Another process is mid-save on the shared legacy temp name.
        theirs = store.shard_path("token").with_suffix(".pkl.tmp")
        theirs.write_bytes(b"half-written by another process")
        assert store.save("token", {"k": "v"})
        assert store.load("token") == {"k": "v"}
        assert theirs.read_bytes() == b"half-written by another process"
        assert list(tmp_path.glob("*.tmp")) == [theirs]

    def test_memo_dir_requires_vector_executor(self):
        spec = uniform_spec(count=2)
        with pytest.raises(FleetError, match="vector"):
            run_fleet(spec, "serial", memo_dir="/tmp/nope")


class TestCheckpointFamilyGate:
    def test_cross_family_resume_with_matching_fingerprint(self, tmp_path):
        spec = mixed_spec()
        full = run_fleet(spec, "serial")
        path = tmp_path / "fleet.ckpt.json"
        partial = run_shard(spec.expand()[:3])
        FleetCheckpoint(
            checkpoint_fingerprint(spec),
            3,
            partial.to_dict(),
            executor_family="serial",
        ).save(path)
        resumed = run_fleet(spec, "vector", checkpoint_path=path)
        assert aggregate_fingerprint(resumed) == aggregate_fingerprint(full)
        # Every family that built the aggregate is reported.
        assert resumed.executor_used == "serial+vector"

    def test_legacy_checkpoint_without_parity_scheme_rejected(self, tmp_path):
        spec = mixed_spec()
        path = tmp_path / "fleet.ckpt.json"
        # A pre-parity-scheme checkpoint bound only the spec fingerprint.
        FleetCheckpoint(
            spec.fingerprint(), 3, FleetAggregator().to_dict()
        ).save(path)
        with pytest.raises(FleetError, match="parity scheme|different"):
            run_fleet(spec, "vector", checkpoint_path=path)

    def test_checkpoint_without_family_rejected(self, tmp_path):
        spec = mixed_spec()
        path = tmp_path / "fleet.ckpt.json"
        FleetCheckpoint(
            checkpoint_fingerprint(spec), 3, FleetAggregator().to_dict()
        ).save(path)
        with pytest.raises(FleetError, match="executor family"):
            run_fleet(spec, "serial", checkpoint_path=path)

    def test_pooled_vector_checkpoint_resumes_under_serial(self, tmp_path):
        share = vector_module.POOL_MIN_SHARE
        spec = mixed_spec().with_total_devices(4 * share)
        full = run_fleet(spec, "serial")
        path = tmp_path / "fleet.ckpt.json"

        class Interrupted(Exception):
            pass

        executor = VectorFleetExecutor(processes=2)
        run_chunk = executor.run
        chunks_run = []

        def run_first_chunk_only(devices):
            if chunks_run:
                raise Interrupted
            chunks_run.append(len(devices))
            return run_chunk(devices)

        executor.run = run_first_chunk_only
        with pytest.raises(Interrupted):
            run_fleet(
                spec, executor, checkpoint_path=path, checkpoint_every=2 * share
            )
        assert executor.used == "vector-pool"
        checkpoint = FleetCheckpoint.load(path)
        assert checkpoint.devices_done == 2 * share
        assert checkpoint.executor_family == "vector"
        resumed = run_fleet(spec, "serial", checkpoint_path=path)
        assert resumed.resumed_devices == 2 * share
        assert resumed.executor_used == "vector+serial"
        assert aggregate_fingerprint(resumed) == aggregate_fingerprint(full)

    def test_vector_checkpoint_records_family(self, tmp_path):
        spec = uniform_spec(count=8)
        path = tmp_path / "fleet.ckpt.json"
        run_fleet(spec, "vector", checkpoint_path=path, checkpoint_every=3)
        checkpoint = FleetCheckpoint.load(path)
        assert checkpoint.executor_family == "vector"
        assert checkpoint.fingerprint == checkpoint_fingerprint(spec)
