"""Fleets as classes: the lazy device view and per-class cohorts.

A :class:`FleetDevices` view must be indistinguishable from the
expanded device list under every sequence operation the engine uses,
a homogeneous class must run as one cohort without stamping its
devices, and the results must stay byte-identical to the serial oracle,
in-process and on the pool.  Because every aggregate field is a sum, a
uniform class of N devices must aggregate to exactly N times one device.
"""

from __future__ import annotations

import pickle
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.campaign import SupplySpec
from repro.fleet import (
    DeviceClass,
    FleetDevices,
    FleetError,
    FleetSpec,
    VectorFleetExecutor,
    run_fleet,
    run_shard,
)
from repro.fleet import spec as spec_module
from repro.fleet import vector as vector_module
from tests.strategies import fleet_specs, homogeneous_fleet_specs


def uniform_spec(count: int, **overrides) -> FleetSpec:
    """One tire/ocelot class on a deterministic rf supply."""
    defaults = dict(
        name="uniform",
        fleet_seed=1,
        budget_cycles=25_000,
        classes=(
            DeviceClass(
                name="tire-uniform",
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
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def _scaled(aggregate: dict, factor: int) -> dict:
    """Every count of a class aggregate multiplied by ``factor``."""
    scaled = {}
    for key, value in aggregate.items():
        if isinstance(value, list):
            scaled[key] = [v * factor for v in value]
        elif isinstance(value, int):
            scaled[key] = value * factor
        else:
            scaled[key] = value
    return scaled


class TestRunLimits:
    @pytest.mark.parametrize("limit", ["budget_cycles", "max_activations"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_class_rejects_non_positive_limit(self, limit, value):
        with pytest.raises(FleetError, match=f"class 'x': {limit}"):
            DeviceClass(name="x", app="tire", **{limit: value})
        with pytest.raises(FleetError, match=f"class 'x': {limit}"):
            FleetSpec.from_dict(
                {"classes": [{"name": "x", "app": "tire", limit: value}]}
            )

    @pytest.mark.parametrize("limit", ["budget_cycles", "max_activations"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_fleet_rejects_non_positive_limit(self, limit, value):
        cls = DeviceClass(name="x", app="tire")
        with pytest.raises(FleetError, match=f"{limit} must be positive"):
            FleetSpec(classes=(cls,), **{limit: value})
        with pytest.raises(FleetError, match=f"{limit} must be positive"):
            FleetSpec.from_dict(
                {"classes": [{"name": "x", "app": "tire"}], limit: value}
            )

    def test_positive_class_limits_are_kept(self):
        cls = DeviceClass(name="x", app="tire", budget_cycles=1, max_activations=1)
        device = FleetSpec(classes=(cls,)).device(0)
        assert (device.budget_cycles, device.max_activations) == (1, 1)


class TestLazyView:
    @given(spec=fleet_specs(), total=st.integers(0, 12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_view_equals_expansion(self, spec, total, data):
        # Rescaling leaves some classes with zero devices.
        spec = spec.with_total_devices(total)
        view, rows = spec.devices(), spec.expand()
        n = len(rows)
        assert len(view) == n
        assert list(view) == rows
        for i in range(-n, n):
            assert view[i] == rows[i]
            assert spec.device(i) == rows[i]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                view[bad]
        lo = data.draw(st.integers(-n - 2, n + 2), label="lo")
        hi = data.draw(st.integers(-n - 2, n + 2), label="hi")
        cut = view[lo:hi]
        assert isinstance(cut, FleetDevices)
        assert len(cut) == len(rows[lo:hi])
        assert list(cut) == rows[lo:hi]
        assert list(cut[1:-1]) == rows[lo:hi][1:-1]
        step = data.draw(st.sampled_from([2, 3, -1, -2]), label="step")
        assert view[lo:hi:step] == rows[lo:hi:step]
        assert list(pickle.loads(pickle.dumps(cut))) == rows[lo:hi]

    def test_slice_across_class_boundary_keeps_both_runs(self):
        a = DeviceClass(name="a", app="tire", count=3)
        b = DeviceClass(name="b", app="tire", count=4)
        empty = DeviceClass(name="e", app="tire", count=0)
        spec = FleetSpec(classes=(a, empty, b))
        cut = spec.devices()[2:5]
        assert [(cls.name, r) for cls, r in cut.runs] == [
            ("a", range(2, 3)),
            ("b", range(0, 2)),
        ]
        assert [d.device_id for d in cut] == ["a/d2", "b/d0", "b/d1"]
        assert not cut.homogeneous
        assert [run.homogeneous for run in cut.class_runs()] == [True, True]

    def test_homogeneous_classes_are_the_ones_without_device_draws(self):
        base = DeviceClass(name="x", app="tire")
        assert base.homogeneous
        assert not DeviceClass(name="x", app="tire", harvest_jitter=0.2).homogeneous
        assert not DeviceClass(name="x", app="tire", phase_jitter=10).homogeneous
        assert not DeviceClass(name="x", app="tire", env_seed_stride=1).homogeneous
        # Rate jitter only applies to harvest supplies.
        assert DeviceClass(
            name="x",
            app="tire",
            supply=SupplySpec.continuous(),
            harvest_jitter=0.2,
        ).homogeneous

    def test_uniform_vector_run_stamps_a_constant_number_of_devices(
        self, monkeypatch
    ):
        calls: list[tuple] = []
        real = spec_module.derive_seed

        def counting(*parts):
            calls.append(parts)
            return real(*parts)

        monkeypatch.setattr(spec_module, "derive_seed", counting)
        stamped = {}
        for count in (3, 3_000):
            calls.clear()
            result = run_fleet(uniform_spec(count), "vector")
            assert result.devices == count
            stamped[count] = len(calls)
        assert stamped[3] == stamped[3_000] <= 2


class TestHomogeneousClasses:
    @given(spec=homogeneous_fleet_specs())
    @settings(max_examples=12, deadline=None)
    def test_vector_matches_serial(self, spec):
        devices = spec.devices()
        assert all(run.homogeneous for run in devices.class_runs())
        serial = run_shard(devices).to_json()
        assert VectorFleetExecutor().run(devices).to_json() == serial
        pooled = VectorFleetExecutor(processes=2)
        with mock.patch.object(vector_module, "POOL_MIN_SHARE", 1):
            aggregate = pooled.run(devices)
        assert pooled.used == ("vector-pool" if len(devices) > 1 else "vector")
        assert aggregate.to_json() == serial

    def test_ten_million_device_class_scales_one_device_exactly(self):
        one = run_fleet(uniform_spec(1), "serial").aggregate["tire-uniform"]
        assert (
            run_fleet(uniform_spec(1), "vector").aggregate["tire-uniform"].to_dict()
            == one.to_dict()
        )
        big = run_fleet(uniform_spec(10_000_000), "vector")
        assert big.devices == 10_000_000
        assert big.aggregate["tire-uniform"].to_dict() == _scaled(
            one.to_dict(), 10_000_000
        )
        assert big.memo["misses"] == one.activations


class TestPoolDealing:
    @given(
        spec=fleet_specs(),
        total=st.integers(0, 40),
        workers=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_shares_partition_every_class_evenly(self, spec, total, workers):
        spec = spec.with_total_devices(total)
        rows = spec.expand()
        view = spec.devices()
        shares = vector_module._deal(vector_module._class_batches(view), workers)
        listed = vector_module._deal(vector_module._class_batches(rows), workers)
        assert len(shares) == len(listed) == workers
        assert [list(share) for share in shares] == listed
        dealt = Counter(d.device_id for share in listed for d in share)
        assert dealt == Counter(d.device_id for d in rows)
        assert max(dealt.values(), default=1) == 1
        for cls in spec.classes:
            sizes = [
                sum(d.class_name == cls.name for d in share) for share in listed
            ]
            assert max(sizes) - min(sizes) <= 1
        totals = [len(share) for share in shares]
        assert max(totals) - min(totals) <= 1

    def test_shares_of_a_view_are_contiguous_class_runs(self):
        spec = uniform_spec(10)
        shares = vector_module._deal(
            vector_module._class_batches(spec.devices()), 3
        )
        assert [[r for _, r in share.runs] for share in shares] == [
            [range(0, 4)],
            [range(4, 7)],
            [range(7, 10)],
        ]
