"""Device materialization: the environment and supply a device runs on.

Both fleet executors build devices here, so what a :class:`DeviceSpec`
means physically is decided in one place.  Environments are pure
functions of (app, env seed, overrides, phase), so devices that agree on
those share one.  Supplies are shared *structurally*: one prototype is
built per distinct supply spec and then :meth:`spawn`-ed per device,
which re-derives only the RNG streams -- the cheap per-device
re-seeding path the energy layer provides.  Compiled programs come from
the process-wide compile cache, so a thousand identical tire monitors
cost one compile.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.apps import BENCHMARKS
from repro.eval.campaign import SupplySpec
from repro.fleet.spec import DeviceSpec
from repro.runtime.supply import PowerSupply
from repro.sensors.environment import Environment, bind_signal_specs


class DeviceEnv(NamedTuple):
    """A device's environment, with its sharing key and exact period."""

    key: tuple
    env: Environment
    period: Optional[int]


class DeviceBuilder:
    """Maps device specs to environments and spawned supplies.

    One builder lives per executor; its caches are keyed by value, so
    builders in different processes materialize identical devices.
    """

    def __init__(self) -> None:
        self._prototypes: dict[SupplySpec, PowerSupply] = {}
        self._envs: dict[tuple, DeviceEnv] = {}

    def env(self, spec: DeviceSpec) -> DeviceEnv:
        key = (spec.app, spec.env_seed, spec.env_overrides, spec.phase)
        cached = self._envs.get(key)
        if cached is None:
            env = BENCHMARKS[spec.app].env_factory(spec.env_seed)
            if spec.env_overrides:
                bind_signal_specs(env, spec.env_overrides)
            env = env.shifted(spec.phase)
            cached = self._envs[key] = DeviceEnv(key, env, env.period())
        return cached

    def prototype(self, spec: DeviceSpec) -> PowerSupply:
        """The shared, never-run supply built from ``spec``'s supply spec."""
        proto = self._prototypes.get(spec.supply)
        if proto is None:
            proto = self._prototypes[spec.supply] = spec.supply.build(0)
        return proto

    def supply(self, spec: DeviceSpec) -> PowerSupply:
        """A fresh supply on the device's own RNG streams."""
        return self.prototype(spec).spawn(spec.seed + spec.supply.seed_offset)
