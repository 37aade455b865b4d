"""Replayable counterexample schedules.

A verifier counterexample is a *schedule*: a finite set of power
failures, each "immediately before the ``k``-th dynamic execution of
static instruction ``uid``" -- exactly the occurrence convention of
:class:`~repro.runtime.supply.FailurePoint`, counted across the whole
multi-activation run including post-reboot re-executions.  The explorer
counts every attempt of every instruction along a path, so a schedule
it emits replays bit-exactly through a stock
:class:`~repro.runtime.supply.ScheduledFailures` supply: no verifier
machinery is needed to reproduce a violation, just ``python -m repro
run TARGET --schedule cex.json`` (or a campaign supply of kind
``schedule``).

The JSON format is versioned and deliberately tiny::

    {
      "format": "repro-schedule-1",
      "target": "tire", "config": "jit",        # informational
      "off_cycles": 10000,
      "activations": 1,
      "points": [{"func": "main", "label": 7, "occurrence": 3}]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.pipeline import CompiledProgram
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.ir.instructions import InstrId
from repro.runtime import observations as obs
from repro.runtime.detector import DetectorPlan
from repro.runtime.engine import ENGINE_FAST, create_machine
from repro.runtime.executor import MachineConfig, NVState
from repro.runtime.supply import FailurePoint, ScheduledFailures
from repro.sensors.environment import Environment

SCHEDULE_FORMAT = "repro-schedule-1"


class ScheduleError(ValueError):
    """A malformed schedule document."""


@dataclass(frozen=True)
class Schedule:
    """A finite failure schedule plus the replay budget that exposes it."""

    points: tuple[FailurePoint, ...]
    off_cycles: int = 10_000
    #: activations needed to reach the violation (or to prove the bound)
    activations: int = 1
    target: Optional[str] = None
    config: Optional[str] = None

    def to_supply(self) -> ScheduledFailures:
        """A fresh, fully armed injection supply for this schedule."""
        return ScheduledFailures(list(self.points), off_cycles=self.off_cycles)

    def with_points(self, points: tuple[FailurePoint, ...]) -> "Schedule":
        return replace(self, points=points)

    # -- JSON ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": SCHEDULE_FORMAT,
            "target": self.target,
            "config": self.config,
            "off_cycles": self.off_cycles,
            "activations": self.activations,
            "points": [
                {
                    "func": p.uid.func,
                    "label": p.uid.label,
                    "occurrence": p.occurrence,
                }
                for p in self.points
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        if not isinstance(data, dict):
            raise ScheduleError("schedule document must be a JSON object")
        fmt = data.get("format")
        if fmt != SCHEDULE_FORMAT:
            raise ScheduleError(
                f"unknown schedule format {fmt!r} (expected {SCHEDULE_FORMAT!r})"
            )
        points = []
        for entry in data.get("points", []):
            try:
                uid = InstrId(str(entry["func"]), int(entry["label"]))
                occurrence = int(entry.get("occurrence", 1))
            except (KeyError, TypeError, ValueError) as exc:
                raise ScheduleError(f"bad failure point {entry!r}: {exc}") from None
            if occurrence < 1:
                raise ScheduleError(
                    f"bad failure point {entry!r}: occurrence is 1-based"
                )
            points.append(FailurePoint(uid=uid, occurrence=occurrence))
        return cls(
            points=tuple(points),
            off_cycles=int(data.get("off_cycles", 10_000)),
            activations=int(data.get("activations", 1)),
            target=data.get("target"),
            config=data.get("config"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScheduleError(f"schedule is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_supply_spec(self, name: str = "counterexample"):
        """This schedule as a campaign :class:`SupplySpec` (kind
        ``schedule``), so a counterexample drops into campaign specs."""
        from repro.eval.campaign import SUPPLY_SCHEDULE, SupplySpec

        return SupplySpec(
            name=name,
            kind=SUPPLY_SCHEDULE,
            off_cycles=self.off_cycles,
            points=tuple(
                (p.uid.func, p.uid.label, p.occurrence) for p in self.points
            ),
        )


@dataclass
class ReplayResult:
    """What replaying a schedule observed."""

    violations: list[obs.ViolationObs] = field(default_factory=list)
    activations: int = 0
    completed: bool = True
    #: per-activation traces, in order (for bit-exactness assertions)
    traces: list[obs.Trace] = field(default_factory=list)
    final_tau: int = 0
    all_fired: bool = False

    @property
    def violating(self) -> bool:
        return bool(self.violations)


def replay_schedule(
    compiled: CompiledProgram,
    env: Environment,
    schedule: Schedule,
    engine: str = ENGINE_FAST,
    costs: CostModel = DEFAULT_COSTS,
    plan: Optional[DetectorPlan] = None,
    config: Optional[MachineConfig] = None,
    max_activations: Optional[int] = None,
    stop_at_violation: bool = True,
) -> ReplayResult:
    """Replay ``schedule`` activation by activation on a stock machine.

    Mirrors :func:`~repro.runtime.harness.iter_activations`:
    nonvolatile memory, the supply, and logical time persist across
    activations; volatile state resets per activation.  This is the
    *production* replay path -- the explorer's own transitions are
    validated against it by the parity tests.
    """
    if plan is None:
        plan = compiled.detector_plan()
    supply = schedule.to_supply()
    nv = NVState.initial(compiled.module)
    result = ReplayResult()
    tau = 0
    budget = schedule.activations if max_activations is None else max_activations
    for _ in range(budget):
        machine = create_machine(
            engine,
            compiled,
            env,
            supply,
            costs=costs,
            plan=plan,
            nv=nv,
            config=config,
            start_tau=tau,
        )
        run = machine.run()
        tau = machine.tau
        result.traces.append(run.trace)
        result.violations.extend(run.trace.violations)
        result.activations += 1
        if not run.stats.completed:
            result.completed = False
            break
        if stop_at_violation and result.violations:
            break
    result.final_tau = tau
    result.all_fired = supply.all_fired
    return result


def minimize_schedule(
    compiled: CompiledProgram,
    env: Environment,
    schedule: Schedule,
    engine: str = ENGINE_FAST,
    costs: CostModel = DEFAULT_COSTS,
    plan: Optional[DetectorPlan] = None,
    config: Optional[MachineConfig] = None,
) -> Schedule:
    """Greedy 1-minimal reduction: drop points while a violation remains.

    Every candidate subset is validated through the production replay
    path, so the returned schedule is replayable by construction; each
    surviving point is *necessary* (dropping any one loses the
    violation).  Schedules are small (bounded by ``--max-failures``), so
    the quadratic worst case is irrelevant.
    """
    if plan is None:
        plan = compiled.detector_plan()
    points = list(schedule.points)
    changed = True
    while changed:
        changed = False
        for index in range(len(points)):
            candidate = tuple(points[:index] + points[index + 1 :])
            trial = schedule.with_points(candidate)
            if replay_schedule(
                compiled, env, trial, engine=engine, costs=costs,
                plan=plan, config=config,
            ).violating:
                points = list(candidate)
                changed = True
                break
    return schedule.with_points(tuple(points))
