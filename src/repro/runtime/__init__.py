"""Runtime: the JIT + atomics intermittent machine and its instruments.

* :mod:`repro.runtime.executor` -- the Appendix H abstract machine (the
  executable reference semantics),
* :mod:`repro.runtime.engine` -- the pre-decoded fast engine, proven
  observation-stream equivalent to the reference machine,
* :mod:`repro.runtime.supply` -- power models (continuous / scheduled /
  energy-driven),
* :mod:`repro.runtime.detector` -- the Section 7.3 bit-vector detector,
* :mod:`repro.runtime.properties` -- Definitions 2/3 as trace predicates,
* :mod:`repro.runtime.harness` -- one-shot and repeated-run drivers.
"""

from repro.runtime.detector import BitVector, Check, DetectorPlan, build_detector_plan
from repro.runtime.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENGINES,
    CompiledCode,
    EngineError,
    FastMachine,
    code_for,
    compile_code,
    create_machine,
)
from repro.runtime.executor import (
    ExecError,
    Frame,
    Machine,
    MachineConfig,
    NVState,
)
from repro.runtime.harness import (
    ActivationRecord,
    ActivationsResult,
    ActivationsSummary,
    iter_activations,
    run_activations,
    run_continuous,
    run_once,
)
from repro.runtime.observations import (
    CheckpointObs,
    ConsistentDeclObs,
    FreshDeclObs,
    InputObs,
    Obs,
    OutputObs,
    PowerFailObs,
    RebootObs,
    RegionEnterObs,
    RegionExitObs,
    RunResult,
    RunStats,
    Trace,
    UseObs,
    ViolationObs,
)
from repro.runtime.properties import (
    PropertyViolation,
    check_all_properties,
    check_consistency,
    check_freshness,
    check_region_bracketing,
)
from repro.runtime.refinement import (
    CommittedOutput,
    RefinementResult,
    check_refinement,
    committed_outputs,
)
from repro.runtime.supply import (
    ContinuousPower,
    EnergyDrivenSupply,
    FailurePoint,
    PowerSupply,
    ScheduledFailures,
)
from repro.runtime.values import InputEvent, RefValue, TVal

__all__ = [
    "BitVector",
    "Check",
    "DetectorPlan",
    "build_detector_plan",
    "ENGINE_FAST",
    "ENGINE_REFERENCE",
    "ENGINES",
    "CompiledCode",
    "EngineError",
    "FastMachine",
    "code_for",
    "compile_code",
    "create_machine",
    "ExecError",
    "Frame",
    "Machine",
    "MachineConfig",
    "NVState",
    "ActivationRecord",
    "ActivationsResult",
    "ActivationsSummary",
    "iter_activations",
    "run_activations",
    "run_continuous",
    "run_once",
    "CheckpointObs",
    "ConsistentDeclObs",
    "FreshDeclObs",
    "InputObs",
    "Obs",
    "OutputObs",
    "PowerFailObs",
    "RebootObs",
    "RegionEnterObs",
    "RegionExitObs",
    "RunResult",
    "RunStats",
    "Trace",
    "UseObs",
    "ViolationObs",
    "PropertyViolation",
    "CommittedOutput",
    "RefinementResult",
    "check_refinement",
    "committed_outputs",
    "check_all_properties",
    "check_consistency",
    "check_freshness",
    "check_region_bracketing",
    "ContinuousPower",
    "EnergyDrivenSupply",
    "FailurePoint",
    "PowerSupply",
    "ScheduledFailures",
    "InputEvent",
    "RefValue",
    "TVal",
]
