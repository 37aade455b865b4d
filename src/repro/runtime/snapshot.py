"""Fork/restore of machine execution state (the verifier's substrate).

The bounded model checker in :mod:`repro.verify` explores power-failure
schedules by branching a single machine: capture the full execution
state right before a candidate failure point, keep running the
failure-free continuation, and later restore the capture to take the
failing branch.  A snapshot therefore covers everything a
:class:`~repro.runtime.executor.Machine` /
:class:`~repro.runtime.engine.FastMachine` step can read or write:

* logical time ``tau`` and the per-activation :class:`RunStats`;
* nonvolatile memory -- globals, arrays, the detector bit vector;
* the volatile frame stack (engine-specific frame classes share
  ``copy()``, so :func:`copy_stack` works for both);
* the saved execution contexts (JIT checkpoint / atomic undo log);
* the volatile hoisted-query cache and the detector-query counter;
* completion state (``_done``, the return value).

Both :func:`capture_machine` and :func:`restore_machine` copy every
mutable container, so one snapshot can be restored any number of times
and a restored machine never aliases the snapshot.  The trace is *not*
part of a snapshot: the explorer cares about the observations of each
segment in isolation, so restoring installs a fresh (caller-provided)
trace instead of replaying history.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.runtime import observations as obs
from repro.runtime.executor import AtomContext, JitContext, copy_stack
from repro.runtime.values import TVal


@dataclass(frozen=True)
class MachineSnapshot:
    """One restorable machine state (see the module docstring)."""

    tau: int
    nv_globals: dict[str, TVal]
    nv_arrays: dict[str, list[TVal]]
    bits: frozenset
    frames: list
    jit_frames: Optional[list]
    #: (region, frames, undo_globals, undo_arrays, natom, omega) or None
    atom: Optional[tuple]
    hoist: dict[int, frozenset]
    stats: obs.RunStats
    detector_queries: int
    done: bool
    ret_value: Optional[TVal]
    #: fast-engine work-op scratch; dead at step boundaries but restored
    #: anyway so a snapshot is a complete state
    pending_cycles: int


def capture_machine(machine) -> MachineSnapshot:
    """Deep-copy ``machine``'s execution state into a snapshot."""
    atom = machine._atom_ctx
    return MachineSnapshot(
        tau=machine.tau,
        nv_globals=dict(machine.nv.globals),
        nv_arrays={name: list(v) for name, v in machine.nv.arrays.items()},
        bits=frozenset(machine.nv.bits.bits),
        frames=copy_stack(machine._frames),
        jit_frames=(
            copy_stack(machine._jit_ctx.frames)
            if machine._jit_ctx is not None
            else None
        ),
        atom=(
            (
                atom.region,
                copy_stack(atom.frames),
                dict(atom.undo_globals),
                {name: list(v) for name, v in atom.undo_arrays.items()},
                atom.natom,
                atom.omega,
            )
            if atom is not None
            else None
        ),
        hoist=dict(machine._hoist_cache),
        stats=replace(machine.stats),
        detector_queries=machine.detector_queries,
        done=machine._done,
        ret_value=machine._ret_value,
        pending_cycles=getattr(machine, "_pending_cycles", 0),
    )


def restore_machine(
    machine, snapshot: MachineSnapshot, trace: Optional[obs.Trace] = None
) -> None:
    """Restore ``machine`` to ``snapshot``; install ``trace`` (or a fresh
    one) as the observation sink for the replayed branch."""
    machine.tau = snapshot.tau
    machine.nv.globals = dict(snapshot.nv_globals)
    machine.nv.arrays = {name: list(v) for name, v in snapshot.nv_arrays.items()}
    machine.nv.bits.bits = set(snapshot.bits)
    machine._frames = copy_stack(snapshot.frames)
    machine._jit_ctx = (
        JitContext(frames=copy_stack(snapshot.jit_frames))
        if snapshot.jit_frames is not None
        else None
    )
    if snapshot.atom is not None:
        region, frames, undo_globals, undo_arrays, natom, omega = snapshot.atom
        machine._atom_ctx = AtomContext(
            region=region,
            frames=copy_stack(frames),
            undo_globals=dict(undo_globals),
            undo_arrays={name: list(v) for name, v in undo_arrays.items()},
            natom=natom,
            omega=omega,
        )
    else:
        machine._atom_ctx = None
    machine._hoist_cache = dict(snapshot.hoist)
    machine.stats = replace(snapshot.stats)
    machine.detector_queries = snapshot.detector_queries
    machine._done = snapshot.done
    machine._ret_value = snapshot.ret_value
    if hasattr(machine, "_pending_cycles"):
        machine._pending_cycles = snapshot.pending_cycles
    machine.trace = trace if trace is not None else obs.Trace()


def begin_activation(machine, trace: Optional[obs.Trace] = None) -> None:
    """Reset ``machine``'s volatile state for the next activation.

    Equivalent to building a fresh machine over the same nonvolatile
    state, supply, and logical clock -- what
    :func:`~repro.runtime.harness.iter_activations` does per
    activation -- without re-running machine construction: the frame
    stack restarts at ``main``, the saved contexts and the volatile
    hoist cache clear, and per-activation stats/trace reset.  ``tau``
    and ``nv`` persist, like an embedded ``while (1) main();`` loop.
    """
    machine._restart_main()
    machine._jit_ctx = None
    machine._atom_ctx = None
    machine._hoist_cache = {}
    machine._done = False
    machine._ret_value = None
    machine.stats = obs.RunStats()
    machine.detector_queries = 0
    if hasattr(machine, "_pending_cycles"):
        machine._pending_cycles = 0
    machine.trace = trace if trace is not None else obs.Trace()
