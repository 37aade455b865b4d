"""Segment quantization: when do two devices provably repeat each other?

Surbatovich et al.'s formal account of intermittent execution ("Towards
a Formal Foundation of Intermittent Computing") characterizes an
activation's behavior as a function of its resume-point state plus the
input environment.  In our model that state splits into three parts,
each with its own equivalence token:

* **program** -- interned by the compile cache (one
  :class:`~repro.core.pipeline.CompiledProgram` per source x pipeline);
* **environment time** -- :meth:`Environment.segment_token
  <repro.sensors.environment.Environment.segment_token>` collapses
  logical times congruent modulo the environment's exact period;
* **supply** -- the ``memo_token`` hooks below: a hashable snapshot of
  everything the supply's future answers can depend on (charge level,
  failure schedule bookkeeping, RNG stream positions where randomness
  can actually reach an outcome).

Two devices running the same program whose nonvolatile state, supply
token, and environment-time token agree must produce identical
activation outcomes -- the soundness fact the fleet memoizer
(:mod:`repro.fleet.vector`) builds on.  A supply without hooks is opaque
(``None``); the memoizer refuses to key it rather than guess.

**Quantized supply tokens.**  Exact tokens make the memo useless on
heterogeneous fleets: per-device harvest-rate jitter and RNG stream
positions make every key unique.  The memoizer instead keys stochastic
supplies on :func:`supply_quantum`'s static token plus a charge bucket,
dropping everything per-device, which is sound only under a replay gate
it enforces:

* a bucketed entry is stored only for a **reboot-free** activation
  (``reboots == 0`` and ``cycles_off == 0``), recording the charge level
  it executed at;
* a bucketed hit replays only for a device whose charge level is **at
  least** the entry's recorded execution level.

Why that gate is exact: a reboot-free activation never recharges, never
draws boot or harvest randomness, and consults the supply only through
checks of the form ``level - drained - energy <= low_threshold`` -- each
monotone in the starting level.  If the recorded run tripped none of
them starting from level ``L``, a device starting at ``L' >= L``
(same program, environment segment, and nonvolatile state) trips none
of them either, executes the identical instruction path, and ends at
``L' - consumed``.  Coarser buckets therefore never manufacture a false
hit; they only widen the population that shares a key.
"""

from __future__ import annotations

from typing import Hashable, Optional


def supply_memo_token(supply) -> Optional[Hashable]:
    """The supply's behavioral-equivalence token, or ``None`` if opaque.

    Dispatches on the optional ``memo_token`` hook so third-party supply
    implementations that predate the hooks read as opaque instead of
    raising ``AttributeError``.
    """
    token = getattr(supply, "memo_token", None)
    if token is None:
        return None
    return token()


def supply_quantum(supply) -> Optional[tuple]:
    """``(static_token, charge_level)`` for bucketed keys, or ``None``.

    Dispatches on the optional ``memo_quantum`` hook; a supply without
    one cannot be quantized.
    """
    hook = getattr(supply, "memo_quantum", None)
    if hook is None:
        return None
    return hook()


def capture_supply_state(supply):
    """Snapshot the supply's mutable state for later memo replay."""
    return supply.memo_capture()


def restore_supply_state(supply, state) -> None:
    """Put a supply into a previously captured state."""
    supply.memo_restore(state)
