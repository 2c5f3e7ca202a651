"""Baseline fault-tolerance schemes the paper argues against.

- :mod:`repro.baselines.periodic` — synchronous periodic global
  checkpointing (§2's comparator; refs [3], [5], [15]);
- :mod:`repro.baselines.restart`  — whole-program restart (§4.3.1's
  "the user must restart the program" strawman).

Triple modular redundancy (Misunas [11]) needs no module of its own:
§5.3 emulates it by replicating task packets, so it is the
``replicated:3`` policy spec.
"""

from repro.baselines.periodic import PeriodicCheckpointSimulator, PeriodicRunResult
from repro.baselines.restart import restart_run

__all__ = [
    "PeriodicCheckpointSimulator",
    "PeriodicRunResult",
    "restart_run",
]
