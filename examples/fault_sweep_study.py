#!/usr/bin/env python3
"""A small study: fault-free overhead and recovery cost vs fault time.

Runs two registered scenarios and prints their tables: the fault-free
overhead of each policy (§6: functional checkpointing is cheap in
normal operation), and recovery cost as the fault time sweeps the
program's lifetime (§6: rollback grows costly for late faults, splice
flattens the curve by salvaging).  The scenarios are the same ones
``python -m repro exp run overhead-faultfree`` and ``... rollback-vs-splice``
run, so these numbers are byte-identical to what a registry sweep caches.

For the same series with replicate statistics (median/IQR/bootstrap
CIs), see `python -m repro report run rollback-vs-splice
--replications 5` and docs/REPORTS.md.

    python examples/fault_sweep_study.py
"""

from repro.exp import run_scenario, sweep_table


def main() -> None:
    for name in ("overhead-faultfree", "rollback-vs-splice"):
        print(sweep_table(run_scenario(name)))
        print()


if __name__ == "__main__":
    main()
