"""Golden parity for the paper's tables through the one experiment path.

The overhead digest below was captured from the *legacy* analysis
driver at commit 55f2bbd, before sweeps moved onto the ``repro.api``
RunSpec path: sha256 of the rendered fault-free overhead table, with
workload labels normalized to spec strings.  The same table rendered
from :func:`repro.api.session.execute` records must still match it
byte-for-byte, and the multi-fault run must keep the legacy driver's
observables.  (The legacy fault-time and scaling tables are the
``rollback-vs-splice`` and ``scaling-wide`` scenario points, which
``tests/exp/test_runspec_parity.py`` pins by digest.)

The figure drivers are pinned the other way around: the table each
figure renders through the scenario/RunSpec path (the ``figure`` point
runner behind ``repro exp run figN-*``) must equal the direct
``analysis.figures`` driver output, so the registry path and the legacy
entry point can never drift.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import Experiment
from repro.api.session import execute
from repro.util.tables import format_table

#: sha256 of the legacy driver's rendered overhead table (see module docstring).
OVERHEAD_TABLE_DIGEST = "fd2705a60c079e4c835102981323ef00492819b50c557e6d4ac04450d921df7c"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def overhead_table(workload: str, policies, processors: int, seed: int) -> str:
    """The legacy overhead table: one row per policy, makespan relative
    to the first policy's."""
    rows, base = [], None
    for policy in policies:
        spec = Experiment.workload(workload).policy(policy).processors(processors).seed(seed)
        record = execute(spec.build()).record
        assert record["completed"], (workload, policy)
        base = base or record["makespan"]
        metrics = record["metrics"]
        rows.append([
            workload,
            policy,
            round(record["makespan"], 1),
            f"{record['makespan'] / base:.3f}x",
            metrics["checkpoints_recorded"],
            metrics["checkpoint_peak_held"],
            metrics["messages_total"],
        ])
    return format_table(
        ["workload", "policy", "makespan", "vs none", "ckpts", "peak ckpts", "msgs"],
        rows,
        title="Fault-free overhead",
    )


class TestLegacyPins:
    def test_overhead_table_matches_legacy(self):
        table = overhead_table(
            "balanced:4:2:60", ["none", "rollback", "splice", "replicated:3"],
            processors=4, seed=0,
        )
        assert digest(table) == OVERHEAD_TABLE_DIGEST, table

    def test_multi_fault_run_matches_legacy(self):
        # the legacy driver's observables, captured at the same commit
        result = (
            Experiment.workload("balanced:4:3:40")
            .policy("splice")
            .processors(6)
            .seed(0)
            .fault(150.0, 1, mode="time")
            .fault(150.0, 4, mode="time")
            .run()
            .result
        )
        assert result.completed and result.verified is True
        assert result.makespan == 1687.0
        assert result.metrics.tasks_reissued == 3


class TestFigureScenarioParity:
    """Each figure's table through the scenario path equals the direct
    driver output — the registry entry *is* the figure driver."""

    @pytest.mark.parametrize(
        "scenario,figure",
        [
            ("fig1-fragmentation", "figure1"),
            ("fig2-grandparents", "figure2"),
            ("fig3-inheritance", "figure3"),
            ("fig5-cases", "figure5"),
            ("fig6-residue", "figure6"),
        ],
    )
    def test_scenario_table_equals_driver_table(self, scenario, figure):
        from repro.analysis import figures
        from repro.exp import run_scenario

        sweep = run_scenario(scenario, workers=1, cache_dir=None)
        (point,) = sweep.points
        report = figures.FIGURES[figure]()
        assert point["result"]["text"] == report.text
        assert point["result"]["ok"] is report.ok is True
        assert point["result"]["title"] == report.title
