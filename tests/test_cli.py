"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import _parse_fault, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_workloads_and_policies(self):
        code, text = run_cli("list")
        assert code == 0
        assert "fib-10" in text
        assert "splice" in text


class TestRun:
    def test_fault_free_run(self):
        code, text = run_cli("run", "fib-10", "--policy", "none")
        assert code == 0
        assert "completed" in text and "verified" in text

    def test_run_with_fault_recovers(self):
        code, text = run_cli(
            "run", "fib-10", "--policy", "splice", "--fault", "600:2", "--seed", "7"
        )
        assert code == 0
        assert "verified" in text

    def test_run_with_fault_no_ft_fails_exit_code(self):
        code, text = run_cli(
            "run", "balanced-d5-f2", "--policy", "none", "--fault", "150:1"
        )
        assert code == 1
        assert "STALLED" in text

    def test_trace_flag(self):
        code, text = run_cli(
            "run", "fib-10", "--policy", "rollback", "--fault", "600:2", "--trace"
        )
        assert code == 0
        assert "recovery_reissue" in text

    def test_replicated_policy(self):
        code, text = run_cli(
            "run",
            "balanced-d3-f4",
            "--policy",
            "replicated",
            "--replication",
            "3",
            "--processors",
            "5",
            "--fault",
            "100:1",
        )
        assert code == 0

    def test_unknown_workload(self):
        code, _ = run_cli("run", "no-such-workload")
        assert code == 2

    def test_invalid_config(self):
        code, _ = run_cli("run", "fib-10", "--processors", "6", "--topology", "hypercube")
        assert code == 2

    def test_fault_on_unknown_processor(self):
        code, _ = run_cli("run", "fib-10", "--fault", "100:9")
        assert code == 2

    def test_workload_spec_strings_accepted(self):
        # `repro run` takes the full workload grammar, not just suite names
        code, text = run_cli("run", "balanced:3:2:10", "--policy", "splice")
        assert code == 0
        assert "completed" in text and "verified" in text

    def test_bad_workload_one_line_diagnostic(self, capsys):
        code, _ = run_cli("run", "balanced:3:x:10")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'x'" in err
        assert "Traceback" not in err

    def test_nemesis_flag(self):
        code, text = run_cli(
            "run", "balanced:3:2:10", "--policy", "splice",
            "--nemesis", "jitter:max=10", "--seed", "3",
        )
        assert code == 0
        assert "verified" in text

    def test_bad_nemesis_one_line_diagnostic(self, capsys):
        code, _ = run_cli("run", "fib-10", "--nemesis", "nosuch:x=1")
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown fault model" in err and "Traceback" not in err


class TestFailFast:
    """Specs the simulator cannot run are refused at parse, with exit 2,
    instead of spinning to the event budget or raising from a builder."""

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_replicated_below_one_exits_2(self, k, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("run", "balanced:3:2:10", "--policy", f"replicated:{k}")
        assert exc_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workload",
        ["chain:0:5", "wide:0:5", "balanced:3:0:10", "balanced:-3:2:10", "random:1:0"],
    )
    def test_out_of_bound_tree_exits_2_with_one_line(self, workload, capsys):
        code, _ = run_cli("run", workload)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be >=" in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


class TestRunSpecFlags:
    def test_dry_run_prints_canonical_runspec(self):
        import json

        from repro.api import RUNSPEC_SCHEMA, RunSpec

        code, text = run_cli(
            "run", "balanced:3:2:10", "--policy", "splice",
            "--fault", "300:1", "--seed", "9", "--dry-run",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["schema"] == RUNSPEC_SCHEMA
        spec = RunSpec.from_json(doc)
        assert spec.workload.to_spec_str() == "balanced:3:2:10"
        assert spec.policy.name == "splice" and spec.seed == 9
        assert spec.faults.mode == "time" and spec.faults.entries == ((300.0, 1),)
        # canonical: the emitted text is byte-stable
        from repro.util.jsonio import canonical_dumps

        assert text == canonical_dumps(doc)

    def test_spec_json_replays_a_saved_spec(self, tmp_path):
        code, text = run_cli(
            "run", "balanced:3:2:10", "--policy", "splice", "--seed", "4", "--dry-run"
        )
        assert code == 0
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, text = run_cli("run", "--spec-json", str(path))
        assert code == 0
        assert "completed" in text and "verified" in text

    def test_spec_json_conflicts_with_workload(self, capsys):
        code, _ = run_cli("run", "fib-10", "--spec-json", "x.json")
        assert code == 2
        assert "--spec-json" in capsys.readouterr().err

    def test_spec_json_rejects_flag_overrides(self, tmp_path, capsys):
        # flags alongside --spec-json would silently run a different
        # experiment than the document names — refuse instead
        code, text = run_cli("run", "balanced:3:2:10", "--dry-run")
        assert code == 0
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, _ = run_cli(
            "run", "--spec-json", str(path), "--policy", "splice", "--seed", "9"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--policy" in err and "--seed" in err and "Traceback" not in err
        # even a flag given at its default value counts as an explicit
        # override attempt and is refused (the document is authoritative)
        code, _ = run_cli("run", "--spec-json", str(path), "--policy", "rollback")
        assert code == 2
        assert "--policy" in capsys.readouterr().err

    def test_spec_json_missing_file(self, capsys):
        code, _ = run_cli("run", "--spec-json", "/no/such/file.json")
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_without_workload(self, capsys):
        code, _ = run_cli("run")
        assert code == 2
        assert "workload" in capsys.readouterr().err


class TestFaultParsing:
    def test_parse(self):
        fault = _parse_fault("600:2")
        assert fault.time == 600.0 and fault.node == 2

    def test_reject_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("nope")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("600")

    def test_reject_fraction_mode_prefix(self):
        # "frac:0.5:1" would otherwise inject at t=0.5 absolute
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="absolute"):
            _parse_fault("frac:0.5:1")

    def test_cli_and_api_agree_on_the_diagnostic(self):
        # Satellite guarantee: both entry points delegate to
        # FaultSpec.parse, so malformed input yields the same structured
        # message whether it arrives via --fault or the programmatic API.
        import argparse

        from repro.api import FaultSpec, SpecError

        for bad in ("nope", "600", "x:1", "0.5:n", ":", "600:"):
            with pytest.raises(SpecError) as api_err:
                FaultSpec.parse(bad, mode="time")
            with pytest.raises(argparse.ArgumentTypeError) as cli_err:
                _parse_fault(bad)
            assert str(cli_err.value) == str(api_err.value), bad


class TestFaults:
    def test_faults_list_shows_models_and_composition_hint(self):
        code, text = run_cli("faults", "list")
        assert code == 0
        for name in ("crash", "cascade", "partition", "chaos", "grayfail", "jitter"):
            assert name in text
        assert "compose" in text and "docs/FAULTS.md" in text

    def test_faults_describe_shows_params_and_example(self):
        code, text = run_cli("faults", "describe", "chaos")
        assert code == 0
        assert "drop" in text and "reorder" in text
        assert "example:" in text and "fractions of the baseline makespan" in text

    def test_faults_describe_marks_fraction_params(self):
        code, text = run_cli("faults", "describe", "partition")
        assert code == 0
        assert "×T" in text

    def test_faults_describe_unknown(self):
        code, _ = run_cli("faults", "describe", "no-such-model")
        assert code == 2


class TestReport:
    def test_report_list_shows_scenarios_and_hint(self):
        code, text = run_cli("report", "list")
        assert code == 0
        assert "rollback-vs-splice" in text and "smoke" in text
        assert "results/reports" in text and "docs/REPORTS.md" in text

    def test_report_run_writes_markdown_and_json(self, tmp_path):
        cache = str(tmp_path / "results")
        code, text = run_cli(
            "report", "run", "smoke", "--replications", "2",
            "--cache-dir", cache,
        )
        assert code == 0
        assert "# Report: `smoke`" in text
        assert "bootstrap" in text
        md = tmp_path / "results" / "reports" / "smoke.md"
        js = tmp_path / "results" / "reports" / "smoke.json"
        assert md.exists() and js.exists()
        assert f"wrote {md}" in text

    def test_report_run_no_write_and_json(self, tmp_path):
        import json

        cache = str(tmp_path / "results")
        code, text = run_cli(
            "report", "run", "smoke", "--replications", "2",
            "--cache-dir", cache, "--no-write", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["schema"] == "repro-report/1"
        assert payload["replications"] == 2
        assert not (tmp_path / "results" / "reports").exists()

    def test_report_compare_axis(self, tmp_path):
        cache = str(tmp_path / "results")
        code, text = run_cli(
            "report", "compare", "smoke", "--axis", "policy",
            "--replications", "2", "--cache-dir", cache,
        )
        assert code == 0
        assert "policy=rollback → policy=splice" in text
        assert (tmp_path / "results" / "reports" / "smoke-by-policy.md").exists()

    def test_report_compare_baseline_coerced(self, tmp_path):
        # --baseline is a string on the CLI; axis values may be floats
        cache = str(tmp_path / "results")
        code, text = run_cli(
            "report", "compare", "smoke", "--axis", "fault_frac",
            "--baseline", "0.8", "--cache-dir", cache, "--no-write",
        )
        assert code == 0
        assert "fault_frac=0.8 → fault_frac=0.4" in text

    def test_report_reuses_the_sweep_cache(self, tmp_path):
        cache = str(tmp_path / "results")
        code, _ = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0
        code, text = run_cli(
            "report", "run", "smoke", "--cache-dir", cache, "--no-write"
        )
        assert code == 0
        assert "replicates per point: 1" in text

    def test_report_unknown_scenario(self, capsys):
        code, _ = run_cli("report", "run", "no-such-scenario")
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_report_bad_replications_one_line_diagnostic(self, capsys):
        code, _ = run_cli("report", "run", "smoke", "--replications", "0", "--no-write")
        assert code == 2
        err = capsys.readouterr().err
        assert ">= 1" in err and "Traceback" not in err

    def test_report_compare_requires_one_form(self, capsys):
        code, _ = run_cli("report", "compare", "smoke", "--no-write")
        assert code == 2
        assert "exactly one" in capsys.readouterr().err
        code, _ = run_cli(
            "report", "compare", "smoke", "smoke", "--axis", "policy", "--no-write"
        )
        assert code == 2

    def test_report_bad_axis_one_line_diagnostic(self, capsys):
        code, _ = run_cli("report", "compare", "smoke", "--axis", "nope", "--no-write")
        assert code == 2
        err = capsys.readouterr().err
        assert "no axis" in err and "Traceback" not in err


class TestExp:
    def test_exp_list_shows_scenarios(self):
        code, text = run_cli("exp", "list")
        assert code == 0
        assert "rollback-vs-splice" in text
        assert "overhead-faultfree" in text
        assert "smoke" in text

    def test_exp_show(self):
        code, text = run_cli("exp", "show", "smoke")
        assert code == 0
        assert "axes" in text and "fault_frac" in text
        assert "point seeds" in text

    def test_exp_show_json_expands_runspecs(self):
        import json

        from repro.api import RUNSPEC_SCHEMA, RunSpec
        from repro.exp import get_scenario
        from repro.util.jsonio import canonical_dumps

        code, text = run_cli("exp", "show", "smoke", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["scenario"] == "smoke"
        assert payload["key"] == get_scenario("smoke").key()
        assert payload["n_points"] == len(payload["points"]) == 4
        for point in payload["points"]:
            doc = point["runspec"]
            assert doc["schema"] == RUNSPEC_SCHEMA
            RunSpec.from_json(doc)  # must be a valid, replayable document
        assert text == canonical_dumps(payload)

    def test_exp_show_json_covers_the_competing_policies(self):
        import json

        from repro.api import RunSpec

        code, text = run_cli("exp", "show", "policy-compare-chaos", "--json")
        assert code == 0
        payload = json.loads(text)
        policies = {p["params"]["policy"] for p in payload["points"]}
        assert {"incremental", "incremental:persist=hybrid", "reversible"} <= policies
        for point in payload["points"]:
            doc = point["runspec"]
            spec = RunSpec.from_json(doc)  # valid, replayable document
            assert spec.policy.to_spec_str() == point["params"]["policy"]
            # the persist key is emitted only for the parameterized form
            assert ("persist" in doc["policy"]) == (
                point["params"]["policy"] == "incremental:persist=hybrid"
            )

    def test_exp_show_json_non_machine_runner_has_params_only(self):
        import json

        code, text = run_cli("exp", "show", "fig1-fragmentation", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["runner"] == "figure"
        assert "runspec" not in payload["points"][0]

    def test_exp_show_unknown(self):
        code, _ = run_cli("exp", "show", "no-such-scenario")
        assert code == 2

    def test_exp_show_malformed_registered_scenario_diagnoses(self, capsys):
        # a user-registered scenario with a typo'd param must get the
        # one-line SpecError treatment, not a traceback (key() parses
        # every machine point into a RunSpec)
        from repro.exp import ScenarioSpec
        from repro.exp.scenario import _REGISTRY

        bad = ScenarioSpec(
            name="bad-typo",
            title="typo'd param",
            description="test",
            runner="machine",
            base={"workload": "balanced:2:2:5", "procesors": 8},
            axes={},
        )
        _REGISTRY[bad.name] = bad
        try:
            code, _ = run_cli("exp", "show", "bad-typo")
            assert code == 2
            err = capsys.readouterr().err
            assert "unknown run parameter" in err and "procesors" in err
            code, _ = run_cli("exp", "show", "bad-typo", "--json")
            assert code == 2
        finally:
            del _REGISTRY[bad.name]

    def test_exp_run_unknown(self):
        code, _ = run_cli("exp", "run", "no-such-scenario")
        assert code == 2

    def test_exp_run_no_cache(self):
        code, text = run_cli("exp", "run", "smoke", "--no-cache")
        assert code == 0
        assert "rollback" in text and "splice" in text
        assert "cache:" not in text

    def test_exp_run_caches_and_hits(self, tmp_path):
        cache = str(tmp_path / "results")
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0 and "cache: miss, computed" in text
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0 and "cache: hit" in text
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache, "--force")
        assert code == 0 and "cache: miss, computed" in text

    def test_exp_run_workers_match_serial(self, tmp_path):
        import json

        code1, text1 = run_cli(
            "exp", "run", "smoke", "--no-cache", "--json", "--workers", "1"
        )
        code2, text2 = run_cli(
            "exp", "run", "smoke", "--no-cache", "--json", "--workers", "2"
        )
        assert code1 == code2 == 0
        assert text1 == text2
        payload = json.loads(text1)
        assert payload["scenario"] == "smoke" and len(payload["points"]) == 4


class TestExpLedger:
    """CLI surface of the durable run ledger (docs/LEDGER.md)."""

    def test_exp_run_ledgers_by_default_with_cache(self, tmp_path):
        import os

        cache = str(tmp_path / "results")
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0
        assert "ledger:" in text
        from repro.exp import get_scenario

        run_id = get_scenario("smoke").run_id()
        assert run_id in text
        assert os.path.exists(
            os.path.join(cache, "ledger", f"{run_id}.jsonl")
        )

    def test_no_ledger_and_no_cache_disable_the_ledger(self, tmp_path):
        cache = str(tmp_path / "results")
        code, text = run_cli(
            "exp", "run", "smoke", "--cache-dir", cache, "--no-ledger"
        )
        assert code == 0 and "ledger:" not in text
        assert not (tmp_path / "results" / "ledger").exists()
        code, text = run_cli("exp", "run", "smoke", "--no-cache")
        assert code == 0 and "ledger:" not in text

    def test_cache_hit_prints_no_ledger_line(self, tmp_path):
        import shutil

        cache = str(tmp_path / "results")
        run_cli("exp", "run", "smoke", "--cache-dir", cache)
        shutil.rmtree(tmp_path / "results" / "ledger")
        code, text = run_cli("exp", "run", "smoke", "--cache-dir", cache)
        assert code == 0 and "cache: hit" in text
        assert "ledger:" not in text
        assert not (tmp_path / "results" / "ledger").exists()

    def test_exp_runs_empty_dir(self, tmp_path):
        code, text = run_cli(
            "exp", "runs", "--cache-dir", str(tmp_path / "results")
        )
        assert code == 0
        assert "no ledgered runs" in text

    def test_exp_runs_lists_progress_and_json(self, tmp_path):
        import json

        cache = str(tmp_path / "results")
        run_cli("exp", "run", "smoke", "--cache-dir", cache)
        code, text = run_cli("exp", "runs", "--cache-dir", cache)
        assert code == 0
        assert "smoke" in text and "4/4" in text and "100%" in text
        code, text = run_cli("exp", "runs", "--cache-dir", cache, "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["schema"] == "repro-ledger/1"
        (entry,) = payload["runs"]
        assert entry["scenario"] == "smoke"
        assert entry["progress"] == 1.0 and entry["status"] == "complete"

    def test_exp_resume_unknown_run_exits_2(self, tmp_path, capsys):
        code, _ = run_cli(
            "exp", "resume", "nope-123456789abc",
            "--cache-dir", str(tmp_path / "results"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no ledger for run" in err and "Traceback" not in err

    def test_exp_resume_completes_and_matches_direct_run(self, tmp_path):
        from repro.exp import LedgerWriter, get_scenario, run_scenario

        spec = get_scenario("smoke")
        cache = str(tmp_path / "results")
        full = run_scenario("smoke")
        ledger_dir = tmp_path / "results" / "ledger"
        with LedgerWriter.start(str(ledger_dir), spec) as writer:
            writer.point_started(0)
            writer.point_finished(0, full.points[0]["result"])
        code, text = run_cli("exp", "resume", spec.run_id(), "--cache-dir", cache)
        assert code == 0
        assert "resumed 3 point(s)" in text
        code, direct = run_cli(
            "exp", "run", "smoke", "--cache-dir", str(tmp_path / "ref"), "--json"
        )
        assert code == 0
        code, resumed = run_cli(
            "exp", "run", "smoke", "--cache-dir", cache, "--json"
        )
        assert code == 0 and resumed == direct

    def test_exp_run_unwritable_cache_exits_1_one_line(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache tree must go")
        code, _ = run_cli("exp", "run", "smoke", "--cache-dir", str(blocker))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
