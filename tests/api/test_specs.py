"""Tests for the typed spec dataclasses and their grammars."""

from __future__ import annotations

import pytest

from repro.api import (
    RUNSPEC_SCHEMA,
    ArrivalSpec,
    FaultSpec,
    MachineSpec,
    NemesisSpec,
    PolicySpec,
    RunSpec,
    SpecError,
    WorkloadSpec,
)
from repro.errors import ReproError


class TestWorkloadSpec:
    def test_named_suite_entry(self):
        spec = WorkloadSpec.parse("fib-10")
        assert spec.kind == "named" and spec.name == "fib-10"
        assert spec.to_spec_str() == "fib-10"
        factory, size = spec.build()
        assert size is None and factory().name == "fib-10"

    def test_tree_specs(self):
        spec = WorkloadSpec.parse("balanced:3:2:10")
        assert spec.kind == "balanced" and spec.args == (3, 2, 10)
        _, size = spec.build()
        assert size == 15
        assert WorkloadSpec.parse("chain:7:5").build()[1] == 7

    def test_prog_spec(self):
        spec = WorkloadSpec.parse("prog:tak:7:4:2")
        assert spec.kind == "prog" and spec.name == "tak" and spec.args == (7, 4, 2)
        assert spec.to_spec_str() == "prog:tak:7:4:2"

    def test_random_spec(self):
        spec = WorkloadSpec.parse("random:404:100")
        assert spec.args == (404, 100)
        factory, size = spec.build()
        assert size == 100 and factory().name == "random:404:100"

    def test_unknown_kind_is_structured(self):
        with pytest.raises(SpecError) as exc_info:
            WorkloadSpec.parse("nope:1:2")
        err = exc_info.value
        assert err.field == "workload" and err.value == "nope:1:2"
        assert "balanced" in err.allowed and "fib-10" in err.allowed
        assert isinstance(err, ReproError) and isinstance(err, ValueError)

    def test_bad_int_arg_names_token_and_position(self):
        with pytest.raises(SpecError) as exc_info:
            WorkloadSpec.parse("balanced:3:x:10")
        err = exc_info.value
        assert err.value == "x"
        assert err.position == len("balanced:3:")

    @pytest.mark.parametrize(
        "text,field,position",
        [
            ("chain:0:5", "workload.chain.length", len("chain:")),
            ("wide:0:5", "workload.wide.width", len("wide:")),
            ("balanced:3:0:10", "workload.balanced.fanout", len("balanced:3:")),
            ("balanced:-3:2:10", "workload.balanced.depth", len("balanced:")),
            ("random:1:0", "workload.random.tasks", len("random:1:")),
        ],
    )
    def test_out_of_bound_args_fail_at_parse(self, text, field, position):
        # the bounds are trees.py's own, checked before any tree is built
        with pytest.raises(SpecError, match="must be >=") as exc_info:
            WorkloadSpec.parse(text)
        assert exc_info.value.field == field
        assert exc_info.value.position == position

    def test_wrong_arity(self):
        with pytest.raises(SpecError, match="takes"):
            WorkloadSpec.parse("random:1:2:3")
        with pytest.raises(SpecError, match="takes"):
            WorkloadSpec.parse("balanced:")

    def test_unknown_program(self):
        with pytest.raises(SpecError) as exc_info:
            WorkloadSpec.parse("prog:nosuch:3")
        assert "fib" in exc_info.value.allowed

    def test_json_roundtrip(self):
        for text in ("fib-10", "balanced:4:2:30", "prog:tak:7:4:2"):
            spec = WorkloadSpec.parse(text)
            assert WorkloadSpec.from_json(spec.to_json()) == spec

    def test_from_json_validates_through_the_grammar(self):
        with pytest.raises(SpecError):
            WorkloadSpec.from_json({"kind": "named", "name": "nope"})
        with pytest.raises(SpecError):
            WorkloadSpec.from_json({"kind": "bogus", "args": [1]})
        with pytest.raises(SpecError, match="malformed"):
            WorkloadSpec.from_json({"name": "fib-10"})  # missing kind


class TestPolicySpec:
    def test_simple_policies(self):
        for name in ("none", "rollback", "splice"):
            spec = PolicySpec.parse(name)
            assert spec == PolicySpec(name) and spec.to_spec_str() == name
            assert spec.build().name == name

    def test_replicated_with_and_without_k(self):
        assert PolicySpec.parse("replicated:5").build().k == 5
        # bare `replicated` defers k to the machine's replication factor
        assert PolicySpec.parse("replicated").build()._k is None
        assert PolicySpec.parse("replicated").to_spec_str() == "replicated"
        assert PolicySpec.parse("replicated:3").to_spec_str() == "replicated:3"

    def test_bare_replicated_follows_machine_replication(self):
        from repro.api import Experiment

        def accepted(k):
            handle = (
                Experiment.workload("balanced:2:2:5")
                .policy("replicated")
                .replication(k)
                .processors(5)
                .run()
            )
            assert handle.completed
            return handle.record["metrics"]["tasks_accepted"]

        # replicated work scales with the *machine's* replication factor,
        # so .replication(k) governs the policy as documented
        assert accepted(5) > accepted(3) > accepted(1)

    def test_unknown_policy_lists_allowed(self):
        with pytest.raises(SpecError) as exc_info:
            PolicySpec.parse("splicy")
        assert "rollback" in exc_info.value.allowed

    def test_simple_policy_rejects_parameter(self):
        with pytest.raises(SpecError, match="takes no parameter"):
            PolicySpec.parse("rollback:3")

    def test_bad_k(self):
        with pytest.raises(SpecError, match="expected int"):
            PolicySpec.parse("replicated:many")
        # k < 1 would spin to the event budget; the bound rejects it at parse
        for text in ("replicated:0", "replicated:-2"):
            with pytest.raises(SpecError, match="must be >= 1") as exc_info:
                PolicySpec.parse(text)
            assert exc_info.value.position == len("replicated:")

    def test_reversible_is_a_simple_policy(self):
        spec = PolicySpec.parse("reversible")
        assert spec == PolicySpec("reversible")
        assert spec.to_spec_str() == "reversible"
        assert spec.build().name == "reversible"
        with pytest.raises(SpecError, match="takes no parameter"):
            PolicySpec.parse("reversible:3")

    def test_incremental_with_and_without_persist(self):
        bare = PolicySpec.parse("incremental")
        assert bare.persist is None and bare.to_spec_str() == "incremental"
        # bare `incremental` defers to the policy default, volatile
        assert bare.build().persist == "volatile"
        for mode in ("volatile", "durable", "hybrid"):
            text = f"incremental:persist={mode}"
            spec = PolicySpec.parse(text)
            assert spec.persist == mode and spec.to_spec_str() == text
            assert spec.build().persist == mode

    def test_incremental_unknown_parameter_diagnostics(self):
        with pytest.raises(SpecError) as exc_info:
            PolicySpec.parse("incremental:durability=on")
        err = exc_info.value
        assert err.field == "policy.incremental"
        assert err.value == "durability"
        assert err.allowed == ("persist",)
        assert err.position == len("incremental:")

    def test_incremental_bad_persist_value_diagnostics(self):
        with pytest.raises(SpecError) as exc_info:
            PolicySpec.parse("incremental:persist=bogus")
        err = exc_info.value
        assert err.field == "policy.persist"
        assert err.value == "bogus"
        assert err.allowed == ("volatile", "durable", "hybrid")
        assert err.position == len("incremental:persist=")

    def test_unknown_policy_lists_parameterized_forms(self):
        with pytest.raises(SpecError) as exc_info:
            PolicySpec.parse("healing")
        allowed = exc_info.value.allowed
        assert "reversible" in allowed
        assert "incremental[:persist=MODE]" in allowed

    def test_json_roundtrip(self):
        for text in ("none", "splice", "replicated", "replicated:5",
                     "reversible", "incremental", "incremental:persist=hybrid"):
            spec = PolicySpec.parse(text)
            assert PolicySpec.from_json(spec.to_json()) == spec
        for doc in ({"name": "replicated", "k": 0}, {"name": "rollback", "k": 3}):
            with pytest.raises(SpecError):
                PolicySpec.from_json(doc)

    def test_persist_json_key_only_when_set(self):
        # pre-existing documents (and the cache keys derived from them)
        # must stay byte-identical, so `persist` is conditional
        assert "persist" not in PolicySpec.parse("rollback").to_json()
        assert "persist" not in PolicySpec.parse("incremental").to_json()
        doc = PolicySpec.parse("incremental:persist=durable").to_json()
        assert doc["persist"] == "durable"


class TestFaultSpec:
    def test_parse_frac_schedule(self):
        spec = FaultSpec.parse("0.5:1+0.9:4")
        assert spec.entries == ((0.5, 1), (0.9, 4)) and spec.mode == "frac"
        assert spec.to_spec_str() == "0.5:1+0.9:4"

    def test_parse_time_schedule(self):
        spec = FaultSpec.parse("600:2", mode="time")
        assert spec.entries == ((600.0, 2),) and spec.mode == "time"
        # non-default modes are self-describing in the string form, so a
        # bare re-parse cannot silently demote absolute times to fractions
        assert spec.to_spec_str() == "time:600:2"
        assert FaultSpec.parse(spec.to_spec_str()) == spec

    def test_mode_prefix_overrides_parse_default(self):
        spec = FaultSpec.parse("time:600:2")
        assert spec.mode == "time" and spec.entries == ((600.0, 2),)
        assert FaultSpec.parse("frac:0.5:1", mode="time").mode == "frac"

    def test_empty_schedule_normalizes_mode(self):
        assert FaultSpec.parse("", mode="time") == FaultSpec.parse("")
        assert FaultSpec.parse("", mode="time").to_spec_str() == ""

    def test_empty_is_falsy(self):
        assert not FaultSpec.parse("")
        assert FaultSpec.parse("0.5:1")

    def test_malformed_items(self):
        with pytest.raises(SpecError, match="must be"):
            FaultSpec.parse("nope")
        with pytest.raises(SpecError, match="must be"):
            FaultSpec.parse("600", mode="time")
        with pytest.raises(SpecError, match="expected float"):
            FaultSpec.parse("x:1")
        with pytest.raises(SpecError, match="expected int"):
            FaultSpec.parse("0.5:n")

    def test_error_position_points_at_bad_item(self):
        with pytest.raises(SpecError) as exc_info:
            FaultSpec.parse("0.5:1+bad")
        assert exc_info.value.position == len("0.5:1+")

    def test_unknown_mode(self):
        with pytest.raises(SpecError, match="unknown fault mode"):
            FaultSpec.parse("0.5:1", mode="relative")

    def test_exponent_floats_round_trip(self):
        # repr(1e16) is '1e+16'; the '+' must not collide with the
        # entry separator
        spec = FaultSpec(((1e16, 1),), "time")
        assert FaultSpec.parse(spec.to_spec_str()) == spec

    def test_schedule_frac_scales_and_clamps(self):
        schedule = FaultSpec.parse("0.5:1+0.001:2").schedule(100.0)
        assert sorted((f.time, f.node) for f in schedule) == [(1.0, 2), (50.0, 1)]

    def test_schedule_time_is_absolute(self):
        schedule = FaultSpec.parse("600:2", mode="time").schedule()
        assert [(f.time, f.node) for f in schedule] == [(600.0, 2)]

    def test_schedule_frac_requires_baseline(self):
        with pytest.raises(SpecError, match="baseline"):
            FaultSpec.parse("0.5:1").schedule()

    def test_json_roundtrip(self):
        for text, mode in (("0.5:1+0.9:4", "frac"), ("600:2+900:1", "time"), ("", "frac")):
            spec = FaultSpec.parse(text, mode=mode)
            assert FaultSpec.from_json(spec.to_json()) == spec


class TestNemesisSpec:
    def test_parse_composition_preserves_clause_order(self):
        spec = NemesisSpec.parse("crash:at=0.4,node=1+jitter:max=25")
        assert [c.model for c in spec.clauses] == ["crash", "jitter"]

    def test_canonical_param_order_is_registry_order(self):
        # given out of declaration order, re-serialized canonically
        spec = NemesisSpec.parse("crash:node=1,at=0.4")
        assert spec.to_spec_str() == "crash:at=0.4,node=1"
        assert NemesisSpec.parse(spec.to_spec_str()) == spec

    def test_integral_floats_round_trip_bytewise(self):
        text = "chaos:drop=0.05,dup=0.1,reorder=0.2,span=40"
        assert NemesisSpec.parse(text).to_spec_str() == text

    def test_node_groups(self):
        spec = NemesisSpec.parse("partition:start=0.3,dur=0.25,group=0-1-3")
        assert dict(spec.clauses[0].params)["group"] == (0, 1, 3)
        assert spec.to_spec_str() == "partition:start=0.3,dur=0.25,group=0-1-3"

    def test_build_scales_fraction_params(self):
        spec = NemesisSpec.parse("crash:at=0.5,node=1")
        crash = list(spec.build(200.0))[0]
        assert [(f.time, f.node) for f in crash.schedule] == [(100.0, 1)]

    def test_empty(self):
        assert not NemesisSpec.parse("")
        assert not NemesisSpec.parse("  ")
        assert len(NemesisSpec.parse("").build(100.0)) == 0

    def test_unknown_model_is_structured(self):
        with pytest.raises(SpecError) as exc_info:
            NemesisSpec.parse("crash:at=0.4,node=1+nosuch:x=1")
        err = exc_info.value
        assert err.value == "nosuch" and "partition" in err.allowed
        assert err.position == len("crash:at=0.4,node=1+")

    def test_unknown_param_missing_param_bad_value(self):
        with pytest.raises(SpecError, match="unknown parameter"):
            NemesisSpec.parse("crash:at=0.4,node=1,bogus=3")
        with pytest.raises(SpecError, match="missing parameters"):
            NemesisSpec.parse("crash:at=0.4")
        with pytest.raises(SpecError, match="bad value"):
            NemesisSpec.parse("crash:at=half,node=1")

    def test_json_roundtrip(self):
        for text in (
            "",
            "crash:at=0.35,node=1+chaos:drop=0.05,dup=0.1,reorder=0.2,span=40+jitter:max=25",
            "partition:start=0.3,dur=0.25,group=0-1",
        ):
            spec = NemesisSpec.parse(text)
            assert NemesisSpec.from_json(spec.to_json()) == spec


class TestMachineSpec:
    def test_defaults(self):
        spec = MachineSpec.parse("")
        assert spec == MachineSpec()
        assert spec.to_spec_str() == ""

    def test_parse_fields_and_cost(self):
        spec = MachineSpec.parse(
            "processors=8,topology=ring,cost.detector_delay=400"
        )
        assert spec.processors == 8 and spec.topology == "ring"
        assert dict(spec.cost) == {"detector_delay": 400.0}
        assert MachineSpec.parse(spec.to_spec_str()) == spec

    def test_unknown_field_topology_scheduler_cost(self):
        with pytest.raises(SpecError, match="unknown machine field"):
            MachineSpec.parse("cpus=8")
        with pytest.raises(SpecError) as exc_info:
            MachineSpec.parse("topology=tube")
        assert "hypercube" in exc_info.value.allowed
        with pytest.raises(SpecError, match="unknown scheduler"):
            MachineSpec.parse("scheduler=fifo")
        with pytest.raises(SpecError, match="unknown cost field"):
            MachineSpec.parse("cost.latency=3")

    def test_to_config(self):
        config = MachineSpec.parse("processors=6,cost.hop_latency=9").to_config(seed=4)
        assert config.n_processors == 6 and config.seed == 4
        assert config.cost.hop_latency == 9.0

    def test_from_params_rejects_unknown_cost(self):
        with pytest.raises(SpecError, match="unknown cost fields"):
            MachineSpec.from_params({"cost": {"latency": 1.0}})

    def test_from_params_coerces_and_guards_cost_values(self):
        spec = MachineSpec.from_params({"cost": {"detector_delay": "400"}})
        assert dict(spec.cost) == {"detector_delay": 400.0}
        with pytest.raises(SpecError, match="expected float"):
            MachineSpec.from_params({"cost": {"detector_delay": "abc"}})
        with pytest.raises(SpecError, match="mapping"):
            MachineSpec.from_params({"cost": 5})

    def test_json_roundtrip(self):
        spec = MachineSpec.parse("processors=8,scheduler=static,cost.ack_timeout=100")
        assert MachineSpec.from_json(spec.to_json()) == spec


#: One valid body per keyed grammar; its first key takes a number.
KEYED_GRAMMARS = [
    pytest.param(NemesisSpec, "crash:", "at=0.4,node=1", id="nemesis"),
    pytest.param(MachineSpec, "", "processors=8,replication=2", id="machine"),
    pytest.param(ArrivalSpec, "poisson:", "rate=0.01,horizon=100", id="arrival"),
]


@pytest.mark.parametrize("cls,head,body", KEYED_GRAMMARS)
@pytest.mark.parametrize(
    "mistake", ["duplicate key", "empty item", "trailing comma", "bad value", "unknown key"]
)
def test_keyed_grammars_share_one_set_of_rules(cls, head, body, mistake):
    # nemesis, machine and arrival specs go through one clause parser,
    # so each mistake fails the same way, positioned at the offender
    first, rest = body.split(",", 1)
    key = first.partition("=")[0]
    text, match, offender = {
        "duplicate key": (f"{head}{body},{key}=2", "duplicate", f"{key}=2"),
        "empty item": (f"{head}{first}, ,{rest}", "key=value", " ,"),
        "trailing comma": (f"{head}{body},", "key=value", ""),
        "bad value": (f"{head}{key}=oops,{rest}", "bad value", "oops"),
        "unknown key": (f"{head}{body}, zzz=1", "unknown", "zzz"),
    }[mistake]
    with pytest.raises(SpecError, match=match) as exc_info:
        cls.parse(text)
    assert text[exc_info.value.position:].startswith(offender)


class TestRunSpec:
    PARAMS = {
        "workload": "balanced:3:2:10",
        "policy": "splice",
        "processors": 4,
        "seed": 11,
        "faults": "0.5:1",
        "nemesis": "jitter:max=25",
        "base_policy": "rollback",
    }

    def test_from_params(self):
        spec = RunSpec.from_params(self.PARAMS)
        assert spec.workload.to_spec_str() == "balanced:3:2:10"
        assert spec.policy.name == "splice"
        assert spec.seed == 11
        assert spec.faults.entries == ((0.5, 1),)
        assert spec.base_policy == PolicySpec("rollback")

    def test_from_params_folds_fault_frac_and_victim(self):
        spec = RunSpec.from_params(
            {"workload": "balanced:2:2:5", "seed": 0, "faults": "0.3:2",
             "fault_frac": 0.7, "victim": 1}
        )
        assert spec.faults.entries == ((0.3, 2), (0.7, 1))

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown run parameter"):
            RunSpec.from_params({"workload": "fib-10", "seed": 0, "polcy": "splice"})

    def test_from_params_honors_time_mode_fault_prefix(self):
        # a self-describing "time:" schedule must not be relabeled as
        # fractions (which would misplace faults by a factor of the
        # baseline makespan)
        spec = RunSpec.from_params(
            {"workload": "balanced:2:2:5", "seed": 0, "faults": "time:600:2"}
        )
        assert spec.faults.mode == "time"
        assert spec.faults.entries == ((600.0, 2),)

    def test_from_params_rejects_time_faults_mixed_with_fault_frac(self):
        with pytest.raises(SpecError, match="time-mode"):
            RunSpec.from_params(
                {"workload": "balanced:2:2:5", "seed": 0,
                 "faults": "time:600:2", "fault_frac": 0.5}
            )

    def test_from_params_requires_workload_and_seed(self):
        with pytest.raises(SpecError, match="workload"):
            RunSpec.from_params({"seed": 0})
        with pytest.raises(SpecError, match="seed"):
            RunSpec.from_params({"workload": "fib-10"})

    def test_json_roundtrip(self):
        spec = RunSpec.from_params(self.PARAMS)
        doc = spec.to_json()
        assert doc["schema"] == RUNSPEC_SCHEMA
        assert RunSpec.from_json(doc) == spec

    def test_from_json_rejects_unknown_schema(self):
        with pytest.raises(SpecError, match="schema"):
            RunSpec.from_json({"schema": "repro-runspec/99", "workload": "fib-10"})

    def test_from_json_rejects_mode_prefix_disagreement(self):
        base = RunSpec.from_params({"workload": "fib-10", "seed": 0}).to_json()
        with pytest.raises(SpecError, match="disagrees"):
            RunSpec.from_json(
                {**base, "faults": {"mode": "frac", "schedule": "time:600:2"}}
            )
        # agreement (prefix or bare) loads fine
        for schedule in ("time:600:2", "600:2"):
            spec = RunSpec.from_json(
                {**base, "faults": {"mode": "time", "schedule": schedule}}
            )
            assert spec.faults.mode == "time"

    def test_from_json_rejects_typod_keys(self):
        # a hand-edited document must not silently run a different
        # experiment than written
        base = RunSpec.from_params({"workload": "fib-10", "seed": 0}).to_json()
        with pytest.raises(SpecError, match="nemessis"):
            RunSpec.from_json({**base, "nemessis": "crash:at=0.5,node=1"})
        with pytest.raises(SpecError, match="procesors"):
            RunSpec.from_json({**base, "machine": {"procesors": 64}})

    def test_from_json_malformed_documents_raise_spec_errors(self):
        # every malformed shape surfaces as a structured SpecError, never
        # a raw KeyError/AttributeError/TypeError traceback
        for payload in (
            {"schema": RUNSPEC_SCHEMA},  # missing workload
            [],  # not an object
            {"schema": RUNSPEC_SCHEMA, "workload": "fib-10", "faults": "0.5:1"},
            {"schema": RUNSPEC_SCHEMA, "workload": "fib-10", "seed": "eleven"},
        ):
            with pytest.raises(SpecError):
                RunSpec.from_json(payload)

    def test_leaf_from_json_malformed_documents_raise_spec_errors(self):
        with pytest.raises(SpecError, match="unknown fault model"):
            NemesisSpec.from_json({"clauses": [{"model": "nosuch", "params": {}}]})
        with pytest.raises(SpecError, match="bad value"):
            NemesisSpec.from_json(
                {"clauses": [{"model": "crash", "params": {"at": "x", "node": 1}}]}
            )
        with pytest.raises(SpecError, match="malformed"):
            NemesisSpec.from_json({"clauses": ["crash"]})
        with pytest.raises(SpecError, match="malformed"):
            FaultSpec.from_json({"entries": [["x", 1]]})

    def test_canonical_json_is_byte_stable(self):
        spec = RunSpec.from_params(self.PARAMS)
        assert spec.canonical_json() == RunSpec.from_json(spec.to_json()).canonical_json()

    def test_validate_catches_bad_fault_node(self):
        spec = RunSpec.from_params(
            {"workload": "fib-10", "seed": 0, "processors": 4, "fault_frac": 0.5,
             "victim": 9}
        )
        with pytest.raises(SpecError, match="unknown processor"):
            spec.validate()

    def test_validate_catches_config_cross_field(self):
        spec = RunSpec.from_params(
            {"workload": "fib-10", "seed": 0, "processors": 6, "topology": "hypercube"}
        )
        with pytest.raises(SpecError, match="power-of-two"):
            spec.validate()

    def test_validate_catches_nemesis_model_errors(self):
        spec = RunSpec.from_params(
            {"workload": "fib-10", "seed": 0, "processors": 4,
             "nemesis": "partition:start=0.3,dur=0.2,group=0-9"}
        )
        with pytest.raises(SpecError):
            spec.validate()
