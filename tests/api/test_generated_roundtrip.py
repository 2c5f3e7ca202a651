"""Round-trip properties for *generated* specs.

``tests/api/test_roundtrip.py`` pins the registered values; this suite
extends the guarantee to the random schedules the adversarial searcher
draws: every generated :class:`NemesisSpec` must parse back from its
spec string byte-identically, survive the JSON round trip, and embed
into a valid RunSpec — otherwise a search ledger could name a
reproducer that the grammar cannot replay.

The Hypothesis properties at the end draw from every parameter table
the shared grammar serves — each fault model, each arrival process,
the machine fields including ``cost.*``, ``incremental:persist`` and
``replicated:K`` — and check the same three laws for all of them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ArrivalSpec,
    Experiment,
    MachineSpec,
    NemesisClause,
    NemesisSpec,
    PolicySpec,
    RunSpec,
)
from repro.api.specs import MACHINE_PARAMS, POLICY_TABLE
from repro.faults import (
    GENERATABLE_MODELS,
    all_models,
    random_clause,
    random_nemesis,
)
from repro.load import ARRIVAL_PROCESSES, PROCESSES

SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_schedule_roundtrips_byte_identically(seed):
    spec = random_nemesis(random.Random(seed), n_processors=4, max_clauses=3)
    text = spec.to_spec_str()
    assert NemesisSpec.parse(text) == spec
    assert NemesisSpec.parse(text).to_spec_str() == text  # fixed point
    assert NemesisSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("model", GENERATABLE_MODELS)
def test_every_generatable_model_roundtrips(model):
    rng = random.Random(0)
    for _ in range(10):
        clause = random_clause(rng, model, n_processors=8)
        spec = NemesisSpec((clause,))
        text = spec.to_spec_str()
        assert NemesisSpec.parse(text) == spec
        assert NemesisSpec.parse(text).to_spec_str() == text


@pytest.mark.parametrize("seed", list(SEEDS)[:10])
def test_generated_schedule_embeds_into_a_valid_runspec(seed):
    nemesis = random_nemesis(random.Random(seed), n_processors=4)
    spec = (
        Experiment.workload("balanced:3:2:10").processors(4)
        .nemesis(nemesis).build()
    )
    assert RunSpec.from_json(spec.to_json()) == spec
    assert spec.nemesis.to_spec_str() == nemesis.to_spec_str()


def test_generation_is_a_pure_function_of_the_rng():
    a = [random_nemesis(random.Random(7), 4, max_clauses=3) for _ in range(1)]
    b = [random_nemesis(random.Random(7), 4, max_clauses=3) for _ in range(1)]
    assert a == b
    stream_a = random.Random(7)
    stream_b = random.Random(7)
    for _ in range(10):
        assert random_nemesis(stream_a, 4) == random_nemesis(stream_b, 4)


def test_generated_schedules_respect_the_crash_family_cap():
    rng = random.Random(11)
    for _ in range(50):
        spec = random_nemesis(rng, 4, max_clauses=3)
        crash_family = [c for c in spec.clauses if c.model in ("crash", "cascade")]
        assert len(crash_family) <= 1
        for clause in crash_family:
            # node 0 hosts the root: never a seed victim
            assert dict(clause.params)["node"] != 0


def test_model_subset_is_honored():
    rng = random.Random(3)
    for _ in range(20):
        spec = random_nemesis(rng, 4, models=("jitter", "grayfail"))
        assert {c.model for c in spec.clauses} <= {"jitter", "grayfail"}


def test_unknown_model_subset_is_an_error():
    with pytest.raises(ValueError):
        random_nemesis(random.Random(0), 4, models=("nope",))


# -- every parameter table, generated -----------------------------------------


def _values(param):
    """Values of ``param``'s kind, inside its declared lower bound."""
    if param.kind == "choice":
        return st.sampled_from(param.choices)
    if param.kind == "flag":
        return st.sampled_from((0, 1))
    if param.kind == "nodes":
        return st.lists(st.integers(0, 63), min_size=1, max_size=5).map(tuple)
    lo = param.at_least if param.at_least is not None else param.above
    if param.kind == "int":
        return st.integers(
            min_value=-(10**6) if lo is None else int(lo) + (param.above is not None),
            max_value=10**6,
        )
    return st.floats(
        min_value=lo, allow_nan=False, allow_infinity=False,
        exclude_min=param.above is not None,
    )


@st.composite
def _given(draw, table):
    """Every required parameter of ``table`` plus a random optional
    subset, in declaration order (the canonical order)."""
    return tuple(
        (key, draw(_values(param)))
        for key, param in table.items()
        if param.required or draw(st.booleans())
    )


def _assert_roundtrips(cls, spec):
    text = spec.to_spec_str()
    assert cls.parse(text) == spec, text
    assert cls.parse(text).to_spec_str() == text  # canonical fixed point
    assert cls.from_json(spec.to_json()) == spec, text


@pytest.mark.parametrize("model", sorted(all_models()))
@settings(deadline=None)
@given(data=st.data())
def test_every_fault_model_table_roundtrips(model, data):
    params = data.draw(_given(all_models()[model].params))
    _assert_roundtrips(NemesisSpec, NemesisSpec((NemesisClause(model, params),)))


@pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
@settings(deadline=None)
@given(data=st.data())
def test_every_arrival_table_roundtrips(process, data):
    params = data.draw(_given(PROCESSES[process]))
    _assert_roundtrips(ArrivalSpec, ArrivalSpec(process, params))


@settings(deadline=None)
@given(params=_given(MACHINE_PARAMS))
def test_machine_table_roundtrips(params):
    shape = {k: v for k, v in params if not k.startswith("cost.")}
    cost = tuple((k[len("cost."):], v) for k, v in params if k.startswith("cost."))
    _assert_roundtrips(MachineSpec, MachineSpec(cost=cost, **shape))


@pytest.mark.parametrize("name", ["incremental", "replicated"])
@settings(deadline=None)
@given(data=st.data())
def test_parameterized_policy_tables_roundtrip(name, data):
    # a bare name is a valid spec too: the policy's own default applies
    params = data.draw(st.one_of(st.just(()), _given(POLICY_TABLE[name].params)))
    _assert_roundtrips(PolicySpec, PolicySpec(name, **dict(params)))
