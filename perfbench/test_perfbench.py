"""Tests of the benchmark's own arithmetic and of its observers.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from measure import (
    PassData,
    account,
    failed_ratio,
    fold,
    layer_self_times,
    percentile,
    reference_kernel,
    reference_rate,
    reference_seconds,
    resolved_tail,
    self_times,
    union_length,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# -- the percentile rule -------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile([3.0], 90) == 3.0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    tail = resolved_tail([float(x) for x in range(1, 101)])
    assert (tail.p, tail.value, tail.beyond, tail.n) == (90, 90.0, 10, 100)
    # 30 samples: p66 leaves 10 above it, p67 only 9.
    tail = resolved_tail(list(range(1, 31)))
    assert (tail.p, tail.value, tail.beyond, tail.n) == (66, 20, 10, 30)


def test_tail_counts_only_samples_strictly_beyond():
    # Ties at the percentile value are not "beyond" it.
    samples = [1.0] * 50 + [2.0] * 9
    assert resolved_tail(samples) is None
    tail = resolved_tail(samples + [2.0])
    assert tail is not None and tail.value == 1.0 and tail.beyond == 10


def test_too_few_samples_have_no_tail():
    assert resolved_tail(list(range(15))) is None
    assert resolved_tail([]) is None


# -- the reference kernel ------------------------------------------------------


def test_reference_kernel_does_fixed_work():
    # Reference seconds are only comparable across commits while the
    # kernel's work stays the same; its checksum pins that work.
    assert reference_kernel() == reference_kernel() == 1011449


def test_reference_seconds_rescale_by_the_square_root_of_the_kernel_time():
    # On the reference host they are host seconds; on a host whose kernel
    # runs 4x slower, half of them.
    assert reference_seconds(2.0, 0.05) == pytest.approx(2.0)
    assert reference_seconds(2.0, 0.2) == pytest.approx(1.0)
    assert reference_rate([(100, 2.0, 0.05)]) == pytest.approx(50.0)
    assert reference_rate([(100, 2.0, 0.2)]) == pytest.approx(100.0)
    # Over several windows: total work over total reference seconds.
    assert reference_rate([(100, 2.0, 0.05), (100, 2.0, 0.2)]) == pytest.approx(200 / 3.0)


# -- failed_ratio accounting ---------------------------------------------------


def test_operation_failures_are_counted_against_attempts():
    passes = [PassData(ops=28, failed=0, digest="a"), PassData(ops=28, failed=3, digest="a")]
    assert account(passes, "a") == (56, 3)
    assert failed_ratio(56, 3) == pytest.approx(3 / 56)


def test_digest_drift_fails_every_operation_of_the_pass():
    passes = [PassData(28, 0, "a"), PassData(28, 1, "b"), PassData(28, 0, "a")]
    assert account(passes, "a") == (84, 28)


def test_no_reference_checks_only_operations():
    assert account([PassData(4, 1, "x"), PassData(4, 0, "y")], None) == (8, 1)


def test_failed_ratio_of_nothing_attempted_is_total_failure():
    assert failed_ratio(0, 0) == 1.0


# -- digests -------------------------------------------------------------------


def test_fold_is_order_sensitive_and_key_order_blind():
    assert fold([{"a": 1, "b": 2.5}]) == fold([{"b": 2.5, "a": 1}])
    assert fold([1, 2]) != fold([2, 1])


DIGEST_SNIPPET = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
from tracer import ExecProbe, Patcher
from workloads import Context, _execute, _spec
from measure import fold
probe = ExecProbe()
probe.install(Patcher())
spec = _spec("balanced:4:2:10", "splice", 7, "crash:at=0.5,node=2+jitter:max=20")
ok, stats, _ = _execute(spec, Context(tmp=".", probe=probe))
assert ok
print(fold([stats]))
"""


def _digest_in_process(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    code = DIGEST_SNIPPET.format(src=SRC, here=HERE)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_digest_is_stable_across_hash_seeds():
    first = _digest_in_process("0")
    assert len(first) == 16
    assert first == _digest_in_process("4242")


# -- span self time ------------------------------------------------------------


def _span(sid, parent, layer, start, end):
    return (sid, parent, 0, layer, start, end, None)


def test_union_length_counts_overlap_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_the_children_it_covers():
    spans = [
        _span(0, -1, "api", 0.0, 10.0),
        _span(1, 0, "sim", 1.0, 4.0),
        _span(2, 0, "sim", 3.0, 6.0),  # overlaps its sibling
        _span(3, 0, "core", 8.0, 12.0),  # runs past its parent: clipped
        _span(4, 1, "core", 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - (5 + 2))
    assert selfs[1] == pytest.approx(3 - 1)
    assert selfs[4] == pytest.approx(1)
    by_layer = layer_self_times(spans)
    assert by_layer == pytest.approx({"api": 3.0, "sim": 5.0, "core": 5.0})


# -- the observers are inert ---------------------------------------------------


def test_layer_wrappers_change_no_simulated_statistic():
    sys.path.insert(0, SRC)
    import layers
    from tracer import ExecProbe, Patcher, Tracer
    from workloads import Context, _execute, _spec

    spec = _spec("prog:tak:7:4:2", "incremental:persist=hybrid", 3,
                 "cascade:at=0.3,node=1,prob=0.5,max=3+grayfail:node=2,start=0.2,dur=0.3,factor=3")
    probe, base = ExecProbe(), Patcher()
    probe.install(base)
    ctx = Context(tmp=".", probe=probe)
    try:
        _, plain, _ = _execute(spec, ctx)
        tracer, patcher = Tracer(), Patcher()
        layers.install(patcher, tracer)
        try:
            _, traced, _ = _execute(spec, ctx)
        finally:
            patcher.restore()
        _, again, _ = _execute(spec, ctx)
    finally:
        base.restore()
    assert fold([plain]) == fold([traced]) == fold([again])
    assert {s[3] for s in tracer.spans} >= {"sim.run", "core.checkpoint", "api.execute"}
