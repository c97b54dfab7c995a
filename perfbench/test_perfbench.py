"""Tests of the benchmark's own machinery: wrappers, spans, self time, tail
percentile, the MAC self-check and the agreement with BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dmfnet  # noqa: E402
from dmfnet import ops  # noqa: E402

import bench  # noqa: E402
import spans  # noqa: E402

TINY = {
    "tiny-infer": bench.WorkloadSpec("infer", "toy", (16, 16, 16), min_ops=2),
    "tiny-train": bench.WorkloadSpec("train", "toy", (20, 20, 20), min_ops=4, crop=16, cases=2),
}


def _holders():
    return [(owner, key) for module, attr, *_ in spans.TARGETS
            for owner, key in spans._holders(module, attr)]


def _current(holders):
    return [getattr(owner, key) for owner, key in holders]


@pytest.fixture
def tiny(monkeypatch):
    for name, spec in TINY.items():
        monkeypatch.setitem(bench.WORKLOADS, name, spec)
    monkeypatch.setattr(bench, "sgemm_ceilings", lambda: (100.0, 50.0))


def _spy_ops(monkeypatch, cls, holders, originals):
    """Record, at every op, whether each target is still the original."""
    seen = []
    op = cls.op

    def spy(self, i):
        seen.append(all(a is b for a, b in zip(_current(holders), originals)))
        return op(self, i)

    monkeypatch.setattr(cls, "op", spy)
    return seen


@pytest.mark.parametrize("name,cls", [("tiny-infer", bench.InferWorkload),
                                      ("tiny-train", bench.TrainWorkload)])
def test_untraced_run_installs_no_wrappers(tiny, monkeypatch, name, cls):
    holders = _holders()
    originals = _current(holders)
    seen = _spy_ops(monkeypatch, cls, holders, originals)
    result, record, tracer = bench.run(name, seed=3, seconds=0.0, trace=0)
    assert tracer is None
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == {n for n, _, _ in bench.END_TO_END}
    assert seen and all(seen)
    assert _current(holders) == originals


def test_traced_run_wraps_then_restores(tiny, monkeypatch):
    holders = _holders()
    originals = _current(holders)
    seen = _spy_ops(monkeypatch, bench.TrainWorkload, holders, originals)
    result, record, tracer = bench.run("tiny-train", seed=3, seconds=0.0, trace=1)
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == {n for n, _ in bench.PER_LAYER}
    # warm-up and untraced ops first, then traced ones
    assert seen[0] and seen[1] and not seen[-1]
    assert _current(holders) == originals
    names = {s.name for s in tracer.spans}
    assert {"ops.conv3d.k3", "ops.conv3d_weight_grad.k1", "autograd.backward",
            "training.train_step", "data.augment", "losses.generalized_dice_loss"} <= names


@pytest.mark.parametrize("factor,dtype,problem", [
    (-1.0, np.float32, "float64 replay"),    # wrong in float32 only
    (0.0, None, "central difference"),       # wrong in float64 too: the replay agrees
    (2.0, None, "central difference"),       # a factor a first Adam step hides
])
def test_train_checks_catch_wrong_weight_gradients(tiny, monkeypatch, factor, dtype, problem):
    original = ops.conv3d_weight_grad

    def wrong(*args, **kwargs):
        g = original(*args, **kwargs)
        return g * factor if dtype is None or g.dtype == dtype else g

    monkeypatch.setattr(ops, "conv3d_weight_grad", wrong)
    result, record, _ = bench.run("tiny-train", seed=3, seconds=0.0, trace=0)
    assert not result["correct"]
    assert any(problem in p for p in record["problems"]), record["problems"]


def test_wrappers_restore_originals_after_an_error():
    holders = _holders()
    originals = _current(holders)
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed_wrappers():
            assert _current(holders) != originals
            raise ValueError("boom")
    assert _current(holders) == originals


def test_wrapper_records_spans_and_counts_errors():
    gdl = dmfnet.losses.generalized_dice_loss
    tracer = spans.Tracer()
    with tracer.installed_wrappers():
        ops.add(np.ones((1, 1, 1, 1, 2)), np.ones((1, 1, 1, 1, 2)))
        with pytest.raises(dmfnet.errors.ShapeError):
            ops.add(np.ones((1, 1, 1, 1, 2)), np.ones((1, 1, 1, 1, 3)))
        # training holds generalized_dice_loss under its own name: wrapped there too
        assert dmfnet.training.generalized_dice_loss is dmfnet.losses.generalized_dice_loss
        assert dmfnet.training.generalized_dice_loss is not gdl
    assert [s.name for s in tracer.spans] == ["ops.add", "ops.add"]
    assert tracer.errors["ops.add"] == 1
    assert dmfnet.training.generalized_dice_loss is gdl


def test_self_time_on_hand_built_spans_is_exact():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, 0, None),
        S("a", 1.0, 3.0, 0, 0, None),
        S("a.child", 1.5, 2.0, 1, 0, None),
        S("b", 2.0, 4.0, 0, 0, None),      # overlaps a: the union counts once
        S("c", 6.0, 7.0, 0, 0, None),
        S("d", 9.5, 12.0, 0, 0, None),     # runs past its parent: clipped
        S("other", 20.0, 21.0, -1, 1, None),
    ]
    assert spans.self_times(tree) == [10.0 - 3.0 - 1.0 - 0.5, 1.5, 0.5, 2.0, 1.0, 2.5, 1.0]


def test_tracer_nests_spans_under_the_open_one():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")
    for _ in range(2):
        tracer.end(tracer.begin("inner"))
    tracer.end(outer)
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 16.0, -1), ("inner", 1.0, 2.0, 0), ("inner", 4.0, 8.0, 0)]
    assert spans.self_times(tracer.spans) == [16.0 - 1.0 - 4.0, 1.0, 4.0]


@pytest.mark.parametrize("n,label", [
    (1, "max"), (5, "max"), (19, "max"), (20, "p50"), (37, "p50"), (38, "p75"),
    (99, "p90"), (100, "p90"), (199, "p95"), (999, "p99"), (10_000, "p99.9"),
])
def test_tail_percentile(n, label):
    samples = list(np.random.default_rng(n).permutation(n) + 1.0)
    got_label, value = bench.tail_percentile(samples)
    assert got_label == label
    if label == "max":
        assert value == max(samples)
        return
    assert value == np.percentile(samples, float(label[1:]))
    assert sum(s > value for s in samples) >= bench.TAIL_BEYOND
    higher = [p for p in bench.TAIL_LADDER if p > float(label[1:])]
    if higher:
        assert sum(s > np.percentile(samples, min(higher)) for s in samples) < bench.TAIL_BEYOND


def test_reference_runs_around_every_op():
    events = []

    class Ops:
        def op(self, i):
            events.append(f"op{i}")
            return i

        def check(self, out):
            return True

    def reference():
        events.append("ref")
        return 2.0 + len(events)

    phase = bench.timed_loop(Ops(), 0.0, 3, 5, reference)
    assert events == ["ref", "op5", "ref", "op6", "ref", "op7", "ref"]
    assert phase.ref_s == [3.0, 5.0, 7.0, 9.0]
    assert list(phase.ids) == [5, 6, 7]


def test_op_over_ref_divides_by_the_mean_of_the_neighbouring_references():
    phase = bench.Phase(1, durations=[2.0, 3.0, 8.0], ref_s=[1.0, 3.0, 1.0, 7.0])
    assert phase.ratios == [1.0, 1.5, 2.0]


def test_mac_check_catches_a_mismatch(tiny):
    tracer = spans.Tracer()
    wl = TINY["tiny-train"].build(3, None)
    with tracer.installed_wrappers():
        phase = bench.timed_loop(wl, 0.0, 1, 0, lambda: 1.0, tracer=tracer)
    assert bench.mac_check(tracer, phase, wl) == []
    conv = next(s for s in tracer.spans if s.name == "ops.conv3d.k1")
    conv.work["macs"] += 1
    assert len(bench.mac_check(tracer, phase, wl)) == 1


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
