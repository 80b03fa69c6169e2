"""Self-tests of the benchmark's own checks and tracer.

    python3 -m pytest -q braidbench

They use the cheapest operations of each workload, so they take seconds.
"""

import inspect
import sys
from time import perf_counter

import corpus
import ops
import refclock
import worker
from refclock import RefClock
from spans import Tracer

CHEAP = {"homfly 2: 1 1 1", "sln N=2 2: 1 1 1", "cube 2: 1! 1 1",
         "wall 2: 1! 1 1"}


def cheap_ops(seed):
    return [op for name in corpus.WORKLOADS
            for op in corpus.variants(name, seed) if op.anchor.key in CHEAP]


def test_variants_are_deterministic_per_seed():
    for name in corpus.WORKLOADS:
        assert corpus.variants(name, 7) == corpus.variants(name, 7)
    seen = {tuple(repr(op) for op in corpus.variants("singular-cube", s))
            for s in range(4)}
    assert len(seen) > 1, "the seed changes nothing"


def test_two_seeds_give_anchor_identical_answers():
    anchors = corpus.load_anchors()
    for seed in (0, 1):
        op_list = cheap_ops(seed)
        assert len(op_list) == len(CHEAP)
        assert any(op.word != op.anchor.word or op.kwargs.get("scales")
                   or op.kwargs.get("scale") for op in op_list)
        p = worker.run_pass(op_list, anchors)
        assert p["failures"] == [None] * len(op_list)


def test_corrupted_anchor_hash_counts_as_a_failure():
    anchors = corpus.load_anchors()
    op_list = cheap_ops(0)
    for op in op_list:
        bad = dict(anchors)
        bad[op.anchor.key] = dict(anchors[op.anchor.key],
                                  sha256="0" * 64)
        p = worker.run_pass(op_list, bad)
        failed = [o.anchor.key for o, r in zip(op_list, p["failures"])
                  if r is not None]
        assert failed == [op.anchor.key]


def _snapshot():
    """Every attribute of every braidhom module and of the classes they
    define, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "braidhom" and not name.startswith("braidhom."):
            continue
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for a, raw in vars(obj).items():
                    out[(name, attr, a)] = raw
    return out


def test_tracer_restores_every_module_attribute():
    anchors = corpus.load_anchors()
    op_list = cheap_ops(0)
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        assert ops.homology.homfly_homology is not \
            before[("braidhom.homology", "homfly_homology")]
        # a re-imported name is rebound to the same wrapper
        assert ops.mfact.rouquier_complex is \
            sys.modules["braidhom.complexes"].rouquier_complex
        assert ops.mfact.rouquier_complex is not \
            before[("braidhom.mfact", "rouquier_complex")]
        p = worker.run_pass(op_list, anchors, tracer)
    after = _snapshot()
    assert p["failures"] == [None] * len(op_list)
    assert len(tracer.start) > 0
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_spans_cover_each_operation():
    anchors = corpus.load_anchors()
    op_list = cheap_ops(0)
    tracer = Tracer()
    with tracer:
        p = worker.run_pass(op_list, anchors, tracer)
    covered = tracer.covered(0, len(tracer.start))
    for i, t in enumerate(p["times"]):
        assert 0.9 < covered[i] / t <= 1.0
    summary = tracer.summary(0, len(tracer.start))
    assert summary["homology.homfly_homology.calls"] == 1
    assert summary["oracle.calls"] >= 1


def test_refclock_takes_host_speed_out_of_wall_time():
    clock = RefClock()
    ref = refclock.REF_PROBE_S
    # Probes at 1.0 (full speed) and 2.0 (half speed), each `ref` long.
    clock.at.extend([1.0, 2.0])
    clock.took.extend([ref, 2 * ref])
    # [0.5, 1.0) runs before the first probe, at its speed.
    assert abs(clock.seconds(0.5, 1.0) - 0.5) < 1e-12
    # Full speed up to the first probe, half speed from its end on; the
    # probes' own time is left out.
    want = 0.5 + (1 - ref) / 2 + (0.5 - 2 * ref) / 2
    assert abs(clock.seconds(0.5, 2.5) - want) < 1e-12
    # After the last probe: its speed.
    assert abs(clock.seconds(3.0, 4.0) - 0.5) < 1e-12


def test_refclock_samples_while_started():
    clock = RefClock()
    clock.start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.1:
            refclock.probe()
        t1 = perf_counter()
    finally:
        clock.stop()
    assert len(clock.at) >= 5
    assert 0 < clock.seconds(t0, t1) < 10 * (t1 - t0)
