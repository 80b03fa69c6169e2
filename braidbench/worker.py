"""One workload process: import, generate, cold pass, then timed passes.

    python3 braidbench/worker.py --workload W --seed S --seconds T \
        --mode measure|setup|trace

``run.py`` starts this in fresh interpreters, one after another, so
import cost, warm caches and peak memory are per workload.  It writes
one JSON object per line to stdout: ``ready`` once the first (cold) pass
is done, then ``done`` with the per-operation times of the warm passes
and, in trace mode, the layer figures.  A ``setup`` process stops after
the cold pass.  Times come in wall seconds and in reference seconds of a
``RefClock`` (``refclock.py``) that runs from the start of ``main``.
The workload is a closed loop: one caller, one thread, each operation
starting when the previous one has returned.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import corpus
import ops
from refclock import RefClock
from spans import Tracer


def emit(obj: dict):
    print(json.dumps(obj), flush=True)


def run_pass(op_list: list, anchors: dict, tracer: Tracer = None,
             op_base: int = 0, clock: RefClock = None) -> dict:
    """One walk over the corpus.  Returns wall seconds, per-operation
    wall and (with a clock) reference seconds, answers and failure
    reasons (None where the checks held)."""
    times, ref, texts, failures = [], [], [], []
    t_pass = perf_counter()
    for i, op in enumerate(op_list):
        if tracer is not None:
            tracer.op = op_base + i
        t0 = perf_counter()
        try:
            text, reason = ops.run(op, anchors)
        except Exception:  # an operation that raises is a failed operation
            text, reason = None, traceback.format_exc()
        t1 = perf_counter()
        times.append(t1 - t0)
        if clock is not None:
            ref.append(clock.seconds(t0, t1))
        texts.append(text)
        failures.append(reason)
        if reason is not None:
            print(f"FAILED {op.anchor.key} as {op.word!r}: {reason}",
                  file=sys.stderr)
    return {"wall": perf_counter() - t_pass, "times": times, "ref": ref,
            "texts": texts, "failures": failures}


def timed_passes(seconds: float, one_pass) -> list:
    """Whole passes while the next one, judged by the last, still ends
    within `seconds` (at least one), with a full collection before each
    one and the collector left on."""
    out = []
    start, last = perf_counter(), 0.0
    while not out or perf_counter() + last <= start + seconds:
        t = perf_counter()
        gc.collect()
        out.append(one_pass())
        last = perf_counter() - t
    return out


def ref_pass_s(passes: list) -> float:
    """Median reference seconds of one pass."""
    return statistics.median(sum(p["ref"]) for p in passes)


def layer_metrics(tracer: Tracer, traced: list, clock: RefClock) -> dict:
    """Per-pass layer figures from the spans, in reference seconds, as
    medians over the traced passes, plus the lowest span coverage (of
    wall time) of any operation."""
    per_pass, coverage = [], []
    for p in traced:
        first, last = p["span_range"]
        m = tracer.summary(first, last, clock.seconds)
        m.update(p["counters"])
        calls = m.get("homology.slice_subquotient.calls", 0)
        m["homology.slice_subquotient.empty_ratio"] = (
            m.get("homology.slice_subquotient.empty", 0) / calls
            if calls else 0.0)
        per_pass.append(m)
        covered = tracer.covered(first, last)
        for i, t in enumerate(p["times"]):
            coverage.append(covered.get(p["op_base"] + i, 0.0) / t)
    keys = set().union(*per_pass)
    out = {k: statistics.median(m.get(k, 0) for m in per_pass) for k in keys}
    out["trace.coverage"] = min(coverage)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("measure", "setup", "trace"))
    ap.add_argument("--spans", help="file for the trace's spans (.tsv.gz)")
    args = ap.parse_args(argv)

    clock = RefClock()
    clock.start()
    t_start = perf_counter()
    op_list = corpus.variants(args.workload, args.seed)
    anchors = corpus.load_anchors()
    cold = run_pass(op_list, anchors, clock=clock)
    done = [cold]
    # The parent adds the wall time from its spawn to t_start.
    emit({"event": "ready", "t_start": t_start,
          "ref_s": clock.seconds(t_start, perf_counter())})

    result = {"event": "done"}
    if args.mode == "measure":
        warm = timed_passes(
            args.seconds, lambda: run_pass(op_list, anchors, clock=clock))
        done += warm
        result["pass_s"] = ref_pass_s(warm)
        result["pass_ref_s"] = [sum(p["ref"]) for p in warm]
        result["pass_wall_s"] = [p["wall"] for p in warm]
    elif args.mode == "trace":
        # Untraced and traced passes alternate, so the overhead compares
        # passes run close together in time.
        tracer = Tracer()
        warm, traced = [], []

        def pair():
            warm.append(run_pass(op_list, anchors, clock=clock))
            gc.collect()
            tracer.counters.clear()
            first = len(tracer.start)
            base = len(op_list) * len(traced)
            with tracer:
                p = run_pass(op_list, anchors, tracer, op_base=base,
                             clock=clock)
            p.update(span_range=(first, len(tracer.start)), op_base=base,
                     counters=dict(tracer.counters))
            traced.append(p)

        timed_passes(args.seconds, pair)
        done += warm + traced
        mismatched = sum(t != c for p in traced
                         for t, c in zip(p["texts"], cold["texts"]))
        result["traced_mismatches"] = mismatched
        result["layers"] = layer_metrics(tracer, traced, clock)
        result["layers"]["trace.overhead_s"] = (ref_pass_s(traced)
                                                - ref_pass_s(warm))
        result["known"] = sorted(tracer.metric_names()
                                 | set(result["layers"]))
        result["spans"] = len(tracer.start)
        result["pairs"] = len(traced)
        if args.spans:
            tracer.write(args.spans, f"workload={args.workload} "
                         f"seed={args.seed} ops_per_pass={len(op_list)} "
                         f"nproc={os.cpu_count()} "
                         f"python={platform.python_version()}")
    clock.stop()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["attempted"] = sum(len(p["failures"]) for p in done)
    result["failed"] = sum(r is not None for p in done
                           for r in p["failures"])
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
