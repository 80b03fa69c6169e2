"""The braidhom benchmark: one workload, one seed, one JSON line.

    python3 braidbench/run.py --workload homfly-knots --seed 0 \
        --seconds 20 --trace 0

Workloads and why they were chosen are in ``corpus.py``.  Each run
starts fresh interpreters (``worker.py``), one after another, so nothing
runs concurrently with the measured process:

* ``--trace 0``: one process sets up and then runs warm passes for
  ``--seconds``; ``PROCESSES - 1`` more only set up, for more samples of
  the set-up time.  Prints the end-to-end metrics of ``BENCHMARK.json``.
* ``--trace 1``: one process that sets up, then alternates untraced and
  traced warm passes for ``--seconds``.  Prints the per-layer metrics
  and writes every span to
  ``.braidbench/spans-<workload>-seed<seed>.tsv.gz``.

Times are reference seconds of ``refclock.py``: wall time with the host's
changing speed taken out.  The wall times go to the line before the
result, with the machine.  The last line of stdout is ``{"correct",
"attempted", "failed", "metrics"}``.  Any operation that fails its checks
makes ``failed`` non-zero and ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".braidbench"
PROCESSES = 3
RUN_LIMIT_S = 170.0
MIN_COVERAGE = 0.95


class WorkerError(RuntimeError):
    pass


def spawn(deadline: float, **flags) -> tuple:
    """Run one worker to completion; returns (set-up seconds, done
    message).  Set-up is the wall time from the spawn to the start of the
    worker's main() plus the worker's reference seconds from there to
    ready."""
    cmd = [sys.executable, str(WORKER)]
    for k, v in flags.items():
        cmd += [f"--{k}", str(v)]
    ready = done = None
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                try:
                    msg = json.loads(line)
                except ValueError:
                    msg = None
                if not isinstance(msg, dict):
                    sys.stderr.write(line)
                elif msg.get("event") == "ready":
                    # perf_counter is the system-wide monotonic clock.
                    ready = msg["t_start"] - t0 + msg["ref_s"]
                elif msg.get("event") == "done":
                    done = msg
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:  # interrupted: stop the worker too
                proc.kill()
                proc.wait()
    if code != 0 or ready is None or done is None:
        raise WorkerError(f"worker {' '.join(cmd[2:])} exited with {code}")
    return ready, done


def end_to_end(args, deadline: float) -> tuple:
    flags = dict(workload=args.workload, seed=args.seed,
                 seconds=args.seconds)
    runs = [spawn(deadline, mode="measure", **flags)]
    runs += [spawn(deadline, mode="setup", **flags)
             for _ in range(PROCESSES - 1)]
    setups = [ready for ready, _ in runs]
    measured = runs[0][1]
    metrics = {
        "pass_s": measured["pass_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = {"setup_s_samples": setups,
             "pass_ref_s": measured["pass_ref_s"],
             "pass_wall_s": measured["pass_wall_s"]}
    return metrics, [d for _, d in runs], True, notes


def per_layer(args, deadline: float, wanted) -> tuple:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    _, done = spawn(deadline, mode="trace", workload=args.workload,
                    seed=args.seed, seconds=args.seconds, spans=spans)
    layers, known = done["layers"], set(done["known"])
    unknown = [m for m in wanted if m not in layers and m not in known]
    if unknown:
        raise WorkerError(f"no span or counter behind {unknown}")
    metrics = {m: layers.get(m, 0) for m in wanted}
    ok = True
    if done["traced_mismatches"]:
        print(f"{done['traced_mismatches']} traced answers differ from "
              "untraced ones", file=sys.stderr)
        ok = False
    if metrics["trace.coverage"] < MIN_COVERAGE:
        print(f"trace coverage {metrics['trace.coverage']:.3f} is below "
              f"{MIN_COVERAGE}", file=sys.stderr)
        ok = False
    notes = {"pairs": done["pairs"], "spans": done["spans"], "spans_file": str(spans.relative_to(
        ROOT))}
    return metrics, [done], ok, notes


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # SIGTERM unwinds like Ctrl-C, so spawn() stops its worker first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = perf_counter() + RUN_LIMIT_S
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        if args.trace:
            values, done, ok, notes = per_layer(
                args, deadline, [m["name"] for m in declared])
        else:
            values, done, ok, notes = end_to_end(args, deadline)
    except WorkerError as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    attempted = sum(d["attempted"] for d in done)
    failed = sum(d["failed"] for d in done)
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "machine": platform.machine(),
               "processor": platform.processor() or None}
    print(json.dumps({"machine": machine, "workload": args.workload,
                      "seed": args.seed, **notes}))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
