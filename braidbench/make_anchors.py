"""Recompute ``anchors.json`` from the library in this checkout.

    python3 braidbench/make_anchors.py

Run it only when a change is meant to alter an answer; the benchmark's
point is that optimisations leave every anchor hash as it is.
"""

from __future__ import annotations

import json
import sys

import corpus
import ops


def main() -> int:
    anchors = {}
    for name in corpus.WORKLOADS:
        for op in corpus.anchor_ops(name):
            rec = ops.record(op)
            if rec["euler"] == "mismatch" or not rec["stabilized"]:
                print(f"refusing to freeze {op.anchor.key}: {rec}",
                      file=sys.stderr)
                return 1
            anchors[op.anchor.key] = rec
            print(op.anchor.key, rec, flush=True)
    with open(corpus.ANCHORS_FILE, "w") as fh:
        json.dump(anchors, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
