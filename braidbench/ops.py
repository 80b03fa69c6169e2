"""One benchmark operation: a library call on a seeded word plus its checks.

The checks are the ones a user of the tables relies on:

* the call raises nothing;
* a knot closure (every resolution a knot, for singular words) reports
  ``stabilized``;
* the table's SHA-256 (for ``wall_crossing_map``: rank and slice
  dimensions) equals the anchor's frozen hash;
* where the oracle defines a comparison, the Euler characteristic relates
  to ``homfly_oracle``/``vassiliev_oracle`` exactly as it did for the
  anchor, and never as a mismatch.

``braidhom`` is imported from the ``src`` directory beside this one and
nowhere else, so the benchmark always measures the checkout it sits in.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
import braidhom  # noqa: E402

if Path(braidhom.__file__).resolve().parent != SRC / "braidhom":
    raise ImportError(f"braidhom was imported from {braidhom.__file__}, "
                      f"not from {SRC}")

from braidhom import (conventions, homology, mfact,  # noqa: E402
                      oracle, wallcross)
from braidhom.braid import Word  # noqa: E402

# Library functions are looked up on their modules at call time, so the
# tracer's rebound wrappers are the ones called.


def call(op):
    """The library call of one operation; returns (result, report)."""
    word = Word.parse(op.word)
    kind = op.anchor.kind
    if kind == "homfly":
        return homology.homfly_homology(word, **op.kwargs)
    if kind == "sln":
        return mfact.sln_homology(word, **op.kwargs)
    if kind == "cube":
        return wallcross.vassiliev_complex(word, **op.kwargs)
    if kind == "wall":
        return wallcross.wall_crossing_map(word, **op.kwargs)
    raise ValueError(f"unknown operation kind {kind!r}")


def _dims_rows(dims: dict) -> list:
    return sorted([k, sigma, d] for (k, sigma), d in dims.items())


def canonical(kind: str, result) -> str:
    """Canonical JSON of an answer: the table, or the wall map's rank and
    source/target slice dimensions (its matrices depend on the scale)."""
    if kind == "wall":
        doc = {"rank": result["rank"],
               "source_dims": _dims_rows(result["source_dims"]),
               "target_dims": _dims_rows(result["target_dims"])}
    else:
        doc = result.table()
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def is_knot(word) -> bool:
    """Every resolution of the word closes to a knot."""
    return all(res.is_knot_closure for _c, res, _m in word.resolutions())


def euler_relation(op, space) -> str:
    """How the table's Euler characteristic relates to the oracle:
    "exact", "monomial" (equal up to a signed monomial), "mismatch", or
    "none" where no comparison is defined."""
    kind, N = op.anchor.kind, op.kwargs.get("N")
    if kind == "wall" or (kind == "cube" and N is not None):
        return "none"
    word = Word.parse(op.word)
    value = (oracle.vassiliev_oracle(word) if kind == "cube"
             else oracle.homfly_oracle(word))
    if not value.is_polynomial:
        return "none"
    if kind == "sln":
        got = conventions.sln_euler(space)
        target = conventions.oracle_specialized(value, N)
    else:
        got = conventions.homology_euler_as_skein(space)
        target = value.poly
    if conventions.match_exact(got, target):
        return "exact"
    if conventions.match_up_to_monomial(got, target):
        return "monomial"
    return "mismatch"


def record(op) -> dict:
    """What an anchor freezes: its hash, its Euler relation and whether
    the scan stabilized."""
    result, report = call(op)
    text = canonical(op.anchor.kind, result)
    out = {"sha256": sha256(text), "euler": euler_relation(op, result),
           "stabilized": bool(report["stabilized"])}
    if op.anchor.kind == "wall":
        out["rank"] = result["rank"]
    return out


def run(op, anchors: dict):
    """Run one operation and its checks.

    Returns (canonical answer text or None, failure reason or None).
    """
    want = anchors[op.anchor.key]
    result, report = call(op)
    text = canonical(op.anchor.kind, result)
    if is_knot(Word.parse(op.word)) and not report["stabilized"]:
        return text, "knot closure did not stabilize"
    if sha256(text) != want["sha256"]:
        return text, "answer differs from the anchor's"
    relation = euler_relation(op, result)
    if relation == "mismatch" or relation != want["euler"]:
        return text, f"Euler relation {relation}, anchor {want['euler']}"
    return text, None
