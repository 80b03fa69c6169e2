"""Workload corpora, the seeded input generator and the anchor fixtures.

Each workload is a fixed list of anchor operations.  An anchor is one
library call on one braid word whose answer is frozen in
``anchors.json``.  The workload seed turns every anchor into a variant
with the same answer, and the pipelines only ever see the variants:

* a cyclic rotation of the word (a conjugation, so the closure and its
  homology table are unchanged);
* for ``vassiliev_complex``, a slot ``order`` and nonzero rational
  ``scales``, both documented there as answer-invariant;
* for ``wall_crossing_map``, a nonzero rational ``scale``; its rank and
  slice dimensions do not depend on it.

Times quoted below are single runs on a 2-core Xeon VM with Python 3.11.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ANCHORS_FILE = Path(__file__).with_name("anchors.json")


@dataclass(frozen=True)
class Anchor:
    """One library call on a fixed word; ``kind`` names the call."""

    kind: str  # "homfly" | "sln" | "cube" | "wall"
    word: str
    N: int | None = None
    why: str = ""

    @property
    def key(self) -> str:
        n = "" if self.N is None else f" N={self.N}"
        return f"{self.kind}{n} {self.word}"


@dataclass(frozen=True)
class Workload:
    why: str
    anchors: tuple


@dataclass
class Op:
    """A seeded variant of one anchor: what the pipeline actually sees."""

    anchor: Anchor
    word: str
    kwargs: dict = field(default_factory=dict)


WORKLOADS = {
    "homfly-knots": Workload(
        why="HOMFLY stage two: Echelon.solve via induced_matrix and "
            "SubquotientBasis.express leads the profile (39% of self time "
            "on the figure-eight, 52% on 4: 1 2 3).",
        anchors=(
            Anchor("homfly", "2: 1 1 1",
                   why="trefoil: smallest nontrivial table"),
            Anchor("homfly", "2: -1 -1 -1",
                   why="mirror trefoil: negative crossings"),
            Anchor("homfly", "2: 1 1 1 1 1",
                   why="5_1: a torus knot with real towers"),
            Anchor("homfly", "3: 1 -2 1 -2",
                   why="figure-eight: amphichiral, both crossing signs"),
            Anchor("homfly", "4: 1 2 3",
                   why="unknot on 4 strands: a wide complex with "
                       "one-dimensional homology, so stage one "
                       "(slice_subquotient) and mostly empty slices weigh "
                       "against real towers"),
        )),
    "sln-knots": Workload(
        why="sl(N) folding: folded_column (38%) and Echelon.kernel_basis "
            "(33%) lead, solve is 0.1%; the bypass workload for a "
            "solve-side change, the target of a folding or kernel change.",
        anchors=(
            Anchor("sln", "2: 1 1 1", 2, why="trefoil at the smallest rank"),
            Anchor("sln", "2: 1 1 1", 4,
                   why="trefoil at a larger rank: wider potential"),
            Anchor("sln", "2: 1 1 1 1 1", 3, why="5_1 at rank 3"),
            Anchor("sln", "2: 1 1 1 1 1", 2, why="5_1 at rank 2"),
            Anchor("sln", "3: 1 -2 1 -2", 2,
                   why="figure-eight: mixed signs, 3-strand folded slices"),
        )),
    "singular-cube": Workload(
        why="cube assembly: complexes.tensor (14%), tensor_chain_maps (8%) "
            "and graded_map_entries (18%), plus snake lifts and face "
            "checks; the only workload where cube reuse can show.",
        anchors=(
            Anchor("cube", "2: 1! 1 1",
                   why="one singular letter: a single cone"),
            Anchor("cube", "2: 1! 1! 1",
                   why="two singular letters: a square with face checks"),
            Anchor("cube", "2: 1! 1 1", 2,
                   why="folded cube at N=2: no oracle comparison, the "
                       "anchor hash is the check"),
            Anchor("cube", "3: 1! 2", why="singular letter on 3 strands"),
            Anchor("wall", "2: 1! 1 1",
                   why="one wall-crossing map: rank and slice dimensions"),
        )),
}

# Left out of the repeated workloads because one run is too slow to repeat
# 22 times per check; `why` carries the single-run time.  The three
# stabilized or folded words are cheaper but took too large a share of
# their pass: a run (three cold passes and 20 s of warm ones) must stay
# near 35 s on a quiet 2-core host so that a regression check (22 runs
# per workload, plus a few traced) stays under an hour even when the host
# runs 1.6 times slower.  Their tables repeat another anchor's, or a
# smaller word covers the same path.
EXCLUDED = (
    Anchor("homfly", "2: 1 1 1 1 1 1 1", why="7_1: 22 s"),
    Anchor("homfly", "3: 1 1 1 2 -1 2", why="5_2: 62 s"),
    Anchor("homfly", "4: 1 -2 3 -2 1 -2 3 -2",
           why="4-strand word: unfinished after 11 CPU-minutes"),
    Anchor("sln", "2: 1 1 1 1 1 1 1", 2, why="7_1: 61 s"),
    Anchor("sln", "4: 1 2 3", 2, why="4-strand unknot: 108 s"),
    Anchor("sln", "3: 1 1 1 2", 2,
           why="stabilized trefoil, 3.2-4.8 s: half of the pass; its table "
               "is the N=2 trefoil's and the figure-eight covers 3 strands"),
    Anchor("homfly", "3: 1 1 1 2",
           why="stabilized trefoil, 1.0-1.5 s: its table is the trefoil's "
               "and the figure-eight covers 3 strands"),
    Anchor("cube", "2: 1! 1! 1", 2,
           why="folded square, 2.1-2.7 s: half of the pass; the square is "
               "kept at N=inf and folding at N=2 on 2: 1! 1 1"),
    Anchor("cube", "2: 1! 1 1 1 1", why="singular 5_1: 7.7 s"),
    Anchor("cube", "2: 1! 1! 1! 1 1", why="three singular letters: 85 s"),
    Anchor("cube", "3: 1! -2 1 -2", why="singular figure-eight: 128 s"),
)


def rotate(word: str, r: int) -> str:
    """Cyclic rotation of a braid word in the "n: letters" grammar."""
    head, _, rest = word.partition(":")
    letters = rest.split()
    if not letters:
        return word
    r %= len(letters)
    return f"{head}: " + " ".join(letters[r:] + letters[:r])


def _scale(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                    rng.randint(1, 4))


def variants(workload: str, seed: int) -> list:
    """The seeded operations of one workload, in corpus order.

    Deterministic in (workload, seed): the generator is seeded with the
    string "<workload>/<seed>", which Python hashes the same way in every
    process.
    """
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    for a in WORKLOADS[workload].anchors:
        word = rotate(a.word, rng.randrange(len(a.word.split(":")[1].split())))
        kwargs = {}
        if a.kind == "sln":
            kwargs["N"] = a.N
        elif a.kind == "cube":
            slots = word.count("!")
            order = list(range(slots))
            rng.shuffle(order)
            kwargs = {"N": a.N, "order": order,
                      "scales": {t: _scale(rng) for t in range(slots)}}
        elif a.kind == "wall":
            kwargs = {"N": a.N, "scale": _scale(rng)}
        ops.append(Op(a, word, kwargs))
    return ops


def anchor_ops(workload: str) -> list:
    """The anchors themselves, unrotated and with default arguments."""
    out = []
    for a in WORKLOADS[workload].anchors:
        kwargs = {"N": a.N} if a.kind in ("sln", "cube", "wall") else {}
        out.append(Op(a, a.word, kwargs))
    return out


def load_anchors() -> dict:
    with open(ANCHORS_FILE) as fh:
        return json.load(fh)
