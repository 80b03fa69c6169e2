"""Triply graded closure homology: anchors, frozen tables, trace checks."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from braidhom.bimodule import identity_bimodule
from braidhom.braid import Word
from braidhom.conventions import (homology_euler_as_skein, match_exact,
                                  oracle_specialized, sln_euler)
from braidhom.complexes import rouquier_complex
from braidhom.homology import (ColumnData, DegreeWindow, TriGradedSpace,
                               hochschild_bimodule, hochschild_closed_form,
                               homfly_homology, koszul_resolution_check,
                               tower_homology)
from braidhom.linalg import InvariantError
from braidhom.mfact import sln_homology
from braidhom.oracle import homfly_oracle

from axioms import run_optimized

ORIGIN = [[0, 0, 0, 1]]
TREFOIL = [[-1, 1, 4, 1], [1, 1, 0, 1], [1, 2, 4, 1]]
TREFOIL_MIRROR = [[-1, -2, -4, 1], [-1, -1, 0, 1], [1, -1, -4, 1]]
FIGURE_EIGHT = [[-1, -1, -2, 1], [-1, 0, 2, 1], [0, 0, 0, 1],
                [1, 0, -2, 1], [1, 1, 2, 1]]
CINQUEFOIL = [[-2, 2, 8, 1], [0, 2, 4, 1], [0, 3, 8, 1],
              [2, 2, 0, 1], [2, 3, 4, 1]]


def space_of(rows) -> TriGradedSpace:
    return TriGradedSpace({(k, i, j): d for k, i, j, d in rows})


def mirror(space: TriGradedSpace) -> TriGradedSpace:
    """All three gradings negated."""
    return TriGradedSpace({(-k, -i, -j): d
                           for (k, i, j), d in space.dims.items()})


def mirror_word(word: Word) -> Word:
    """Every crossing sign flipped (a singular letter, 0, stays)."""
    return Word(word.n, tuple((i, -k) for i, k in word.entries))


def table(text: str, **kw):
    space, report = homfly_homology(Word.parse(text), **kw)
    assert report["stabilized"], f"scan did not stabilize on {text!r}"
    return space.table()


def euler_matches_trace(text: str) -> bool:
    word = Word.parse(text)
    space, _report = homfly_homology(word)
    value = homfly_oracle(word)
    assert value.is_polynomial
    return match_exact(homology_euler_as_skein(space), value.poly)


def test_unknot_presentations_sit_at_the_origin():
    for text in ["1:", "2: 1", "2: -1", "2: 1 -1 1",
                 "3: 1 2", "3: -1 -2", "3: 1 -2"]:
        assert table(text) == ORIGIN, text


def test_trefoil_table_and_euler():
    assert table("2: 1 1 1") == TREFOIL
    assert euler_matches_trace("2: 1 1 1")


def test_mirror_word_negates_all_gradings():
    assert table("2: -1 -1 -1") == TREFOIL_MIRROR
    assert mirror(space_of(TREFOIL)).table() == TREFOIL_MIRROR
    assert euler_matches_trace("2: -1 -1 -1")


def test_figure_eight_table_is_amphichiral():
    assert table("3: 1 -2 1 -2") == FIGURE_EIGHT
    space = space_of(FIGURE_EIGHT)
    assert space == mirror(space)
    assert euler_matches_trace("3: 1 -2 1 -2")


def test_cinquefoil_table_and_euler():
    assert table("2: 1 1 1 1 1") == CINQUEFOIL
    assert euler_matches_trace("2: 1 1 1 1 1")


def test_column_elimination_does_not_change_homology():
    for text in ["2: 1 1 1", "2: 1 -1 1", "3: 1 2", "2: 1 1 1 1 1",
                 "3: 1 -2 1 -2", "3: 1 1 1 2"]:
        assert table(text, simplify=False) == table(text), text


def test_word_pivots_cancel_before_slicing():
    # every HOMFLY column cancels to zero differential, and the unit
    # entries of the word maps between them cancel too: the 244, 96 and
    # 112 generators left by column elimination come down to 10, 20 and
    # 12
    for text, ranks in [("2: 1 1 1 1 1", [1, 1, 2, 2, 2, 2]),
                        ("3: 1 -2 1 -2", [2, 5, 6, 5, 2]),
                        ("3: 1 1 1 2", [1, 2, 3, 4, 2])]:
        data = ColumnData(rouquier_complex(Word.parse(text)), None, True)
        assert [data.cols[k].rank for k in data.degrees] == ranks, text
        assert not any(col.diff for col in data.cols.values()), text


def test_reidemeister_two_leaves_the_table_unchanged():
    # sigma sigma^-1 inserted at three places of the trefoil word
    base = table("2: 1 1 1")
    for text in ["2: 1 1 1 1 -1", "2: 1 -1 1 1 1", "2: -1 1 1 1 1"]:
        assert table(text) == base, text
    sl2 = [sln_homology(Word.parse(text), 2)[0].table()
           for text in ("2: 1 1 1", "2: 1 1 1 1 -1")]
    assert sl2[0] and sl2[1] == sl2[0]


def test_braid_relation_leaves_the_table_unchanged():
    # 1 2 1 2 = 2 1 2 2 by the braid relation; both close to the trefoil
    assert table("3: 1 2 1 2") == table("3: 2 1 2 2") == TREFOIL


def test_stabilization_and_conjugation_invariance():
    # the same trefoil from a stabilized 2-strand word and a 3-strand word
    assert table("2: -1 1 1 1 1") == TREFOIL
    assert table("3: 1 1 1 2") == TREFOIL


def test_link_closure_is_reported_not_silently_truncated():
    word = Word.parse("2: 1 1")
    space, report = homfly_homology(word, DegreeWindow(max_degree=12,
                                                       margin=2))
    assert not word.is_knot_closure
    assert not report["stabilized"]
    assert any("not a knot" in w for w in report["warnings"])
    assert space.total_dim > 0


def test_self_tensor_homology_matches_closed_form():
    for n in (2, 3):
        hh = hochschild_bimodule(identity_bimodule(n),
                                 DegreeWindow(max_degree=10))
        for p in range(n):
            for j in range(0, 11):
                assert hh.get((p, j), 0) == hochschild_closed_form(n, p, j), \
                    (n, p, j)


def test_contraction_complex_resolves_the_one_sided_ring():
    koszul_resolution_check(2)
    koszul_resolution_check(3)


def test_tower_checks_raise_invariant_error():
    one = Fraction(1)
    with pytest.raises(InvariantError, match="square to zero"):
        tower_homology({0: 1, 1: 1, 2: 1}, {0: {(0, 0): one},
                                            1: {(0, 0): one}})
    with pytest.raises(InvariantError, match="negative dimension"):
        TriGradedSpace().add(0, 0, 0, -1)


OPTIMIZED_TOWER = """
from fractions import Fraction
from braidhom.homology import tower_homology
from braidhom.linalg import InvariantError
assert False, "asserts must be stripped"
one = Fraction(1)
try:
    tower_homology({0: 1, 1: 1, 2: 1}, {0: {(0, 0): one}, 1: {(0, 0): one}})
except InvariantError as e:
    print("raised:", e)
"""


def test_tower_check_survives_python_O():
    out = run_optimized(OPTIMIZED_TOWER)
    assert out.startswith("raised: induced maps do not square"), out


OPTIMIZED_WORD_MAP = """
from braidhom import homology
from braidhom.braid import Word
from braidhom.linalg import InvariantError
from braidhom.poly import Poly
assert False, "asserts must be stripped"
plain = homology.conjugate
done = []

def corrupted(F, mat, G):
    out = plain(F, mat, G)
    if out and not done:
        key = min(out)
        out[key] = out[key] * Poly.x(2, 1)
        done.append(key)
    return out

homology.conjugate = corrupted
try:
    homology.homfly_homology(Word.parse("2: 1 1 1"))
except InvariantError as e:
    print("raised:", e)
"""


def test_word_complex_check_survives_python_O():
    # one conjugated word-map entry multiplied by x_1 is no longer of
    # degree 0; the word complex is checked before its pivots cancel
    out = run_optimized(OPTIMIZED_WORD_MAP)
    assert out.startswith("raised: qdeg mismatch"), out


def _knot_words() -> list:
    """Knot-closure words on two strands with one or three letters and on
    three strands with two or four letters: all 178 with n <= 3 and at
    most 4 letters (stabilization moves need a fourth strand)."""
    words = []
    for n, length in [(2, 1), (2, 3), (3, 2), (3, 4)]:
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        for letter in itertools.product(letters, repeat=length):
            text = f"{n}: " + " ".join(map(str, letter))
            if Word.parse(text).is_knot_closure:
                words.append(text)
    return words


KNOT_WORDS = _knot_words()


# each example draws only a word, and Hypothesis never repeats an
# example, so the eight words are distinct.  No shrink phase: every word
# is already small, and shrinking reruns the pipelines
@settings(derandomize=True, max_examples=8, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.sampled_from(KNOT_WORDS))
def test_homfly_and_sl2_property(text):
    assert len(KNOT_WORDS) == 178
    word = Word.parse(text)
    space, report = homfly_homology(word)
    assert report["stabilized"], text
    value = homfly_oracle(word)
    assert match_exact(homology_euler_as_skein(space), value.poly), text
    assert homfly_homology(mirror_word(word))[0] == mirror(space), text
    rotated = Word(word.n, word.entries[1:] + word.entries[:1])
    assert homfly_homology(rotated)[0] == space, text
    sl2, report2 = sln_homology(word, 2)
    assert report2["stabilized"], text
    assert match_exact(sln_euler(sl2), oracle_specialized(value, 2)), text
    # the sl(2) table is the HOMFLY table regraded (Rasmussen,
    # arXiv:math/0607544); it holds on all 178 words
    regraded = TriGradedSpace()
    for (k, i, j), d in space.dims.items():
        regraded.add(k + i, j - 6 * i, 0, d)
    assert sl2 == regraded, text
