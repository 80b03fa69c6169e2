"""End-to-end acceptance battery: one test, one printed line per criterion.

Run with -s (or read the PASSED/FAILED line per test) to see the
summary lines.  Budgets are wall-clock upper bounds; typical runtimes
are far below them.
"""

import json
import time

from braidhom.bimodule import identity_bimodule
from braidhom.braid import Word
from braidhom.cli import EXIT_OK, main
from braidhom.complexes import rouquier_complex
from braidhom.conventions import (homology_euler_as_skein, match_exact,
                                  match_up_to_monomial, oracle_specialized,
                                  sln_euler)
from braidhom.homology import (ColumnData, DegreeWindow, hochschild_bimodule,
                               hochschild_closed_form, homfly_homology,
                               koszul_resolution_check)
from braidhom.laurent import Laurent2
from braidhom.mfact import sln_homology, z_factorization
from braidhom.oracle import homfly_oracle, vassiliev_oracle
from braidhom.wallcross import (extension_realization,
                                finite_dimensionality_check,
                                vassiliev_complex, wall_crossing_map)

from axioms import check_complex


def announce(num: int, budget: float, elapsed: float, detail: str):
    assert elapsed < budget, \
        f"criterion {num:02d} exceeded its budget: {elapsed:.1f}s >= {budget}s"
    print(f"criterion {num:02d}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_01_trivial_word_single_generator_at_origin():
    t0 = time.monotonic()
    space, report = homfly_homology(Word.parse("1:"))
    assert report["stabilized"]
    assert space.table() == [[0, 0, 0, 1]]
    announce(1, 1.0, time.monotonic() - t0,
             "trivial closure has one generator at the origin")


def test_criterion_02_trefoil_euler_equals_trace_oracle():
    t0 = time.monotonic()
    word = Word.parse("2: 1 1 1")
    space, report = homfly_homology(word, DegreeWindow(max_degree=24))
    assert report["stabilized"]
    value = homfly_oracle(word)
    assert value.is_polynomial
    assert match_exact(homology_euler_as_skein(space), value.poly)
    announce(2, 30.0, time.monotonic() - t0,
             "trefoil Euler characteristic equals the trace value exactly")


def test_criterion_03_figure_eight_euler_equals_trace_oracle():
    t0 = time.monotonic()
    word = Word.parse("3: 1 -2 1 -2")
    space, report = homfly_homology(word, DegreeWindow(max_degree=24))
    assert report["stabilized"]
    value = homfly_oracle(word)
    assert value.is_polynomial
    assert match_exact(homology_euler_as_skein(space), value.poly)
    announce(3, 600.0, time.monotonic() - t0,
             "figure-eight Euler characteristic equals the trace value "
             "exactly")


def test_criterion_04_folded_trefoil_matches_specialized_trace():
    t0 = time.monotonic()
    word = Word.parse("2: 1 1 1")
    space, report = sln_homology(word, 2)
    assert report["stabilized"]
    want = oracle_specialized(homfly_oracle(word), 2)
    got = sln_euler(space)
    shift = match_up_to_monomial(got, want)
    assert shift is not None, "not even equal up to a monomial and sign"
    assert match_exact(got, want), \
        "expected exact equality, not just up-to-monomial"
    announce(4, 120.0, time.monotonic() - t0,
             "rank-2 trefoil Euler characteristic equals the specialized "
             "trace exactly (no monomial correction needed)")


def test_criterion_05_cone_euler_equals_difference_oracle():
    t0 = time.monotonic()
    word = Word.parse("2: 1! 1 1")
    space, report = vassiliev_complex(word)
    assert report["stabilized"]
    value = vassiliev_oracle(word)
    assert value.is_polynomial
    assert match_exact(homology_euler_as_skein(space), value.poly)

    word0 = Word.parse("2: 1!")
    space0, report0 = vassiliev_complex(word0)
    assert report0["stabilized"]
    assert homology_euler_as_skein(space0) == Laurent2.zero()
    assert space0.table() == []
    announce(5, 120.0, time.monotonic() - t0,
             "singular trefoil cone matches the finite-difference trace; "
             "single singular crossing cones to zero")


def test_criterion_06_cone_assembly_order_independence():
    t0 = time.monotonic()
    word = Word.parse("2: 1! 1! 1")
    a, ra = vassiliev_complex(word, order=[0, 1])
    b, rb = vassiliev_complex(word, order=[1, 0])
    assert ra["stabilized"] and rb["stabilized"]
    ja = json.dumps(a.table(), sort_keys=True)
    jb = json.dumps(b.table(), sort_keys=True)
    assert ja == jb, "cone order changed the rendered table"
    announce(6, 300.0, time.monotonic() - t0,
             "both cone assembly orders render byte-identical tables")


def test_criterion_07_extension_rescaling_invariance():
    t0 = time.monotonic()
    word = Word.parse("2: 1! 1! 1")
    base, _ = vassiliev_complex(word)
    scaled, _ = vassiliev_complex(word, scales={0: 7})
    assert scaled.table() == base.table(), \
        "rescaling one extension changed the table"
    announce(7, 300.0, time.monotonic() - t0,
             "rescaling one crossing extension by 7 leaves the table "
             "unchanged exactly")


def test_criterion_08_markov_move_invariance():
    t0 = time.monotonic()
    base, _ = homfly_homology(Word.parse("2: 1 1 1"))
    conj, _ = homfly_homology(Word.parse("2: -1 1 1 1 1"))
    assert conj.table() == base.table(), \
        "destabilized-pair tables differ"
    stab, _ = homfly_homology(Word.parse("3: 1 1 1 2"))
    assert stab == base, "stabilized trefoil table differs"
    announce(8, 300.0, time.monotonic() - t0,
             "conjugated and stabilized trefoil words reproduce the "
             "2-strand table; the monomial correction is trivial")


def test_criterion_09_infrastructure_invariants():
    t0 = time.monotonic()
    # differentials square to zero through tensor and elimination
    C = rouquier_complex(Word.parse("3: 1 -2 1"))
    check_complex(C, deep=True)
    ColumnData(C, None, simplify=True)   # checks every reduced column
    for n, i in ((2, 1), (3, 1), (3, 2)):
        extension_realization(n, i)   # chain maps, termwise exactness
    # connecting maps commute with the word differential (asserted inside)
    for text in ("2: 1! -1", "2: 1! 1 -1 1"):
        wall_crossing_map(Word.parse(text))
    # cube faces anticommute (asserted inside the two-slot builds; the
    # paths around the face of "2: 1! 1! 1" are all zero, some of those
    # of "3: 1! 2!" are not)
    for text in ("2: 1! 1! 1", "3: 1! 2!"):
        vassiliev_complex(Word.parse(text))
    # the square of the folded differential is the potential
    for n in (2, 3):
        for N in (1, 2, 3, 4):
            z_factorization(n, N)
            z_factorization(n, N, full=True)
    # the contraction complex resolves the one-sided ring
    koszul_resolution_check(2)
    koszul_resolution_check(3)
    # self-tensor homology of the identity bimodule matches the closed form
    for n in (2, 3):
        hh = hochschild_bimodule(identity_bimodule(n),
                                 DegreeWindow(max_degree=10))
        for p in range(n):
            for j in range(0, 11):
                assert hh.get((p, j), 0) == hochschild_closed_form(n, p, j)
    announce(9, 300.0, time.monotonic() - t0,
             "squares vanish after tensor/cone/elimination; sequences stay "
             "termwise exact; connecting maps are chain maps; faces "
             "commute; folded squares equal the potential; resolution and "
             "self-tensor closed forms agree")


def test_criterion_10_finite_dimensionality_of_cone_homology():
    t0 = time.monotonic()
    out = finite_dimensionality_check(Word.parse("2: 1! 1 1"))
    assert out["finite"] and out["stabilized"]
    assert out["total_dimension"] == 4
    out0 = finite_dimensionality_check(Word.parse("2: 1!"))
    assert out0["finite"] and out0["stabilized"]
    assert out0["total_dimension"] == 0
    announce(10, 120.0, time.monotonic() - t0,
             "cone homology of both reference inputs stabilizes to a "
             "finite table inside the default window")


def test_cli_smoke():
    # the executable surface the criteria are phrased in
    assert main(["homfly-homology", "1:", "--max-degree", "24"]) == EXIT_OK
    assert main(["compare", "2: 1 1 1", "--max-degree", "24"]) == EXIT_OK
    assert main(["vassiliev", "2: 1! 1 1"]) == EXIT_OK
