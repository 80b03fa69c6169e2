"""Folded finite-rank specializations: potential identity, frozen tables."""

from braidhom.bimodule import (aux_bimodules, bs_bimodule, identity_bimodule)
from braidhom.braid import Word
from braidhom.complexes import rouquier_complex
from braidhom.conventions import match_exact, oracle_specialized, sln_euler
from braidhom.homology import (ColumnData, DegreeWindow, TriGradedSpace,
                               homfly_homology, koszul_column, scan_bounds,
                               scan_degrees)
from braidhom.linalg import matrix_rank
from braidhom.mfact import (collapse_coefficient, folded_column,
                            sln_homology, z_factorization)
from braidhom.oracle import homfly_oracle
from braidhom.wallcross import vassiliev_complex, wall_crossing_map

ORIGIN = [[0, 0, 0, 1]]
TREFOIL_N2 = [[0, -2, 0, 1], [2, -6, 0, 1], [3, -8, 0, 1]]
TREFOIL_N3 = [[0, -4, 0, 1], [2, -8, 0, 1], [3, -12, 0, 1]]
TREFOIL_N4 = [[0, -6, 0, 1], [2, -10, 0, 1], [3, -16, 0, 1]]
TREFOIL_MIRROR_N2 = [[-3, 8, 0, 1], [-2, 6, 0, 1], [0, 2, 0, 1]]
FIGURE_EIGHT_N2 = [[-2, 4, 0, 1], [-1, 2, 0, 1], [0, 0, 0, 1],
                   [1, -2, 0, 1], [2, -4, 0, 1]]
CINQUEFOIL_N2 = [[0, -4, 0, 1], [2, -8, 0, 1], [3, -10, 0, 1],
                 [4, -12, 0, 1], [5, -14, 0, 1]]


def table(text: str, N: int, **kw):
    word = Word.parse(text)
    space, report = sln_homology(word, N, **kw)
    assert report["stabilized"], f"scan did not stabilize on {text!r}, N={N}"
    value = homfly_oracle(word)
    assert value.is_polynomial
    assert match_exact(sln_euler(space), oracle_specialized(value, N)), \
        f"Euler characteristic disagrees with the trace at {text!r}, N={N}"
    return space.table()


def test_collapse_coefficient_balances_both_entry_types():
    for N in range(1, 6):
        assert collapse_coefficient(N) == 1 - N


def test_potential_identity_reduced_and_full():
    # z_factorization raises InvariantError unless the square is the
    # potential times the identity
    for n in (2, 3):
        for N in (1, 2, 3, 4):
            assert z_factorization(n, N).rank == 2 ** (n - 1)
            assert z_factorization(n, N, full=True).rank == 2 ** n


def test_folded_columns_square_to_zero_on_crossing_bimodules():
    for N in (2, 3):
        folded_column(identity_bimodule(2), N).check(dh=None, dq=N + 1)
        folded_column(bs_bimodule(2, 1), N).check(dh=None, dq=N + 1)
        folded_column(bs_bimodule(3, 2), N).check(dh=None, dq=N + 1)


def test_fold_keeps_the_contraction_removals():
    for M in (identity_bimodule(2), bs_bimodule(2, 1), identity_bimodule(3),
              bs_bimodule(3, 1), bs_bimodule(3, 2)):
        col = koszul_column(M)
        for N in (2, 3):
            fold = folded_column(M, N)
            assert fold.labels == col.labels
            removals = {(r, c): p for (r, c), p in fold.diff.items()
                        if fold.gens[r][0] < fold.gens[c][0]}
            assert removals == col.diff, (M, N)


def test_curved_bimodule_raises_for_odd_exponent():
    E, _maps = aux_bimodules(2, 1)
    folded_column(E, 2).check(dh=None, dq=3)
    folded_column(E, 4).check(dh=None, dq=5)
    try:
        folded_column(E, 3)
        assert False, "expected the curved fold to raise"
    except ValueError as e:
        assert "curved" in str(e)


def test_unknot_battery():
    for N in (1, 2, 3):
        assert table("2: 1", N) == ORIGIN
    assert table("2: -1", 2) == ORIGIN
    assert table("2: 1 -1 1", 2) == ORIGIN
    assert table("3: 1 2", 2) == ORIGIN
    assert table("3: 1 2", 4) == ORIGIN


def test_trefoil_specializations():
    assert table("2: 1 1 1", 2) == TREFOIL_N2
    assert table("2: 1 1 1", 3) == TREFOIL_N3
    assert table("2: 1 1 1", 4) == TREFOIL_N4


def space_of(rows) -> TriGradedSpace:
    return TriGradedSpace({(k, i, j): d for k, i, j, d in rows})


def mirror(space: TriGradedSpace) -> TriGradedSpace:
    """All three gradings negated."""
    return TriGradedSpace({(-k, -i, -j): d
                           for (k, i, j), d in space.dims.items()})


def test_mirror_trefoil_reflects_the_table():
    assert table("2: -1 -1 -1", 2) == TREFOIL_MIRROR_N2
    assert mirror(space_of(TREFOIL_N2)).table() == TREFOIL_MIRROR_N2


def test_figure_eight_is_amphichiral():
    assert table("3: 1 -2 1 -2", 2) == FIGURE_EIGHT_N2
    space = space_of(FIGURE_EIGHT_N2)
    assert space == mirror(space)


def test_cinquefoil():
    assert table("2: 1 1 1 1 1", 2) == CINQUEFOIL_N2


def test_three_strand_unknot_keeps_cancelling_pair_at_n3():
    # Known artifact of the two-stage computation at exactly N = 3 on
    # this word: the collapsed degree cannot separate a pair of classes
    # that cancel in the Euler characteristic, so the table is 3- rather
    # than 1-dimensional.  Pinned here so any change is noticed; the
    # Euler characteristic is still the unknot's.
    assert table("3: 1 2", 3) == [[0, -4, 0, 1], [0, 0, 0, 1], [1, -4, 0, 1]]


def regraded(space: TriGradedSpace, N: int) -> TriGradedSpace:
    """A HOMFLY table regraded to sl(N): (k, i, j) -> (k + i, j -
    2(N+1)i, 0)."""
    out = TriGradedSpace()
    for (k, i, j), d in space.dims.items():
        out.add(k + i, j - 2 * (N + 1) * i, 0, d)
    return out


def test_sln_table_is_the_regraded_homfly_table():
    # Rasmussen (arXiv:math/0607544): for these knots and N the sl(N)
    # table is the HOMFLY table regraded.  The pinned exception is the
    # three-strand unknot at N = 3 ("3: 1 2" and "3: 1 1 1 2"), see
    # test_three_strand_unknot_keeps_cancelling_pair_at_n3.
    for text in ("2: 1 1 1", "2: -1 -1 -1", "2: 1 1 1 1 1",
                 "3: 1 -2 1 -2"):
        big, _ = homfly_homology(Word.parse(text))
        for N in (2, 3, 4):
            assert space_of(table(text, N)) == regraded(big, N), (text, N)


def test_column_elimination_does_not_change_the_table():
    for text, N in [("2: 1 1 1", 2), ("2: 1 -1 1", 3), ("3: 1 2", 2),
                    ("3: 1 -2", 2)]:
        assert table(text, N, simplify=False) == table(text, N), (text, N)
    # on the three-strand words the reduced columns keep a differential,
    # and the conjugated word maps carry entries from weight p to p + 2
    # that the folded slicer does not read; the tables above still match
    for text in ("3: 1 2", "3: 1 -2"):
        data = ColumnData(rouquier_complex(Word.parse(text)), 2, simplify=True)
        moved = sum(len(block) for parts in data.kmaps.values()
                    for (ps, pt), block in parts.items() if ps != pt)
        assert moved == 4, text


def test_columns_keeping_a_differential_keep_their_word_maps():
    # at N = 2 the figure-eight columns keep a differential after column
    # elimination, so the word pivots are not cancelled: each column
    # keeps its rank and its differential
    data = ColumnData(rouquier_complex(Word.parse("3: 1 -2 1 -2")), 2, True)
    assert [data.cols[k].rank for k in data.degrees] == [8, 20, 24, 20, 8]
    assert all(col.diff for col in data.cols.values())


def test_rank_memo_holds_the_rank_of_each_slice_differential():
    # after the degree scan of sln_homology the memo of each column k
    # holds {sigma: rank of the differential out of sigma} for every
    # nonempty slice visited; the slices with an incoming map took its
    # rank from the memo, and the exact ones among them spanned nothing
    fed = exact = 0
    for text, N in (("3: 1 -2 1 -2", 2), ("3: 1 -2 1 -2", 3),
                    ("2: 1 1 1 1 1", 3)):
        data = ColumnData(rouquier_complex(Word.parse(text)), N, True)

        def visit(q):
            return sum(sum(data.tower(sigma)[2].values())
                       for sigma in data.sigmas(q))

        lo, hi, top = scan_bounds(data.cols.values(), DegreeWindow())
        needed = DegreeWindow().margin * (N + 1)
        stabilized, last = scan_degrees(lo, max(hi, top + needed), top,
                                        needed, visit)
        assert stabilized
        for k, memo in data.ranks.items():
            sl = data.slicers[k]
            assert set(memo) == {sigma for q in range(lo, last + 1)
                                 for sigma in sl.sigmas(q) if sl.dim(sigma)}
            for sigma, rank in memo.items():
                dim, nxt = sl.dim(sigma), sl.next(sigma)
                assert rank == matrix_rank(sl.diff(sigma), sl.dim(nxt), dim)
                inc = memo.get(sl.prev(sigma), 0)
                fed += bool(inc)
                if inc and dim == rank + inc:
                    sq = data.stage(k, sigma)
                    assert sq.dim == 0 and sq.boundary_basis is None
                    exact += 1
    assert fed > 300 and exact > 100


def test_rank_must_be_a_positive_integer():
    word = Word.parse("2: 1 1 1")
    for bad in (0, -1, 2.5, "2", True, None):
        for call in (lambda: sln_homology(word, bad),
                     lambda: z_factorization(2, bad)):
            try:
                call()
                assert False, f"expected N={bad!r} to be rejected"
            except ValueError:
                pass
    for bad in (0, 2.5, "2"):
        for call in (lambda: vassiliev_complex(Word.parse("2: 1! 1"), N=bad),
                     lambda: wall_crossing_map(Word.parse("2: 1!"), N=bad)):
            try:
                call()
                assert False, f"expected N={bad!r} to be rejected"
            except ValueError:
                pass
