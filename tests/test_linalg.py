import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidhom import mfact
from braidhom.braid import Word
from braidhom.complexes import rouquier_complex
from braidhom.homology import (ColumnData, DegreeWindow, induced_matrix,
                               kernel_mod_image, scan_bounds)
from braidhom.linalg import (Echelon, InvariantError, QuotientSpace, RowSpace,
                             SubquotientBasis, WholeSpace, mat_vec,
                             matrix_rank, rows_from_entries)


def naive_rref_rank(dense):
    """Plain Fraction RREF, as an independent cross-check."""
    mat = [list(map(Fraction, row)) for row in dense]
    if not mat:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [v / pv for v in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def random_dense(rng, nrows, ncols, density=0.6):
    return [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
             if rng.random() < density else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]


def to_entries(dense):
    return {(r, c): v for r, row in enumerate(dense)
            for c, v in enumerate(row) if v}


def test_rank_matches_naive():
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randrange(0, 7), rng.randrange(0, 7)
        dense = random_dense(rng, nr, nc)
        assert matrix_rank(to_entries(dense), nr, nc) == naive_rref_rank(dense)


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(30):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        dense = random_dense(rng, nr, nc)
        entries = to_entries(dense)
        ech = Echelon(rows_from_entries(entries, nr), nc)
        basis = ech.kernel_basis()
        assert len(basis) == nc - ech.rank
        for k in basis:
            assert all(v == 0 for v in mat_vec(entries, k, nr))
        # kernel vectors are independent
        space = RowSpace(nc)
        for k in basis:
            assert space.add(k)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(23)
    for _ in range(30):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 7)
        dense = random_dense(rng, nr, nc)
        entries = to_entries(dense)
        ech = Echelon(rows_from_entries(entries, nr), nc)
        x0 = [Fraction(rng.randrange(-3, 4)) for _ in range(nc)]
        b = mat_vec(entries, x0, nr)
        x = ech.solve(b)
        assert x is not None
        assert mat_vec(entries, x, nr) == b
    # clearly inconsistent system
    ech = Echelon(rows_from_entries({(0, 0): Fraction(1), (1, 0): Fraction(1)}, 2), 1)
    assert ech.solve([Fraction(1), Fraction(2)]) is None


def test_solve_empty_shapes():
    # zero columns: solvable iff rhs is zero
    ech = Echelon(rows_from_entries({}, 2), 0)
    assert ech.solve([Fraction(0), Fraction(0)]) == []
    assert ech.solve([Fraction(1), Fraction(0)]) is None
    # zero rows: everything is kernel
    ech = Echelon([], 3)
    assert len(ech.kernel_basis()) == 3


def test_rowspace_membership():
    space = RowSpace(3)
    assert space.add([Fraction(1), Fraction(2), Fraction(0)])
    assert space.add([Fraction(0), Fraction(1), Fraction(1)])
    assert not space.add([Fraction(1), Fraction(3), Fraction(1)])
    assert space.contains([Fraction(2), Fraction(5), Fraction(1)])
    assert not space.contains([Fraction(0), Fraction(0), Fraction(1)])
    assert space.dim == 2


def test_reduced_leading_index_ignores_insertion_order():
    # the reduced vector is the one of vec + span vanishing at every pivot
    # column, so neither it nor its leading index depends on the order in
    # which the span was built
    rng = random.Random(23)
    for _ in range(60):
        nc = rng.randrange(1, 8)
        span = random_dense(rng, rng.randrange(0, 6), nc, density=0.5)
        span += [[a + b for a, b in zip(span[0], span[-1])]] if span else []
        vecs = random_dense(rng, 4, nc, density=0.5)
        first = None
        for _shuffle in range(4):
            order = span[:]
            rng.shuffle(order)
            space = RowSpace(nc)
            for v in order:
                space.add(v)
            got = [(space.reduce(v), space.leading(v)) for v in vecs]
            for v, (red, lead) in zip(vecs, got):
                assert space.contains([a - b for a, b in zip(v, red)])
                assert lead == next((c for c, x in enumerate(red) if x), None)
            if first is None:
                first = got
            assert got == first


def test_subquotient_three_term_complex():
    # d2: Q^1 -> Q^3 with image (1,-1,0); d1: Q^3 -> Q^1 summing coordinates.
    # ker d1 is 2-dim, so homology is 1-dim.
    one = Fraction(1)
    cycles = [[one, -one, Fraction(0)], [Fraction(0), one, -one]]
    boundaries = [[one, -one, Fraction(0)]]
    H = SubquotientBasis(3, cycles, boundaries)
    assert H.dim == 1
    # the second cycle is the representative; expressing it gives coord 1
    assert H.express([Fraction(0), one, -one]) == [one]
    # shifting by a boundary must not change the coordinates
    shifted = [one, Fraction(0), -one]
    assert H.express(shifted) == [one]
    # a boundary expresses as zero
    assert H.express([Fraction(2), Fraction(-2), Fraction(0)]) == [Fraction(0)]


def test_subquotient_rejects_foreign_vector():
    H = SubquotientBasis(2, [[Fraction(1), Fraction(0)]], [])
    try:
        H.express([Fraction(0), Fraction(1)])
        assert False
    except ValueError:
        pass


def test_homology_dimension_random_complexes():
    # build random pairs d1 d2 with d1 d2 = 0 by construction: d2 maps into ker d1
    rng = random.Random(99)
    for _ in range(15):
        mid = rng.randrange(2, 6)
        out = rng.randrange(1, 4)
        dense1 = random_dense(rng, out, mid)
        e1 = to_entries(dense1)
        ech1 = Echelon(rows_from_entries(e1, out), mid)
        kb = ech1.kernel_basis()
        # d2 columns: random combinations of kernel vectors
        cols = []
        for _ in range(rng.randrange(0, 3)):
            v = [Fraction(0)] * mid
            for k in kb:
                c = rng.randrange(-2, 3)
                v = [a + c * b for a, b in zip(v, k)]
            cols.append(v)
        H = SubquotientBasis(mid, kb, cols)
        bd_rank = RowSpace(mid)
        img = sum(1 for v in cols if bd_rank.add(v))
        assert H.dim == len(kb) - img


def identity(dim):
    return [[Fraction(int(t == s)) for t in range(dim)] for s in range(dim)]


def test_whole_space_from_a_slice_without_differential():
    sq = kernel_mod_image(3, {}, 2, {})
    assert isinstance(sq, WholeSpace) and sq.dim == 3
    assert not isinstance(kernel_mod_image(3, {(0, 1): Fraction(1)}, 2, {}),
                          WholeSpace)
    assert not isinstance(kernel_mod_image(3, {}, 2, {(1, 0): Fraction(1)}),
                          WholeSpace)


def test_whole_space_express_returns_its_input():
    sq = WholeSpace(4)
    vec = [Fraction(0), Fraction(-3, 2), Fraction(0), Fraction(5)]
    assert sq.express(vec) == vec
    assert sq.express(vec) is not vec
    assert WholeSpace(0).express([]) == []


def test_whole_space_express_rejects_a_wrong_length():
    for vec in ([Fraction(1)] * 2, [Fraction(1)] * 4):
        with pytest.raises(ValueError):
            WholeSpace(3).express(vec)
    with pytest.raises(ValueError):
        SubquotientBasis(3, identity(3), []).express([Fraction(1)] * 2)


def test_whole_space_reps_are_the_standard_basis():
    assert WholeSpace(3).reps == identity(3)
    assert WholeSpace(3).reps == SubquotientBasis(3, identity(3), []).reps
    assert WholeSpace(0).reps == [] and WholeSpace(0).dim == 0
    assert list(WholeSpace(2).boundary_basis) == []


def test_class_leads_on_a_whole_space():
    assert mfact._leads(WholeSpace(4)) == [0, 1, 2, 3]
    assert mfact._leads(WholeSpace(4)) == \
        mfact._leads(SubquotientBasis(4, identity(4), []))


def test_solve_length_check_raises_invariant_error():
    ech = Echelon(rows_from_entries({(0, 0): Fraction(1)}, 2), 1)
    with pytest.raises(InvariantError):
        ech.solve([Fraction(1)])


def reference_push(entries, tdim, sq_src, sq_tgt):
    """The dense push: mat_vec on every representative, then express."""
    out = {}
    for c, rep in enumerate(sq_src.reps):
        coords = sq_tgt.express(mat_vec(entries, rep, tdim))
        out.update({(r, c): v for r, v in enumerate(coords) if v})
    return out


@st.composite
def slice_maps(draw):
    sdim, tdim = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    keys = st.tuples(st.integers(0, max(tdim - 1, 0)),
                     st.integers(0, max(sdim - 1, 0)))
    entries = draw(st.dictionaries(keys, st.integers(-3, 3).map(Fraction),
                                   max_size=8)) if sdim and tdim else {}
    return sdim, tdim, entries


@settings(derandomize=True, max_examples=150, deadline=None)
@given(slice_maps(), st.integers(0, 4))
def test_sparse_push_matches_the_general_path(case, m):
    sdim, tdim, entries = case
    want = reference_push(entries, tdim,
                          SubquotientBasis(sdim, identity(sdim), []),
                          SubquotientBasis(tdim, identity(tdim), []))
    for src in (WholeSpace(sdim), SubquotientBasis(sdim, identity(sdim), [])):
        for tgt in (WholeSpace(tdim),
                    SubquotientBasis(tdim, identity(tdim), [])):
            assert induced_matrix(entries, tdim, src, tgt) == want
        # a target spanned by the first m coordinates: pushed vectors
        # with a nonzero entry past them leave it
        m = min(m, tdim)
        part = SubquotientBasis(tdim, identity(tdim)[:m], [])
        if any(v and r >= m for (r, _c), v in entries.items()):
            with pytest.raises(AssertionError):
                induced_matrix(entries, tdim, src, part)
        else:
            assert induced_matrix(entries, tdim, src, part) == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(slice_maps(), st.lists(st.lists(st.integers(-2, 2), min_size=4,
                                       max_size=4), max_size=4))
def test_sparse_push_of_general_representatives(case, raw):
    # representatives that are not standard vectors, pushed sparsely
    sdim, tdim, entries = case
    cycles = [[Fraction(x) for x in vec[:sdim]] for vec in raw]
    src = SubquotientBasis(sdim, cycles, [])
    want = reference_push(entries, tdim, src,
                          SubquotientBasis(tdim, identity(tdim), []))
    assert induced_matrix(entries, tdim, src, WholeSpace(tdim)) == want
    assert induced_matrix(entries, tdim, src,
                          SubquotientBasis(tdim, identity(tdim), [])) == want


# -- exact results from mixed int / Fraction input ---------------------------

def exact_values(vec) -> bool:
    return all(type(v) in (int, Fraction) for v in vec)


@st.composite
def mixed_dense(draw, nrows, ncols):
    """A dense matrix as all-Fraction reference values and as the same
    values written mixed: an integral value at random as an int."""
    ref = [[draw(st.fractions(min_value=-3, max_value=3, max_denominator=3)
                 | st.just(Fraction(0))) for _ in range(ncols)]
           for _ in range(nrows)]
    mixed = [[int(v) if v.denominator == 1 and draw(st.booleans()) else v
              for v in row] for row in ref]
    return ref, mixed


@st.composite
def mixed_systems(draw):
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return nc, draw(mixed_dense(nr, nc)), draw(mixed_dense(1, nr)), \
        draw(mixed_dense(1, nc))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(mixed_systems())
def test_mixed_input_gives_exact_results_equal_to_the_fraction_path(case):
    nc, (ref, mixed), (ref_b, mix_b), (ref_v, mix_v) = case
    nr = len(ref)
    results = []
    for dense, b, vec in ((ref, ref_b[0], ref_v[0]),
                          (mixed, mix_b[0], mix_v[0])):
        entries = to_entries(dense)
        ech = Echelon(rows_from_entries(entries, nr), nc)
        kernel = ech.kernel_basis()
        x = ech.solve(b)
        image = mat_vec(entries, [1] * nc, nr)
        y = ech.solve(image)
        space = RowSpace(nc)
        for row in dense:
            space.add(row)
        red = space.reduce(vec)
        for v in kernel + [red, image] + [w for w in (x, y) if w is not None]:
            assert exact_values(v)
        assert y is not None and mat_vec(entries, y, nr) == image
        if x is not None:
            assert mat_vec(entries, x, nr) == b
        results.append((kernel, x, y, red))
    assert results[0] == results[1]


# -- quotient spaces: slices with an incoming but no outgoing differential --

def assert_same_subquotient(sq, ref, dim):
    assert sq.dim == ref.dim
    assert sq.reps == ref.reps
    assert sq.boundary_basis == ref.boundary_basis
    assert mfact._leads(sq) == mfact._leads(ref)
    probes = identity(dim) + [[Fraction(t + 1, 2) for t in range(dim)]]
    for vec in probes:
        assert sq.express(vec) == ref.express(vec)


def test_quotient_space_reps_match_the_identity_list_on_sln_slices():
    # mfact._leads and the class weights read the representatives, so
    # they must be the same vectors in the same order as the greedy
    # choice from the identity list
    seen = 0
    for text, N in (("2: 1 1 1", 3), ("2: 1 1 1 1 1", 3)):
        data = ColumnData(rouquier_complex(Word.parse(text)), N, True)
        lo, _hi, top = scan_bounds(data.cols.values(), DegreeWindow())
        for q in range(lo, top + 3 * (N + 1)):
            for sigma in data.sigmas(q):
                for sl in data.slicers.values():
                    dim, inc = sl.dim(sigma), sl.diff(sl.prev(sigma))
                    if not dim or sl.diff(sigma) or not inc:
                        continue
                    sq = kernel_mod_image(dim, {}, 0, inc)
                    assert type(sq) is QuotientSpace
                    cols: dict = {}
                    for (r, c), v in inc.items():
                        cols.setdefault(c, [0] * dim)[r] = v
                    ref = SubquotientBasis(dim, identity(dim),
                                           list(cols.values()))
                    assert_same_subquotient(sq, ref, dim)
                    seen += sq.free != list(range(sq.dim))
    assert seen >= 10  # slices whose classes skip some standard vectors


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.lists(st.integers(-2, 2), min_size=d,
                                  max_size=d), max_size=5))))
def test_quotient_space_matches_the_identity_list(case):
    dim, boundaries = case
    assert_same_subquotient(QuotientSpace(dim, boundaries),
                            SubquotientBasis(dim, identity(dim), boundaries),
                            dim)
