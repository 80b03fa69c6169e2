import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from braidhom import mfact
from braidhom.braid import Word
from braidhom.complexes import rouquier_complex
from braidhom.homology import (ColumnData, DegreeWindow, _compose,
                               induced_matrix, scan_bounds, slice_subquotient)
from braidhom.linalg import (Echelon, InvariantError, RowSpace,
                             SubquotientBasis, _scaled_int_row, mat_mat,
                             mat_vec, matrix_rank, rows_from_entries)
from braidhom.rational import quotient

from axioms import run_optimized


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


def reference_compose(m2: dict, m1: dict) -> dict:
    """m2 after m1 as homology._compose computed it on its own: m1 entry
    by entry against the columns of m2."""
    by_col: dict = {}
    for (r, c), v in m2.items():
        by_col.setdefault(c, []).append((r, v))
    out: dict = {}
    for (r1, c1), v1 in m1.items():
        for r2, v2 in by_col.get(r1, ()):
            out[(r2, c1)] = out.get((r2, c1), 0) + v2 * v1
    return {k: v for k, v in out.items() if v}


def test_scalar_product_matches_compose():
    # mixed int/Fraction sparse matrices; doubling the middle index with
    # a copied column of a and a negated row of b cancels the product
    rng = random.Random(7)
    for _ in range(60):
        nr, nk, nc = (rng.randrange(0, 5) for _ in range(3))
        a = {key: int(v) if v.denominator == 1 and rng.random() < 0.5 else v
             for key, v in to_entries(random_dense(rng, nr, nk, 0.4)).items()}
        b = {key: int(v) if v.denominator == 1 and rng.random() < 0.5 else v
             for key, v in to_entries(random_dense(rng, nk, nc, 0.4)).items()}
        dense = [[sum((a.get((i, k), 0) * b.get((k, j), 0)
                       for k in range(nk)), Fraction(0))
                  for j in range(nc)] for i in range(nr)]
        got = mat_mat(a, b)
        assert got == to_entries(dense) == reference_compose(a, b)
        assert got == _compose(a, b)
        a2 = {**a, **{(i, k + nk): v for (i, k), v in a.items()}}
        b2 = {**b, **{(k + nk, j): -v for (k, j), v in b.items()}}
        assert mat_mat(a2, b2) == {} == _compose(a2, b2)
    assert mat_mat({}, {(0, 0): 1}) == {} == mat_mat({(0, 0): 1}, {})


def test_rowspace_membership():
    space = RowSpace(3)
    assert space.add([Fraction(1), Fraction(2), Fraction(0)])
    assert space.add([Fraction(0), Fraction(1), Fraction(1)])
    assert not space.add([Fraction(1), Fraction(3), Fraction(1)])
    assert not any(space.reduce([Fraction(2), Fraction(5), Fraction(1)]))
    assert any(space.reduce([Fraction(0), Fraction(0), Fraction(1)]))
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
                assert not any(space.reduce([a - b
                                             for a, b in zip(v, red)]))
                assert lead == next((c for c, x in enumerate(red) if x), None)
            if first is None:
                first = got
            assert got == first




# -- subquotients, against the cycle-list reference --------------------------

class CycleListSubquotient:
    """The reference subquotient: boundaries, then cycles, are chosen
    greedily in the order given, and coordinates come from an exact
    solve against [boundary basis | representatives]."""

    def __init__(self, ambient_dim: int, cycles, boundaries):
        space = RowSpace(ambient_dim)
        self.boundary_basis = []
        for b in boundaries:
            if space.add(b):
                self.boundary_basis.append(list(b))
        self.reps = []
        for z in cycles:
            if space.add(z):
                self.reps.append(list(z))
        cols = self.boundary_basis + self.reps
        entries = {(i, j): val for j, v in enumerate(cols)
                   for i, val in enumerate(v) if val}
        self.ambient_dim = ambient_dim
        self._solver = Echelon(rows_from_entries(entries, ambient_dim),
                               len(cols))

    @property
    def dim(self) -> int:
        return len(self.reps)

    def express(self, vec):
        if len(vec) != self.ambient_dim:
            raise ValueError("wrong length")
        x = self._solver.solve(list(vec))
        if x is None:
            raise ValueError("vector is not in cycles + boundaries")
        return x[len(self.boundary_basis):]


def boundary_columns(inc: dict, dim: int) -> list:
    """The columns of the incoming entries as dense vectors, in the
    order their first entries appear."""
    cols: dict = {}
    for (r, c), v in inc.items():
        cols.setdefault(c, [0] * dim)[r] = v
    return list(cols.values())


def reference(dim: int, out: dict, out_dim: int, inc: dict):
    """The reference subquotient of a slice, its cycles the kernel basis
    of the outgoing map."""
    cycles = Echelon(rows_from_entries(out, out_dim), dim).kernel_basis()
    return CycleListSubquotient(dim, cycles, boundary_columns(inc, dim))


def whole(dim: int) -> SubquotientBasis:
    return SubquotientBasis(dim, {}, 0, {})


def identity(dim):
    return [[Fraction(int(t == s)) for t in range(dim)] for s in range(dim)]


def assert_same_subquotient(sq, ref, probes):
    assert sq.dim == ref.dim
    assert sq.reps == ref.reps
    assert sq.boundary_basis == ref.boundary_basis
    assert mfact._leads(sq) == mfact._leads(ref)
    for vec in probes:
        try:
            want = ref.express(vec)
        except ValueError:
            with pytest.raises(ValueError):
                sq.express(vec)
        else:
            assert sq.express(vec) == want


def test_subquotient_three_term_complex():
    # d2: Q^1 -> Q^3 with image (1,-1,0); d1: Q^3 -> Q^1 summing coordinates.
    # ker d1 is 2-dim, so homology is 1-dim.
    one = Fraction(1)
    out = {(0, 0): one, (0, 1): one, (0, 2): one}
    inc = {(0, 0): one, (1, 0): -one}
    H = SubquotientBasis(3, out, 1, inc)
    assert H.dim == 1
    # the kernel vector at free column 2 represents the class: the
    # boundary ends at free column 1
    assert H.classes == [2] and H.reps == [[-1, 0, 1]]
    assert H.express([Fraction(0), one, -one]) == [-one]
    # shifting by a boundary must not change the coordinates
    assert H.express([one, Fraction(0), -one]) == [-one]
    # a boundary expresses as zero
    assert H.express([Fraction(2), Fraction(-2), Fraction(0)]) == [Fraction(0)]
    assert_same_subquotient(H, reference(3, out, 1, inc),
                            identity(3) + [[one, -one, Fraction(0)]])


def test_subquotient_rejects_foreign_vector():
    H = SubquotientBasis(2, {(0, 1): Fraction(1)}, 1, {})
    assert H.reps == [[1, 0]]
    with pytest.raises(ValueError):
        H.express([Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        H.express([Fraction(1)])


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
        inc = {(r, j): v for j, col in enumerate(cols)
               for r, v in enumerate(col) if v}
        H = SubquotientBasis(mid, e1, out, inc)
        bd_rank = RowSpace(mid)
        img = sum(1 for v in cols if bd_rank.add(v))
        assert H.dim == len(kb) - img


def test_whole_space_from_a_slice_without_differential():
    sq = SubquotientBasis(3, {}, 2, {})
    assert sq.whole and sq.standard and sq.dim == 3
    out = SubquotientBasis(3, {(0, 1): Fraction(1)}, 2, {})
    assert not out.whole and not out.standard
    inc = SubquotientBasis(3, {}, 2, {(1, 0): Fraction(1)})
    assert not inc.whole and inc.standard and inc.classes == [0, 2]


def test_whole_space_express_returns_its_input():
    vec = [Fraction(0), Fraction(-3, 2), Fraction(0), Fraction(5)]
    assert whole(4).express(vec) == vec
    assert whole(4).express(vec) is not vec
    assert whole(0).express([]) == []


def test_whole_space_express_rejects_a_wrong_length():
    for vec in ([Fraction(1)] * 2, [Fraction(1)] * 4):
        with pytest.raises(ValueError):
            whole(3).express(vec)
        with pytest.raises(ValueError):
            SubquotientBasis(3, {(0, 0): 1}, 1, {}).express(vec)


def test_whole_space_reps_are_the_standard_basis():
    assert whole(3).reps == identity(3)
    assert whole(3).reps == CycleListSubquotient(3, identity(3), []).reps
    assert whole(0).reps == [] and whole(0).dim == 0
    assert whole(2).boundary_basis == []


def test_class_leads_on_a_whole_space():
    assert mfact._leads(whole(4)) == [0, 1, 2, 3]
    assert mfact._leads(whole(4)) == \
        mfact._leads(CycleListSubquotient(4, identity(4), []))


def test_solve_length_check_raises_invariant_error():
    ech = Echelon(rows_from_entries({(0, 0): Fraction(1)}, 2), 1)
    with pytest.raises(InvariantError):
        ech.solve([Fraction(1)])


OPTIMIZED_SOLVE = """
from braidhom.linalg import Echelon, InvariantError
assert False, "asserts must be stripped"
try:
    Echelon([{0: 1}, {}], 1).solve([1])
except InvariantError as e:
    print("raised:", e)
"""


def test_solve_length_check_survives_python_O():
    assert run_optimized(OPTIMIZED_SOLVE).startswith(
        "raised: right-hand side of length 1 for 2 rows")


def test_incoming_rank_beyond_the_cycles_raises_invariant_error():
    # out kills the first of two coordinates: one cycle dimension
    with pytest.raises(InvariantError, match="2 independent boundaries"):
        SubquotientBasis(2, {(0, 0): 1}, 1, {}, 2)
    # a known rank that the boundaries do not have
    with pytest.raises(InvariantError, match="rank 1, not the known 0"):
        SubquotientBasis(2, {}, 0, {(0, 0): 1}, 0)


OPTIMIZED_RANK = """
from braidhom.linalg import InvariantError, SubquotientBasis
assert False, "asserts must be stripped"
try:
    SubquotientBasis(2, {(0, 0): 1}, 1, {}, 2)
except InvariantError as e:
    print("raised:", e)
"""


def test_incoming_rank_check_survives_python_O():
    assert run_optimized(OPTIMIZED_RANK).startswith(
        "raised: 2 independent boundaries in 1 cycle dimensions")


# -- the echelon form, against the left-to-right scan -------------------------

class ScanEchelon:
    """The reference echelon form: columns are scanned left to right,
    the first remaining row with a nonzero entry is swapped up and
    eliminated from every row below it."""

    def __init__(self, rows, ncols: int):
        self.ncols = ncols
        self.nrows = len(rows)
        self.scales = []
        self.rows = []
        for row in rows:
            irow, s = _scaled_int_row(row)
            self.rows.append(irow)
            self.scales.append(s)
        self.ops = []  # ("swap", i, j) | ("axpy", i, r, piv, v, g)
        self.pivots = []  # list of (row, col)
        work, r = self.rows, 0
        for col in range(ncols):
            if r == len(work):
                break
            sel = next((i for i in range(r, len(work)) if work[i].get(col)),
                       None)
            if sel is None:
                continue
            if sel != r:
                work[r], work[sel] = work[sel], work[r]
                self.ops.append(("swap", r, sel))
            piv = work[r][col]
            for i in range(r + 1, len(work)):
                v = work[i].get(col)
                if not v:
                    continue
                new = {c: piv * val for c, val in work[i].items()}
                for c, val in work[r].items():
                    new[c] = new.get(c, 0) - v * val
                new = {c: val for c, val in new.items() if val}
                g = 0
                for val in new.values():
                    g = gcd(g, val)
                g = max(g, 1)
                if g > 1:
                    new = {c: val // g for c, val in new.items()}
                work[i] = new
                self.ops.append(("axpy", i, r, piv, v, g))
            self.pivots.append((r, col))
            r += 1

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def free(self) -> list:
        piv = {col for _, col in self.pivots}
        return [c for c in range(self.ncols) if c not in piv]

    def solve(self, b):
        w = [v * s if v else 0 for v, s in zip(b, self.scales)]
        for op in self.ops:
            if op[0] == "swap":
                _, i, j = op
                w[i], w[j] = w[j], w[i]
            else:
                _, i, r, piv, v, g = op
                if w[i] or w[r]:
                    w[i] = piv * w[i] - v * w[r]
                    if g != 1:
                        w[i] = quotient(w[i], g)
        if any(w[self.rank:]):
            return None
        return self._back_substitute([0] * self.ncols, w)

    def _back_substitute(self, x, w):
        for r, col in reversed(self.pivots):
            row = self.rows[r]
            acc = 0 if w is None else w[r]
            for c, val in row.items():
                if c > col and x[c]:
                    acc -= val * x[c]
            if acc:
                x[col] = quotient(acc, row[col])
        return x

    def kernel_basis(self, cols=None):
        basis = []
        for f in self.free if cols is None else cols:
            x = [0] * self.ncols
            x[f] = 1
            basis.append(self._back_substitute(x, None))
        return basis


def typed(vec):
    """A vector as (type, value) pairs, so an int and an equal Fraction
    differ; None stays None."""
    return None if vec is None else [(type(v), v) for v in vec]


ECHELON_VALUES = st.sampled_from([1, -1, 2, -3, 4, Fraction(1, 2),
                                  Fraction(-3, 4), Fraction(5, 3),
                                  Fraction(-2), Fraction(1)])


@st.composite
def sparse_systems(draw):
    """(ncols, rows, x0, b, mask): sparse int/Fraction rows, some of them
    zero or copied, added or subtracted from others; a point x0, a free
    right-hand side b and a mask choosing free columns."""
    nr, nc = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    rows = [draw(st.dictionaries(st.integers(0, nc - 1), ECHELON_VALUES,
                                 max_size=4)) if nc else {}
            for _ in range(nr)]
    if nr:
        idx = st.integers(0, nr - 1)
        for dst, a, b, s in draw(st.lists(st.tuples(
                idx, idx, idx, st.sampled_from([0, 1, -1, 2])), max_size=6)):
            row = dict(rows[a])
            for c, v in rows[b].items():
                row[c] = row.get(c, 0) + s * v
            rows[dst] = {c: v for c, v in row.items() if v}
    x0 = draw(st.lists(ECHELON_VALUES | st.just(0), min_size=nc, max_size=nc))
    b = draw(st.lists(st.sampled_from([0, 0, 1, -2]) | ECHELON_VALUES,
                      min_size=nr, max_size=nr))
    mask = draw(st.lists(st.booleans(), min_size=nc, max_size=nc))
    return nc, rows, x0, b, mask


# no shrink phase: a failing case is already small enough to read
@settings(derandomize=True, max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@example((0, [], [], [], []))
@example((3, [], [1, 0, 2], [], [True, False, True]))
@example((0, [{}, {}], [], [1, 0], []))
@example((2, [{}, {0: 2, 1: 4}, {}], [1, 1], [0, 3, 0], [True, True]))
# row 0 is the only row that reduces to zero, two steps in, and it is the
# only inconsistent row of b
@example((3, [{0: 2, 1: 1, 2: 3}, {0: 1, 2: 1}, {1: 1, 2: 1}], [1, 2, 3],
          [1, 0, 0], [True, True, True]))
@given(sparse_systems())
def test_echelon_matches_the_scan_reference(case):
    nc, rows, x0, b, mask = case
    ech, ref = Echelon(rows, nc), ScanEchelon(rows, nc)
    assert (ech.nrows, ech.ncols, ech.rank) == (ref.nrows, ref.ncols, ref.rank)
    assert ech.free == ref.free
    assert list(map(typed, ech.kernel_basis())) == \
        list(map(typed, ref.kernel_basis()))
    subset = [f for f, keep in zip(ref.free, mask) if keep][::-1]
    assert list(map(typed, ech.kernel_basis(subset))) == \
        list(map(typed, ref.kernel_basis(subset)))
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
    image = mat_vec(entries, x0, len(rows))
    x = ech.solve(image)
    assert x is not None and mat_vec(entries, x, len(rows)) == image
    assert typed(x) == typed(ref.solve(image))
    # b plus a left kernel vector y is inconsistent: y . (A x + y) > 0
    left = ScanEchelon(rows_from_entries({(c, r): v for (r, c), v
                                          in entries.items()}, nc),
                       len(rows)).kernel_basis()
    for rhs in [b] + [[u + v for u, v in zip(image, y)] for y in left]:
        assert typed(ech.solve(rhs)) == typed(ref.solve(rhs))
    for y in left:
        assert ech.solve([u + v for u, v in zip(image, y)]) is None


@st.composite
def slice_complexes(draw):
    """(dim, out, out_dim, inc) with out . inc = 0: the boundaries are
    integer combinations of the kernel basis of out."""
    dim, out_dim = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    keys = st.tuples(st.integers(0, max(out_dim - 1, 0)),
                     st.integers(0, max(dim - 1, 0)))
    out = draw(st.dictionaries(keys, st.integers(-2, 2).filter(bool),
                               max_size=6)) if dim and out_dim else {}
    cycles = Echelon(rows_from_entries(out, out_dim), dim).kernel_basis()
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(cycles),
                                    max_size=len(cycles)), max_size=5))
    inc = {}
    for j, combo in enumerate(combos):
        for r in range(dim):
            v = sum(a * z[r] for a, z in zip(combo, cycles))
            if v:
                inc[(r, j)] = v
    return dim, out, out_dim, inc


# no shrink phase: the cases are already small
@settings(derandomize=True, max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(slice_complexes(), st.lists(st.integers(-2, 2), min_size=10,
                                   max_size=10))
def test_subquotient_matches_the_cycle_list_reference(case, coeffs):
    dim, out, out_dim, inc = case
    sq = SubquotientBasis(dim, out, out_dim, inc)
    ref = reference(dim, out, out_dim, inc)
    # probes: standard vectors (cycles only where out vanishes) and
    # combinations of representatives and boundaries
    mixed = [Fraction(0)] * dim
    for a, v in zip(coeffs, ref.reps + ref.boundary_basis):
        mixed = [x + Fraction(a, 2) * y for x, y in zip(mixed, v)]
    assert_same_subquotient(sq, ref, identity(dim) + [mixed])
    for c in {c for (_r, c) in out}:
        with pytest.raises(ValueError):
            sq.express(identity(dim)[c])
    with pytest.raises(ValueError):
        sq.express([0] * (dim + 1))


@st.composite
def slice_complexes_some_exact(draw):
    """slice_complexes, with the kernel basis of out, scaled, joining the
    boundaries in half the draws, which makes those slices exact."""
    dim, out, out_dim, inc = draw(slice_complexes())
    if draw(st.booleans()):
        cycles = Echelon(rows_from_entries(out, out_dim), dim).kernel_basis()
        width = 1 + max((c for _r, c in inc), default=-1)
        for j, z in enumerate(cycles):
            a = draw(st.integers(-2, 2).filter(bool))
            inc.update({(r, width + j): a * v for r, v in enumerate(z) if v})
    return dim, out, out_dim, inc


EXACT = (3, {(0, 0): 1, (0, 1): 1, (0, 2): 1}, 1,
         {(0, 0): 1, (1, 0): -1, (1, 1): 2, (2, 1): -2})


@settings(derandomize=True, max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(slice_complexes_some_exact(), st.lists(st.integers(-2, 2),
                                              min_size=10, max_size=10))
@example(EXACT, [1] * 10)
def test_subquotient_given_the_incoming_rank_matches_the_reference(case,
                                                                   coeffs):
    dim, out, out_dim, inc = case
    rank = matrix_rank(inc, dim, 1 + max((c for _r, c in inc), default=-1))
    called = []

    def lazy():
        called.append(True)
        return inc

    sq = SubquotientBasis(dim, out, out_dim, lazy, rank)
    plain = SubquotientBasis(dim, out, out_dim, inc)
    ref = reference(dim, out, out_dim, inc)
    assert sq.out_rank == plain.out_rank == matrix_rank(out, out_dim, dim)
    assert (sq.dim, sq.classes, sq.reps) == (ref.dim, plain.classes, ref.reps)
    assert (sq.standard, sq.whole) == (plain.standard, plain.whole)
    exact = sq.dim == 0
    # an exact slice never assembles nor spans its boundaries
    assert called == ([] if exact else [True])
    assert sq.boundary_basis == (None if exact else ref.boundary_basis)
    mixed = [Fraction(0)] * dim
    for a, v in zip(coeffs, ref.reps + ref.boundary_basis):
        mixed = [x + Fraction(a, 2) * y for x, y in zip(mixed, v)]
    for vec in identity(dim) + [mixed]:
        try:
            want = ref.express(vec)
        except ValueError:
            with pytest.raises(ValueError):
                sq.express(vec)
        else:
            assert sq.express(vec) == want
    # non-cycles are refused, on exact slices too
    for c in {c for (_r, c), v in out.items() if v}:
        with pytest.raises(ValueError):
            sq.express(identity(dim)[c])


def test_quotient_space_reps_match_the_identity_list_on_sln_slices():
    # mfact._leads and the class weights read the representatives, so
    # they must be the same vectors in the same order as the greedy
    # choice from the kernel basis, on the slices with only an incoming
    # differential and on those with both
    skipped = both = 0
    for text, N in (("2: 1 1 1", 3), ("2: 1 1 1 1 1", 3), ("3: 1 2", 3),
                    ("3: 1 -2", 3)):
        data = ColumnData(rouquier_complex(Word.parse(text)), N, True)
        lo, _hi, top = scan_bounds(data.cols.values(), DegreeWindow())
        for q in range(lo, top + 3 * (N + 1)):
            for sigma in data.sigmas(q):
                for sl in data.slicers.values():
                    dim, inc = sl.dim(sigma), sl.diff(sl.prev(sigma))
                    out = sl.diff(sigma)
                    if not dim or not inc:
                        continue
                    sq = slice_subquotient(sl, sigma, {})
                    ref = reference(dim, out, sl.dim(sl.next(sigma)), inc)
                    probes = identity(dim) + [
                        [Fraction(t + 1, 2) for t in range(dim)],
                        [sum(col) for col in zip(*ref.reps, *ref.boundary_basis)]]
                    assert_same_subquotient(sq, ref, probes)
                    skipped += not out and sq.classes != list(range(sq.dim))
                    both += bool(out)
    assert skipped >= 10  # slices whose classes skip some standard vectors
    assert both >= 10


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
                          CycleListSubquotient(sdim, identity(sdim), []),
                          CycleListSubquotient(tdim, identity(tdim), []))
    assert induced_matrix(entries, tdim, whole(sdim), whole(tdim)) == want
    # the target of cycles supported on the first m coordinates: pushed
    # vectors with a nonzero entry past them leave it
    m = min(m, tdim)
    part = SubquotientBasis(tdim, {(r - m, r): 1 for r in range(m, tdim)},
                            tdim - m, {})
    if any(v and r >= m for (r, _c), v in entries.items()):
        with pytest.raises(AssertionError):
            induced_matrix(entries, tdim, whole(sdim), part)
    else:
        assert induced_matrix(entries, tdim, whole(sdim), part) == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(slice_maps(), st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 3)),
    st.integers(-2, 2).filter(bool), max_size=6))
def test_sparse_push_of_general_representatives(case, raw):
    # representatives that are not standard vectors, pushed sparsely,
    # into a whole target and into one with the boundary e_0
    sdim, tdim, entries = case
    src = SubquotientBasis(sdim, {(r, c): v for (r, c), v in raw.items()
                                  if c < sdim}, 3, {})
    for tgt in (whole(tdim),
                SubquotientBasis(tdim, {}, 0, {(0, 0): 1} if tdim else {})):
        assert induced_matrix(entries, tdim, src, tgt) == \
            reference_push(entries, tdim, src, tgt)


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


