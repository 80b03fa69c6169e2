import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from braidhom.bimodule import (Bimodule, BimoduleMap, GradedFreeBasis,
                               aux_bimodules, bs_bimodule, extension_bimodule,
                               graded_map_entries, identity_bimodule,
                               identity_map, mat_add, mat_eq, mat_identity,
                               mat_mul, mat_scale, merge_projection,
                               split_inclusion, tensor_mat)
from braidhom.diffobj import DiffObject
from braidhom.linalg import InvariantError, matrix_rank
from braidhom import mfact
from braidhom.poly import Poly, graded_piece, phi, unpack

from axioms import check_bimodule, compose, run_optimized


def test_constructors_satisfy_axioms():
    for n in (1, 2, 3):
        check_bimodule(identity_bimodule(n))
    for n, i in ((2, 1), (3, 1), (3, 2), (4, 2)):
        check_bimodule(bs_bimodule(n, i))
        check_bimodule(extension_bimodule(n, i))


def test_bs_generator_degrees_and_action_shape():
    B = bs_bimodule(2, 1)
    assert B.gens == (-1, 1)
    x1 = Poly.x(2, 1)
    # right action of x_2 on the first generator is e_1 - left-mult never
    # enters, so the (1,0) entry is the constant 1
    assert B.action(2)[(1, 0)] == Poly.one(2)
    assert B.action(2)[(0, 1)] == -(x1 * Poly.x(2, 2))


def test_crossing_maps_are_degree_zero_intertwiners():
    for n, i in ((2, 1), (3, 1), (3, 2)):
        s = split_inclusion(n, i)
        m = merge_projection(n, i)
        assert s.degree == 0 and m.degree == 0
        s.check()
        m.check()


def test_merge_after_split_is_variable_difference():
    # with shifts stripped, the composite is multiplication by x_i - x_{i+1}
    n, i = 3, 2
    S = identity_bimodule(n)
    B = bs_bimodule(n, i)
    iota = BimoduleMap(S, B, {(0, 0): Poly.x(n, i), (1, 0): Poly.const(n, -1)})
    mu = BimoduleMap(B, S, {(0, 0): Poly.one(n), (0, 1): Poly.x(n, i + 1)})
    comp = compose(mu, iota)
    assert comp.mat == {(0, 0): Poly.x(n, i) - Poly.x(n, i + 1)}
    assert iota.degree == 1 and mu.degree == 1 and comp.degree == 2


def test_extension_module_maps():
    for n, i in ((2, 1), (3, 1), (3, 2)):
        E, maps = aux_bimodules(n, i)
        check_bimodule(E)
        for name, f in maps.items():
            assert f.degree == 0, name
            f.check()
        # composites along the two exact rows vanish
        assert compose(maps["quotient"], maps["uv_inclusion"]).is_zero
        assert compose(maps["evaluation"], maps["u_inclusion"]).is_zero
        # commuting squares gluing the rows to the crossing complexes
        assert mat_eq(compose(maps["u_inclusion"], split_inclusion(n, i)).mat,
                      maps["uv_inclusion"].mat)
        assert mat_eq(compose(merge_projection(n, i), maps["quotient"]).mat,
                      maps["evaluation"].mat)


def graded_rank(f, j):
    src = GradedFreeBasis(f.src.n, f.src.gens, j)
    tgt = GradedFreeBasis(f.tgt.n, f.tgt.gens, j + (f.degree or 0))
    ent = graded_map_entries(f.mat, src, tgt)
    return matrix_rank(ent, tgt.dim, src.dim), src.dim, tgt.dim


def test_extension_rows_are_exact_degreewise():
    for n, i in ((2, 1), (3, 1)):
        E, maps = aux_bimodules(n, i)
        rows = [(maps["uv_inclusion"], maps["quotient"]),
                (maps["u_inclusion"], maps["evaluation"])]
        for inc, proj in rows:
            for j in range(-2, 9, 2):
                r_inc, d_src, _ = graded_rank(inc, j)
                r_proj, d_mid, d_out = graded_rank(proj, j)
                assert r_inc == d_src, (n, i, j)       # injective
                assert r_proj == d_out, (n, i, j)      # surjective
                assert d_mid - r_proj == r_inc, (n, i, j)  # exact middle


def test_tensor_with_identity_is_identity():
    for n, i in ((2, 1), (3, 2)):
        B = bs_bimodule(n, i)
        S = identity_bimodule(n)
        left = S.tensor(B)
        right = B.tensor(S)
        for k in range(1, n + 1):
            assert mat_eq(left.action(k), B.action(k))
            assert mat_eq(right.action(k), B.action(k))
        assert left.gens == B.gens and right.gens == B.gens


def test_tensor_square_satisfies_axioms():
    T = bs_bimodule(2, 1).tensor(bs_bimodule(2, 1))
    check_bimodule(T)
    assert T.rank == 4
    T2 = bs_bimodule(3, 1).tensor(bs_bimodule(3, 2))
    check_bimodule(T2)


def test_map_tensor_functorial():
    n, i = 2, 1
    S = identity_bimodule(n)
    B = bs_bimodule(n, i)
    iota = BimoduleMap(S, B, {(0, 0): Poly.x(n, i), (1, 0): Poly.const(n, -1)})
    mu = BimoduleMap(B, S, {(0, 0): Poly.one(n), (0, 1): Poly.x(n, i + 1)})
    idB = identity_map(B)
    # (mu (x) id) after (iota (x) id) == (mu iota) (x) id
    lhs = mat_mul(tensor_mat(mu, idB), tensor_mat(iota, idB))
    rhs = tensor_mat(compose(mu, iota), idB)
    assert mat_eq(lhs, rhs)
    # identity tensor identity is the identity
    both = tensor_mat(identity_map(S), idB)
    assert mat_eq(both, identity_map(S.tensor(B)).mat)
    BimoduleMap(S.tensor(B), S.tensor(B), lhs).check()


def test_two_sided_action_consistency():
    for n, i in ((2, 1), (3, 1), (3, 2)):
        B = bs_bimodule(n, i)
        # symmetric combination acts as zero
        sym = phi(n, i) + phi(n, i + 1)
        assert not B.two_sided_action(sym)
        # the Koszul differences agree with the two-sided operator
        for j in range(1, n):
            assert mat_eq(B.action_difference(j), B.two_sided_action(phi(n, j)))
    S = identity_bimodule(3)
    for j in (1, 2, 3):
        assert not S.two_sided_action(phi(3, j))


def flatten(basis: GradedFreeBasis, polys) -> list:
    """Reference: one coefficient vector of a list of per-generator
    polys, generator by generator in the basis of its piece."""
    v = [0] * basis.dim
    for off, piece, p in zip(basis.offsets, basis.pieces, polys):
        for mono, c in p.terms.items():
            v[off + piece.basis.index(mono)] = c
    return v


def test_graded_basis_map_matrix():
    rng = random.Random(17)
    n, i = 3, 1
    B = bs_bimodule(n, i)
    f = BimoduleMap(identity_bimodule(n), B,
                    {(0, 0): Poly.x(n, i), (1, 0): Poly.const(n, -1)})
    j = 6
    src = GradedFreeBasis(n, f.src.gens, j)
    tgt = GradedFreeBasis(n, f.tgt.gens, j + f.degree)
    ent = graded_map_entries(f.mat, src, tgt)
    for _ in range(5):
        polys = []
        for g in f.src.gens:
            piece = GradedFreeBasis(n, (g,), j).pieces[0]
            coeffs = [Fraction(rng.randrange(-3, 4)) for _ in range(piece.dim)]
            polys.append(Poly(n, dict(zip(piece.basis, coeffs))))
        v = flatten(src, polys)
        image = [Poly.zero(n) for _ in range(f.tgt.rank)]
        for (a, b), p in f.mat.items():
            image[a] = image[a] + p * polys[b]
        expect = flatten(tgt, image)
        got = [Fraction(0)] * tgt.dim
        for (r, c), val in ent.items():
            got[r] += val * v[c]
        assert got == expect


@st.composite
def graded_maps(draw):
    """A poly matrix between two free modules of one to three shifted
    generators, one- or two-sided, in one pair of internal degrees: an
    entry of one to three terms where its degree exists, at random, so
    some entries start at empty source pieces and some generators have
    empty pieces (negative or odd degree)."""
    # three strands twice as often: their pieces hold the most monomials
    n = draw(st.sampled_from([1, 2, 3, 3]))
    two_sided = draw(st.booleans())
    gens = st.lists(st.integers(-3, 4), min_size=1, max_size=3)
    src = GradedFreeBasis(n, draw(gens), draw(st.integers(-2, 6)), two_sided)
    tgt = GradedFreeBasis(n, draw(gens), src.j + draw(st.integers(-2, 6)),
                          two_sided)
    coef = st.fractions(-3, 3, max_denominator=2).filter(bool)
    mat = {}
    for a, ga in enumerate(tgt.gens):
        for b, gb in enumerate(src.gens):
            need = (tgt.j - ga) - (src.j - gb)
            monos = graded_piece(n, need, two_sided).basis
            if monos and draw(st.booleans()):
                terms = draw(st.dictionaries(st.sampled_from(monos), coef,
                                             min_size=1, max_size=3))
                mat[(a, b)] = Poly(n, terms, two_sided)
    return mat, src, tgt


def dense_entries(mat, src, tgt) -> dict:
    """Reference: multiply each source monomial by its column of polys and
    flatten the images in the target basis."""
    out = {}
    for b, piece in enumerate(src.pieces):
        for k, mono in enumerate(piece.basis):
            m = Poly(src.n, {mono: 1}, piece.two_sided)
            image = [Poly.zero(src.n, piece.two_sided)] * len(tgt.gens)
            for (a, bb), p in mat.items():
                if bb == b:
                    image[a] = p * m
            for r, v in enumerate(flatten(tgt, image)):
                if v:
                    out[(r, src.offsets[b] + k)] = v
    return out


@settings(derandomize=True, max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(graded_maps())
def test_graded_map_entries_agree_with_multiplication(drawn):
    mat, src, tgt = drawn
    assert graded_map_entries(mat, src, tgt) == dense_entries(mat, src, tgt)
    # an entry of the wrong degree at a nonempty source piece is an error
    b = next((b for b, piece in enumerate(src.pieces) if piece.dim), None)
    if b is None:
        return
    need = (tgt.j - tgt.gens[0]) - (src.j - src.gens[b])
    wrong = (Poly.const(src.n, 1, src.pieces[b].two_sided) if need
             else Poly.x(src.n, 1, src.pieces[b].two_sided))
    if wrong:
        with pytest.raises(InvariantError, match="has degree"):
            graded_map_entries({**mat, (0, b): wrong}, src, tgt)


# -- the fused matrix product -------------------------------------------------

def reference_poly_mul(p: Poly, q: Poly) -> Poly:
    """A product of two polys by its own double loop over their terms,
    independent of poly.add_products: exponent tuples added, which Poly
    packs."""
    k = p.nvars
    terms: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = tuple(a + b for a, b in zip(unpack(m1, k), unpack(m2, k)))
            terms[mono] = terms.get(mono, 0) + c1 * c2
    return Poly(p.n, terms, p.two_sided)


def reference_mat_mul(a: dict, b: dict) -> dict:
    """A product of two poly matrices: one Poly per entry product, added
    up with Poly.__add__, zero entries dropped."""
    out: dict = {}
    for (i, k), u in a.items():
        for (k2, j), v in b.items():
            if k2 == k:
                prod = reference_poly_mul(u, v)
                out[(i, j)] = out[(i, j)] + prod if (i, j) in out else prod
    return {key: p for key, p in out.items() if p}


@st.composite
def poly_matrix_pairs(draw):
    """Two poly matrices over one ring (n = 1, 2 or 3, one- or
    two-sided) of at most 3 x 3 entries each, possibly empty, with
    one to three terms per entry and half-integer coefficients, so that
    products of halves can add up to integers.  A middle index k is
    then doubled at random: a gets a copy of its column k and b the
    negation of its row k, which leaves the product unchanged and makes
    every entry that only k reaches cancel to zero."""
    n = draw(st.sampled_from([1, 2, 3]))
    two_sided = draw(st.booleans())
    nvars = 2 * (n - 1) if two_sided else n - 1
    mono = st.tuples(*[st.integers(0, 2)] * nvars)
    coef = st.fractions(-2, 2, max_denominator=2).filter(bool)
    poly = st.dictionaries(mono, coef, min_size=1, max_size=3).map(
        lambda terms: Poly(n, terms, two_sided))
    rows, mid, cols = (draw(st.integers(1, 3)) for _ in range(3))
    # each operand is empty about one time in ten
    a, b = ({} if draw(st.integers(0, 9)) == 9 else draw(st.dictionaries(
        st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)), poly,
        min_size=1)) for nr, nc in ((rows, mid), (mid, cols)))
    if draw(st.booleans()):
        k = draw(st.integers(0, mid - 1))
        a.update({(i, mid): u for (i, kk), u in list(a.items()) if kk == k})
        b.update({(mid, j): -v for (kk, j), v in list(b.items()) if kk == k})
    return a, b


X1, HALF = Poly.x(2, 1), Fraction(1, 2)


@settings(derandomize=True, max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(poly_matrix_pairs())
# n = 1: constants, whose one monomial is the empty tuple
@example(({(0, 0): Poly.const(1, 3)}, {(0, 1): Poly.const(1, 3)}))
# halves adding up to the integer 1 at (0, 0) and to 0 at (0, 1)
@example(({(0, 0): HALF * X1, (0, 1): HALF * X1},
          {(0, 0): X1, (1, 0): X1, (0, 1): X1, (1, 1): -X1}))
# two-sided entries, and an empty operand on either side
@example(({(0, 0): phi(2, 1)}, {(0, 0): phi(2, 1)}))
@example(({}, {(0, 0): phi(2, 1)}))
@example(({(0, 0): phi(2, 1)}, {}))
def test_fused_product_matches_the_poly_by_poly_reference(pair):
    a, b = pair
    got = mat_mul(a, b)
    assert got == reference_mat_mul(a, b)
    for p in got.values():
        # a nonzero Poly with canonical coefficients: an int whenever
        # the sum of Fraction products is integral
        assert p and all(c and (type(c) is int if c.denominator == 1
                                else type(c) is Fraction)
                         for c in p.terms.values()), p.terms


# -- right actions -----------------------------------------------------------

def reference_right_mult_matrix(M: Bimodule, p: Poly) -> dict:
    """The right action of p: each monomial c m as c times the identity,
    multiplied by the action matrices one by one, summed with mat_add."""
    out: dict = {}
    for mono, c in p.terms.items():
        m = mat_scale(Poly.const(M.n, c), mat_identity(M.rank, M.n))
        for i, e in enumerate(unpack(mono, M.n - 1)):
            for _ in range(e):
                m = mat_mul(m, M.actions[i])
        out = mat_add(out, m)
    return out


RIGHT_ACTION_MODULES = (
    [identity_bimodule(n) for n in (1, 2, 3)]
    + [make(n, i) for make in (bs_bimodule, extension_bimodule)
       for n, i in ((2, 1), (3, 1), (3, 2))]
    + [M.tensor(M) for M in (bs_bimodule(2, 1), extension_bimodule(3, 2))])


@st.composite
def right_actions(draw):
    """A constructor bimodule or a tensor square, and a one-sided poly
    of one to four terms of degree 0, 1 or 2 with half-integer
    coefficients."""
    M = draw(st.sampled_from(RIGHT_ACTION_MODULES))
    mono = st.tuples(*[st.integers(0, 2)] * (M.n - 1)).filter(
        lambda m: sum(m) <= 2)
    coef = st.fractions(-2, 2, max_denominator=2).filter(bool)
    terms = draw(st.dictionaries(mono, coef, min_size=1, max_size=4))
    return M, Poly(M.n, terms)


@settings(derandomize=True, max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(right_actions())
# a pure constant: straight onto the diagonal
@example((bs_bimodule(3, 1), Poly.const(3, Fraction(-3, 2))))
# n = 1: the only monomial is the empty tuple
@example((identity_bimodule(1), Poly.const(1, 2)))
def test_right_mult_matrix_matches_the_identity_product(case):
    M, p = case
    got = M.right_mult_matrix(p)
    assert got == reference_right_mult_matrix(M, p)
    for q in got.values():
        assert q and all(c and (type(c) is int if c.denominator == 1
                                else type(c) is Fraction)
                         for c in q.terms.values()), q.terms


# -- the checks raise InvariantError, also under python -O -------------------

def test_failed_checks_raise_invariant_error(monkeypatch):
    # e_0 -> e_0 on S_1 does not commute with the right action of x_2,
    # which sends e_0 to e_1
    B = bs_bimodule(2, 1)
    with pytest.raises(InvariantError, match="intertwine"):
        BimoduleMap(B, B, {(0, 0): Poly.one(2)}).check()
    with pytest.raises(InvariantError, match="sum to zero"):
        check_bimodule(Bimodule(2, B.gens, [B.action(1), B.action(1)]))
    # 1 and x_1 cannot both be images of one homogeneous map
    with pytest.raises(InvariantError, match="mixed degrees"):
        BimoduleMap(B, B, {(0, 0): Poly.one(2), (1, 1): Poly.x(2, 1)})
    # from degree 6 of S to degree 6 of S_1 the e_0 entry needs degree 1;
    # x_1 has degree 2
    with pytest.raises(InvariantError, match="degree 2, needs 1"):
        graded_map_entries({(0, 0): Poly.x(2, 1)},
                           GradedFreeBasis(2, (0,), 6),
                           GradedFreeBasis(2, B.gens, 6))
    # a non-homogeneous entry is an internal error at every site that
    # reads its degree
    mixed = Poly.one(2) + Poly.x(2, 1)
    with pytest.raises(InvariantError, match="entry \\(0, 0\\) not homog"):
        graded_map_entries({(0, 0): mixed}, GradedFreeBasis(2, (0,), 6),
                           GradedFreeBasis(2, (0,), 8))
    with pytest.raises(InvariantError, match="entry \\(0, 0\\) not homog"):
        BimoduleMap(B, B, {(0, 0): mixed})
    with pytest.raises(InvariantError, match="x_1 entry \\(0, 0\\) not homog"):
        check_bimodule(Bimodule(2, B.gens, [{(0, 0): mixed},
                                            {(0, 0): -mixed}]))
    with pytest.raises(InvariantError, match="differential entry \\(1, 0\\)"):
        DiffObject(2, [(0, 2), (0, 0)], {(1, 0): mixed}).check()
    x = Poly.x(2, 1)
    with pytest.raises(InvariantError, match="d\\^2"):
        DiffObject(2, [(0, 4), (0, 2), (0, 0)],
                   {(1, 0): x, (2, 1): x}).check()
    # a doubled factorization squares to four times the potential
    build = mfact.exterior_column

    def doubled(*args):
        z = build(*args)
        return DiffObject(z.n, z.gens, {key: p + p
                                        for key, p in z.diff.items()},
                          z.labels)

    monkeypatch.setattr(mfact, "exterior_column", doubled)
    with pytest.raises(InvariantError, match="potential"):
        mfact.z_factorization(2, 3)


def test_folded_curvature_check_raises_invariant_error(monkeypatch):
    # a wrong potential makes the square of a curved fold disagree with it
    E, _maps = aux_bimodules(2, 1)
    monkeypatch.setattr(mfact, "power_sum_difference",
                        lambda n, N: Poly.zero(n, True))
    with pytest.raises(InvariantError, match="potential action"):
        mfact.folded_column(E, 3)


OPTIMIZED_POTENTIAL = """
from braidhom import mfact
from braidhom.bimodule import aux_bimodules
from braidhom.linalg import InvariantError
from braidhom.poly import Poly, power_sum_difference
assert False, "asserts must be stripped"
# the true factorization against twice its potential
z = mfact.z_factorization(2, 3)
wrong = power_sum_difference(2, 4) * 2
try:
    mfact._check_potential(z, lambda: {(0, 0): wrong})
except InvariantError as e:
    print("raised:", e)
# a curved fold against the zero potential
mfact.power_sum_difference = lambda n, N: Poly.zero(n, True)
E, _maps = aux_bimodules(2, 1)
try:
    mfact.folded_column(E, 3)
except InvariantError as e:
    print("raised:", e)
"""


def test_potential_check_survives_python_O():
    out = run_optimized(OPTIMIZED_POTENTIAL)
    assert out.startswith("raised: square differs from the potential action\n"
                          "raised: square differs from the potential action\n"
                          ), out


OPTIMIZED_INTERTWINING = """
from braidhom.bimodule import BimoduleMap, bs_bimodule
from braidhom.linalg import InvariantError
from braidhom.poly import Poly
assert False, "asserts must be stripped"
B = bs_bimodule(2, 1)
try:
    BimoduleMap(B, B, {(0, 0): Poly.one(2)}).check()
except InvariantError as e:
    print("raised:", e)
"""


def test_intertwining_check_survives_python_O():
    out = run_optimized(OPTIMIZED_INTERTWINING)
    assert out.startswith("raised: does not intertwine"), out


OPTIMIZED_HOMOGENEITY = """
from braidhom.bimodule import (BimoduleMap, GradedFreeBasis, bs_bimodule,
                               graded_map_entries)
from braidhom.linalg import InvariantError
from braidhom.poly import Poly
assert False, "asserts must be stripped"
B = bs_bimodule(2, 1)
for build in (lambda: BimoduleMap(B, B, {(0, 0): Poly.one(2),
                                         (1, 1): Poly.x(2, 1)}),
              lambda: graded_map_entries({(0, 0): Poly.x(2, 1)},
                                         GradedFreeBasis(2, (0,), 6),
                                         GradedFreeBasis(2, B.gens, 6)),
              lambda: graded_map_entries({(0, 0): Poly.one(2) + Poly.x(2, 1)},
                                         GradedFreeBasis(2, (0,), 6),
                                         GradedFreeBasis(2, (0,), 8))):
    try:
        build()
    except InvariantError as e:
        print("raised:", e)
"""


def test_homogeneity_checks_survive_python_O():
    # a map mixing degrees 0 and 2, an entry of degree 2 where the two
    # slices need 1, and an entry mixing degrees 0 and 2
    out = run_optimized(OPTIMIZED_HOMOGENEITY)
    assert out.startswith("raised: mixed degrees 0 vs 2 at (1, 1)\n"
                          "raised: entry (0, 0) has degree 2, needs 1\n"
                          "raised: entry (0, 0) not homogeneous: "
                          "degrees [0, 2]"), out
