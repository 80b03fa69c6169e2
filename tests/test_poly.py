import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from braidhom.braid import Word
from braidhom.homology import homfly_homology
from braidhom.poly import (LIMIT, PIECE_CACHE_SIZE, GradedPiece, Poly,
                           graded_piece, monomial_count, monomials, pack,
                           phi, power_sum_difference, psi_quotient, unpack)

from axioms import run_optimized


def test_last_variable_elimination():
    for n in (1, 2, 3, 4):
        total = Poly.zero(n)
        for i in range(1, n + 1):
            total = total + Poly.x(n, i)
        assert not total


def test_basic_arithmetic():
    n = 3
    x1, x2 = Poly.x(n, 1), Poly.x(n, 2)
    assert (x1 + x2) ** 2 == x1 ** 2 + 2 * x1 * x2 + x2 ** 2
    assert (x1 - x2) * (x1 + x2) == x1 ** 2 - x2 ** 2
    assert x1 * 0 == Poly.zero(n)
    assert Fraction(1, 2) * (2 * x1) == x1


def test_x3_squares_correctly():
    # x_3 = -(x_1 + x_2) for n = 3
    n = 3
    x3 = Poly.x(n, 3)
    x1, x2 = Poly.x(n, 1), Poly.x(n, 2)
    assert x3 == -(x1 + x2)
    assert x3 ** 2 == x1 ** 2 + 2 * x1 * x2 + x2 ** 2


def test_homogeneous_degree():
    n = 2
    x1 = Poly.x(n, 1)
    assert x1.homogeneous_degree() == 2
    assert (x1 ** 3).homogeneous_degree() == 6
    assert Poly.zero(n).homogeneous_degree() is None
    p = x1 + x1 ** 2
    try:
        p.homogeneous_degree()
        assert False
    except ValueError:
        pass


def test_degree_multiplicative():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([2, 3])
        a = rng.randrange(1, 4)
        b = rng.randrange(1, 4)
        p = Poly.x(n, rng.randrange(1, n + 1)) ** a
        q = Poly.x(n, rng.randrange(1, n + 1)) ** b
        assert (p * q).homogeneous_degree() == 2 * (a + b)


def test_phi_psi_identity():
    # phi_i * psi_i^(N) = x_i^N - y_i^N, for every strand including the last
    for n in (2, 3):
        for i in range(1, n + 1):
            for N in (1, 2, 3, 4):
                lhs = phi(n, i) * psi_quotient(n, i, N)
                rhs = Poly.x(n, i, True) ** N - Poly.y(n, i) ** N
                assert lhs == rhs, (n, i, N)


def test_power_sum_difference_small_cases():
    # on 2 strands the odd power sums vanish identically
    assert not power_sum_difference(2, 3)
    assert not power_sum_difference(2, 5)
    assert power_sum_difference(2, 2)
    # n = 3: sum x_i^2 = 2(x1^2 + x1 x2 + x2^2) after eliminating x3
    x1, x2 = Poly.x(3, 1, True), Poly.x(3, 2, True)
    y1, y2 = Poly.y(3, 1), Poly.y(3, 2)
    expect = 2 * (x1 ** 2 + x1 * x2 + x2 ** 2) - 2 * (y1 ** 2 + y1 * y2 + y2 ** 2)
    assert power_sum_difference(3, 2) == expect


def test_monomial_enumeration():
    ms = list(monomials(2, 3))
    assert ms == [(0, 3), (1, 2), (2, 1), (3, 0)]
    rng = random.Random(3)
    for _ in range(25):
        m = rng.randrange(0, 5)
        t = rng.randrange(0, 7)
        got = list(monomials(m, t))
        assert len(got) == monomial_count(m, t)
        assert len(set(got)) == len(got)
        if m:
            assert len(got) == comb(t + m - 1, m - 1)


def test_graded_piece_basis_and_dimensions():
    gp = graded_piece(3, 6, False)
    assert gp.dim == 4  # monomials of total exponent 3 in 2 vars
    assert gp.basis == tuple(pack(e, 2) for e in monomials(2, 3))
    # odd and negative degrees are empty
    assert graded_piece(3, 5, False).dim == 0
    assert graded_piece(3, -2, True).dim == 0
    assert graded_piece(2, 0, False).dim == 1


def test_shift_tables_index_the_product_monomials():
    for n, degree, two_sided in ((3, 4, False), (3, 2, True), (1, 0, False)):
        src = graded_piece(n, degree, two_sided)
        nvars = 2 * (n - 1) if two_sided else n - 1
        for k in range(3):
            tgt = graded_piece(n, degree + 2 * k, two_sided)
            for e in monomials(nvars, k):
                rows = src.shift(pack(e, nvars))
                assert src.shift(pack(e, nvars)) is rows
                assert [unpack(tgt.basis[r], nvars) for r in rows] == [
                    tuple(a + b for a, b in zip(e, unpack(m, nvars)))
                    for m in src.basis]


def test_pipeline_builds_each_piece_once(monkeypatch):
    # one pipeline call meets each (n, degree, two_sided) piece once; the
    # slices of every column and map share it
    real = GradedPiece.__init__
    built = []

    def counting(self, n, degree, two_sided):
        built.append((n, degree, two_sided))
        real(self, n, degree, two_sided)

    monkeypatch.setattr(GradedPiece, "__init__", counting)
    graded_piece.cache_clear()
    homfly_homology(Word.parse("2: 1 1 1 1 1"))
    assert built and len(set(built)) == len(built)


def test_piece_cache_stays_bounded():
    # more distinct one-variable pieces than the cache holds: it evicts,
    # keeps its bound, and an evicted piece comes back equal
    graded_piece.cache_clear()
    first = graded_piece(3, 6, True)
    rows = first.shift(pack((1, 0, 0, 1), 4))
    for d in range(0, 2 * (PIECE_CACHE_SIZE + 100), 2):
        graded_piece(2, d, False)
    info = graded_piece.cache_info()
    assert info.misses > PIECE_CACHE_SIZE
    assert info.currsize <= info.maxsize == PIECE_CACHE_SIZE
    again = graded_piece(3, 6, True)
    assert again is not first
    assert again.basis == first.basis
    assert again.shift(pack((1, 0, 0, 1), 4)) == rows


def test_split_xy():
    n = 2
    p = phi(n, 1) * psi_quotient(n, 1, 2)  # x1^2 - y1^2
    pairs = dict(p.split_xy())
    assert pairs[(0,)] == Poly.x(n, 1) ** 2
    assert pairs[(2,)] == Poly.const(n, -1)


# -- the packed monomial layout ----------------------------------------------

@st.composite
def monomial_lists(draw):
    """A ring (n = 1 to 4, one- or two-sided) and one to six exponent
    tuples of it, each of total degree below LIMIT: every exponent
    small, or near LIMIT / nvars, so that fields near the top of their
    range are packed and some products pass the bound."""
    n = draw(st.integers(1, 4))
    two_sided = draw(st.booleans())
    nvars = 2 * (n - 1) if two_sided else n - 1
    top = (LIMIT - 1) // max(nvars, 1)
    exps = st.one_of(st.integers(0, 3), st.integers(top - 3, top))
    tuples = draw(st.lists(st.tuples(*[exps] * nvars), min_size=1,
                           max_size=6))
    return n, two_sided, nvars, tuples


@settings(derandomize=True, max_examples=200, deadline=None)
@given(monomial_lists())
def test_packed_monomials_match_the_exponent_tuple_reference(case):
    n, two_sided, nvars, tuples = case
    packed = [pack(e, nvars) for e in tuples]
    assert [unpack(m, nvars) for m in packed] == tuples
    # int order is the lex order of the exponent tuples
    assert [unpack(m, nvars) for m in sorted(packed)] == sorted(tuples)
    for e, m in zip(tuples, packed):
        p = Poly(n, {e: 1}, two_sided)
        assert p.terms == {m: 1}
        assert p.degree() == p.homogeneous_degree() == 2 * sum(e)
    for a, ma in zip(tuples, packed):
        for b, mb in zip(tuples, packed):
            total = tuple(x + y for x, y in zip(a, b))
            pa, pb = Poly(n, {a: 1}, two_sided), Poly(n, {b: 1}, two_sided)
            if sum(total) < LIMIT:
                assert ma + mb == pack(total, nvars)
                assert (pa * pb).terms == {ma + mb: 1}
            else:
                # the sum carries out of no field, and Poly rejects it
                assert unpack(ma + mb, nvars) == total
                with pytest.raises(ValueError, match="reaches"):
                    pa * pb


def test_total_degree_below_the_limit_is_accepted():
    for n, two_sided in ((3, False), (4, False), (3, True)):
        nvars = 2 * (n - 1) if two_sided else n - 1
        for first in (LIMIT - 1, 1):
            edge = (first,) + (0,) * (nvars - 2) + (LIMIT - 1 - first,)
            assert Poly(n, {edge: 1}, two_sided).degree() == 2 * (LIMIT - 1)
            past = edge[:-1] + (edge[-1] + 1,)
            with pytest.raises(ValueError, match="not below"):
                Poly(n, {past: 1}, two_sided)
    # a product reaching the bound raises instead of carrying
    edge = Poly(2, {(LIMIT - 1,): 1})
    with pytest.raises(ValueError, match="reaches"):
        edge * Poly.x(2, 1)


OPTIMIZED_MONOMIALS = """
from braidhom.poly import LIMIT, Poly
assert False, "asserts must be stripped"
for build in (lambda: Poly(3, {(1, 0, 0): 1}),
              lambda: Poly(3, {(1, -1): 1}),
              lambda: Poly(3, {(LIMIT, 0): 1}),
              lambda: Poly(3, {(LIMIT - 1, 0): 1}) * Poly.x(3, 2)):
    try:
        build()
    except ValueError as e:
        print("raised:", e)
"""


def test_monomial_checks_survive_python_O():
    # wrong length, negative exponent, total degree LIMIT, and a product
    # of total degree LIMIT
    out = run_optimized(OPTIMIZED_MONOMIALS).splitlines()
    assert len(out) == 4, out
    for line, want in zip(out, ("needs 2 exponents", "negative exponent",
                                "not below 32768", "reaches 32768")):
        assert line.startswith("raised: ") and want in line, out


# -- canonical coefficients -------------------------------------------------

def is_canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_integral_coefficients_are_stored_as_ints():
    n = 3
    x1, x2, one = pack((1, 0), 2), pack((0, 1), 2), pack((0, 0), 2)
    p = Poly(n, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)})
    assert p.terms == {x1: 2, x2: Fraction(1, 2)}
    assert type(p.terms[x1]) is int
    assert type(p.terms[x2]) is Fraction
    assert type(Poly.const(n, Fraction(-6, 3)).terms[one]) is int
    half = Poly.const(n, Fraction(1, 2))
    for q in (half + half, 2 * half, half * Poly.const(n, 2), -(-2 * half)):
        assert q == Poly.one(n) and type(q.terms[one]) is int


def test_inexact_coefficients_raise_type_error():
    x = Poly.x(2, 1)
    for bad in (0.5, 0.0, 2.0, 1j, "1", None):
        with pytest.raises(TypeError):
            Poly(2, {(1,): bad})
        with pytest.raises(TypeError):
            Poly.const(2, bad)
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
        with pytest.raises(TypeError):
            x + bad


@st.composite
def mixed_terms(draw):
    """Terms of a poly in two variables as all-Fraction reference values
    and as the same values written mixed: an integral value at random as
    an int or as a Fraction."""
    ref = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        max_size=5))
    mixed = {m: int(c) if c.denominator == 1 and draw(st.booleans()) else c
             for m, c in ref.items()}
    return ref, mixed


def reference_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def reference_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1])
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(mixed_terms(), mixed_terms())
def test_mixed_arithmetic_matches_the_fraction_reference(a, b):
    # int == Fraction and their hashes agree, so canonical storage leaves
    # every equality and hash as all-Fraction storage had them
    (ref_a, mix_a), (ref_b, mix_b) = a, b
    pa, pb = Poly(3, mix_a), Poly(3, mix_b)
    for got, ref in ((pa, {m: c for m, c in ref_a.items() if c}),
                     (pa + pb, reference_add(ref_a, ref_b)),
                     (pa - pb, reference_add(
                         ref_a, {m: -c for m, c in ref_b.items()})),
                     (pa * pb, reference_mul(ref_a, ref_b))):
        ref = {pack(m, 2): c for m, c in ref.items()}
        assert got.terms == ref
        assert all(is_canonical(c) for c in got.terms.values())
        assert hash(got) == hash((3, False, frozenset(ref.items())))
