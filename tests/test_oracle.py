"""Trace-oracle tests: hand-verified values and skein/Markov properties."""

import itertools
from fractions import Fraction

from braidhom.braid import Word
from braidhom.laurent import Laurent2
from braidhom.oracle import (A_SPREAD, DELTA, TRACE_CACHE_SIZE, HomflyValue,
                             basis_trace, homfly_oracle, oracle_self_test,
                             vassiliev_oracle)

MIRROR = ((1, -1, 0), (1, 0, -1))  # a -> a^{-1}, q -> q^{-1}


def P(text: str) -> HomflyValue:
    return homfly_oracle(Word.parse(text))


# HOMFLY-value arithmetic beyond the sums the oracle itself takes


def minus(u: HomflyValue, v: HomflyValue) -> HomflyValue:
    return u + HomflyValue(-v.poly, v.denom)


def times(u: HomflyValue, v: HomflyValue) -> HomflyValue:
    return HomflyValue.make(u.poly * v.poly, u.denom + v.denom)


def scaled(u: HomflyValue, c: Laurent2) -> HomflyValue:
    return HomflyValue.make(u.poly * c, u.denom)


def mirrored(u: HomflyValue) -> HomflyValue:
    """a -> a^{-1}, q -> q^{-1} on a polynomial value."""
    assert u.denom == 0, "substitute only polynomial values"
    return HomflyValue(u.poly.substitute_monomials(*MIRROR))


def test_laurent_arithmetic():
    a = Laurent2.monomial(1, 0)
    q = Laurent2.monomial(0, 1)
    p = (a + q) * (a - q)
    assert p == a * a - q * q
    assert (a + q) ** 2 == a * a + 2 * a * q + q * q
    assert p - p == Laurent2.zero()
    assert bool(Laurent2.zero()) is False
    assert Laurent2({(0, 0): Fraction(1, 2)}) * 2 == Laurent2.one()


def test_laurent_divide_exact():
    num = DELTA * A_SPREAD * DELTA
    assert num.divide_exact(DELTA) == DELTA * A_SPREAD
    assert num.divide_exact(DELTA * DELTA) == A_SPREAD
    try:
        (DELTA + Laurent2.one()).divide_exact(DELTA)
        assert False, "expected inexact division to raise"
    except ValueError:
        pass


def test_laurent_substitute():
    p = Laurent2({(2, 1): 1, (-1, -3): 2})
    flipped = p.substitute_monomials(*MIRROR)
    assert flipped == Laurent2({(-2, -1): 1, (1, 3): 2})
    # an odd-exponent sign flip
    q = Laurent2.monomial(0, 1)
    assert q.substitute_monomials((1, 1, 0), (-1, 0, 1)) == \
        Laurent2({(0, 1): -1})


def test_unknot_presentations():
    one = HomflyValue(Laurent2.one())
    for text in ("1:", "2: 1", "2: -1", "3: 1 2", "3: -1 2",
                 "3: 1 -2", "2: 1 -1 1"):
        assert P(text) == one, text


def test_two_component_unlink():
    # closure of the empty 2-strand braid: (a - a^{-1}) / (q - q^{-1})
    assert P("2:") == HomflyValue.make(A_SPREAD, 1)


def test_trefoil_frozen():
    # hand-computed twice via the skein relation
    expected = Laurent2({(-2, 2): 1, (-2, -2): 1, (-4, 0): -1})
    val = P("2: 1 1 1")
    assert val.is_polynomial
    assert val == HomflyValue(expected)


def test_hopf_frozen():
    expected = Laurent2({(-1, 2): 1, (-1, 0): -1, (-1, -2): 1, (-3, 0): -1})
    assert P("2: 1 1") == HomflyValue.make(expected, 1)


def skein_triple(n, pre, i, post):
    plus = Word(n, tuple(pre) + ((i, 1),) + tuple(post))
    minus_word = Word(n, tuple(pre) + ((i, -1),) + tuple(post))
    zero = Word(n, tuple(pre) + tuple(post))
    a = Laurent2.monomial(1, 0)
    a_inv = Laurent2.monomial(-1, 0)
    lhs = minus(scaled(homfly_oracle(plus), a),
                scaled(homfly_oracle(minus_word), a_inv))
    rhs = scaled(homfly_oracle(zero), DELTA)
    return lhs, rhs


def test_skein_relation():
    cases = [
        (2, [(1, 1), (1, 1)], 1, []),
        (2, [], 1, [(1, 1)]),
        (3, [(2, 1), (1, 1)], 1, [(2, 1)]),
        (3, [(1, -1)], 2, [(1, -1), (2, 1)]),
        (4, [(1, 1), (2, -1)], 3, [(3, 1), (2, 1)]),
    ]
    for n, pre, i, post in cases:
        lhs, rhs = skein_triple(n, pre, i, post)
        assert lhs == rhs, (n, pre, i, post)


def test_markov_invariance():
    assert oracle_self_test(Word.parse("2: 1 1 1"), seed=7)
    assert oracle_self_test(Word.parse("3: 1 -2 1 -2"), seed=11)


def test_mirror_rule():
    tref = P("2: 1 1 1")
    mirror = P("2: -1 -1 -1")
    assert mirror == mirrored(tref)


def test_connected_sum_multiplicative():
    tref = P("2: 1 1 1")
    granny = P("3: 1 1 1 2 2 2")
    square = P("3: 1 1 1 -2 -2 -2")
    assert granny == times(tref, tref)
    assert square == times(tref, mirrored(tref))


def test_figure_eight_amphichiral():
    fig8 = P("3: 1 -2 1 -2")
    assert fig8.is_polynomial
    assert fig8 == mirrored(fig8)
    assert fig8 != HomflyValue(Laurent2.one())


def test_vassiliev_oracle():
    zero = vassiliev_oracle(Word.parse("2: 1!"))
    assert zero == HomflyValue(Laurent2.zero())
    # one singular crossing on a trefoil word: P(trefoil) - P(unknot)
    d1 = vassiliev_oracle(Word.parse("2: 1! 1 1"))
    assert d1 == minus(P("2: 1 1 1"), HomflyValue(Laurent2.one()))
    # two singular letters: inclusion-exclusion of four resolutions
    d2 = vassiliev_oracle(Word.parse("2: 1! 1! 1"))
    expected = minus(minus(P("2: 1 1 1"), P("2: 1")), P("2: 1")) \
        + P("2: -1 1 1")
    assert d2 == expected


def test_oracle_word_helpers():
    w = Word.parse("3: 1 -2 1!")
    assert w.is_singular
    kinds = [kind for _, kind in w.entries]
    assert kinds == [1, -1, 0]
    res = list(w.resolutions())
    assert len(res) == 2
    mus = sorted(mu for _, _, mu in res)
    assert mus == [0, 1]


def test_trace_cache_stays_bounded():
    # the basis elements of many distinct seven-strand braids (positive
    # permutation braids) overflow the cache: it evicts, keeps its bound,
    # and evicted traces come back exactly
    trefoil = P("2: 1 1 1")
    basis_trace.cache_clear()
    perms = itertools.islice(itertools.permutations(range(7)), 1500)
    for w in perms:
        basis_trace(w)
    info = basis_trace.cache_info()
    assert info.misses > TRACE_CACHE_SIZE
    assert info.currsize <= info.maxsize == TRACE_CACHE_SIZE
    assert basis_trace((1, 0)) == {1: Laurent2.one()}
    assert P("2: 1 1 1") == trefoil
