import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from braidhom.bimodule import mat_eq, mat_mul
from braidhom.braid import Word
from braidhom.complexes import rouquier_complex
from braidhom.diffobj import DiffObject, conjugate
from braidhom.homology import ColumnData
from braidhom.poly import Poly, pack
from braidhom.rational import quotient


def two_step_example(n=2):
    # S{0} e0, e1  --d-->  S{0} f0 plus a spectator pair linked by a constant
    x = Poly.x(n, 1)
    gens = [(1, 0), (1, 2), (0, 0), (0, 2)]
    diff = {
        (2, 0): Poly.one(n),   # constant pivot e0 -> f0
        (2, 1): x,             # e1 -> f0 by x
        (3, 1): Poly.one(n),   # e1 -> f1 constant
    }
    return DiffObject(n, gens, diff)


def test_check_catches_degree_errors():
    n = 2
    good = two_step_example(n)
    good.check(dh=-1, dq=0)
    bad = DiffObject(n, [(1, 0), (0, 4)], {(1, 0): Poly.x(n, 1)})
    try:
        bad.check(dh=-1, dq=0)
        assert False
    except AssertionError:
        pass


def test_eliminate_full_cancellation():
    obj = two_step_example()
    red, F, G = obj.eliminate()
    assert red.rank == 0 and not red.diff
    assert not F and not G


def test_eliminate_tracks_chain_maps():
    rng = random.Random(42)
    n = 2
    x = Poly.x(n, 1)
    for _ in range(20):
        # random complex shape: A -> B -> C with entries in {0, 1, x, x^2}
        ra, rb, rc = rng.randrange(1, 4), rng.randrange(1, 5), rng.randrange(1, 4)
        gens = [(2, rng.choice((0, 2))) for _ in range(ra)]
        gens += [(1, rng.choice((0, 2, 4))) for _ in range(rb)]
        gens += [(0, rng.choice((0, 2, 4))) for _ in range(rc)]
        # build d1: B -> C then pick d2: A -> ker-ish; enforce d1 d2 = 0 by
        # zeroing the product column by column via a trial-and-error filter
        def rand_entry(qs, qt):
            gap = qs - qt
            if gap == 0:
                return Poly.const(n, rng.randrange(-2, 3))
            if gap == 2:
                return rng.randrange(-2, 3) * x
            if gap == 4:
                return rng.randrange(-2, 3) * x * x
            return Poly.zero(n)
        d1 = {}
        for r in range(ra + rb, ra + rb + rc):
            for c in range(ra, ra + rb):
                p = rand_entry(gens[c][1], gens[r][1])
                if p and rng.random() < 0.7:
                    d1[(r, c)] = p
        obj1 = DiffObject(n, gens, d1)
        obj1.check(dh=-1, dq=0)
        red, F, G = obj1.eliminate()
        # F, G are chain maps and F G = id on the reduced object
        assert mat_eq(mat_mul(F, obj1.diff), mat_mul(red.diff, F))
        assert mat_eq(mat_mul(obj1.diff, G), mat_mul(G, red.diff))
        ident = {(i, i): Poly.one(n) for i in range(red.rank)}
        assert mat_eq(mat_mul(F, G), ident)
        # no constant entries survive
        assert all(p.degree() != 0 for p in red.diff.values())
        red.check(dh=-1, dq=0)


def test_conjugate_transports_identity():
    obj = DiffObject(2, [(1, 0), (0, 0)], {(1, 0): Poly.one(2)})
    red, F, G = obj.eliminate()
    assert red.rank == 0
    # conjugating any endomorphism onto an empty model gives the empty map
    assert conjugate(F, {(0, 0): Poly.x(2, 1)}, G) == {}


def test_labels_follow_generators():
    n = 2
    obj = DiffObject(n, [(1, 0), (1, 2), (0, 0)],
                     {(2, 0): Poly.one(n), (2, 1): Poly.x(n, 1)},
                     labels=["a", "b", "c"])
    red, F, G = obj.eliminate()
    assert red.labels == ["b"]
    assert red.gens == [(1, 2)]


# -- the heap pivot order against the scan it replaced -------------------

def reference_eliminate(obj: DiffObject):
    """DiffObject.eliminate with each pivot found by a scan of every
    constant entry: min over them of (fill, (row, column))."""
    n = obj.n
    rows: dict = {}
    cols: dict = {}
    for (r, c), p in obj.diff.items():
        rows.setdefault(r, {})[c] = p
        cols.setdefault(c, {})[r] = p
    const = {key for key, p in obj.diff.items() if p.degree() == 0}
    alive = set(range(obj.rank))
    Fmap = {i: {i: Poly.one(n)} for i in alive}
    Gmap = {j: {j: Poly.one(n)} for j in alive}

    def entry_set(i, j, p):
        if p:
            rows.setdefault(i, {})[j] = p
            cols.setdefault(j, {})[i] = p
            if p.degree() == 0:
                const.add((i, j))
            else:
                const.discard((i, j))
        else:
            rows.get(i, {}).pop(j, None)
            cols.get(j, {}).pop(i, None)
            const.discard((i, j))

    while const:
        r0, c0 = min(const, key=lambda rc: (
            len(rows.get(rc[0], ())) * len(cols.get(rc[1], ())), rc))
        alpha = rows[r0][c0]
        one = pack((0,) * (n - 1), n - 1)
        inv = Poly.const(n, quotient(1, alpha.terms[one]))
        row = {j: p for j, p in rows[r0].items() if j != c0}
        col = {i: p for i, p in cols[c0].items() if i != r0}
        for i, pi in col.items():
            coeff = pi * inv
            for j, pj in row.items():
                cur = rows.get(i, {}).get(j, Poly.zero(n))
                entry_set(i, j, cur - coeff * pj)
        fr0 = Fmap[r0]
        for i, pi in col.items():
            coeff = pi * inv
            fi = Fmap[i]
            for o, q in fr0.items():
                v = fi.get(o, Poly.zero(n)) - coeff * q
                if v:
                    fi[o] = v
                else:
                    fi.pop(o, None)
        gc0 = Gmap[c0]
        for j, pj in row.items():
            coeff = inv * pj
            gj = Gmap[j]
            for o, q in gc0.items():
                v = gj.get(o, Poly.zero(n)) - q * coeff
                if v:
                    gj[o] = v
                else:
                    gj.pop(o, None)
        for g in (r0, c0):
            for j in list(rows.get(g, ())):
                cols.get(j, {}).pop(g, None)
                const.discard((g, j))
            rows.pop(g, None)
            for i in list(cols.get(g, ())):
                rows.get(i, {}).pop(g, None)
                const.discard((i, g))
            cols.pop(g, None)
            alive.discard(g)
            Fmap.pop(g, None)
            Gmap.pop(g, None)

    order = sorted(alive)
    index = {old: new for new, old in enumerate(order)}
    gens = [obj.gens[i] for i in order]
    labels = [obj.labels[i] for i in order] if obj.labels else None
    diff = {(index[i], index[j]): p
            for i in order for j, p in rows.get(i, {}).items()}
    F = {(index[i], o): p for i in order for o, p in Fmap[i].items()}
    G = {(o, index[j]): p for j in order for o, p in Gmap[j].items()}
    return DiffObject(n, gens, diff, labels), F, G


def is_canonical(p: Poly) -> bool:
    """A nonzero Poly whose coefficients are an int when integral and a
    Fraction otherwise."""
    return bool(p) and all(
        c and (type(c) is int if c.denominator == 1 else type(c) is Fraction)
        for c in p.terms.values())


def assert_same_elimination(obj: DiffObject):
    red, F, G = obj.eliminate()
    ref, F0, G0 = reference_eliminate(obj)
    assert red.gens == ref.gens and red.labels == ref.labels
    assert red.diff == ref.diff
    assert F == F0 and G == G0
    # without the homotopy maps: the same reduced object, and no maps
    bare, F1, G1 = obj.eliminate(maps=False)
    assert F1 is None and G1 is None
    assert bare.gens == ref.gens and bare.labels == ref.labels
    assert bare.diff == ref.diff
    for m in (red.diff, F, G, bare.diff):
        assert all(is_canonical(p) for p in m.values()), m


@st.composite
def sparse_objects(draw):
    """A random sparse matrix on up to 14 generators with entries
    c x1^e, c in -3..3, e in 0..2 (constant and non-constant), labelled
    by generator index.  Off the diagonal; no d^2 = 0 needed, as the
    pivot order does not look at it."""
    size = draw(st.integers(2, 14))
    n = 2
    entries = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size - 1),
                  st.sampled_from((-3, -2, -1, 1, 2, 3)),
                  st.sampled_from((0, 0, 1, 2))),
        max_size=3 * size))
    x = Poly.x(n, 1)
    diff = {(r, c): coeff * x ** e for r, c, coeff, e in entries if r != c}
    return DiffObject(n, [(0, 0)] * size, diff, list(range(size)))


@settings(derandomize=True, max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(sparse_objects())
# a pivot 2 whose inverse 1/2 meets a column entry 2: each update term
# is a product of Fractions that is integral, and G picks up a half
@example(DiffObject(2, [(0, 0)] * 4,
                    {(1, 0): Poly.const(2, 2), (2, 0): Poly.const(2, 2),
                     (1, 3): Poly.x(2, 1), (2, 3): 3 * Poly.x(2, 1)},
                    [0, 1, 2, 3]))
def test_heap_pivot_order_matches_the_scan(obj):
    assert_same_elimination(obj)


def corpus_objects(text: str, N) -> list:
    """Every object ColumnData(simplify=True) eliminates for one word:
    its columns and, when their differentials all cancel, its word
    complex."""
    seen = []
    plain = DiffObject.eliminate

    def recording(self, *args, **kwargs):
        seen.append(self)
        return plain(self, *args, **kwargs)

    DiffObject.eliminate = recording
    try:
        ColumnData(rouquier_complex(Word.parse(text)), N, simplify=True)
    finally:
        DiffObject.eliminate = plain
    return seen


@pytest.mark.parametrize("N", [None, 2, 3])
def test_heap_pivot_order_matches_the_scan_on_corpus_objects(N):
    for text in ("2: 1 1 1", "2: 1 -1 1", "3: 1 -2 1 -2", "3: 1 2"):
        objs = corpus_objects(text, N)
        # the word complex comes after the columns when their
        # differentials all cancel: always at N = None, on two strands
        # at N = 2
        columns = len(rouquier_complex(Word.parse(text)).degrees)
        word = N is None or (N == 2 and text.startswith("2:"))
        assert len(objs) == columns + word, (text, N)
        for obj in objs:
            assert_same_elimination(obj)
