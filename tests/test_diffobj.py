import random

from braidhom.bimodule import mat_eq, mat_mul
from braidhom.diffobj import DiffObject, conjugate
from braidhom.poly import Poly


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
