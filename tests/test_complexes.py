import pytest

from braidhom.bimodule import identity_map
from braidhom.braid import Word
from braidhom.complexes import (BComplex, ChainMap, crossing_change_ses,
                                negative_crossing_complex,
                                positive_crossing_complex, rouquier_complex,
                                tensor, tensor_chain_maps)
from braidhom.homology import ColumnData, DegreeWindow, scan_bounds
from braidhom.linalg import InvariantError

from axioms import check_complex, compose, run_optimized


def test_crossing_complexes_are_complexes():
    for n, i in ((2, 1), (3, 1), (3, 2)):
        check_complex(positive_crossing_complex(n, i), deep=True)
        check_complex(negative_crossing_complex(n, i), deep=True)


def test_tensor_squares_to_zero():
    for text in ("2: 1 1", "2: 1 -1", "3: 1 2", "3: 1 -2 1"):
        C = rouquier_complex(Word.parse(text))
        check_complex(C, deep=True)


def test_tensor_rank_bookkeeping():
    C = rouquier_complex(Word.parse("2: 1 1 1"))
    assert C.degrees == [-3, -2, -1, 0]
    ranks = {k: C.objs[k].rank for k in C.degrees}
    # (1+2)^3 generators total, binomially distributed over the cube
    assert sum(ranks.values()) == 27
    assert ranks[-3] == 1 and ranks[0] == 8


def test_tensor_associativity_degreewise():
    A = positive_crossing_complex(3, 1)
    B = negative_crossing_complex(3, 2)
    C = positive_crossing_complex(3, 1)
    left = tensor(tensor(A, B), C)
    right = tensor(A, tensor(B, C))
    check_complex(left)
    check_complex(right)
    assert left.degrees == right.degrees
    for k in left.degrees:
        assert sorted(left.objs[k].gens) == sorted(right.objs[k].gens)


def test_homological_shift_negates_differential():
    X = positive_crossing_complex(2, 1)
    X1 = X.shift_homological(1)
    assert X1.degrees == [-2, -1]
    assert X1.diffs[-2].mat == (-X.diffs[-1]).mat
    assert X1.shift_homological(-1).diffs[-1].mat == X.diffs[-1].mat


def test_crossing_change_ses_is_exact_chainwise():
    for n, i in ((2, 1), (3, 2)):
        X, E, Y1, iota, pi = crossing_change_ses(n, i)
        for c in (X, E, Y1):
            check_complex(c, deep=True)
        iota.check()
        pi.check()
        for k in (-1, 0):
            comp = compose(pi.comps[k], iota.comps[k])
            assert comp.is_zero


def test_cone_of_identity_cancels_completely():
    # the extension complex's differential is an identity, so it is the
    # cone of an identity and contractible: column and word elimination
    # cancel every generator, and without them every slice has a tower
    # of zero homology
    cone = crossing_change_ses(2, 1)[1]
    assert cone.diffs and all(d.mat == identity_map(d.src).mat
                              for d in cone.diffs.values())
    check_complex(cone, deep=True)
    window = DegreeWindow(max_degree=12)
    for simplify in (True, False):
        data = ColumnData(cone, None, simplify=simplify)
        lo, hi, _q_top = scan_bounds(data.cols.values(), window)
        sigmas = [s for j in range(lo, hi + 1) for s in data.sigmas(j)]
        assert all(not data.tower(s)[2] for s in sigmas)
        if simplify:
            assert all(col.rank == 0 for col in data.cols.values())
            assert not sigmas
        else:
            assert sigmas


def test_tensor_chain_maps_keeps_commuting():
    n, i = 2, 1
    X, E, Y1, iota, pi = crossing_change_ses(n, i)
    other = positive_crossing_complex(n, i)
    idc = ChainMap.identity(other)
    XL, EL, YL = (tensor(C, other) for C in (X, E, Y1))
    big_iota = tensor_chain_maps(iota, idc, XL, EL)
    big_pi = tensor_chain_maps(pi, idc, EL, YL)
    assert big_iota.src is XL and big_pi.src is big_iota.tgt
    big_iota.check()
    big_pi.check()
    for k in XL.degrees:
        assert k in big_pi.comps and k in big_iota.comps
        assert compose(big_pi.comps[k], big_iota.comps[k]).is_zero


# -- the checks raise InvariantError, also under python -O -------------------

def test_failed_complex_checks_raise_invariant_error():
    X = positive_crossing_complex(2, 1)
    d = X.diffs[-1]
    with pytest.raises(InvariantError, match="does not match"):
        BComplex(2, {-1: d.tgt, 0: d.tgt}, {-1: d})
    one = identity_map(d.tgt)
    with pytest.raises(InvariantError, match="d\\^2"):
        check_complex(BComplex(2, {0: d.tgt, 1: d.tgt, 2: d.tgt},
                               {0: one, 1: one}))
    with pytest.raises(InvariantError, match="does not commute"):
        ChainMap(X, X, {0: identity_map(X.objs[0])}).check()


OPTIMIZED_CHAIN_MAP = """
from braidhom.bimodule import identity_map
from braidhom.complexes import ChainMap, positive_crossing_complex
from braidhom.linalg import InvariantError
assert False, "asserts must be stripped"
X = positive_crossing_complex(2, 1)
try:
    ChainMap(X, X, {0: identity_map(X.objs[0])}).check()
except InvariantError as e:
    print("raised:", e)
"""


def test_chain_map_check_survives_python_O():
    # the identity in degree 0 alone: d then f is d, f then d is zero
    out = run_optimized(OPTIMIZED_CHAIN_MAP)
    assert out.startswith("raised: square at degree -1 does not "
                          "commute"), out
