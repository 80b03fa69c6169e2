"""Frozen grading and variable conventions, with comparison helpers.

All normalization freedom in the homology pipelines is fixed once, here
and in the reporting shifts of homology.py / mfact.py, so that every
comparison in the test suite is exact:

* Triply graded tables are normalized so one-crossing unknot
  presentations sit at the origin.  Their graded Euler characteristic
  sum (-1)^k a^i q^j matches the skein oracle under the substitution
  a -> -a^{-2} q^{-2}, q -> q (derived once on unknots and the
  trefoil, then frozen; verified independently on the figure eight
  and on Markov-moved presentations).

* sl_N tables carry the regraded collapsed degree in the middle slot
  (last slot zero).  Their Euler characteristic sum (-1)^k q^i matches
  the oracle specialized at a = q^N; with the frozen shifts the match
  is exact on every verified example, and comparisons still allow the
  one-overall-monomial-and-sign freedom the normalization leaves on
  inputs outside the calibration set.

* The categorified derivative of a singular word matches the oracle's
  alternating resolution sum under the same two-variable substitution.
"""

from __future__ import annotations

from .homology import TriGradedSpace
from .laurent import Laurent2
from .oracle import HomflyValue

# a -> -a^{-2} q^{-2}, q -> q  (signed monomial images for Laurent2).
SKEIN_IMAGE_A = (-1, -2, -2)
SKEIN_IMAGE_Q = (1, 0, 1)


def conventions_block(N=None) -> dict:
    """The conventions dictionary embedded in JSON reports."""
    out = {
        "euler_sign": "(-1)^k over the homological grading",
        "normalization": "one-crossing unknot presentations at the origin",
        "change_of_variables": {"a": "-a^-2 q^-2", "q": "q"},
    }
    if N is not None:
        out["specialization"] = f"a = q^{N}"
        out["middle_axis"] = ("collapsed factorization grading, regraded "
                              "by the class weight")
    return out


def homology_euler_as_skein(space: TriGradedSpace) -> Laurent2:
    """Euler characteristic of a triply graded table, rewritten in the
    oracle's (a, q) variables."""
    return space.euler().substitute_monomials(SKEIN_IMAGE_A, SKEIN_IMAGE_Q)


def sln_euler(space: TriGradedSpace) -> Laurent2:
    """One-variable Euler characteristic of an sl_N table: the middle
    grading moves to the q slot (the last slot is structurally zero)."""
    for (_k, _i, j) in space.dims:
        assert j == 0, "sl_N tables carry no third grading"
    return space.euler().substitute_monomials((1, 0, 1), (1, 0, 0))


def oracle_specialized(value: HomflyValue, N: int) -> Laurent2:
    """The skein oracle value at a = q^N (knot closures only)."""
    assert value.is_polynomial, "specialize knot values only"
    return value.poly.substitute_monomials((1, 0, N), (1, 0, 1))


def match_exact(euler: Laurent2, oracle: Laurent2) -> bool:
    return euler == oracle


def match_up_to_monomial(lhs: Laurent2, rhs: Laurent2):
    """(sign, (e1, e2)) with lhs == sign * a^e1 q^e2 * rhs, else None.

    Both sides must be nonzero; the candidate monomial is the ratio of
    the lexicographically smallest terms, then verified in full.
    """
    if not lhs or not rhs:
        return None
    ml, mr = min(lhs.terms), min(rhs.terms)
    cl, cr = lhs.terms[ml], rhs.terms[mr]
    ratio = cl / cr
    if ratio not in (1, -1):
        return None
    sign = int(ratio)
    shift = (ml[0] - mr[0], ml[1] - mr[1])
    cand = rhs * Laurent2.monomial(shift[0], shift[1], sign)
    return (sign, shift) if cand == lhs else None
