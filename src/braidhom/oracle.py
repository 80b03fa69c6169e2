"""Independent HOMFLY oracle through the Hecke-algebra Markov trace.

The braid group maps into the Hecke algebra H_n by sending the positive
elementary braid on strands i, i+1 to a generator g with
g^2 = (q - q^{-1}) g + 1.  The Markov trace tr with tr(1) = 1 and
tr(x g_last) = z tr(x) is evaluated by coset peeling: a basis element
T_w either lives in H_{n-1} (recurse) or factors as T_u g_last T_d with
u, d in S_{n-1}, where the trace eats the middle generator.
Specializing z = a(q - q^{-1})/(a - a^{-1}) and normalizing by the
writhe yields the closure's HOMFLY polynomial, with skein relation
a P(+) - a^{-1} P(-) = (q - q^{-1}) P(0) and P(unknot) = 1.

This file deliberately imports none of the homology machinery: it is
the independent cross-check for Euler characteristics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .braid import NEG, POS, Word
from .laurent import Laurent2

DELTA = Laurent2({(0, 1): 1, (0, -1): -1})        # q - q^{-1}
A_SPREAD = Laurent2({(1, 0): 1, (-1, 0): -1})     # a - a^{-1}


def _swap(w: tuple, j: int) -> tuple:
    return w[:j] + (w[j + 1], w[j]) + w[j + 2:]


def right_multiply(elem: dict, j: int, inverse: bool = False) -> dict:
    """Multiply an H_n element {perm: Laurent2} by g_j^{+-1} on the right.

    j is 0-based: g_j acts on strands j, j+1.
    """
    out: dict = {}

    def bump(w, c):
        if w in out:
            out[w] = out[w] + c
        else:
            out[w] = c

    for w, c in elem.items():
        ws = _swap(w, j)
        ascending = w[j] < w[j + 1]
        if not inverse:
            if ascending:
                bump(ws, c)
            else:
                bump(w, c * DELTA)
                bump(ws, c)
        else:
            if ascending:
                bump(ws, c)
                bump(w, -(c * DELTA))
            else:
                bump(ws, c)
    return {w: c for w, c in out.items() if c}


def braid_element(word: Word) -> dict:
    elem = {tuple(range(word.n)): Laurent2.one()}
    for i, kind in word.entries:
        assert kind in (POS, NEG), "oracle needs a resolved (non-singular) word"
        elem = right_multiply(elem, i - 1, inverse=(kind == NEG))
    return elem


TRACE_CACHE_SIZE = 1 << 10


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def basis_trace(w: tuple) -> dict:
    """Markov trace of T_w as {z-degree: Laurent2 in q}.

    Memoized in a bounded cache shared by all words, large enough for
    every permutation of at most six strands (873 of them); callers
    must not mutate the returned dict."""
    n = len(w)
    if n <= 1:
        return {0: Laurent2.one()}
    if w[n - 1] == n - 1:
        return basis_trace(w[:n - 1])
    k = w.index(n - 1)
    u = tuple(w[i] if i < k else w[i + 1] for i in range(n - 1))
    elem = {u: Laurent2.one()}
    for j in range(n - 3, k - 1, -1):
        elem = right_multiply(elem, j)
    inner = trace_element(elem)
    return {d + 1: c for d, c in inner.items()}  # the peeled g contributes z


def trace_element(elem: dict) -> dict:
    total: dict = {}
    for w, c in elem.items():
        for d, t in basis_trace(w).items():
            cur = total.get(d, Laurent2.zero()) + c * t
            if cur:
                total[d] = cur
            else:
                total.pop(d, None)
    return total


@dataclass(frozen=True)
class HomflyValue:
    """A HOMFLY value: poly / (q - q^{-1})^denom, kept fully reduced.

    Knot closures always reduce to denom = 0; multi-component closures
    keep the honest denominator exponent.
    """

    poly: Laurent2
    denom: int = 0

    @classmethod
    def make(cls, poly: Laurent2, denom: int = 0) -> "HomflyValue":
        while denom > 0:
            try:
                poly = poly.divide_exact(DELTA)
            except ValueError:
                break
            denom -= 1
        if not poly:
            denom = 0
        return cls(poly, denom)

    @property
    def is_polynomial(self) -> bool:
        return self.denom == 0

    def __add__(self, other: "HomflyValue") -> "HomflyValue":
        d = max(self.denom, other.denom)
        p = (self.poly * DELTA ** (d - self.denom)
             + other.poly * DELTA ** (d - other.denom))
        return HomflyValue.make(p, d)


def homfly_oracle(word: Word) -> HomflyValue:
    """HOMFLY polynomial of the closure of a non-singular braid word."""
    n = word.n
    tr = trace_element(braid_element(word))
    a = Laurent2.monomial(1, 0)
    a_inv = Laurent2.monomial(-1, 0)
    num = Laurent2.zero()
    for d, c in tr.items():
        num = num + c * (a ** d if d >= 0 else a_inv ** (-d)) \
            * DELTA ** d * A_SPREAD ** (n - 1 - d)
    e = word.writhe
    shift = Laurent2.monomial(-e, 0)
    return HomflyValue.make(num * shift, n - 1)


def vassiliev_oracle(word: Word) -> HomflyValue:
    """Alternating sum of HOMFLY values over all resolutions of the
    singular letters — the classical finite-type derivative."""
    total = HomflyValue(Laurent2.zero())
    for _, resolved, mu in word.resolutions():
        term = homfly_oracle(resolved)
        total = total + (term if mu % 2 == 0 else
                         HomflyValue(-term.poly, term.denom))
    return total


def oracle_self_test(word: Word, seed: int = 0) -> bool:
    """Twelve random Markov moves must preserve the oracle value."""
    assert not word.is_singular
    base = homfly_oracle(word)
    rng = random.Random(seed)
    current = word
    for _ in range(12):
        move = rng.choice(("conj", "stab+", "stab-"))
        if move == "conj" and current.n >= 2:
            i = rng.randrange(1, current.n)
            s = rng.choice((POS, NEG))
            entries = ((i, s),) + current.entries + ((i, -s),)
            current = Word(current.n, entries)
        elif move == "stab+":
            current = Word(current.n + 1,
                           current.entries + ((current.n, POS),))
        else:
            current = Word(current.n + 1,
                           current.entries + ((current.n, NEG),))
        if homfly_oracle(current) != base:
            return False
    return True
