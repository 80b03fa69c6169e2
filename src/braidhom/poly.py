"""Polynomials over the symmetric-quotient coefficient rings.

Everything downstream works over S = Q[x_1, ..., x_n] / (x_1 + ... + x_n)
with every variable in internal degree 2.  We eliminate x_n once and for
all, x_n = -(x_1 + ... + x_{n-1}), so elements of S are ordinary
polynomials in the first n-1 variables and equality is literal equality
of coefficient dicts.  Bimodule constructions also need the two-sided
ring S (x) S whose right copy uses variables y_1, ..., y_{n-1} with y_n
eliminated the same way.

A Poly is a sparse mapping {monomial: coefficient}, each coefficient an
exact rational in the canonical form of rational.py (an int when
integral, a Fraction otherwise).  A monomial has n-1 exponents
(one-sided) or 2(n-1) (two-sided, x-block then y-block) and is stored
as one packed int, a layout only this module knows: the exponent of
each variable sits in its own WIDTH-bit field, the first variable most
significant, and the total degree (the exponent sum) in the lowest
field.  So the product of two monomials is the sum of their ints, a
monomial hashes as an int, and the internal degree is twice the lowest
field, read with MASK.  Int order is the lex order of the exponent
tuples (the fields are compared first variable first, and equal
exponents give equal totals), which keeps the order of the piece bases,
of repr and of split_xy.  Every monomial's total degree is below LIMIT =
2**(WIDTH-1), which bounds every field; so the sum of two monomials
carries out of no field, and Poly rejects a term whose total degree
reaches LIMIT, such as a product past the bound.  pack and unpack
convert between exponent tuples and packed monomials, and Poly packs
exponent tuples given as keys.  For n = 1 the only monomial is 0 (the
empty tuple) and polys are constants.
add_products is the one multiply-accumulate loop of the package:
Poly.__mul__ and the matrix product bimodule.mat_mul both run it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .rational import exact

WIDTH = 16
LIMIT = 1 << (WIDTH - 1)
MASK = (1 << WIDTH) - 1


class Poly:
    """Sparse polynomial with exact rational coefficients (int when
    integral, Fraction otherwise; anything else raises TypeError)."""

    __slots__ = ("n", "two_sided", "terms")

    def __init__(self, n: int, terms=None, two_sided: bool = False):
        self.n = n
        self.two_sided = two_sided
        clean = {}
        if terms:
            m = self.nvars
            for mono, c in terms.items():
                if type(c) is not int:
                    c = exact(c)
                if c:
                    if type(mono) is not int:
                        mono = pack(mono, m)
                    # a total below 2 LIMIT (any sum of two monomials)
                    # reaches LIMIT exactly when this bit is set
                    elif mono & LIMIT:
                        raise ValueError(f"monomial of total degree "
                                         f"{mono & MASK} reaches {LIMIT}")
                    clean[mono] = c
        self.terms = clean

    @property
    def nvars(self) -> int:
        return 2 * (self.n - 1) if self.two_sided else self.n - 1

    # --- constructors ---

    @classmethod
    def zero(cls, n: int, two_sided: bool = False) -> "Poly":
        return cls(n, {}, two_sided)

    @classmethod
    def const(cls, n: int, c, two_sided: bool = False) -> "Poly":
        return cls(n, {0: c}, two_sided)

    @classmethod
    def one(cls, n: int, two_sided: bool = False) -> "Poly":
        return cls.const(n, 1, two_sided)

    @classmethod
    def x(cls, n: int, i: int, two_sided: bool = False) -> "Poly":
        """The class of x_i (1-based); x_n comes out as -(x_1+...+x_{n-1})."""
        assert 1 <= i <= n
        m = 2 * (n - 1) if two_sided else n - 1
        if i < n:
            return cls(n, {_unit(m, i - 1): 1}, two_sided)
        return cls(n, {_unit(m, j): -1 for j in range(n - 1)}, two_sided)

    @classmethod
    def y(cls, n: int, i: int) -> "Poly":
        """Right-copy variable y_i in the two-sided ring."""
        assert 1 <= i <= n
        m = 2 * (n - 1)
        if i < n:
            return cls(n, {_unit(m, n - 1 + i - 1): 1}, True)
        return cls(n, {_unit(m, n - 1 + j): -1 for j in range(n - 1)}, True)

    # --- ring structure ---

    def _compat(self, other: "Poly"):
        assert self.n == other.n and self.two_sided == other.two_sided

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.n, other, self.two_sided)
        self._compat(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return Poly(self.n, terms, self.two_sided)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.n, {m: -c for m, c in self.terms.items()}, self.two_sided)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = exact(other)
            return Poly(self.n, {m: c * other for m, c in self.terms.items()},
                        self.two_sided)
        self._compat(other)
        return Poly(self.n, add_products({}, self.terms, other.terms),
                    self.two_sided)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        assert k >= 0
        out = Poly.one(self.n, self.two_sided)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other, self.two_sided)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.n == other.n and self.two_sided == other.two_sided
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.n, self.two_sided, frozenset(self.terms.items())))

    # --- grading ---

    def degree(self):
        """Internal degree of the top term (every variable has degree 2)."""
        if not self.terms:
            return None
        return 2 * max(m & MASK for m in self.terms)

    def homogeneous_degree(self):
        """Degree if homogeneous (None for 0); raises otherwise."""
        if not self.terms:
            return None
        monos = iter(self.terms)
        half = next(monos) & MASK
        for mono in monos:
            if (mono & MASK) != half:
                degs = sorted({2 * (m & MASK) for m in self.terms})
                raise ValueError(f"not homogeneous: degrees {degs}")
        return 2 * half

    def constant_term(self):
        """Coefficient of the monomial 1 (0 if it has none)."""
        return self.terms.get(0, 0)

    # --- one-sided <-> two-sided ---

    def split_xy(self):
        """Write a two-sided poly as [(y-exponents, x-part Poly)] pairs.

        Used to apply p(x, y) as an operator on a bimodule: the x-part
        multiplies on the left and the y-exponents say how often each
        right action matrix applies.  Terms are grouped by y-exponent
        tuple, sorted.
        """
        assert self.two_sided
        k = self.n - 1
        grouped: dict = {}
        for mono, c in self.terms.items():
            e = unpack(mono, 2 * k)
            grouped.setdefault(e[k:], {})[pack(e[:k], k)] = c
        return [(ym, Poly(self.n, xterms, False))
                for ym, xterms in sorted(grouped.items())]

    def __repr__(self):
        if not self.terms:
            return "0"
        k = self.n - 1
        names = [f"x{i+1}" for i in range(k)]
        if self.two_sided:
            names += [f"y{i+1}" for i in range(k)]
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            vs = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                          for i, e in enumerate(unpack(mono, len(names)))
                          if e)
            if vs:
                bits.append(f"{c}*{vs}" if c != 1 else vs)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def add_products(acc: dict, terms1: dict, terms2: dict) -> dict:
    """Add c1 * c2 into acc at m1 + m2 for every term m1: c1 of terms1
    and m2: c2 of terms2, and return acc; the one polynomial product.
    acc is a plain {packed monomial: coefficient} dict: the caller turns
    it into a Poly, which canonicalizes, drops the zero terms and
    rejects a product whose total degree reached LIMIT."""
    get = acc.get
    for m1, c1 in terms1.items():
        for m2, c2 in terms2.items():
            mono = m1 + m2
            acc[mono] = get(mono, 0) + c1 * c2
    return acc


def pack(exps, nvars: int) -> int:
    """The packed monomial of an exponent sequence; ValueError unless it
    has nvars exponents, none negative, of total degree below LIMIT."""
    exps = tuple(exps)
    if len(exps) != nvars:
        raise ValueError(f"monomial {exps} needs {nvars} exponents")
    mono = total = 0
    for e in exps:
        if e < 0:
            raise ValueError(f"monomial {exps} has a negative exponent")
        mono = (mono << WIDTH) + e
        total += e
    if total >= LIMIT:
        raise ValueError(f"monomial {exps} has total degree {total}, "
                         f"not below {LIMIT}")
    return (mono << WIDTH) + total


def unpack(mono: int, nvars: int) -> tuple:
    """The exponent tuple of a packed monomial in nvars variables."""
    return tuple((mono >> WIDTH * k) & MASK for k in range(nvars, 0, -1))


def _unit(nvars: int, k: int) -> int:
    """The packed monomial of variable k (0-based) of nvars."""
    return (1 << WIDTH * (nvars - k)) + 1


def monomials(nvars: int, total: int):
    """All exponent tuples of length nvars summing to total, lex order."""
    if nvars == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in monomials(nvars - 1, total - first):
            yield (first,) + rest


def monomial_count(nvars: int, total: int) -> int:
    if total < 0:
        return 0
    return comb(total + nvars - 1, nvars - 1) if nvars else (1 if total == 0 else 0)


class GradedPiece:
    """Ordered monomial basis of one internal degree of the coefficient
    ring; shared, so built only by graded_piece."""

    __slots__ = ("n", "degree", "two_sided", "basis", "dim", "_index",
                 "_shifts")

    def __init__(self, n: int, degree: int, two_sided: bool):
        self.n, self.degree, self.two_sided = n, degree, two_sided
        m = 2 * (n - 1) if two_sided else n - 1
        if degree < 0 or degree % 2:
            self.basis = ()
        else:
            self.basis = tuple(pack(e, m) for e in monomials(m, degree // 2))
        self.dim = len(self.basis)
        self._index = {mono: k for k, mono in enumerate(self.basis)}
        self._shifts: dict = {}

    def shift(self, e) -> list:
        """Indices of e * m, over the basis monomials m, in the piece of
        degree self.degree + deg(e); built once per packed monomial e."""
        rows = self._shifts.get(e)
        if rows is None:
            index = graded_piece(self.n, self.degree + 2 * (e & MASK),
                                 self.two_sided)._index
            rows = self._shifts[e] = [index[e + m] for m in self.basis]
        return rows


# one HOMFLY, sl(N) or cube call meets 15 to 50 distinct pieces
PIECE_CACHE_SIZE = 1 << 10


@lru_cache(maxsize=PIECE_CACHE_SIZE)
def graded_piece(n: int, degree: int, two_sided: bool, /) -> GradedPiece:
    """The shared piece of (n, degree, two_sided); positional arguments
    only, so equal ring data is one cache key."""
    return GradedPiece(n, degree, two_sided)


def phi(n: int, i: int) -> Poly:
    """x_i - y_i in the two-sided ring."""
    return Poly.x(n, i, True) - Poly.y(n, i)


def psi_quotient(n: int, i: int, N: int) -> Poly:
    """(x_i^N - y_i^N) / (x_i - y_i) = sum over a+b = N-1 of x_i^a y_i^b."""
    xi, yi = Poly.x(n, i, True), Poly.y(n, i)
    out = Poly.zero(n, True)
    for a in range(N):
        out = out + xi ** a * yi ** (N - 1 - a)
    return out


def power_sum_difference(n: int, N: int) -> Poly:
    """sum_i (x_i^N - y_i^N) over all n variables, canonicalized."""
    out = Poly.zero(n, True)
    for i in range(1, n + 1):
        out = out + Poly.x(n, i, True) ** N - Poly.y(n, i) ** N
    return out
