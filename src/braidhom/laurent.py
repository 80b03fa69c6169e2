"""Exact Laurent polynomials in two commuting variables.

The trace oracle works in variables (a, q); Euler characteristics of
homology tables use the same container.  Coefficients are Fractions,
exponents arbitrary integers, and everything stays exact — including
division, which is only defined when it comes out exact.
"""

from __future__ import annotations

from fractions import Fraction


class Laurent2:
    """Sparse {(e1, e2): Fraction} Laurent polynomial in two variables."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, v in terms.items():
                v = Fraction(v)
                if v:
                    clean[(int(k[0]), int(k[1]))] = v
        self.terms = clean

    @classmethod
    def zero(cls) -> "Laurent2":
        return cls()

    @classmethod
    def one(cls) -> "Laurent2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, e1: int, e2: int, c=1) -> "Laurent2":
        return cls({(e1, e2): c})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent2({(0, 0): other})
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return Laurent2(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Laurent2({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Laurent2({k: v * other for k, v in self.terms.items()})
        terms: dict = {}
        for (a1, b1), v1 in self.terms.items():
            for (a2, b2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                terms[k] = terms.get(k, Fraction(0)) + v1 * v2
        return Laurent2(terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        assert k >= 0
        out = Laurent2.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent2({(0, 0): other})
        if not isinstance(other, Laurent2):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute_monomials(self, image1, image2) -> "Laurent2":
        """Substitute each variable by a signed monomial.

        image = (sign, e1, e2) sends the variable to sign * x1^e1 * x2^e2;
        signed monomials are invertible, so negative exponents are fine.
        """
        s1, a1, b1 = image1
        s2, a2, b2 = image2
        assert s1 in (1, -1) and s2 in (1, -1)
        terms: dict = {}
        for (e1, e2), v in self.terms.items():
            sign = (s1 ** (e1 % 2)) * (s2 ** (e2 % 2))
            k = (a1 * e1 + a2 * e2, b1 * e1 + b2 * e2)
            terms[k] = terms.get(k, Fraction(0)) + sign * v
        return Laurent2(terms)

    def divide_exact(self, other: "Laurent2") -> "Laurent2":
        """Exact division; raises ValueError if the quotient is not exact."""
        assert other, "division by zero"
        if not self:
            return Laurent2.zero()
        # shift both to honest polynomials with full support at zero
        def shifted(p):
            m1 = min(e1 for e1, _ in p.terms)
            m2 = min(e2 for _, e2 in p.terms)
            return ({(e1 - m1, e2 - m2): v for (e1, e2), v in p.terms.items()},
                    m1, m2)

        f, f1, f2 = shifted(self)
        g, g1, g2 = shifted(other)
        glt = max(g)
        gc = g[glt]
        quot: dict = {}
        while f:
            flt = max(f)
            d = (flt[0] - glt[0], flt[1] - glt[1])
            if d[0] < 0 or d[1] < 0:
                raise ValueError("not exactly divisible")
            c = f[flt] / gc
            quot[d] = quot.get(d, Fraction(0)) + c
            for ge, gv in g.items():
                k = (ge[0] + d[0], ge[1] + d[1])
                nv = f.get(k, Fraction(0)) - c * gv
                if nv:
                    f[k] = nv
                else:
                    f.pop(k, None)
        return Laurent2({(e1 + f1 - g1, e2 + f2 - g2): v
                         for (e1, e2), v in quot.items()})

    def json_dict(self) -> dict:
        """{"e1,e2": coeff} with integer coefficients rendered as ints."""
        out = {}
        for (e1, e2) in sorted(self.terms):
            v = self.terms[(e1, e2)]
            out[f"{e1},{e2}"] = int(v) if v.denominator == 1 else str(v)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (e1, e2) in sorted(self.terms, reverse=True):
            v = self.terms[(e1, e2)]
            mono = []
            if e1:
                mono.append(f"a^{e1}" if e1 != 1 else "a")
            if e2:
                mono.append(f"q^{e2}" if e2 != 1 else "q")
            body = "*".join(mono)
            if not body:
                bits.append(str(v))
            elif v == 1:
                bits.append(body)
            elif v == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{v}*{body}")
        return " + ".join(bits).replace("+ -", "- ")
