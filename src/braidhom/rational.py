"""Canonical exact rationals.

Every coefficient the pipelines compute is an exact rational stored
canonically: an int when the value is integral, a Fraction only when it
is not.  The structure constants of the bimodules, the differentials and
the snake maps are integers, so almost all arithmetic stays on ints; a
Fraction appears only through a division (a pivot inverse, a rational
wall scale).  int and Fraction compare and hash alike, so the choice
never changes an equality, a hash or a table.
"""

from __future__ import annotations

from fractions import Fraction


def exact(c):
    """c in canonical form; TypeError unless c is an int or a Fraction
    (a float is never accepted, so inexact values cannot slip in)."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient {c!r} is not an exact rational")


def quotient(a, b):
    """a / b in canonical form, for ints or Fractions a and b with b
    nonzero.  int / int is a float in Python, so every division of
    coefficients goes here."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact(a / b)
