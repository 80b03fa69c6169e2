"""The library computes in exact arithmetic: no float literal, no use of
the name float, and from math only the integer functions gcd and comb.
cli.py is exempt: it times runs.  Divisions make Fractions, never
floats, and coefficients stay int or Fraction through every layer."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from braidhom.braid import Word
from braidhom.diffobj import DiffObject
from braidhom.poly import Poly
from braidhom.wallcross import vassiliev_complex, wall_crossing_map

SRC = Path(__file__).resolve().parent.parent / "src" / "braidhom"
MATH_ALLOWED = {"gcd", "comb"}


def inexact_uses(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: name float")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: from math import {a.name}"
                      for a in node.names if a.name not in MATH_ALLOWED]
    return found


def test_library_modules_use_exact_arithmetic():
    found = []
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{hit}" for hit in inexact_uses(tree)]
    assert len(paths) > 10 and not found, found


def test_the_lint_sees_each_kind_of_inexact_use():
    text = ("import math\nfrom math import sqrt, gcd\nx = 0.5\n"
            "y = float(2)\nz = 1j\n")
    hits = inexact_uses(ast.parse(text))
    assert sorted(hits) == ["1: import math", "2: from math import sqrt",
                            "3: float literal 0.5", "4: name float",
                            "5: float literal 1j"]


def coefficients(mats) -> list:
    return [c for m in mats for p in m.values() for c in p.terms.values()]


def test_elimination_with_pivot_two_makes_halves():
    # d(g1) = 2 g0 + x g2 and d(g3) = x g0: cancelling the pivot 2
    # leaves d(g3) = -x^2/2 g2 and puts -1/2 into both homotopy maps
    n = 2
    x = Poly.x(n, 1)
    obj = DiffObject(n, [(0, 0), (1, 0), (0, -2), (1, 2)],
                     {(0, 1): Poly.const(n, 2), (2, 1): x, (0, 3): x})
    red, F, G = obj.eliminate()
    assert red.diff == {(0, 1): Fraction(-1, 2) * x * x}
    assert F[(0, 0)] == Fraction(-1, 2) * x and G[(1, 1)] == Fraction(-1, 2) * x
    found = coefficients([red.diff, F, G])
    assert Fraction(-1, 2) in found
    assert all(type(c) in (int, Fraction) for c in found)


def test_wall_crossing_entries_are_exact():
    for scale in (1, Fraction(1, 3)):
        wmap, _report = wall_crossing_map(Word.parse("2: 1!"), scale=scale)
        values = [v for m in wmap["slices"].values() for v in m.values()]
        assert values and all(type(v) in (int, Fraction) for v in values)
        assert (Fraction(-1, 3) in values) == (scale != 1)
    for scale in (0.1, 0.5, 2.0):
        with pytest.raises(TypeError):
            vassiliev_complex(Word.parse("2: 1!"), scales={0: scale})
        with pytest.raises(TypeError):
            wall_crossing_map(Word.parse("2: 1!"), scale=scale)
