"""The library computes in exact arithmetic: no float literal, no use of
the name float, and from math only the integer functions gcd and comb.
cli.py is exempt: it times runs."""

import ast
from pathlib import Path

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
