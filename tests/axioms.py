"""Axiom checks of bimodules and bimodule complexes that only the tests
run: the pipelines check the objects they build through DiffObject,
BimoduleMap and ChainMap instead; scaled, a scalar multiple of a
bimodule map; and run_optimized, which runs code under python -O to
show that a check survives the stripped asserts."""

import subprocess
import sys
from pathlib import Path

from braidhom.bimodule import (BimoduleMap, entry_degree, mat_add, mat_eq,
                               mat_mul, mat_scale)
from braidhom.linalg import InvariantError
from braidhom.poly import Poly


def compose(f, g):
    """The bimodule map f after g."""
    assert g.tgt is f.src or g.tgt.gens == f.src.gens
    return BimoduleMap(g.src, f.tgt, mat_mul(f.mat, g.mat))


def scaled(f, c):
    """The bimodule map c f, for a scalar c."""
    return BimoduleMap(f.src, f.tgt,
                       mat_scale(Poly.const(f.src.n, c), f.mat))


def check_bimodule(M):
    """All bimodule axioms of M (homogeneity, commuting, sum zero);
    InvariantError if one fails."""
    for k in range(M.n):
        what = f"action x_{k+1} entry"
        for (a, b), p in M.actions[k].items():
            d = entry_degree(p, (a, b), what)
            if d != 2 + M.gens[b] - M.gens[a]:
                raise InvariantError(
                    f"action x_{k+1} entry {(a, b)} degree {d}")
    total = {}
    for a in M.actions:
        total = mat_add(total, a)
    if total:
        raise InvariantError("right actions do not sum to zero")
    for k in range(M.n):
        for l in range(k + 1, M.n):
            if not mat_eq(mat_mul(M.actions[k], M.actions[l]),
                          mat_mul(M.actions[l], M.actions[k])):
                raise InvariantError(
                    f"actions x_{k+1}, x_{l+1} do not commute")


def run_optimized(code: str) -> str:
    """stdout and stderr of code run under python -O on this package."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(src)})
    return done.stdout + done.stderr


def check_complex(C, deep: bool = False):
    """Degree-0 differentials and d^2 = 0 of a BComplex; with deep, also
    the axioms of every term and differential.  InvariantError if not."""
    for k, d in C.diffs.items():
        if d.degree not in (None, 0):
            raise InvariantError(f"differential at {k} has degree {d.degree}")
        if k + 1 in C.diffs and not compose(C.diffs[k + 1], d).is_zero:
            raise InvariantError(f"d^2 != 0 at {k}")
    if deep:
        for m in C.objs.values():
            check_bimodule(m)
        for d in C.diffs.values():
            d.check()
