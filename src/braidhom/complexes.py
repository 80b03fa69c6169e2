"""Bounded complexes of bimodules: crossing complexes, tensors, chain maps.

Cochain convention: differentials raise the homological index by one and
are internal-degree 0.  A positive crossing of strands i, i+1 is the
two-term complex S{2} -> S_i{1} in degrees {-1, 0}; a negative crossing
is S_i{-1} -> S{-2} in degrees {0, 1}.  The complex of a braid word is
the tensor product of its letter complexes (left fold, Koszul signs).

The crossing-change short exact sequence realizes the positive letter
complex as a subcomplex of an acyclic-looking two-term extension complex
whose quotient is the shifted negative letter complex; its connecting
map is the wall-crossing morphism computed in wallcross.py.
"""

from __future__ import annotations

from .bimodule import (Bimodule, BimoduleMap, aux_bimodules,
                       identity_bimodule, identity_map, mat_eq, mat_mul,
                       merge_projection, split_inclusion, tensor_mat)
from .braid import POS, Word
from .linalg import InvariantError


def bimodule_sum(parts):
    """Direct sum; returns (sum bimodule, offsets of the parts)."""
    assert parts
    n = parts[0].n
    gens, offsets, off = [], [], 0
    for m in parts:
        offsets.append(off)
        gens.extend(m.gens)
        off += m.rank
    actions = []
    for k in range(1, n + 1):
        a = {}
        for m, o in zip(parts, offsets):
            for (r, c), p in m.action(k).items():
                a[(o + r, o + c)] = p
        actions.append(a)
    return Bimodule(n, gens, actions), offsets


class BComplex:
    """Bounded complex of bimodules with degree-raising differential."""

    __slots__ = ("n", "objs", "diffs")

    def __init__(self, n: int, objs: dict, diffs: dict):
        self.n = n
        self.objs = dict(objs)
        self.diffs = {k: d for k, d in diffs.items() if not d.is_zero}
        for k, d in self.diffs.items():
            if (d.src.gens != self.objs[k].gens
                    or d.tgt.gens != self.objs[k + 1].gens):
                raise InvariantError(
                    f"differential at {k} does not match its terms")

    @classmethod
    def identity(cls, n: int) -> "BComplex":
        return cls(n, {0: identity_bimodule(n)}, {})

    @property
    def degrees(self):
        return sorted(self.objs)

    def diff_mat(self, k: int):
        d = self.diffs.get(k)
        return d.mat if d is not None else {}

    @property
    def total_rank(self) -> int:
        return sum(m.rank for m in self.objs.values())

    def shift_homological(self, s: int) -> "BComplex":
        """C[s]^k = C^(k+s); odd shifts negate the differential."""
        if s == 0:
            return self
        objs = {k - s: m for k, m in self.objs.items()}
        sign = -1 if s % 2 else 1
        diffs = {}
        for k, d in self.diffs.items():
            diffs[k - s] = d if sign == 1 else -d
        return BComplex(self.n, objs, diffs)

    def __repr__(self):
        shape = {k: self.objs[k].rank for k in self.degrees}
        return f"BComplex(n={self.n}, ranks={shape})"


def tensor(X: BComplex, Y: BComplex) -> BComplex:
    """X (x) Y with differential d_X (x) 1 + (-1)^a 1 (x) d_Y.

    Degree-m term is the sum over a + b = m of X^a (x) Y^b, with a
    ascending; that fixed enumeration is shared by tensor_chain_maps.
    """
    n = X.n
    pairs: dict = {}
    for a in X.degrees:
        for b in Y.degrees:
            pairs[(a, b)] = X.objs[a].tensor(Y.objs[b])
    layout: dict = {}
    objs: dict = {}
    for a in X.degrees:
        for b in Y.degrees:
            layout.setdefault(a + b, []).append((a, b))
    for m, keys in layout.items():
        keys.sort()
        total, offsets = bimodule_sum([pairs[key] for key in keys])
        objs[m] = total
        layout[m] = {key: off for key, off in zip(keys, offsets)}
    diffs = {}
    for m in sorted(objs):
        if m + 1 not in objs:
            continue
        mat = {}
        src_off, tgt_off = layout[m], layout[m + 1]
        for (a, b), so in src_off.items():
            # horizontal: d_X (x) id
            if (a + 1, b) in tgt_off and a in X.diffs:
                to = tgt_off[(a + 1, b)]
                blk = tensor_mat(X.diffs[a], identity_map(Y.objs[b]))
                for (r, c), p in blk.items():
                    mat[(to + r, so + c)] = p
            # vertical: (-1)^a id (x) d_Y
            if (a, b + 1) in tgt_off and b in Y.diffs:
                to = tgt_off[(a, b + 1)]
                blk = tensor_mat(identity_map(X.objs[a]), Y.diffs[b])
                sign = -1 if a % 2 else 1
                for (r, c), p in blk.items():
                    mat[(to + r, so + c)] = p if sign == 1 else -p
        d = BimoduleMap(objs[m], objs[m + 1], mat)
        if not d.is_zero:
            diffs[m] = d
    return BComplex(n, objs, diffs)


class ChainMap:
    """Degree-0 termwise map of complexes (commuting with differentials)."""

    __slots__ = ("src", "tgt", "comps")

    def __init__(self, src: BComplex, tgt: BComplex, comps: dict):
        self.src, self.tgt = src, tgt
        self.comps = {k: f for k, f in comps.items() if not f.is_zero}

    @classmethod
    def identity(cls, X: BComplex) -> "ChainMap":
        return cls(X, X, {k: identity_map(m) for k, m in X.objs.items()})

    def comp_mat(self, k: int):
        f = self.comps.get(k)
        return f.mat if f is not None else {}

    def check(self):
        """Commuting squares, degree-0 components; InvariantError if not."""
        for k in set(self.src.degrees) | set(self.tgt.degrees):
            lhs = mat_mul(self.comp_mat(k + 1), self.src.diff_mat(k))
            rhs = mat_mul(self.tgt.diff_mat(k), self.comp_mat(k))
            if not mat_eq(lhs, rhs):
                raise InvariantError(
                    f"square at degree {k} does not commute")
        for k, f in self.comps.items():
            if f.degree not in (None, 0):
                raise InvariantError(
                    f"chain map component at {k} has degree {f.degree}")
            f.check()


def tensor_chain_maps(f: ChainMap, g: ChainMap, src: BComplex,
                      tgt: BComplex) -> ChainMap:
    """f (x) g termwise, from src = tensor(f.src, g.src) to tgt =
    tensor(f.tgt, g.tgt), which the caller has built.  Sources and
    targets must live in the same degrees so the summand enumeration of
    tensor() matches on both sides."""
    assert f.src.degrees == f.tgt.degrees
    assert g.src.degrees == g.tgt.degrees
    comps = {}
    for m in src.degrees:
        mat = {}
        soff = toff = 0
        for a in f.src.degrees:
            b = m - a
            if b not in g.src.objs:
                continue
            fa, gb = f.comps.get(a), g.comps.get(b)
            if fa is not None and gb is not None:
                for (r, c), p in tensor_mat(fa, gb).items():
                    mat[(toff + r, soff + c)] = p
            soff += f.src.objs[a].rank * g.src.objs[b].rank
            toff += f.tgt.objs[a].rank * g.tgt.objs[b].rank
        assert (soff, toff) == (src.objs[m].rank, tgt.objs[m].rank)
        F = BimoduleMap(src.objs[m], tgt.objs[m], mat)
        if not F.is_zero:
            comps[m] = F
    return ChainMap(src, tgt, comps)


def positive_crossing_complex(n: int, i: int) -> BComplex:
    f = split_inclusion(n, i)
    return BComplex(n, {-1: f.src, 0: f.tgt}, {-1: f})


def negative_crossing_complex(n: int, i: int) -> BComplex:
    f = merge_projection(n, i)
    return BComplex(n, {0: f.src, 1: f.tgt}, {0: f})


def letter_complex(n: int, i: int, kind: int) -> BComplex:
    return (positive_crossing_complex(n, i) if kind == POS
            else negative_crossing_complex(n, i))


def rouquier_complex(word: Word) -> BComplex:
    """Tensor of the letter complexes of a non-singular braid word."""
    out = BComplex.identity(word.n)
    if word.is_singular:
        raise ValueError("singular letters need the cube construction "
                         "(vassiliev)")
    for i, kind in word.entries:
        out = tensor(out, letter_complex(word.n, i, kind))
    return out


def crossing_change_ses(n: int, i: int):
    """The letter-level exact sequence 0 -> X -> E -> Y[1] -> 0.

    X is the positive letter complex, E the two-term complex on the
    rank-3 extension module with identity differential, and Y[1] the
    negative letter complex shifted into degrees {-1, 0}.  Returns
    (X, E, Y[1], inclusion, projection); both maps are degree-(0,0)
    chain maps and the sequence is exact in every term.
    """
    E_bim, maps = aux_bimodules(n, i)
    X = positive_crossing_complex(n, i)
    E = BComplex(n, {-1: E_bim, 0: E_bim}, {-1: identity_map(E_bim)})
    Y1 = negative_crossing_complex(n, i).shift_homological(1)
    iota = ChainMap(X, E, {-1: maps["uv_inclusion"], 0: maps["u_inclusion"]})
    pi = ChainMap(E, Y1, {-1: -maps["quotient"], 0: maps["evaluation"]})
    return X, E, Y1, iota, pi

