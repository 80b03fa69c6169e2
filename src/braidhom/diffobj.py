"""Free graded differential objects over S, with tracked exact reduction.

Once the Hochschild/Koszul or matrix-factorization functor has been
applied to one homological column of a braid-word complex, right actions
no longer matter: each column is a finite free graded module over S
carrying a square-zero differential with polynomial entries.  This
module reduces such objects by cancelling invertible constant entries of
the differential, tracking the homotopy equivalence so that maps between
columns can be conjugated onto the reduced models.  The same reduction
runs in the word direction on a complex of columns that have no
differential left (homology.cancel_word_pivots), which keeps only the
reduced object and so builds no homotopy maps (eliminate(maps=False)).
Every entry update is one fused product: poly.add_products adds its
terms into a copy of the old entry's terms, and one Poly is built.

Generators carry a pair (hdeg, qdeg): an auxiliary homological index
(exterior weight for Koszul columns, unused for folded factorizations)
and the internal degree, which includes any shift the generator inherits
from the bimodule side.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .bimodule import entry_degree, mat_clean, mat_mul
from .linalg import InvariantError
from .poly import Poly, add_products
from .rational import quotient


class DiffObject:
    """A free graded module with a square-zero sparse differential."""

    __slots__ = ("n", "gens", "diff", "labels")

    def __init__(self, n: int, gens, diff, labels=None):
        self.n = n
        self.gens = list(gens)  # (hdeg, qdeg)
        self.diff = mat_clean(diff)
        self.labels = list(labels) if labels is not None else None

    @property
    def rank(self) -> int:
        return len(self.gens)

    def check(self, dh=None, dq: int = 0):
        """Check homogeneity and d^2 = 0; InvariantError if either fails.

        dh: required hdeg drop of the differential (None = don't check);
        dq: required internal degree of the differential.
        """
        for (r, c), p in self.diff.items():
            hr, qr = self.gens[r]
            hc, qc = self.gens[c]
            if dh is not None and hr != hc + dh:
                raise InvariantError(f"hdeg mismatch at {(r, c)}")
            d = entry_degree(p, (r, c), "differential entry")
            if d != dq + qc - qr:
                raise InvariantError(f"qdeg mismatch at {(r, c)}: "
                                     f"{d} != {dq + qc - qr}")
        if mat_mul(self.diff, self.diff):
            raise InvariantError("d^2 != 0")

    def eliminate(self, maps: bool = True):
        """Cancel constant pivots of the differential.

        Returns (reduced, F, G) where F: original -> reduced and
        G: reduced -> original are chain maps with F G = id; with
        maps=False, F and G are not built and come back as None, for a
        caller that keeps only the reduced object.  Pivots are chosen
        deterministically: each is the constant entry of smallest fill
        (length of its row times length of its column), ties broken by
        (row, column).  The candidates sit in a heap of
        (fill, (row, column)); a step marks every row and column whose
        entries it changed, the constant entries of those are pushed
        with fresh keys before the next pop, and a popped item that is
        no longer constant or whose key is stale is skipped.  So every
        pop is the minimum over all constant entries, without a scan of
        them.

        Every update e - a b (of the differential, F or G) is fused: the
        terms of -a b are added into a copy of the terms of e
        (poly.add_products) and one canonical Poly is built, as in
        bimodule.mat_mul.
        """
        n = self.n
        rows: dict = {}
        cols: dict = {}
        for (r, c), p in self.diff.items():
            rows.setdefault(r, {})[c] = p
            cols.setdefault(c, {})[r] = p
        const = {key for key, p in self.diff.items() if p.degree() == 0}
        heap: list = []
        dirty_rows = set(rows)  # the first refresh pushes every candidate
        dirty_cols: set = set()
        alive = set(range(self.rank))
        if maps:
            Fmap = {i: {i: Poly.one(n)} for i in alive}
            Gmap = {j: {j: Poly.one(n)} for j in alive}

        def entry_set(i, j, p):
            dirty_rows.add(i)
            dirty_cols.add(j)
            if p:
                rows.setdefault(i, {})[j] = p
                cols.setdefault(j, {})[i] = p
                if p.degree() == 0:
                    const.add((i, j))
                else:
                    const.discard((i, j))
            else:
                rows.get(i, {}).pop(j, None)
                cols.get(j, {}).pop(i, None)
                const.discard((i, j))

        def plus_product(cur, left: dict, right: dict) -> Poly:
            """cur + left right for an entry cur (None for zero) and term
            dicts left and right, as one canonical Poly."""
            acc = dict(cur.terms) if cur is not None else {}
            return Poly(n, add_products(acc, left, right))

        def refresh():
            for i in dirty_rows:
                row = rows.get(i)
                if row:
                    for j in row:
                        if (i, j) in const:
                            heappush(heap, (len(row) * len(cols[j]), (i, j)))
            for j in dirty_cols:
                col = cols.get(j)
                if col:
                    for i in col:
                        if (i, j) in const:
                            heappush(heap, (len(rows[i]) * len(col), (i, j)))
            dirty_rows.clear()
            dirty_cols.clear()

        while True:
            refresh()
            while heap:
                fill, (r0, c0) = heappop(heap)
                if ((r0, c0) in const
                        and fill == len(rows[r0]) * len(cols[c0])):
                    break
            else:
                break
            inv = quotient(1, rows[r0][c0].constant_term())
            row = {j: p for j, p in rows[r0].items() if j != c0}
            col = {i: p for i, p in cols[c0].items() if i != r0}
            # -col[i] inv, the left factor of every update in row i
            neg = {i: {m: -(c * inv) for m, c in pi.terms.items()}
                   for i, pi in col.items()}
            # differential update d[i, j] -= col[i] inv row[j]
            for i, left in neg.items():
                for j, pj in row.items():
                    entry_set(i, j, plus_product(rows.get(i, {}).get(j),
                                                 left, pj.terms))
            if maps:
                # homotopy equivalence update
                fr0 = Fmap[r0]
                for i, left in neg.items():
                    fi = Fmap[i]
                    for o, q in fr0.items():
                        v = plus_product(fi.get(o), left, q.terms)
                        if v:
                            fi[o] = v
                        else:
                            fi.pop(o, None)
                gc0 = Gmap[c0]
                for j, pj in row.items():
                    right = {m: -(inv * c) for m, c in pj.terms.items()}
                    gj = Gmap[j]
                    for o, q in gc0.items():
                        v = plus_product(gj.get(o), q.terms, right)
                        if v:
                            gj[o] = v
                        else:
                            gj.pop(o, None)
            # retire the two generators and every entry touching them
            for g in (r0, c0):
                for j in list(rows.get(g, ())):
                    cols.get(j, {}).pop(g, None)
                    const.discard((g, j))
                    dirty_cols.add(j)
                rows.pop(g, None)
                for i in list(cols.get(g, ())):
                    rows.get(i, {}).pop(g, None)
                    const.discard((i, g))
                    dirty_rows.add(i)
                cols.pop(g, None)
                alive.discard(g)
                if maps:
                    Fmap.pop(g, None)
                    Gmap.pop(g, None)

        order = sorted(alive)
        index = {old: new for new, old in enumerate(order)}
        gens = [self.gens[i] for i in order]
        labels = [self.labels[i] for i in order] if self.labels else None
        diff = {}
        for i in order:
            for j, p in rows.get(i, {}).items():
                diff[(index[i], index[j])] = p
        reduced = DiffObject(self.n, gens, diff, labels)
        if not maps:
            return reduced, None, None
        F = {}
        for i in order:
            for o, p in Fmap[i].items():
                F[(index[i], o)] = p
        G = {}
        for j in order:
            for o, p in Gmap[j].items():
                G[(o, index[j])] = p
        return reduced, F, G

    def __repr__(self):
        return f"DiffObject(rank={self.rank}, nnz={len(self.diff)})"


def conjugate(F_tgt: dict, mat: dict, G_src: dict) -> dict:
    """Transport a map between original spaces onto the reduced models."""
    return mat_mul(F_tgt, mat_mul(mat, G_src))
