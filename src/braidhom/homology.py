"""Triply graded homology of braid closures from degreewise Koszul slices.

For each term M of a braid-word complex, the self-tensor homology of M
is computed from its contraction column: the free module M (x) Lambda
on n-1 exterior directions, with differential contracting one direction
at a time against the commuting operators x_j - (right action of x_j).
Every internal degree j of that column is a finite-dimensional exact
linear-algebra problem, so the homology is assembled slice by slice:

  stage 1: per (term k, exterior weight p, internal degree j), a
           subquotient basis (cycles of the outgoing contraction modulo
           boundaries of the incoming one);
  stage 2: the word differentials, extended by the identity on the
           exterior directions, push stage-1 representatives forward;
           expressing the images in the target subquotients gives
           induced maps whose k-direction homology is the answer.

The result is a triply graded dimension table in (k, i, j).  Reported
gradings are normalized so that one-crossing presentations of the
unknot sit at the origin: k and i both shift by (writhe + 1 - n)/2,
which is an integer exactly when the closure is a knot; for links the
shift is floored and flagged.  The graded Euler characteristic then
matches the two-variable skein polynomial of the closure under the
fixed change of variables recorded in conventions.py.

Internal degrees are scanned upward from the lowest generator degree
until a configurable run of degrees contributes no homology past the
highest generator degree (knots have finite-dimensional homology, so
the scan terminates; links may be truncated, which is reported).

The two stages are one slice engine, shared with the sl(N) pipeline
(mfact) and the resolution cube (wallcross): a slicer cuts a column
into finite slices (ColumnSlices keyed (p, j), FoldedSlices keyed
(q, parity) for folded columns), slice_subquotient is stage one,
induced_matrix pushes classes for stage two, tower_homology takes the
word-direction homology, ColumnData holds the columns of one word
complex, and scan_degrees runs the degree scan.

Every exterior complex comes from one constructor, exterior_column,
which holds the only remove and add sign rules: the contraction column,
the folded columns and z_factorization of mfact, and the two-sided
resolution of koszul_resolution_check.

With simplify, two cancellations run before anything is sliced.  Each
column is reduced by DiffObject.eliminate and the word maps are
conjugated onto the reduced columns.  When no reduced column keeps a
differential (every HOMFLY word; the two-strand words at N = 2), the
word complex is itself a complex of free graded S-modules whose maps
have degree 0 and keep the exterior weight, so a constant entry joins
two generators of equal (weight, degree) and cancelling it is a
homotopy equivalence of that complex: cancel_word_pivots assembles the
word complex into one DiffObject, checks it, cancels its constant
entries and checks the result, and every degree slice keeps its tower
homology (5_1: the 244 generators left by column elimination come down
to 10).  This is not the bimodule-level cancellation ColumnData
forbids, which would act before column homology is taken.  The scan
bounds come from the generators that survive.

Stage one is one linalg.SubquotientBasis per slice.  A slice with no
differential in or out (after simplify, every slice of a contraction
column) is whole: its classes are the standard basis and expressing a
vector is the identity.  Each slice's outgoing differential is factored
once, and its rank is kept (ColumnData.ranks) as the incoming rank of
the slice it maps to.  Where that rank is known (the previous slice was
visited or is empty: always in a degree scan of folded slicers, which
visit degrees upward) the homology dimension is known before any
boundary is spanned: a negative one is an InvariantError, and an exact
slice spans no boundaries and never assembles its incoming
differential.  The contraction slicers visit (p + 1, j) after (p, j),
so they span the boundaries as before.  Stage two pushes sparsely,
column by column of the slice matrix; a source with no outgoing
differential represents its classes by standard vectors, whose images
are columns of the matrix, and between two whole slices the induced map
is the slice matrix itself; nothing is solved.  Coefficients are ints or Fractions: the
polynomial data is canonical (rational.py: an int when integral), so
slices start out integer and Fractions come only from divisions.
Failed internal checks raise linalg.InvariantError, also under
python -O.
"""

from __future__ import annotations

import itertools

from .bimodule import Bimodule, GradedFreeBasis, graded_map_entries
from .braid import Word
from .complexes import BComplex, rouquier_complex
from .diffobj import DiffObject, conjugate
from .laurent import Laurent2
from .linalg import (InvariantError, SubquotientBasis, cleared, mat_mat,
                     matrix_rank)
from .poly import graded_piece, phi
from .rational import exact


class DegreeWindow:
    """Internal-degree scan bounds: top degree and stabilization margin."""

    __slots__ = ("max_degree", "margin")

    def __init__(self, max_degree: int = 60, margin: int = 6):
        if max_degree < 0 or max_degree % 2:
            raise ValueError("max_degree must be even and nonnegative")
        if margin < 1:
            raise ValueError("margin must be at least 1")
        self.max_degree = max_degree
        self.margin = margin

    def __repr__(self):
        return f"DegreeWindow(max_degree={self.max_degree}, margin={self.margin})"


def check_N(N) -> int:
    """The rank N of an sl(N) specialization, checked to be a positive
    int."""
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return N


class TriGradedSpace:
    """Finitely supported dimension table over three integer gradings."""

    __slots__ = ("dims",)

    def __init__(self, dims=None):
        self.dims = {}
        if dims:
            for (k, i, j), d in dims.items():
                self.add(k, i, j, d)

    def add(self, k: int, i: int, j: int, d: int = 1):
        if d:
            key = (k, i, j)
            new = self.dims.get(key, 0) + d
            if new < 0:
                raise InvariantError(f"negative dimension at {key}")
            if new:
                self.dims[key] = new
            else:
                del self.dims[key]

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def table(self) -> list:
        """Sorted rows [k, i, j, dim]."""
        return [[k, i, j, self.dims[(k, i, j)]]
                for (k, i, j) in sorted(self.dims)]

    def euler(self) -> Laurent2:
        """Sum of (-1)^k a^i q^j over the table."""
        out = Laurent2.zero()
        for (k, i, j), d in self.dims.items():
            out = out + Laurent2.monomial(i, j, -d if k % 2 else d)
        return out

    def __eq__(self, other):
        return isinstance(other, TriGradedSpace) and self.dims == other.dims

    def __bool__(self):
        return bool(self.dims)

    def __repr__(self):
        return f"TriGradedSpace(total_dim={self.total_dim}, support={len(self.dims)})"


# ---------------------------------------------------------------------------
# columns


def _by_column(m: dict) -> dict:
    out: dict = {}
    for (r, c), p in m.items():
        out.setdefault(c, []).append((r, p))
    return out


def exterior_column(n: int, gens, c: int, removers: dict,
                    adders: dict) -> DiffObject:
    """A free module on generator degrees gens, tensored with the
    exterior algebra on the directions of removers.

    Generators are labelled (a, J) with a an index into gens and J a
    sorted tuple of directions; hdeg |J|, internal degree gens[a] + c|J|.
    The differential removes each direction j of J with alternating
    signs through removers[j], and adds each missing direction j with an
    entry in adders through adders[j], signed by the position j takes in
    the sorted tuple.  removers and adders map a direction to a matrix
    on the base module.
    """
    dirs = sorted(removers)
    removers = {j: _by_column(m) for j, m in removers.items()}
    adders = {j: _by_column(m) for j, m in adders.items()}
    degrees, labels, index = [], [], {}
    for p in range(len(dirs) + 1):
        for J in itertools.combinations(dirs, p):
            for a, g in enumerate(gens):
                index[(a, J)] = len(degrees)
                degrees.append((p, g + c * p))
                labels.append((a, J))
    diff: dict = {}

    def accumulate(key, add):
        cur = diff.get(key)
        tot = add if cur is None else cur + add
        if tot:
            diff[key] = tot
        elif cur is not None:
            del diff[key]

    for (a, J), col in index.items():
        for t, jdir in enumerate(J):
            jred = J[:t] + J[t + 1:]
            for b, q in removers[jdir].get(a, ()):
                accumulate((index[(b, jred)], col), q if t % 2 == 0 else -q)
        for jdir, by_col in adders.items():
            if jdir in J:
                continue
            jext = tuple(sorted(J + (jdir,)))
            sgn = sum(1 for l in J if l < jdir) % 2
            for b, q in by_col.get(a, ()):
                accumulate((index[(b, jext)], col), -q if sgn else q)
    return DiffObject(n, degrees, diff, labels)


def koszul_column(M: Bimodule) -> DiffObject:
    """Contraction column of a bimodule: M (x) Lambda(n-1 directions).

    The differential only removes directions, through x_j - (right
    action of x_j), so it drops hdeg by one and preserves the internal
    degree (each direction has degree 2).
    """
    return exterior_column(M.n, M.gens, 2, {j: M.action_difference(j)
                                            for j in range(1, M.n)}, {})


def column_map(dmat: dict, src_col: DiffObject, tgt_col: DiffObject) -> dict:
    """Extend a map of bimodules to their columns, identity on the
    exterior directions.  Works for any columns labelled (a, J)."""
    by_gen: dict = {}
    for i, (a, J) in enumerate(src_col.labels):
        by_gen.setdefault(a, []).append((J, i))
    tgt_pos = {lab: i for i, lab in enumerate(tgt_col.labels)}
    out: dict = {}
    for (b, a), p in dmat.items():
        for J, ci in by_gen.get(a, ()):
            out[(tgt_pos[(b, J)], ci)] = p
    return out


# ---------------------------------------------------------------------------
# slicers
#
# A slicer cuts one column into finite-dimensional slices keyed sigma and
# answers sigmas(deg), dim(sigma), next(sigma) / prev(sigma) (the slices
# the column differential maps sigma to and from), diff(sigma) (that
# differential, in slice coordinates), and for a degree-0 map from this
# column to another column, cut into parts once by split(map, other),
# cross(parts, other, sigma) (its block from slice sigma to slice sigma)
# and step(parts, other, sigma) (its block from slice sigma to slice
# next(sigma), for a map that moves slices like the differential).


class ColumnSlices:
    """Contraction slicer, keyed sigma = (p, j): exterior weight p and
    internal degree j.  The differential maps (p, j) to (p - 1, j), so
    step reads the blocks that move the weight by STEP.  Bases and
    differential blocks are cached, and the differential is split by
    generator groups once."""

    __slots__ = ("col", "groups", "two_sided", "_bases", "_diffs", "_where",
                 "_diff")
    STEP = (-1,)

    def __init__(self, col: DiffObject, two_sided: bool = False):
        self.col = col
        self.two_sided = two_sided
        self.groups: dict = {}
        for idx, (h, _q) in enumerate(col.gens):
            self.groups.setdefault(h, []).append(idx)
        self._where = {g: (h, i) for h, ids in self.groups.items()
                       for i, g in enumerate(ids)}
        self._bases: dict = {}
        self._diffs: dict = {}
        self._diff = self.split(col.diff, self)

    def sigmas(self, deg: int) -> list:
        return [(p, deg) for p in self.groups]

    def next(self, sigma):
        p, j = sigma
        return (p - 1, j)

    def prev(self, sigma):
        p, j = sigma
        return (p + 1, j)

    def basis(self, h: int, j: int):
        key = (h, j)
        if key not in self._bases:
            ids = self.groups.get(h)
            if not ids:
                self._bases[key] = None
            else:
                gens = [self.col.gens[i][1] for i in ids]
                self._bases[key] = GradedFreeBasis(self.col.n, gens, j,
                                                   self.two_sided)
        return self._bases[key]

    def dim(self, sigma) -> int:
        b = self.basis(*sigma)
        return b.dim if b is not None else 0

    def split(self, mat: dict, other: "ColumnSlices") -> dict:
        """A poly matrix from this column to other, cut into its blocks
        between generator groups: {(source group, target group): entries
        reindexed within the two groups}."""
        parts: dict = {}
        for (r, c), p in mat.items():
            hs, cs = self._where[c]
            ht, rt = other._where[r]
            parts.setdefault((hs, ht), {})[(rt, cs)] = p
        return parts

    def _block(self, parts: dict, other: "ColumnSlices", src, tgt) -> dict:
        """Scalar block of a split poly matrix from slice src of this
        column to slice tgt of other."""
        bs, bt = self.basis(*src), other.basis(*tgt)
        loc = parts.get((src[0], tgt[0]))
        if not loc or bs is None or bt is None or bs.dim == 0 or bt.dim == 0:
            return {}
        return graded_map_entries(loc, bs, bt)

    def diff(self, sigma) -> dict:
        if sigma not in self._diffs:
            self._diffs[sigma] = self.step(self._diff, self, sigma)
        return self._diffs[sigma]

    def cross(self, parts: dict, other: "ColumnSlices", sigma) -> dict:
        return self._block(parts, other, sigma, sigma)

    def step(self, parts: dict, other: "ColumnSlices", sigma) -> dict:
        return self._block(parts, other, sigma, self.next(sigma))


class FoldedSlices:
    """Folded slicer, keyed sigma = (q, parity): the slice concatenates
    the weight-p pieces of collapsed degree q for the weights p of that
    parity, ascending.  The differential moves the weight by one either
    way and maps (q, parity) to (q + N + 1, 1 - parity); cross reads
    only the weight-preserving blocks of a degree-0 map, and step only
    the blocks that move the weight by one (STEP), as the differential
    does."""

    __slots__ = ("sl", "N", "_offsets", "_diffs")
    STEP = (-1, 1)

    def __init__(self, col: DiffObject, N: int):
        self.sl = ColumnSlices(col)
        self.N = N
        self._offsets: dict = {}
        self._diffs: dict = {}

    def sigmas(self, deg: int) -> list:
        return [(deg, 0), (deg, 1)]

    def next(self, sigma):
        q, parity = sigma
        return (q + self.N + 1, 1 - parity)

    def prev(self, sigma):
        q, parity = sigma
        return (q - self.N - 1, 1 - parity)

    def offsets(self, sigma):
        """({weight: offset of its block}, slice dimension)."""
        if sigma not in self._offsets:
            q, parity = sigma
            offsets, dim = {}, 0
            for p in sorted(self.sl.groups):
                d = self.sl.dim((p, q)) if p % 2 == parity else 0
                if d:
                    offsets[p] = dim
                    dim += d
            self._offsets[sigma] = (offsets, dim)
        return self._offsets[sigma]

    def dim(self, sigma) -> int:
        return self.offsets(sigma)[1]

    def weight(self, sigma, index: int) -> int:
        """Weight of the block holding one slice coordinate."""
        return max(p for p, off in self.offsets(sigma)[0].items()
                   if off <= index)

    def _blocks(self, src: dict, tgt: dict, steps, block) -> dict:
        """Concatenate block(p, pt) over the weights p of src and
        pt = p + step of tgt."""
        out: dict = {}
        for p, off in src.items():
            for pt in (p + step for step in steps):
                if pt in tgt:
                    for (r, c), v in block(p, pt).items():
                        out[(tgt[pt] + r, off + c)] = v
        return out

    def diff(self, sigma) -> dict:
        if sigma not in self._diffs:
            self._diffs[sigma] = self.step(self.sl._diff, self, sigma)
        return self._diffs[sigma]

    def split(self, mat: dict, other: "FoldedSlices") -> dict:
        return self.sl.split(mat, other.sl)

    def cross(self, parts: dict, other: "FoldedSlices", sigma) -> dict:
        return self._blocks(self.offsets(sigma)[0], other.offsets(sigma)[0],
                            (0,), lambda p, _pt: self.sl.cross(
                                parts, other.sl, (p, sigma[0])))

    def step(self, parts: dict, other: "FoldedSlices", sigma) -> dict:
        nxt = self.next(sigma)
        return self._blocks(self.offsets(sigma)[0], other.offsets(nxt)[0],
                            self.STEP, lambda p, pt: self.sl._block(
                                parts, other.sl, (p, sigma[0]), (pt, nxt[0])))


def check_blocks(parts: dict, moves, what: str):
    """InvariantError unless every block of a split map, keyed (source
    weight, target weight), moves the weight by one of moves.  cross
    reads only the blocks that keep the weight (moves (0,)) and step
    only those that move it by the slicer's STEP, so an entry in any
    other block would be dropped unseen."""
    for hs, ht in parts:
        if ht - hs not in moves:
            raise InvariantError(f"{what} has entries from weight {hs} to "
                                 f"weight {ht}, a block no slice reads")


# ---------------------------------------------------------------------------
# the two stages


def slice_subquotient(sl, sigma, ranks: dict):
    """Homology basis at one slice: kernel of the outgoing differential
    modulo the image of the incoming one; None when the slice is empty.

    ranks = {sigma: rank of the differential out of sigma} holds the
    slices of this slicer visited so far and gains this one.  The
    incoming rank is known when prev(sigma) is empty or in ranks, and
    then an exact slice never assembles the incoming differential."""
    dim = sl.dim(sigma)
    if not dim:
        return None
    prev = sl.prev(sigma)
    sq = SubquotientBasis(dim, sl.diff(sigma), sl.dim(sl.next(sigma)),
                          lambda: sl.diff(prev),
                          ranks.get(prev) if sl.dim(prev) else 0)
    ranks[sigma] = sq.out_rank
    return sq


def slice_homology(sl, degrees) -> dict:
    """{sigma: dim} of the nonzero slice homology at the given degrees."""
    out: dict = {}
    ranks: dict = {}
    for deg in degrees:
        for sigma in sorted(sl.sigmas(deg)):
            sq = slice_subquotient(sl, sigma, ranks)
            if sq is not None and sq.dim:
                out[sigma] = sq.dim
    return out


def induced_matrix(entries: dict, tdim: int, sq_src: SubquotientBasis,
                   sq_tgt: SubquotientBasis) -> dict:
    """Map induced on slice homology by a slice matrix {(row, col):
    coefficient} (rows in tdim coordinates; coefficients and induced
    entries are ints or Fractions): push each representative forward,
    in canonical form (rational.exact), and express it in the target
    subquotient.

    Pushes are sparse: a source with standard representatives
    represents its c-th class by the standard vector at its c-th class
    column, whose image is that column of the matrix, and a whole
    target's coordinates are the image itself, so between two whole
    slices the induced map is the matrix."""
    if sq_src.whole and sq_tgt.whole:
        return {key: v for key, v in entries.items() if v}
    by_col = _by_column(entries)
    out: dict = {}
    for c in range(sq_src.dim):
        if sq_src.standard:
            img = dict(by_col.get(sq_src.classes[c], ()))
        else:
            img = {}
            for x, val in enumerate(sq_src.reps[c]):
                if val:
                    for r, v in by_col.get(x, ()):
                        img[r] = img.get(r, 0) + v * val
            for r, v in img.items():
                if type(v) is not int:
                    img[r] = exact(v)
        if not sq_tgt.whole:
            dense = [0] * tdim
            for r, v in img.items():
                dense[r] = v
            try:
                img = dict(enumerate(sq_tgt.express(dense)))
            except ValueError as e:
                raise InvariantError(
                    "pushed representative left the target subquotient") \
                    from e
        for r, v in img.items():
            if v:
                out[(r, c)] = v
    return out


def _compose(m2: dict, m1: dict) -> dict:
    """m2 after m1; its own name so that traces time the tower's
    d^2 = 0 checks apart from other products."""
    return mat_mat(m2, m1)


def tower_homology(dims: dict, mats: dict) -> dict:
    """Homology dimensions of a finite sequence of spaces and maps.

    dims = {k: dim V_k}, mats = {k: matrix V_k -> V_{k+1}}; checks that
    consecutive maps compose to zero, then applies rank-nullity, both on
    the maps cleared to integers.
    """
    mats = {k: cleared(m) for k, m in mats.items()}
    for k in mats:
        if k + 1 in mats and _compose(mats[k + 1], mats[k]):
            raise InvariantError(
                f"induced maps do not square to zero at {k}")
    ranks = {k: matrix_rank(m, dims.get(k + 1, 0), dims[k])
             for k, m in mats.items()}
    out = {}
    for k, d in dims.items():
        h = d - ranks.get(k, 0) - ranks.get(k - 1, 0)
        if h < 0:
            raise InvariantError(f"negative homology dimension at {k}")
        if h:
            out[k] = h
    return out


def cancel_word_pivots(n: int, cols: dict, kmaps: dict):
    """Cancel the constant pivots of the word differential between
    columns with no differential of their own.

    The columns {k: DiffObject} and word maps {k: column k -> k + 1}
    are assembled into one object, generators (k, q) labelled (k, index
    in column k), checked, reduced by DiffObject.eliminate (without the
    homotopy maps F and G, which nothing here reads) and checked
    again; returns the surviving columns (their generators and labels
    kept, no differential) and the reduced word maps between them.
    Every word-map entry must join two generators of one exterior
    weight (InvariantError if not), so a constant entry joins equal
    (weight, degree) and cancelling it is a homotopy equivalence of the
    word complex of free graded S-modules: every slice keeps its tower
    homology.
    """
    degrees = sorted(cols)
    offset, gens, labels = {}, [], []
    for k in degrees:
        offset[k] = len(gens)
        gens.extend((k, q) for _h, q in cols[k].gens)
        labels.extend((k, i) for i in range(cols[k].rank))
    diff = {}
    for k, m in kmaps.items():
        src, tgt = cols[k].gens, cols[k + 1].gens
        for (r, c), p in m.items():
            if src[c][0] != tgt[r][0]:
                raise InvariantError(f"word map {k} changes the exterior "
                                     f"weight at {(r, c)}")
            diff[(offset[k + 1] + r, offset[k] + c)] = p
    word = DiffObject(n, gens, diff, labels)
    word.check(dh=1, dq=0)
    red = word.eliminate(maps=False)[0]
    red.check(dh=1, dq=0)
    keep: dict = {k: [] for k in degrees}
    where = []
    for k, i in red.labels:
        where.append((k, len(keep[k])))
        keep[k].append(i)
    out_cols = {k: DiffObject(n, [cols[k].gens[i] for i in ids], {},
                              [cols[k].labels[i] for i in ids])
                for k, ids in keep.items()}
    out_maps: dict = {k: {} for k in kmaps}
    for (r, c), p in red.diff.items():
        k, cc = where[c]
        out_maps[k][(where[r][1], cc)] = p
    return out_cols, out_maps


def word_columns(C: BComplex, N) -> dict:
    """{k: column of term k} of a word complex: contraction columns for
    N = None, folded columns (mfact.folded_column) for a positive N."""
    if N is None:
        return {k: koszul_column(C.objs[k]) for k in C.degrees}
    from .mfact import folded_column  # mfact imports this module
    return {k: folded_column(C.objs[k], N) for k in C.degrees}


def word_maps(C: BComplex, cols: dict) -> dict:
    """{k: the differential of C from term k to k + 1, extended to the
    columns} (column_map), for every nonzero differential."""
    return {k: column_map(C.diff_mat(k), cols[k], cols[k + 1])
            for k in C.degrees if k + 1 in C.objs and C.diff_mat(k)}


def reduce_columns(cols: dict, kmaps: dict):
    """Cancel the constant pivots of every column (DiffObject.eliminate)
    and conjugate the word maps {k: column k -> k + 1} onto the reduced
    columns.  Returns (cols, conjugated word maps, F, G), with F[k]:
    column k -> its reduced model and G[k] back: chain maps of internal
    degree 0 with F G = 1 and G F homotopic to 1, so every slice keeps
    its homology, and a map between columns conjugated by them induces
    the same map on it, up to the isomorphisms they induce.  Each column
    of cols is replaced by its reduced model in place, so a raw column
    is freed as soon as it is reduced; a caller that keeps the raw
    columns passes a copy."""
    F, G = {}, {}
    for k in cols:
        cols[k], F[k], G[k] = cols[k].eliminate()
    return (cols, {k: conjugate(F[k + 1], m, G[k])
                   for k, m in kmaps.items()}, F, G)


def check_columns(cols: dict, N):
    """Homogeneity and d^2 = 0 of word columns: a contraction column's
    differential has degree (-1, 0), a folded one's collapsed degree
    N + 1 (InvariantError if not)."""
    for col in cols.values():
        if N is None:
            col.check(dh=-1, dq=0)
        else:
            col.check(dh=None, dq=N + 1)


class ColumnData:
    """Columns of a word complex, its differentials extended to them
    (kmaps, each split once by its source slicer), one slicer per
    column, and the two stages per slice.

    N = None builds contraction columns sliced by (p, j); a positive N
    builds folded columns (mfact.folded_column) sliced by (q, parity).
    With simplify, each column is reduced by cancelling constant pivots
    (a strict chain homotopy equivalence of the column, so every slice
    keeps its homology) and the word maps are conjugated onto the
    reduced models (reduce_columns, which the resolution cube runs too,
    keeping F and G for its edges).  When every reduced column is left
    with no differential, the conjugated word maps compose to zero
    exactly (the homotopies between G F and the identity meet a zero
    differential), and the constant pivots of the word maps are
    cancelled too (cancel_word_pivots): the columns keep only the
    generators that survive, with no differential, and the word maps are
    the reduced ones between them.  A column that keeps a differential
    keeps its conjugated word maps, which compose to zero only up to
    homotopy and, folded, can move the weight by two (F and G mix the
    weights p +- 1 of a pivot); FoldedSlices.cross reads only
    weight-keeping blocks (the resolution cube checks with check_blocks
    that its maps have no others).

    The bimodule complex itself is deliberately NOT reduced by
    cancelling constant left-module pivots: such pivots need not respect
    bimodule summands, and cancelling them moves homology classes along
    the (k - 1, p - 1) diagonal, which changes the bigraded table even
    though it preserves the collapsed k - p grading.  Only a pivot that
    is a bimodule isomorphism could be cancelled there safely.  The word
    cancellation is not that: it runs after column homology is taken,
    on free S-modules whose right actions are gone, and each pivot it
    cancels joins two generators of equal (weight, degree), so every
    slice's tower loses only a contractible summand and the bigraded
    table stays.

    ranks = {k: {sigma: rank of the differential out of slice sigma of
    column k}} is filled by stage() from the factorization each slice's
    SubquotientBasis makes of its outgoing differential, and gives the
    next slice its incoming rank: a degree scan visits prev(sigma) of a
    folded slicer one collapsed step earlier, so every sl(N) slice knows
    it, and an exact one spans no boundaries.  stage() and induced()
    otherwise recompute on every call; a caller that revisits slices
    keeps their results itself.
    """

    __slots__ = ("C", "degrees", "cols", "kmaps", "slicers", "ranks")

    def __init__(self, C: BComplex, N, simplify: bool):
        cols = word_columns(C, N)
        kmaps = word_maps(C, cols)
        if simplify:
            cols, kmaps, _F, _G = reduce_columns(cols, kmaps)
        check_columns(cols, N)
        if simplify and not any(col.diff for col in cols.values()):
            cols, kmaps = cancel_word_pivots(C.n, cols, kmaps)
        self._slice(C, N, cols, kmaps)

    def _slice(self, C: BComplex, N, cols: dict, kmaps: dict):
        """Keep the columns, one slicer per column and the word maps,
        each split once by its source slicer."""
        self.C = C
        self.degrees = list(C.degrees)
        self.cols = cols
        self.slicers = {k: ColumnSlices(col) if N is None
                        else FoldedSlices(col, N) for k, col in cols.items()}
        self.kmaps = {k: self.slicers[k].split(m, self.slicers[k + 1])
                      for k, m in kmaps.items()}
        self.ranks = {k: {} for k in cols}

    def sigmas(self, deg: int) -> list:
        """Slice keys of all columns at one scanned degree, sorted."""
        return sorted({s for sl in self.slicers.values()
                       for s in sl.sigmas(deg)})

    def next(self, sigma):
        """Slice hit by the column differential, in every column."""
        return self.slicers[self.degrees[0]].next(sigma)

    def dim(self, k, sigma) -> int:
        return self.slicers[k].dim(sigma) if k in self.slicers else 0

    def stage(self, k, sigma):
        """Stage one: slice homology of column k, None when empty."""
        if k not in self.slicers:
            return None
        return slice_subquotient(self.slicers[k], sigma, self.ranks[k])

    def induced(self, k, sigma, sq_src, sq_tgt) -> dict:
        """Stage two: the map induced by the word differential from
        (k, sigma) to (k + 1, sigma).  Classes are pushed whenever the
        target slice is nonempty, so a class sent into a zero-dimensional
        target subquotient is checked to be a cycle there, which on that
        exact slice is the same as landing in its boundaries."""
        if sq_tgt is None:
            return {}
        src, tgt = self.slicers[k], self.slicers[k + 1]
        return induced_matrix(src.cross(self.kmaps[k], tgt, sigma),
                              tgt.dim(sigma), sq_src, sq_tgt)

    def tower(self, sigma):
        """(stage-one subquotients of positive dimension, induced maps
        between them, tower homology {k: dim}) at one slice."""
        stages = {k: self.stage(k, sigma) for k in self.degrees}
        sqs = {k: sq for k, sq in stages.items() if sq is not None and sq.dim}
        mats = {k: self.induced(k, sigma, sq, stages.get(k + 1))
                for k, sq in sqs.items() if k in self.kmaps}
        dims = {k: sq.dim for k, sq in sqs.items()}
        return sqs, mats, tower_homology(dims, mats)


# ---------------------------------------------------------------------------
# the degree scan


def scan_bounds(cols, window: DegreeWindow):
    """(lo, hi, q_top) of the degree scan over some columns: from the
    lowest generator degree up to the window bound; q_top is the
    highest generator degree."""
    qs = [q for c in cols for (_h, q) in c.gens]
    if not qs:
        return 0, -1, 0
    lo, q_top = min(qs), max(qs)
    return lo, max(window.max_degree, lo + window.max_degree), q_top


def scan_degrees(lo: int, hi: int, q_top: int, needed: int, visit):
    """Visit the degrees lo..hi in order; visit(deg) returns the total
    homology found there.  The scan stabilizes once `needed` consecutive
    degrees above q_top found nothing.  Returns (stabilized, last
    degree visited)."""
    zero_run, last = 0, lo - 1
    for deg in range(lo, hi + 1):
        total = visit(deg)
        last = deg
        if total == 0 and deg > q_top:
            zero_run += 1
            if zero_run >= needed:
                return True, last
        else:
            zero_run = 0
    return False, last


def grading_shift(word_writhe: int, n: int):
    """The common k- and i-normalization shift (writhe + 1 - n)/2,
    floored; the flag reports whether flooring lost a half."""
    num = word_writhe + 1 - n
    return num // 2, bool(num % 2)


def homfly_homology(word: Word, window: DegreeWindow = None,
                    simplify: bool = True):
    """Triply graded homology table of a braid closure, with scan report.

    Returns (TriGradedSpace, report dict).  Report keys: stabilized,
    j_range, shift, warnings, raw (unnormalized {(k, p, j): dim}).
    """
    window = window or DegreeWindow()
    data = ColumnData(rouquier_complex(word), None, simplify)
    raw: dict = {}

    def visit(j):
        total = 0
        for sigma in data.sigmas(j):
            for k, d in data.tower(sigma)[2].items():
                raw[(k, sigma[0], j)] = d
                total += d
        return total

    j_lo, j_hi, q_top = scan_bounds(data.cols.values(), window)
    stabilized, j_last = scan_degrees(j_lo, j_hi, q_top, window.margin,
                                      visit)
    shift, lost_half = grading_shift(word.writhe, word.n)
    warnings = []
    if not word.is_knot_closure:
        warnings.append("closure is not a knot: homology may be "
                        "infinite-dimensional and the degree window "
                        "truncates it")
    if lost_half:
        warnings.append("half-integral grading normalization floored")
    if not stabilized:
        warnings.append("internal-degree scan hit the window bound "
                        "before stabilizing")
    space = TriGradedSpace()
    for (k, p, j), d in raw.items():
        space.add(k + shift, p + shift, j, d)
    report = {"stabilized": stabilized, "j_range": (j_lo, j_last),
              "shift": shift, "warnings": warnings, "raw": raw,
              "simplify": simplify}
    return space, report


def hochschild_bimodule(M: Bimodule, window: DegreeWindow = None) -> dict:
    """Graded self-tensor homology table {(p, j): dim} of one bimodule.

    Scans internal degrees from the lowest generator degree up to the
    window bound; each slice is exact.  The answer is typically
    infinite-dimensional in total (e.g. the identity bimodule), so no
    stabilization is attempted: the window is the truncation.
    """
    window = window or DegreeWindow()
    col = koszul_column(M)
    col.check(dh=-1, dq=0)
    j_lo, j_hi, _q_top = scan_bounds([col], window)
    return slice_homology(ColumnSlices(col), range(j_lo, j_hi + 1))


def hochschild_closed_form(n: int, p: int, j: int) -> int:
    """Known answer for the identity bimodule: an exterior algebra on
    n-1 degree-(1, 2) generators tensored with the base ring."""
    from math import comb
    return comb(n - 1, p) * graded_piece(n, j - 2 * p, False).dim


# ---------------------------------------------------------------------------
# resolution property of the two-sided contraction complex


def koszul_resolution_check(n: int):
    """Check the contraction complex on x_j - y_j over the two-sided
    ring resolves the one-sided ring: degree-j homology has dim S_j at
    exterior weight 0 and vanishes at positive weights, for all internal
    degrees up to 12 (InvariantError if not)."""
    col = exterior_column(n, [0], 2, {j: {(0, 0): phi(n, j)}
                                      for j in range(1, n)}, {})
    col.check(dh=-1, dq=0)
    degrees = range(0, 13, 2)
    dims = slice_homology(ColumnSlices(col, two_sided=True), degrees)
    for j in degrees:
        for p in range(n):
            got = dims.get((p, j), 0)
            want = graded_piece(n, j, False).dim if p == 0 else 0
            if got != want:
                raise InvariantError(f"resolution fails at n={n}, p={p}, "
                                     f"j={j}: {got} != {want}")
