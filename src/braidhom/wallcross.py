"""Wall-crossing maps and the resolution cube of singular braid words.

A singular (four-valent) crossing stands for the difference between its
positive and negative resolutions.  At the chain level this difference
is realized by a short exact sequence of letter complexes

    0 -> X --iota--> E --pi--> Y[1] -> 0

where X is the positive-crossing complex, Y[1] the negative one shifted
up by one homological step, and E a two-term extension whose terms are
free.  Tensoring the sequence with the complexes of the remaining
letters keeps it termwise exact (all terms are free modules), so after
passing to column homology slice by slice the connecting homomorphism
of each column-level exact sequence is defined: lift a homology class
through the projection, apply the middle column differential, pull the
result back through the inclusion.  That connecting map W is the
wall-crossing map from the homology data of the negative resolution to
the homology data of the positive one.  It commutes with the induced
word-direction differentials; this is checked exactly, and a failure
is treated as a sign or convention bug, never accepted silently.
Rescaling the inclusion by 1/c rescales W by c, so the normalization of
the extension (distinguished generator to distinguished generator with
coefficient one) pins W down.  The extension itself is never rescaled:
each distinct crossing's sequence is built and checked once, unscaled,
and shared by every slot on that crossing, so every edge runs on
integers.  A slot's scale c enters only where a wall-crossing map is
read out (the total complex, wall_crossing_map), as c times the cached
unscaled map; the commutation and face checks and the ranks read the
unscaled maps, whose verdicts a nonzero scalar cannot change.

A word with s singular letters spans a cube with 2^s resolutions.  Each
vertex carries the column-homology towers of its resolved word, with
negative slots realized by the shifted complex Y[1] so all vertices
live in one homological window; each edge flips one slot from negative
to positive and carries the wall-crossing map computed with that slot's
extension in place, every other slot frozen at its vertex resolution.
The two paths around a face apply odd maps to different tensor factors
in opposite orders, so squares of edge maps anticommute (checked).  The
edges therefore carry no sign; the sign (-1)^{#minus-slots} on the
internal differentials alone yields a total differential that squares
to zero.  The homology of the total complex categorifies the
alternating sum over the cube: its graded Euler characteristic equals
sum_eps (-1)^{mu(eps)} P(resolution eps), the finite-difference
derivative of the closure invariant.

Every complex is built once.  The cube tensors each distinct prefix of
letter complexes once and builds its vertex complexes from those
prefixes; an edge tensors its slot's inclusion and projection with the
identities of the later letters, so the two maps land on its two
vertices' own complexes and on one middle complex.

Every term of the tensored sequence is free, so each word degree k
splits as left S-modules.  An edge builds once per k a degree-0 section
s of the projection (s(e_c) is Echelon.solve of the projection in the
degree of generator c) and a retraction r of the inclusion (r(e_a)
solves the inclusion for e_a - s(pi(e_a))), one factorization per map
and degree, and checks r iota = 1, pi s = 1, iota r + s pi = 1 and
pi iota = 0 as polynomial identities; with the generator counts they
make every slice of the term exact.  Extended to the columns, they give
delta_k = r d_E s, a chain map from the source column to the target
column (d_X delta + delta d_Y = 0, checked once per column on the raw
columns).  The connecting map on a slice is the map delta_k, carried
onto the reduced columns, induces from the source slice homology at
sigma to the target slice homology at next(sigma), cut by one slice
block.  It is the snake lift: two lifts of a class differ by iota(x),
so their images differ by the boundary d_X x, and expressing modulo
boundaries forgets it.

Gradings.  Let s0 = (w1 + 1 - n) // 2 where w1 is the writhe counting
singular letters as positive.  A class of the mu-minus-slot resolution
sitting at word degree k, column weight p and internal degree j is
reported at (k - mu + s0, p - mu + s0, j); both parts of the total
differential then have degree (+1, 0, 0).  For finite N the folded
columns are used instead and the table is reported in the collapsed,
weight-blind normalization (k - mu + w1 - n + 1,
q + (N+1)(mu + n - 1 - w1), 0).  The folded extension column exists
only where the potential vanishes on the extension bimodule; elsewhere
folding raises ValueError.

Vertices and edges run on reduced columns.  Each vertex checks its raw
columns and reduces them (homology.reduce_columns: the column
cancellation of ColumnData without the word-pivot one), keeping chain
maps F (raw to reduced) and G (back), F G = 1 and G F homotopic to 1,
which keep every slice; its word maps become F m G.  An edge builds
delta_k on the raw columns, where the splitting lives, checks it there
and keeps F_tgt delta_k G_src.  So at every vertex the slice homology,
the induced word maps and the connecting maps are conjugated by one
isomorphism: tables, ranks and slice dimensions do not change, and
matrices are in the stage-one coordinates of the reduced columns.
Folded F and G may mix weights, so every conjugated map is checked to
lie in the blocks the slicers read (homology.check_blocks).  The raw
columns, F and G are dropped once the edges are built; the middle
complex keeps only its raw columns, whose generators bound the degree
scan.  Unlike the HOMFLY and sl(N) pipelines, which drop each degree's
stages, the cube keeps every stage-one subquotient and induced map,
because its edges and its total complex revisit them after the scan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .bimodule import (Bimodule, GradedFreeBasis, graded_map_entries,
                       mat_add, mat_eq, mat_identity, mat_mul, mat_neg)
from .braid import NEG, POS, SING, Word
from .complexes import (BComplex, ChainMap, crossing_change_ses,
                        letter_complex, tensor, tensor_chain_maps)
from .diffobj import conjugate
from .homology import (ColumnData, DegreeWindow, TriGradedSpace, check_N,
                       check_blocks, check_columns, column_map,
                       grading_shift, induced_matrix, reduce_columns,
                       scan_bounds, scan_degrees, tower_homology,
                       word_columns, word_maps)
from .linalg import (Echelon, InvariantError, mat_mat, matrix_rank,
                     rows_from_entries)
from .poly import Poly, monomial_count
from .rational import exact


# ---------------------------------------------------------------------------
# the crossing-change exact sequence, checked and normalized


class ExtensionRealization:
    """One crossing's checked exact sequence 0 -> X -> E -> Y[1] -> 0,
    with the inclusion normalized to coefficient one."""

    __slots__ = ("n", "i", "X", "E", "Y1", "iota", "pi")

    def __init__(self, n, i, X, E, Y1, iota, pi):
        self.n, self.i = n, i
        self.X, self.E, self.Y1 = X, E, Y1
        self.iota, self.pi = iota, pi


def extension_realization(n: int, i: int) -> ExtensionRealization:
    """Build and verify the crossing-change sequence at strands i, i+1.

    Checks: both structure maps are chain maps; the composite pi . iota
    vanishes; the ranks are termwise exact in every internal degree from
    -4 to 12; the inclusion sends the distinguished generator to the
    distinguished extension generator with coefficient one.  The
    sequence carries no scale: a slot's scale multiplies the connecting
    maps of its cube edges instead (see _Edge.scaled).
    """
    X, E, Y1, iota, pi = crossing_change_ses(n, i)
    iota.check()
    pi.check()
    degrees = sorted(set(X.degrees) | set(E.degrees) | set(Y1.degrees))
    for k in degrees:
        if mat_mul(pi.comp_mat(k), iota.comp_mat(k)):
            raise InvariantError("projection after inclusion is nonzero")
    for k in degrees:
        gens = [C.objs[k].gens if k in C.objs else () for C in (X, Y1, E)]
        for j in range(-4, 13):
            # graded dimension of a free module over n - 1 variables
            dx, dy, de = (sum(monomial_count(n - 1, (j - g) // 2)
                              for g in gs if (j - g) % 2 == 0)
                          for gs in gens)
            if de != dx + dy:
                raise InvariantError(f"extension ranks are not exact at "
                                     f"step {k}, degree {j}")
    top = iota.comp_mat(-1).get((2, 0))
    if (top is None or top.homogeneous_degree() != 0
            or list(top.terms.values()) != [1]):
        raise InvariantError("inclusion does not hit the distinguished "
                             "generator with coefficient 1")
    return ExtensionRealization(n, i, X, E, Y1, iota, pi)


# ---------------------------------------------------------------------------
# column data of one resolved word


class _CubeColumns(ColumnData):
    """Reduced columns of one word-level complex that keep every stage:
    the edges and the assembly revisit the stage-one subquotients and the
    induced maps of every slice after the scan.  The raw columns are
    checked and reduced without the word-pivot cancellation, whose
    reduction the edges could not map through; raw, F and G are kept
    until the edges are built."""

    __slots__ = ("raw", "F", "G", "_stage", "_ikm")

    def __init__(self, C: BComplex, N):
        raw = word_columns(C, N)
        check_columns(raw, N)
        cols, kmaps, self.F, self.G = reduce_columns(dict(raw),
                                                     word_maps(C, raw))
        check_columns(cols, N)
        self._slice(C, N, cols, kmaps)
        for k, parts in self.kmaps.items():
            check_blocks(parts, (0,), f"conjugated word map {k}")
        self.raw = raw
        self._stage = {}
        self._ikm = {}

    def stage(self, k, sigma):
        key = (k, sigma)
        if key not in self._stage:
            self._stage[key] = super().stage(k, sigma)
        return self._stage[key]

    def stage_dim(self, k, sigma) -> int:
        sq = self.stage(k, sigma)
        return sq.dim if sq is not None else 0

    def induced(self, k, sigma, sq_src, sq_tgt) -> dict:
        key = (k, sigma)
        if key not in self._ikm:
            self._ikm[key] = super().induced(k, sigma, sq_src, sq_tgt)
        return self._ikm[key]

    def induced_kmap(self, k, sigma) -> dict:
        """Matrix induced on slice homology by the word differential."""
        sq = self.stage(k, sigma)
        if sq is None or sq.dim == 0 or k not in self.kmaps:
            return {}
        return self.induced(k, sigma, sq, self.stage(k + 1, sigma))

    def populated(self) -> list:
        """Sorted (k, sigma) of the slices computed so far that carry
        slice homology."""
        return sorted(key for key, sq in self._stage.items()
                      if sq is not None and sq.dim)


# ---------------------------------------------------------------------------
# one cube edge: a crossing-change sequence tensored into a word


class _Edge:
    """Wall-crossing data for flipping one singular slot at one vertex:
    the middle columns (the degree scan reads their generators), the
    connecting chain maps delta_k of the unscaled sequence from the
    reduced source column k to the reduced target column k (split by
    their source slicers), the slot's scale, and the cached unscaled
    connecting maps per slice, in reduced stage-one coordinates."""

    __slots__ = ("tgt_key", "src", "tgt", "mid", "delta", "scale", "_w")

    def __init__(self, tgt_key, src, tgt, mid, delta, scale):
        self.tgt_key = tgt_key
        self.src, self.tgt, self.mid = src, tgt, mid
        self.delta, self.scale = delta, scale
        self._w = {}

    def w(self, k, sigma) -> dict:
        """Unscaled connecting map on one slice (cached)."""
        key = (k, sigma)
        if key not in self._w:
            self._w[key] = self._snake(k, sigma)
        return self._w[key]

    def scaled(self, k, sigma) -> dict:
        """Wall-crossing map on one slice: the slot scale times the
        unscaled map, which is what dividing the inclusion by the scale
        would give (the splitting and express are linear)."""
        c = self.scale
        return {key: exact(c * v) for key, v in self.w(k, sigma).items()}

    def maps(self) -> dict:
        """Unscaled connecting maps on every populated source slice,
        checked to commute with the induced word-direction differentials
        (both sides of the square would carry the same scale)."""
        src = self.src
        out = {key: self.w(*key) for key in src.populated()}
        for (k, sigma), wm in out.items():
            lhs = mat_mat(self.w(k + 1, sigma), src.induced_kmap(k, sigma))
            rhs = mat_mat(self.tgt.induced_kmap(k, src.next(sigma)), wm)
            if lhs != rhs:
                raise InvariantError(
                    "wall-crossing map does not commute with the induced "
                    f"differentials at step {k}, slice {sigma}")
        return out

    def rank(self) -> int:
        """Total rank of the connecting maps computed so far (the scale
        is nonzero, so the unscaled maps have the same rank)."""
        return sum(matrix_rank(wm, self.tgt.stage_dim(k, self.src.next(sigma)),
                               self.src.stage_dim(k, sigma))
                   for (k, sigma), wm in self._w.items() if wm)

    def _snake(self, k, sigma) -> dict:
        """Connecting homomorphism on one slice: the map delta_k induces
        from the source slice homology at sigma to the target slice
        homology at next(sigma)."""
        sq_y = self.src.stage(k, sigma)
        if sq_y is None or sq_y.dim == 0:
            return {}
        sigma2 = self.src.next(sigma)
        sq_x = self.tgt.stage(k, sigma2)
        if sq_x is None:
            return {}
        block = self.src.slicers[k].step(self.delta[k], self.tgt.slicers[k],
                                         sigma)
        return induced_matrix(block, self.tgt.dim(k, sigma2), sq_y, sq_x)


def _solve_columns(n: int, mat: dict, src_gens, tgt_gens, rhs: dict,
                   rhs_gens, what: str) -> dict:
    """A degree-0 map g of free left S-modules with mat . g = rhs.

    mat maps the module on src_gens to the one on tgt_gens, rhs the
    module on rhs_gens to the one on tgt_gens.  Column c of g is the
    solution Echelon.solve gives in the degree of generator c, read back
    as polynomials; each degree is factored once.  InvariantError (what)
    when some column has no solution."""
    by_deg: dict = {}
    for c, g in enumerate(rhs_gens):
        by_deg.setdefault(g, []).append(c)
    out: dict = {}
    for d, cs in sorted(by_deg.items()):
        src = GradedFreeBasis(n, src_gens, d)
        tgt = GradedFreeBasis(n, tgt_gens, d)
        ech = Echelon(rows_from_entries(graded_map_entries(mat, src, tgt),
                                        tgt.dim), src.dim)
        unit = GradedFreeBasis(n, rhs_gens, d)
        # generator c sits at coordinate unit.offsets[c], the one monomial
        # of its degree-0 piece
        vecs = {unit.offsets[c]: [0] * tgt.dim for c in cs}
        picked = {key: p for key, p in rhs.items() if key[1] in cs}
        for (r, col), v in graded_map_entries(picked, unit, tgt).items():
            vecs[col][r] = v
        for c in cs:
            x = ech.solve(vecs[unit.offsets[c]])
            if x is None:
                raise InvariantError(f"{what} in degree {d}")
            for a, (piece, off) in enumerate(zip(src.pieces, src.offsets)):
                terms = {m: x[off + i] for i, m in enumerate(piece.basis)
                         if x[off + i]}
                if terms:
                    out[(a, c)] = Poly(n, terms)
    return out


def _splitting(iota: dict, pi: dict, X: Bimodule, E: Bimodule,
               Y: Bimodule):
    """(r, s): a retraction r of the inclusion iota: X -> E and a section
    s of the projection pi: E -> Y of one term of the tensored sequence,
    as degree-0 maps of free left S-modules (poly matrices).

    s(e_c) solves pi for e_c, and r(e_a) solves iota for e_a - s(pi(e_a)),
    which pi sends to zero.  Checked, with InvariantError also under
    python -O: the generator counts, r iota = 1, pi s = 1,
    iota r + s pi = 1 and pi iota = 0.  Together they make the term
    split exact as left modules, so every slice of it is exact."""
    n = E.n
    if E.rank != X.rank + Y.rank:
        raise InvariantError("extension ranks are not exact")
    s = _solve_columns(n, pi, E.gens, Y.gens, mat_identity(Y.rank, n),
                       Y.gens, "projection is not onto")
    rest = mat_add(mat_identity(E.rank, n), mat_neg(mat_mul(s, pi)))
    r = _solve_columns(n, iota, X.gens, E.gens, rest, E.gens,
                       "inclusion misses the kernel of the projection")
    for failed, what in (
            (mat_mul(pi, iota), "projection after inclusion is nonzero"),
            (not mat_eq(mat_mul(r, iota), mat_identity(X.rank, n)),
             "retraction after inclusion is not the identity"),
            (not mat_eq(mat_mul(pi, s), mat_identity(Y.rank, n)),
             "projection after section is not the identity"),
            (not mat_eq(mat_add(mat_mul(iota, r), mat_mul(s, pi)),
                        mat_identity(E.rank, n)),
             "inclusion and section do not split the extension")):
        if failed:
            raise InvariantError(what)
    return r, s


# ---------------------------------------------------------------------------
# the cube


class _Cube:
    """Vertices and edges of one resolution cube, and the tensor
    products of letter-complex prefixes they are built from."""

    __slots__ = ("word", "N", "window", "slots", "scales", "realizations",
                 "letters", "vertices", "edges", "resolutions", "stabilized",
                 "scan_lo", "scan_hi", "st2", "warnings", "_products")

    def __init__(self, word: Word):
        self.word = word
        self.warnings = []
        self._products = {(): BComplex.identity(word.n)}

    def product(self, factors: tuple) -> BComplex:
        """Tensor product of a tuple of letter complexes; each distinct
        prefix is tensored once."""
        C = self._products.get(factors)
        if C is None:
            C = tensor(self.product(factors[:-1]), factors[-1])
            self._products[factors] = C
        return C

    def vertex_letters(self, eps) -> tuple:
        """Letter complexes of one resolution: singular slot t is
        realized by X when eps[t] is positive and by Y[1] when it is
        negative."""
        out = list(self.letters)
        for t, m in enumerate(self.slots):
            r = self.realizations[t]
            out[m] = r.X if eps[t] == POS else r.Y1
        return tuple(out)


def _middle_columns(E: BComplex, N) -> dict:
    """Columns of an extension complex; ValueError where the folded ones
    do not exist."""
    try:
        return word_columns(E, N)
    except ValueError as e:
        raise ValueError(
            "the folded wall-crossing columns do not exist here "
            "(the potential must vanish on the extension bimodule): "
            + str(e)) from e


def _make_edge(cube: _Cube, eps, t: int, N) -> _Edge:
    """Flip slot t at vertex eps: tensor the slot's inclusion and
    projection with the identities of the later letters, onto the two
    vertices' own complexes and one middle complex.  Each delta_k is
    checked as a chain map on the raw columns and kept as F_tgt[k]
    delta_k G_src[k], in the blocks the reduced slicers' step reads."""
    r, m = cube.realizations[t], cube.slots[t]
    tgt_key = eps[:t] + (POS,) + eps[t + 1:]
    src, tgt = cube.vertices[eps], cube.vertices[tgt_key]
    letters = cube.vertex_letters(eps)
    iota = pi = ChainMap.identity(cube.product(letters[:m]))
    for j in range(m, len(letters)):
        step_io = r.iota if j == m else ChainMap.identity(letters[j])
        step_pi = r.pi if j == m else step_io
        x, e, y = (cube.product(letters[:m] + (Z,) + letters[m + 1:j + 1])
                   for Z in (r.X, r.E, r.Y1))
        iota = tensor_chain_maps(iota, step_io, x, e)
        pi = tensor_chain_maps(pi, step_pi, e, y)
    iota.check()
    pi.check()
    X, E, Y = iota.src, iota.tgt, pi.tgt
    mid = _middle_columns(E, N)
    check_columns(mid, N)
    delta = {}
    for k in E.degrees:
        r_k, s_k = _splitting(iota.comp_mat(k), pi.comp_mat(k), X.objs[k],
                              E.objs[k], Y.objs[k])
        col_x, col_e, col_y = tgt.raw[k], mid[k], src.raw[k]
        d = mat_mul(column_map(r_k, col_e, col_x),
                    mat_mul(col_e.diff, column_map(s_k, col_y, col_e)))
        if mat_add(mat_mul(col_x.diff, d), mat_mul(d, col_y.diff)):
            raise InvariantError(f"connecting map at step {k} is not a "
                                 "chain map")
        sl = src.slicers[k]
        delta[k] = sl.split(conjugate(tgt.F[k], d, src.G[k]), tgt.slicers[k])
        check_blocks(delta[k], sl.STEP, f"connecting map at step {k}")
    return _Edge(tgt_key, src, tgt, list(mid.values()), delta,
                 cube.scales[t])


def _build_cube(word: Word, N, window: DegreeWindow, scales=None) -> _Cube:
    """Vertices, edges and the stabilized internal-degree scan of the
    resolution cube of one singular word."""
    cube = _Cube(word)
    cube.N, cube.window = N, window
    slots = word.singular_positions
    if not slots:
        raise ValueError("the word has no singular letters")
    cube.slots = slots
    scales = dict(scales or {})
    for t in scales:
        if not 0 <= t < len(slots):
            raise ValueError(f"scale given for unknown singular slot {t}")
    # TypeError on a float: it would enter as a binary fraction
    cube.scales = {t: exact(scales.get(t, 1)) for t in range(len(slots))}
    if not all(cube.scales.values()):
        raise ValueError("extension scale must be nonzero")
    # one checked extension per distinct crossing, shared by its slots
    crossings = [word.entries[m][0] for m in slots]
    ext = {i: extension_realization(word.n, i)
           for i in dict.fromkeys(crossings)}
    cube.realizations = {t: ext[i] for t, i in enumerate(crossings)}
    if N is not None:
        # the potential acts on each edge's middle complex through its
        # extension letter alone (every other letter is free on both
        # sides and the potential vanishes on it), so an input outside
        # the folded domain is refused before any vertex is built (on
        # three strands the vertices' conjugated word maps would fail
        # the weight-block check first)
        for r in ext.values():
            _middle_columns(r.E, N)
    cube.letters = [None if kind == SING else letter_complex(word.n, i, kind)
                    for i, kind in word.entries]
    cube.vertices = {}
    cube.resolutions = {}
    for eps in itertools.product((POS, NEG), repeat=len(slots)):
        cube.vertices[eps] = _CubeColumns(
            cube.product(cube.vertex_letters(eps)), N)
        res = word.resolve(eps)
        cube.resolutions[eps] = res
        if not res.is_knot_closure:
            cube.warnings.append(
                f"resolution {res} closes to a link, not a knot")
    cube.edges = {}
    for eps in cube.vertices:
        for t, e in enumerate(eps):
            if e == NEG:
                cube.edges[(eps, t)] = _make_edge(cube, eps, t, N)
    cube._products = None  # vertices and edges keep the complexes they use
    for data in cube.vertices.values():
        data.raw = data.F = data.G = None  # only the edges read them
    all_cols = [*(col for data in cube.vertices.values()
                  for col in data.cols.values()),
                *(col for e in cube.edges.values() for col in e.mid)]
    lo, hi, q_top = scan_bounds(all_cols, window)
    step = 1 if N is None else N + 1
    needed = (window.margin + len(slots)) * step
    cube.st2 = {}

    def visit(deg):
        total = 0
        for vkey, data in cube.vertices.items():
            for sigma in data.sigmas(deg):
                st2 = data.tower(sigma)[2]
                cube.st2[(vkey, sigma)] = st2
                total += sum(st2.values())
        return total

    cube.scan_lo = lo
    cube.stabilized, cube.scan_hi = scan_degrees(
        lo, max(hi, q_top + needed), q_top, needed, visit)
    if not cube.stabilized:
        cube.warnings.append(
            "degree window exhausted before the support stabilized")
    return cube


def _mu(eps) -> int:
    return sum(1 for e in eps if e == NEG)


def _report_grading(word: Word, N, s0: int, eps, k, sigma):
    """(reported word degree, bucket key) of one cube position."""
    mu = _mu(eps)
    if N is None:
        p, j = sigma
        return k - mu + s0, (p - mu + s0, j)
    q, _parity = sigma
    khat = k - mu + (word.writhe_top - word.n + 1)
    qhat = q + (N + 1) * (mu + word.n - 1 - word.writhe_top)
    return khat, (qhat,)


def _check_faces(cube: _Cube):
    """Check every square of wall-crossing maps anticommutes: the two
    paths around a face flip odd maps on different tensor factors in
    opposite orders.  Reads the unscaled maps: both paths of the face of
    slots t and u would carry the same product of their scales."""
    s = len(cube.slots)
    for eps in cube.vertices:
        minus = [t for t in range(s) if eps[t] == NEG]
        for t, u in itertools.combinations(minus, 2):
            e_t = cube.edges[(eps, t)]
            e_u = cube.edges[(eps, u)]
            e_tu = cube.edges[(e_t.tgt_key, u)]
            e_ut = cube.edges[(e_u.tgt_key, t)]
            data = cube.vertices[eps]
            for k, sigma in data.populated():
                sigma2 = data.next(sigma)
                path_t = mat_mat(e_tu.w(k, sigma2), e_t.w(k, sigma))
                path_u = mat_mat(e_ut.w(k, sigma2), e_u.w(k, sigma))
                if path_t != {key: -v for key, v in path_u.items()}:
                    raise InvariantError(
                        f"cube face ({t},{u}) fails to anticommute at step "
                        f"{k}, slice {sigma}")


def _assemble(cube: _Cube) -> TriGradedSpace:
    """Total complex of the cube: stage-one classes of all vertices,
    differential = induced word maps signed (-1)^{#minus-slots} plus the
    unsigned wall-crossing maps, homology bucket by bucket."""
    word, N = cube.word, cube.N
    s0, lost = grading_shift(word.writhe_top, word.n)
    if lost:
        cube.warnings.append(
            "odd writhe-plus-one parity: the half-step normalization "
            "was rounded down")

    buckets: dict = {}
    for vkey, data in cube.vertices.items():
        for k, sigma in data.populated():
            khat, bucket = _report_grading(word, N, s0, vkey, k, sigma)
            levels = buckets.setdefault(bucket, {})
            levels.setdefault(khat, []).append((vkey, k, sigma,
                                                data.stage_dim(k, sigma)))

    space = TriGradedSpace()
    for bucket in sorted(buckets):
        levels = buckets[bucket]
        active = False
        for plist in levels.values():
            for vkey, k, sigma, _d in plist:
                st2 = cube.st2.get((vkey, sigma))
                if st2 is None or st2.get(k, 0):
                    active = True
                    break
            if active:
                break
        if not active:
            continue
        dims, index = {}, {}
        for khat, plist in levels.items():
            plist.sort(key=lambda it: (_mu(it[0]), it[0], it[1], it[2]))
            off = 0
            index[khat] = {}
            for vkey, k, sigma, d in plist:
                index[khat][(vkey, k, sigma)] = off
                off += d
            dims[khat] = off
        mats: dict = {}
        for khat, plist in levels.items():
            tgt_index = index.get(khat + 1, {})
            ent = mats.setdefault(khat, {})
            for vkey, k, sigma, _d in plist:
                c0 = index[khat][(vkey, k, sigma)]
                mu = _mu(vkey)
                km = cube.vertices[vkey].induced_kmap(k, sigma)
                if km and (vkey, k + 1, sigma) in tgt_index:
                    r0 = tgt_index[(vkey, k + 1, sigma)]
                    sgn = -1 if mu % 2 else 1
                    for (r, c), v in km.items():
                        ent[(r0 + r, c0 + c)] = sgn * v
                for t in range(len(cube.slots)):
                    if vkey[t] != NEG:
                        continue
                    edge = cube.edges[(vkey, t)]
                    wm = edge.scaled(k, sigma)
                    tkey = (edge.tgt_key, k, edge.src.next(sigma))
                    if wm and tkey in tgt_index:
                        r0 = tgt_index[tkey]
                        for (r, c), v in wm.items():
                            ent[(r0 + r, c0 + c)] = v
            if not ent:
                del mats[khat]
        hom = tower_homology(dims, mats)
        for khat, h in hom.items():
            if N is None:
                i_hat, j_hat = bucket
                space.add(khat, i_hat, j_hat, h)
            else:
                space.add(khat, bucket[0], 0, h)
    return space


# ---------------------------------------------------------------------------
# public entry points


def wall_crossing_map(word: Word, N=None, window: DegreeWindow = None,
                      scale=1):
    """Connecting map of one crossing change, slice by slice.

    The word must contain exactly one singular letter; that letter marks
    the crossing being changed.  Returns (wmap, report) where wmap holds
    the matrices of W per (word degree, slice) from the homology data of
    the negative resolution to that of the positive one, in the
    stage-one coordinates of the reduced columns (each column with its
    constant pivots cancelled; see the module docstring).  The chain-map
    property and the termwise exactness of the tensored sequence are
    checked along the way, on the raw columns of the unscaled
    sequence.  scale (an int or a Fraction, nonzero; TypeError on a
    float, ValueError on zero) is the map that dividing the inclusion by
    scale gives: the matrices are scale times the unscaled ones, and the
    rank does not change.
    """
    N = None if N is None else check_N(N)
    window = window or DegreeWindow()
    if len(word.singular_positions) != 1:
        raise ValueError("wall_crossing_map wants exactly one singular "
                         "letter")
    cube = _build_cube(word, N, window, scales={0: scale})
    (edge,) = cube.edges.values()
    slices: dict = {}
    src_dims: dict = {}
    tgt_dims: dict = {}
    for (k, sigma), wm in edge.maps().items():
        src_dims[(k, sigma)] = edge.src.stage_dim(k, sigma)
        sigma2 = edge.src.next(sigma)
        tdim = edge.tgt.stage_dim(k, sigma2)
        if tdim:
            tgt_dims[(k, sigma2)] = tdim
        if wm:
            slices[(k, sigma)] = edge.scaled(k, sigma)
    wmap = {
        "slices": slices,
        "rank": edge.rank(),
        "scale": Fraction(scale),
        "source_dims": src_dims,
        "target_dims": tgt_dims,
        "source": str(cube.resolutions[(NEG,)]),
        "target": str(cube.resolutions[(POS,)]),
    }
    report = {
        "N": N,
        "stabilized": cube.stabilized,
        "scan_range": (cube.scan_lo, cube.scan_hi),
        "warnings": list(cube.warnings),
    }
    return wmap, report


def vassiliev_complex(word: Word, N=None, window: DegreeWindow = None,
                      scales=None, order=None):
    """Homology of the signed total complex over the resolution cube.

    scales optionally rescales the extension of singular slot t by
    scales[t] (an int or a Fraction, nonzero; TypeError on a float,
    ValueError on zero): the edges of slot t enter the total complex as
    scales[t] times their unscaled connecting maps, which does not
    change the homology (asserted by the test suite).  order, a
    permutation of the singular slots, is validated and echoed in the
    report but no longer enters the differential: the faces
    anticommute, so the edges carry no sign.  Returns
    (TriGradedSpace, report).
    """
    N = None if N is None else check_N(N)
    window = window or DegreeWindow()
    s = len(word.singular_positions)
    order = list(range(s)) if order is None else [int(t) for t in order]
    if sorted(order) != list(range(s)):
        raise ValueError("order must be a permutation of the singular "
                         "slots")
    cube = _build_cube(word, N, window, scales=scales)
    for edge in cube.edges.values():
        edge.maps()
    _check_faces(cube)
    space = _assemble(cube)
    edge_ranks = {}
    for (eps, t), edge in sorted(cube.edges.items()):
        label = "".join("+" if e == POS else "-" for e in eps)
        edge_ranks[(label, t)] = edge.rank()
    report = {
        "N": N,
        "order": order,
        "scales": {t: str(c) for t, c in cube.scales.items()},
        "stabilized": cube.stabilized,
        "scan_range": (cube.scan_lo, cube.scan_hi),
        "resolutions": {
            "".join("+" if e == POS else "-" for e in eps): str(res)
            for eps, res in sorted(cube.resolutions.items())},
        "edge_ranks": edge_ranks,
        "warnings": list(cube.warnings),
    }
    return space, report


def finite_dimensionality_check(word: Word, N=None,
                                window: DegreeWindow = None) -> dict:
    """Scan the cube homology of a singular word for a finite table.

    Reports whether the support stabilized inside the degree window and
    the total dimension found.  When some resolution closes to a link
    the finiteness statement does not apply, so an unstabilized scan is
    reported as inconclusive rather than as a failure.
    """
    window = window or DegreeWindow()
    knots = all(res.is_knot_closure for _c, res, _m in word.resolutions())
    space, report = vassiliev_complex(word, N=N, window=window)
    out = {
        "word": str(word),
        "N": "inf" if N is None else int(N),
        "all_resolutions_knots": knots,
        "stabilized": report["stabilized"],
        "finite": bool(report["stabilized"]),
        "inconclusive": not report["stabilized"],
        "total_dimension": space.total_dim,
        "table": space.table(),
    }
    if not knots and not report["stabilized"]:
        out["note"] = ("a resolution closes to a link; an inconclusive "
                       "scan is expected there")
    return out
