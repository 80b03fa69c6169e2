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
coefficient one) pins W down.

A word with s singular letters spans a cube with 2^s resolutions.  Each
vertex carries the column-homology towers of its resolved word, with
negative slots realized by the shifted complex Y[1] so all vertices
live in one homological window; each edge flips one slot from negative
to positive and carries the wall-crossing map computed with that slot's
extension in place, every other slot frozen at its vertex resolution.
Squares of edge maps commute on the nose (checked), so sprinkling the
sign (-1)^{#earlier plus-slots} on the edges and (-1)^{#minus-slots} on
the internal differentials yields a total differential that squares to
zero.  The homology of the total complex categorifies the alternating
sum over the cube: its graded Euler characteristic equals
sum_eps (-1)^{mu(eps)} P(resolution eps), the finite-difference
derivative of the closure invariant.

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

Raw (unsimplified) columns are mandatory throughout: the snake lifts
need termwise exactness of the literal sequence, which elimination
would destroy.  Vertices and edges use the slice engine of homology
(ColumnData); unlike the HOMFLY and sl(N) pipelines, which drop each
degree's stages, the cube keeps every stage-one subquotient and
induced map, because its edges and its total complex revisit them
after the scan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .bimodule import mat_mul
from .braid import NEG, POS, SING, Word
from .complexes import (BComplex, ChainMap, crossing_change_ses,
                        letter_complex, tensor, tensor_chain_maps)
from .homology import (ColumnData, DegreeWindow, TriGradedSpace, check_N,
                       column_map, grading_shift, scan_bounds, scan_degrees,
                       tower_homology)
from .linalg import (Echelon, InvariantError, mat_vec, matrix_rank,
                     rows_from_entries)
from .poly import monomial_count
from .rational import exact, quotient


# ---------------------------------------------------------------------------
# the crossing-change exact sequence, checked and normalized


class ExtensionRealization:
    """One crossing's exact sequence 0 -> X -> E -> Y[1] -> 0 with a
    chosen nonzero scalar on the inclusion.

    The scalar multiplies the downstream connecting map: iota is divided
    by scale, so the snake lift through iota picks up the factor scale.
    """

    __slots__ = ("n", "i", "scale", "X", "E", "Y1", "iota", "pi")

    def __init__(self, n, i, scale, X, E, Y1, iota, pi):
        self.n, self.i, self.scale = n, i, scale
        self.X, self.E, self.Y1 = X, E, Y1
        self.iota, self.pi = iota, pi


def extension_realization(n: int, i: int, scale=1,
                          j_max: int = 12) -> ExtensionRealization:
    """Build and verify the crossing-change sequence at strands i, i+1.

    Checks: both structure maps are chain maps; the composite pi . iota
    vanishes; the ranks are termwise exact in every internal degree up
    to j_max; the inclusion sends the distinguished generator to the
    distinguished extension generator with coefficient one.  Only after
    these checks is the scalar applied.  The scale must be an int or a
    Fraction (TypeError otherwise: a float would enter as a binary
    fraction).
    """
    scale = exact(scale)
    if not scale:
        raise ValueError("extension scale must be nonzero")
    X, E, Y1, iota, pi = crossing_change_ses(n, i)
    iota.check()
    pi.check()
    degrees = sorted(set(X.degrees) | set(E.degrees) | set(Y1.degrees))
    for k in degrees:
        if any(mat_mul(pi.comp_mat(k), iota.comp_mat(k)).values()):
            raise InvariantError("projection after inclusion is nonzero")
    for k in degrees:
        gens = [C.objs[k].gens if k in C.objs else () for C in (X, Y1, E)]
        for j in range(-4, j_max + 1):
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
    if scale != 1:
        inv = quotient(1, scale)
        iota = ChainMap(X, E, {k: f.scale(inv)
                               for k, f in iota.comps.items()})
        iota.check()
    return ExtensionRealization(n, i, scale, X, E, Y1, iota, pi)


# ---------------------------------------------------------------------------
# column data of one resolved word


class _CubeColumns(ColumnData):
    """Raw columns of one word-level complex that keep every stage: the
    edges and the assembly revisit the stage-one subquotients and the
    induced maps of every slice after the scan."""

    __slots__ = ("_stage", "_ikm")

    def __init__(self, C: BComplex, N):
        super().__init__(C, N, simplify=False)
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


def _fold_chain_maps(n: int, factors) -> ChainMap:
    out = ChainMap.identity(BComplex.identity(n))
    for f in factors:
        out = tensor_chain_maps(out, f)
    return out


class _Edge:
    """Wall-crossing data for flipping one singular slot at one vertex:
    the middle word complex, the column-level structure maps, and the
    cached connecting maps per slice."""

    __slots__ = ("slot", "src_key", "tgt_key", "src", "tgt", "mid",
                 "iota_cols", "pi_cols", "_w", "_exact_ok")

    def __init__(self, slot, src_key, tgt_key, src, tgt, mid,
                 iota_cols, pi_cols):
        self.slot, self.src_key, self.tgt_key = slot, src_key, tgt_key
        self.src, self.tgt, self.mid = src, tgt, mid
        self.iota_cols, self.pi_cols = iota_cols, pi_cols
        self._w = {}
        self._exact_ok = set()

    def w(self, k, sigma) -> dict:
        key = (k, sigma)
        if key not in self._w:
            self._w[key] = _edge_snake(self, k, sigma)
        return self._w[key]

    def rank(self) -> int:
        """Total rank of the connecting maps computed so far."""
        return sum(matrix_rank(wm, self.tgt.stage_dim(k, self.src.next(sigma)),
                               self.src.stage_dim(k, sigma))
                   for (k, sigma), wm in self._w.items() if wm)

    def pi_slice(self, k, sigma) -> dict:
        """Slice block of the projection, middle column to source."""
        return self.mid.slicers[k].cross(self.pi_cols.get(k, {}),
                                         self.src.slicers[k], sigma)

    def iota_slice(self, k, sigma) -> dict:
        """Slice block of the inclusion, target column to middle."""
        return self.tgt.slicers[k].cross(self.iota_cols.get(k, {}),
                                         self.mid.slicers[k], sigma)


def _slice_exactness(edge: _Edge, k, sigma):
    """Check the tensored sequence stays exact on one column slice;
    InvariantError if not."""
    key = (k, sigma)
    if key in edge._exact_ok:
        return
    dx = edge.tgt.dim(k, sigma)
    dy = edge.src.dim(k, sigma)
    de = edge.mid.dim(k, sigma)
    pi_m = edge.pi_slice(k, sigma)
    io_m = edge.iota_slice(k, sigma)
    for failed, what in (
            (de != dx + dy, "slice ranks are not exact"),
            (matrix_rank(pi_m, dy, de) != dy, "projection is not onto"),
            (matrix_rank(io_m, de, dx) != dx, "inclusion is not injective"),
            (mat_mul(pi_m, io_m), "projection after inclusion is nonzero")):
        if failed:
            raise InvariantError(f"{what} at step {k}, slice {sigma}")
    edge._exact_ok.add(key)


def _edge_snake(edge: _Edge, k, sigma) -> dict:
    """Connecting homomorphism on one slice: lift a class through the
    projection, apply the middle column differential, pull back through
    the inclusion, express in the target slice homology."""
    src, mid, tgt = edge.src, edge.mid, edge.tgt
    sq_y = src.stage(k, sigma)
    if sq_y is None or sq_y.dim == 0:
        return {}
    sigma2 = src.next(sigma)
    _slice_exactness(edge, k, sigma)
    _slice_exactness(edge, k, sigma2)
    solver_pi = Echelon(rows_from_entries(edge.pi_slice(k, sigma),
                                          src.dim(k, sigma)),
                        mid.dim(k, sigma))
    dcol = mid.slicers[k].diff(sigma)
    de2 = mid.dim(k, sigma2)
    solver_io = Echelon(rows_from_entries(edge.iota_slice(k, sigma2), de2),
                        tgt.dim(k, sigma2))
    sq_x = tgt.stage(k, sigma2)
    out: dict = {}
    for c, rep in enumerate(sq_y.reps):
        b = solver_pi.solve(list(rep))
        if b is None:
            raise InvariantError("projection failed to lift a cycle")
        a = solver_io.solve(mat_vec(dcol, b, de2))
        if a is None:
            raise InvariantError("connecting image escapes the inclusion")
        if sq_x is None:
            if any(a):
                raise InvariantError(
                    "connecting image missed the empty slice")
            continue
        try:
            coords = sq_x.express(a)
        except ValueError as e:
            raise InvariantError(
                "connecting image is not a cycle of the target slice") from e
        for r, val in enumerate(coords):
            if val:
                out[(r, c)] = val
    return out


def _edge_chain_check(edge: _Edge):
    """Check W commutes with the induced word-direction differentials
    on every populated slice.  A failure here is a sign or convention
    inconsistency and is never accepted."""
    for k, sigma in edge.src.populated():
        sigma2 = edge.src.next(sigma)
        lhs = mat_mul(edge.w(k + 1, sigma), edge.src.induced_kmap(k, sigma))
        rhs = mat_mul(edge.tgt.induced_kmap(k, sigma2), edge.w(k, sigma))
        if lhs != rhs:
            raise InvariantError(
                "wall-crossing map does not commute with the induced "
                f"differentials at step {k}, slice {sigma}")


# ---------------------------------------------------------------------------
# the cube


class _Cube:
    __slots__ = ("word", "N", "window", "slots", "slot_of", "realizations",
                 "vertices", "edges", "resolutions", "stabilized",
                 "scan_lo", "scan_hi", "st2", "warnings")

    def __init__(self):
        self.warnings = []


def _vertex_letters(word: Word, letters: dict, realizations: dict,
                    slot_of: dict, eps) -> list:
    """Letter complexes of one resolution: singular slot t is realized
    by X when eps[t] is positive and by Y[1] when it is negative."""
    out = []
    for m, (_i, kind) in enumerate(word.entries):
        if kind == SING:
            r = realizations[slot_of[m]]
            out.append(r.X if eps[slot_of[m]] == POS else r.Y1)
        else:
            out.append(letters[m])
    return out


def _make_edge(word: Word, letters: dict, realizations: dict, slot_of: dict,
               eps, t: int, vertices: dict, N) -> _Edge:
    io_f, pi_f = [], []
    for m, C in enumerate(_vertex_letters(word, letters, realizations,
                                          slot_of, eps)):
        if slot_of.get(m) == t:
            io_f.append(realizations[t].iota)
            pi_f.append(realizations[t].pi)
        else:
            io_f.append(ChainMap.identity(C))
            pi_f.append(io_f[-1])
    iota_w = _fold_chain_maps(word.n, io_f)
    pi_w = _fold_chain_maps(word.n, pi_f)
    tgt_key = eps[:t] + (POS,) + eps[t + 1:]
    src, tgt = vertices[eps], vertices[tgt_key]
    for k in iota_w.src.degrees:
        if (iota_w.src.objs[k].gens != tgt.C.objs[k].gens
                or pi_w.tgt.objs[k].gens != src.C.objs[k].gens
                or iota_w.tgt.objs[k].gens != pi_w.src.objs[k].gens):
            raise InvariantError(f"edge {t} terms do not match its "
                                 f"vertices at step {k}")
    iota_w.check()
    pi_w.check()
    try:
        mid = _CubeColumns(iota_w.tgt, N)
    except ValueError as e:
        raise ValueError(
            "the folded wall-crossing columns do not exist here "
            "(the potential must vanish on the extension bimodule): "
            + str(e)) from e
    iota_cols = {k: column_map(iota_w.comp_mat(k), tgt.cols[k], mid.cols[k])
                 for k in mid.degrees if iota_w.comp_mat(k)}
    pi_cols = {k: column_map(pi_w.comp_mat(k), mid.cols[k], src.cols[k])
               for k in mid.degrees if pi_w.comp_mat(k)}
    return _Edge(t, eps, tgt_key, src, tgt, mid, iota_cols, pi_cols)


def _build_cube(word: Word, N, window: DegreeWindow, scales=None) -> _Cube:
    """Vertices, edges and the stabilized internal-degree scan of the
    resolution cube of one singular word."""
    cube = _Cube()
    cube.word, cube.N, cube.window = word, N, window
    slots = word.singular_positions
    if not slots:
        raise ValueError("the word has no singular letters")
    cube.slots = slots
    cube.slot_of = {m: t for t, m in enumerate(slots)}
    scales = dict(scales or {})
    for t in scales:
        if not 0 <= t < len(slots):
            raise ValueError(f"scale given for unknown singular slot {t}")
    cube.realizations = {
        t: extension_realization(word.n, word.entries[m][0],
                                 scale=scales.get(t, 1))
        for t, m in enumerate(slots)}
    letters = {m: letter_complex(word.n, i, kind)
               for m, (i, kind) in enumerate(word.entries) if kind != SING}
    cube.vertices = {}
    cube.resolutions = {}
    for eps in itertools.product((POS, NEG), repeat=len(slots)):
        C = BComplex.identity(word.n)
        for L in _vertex_letters(word, letters, cube.realizations,
                                 cube.slot_of, eps):
            C = tensor(C, L)
        cube.vertices[eps] = _CubeColumns(C, N)
        res = word.resolve(eps)
        cube.resolutions[eps] = res
        if not res.is_knot_closure:
            cube.warnings.append(
                f"resolution {res} closes to a link, not a knot")
    cube.edges = {}
    for eps in cube.vertices:
        for t, e in enumerate(eps):
            if e == NEG:
                cube.edges[(eps, t)] = _make_edge(
                    word, letters, cube.realizations, cube.slot_of,
                    eps, t, cube.vertices, N)

    all_cols = [col for data in [*cube.vertices.values(),
                                 *(e.mid for e in cube.edges.values())]
                for col in data.cols.values()]
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
    """Check every square of wall-crossing maps commutes before any
    signs are sprinkled on."""
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
                lhs = mat_mul(e_tu.w(k, sigma2), e_t.w(k, sigma))
                rhs = mat_mul(e_ut.w(k, sigma2), e_u.w(k, sigma))
                if lhs != rhs:
                    raise InvariantError(
                        f"cube face ({t},{u}) fails to commute at step {k}, "
                        f"slice {sigma}")


def _assemble(cube: _Cube, order) -> TriGradedSpace:
    """Total complex of the cube: stage-one classes of all vertices,
    differential = signed induced word maps plus signed wall-crossing
    maps, homology bucket by bucket."""
    word, N = cube.word, cube.N
    s0, lost = grading_shift(word.writhe_top, word.n)
    if lost:
        cube.warnings.append(
            "odd writhe-plus-one parity: the half-step normalization "
            "was rounded down")
    pos_in_order = {t: r for r, t in enumerate(order)}

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
                    wm = edge.w(k, sigma)
                    tkey = (edge.tgt_key, k, edge.src.next(sigma))
                    if wm and tkey in tgt_index:
                        r0 = tgt_index[tkey]
                        c_t = sum(1 for u in range(len(cube.slots))
                                  if u != t and vkey[u] == POS
                                  and pos_in_order[u] < pos_in_order[t])
                        sgn = -1 if c_t % 2 else 1
                        for (r, c), v in wm.items():
                            ent[(r0 + r, c0 + c)] = sgn * v
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
    the negative resolution to that of the positive one, in stage-one
    coordinates.  The chain-map property and the termwise exactness of
    the tensored sequence are checked along the way.
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
    for k, sigma in edge.src.populated():
        wm = edge.w(k, sigma)
        src_dims[(k, sigma)] = edge.src.stage_dim(k, sigma)
        sigma2 = edge.src.next(sigma)
        tdim = edge.tgt.stage_dim(k, sigma2)
        if tdim:
            tgt_dims[(k, sigma2)] = tdim
        if wm:
            slices[(k, sigma)] = wm
    rank = edge.rank()
    _edge_chain_check(edge)
    wmap = {
        "slices": slices,
        "rank": rank,
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
    scales[t]; order optionally permutes the slots in the edge sign
    rule.  Neither changes the homology (asserted by the test suite);
    they exist to demonstrate exactly that.  Returns (TriGradedSpace,
    report).
    """
    N = None if N is None else check_N(N)
    window = window or DegreeWindow()
    cube = _build_cube(word, N, window, scales=scales)
    s = len(cube.slots)
    if order is None:
        order = list(range(s))
    else:
        order = [int(t) for t in order]
        if sorted(order) != list(range(s)):
            raise ValueError("order must be a permutation of the singular "
                             "slots")
    for edge in cube.edges.values():
        for k, sigma in edge.src.populated():
            edge.w(k, sigma)
        _edge_chain_check(edge)
    _check_faces(cube)
    space = _assemble(cube, order)
    edge_ranks = {}
    for (eps, t), edge in sorted(cube.edges.items()):
        label = "".join("+" if e == POS else "-" for e in eps)
        edge_ranks[(label, t)] = edge.rank()
    report = {
        "N": N,
        "order": list(order),
        "scales": {t: str(cube.realizations[t].scale) for t in range(s)},
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
