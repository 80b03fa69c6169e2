"""Graded bimodules over the symmetric quotient ring, presented concretely.

A bimodule here is a free left S-module (S as in poly.py) of finite rank
together with commuting right-action matrices, one per variable x_1..x_n,
summing to zero.  Column convention: if m = sum_a m_a e_a then
(m . x_k)_a = sum_b A_k[a, b] m_b, i.e. columns of A_k give the action on
basis vectors.  Homogeneity: entry (a, b) of A_k is homogeneous of degree
2 + g_b - g_a where g are the generator degrees.

The constructors build the three bimodules the crossing calculus needs:
the regular bimodule S, the rank-2 bimodule S_i attached to a crossing
between strands i and i+1 (symmetric-invariant functions act identically
on both sides), and the rank-3 extension module S'_i = S[y]/((y-x_i)^2
(y-x_{i+1})) realizing the nontrivial extension between the two crossing
resolutions; plus the structure maps between them.

Shifts: M.shift(a) raises all generator degrees by a (so elements become
"more positive"); map degrees are always inferred from the entries.

Matrices are sparse dicts {(row, col): Poly}.  Their products are
Poly-only and build one canonical Poly per entry: mat_mul adds every
term product of one output entry into one plain term dict, and so does
Bimodule.right_mult_matrix with the c m terms of every monomial c m of
its polynomial, each m a product of the action matrices.  Scalar slice
matrices (the output of graded_map_entries) are multiplied by
linalg.mat_mat and linalg.mat_vec.
"""

from __future__ import annotations

from itertools import chain

from .linalg import InvariantError
from .poly import Poly, add_products, graded_piece, unpack

# sparse matrix over S: {(row, col): Poly}
Mat = dict


def mat_clean(m: Mat) -> Mat:
    return {k: v for k, v in m.items() if v}


def mat_add(a: Mat, b: Mat) -> Mat:
    out = dict(a)
    for k, v in b.items():
        if k in out:
            out[k] = out[k] + v
        else:
            out[k] = v
    return mat_clean(out)


def mat_neg(a: Mat) -> Mat:
    return {k: -v for k, v in a.items()}


def mat_scale(p, a: Mat) -> Mat:
    return mat_clean({k: p * v for k, v in a.items()})


def mat_mul(a: Mat, b: Mat) -> Mat:
    """(a . b)[i, j] = sum_k a[i, k] b[k, j] for Poly matrices over one
    ring.  All products of one output entry are added term by term into
    one plain term dict (poly.add_products), which then becomes one
    canonical Poly; zero entries are dropped."""
    by_row: dict = {}
    for (k, j), v in b.items():
        by_row.setdefault(k, []).append((j, v.terms))
    sums: dict = {}
    for (i, k), u in a.items():
        for j, terms in by_row.get(k, ()):
            acc = sums.get((i, j))
            if acc is None:
                acc = sums[(i, j)] = {}
            add_products(acc, u.terms, terms)
    if not sums:
        return {}
    rings = {(p.n, p.two_sided) for p in chain(a.values(), b.values())}
    assert len(rings) == 1, f"entries over several rings {rings}"
    (n, two_sided), = rings
    out: Mat = {}
    for key, acc in sums.items():
        p = Poly(n, acc, two_sided)
        if p:
            out[key] = p
    return out


def mat_eq(a: Mat, b: Mat) -> bool:
    return mat_clean(a) == mat_clean(b)


def mat_identity(rank: int, n: int) -> Mat:
    one = Poly.one(n)
    return {(i, i): one for i in range(rank)}


def entry_degree(p: Poly, key, what: str = "entry") -> int:
    """Homogeneous degree of a nonzero matrix entry; InvariantError if it
    mixes degrees, since every structure map is homogeneous."""
    try:
        return p.homogeneous_degree()
    except ValueError as e:
        raise InvariantError(f"{what} {key} {e}") from None


class Bimodule:
    """Free left S-module with commuting right-action matrices."""

    __slots__ = ("n", "gens", "actions")

    def __init__(self, n: int, gens, actions):
        self.n = n
        self.gens = tuple(gens)
        self.actions = tuple(mat_clean(a) for a in actions)
        assert len(self.actions) == n

    @property
    def rank(self) -> int:
        return len(self.gens)

    def action(self, k: int) -> Mat:
        """Right action of x_k, 1-based."""
        return self.actions[k - 1]

    def shift(self, a: int) -> "Bimodule":
        if a == 0:
            return self
        return Bimodule(self.n, tuple(g + a for g in self.gens), self.actions)

    def action_difference(self, j: int) -> Mat:
        """x_j . Id  -  (right action of x_j); the Koszul differentials."""
        return mat_add(mat_scale(Poly.x(self.n, j), mat_identity(self.rank, self.n)),
                       mat_neg(self.action(j)))

    def right_mult_matrix(self, p: Poly) -> Mat:
        """Matrix of the right action of a one-sided poly p(x_1..x_{n-1}).

        Each monomial of p starts from its first action matrix (a
        constant goes straight onto the diagonal), the c m terms of every
        entry are added into one plain term dict, and each entry becomes
        one canonical Poly; zero entries are dropped."""
        assert not p.two_sided and p.n == self.n
        sums: dict = {}
        for mono, c in p.terms.items():
            factors = [act for act, e in zip(self.actions,
                                             unpack(mono, self.n - 1))
                       for _ in range(e)]
            if not factors:
                for a in range(self.rank):
                    acc = sums.setdefault((a, a), {})
                    acc[mono] = acc.get(mono, 0) + c
                continue
            m = factors[0]
            for act in factors[1:]:
                m = mat_mul(m, act)
            for key, q in m.items():
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = {}
                for t, v in q.terms.items():
                    acc[t] = acc.get(t, 0) + c * v
        out: Mat = {}
        for key, acc in sums.items():
            q = Poly(self.n, acc)
            if q:
                out[key] = q
        return out

    def two_sided_action(self, p: Poly) -> Mat:
        """Operator of a two-sided poly: x-part acts left, y-part acts right."""
        assert p.two_sided and p.n == self.n
        out: Mat = {}
        for ym, xpart in p.split_xy():
            m = mat_identity(self.rank, self.n)
            for i, e in enumerate(ym):
                for _ in range(e):
                    m = mat_mul(m, self.actions[i])
            out = mat_add(out, mat_scale(xpart, m))
        return out

    def tensor(self, other: "Bimodule") -> "Bimodule":
        """M (x)_S N: basis e_a (x) f_b ordered with the left factor major.

        Scalars must pass through the left factor from the right:
        e_a (x) p f_b = (e_a . p) (x) f_b.
        """
        assert self.n == other.n
        gens = tuple(g + h for g in self.gens for h in other.gens)
        ro = other.rank
        actions = []
        for k in range(1, self.n + 1):
            ak: Mat = {}
            for (bp, b), p in other.action(k).items():
                # b, bp < ro: distinct entry pairs give distinct keys
                for (ap, a), q in self.right_mult_matrix(p).items():
                    ak[(ap * ro + bp, a * ro + b)] = q
            actions.append(ak)
        return Bimodule(self.n, gens, actions)

    def __repr__(self):
        return f"Bimodule(n={self.n}, gens={self.gens})"


class BimoduleMap:
    """Left-module map between bimodules, with inferred internal degree.

    Entries follow the same column convention as actions: f(e_b) =
    sum_a mat[a, b] e_a.  Degree d satisfies deg mat[a, b] = d + g_src[b]
    - g_tgt[a]; a zero map has degree None and composes with anything.
    """

    __slots__ = ("src", "tgt", "mat", "degree")

    def __init__(self, src: Bimodule, tgt: Bimodule, mat: Mat):
        assert src.n == tgt.n
        self.src, self.tgt = src, tgt
        self.mat = mat_clean(mat)
        deg = None
        for (a, b), p in self.mat.items():
            d = entry_degree(p, (a, b)) - src.gens[b] + tgt.gens[a]
            if deg is None:
                deg = d
            elif deg != d:
                raise InvariantError(
                    f"mixed degrees {deg} vs {d} at {(a, b)}")
        self.degree = deg

    @property
    def is_zero(self) -> bool:
        return not self.mat

    def __neg__(self) -> "BimoduleMap":
        return BimoduleMap(self.src, self.tgt, mat_neg(self.mat))

    def check(self):
        """Check the map intertwines all right actions; InvariantError if
        not."""
        for k in range(1, self.src.n + 1):
            lhs = mat_mul(self.mat, self.src.action(k))
            rhs = mat_mul(self.tgt.action(k), self.mat)
            if not mat_eq(lhs, rhs):
                raise InvariantError(f"does not intertwine x_{k}")

    def __repr__(self):
        return (f"BimoduleMap({self.src.rank}->{self.tgt.rank}, "
                f"degree={self.degree})")


def tensor_mat(f: BimoduleMap, g: BimoduleMap) -> Mat:
    """Matrix of f (x) g on the tensor bimodules, left factor major (no
    Koszul signs here).  Scalars of g's entries pass through the target
    of f from the right."""
    ro_s, ro_t = g.src.rank, g.tgt.rank
    mat: Mat = {}
    for (bp, b), p in g.mat.items():
        push = f.tgt.right_mult_matrix(p)  # rank_tgt x rank_tgt
        # bp < ro_t and b < ro_s: distinct entry pairs give distinct keys,
        # and mat_mul has dropped the zero entries
        for (ap, a), q in mat_mul(push, f.mat).items():
            mat[(ap * ro_t + bp, a * ro_s + b)] = q
    return mat


def identity_map(m: Bimodule) -> BimoduleMap:
    return BimoduleMap(m, m, mat_identity(m.rank, m.n))


def identity_bimodule(n: int) -> Bimodule:
    """The regular bimodule S: rank 1, both actions by multiplication."""
    actions = [{(0, 0): Poly.x(n, k)} for k in range(1, n + 1)]
    return Bimodule(n, (0,), actions)


def bs_bimodule(n: int, i: int) -> Bimodule:
    """Rank-2 bimodule S_i for the crossing of strands i, i+1.

    Basis 1 (x) 1 and 1 (x) x_{i+1} in degrees -1 and +1 (self-dual
    normalization).  Functions symmetric in x_i, x_{i+1} act identically
    on both sides; the right action of x_{i+1} is the companion matrix of
    t^2 - (x_i + x_{i+1}) t + x_i x_{i+1}.
    """
    assert 1 <= i < n
    xi, xj = Poly.x(n, i), Poly.x(n, i + 1)
    a_next = {(0, 1): -(xi * xj), (1, 0): Poly.one(n), (1, 1): xi + xj}
    a_i = mat_add(mat_scale(xi + xj, mat_identity(2, n)), mat_neg(a_next))
    actions = []
    for k in range(1, n + 1):
        if k == i:
            actions.append(a_i)
        elif k == i + 1:
            actions.append(a_next)
        else:
            actions.append(mat_scale(Poly.x(n, k), mat_identity(2, n)))
    return Bimodule(n, (-1, 1), actions)


def extension_bimodule(n: int, i: int) -> Bimodule:
    """Rank-3 bimodule S[y]/((y - x_i)^2 (y - x_{i+1})), basis 1, y, y^2.

    The right action of x_i is multiplication by y (companion matrix of
    the cubic); x_{i+1} acts as x_i + x_{i+1} - y; other variables act by
    their left values.  Generator degrees (0, 2, 4) before shifting.
    """
    assert 1 <= i < n
    xi, xj = Poly.x(n, i), Poly.x(n, i + 1)
    # y^3 = (2 x_i + x_{i+1}) y^2 - (x_i^2 + 2 x_i x_{i+1}) y + x_i^2 x_{i+1}
    a_i = {
        (0, 2): xi * xi * xj,
        (1, 0): Poly.one(n),
        (1, 2): -(xi * xi) - 2 * xi * xj,
        (2, 1): Poly.one(n),
        (2, 2): 2 * xi + xj,
    }
    a_next = mat_add(mat_scale(xi + xj, mat_identity(3, n)), mat_neg(a_i))
    actions = []
    for k in range(1, n + 1):
        if k == i:
            actions.append(a_i)
        elif k == i + 1:
            actions.append(a_next)
        else:
            actions.append(mat_scale(Poly.x(n, k), mat_identity(3, n)))
    return Bimodule(n, (0, 2, 4), actions)


def split_inclusion(n: int, i: int) -> BimoduleMap:
    """S{2} -> S_i{1}: 1 maps to x_i e_0 - e_1 (kernel of the merge)."""
    src = identity_bimodule(n).shift(2)
    tgt = bs_bimodule(n, i).shift(1)
    mat = {(0, 0): Poly.x(n, i), (1, 0): Poly.const(n, -1)}
    return BimoduleMap(src, tgt, mat)


def merge_projection(n: int, i: int) -> BimoduleMap:
    """S_i{-1} -> S{-2}: e_0 to 1, e_1 to x_{i+1} (multiplication map)."""
    src = bs_bimodule(n, i).shift(-1)
    tgt = identity_bimodule(n).shift(-2)
    mat = {(0, 0): Poly.one(n), (0, 1): Poly.x(n, i + 1)}
    return BimoduleMap(src, tgt, mat)


def aux_bimodules(n: int, i: int):
    """The shifted extension module and its four structure maps.

    Returns (E, maps) with E = extension_bimodule{-2} and maps a dict:
      "u_inclusion":  S_i{1}  -> E   (e_0 to y - x_i, e_1 to -(y-x_i)(y-x_i-x_{i+1}))
      "evaluation":   E -> S{-2}     (y to x_i)
      "uv_inclusion": S{2} -> E      (1 to (y - x_i)(y - x_{i+1}))
      "quotient":     E -> S_i{-1}   (kill (y - x_i)(y - x_{i+1}))
    All four are internal-degree 0 and fit in two exact rows:
      0 -> S{2} -> E -> S_i{-1} -> 0   (uv_inclusion then quotient)
      0 -> S_i{1} -> E -> S{-2} -> 0   (u_inclusion then evaluation)
    """
    E = extension_bimodule(n, i).shift(-2)
    S2 = identity_bimodule(n).shift(2)
    Sm2 = identity_bimodule(n).shift(-2)
    Bs1 = bs_bimodule(n, i).shift(1)
    Bsm1 = bs_bimodule(n, i).shift(-1)
    xi, xj = Poly.x(n, i), Poly.x(n, i + 1)
    one = Poly.one(n)

    uv = BimoduleMap(S2, E, {(0, 0): xi * xj, (1, 0): -(xi + xj),
                             (2, 0): one})
    u = BimoduleMap(Bs1, E, {
        (0, 0): -xi, (1, 0): one,
        (0, 1): -(xi * xi + xi * xj), (1, 1): 2 * xi + xj,
        (2, 1): -one,
    })
    ev = BimoduleMap(E, Sm2, {(0, 0): one, (0, 1): xi, (0, 2): xi * xi})
    quot = BimoduleMap(E, Bsm1, {
        (0, 0): one, (0, 1): xi + xj,
        (0, 2): (xi + xj) ** 2 - xi * xj,
        (1, 1): -one, (1, 2): -(xi + xj),
    })
    maps = {"uv_inclusion": uv, "u_inclusion": u,
            "evaluation": ev, "quotient": quot}
    return E, maps


class GradedFreeBasis:
    """Monomial basis of one internal degree of a free graded S-module."""

    __slots__ = ("n", "gens", "j", "pieces", "offsets", "dim")

    def __init__(self, n: int, gens, j: int, two_sided: bool = False):
        self.n, self.gens, self.j = n, tuple(gens), j
        self.pieces = [graded_piece(n, j - g, two_sided) for g in self.gens]
        self.offsets = []
        total = 0
        for p in self.pieces:
            self.offsets.append(total)
            total += p.dim
        self.dim = total



def graded_map_entries(mat: Mat, src: GradedFreeBasis,
                       tgt: GradedFreeBasis) -> dict:
    """Scalar matrix {(row, col): coefficient} of a poly matrix in one
    degree; coefficients are canonical (int when integral, Fraction
    otherwise), as in the polys.

    src and tgt fix the internal degrees; entries whose degree cannot
    connect the two (empty pieces) contribute nothing, but a nonzero
    entry with the wrong homogeneous degree is an error.  Each entry's
    block is written straight from the source piece's shift tables:
    blocks of distinct entries are disjoint, and in one column distinct
    monomials of an entry hit distinct rows, so nothing sums or cancels.
    """
    out: dict = {}
    for (a, b), p in mat.items():
        sp, tp = src.pieces[b], tgt.pieces[a]
        if sp.dim == 0:
            continue
        need = (tgt.j - tgt.gens[a]) - (src.j - src.gens[b])
        d = entry_degree(p, (a, b))
        if d != need:
            raise InvariantError(f"entry {(a, b)} has degree {d}, "
                                 f"needs {need}")
        if tp.dim == 0:
            continue
        ro, co = tgt.offsets[a], src.offsets[b]
        for e, coef in p.terms.items():
            for c, r in enumerate(sp.shift(e), co):
                out[(ro + r, c)] = coef
    return out
