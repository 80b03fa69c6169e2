"""sl_N braid-closure homology via folded Koszul factorizations.

The finite-N deformation keeps the underlying module of the contraction
column, M (x) Lambda on the n-1 reduced directions, but the differential
both removes directions (multiplying by x_j - (right action of x_j), as
in the undeformed column) and adds them back (multiplying by degree-2N
two-sided operators).  For the reduced fold the adder for direction j
is the quotient (x_j^{N+1} - y_j^{N+1})/(x_j - y_j) minus the same
quotient for the last strand; paired with the n-1 differences these
telescope, so the square of the total map is multiplication by the full
potential sum_i (x_i^{N+1} - y_i^{N+1}) in canonical coordinates.  On
every term of a braid-word complex symmetric functions act identically
from both sides, so the potential acts as zero there and the folded
column is an honest differential object; a bimodule on which the
potential acts nontrivially raises ValueError; in particular folding
the wall-crossing extension bimodule succeeds exactly when the
potential vanishes on it as a polynomial (two strands, N even).  The
fold is built by the one exterior-complex constructor,
homology.exterior_column, with the contraction column's removers and
these adders, and one check (_check_potential) compares its square
with the potential action.  z_factorization folds the free rank-one
two-sided module the same way; its full variant keeps all n directions
with the plain per-strand quotients, squares to the same potential and
is the independent cross-check of the potential identity.

Exterior weight and internal degree collapse to the single grading
q = internal + c * weight, with c the unique integer making both entry
families homogeneous of one common degree (N + 1); c is recomputed and
asserted rather than hard-coded.  Homology is computed per collapsed
degree: kernel of D into q + N + 1 modulo the image from q - N - 1,
with the word maps inducing the k-direction exactly as in the
undeformed pipeline; it is that pipeline's slice engine
(homology.ColumnData) run with the folded slicer, and this module adds
only the folded columns and the weight bookkeeping below.  Both
components of D flip the parity of the exterior weight, so each
collapsed slice splits into an even-weight and an odd-weight subcomplex
and the weight parity of every class is exact.  The raw word maps keep
the weight; conjugated onto columns that keep a differential they can
move it by two (homology.ColumnData), and only weight-keeping blocks
are read.

Within a parity the full weight of a class is recovered from the
internal-degree filtration: neither component of D lowers internal
degree, so subspaces of internal degree >= j are subcomplexes.
Representatives are reduced against boundaries echelonized from the
low-weight end of the slice (ascending weight is ascending internal
degree for N >= 2), and the weight of the reduced representative's
leading block is the filtration weight of the class.

Reported gradings account for the weight, because the weight is the
homological direction of the factorization: a weight-p class at
homological degree k and collapsed degree q is reported at
k' = k + p + (writhe - n + 1) and q' = q - (N+1)p + (N+1)(n - 1 -
writhe), both always integers.  The shifts are fixed by the unknot
battery (every one- and two-crossing unknot presentation sits at the
origin), and with them the graded Euler characteristic
sum (-1)^k' q^q' of the trefoil table equals the skein oracle
specialized at a = q^N on the nose; the conventions module records
the residual one-monomial-and-sign freedom that comparisons allow.
For N = 1 the collapse has c = 0 and the filtration is blind, so
weights are tracked only modulo 2 and the regraded degree is defined
up to that freedom (flagged in the report).
"""

from __future__ import annotations

from .bimodule import Bimodule, mat_eq, mat_mul
from .braid import Word
from .complexes import rouquier_complex
from .diffobj import DiffObject
from .homology import (ColumnData, DegreeWindow, TriGradedSpace, check_N,
                       exterior_column, scan_bounds, scan_degrees)
from .linalg import InvariantError, RowSpace, SubquotientBasis
from .poly import Poly, phi, power_sum_difference, psi_quotient


def collapse_coefficient(N: int) -> int:
    """The integer c with internal + c*weight rendering both removal
    entries (internal degree 2, weight -1) and addition entries
    (internal degree 2N, weight +1) homogeneous of a common degree."""
    num = 2 - 2 * N  # solve 2 - c = 2N + c
    assert num % 2 == 0
    c = num // 2
    common = 2 - c
    assert common == 2 * N + c == N + 1
    return c


def direction_quotient(n: int, j: int, N: int, full: bool = False) -> Poly:
    """The two-sided multiplier adding direction j back into the fold.

    Reduced (default): the quotient of x_j^{N+1} - y_j^{N+1} by
    x_j - y_j, minus the same quotient for the last strand, so that the
    n-1 reduced multipliers telescope against the differences to the
    full potential.  Full: the plain per-strand quotient.
    """
    q = psi_quotient(n, j, N + 1)
    if full:
        return q
    return q - psi_quotient(n, n, N + 1)


def _check_potential(col: DiffObject, potential_action) -> bool:
    """Check that the square of an exterior column equals the potential
    action on every (a, J) generator (InvariantError if not); return
    whether that square is nonzero.  potential_action() gives the action
    as a matrix on the base module and is called only when the square
    is nonzero."""
    sq = mat_mul(col.diff, col.diff)
    if not sq:
        return False
    pot = potential_action()
    index = {lab: i for i, lab in enumerate(col.labels)}
    expected = {(index[(b, J)], i): p
                for i, (a, J) in enumerate(col.labels)
                for (b, a2), p in pot.items() if a2 == a}
    if not mat_eq(sq, expected):
        raise InvariantError("square differs from the potential action")
    return True


def z_factorization(n: int, N: int, full: bool = False) -> DiffObject:
    """The checked factorization of the skein potential
    sum_i (x_i^{N+1} - y_i^{N+1}) in canonical coordinates: the free
    two-sided module of rank one, folded like a bimodule column, with
    removers x_j - y_j and adders direction_quotient.  Reduced (default)
    keeps the n-1 independent directions, rank 2^(n-1); full keeps one
    direction per strand and is an independent check of the potential
    identity.  Trivial at n=1, where the potential is 0."""
    N = check_N(N)
    top = n + 1 if full else n
    z = exterior_column(
        n, [0], collapse_coefficient(N),
        {j: {(0, 0): phi(n, j)} for j in range(1, top)},
        {j: {(0, 0): direction_quotient(n, j, N, full)}
         for j in range(1, top)})
    pot = power_sum_difference(n, N + 1)
    if _check_potential(z, lambda: {(0, 0): pot}) != bool(pot):
        raise InvariantError("factorization squares to zero, not to the "
                             "potential")
    return z


def folded_column(M: Bimodule, N: int) -> DiffObject:
    """Folded factorization column of a bimodule, collapsed to one grading.

    Generators are labelled (a, J) like the contraction column, with
    homological slot |J| (the exterior weight) and collapsed degree
    g_a + c|J|.  Raises ValueError when the potential acts nontrivially
    on M (curved case), after checking that the square really is the
    potential action (InvariantError if it is not).
    """
    n = M.n
    out = exterior_column(
        n, M.gens, collapse_coefficient(N),
        {j: M.action_difference(j) for j in range(1, n)},
        {j: M.two_sided_action(direction_quotient(n, j, N))
         for j in range(1, n)})
    if _check_potential(out, lambda: M.two_sided_action(
            power_sum_difference(n, N + 1))):
        raise ValueError(
            "the potential acts nontrivially on this bimodule for this N: "
            "the folded differential is curved")
    return out


def _leads(sq) -> list:
    """Leading index of each representative of a subquotient reduced
    modulo its boundaries: the largest leading index in its coset."""
    span = RowSpace(sq.ambient_dim)
    for b in sq.boundary_basis:
        span.add(b)
    return [span.leading(rep) for rep in sq.reps]


def _class_weights(fs, sigma, k: int, sqs: dict, mats: dict, h: int) -> list:
    """Filtration weights of the h tower classes at step k of one slice.

    A stage-one class has the weight of the block holding the leading
    index of its reduced representative.  The tower subquotient is then
    redone with the stage-one classes sorted by weight, and each survivor
    takes the weight of the stage-one class at its own leading index.
    """
    sq = sqs[k]
    weights = [fs.weight(sigma, i) for i in _leads(sq)]
    order = sorted(range(sq.dim), key=lambda i: (weights[i], i))
    inv = {old: new for new, old in enumerate(order)}
    out = {(r, inv[c]): v for (r, c), v in mats.get(k, {}).items()}
    inc = {(inv[r], c): v for (r, c), v in mats.get(k - 1, {}).items()}
    out_dim = sqs[k + 1].dim if k + 1 in sqs else 0
    sq2 = SubquotientBasis(sq.dim, out, out_dim, inc)
    if sq2.dim != h:
        raise InvariantError(f"reordered tower at step {k} has {sq2.dim} "
                             f"classes, not {h}")
    return [weights[order[i]] for i in _leads(sq2)]


def sln_homology(word: Word, N: int, window: DegreeWindow = None,
                 simplify: bool = True):
    """Bigraded sl_N homology table of a braid closure, with scan report.

    Returns (TriGradedSpace, report); rows are (k + p + shift,
    q - (N+1)p + shift', 0) for a weight-p class of collapsed degree q.
    """
    N = check_N(N)
    window = window or DegreeWindow()
    data = ColumnData(rouquier_complex(word), N, simplify)
    raw: dict = {}

    def visit(q):
        total = 0
        for sigma in data.sigmas(q):
            sqs, mats, hom = data.tower(sigma)
            for k, h in hom.items():
                for w in _class_weights(data.slicers[k], sigma, k, sqs, mats,
                                        h):
                    raw[(k, q, w)] = raw.get((k, q, w), 0) + 1
                total += h
        return total

    q_lo, q_hi, q_top = scan_bounds(data.cols.values(), window)
    # the differential steps the collapsed degree by N+1, so the slices
    # interact only within a residue class mod N+1; a zero run is
    # evidence of stabilization only once every residue has seen
    # window.margin consecutive empty slices.
    needed = window.margin * (N + 1)
    stabilized, q_last = scan_degrees(q_lo, max(q_hi, q_top + needed), q_top,
                                      needed, visit)
    kshift = word.writhe - word.n + 1
    qshift = (N + 1) * (word.n - 1 - word.writhe)
    warnings = []
    if not word.is_knot_closure:
        warnings.append("closure is not a knot: homology may be "
                        "infinite-dimensional and the degree window "
                        "truncates it")
    if not stabilized:
        warnings.append("collapsed-degree scan hit the window bound "
                        "before stabilizing")
    if N == 1:
        warnings.append("N=1: the collapse is weight-blind, so class "
                        "weights are tracked only modulo 2 and the "
                        "regraded degree is defined up to that freedom")
    space = TriGradedSpace()
    for (k, q, p), d in raw.items():
        space.add(k + p + kshift, q - (N + 1) * p + qshift, 0, d)
    report = {"stabilized": stabilized, "j_range": (q_lo, q_last),
              "shift": (kshift, qshift), "warnings": warnings, "raw": raw,
              "simplify": simplify, "N": N}
    return space, report
