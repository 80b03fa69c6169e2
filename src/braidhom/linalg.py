"""Exact sparse linear algebra over Q.

Everything the homology pipeline needs reduces to ranks, kernels, and
solves of sparse matrices with exact rational entries.  Rows are cleared
to integers and eliminated fraction-free (cross-multiplication, skipped
for a unit pivot, followed by a gcd reduction), which keeps entries small
without ever leaving exact arithmetic.  Rows are bucketed by leading
column, so a pivot meets only the rows that column leads, never a scan
of the others.  Row operations are recorded so a factored matrix can be
reused for many right-hand sides.

Matrices enter as lists of sparse rows {col: coeff} or as entry dicts
{(row, col): coeff}, which mat_vec and mat_mat multiply and cleared
scales to integers (for rank and vanishing checks); vectors are plain
lists.  Coefficients are ints or Fractions: the polynomial layer hands
in canonical values (rational.py: an int when integral), so most
arithmetic stays on ints, and every division goes through
rational.quotient, so no float can arise.

A SubquotientBasis (cycles of an outgoing map modulo the boundaries of
an incoming one) is the homology of every slice.  A kernel vector is
fixed by its entries at the free columns of the outgoing map, so its
classes are free columns and expressing a cycle reduces those entries
against the boundaries: nothing is solved, and no factored matrix is
kept.  With no outgoing map the representatives are standard vectors,
and with no boundaries either a vector is its own coordinate list.  The
outgoing map is factored once and its rank kept (out_rank); given the
incoming rank, a slice whose cycles are all boundaries is known to be
exact without spanning its boundaries, and more boundaries than cycles
is an InvariantError.

Violated internal invariants raise InvariantError, an AssertionError
raised explicitly, so the checks also run under python -O.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .rational import quotient


class InvariantError(AssertionError):
    """An internal consistency check failed: a bug, never bad input."""


def rows_from_entries(entries: dict, nrows: int) -> list:
    """Turn a {(row, col): coeff} dict into a list of sparse row dicts;
    coefficients stay as they are."""
    rows = [dict() for _ in range(nrows)]
    for (r, c), v in entries.items():
        if v:
            rows[r][c] = v
    return rows


def _scaled_int_row(row: dict):
    """Clear denominators and divide out the content; returns (irow, scale).

    scale is the rational s with irow = s * row.
    """
    if not row:
        return {}, 1
    denom, ints = 1, True
    for v in row.values():
        if type(v) is not int:
            ints = False
            denom = denom * v.denominator // gcd(denom, v.denominator)
    if ints:
        nums = dict(row)
    else:
        nums = {c: v.numerator * (denom // v.denominator)
                for c, v in row.items()}
    g = 0
    for v in nums.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        nums = {c: v // g for c, v in nums.items()}
    else:
        g = 1
    return nums, quotient(denom, g)


class Echelon:
    """Fraction-free row echelon form with replayable row operations.

    Rows are bucketed by their leading (first nonzero) column, and the
    columns are taken in ascending order.  Among the rows a column leads,
    the first with a unit (+-1) entry there is promoted, or else the first
    one; the column is eliminated from the other rows of its bucket only,
    and each reduced row moves to the bucket of its new leading column.
    Rows are never swapped: a pivot is a (row, col) pair, in ascending
    column order, and the rows that are or become zero are listed.  The
    recorded operation log lets solve() transform arbitrary right-hand
    sides exactly as the matrix rows were transformed.
    """

    def __init__(self, rows, ncols: int):
        self.ncols = ncols
        self.nrows = len(rows)
        self.scales = []
        work = []
        for row in rows:
            irow, s = _scaled_int_row(row)
            work.append(irow)
            self.scales.append(s)
        self.ops = []  # (i, p, piv, v, g): row i <- (piv row i - v row p) / g
        self.rows = work
        self.pivots = []  # list of (row, col), columns ascending
        self.zero_rows = []
        self._eliminate()

    def _eliminate(self):
        work, ops, zero_rows = self.rows, self.ops, self.zero_rows
        buckets: dict = {}  # leading column -> rows it leads
        for i, row in enumerate(work):
            if row:
                buckets.setdefault(min(row), []).append(i)
            else:
                zero_rows.append(i)
        heap = list(buckets)
        heapify(heap)
        while heap:
            col = heappop(heap)
            bucket = buckets.pop(col)
            p = bucket[0]
            for i in bucket:
                if work[i][col] in (1, -1):
                    p = i
                    break
            self.pivots.append((p, col))
            prow = work[p]
            piv = prow[col]
            unit = piv in (1, -1)
            for i in bucket:
                if i == p:
                    continue
                row = work[i]
                v = row[col]
                if unit:
                    # row - (v / piv) prow, logged as 1 row - (v piv) prow
                    v *= piv
                    new = dict(row)
                else:
                    new = {c: piv * val for c, val in row.items()}
                for c, val in prow.items():
                    x = new.get(c, 0) - v * val
                    if x:
                        new[c] = x
                    else:
                        del new[c]
                g = 0
                for val in new.values():
                    g = gcd(g, val)
                    if g == 1:
                        break
                g = max(g, 1)
                if g > 1:
                    new = {c: val // g for c, val in new.items()}
                work[i] = new
                ops.append((i, p, 1 if unit else piv, v, g))
                if new:
                    lead = min(new)
                    if lead in buckets:
                        buckets[lead].append(i)
                    else:
                        buckets[lead] = [i]
                        heappush(heap, lead)
                else:
                    zero_rows.append(i)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _transform_rhs(self, b):
        """Replay the recorded row operations on a right-hand side."""
        w = [v * s if v else 0 for v, s in zip(b, self.scales)]
        for i, p, piv, v, g in self.ops:
            wi, wp = w[i], w[p]
            if wi or wp:
                if piv != 1:
                    wi = piv * wi
                if wp:
                    wi -= v * wp
                w[i] = wi if g == 1 else quotient(wi, g)
        return w

    def solve(self, b):
        """A particular solution x of A x = b, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        if len(b) != self.nrows:
            raise InvariantError(f"right-hand side of length {len(b)} for "
                                 f"{self.nrows} rows")
        w = self._transform_rhs(b)
        for i in self.zero_rows:
            if w[i]:
                return None
        return self._back_substitute([0] * self.ncols, w)

    def _back_substitute(self, x, w):
        """Fill the pivot coordinates of x so that row r of the echelon
        form applied to x gives w[r] (0 where w is None), skipping the
        zero terms."""
        for r, col in reversed(self.pivots):
            row = self.rows[r]
            acc = 0 if w is None else w[r]
            for c, val in row.items():
                if c > col and x[c]:
                    acc -= val * x[c]
            if acc:
                x[col] = quotient(acc, row[col])
        return x

    @property
    def free(self) -> list:
        """The free (non-pivot) columns, ascending."""
        free = list(range(self.ncols))
        # pivot columns ascend, so deleting the last first keeps the
        # positions of the earlier ones
        for _, col in reversed(self.pivots):
            del free[col]
        return free

    def kernel_basis(self, cols=None):
        """Null space vectors, one per free column in cols (default: all
        of them, a basis), each 1 at its own free column and 0 at the
        other free columns."""
        basis = []
        for f in self.free if cols is None else cols:
            x = [0] * self.ncols
            x[f] = 1
            basis.append(self._back_substitute(x, None))
        return basis


def matrix_rank(entries: dict, nrows: int, ncols: int) -> int:
    return Echelon(rows_from_entries(entries, nrows), ncols).rank


def mat_vec(entries: dict, vec, nrows: int):
    out = [0] * nrows
    for (r, c), v in entries.items():
        if vec[c]:
            out[r] += v * vec[c]
    return out


def mat_mat(a: dict, b: dict) -> dict:
    """(a . b)[i, j] = sum_k a[i, k] b[k, j] for scalar matrices
    {(row, col): coeff}; zero entries are dropped."""
    by_row: dict = {}
    for (k, j), v in b.items():
        by_row.setdefault(k, []).append((j, v))
    rows: dict = {}  # i -> {j: sum}
    for (i, k), u in a.items():
        bk = by_row.get(k)
        if bk:
            acc = rows.setdefault(i, {})
            for j, v in bk:
                acc[j] = acc.get(j, 0) + u * v
    return {(i, j): v for i, acc in rows.items() for j, v in acc.items()
            if v}


def cleared(m: dict) -> dict:
    """m times the lcm of its denominators: an integer matrix.  A
    nonzero scale changes neither the rank nor whether a product
    vanishes."""
    den = 1
    for v in m.values():
        den = den * v.denominator // gcd(den, v.denominator)
    return {key: v.numerator * (den // v.denominator)
            for key, v in m.items()}


class RowSpace:
    """Incrementally built row space with exact membership reduction."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = []  # integer echelon rows, sorted by pivot column
        self.pivcols = []

    def reduce(self, vec):
        """Reduce a vector against the stored rows (copy returned).

        The result is the vector of vec + span that vanishes at every
        pivot column, so it does not depend on the insertion order."""
        w = list(vec)
        for row, pc in zip(self.rows, self.pivcols):
            if w[pc]:
                factor = quotient(w[pc], row[pc])
                for c, val in row.items():
                    w[c] -= factor * val
        return w

    def leading(self, vec):
        """First nonzero index of the reduced vec (None inside the span):
        the largest leading index over the coset vec + span."""
        return next((c for c, v in enumerate(self.reduce(vec)) if v), None)

    def add(self, vec) -> bool:
        """Insert a vector; True if it enlarged the span."""
        w = self.reduce(vec)
        pc = next((c for c, v in enumerate(w) if v), None)
        if pc is None:
            return False
        irow, _ = _scaled_int_row({c: v for c, v in enumerate(w) if v})
        pos = 0
        while pos < len(self.pivcols) and self.pivcols[pos] < pc:
            pos += 1
        self.rows.insert(pos, irow)
        self.pivcols.insert(pos, pc)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


class SubquotientBasis:
    """Cycles of an outgoing map modulo the boundaries of an incoming
    one, on a slice of dimension dim, with coordinates.

    out = {(row, col): coeff} has rows in out_dim coordinates; the
    columns of inc = {(row, col): coeff} are the boundaries, and
    out . inc = 0.  The kernel vector Echelon.kernel_basis builds at a
    free (non-pivot) column of out has a 1 there and a 0 at every other
    free column, so a cycle is fixed by its entries at the free columns,
    its cycle coordinates.  The classes are represented by the kernel
    vectors at the free columns that are no boundary's trailing (last
    nonzero) cycle coordinate, in ascending order: exactly the vectors a
    greedy choice from the kernel basis keeps after the boundaries, since
    a kernel vector lies in the boundaries plus the earlier ones exactly
    when some boundary ends at its column.  express() reduces the cycle
    coordinates of a cycle against the boundaries from the trailing end,
    which leaves them supported on the class columns, and reads the
    coordinates off there.

    When the outgoing map is zero every vector is a cycle and the
    representatives are standard vectors (standard); with no boundaries
    either the slice is whole and a vector is its own coordinate list.

    out_rank is the rank of the outgoing map, which is the incoming rank
    of the slice it maps to.  A caller that knows the incoming rank
    passes it as inc_rank, and may pass inc as a function returning the
    entries.  The homology dimension h = (number of free columns) -
    inc_rank is then known before any boundary is spanned: h < 0 raises
    InvariantError, and an exact slice (h = 0) has no classes, never
    calls inc and spans nothing (boundary_basis is None); express()
    still checks out . v = 0, which there is the same as landing in the
    boundaries.  For h > 0 the boundaries are spanned as above and must
    have rank inc_rank.
    """

    def __init__(self, dim: int, out: dict, out_dim: int, inc,
                 inc_rank=None):
        self.ambient_dim = dim
        self._out, self._out_dim = out, out_dim
        ech = Echelon(rows_from_entries(out, out_dim) if out else [], dim)
        self.out_rank = ech.rank
        self._free = ech.free
        self.standard = not ech.pivots
        if inc_rank is not None and inc_rank > len(self._free):
            raise InvariantError(f"{inc_rank} independent boundaries in "
                                 f"{len(self._free)} cycle dimensions")
        if inc_rank == len(self._free):
            # exact: every cycle is a boundary, so there are no classes
            # and the boundaries are never spanned
            self._span, self.boundary_basis, self.classes = None, None, []
        else:
            cols: dict = {}
            for (r, c), v in (inc() if callable(inc) else inc).items():
                cols.setdefault(c, [0] * dim)[r] = v
            # boundaries in cycle coordinates, reversed, so that the
            # pivots of the span are trailing coordinates
            self._span = RowSpace(len(self._free))
            self.boundary_basis = []
            for b in cols.values():
                if self._span.add([b[f] for f in reversed(self._free)]):
                    self.boundary_basis.append(b)
            if inc_rank is not None and self._span.dim != inc_rank:
                raise InvariantError(f"boundaries of rank {self._span.dim}, "
                                     f"not the known {inc_rank}")
            inc_rank = self._span.dim
            top = len(self._free) - 1
            self._trailing = {top - pc for pc in self._span.pivcols}
            self.classes = list(self._free)
            for i in sorted(self._trailing, reverse=True):
                del self.classes[i]
        self.whole = self.standard and not inc_rank
        self._reps = None if self.standard else ech.kernel_basis(self.classes)

    @property
    def dim(self) -> int:
        return len(self.classes)

    @property
    def reps(self) -> list:
        """The representatives, in class order.  Standard ones are built
        on each read, so a slice whose classes are only pushed sparsely
        never holds them."""
        if self._reps is None:
            return Echelon([], self.ambient_dim).kernel_basis(self.classes)
        return self._reps

    def express(self, vec):
        """Coordinates of a cycle in the representative basis, modulo
        boundaries; ValueError when vec is not a cycle."""
        if len(vec) != self.ambient_dim:
            raise ValueError(f"vector of length {len(vec)} in a space of "
                             f"dimension {self.ambient_dim}")
        if any(mat_vec(self._out, vec, self._out_dim)):
            raise ValueError("vector is not a cycle")
        if not self.classes:
            return []
        w = self._span.reduce([vec[f] for f in reversed(self._free)])
        return [x for i, x in enumerate(reversed(w))
                if i not in self._trailing]
