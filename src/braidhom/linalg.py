"""Exact sparse linear algebra over Q.

Everything the homology pipeline needs reduces to ranks, kernels, and
solves of sparse matrices with exact rational entries.  Rows are cleared
to integers and eliminated fraction-free (cross-multiplication followed
by a gcd reduction), which keeps entries small without ever leaving
exact arithmetic.  Row operations are recorded so a factored matrix can be
reused for many right-hand sides.

Matrices enter as lists of sparse rows {col: coeff}; vectors are plain
lists.  Coefficients are ints or Fractions: the polynomial layer hands
in canonical values (rational.py: an int when integral), so most
arithmetic stays on ints, and every division goes through
rational.quotient, so no float can arise.

A SubquotientBasis (cycles modulo boundaries) expresses vectors through
a factored Echelon of its boundary and representative columns.  A slice
with no outgoing differential is a QuotientSpace instead: every vector
is a cycle, so standard vectors represent the classes and expressing a
vector is a reduction against the boundaries.  With no incoming
differential either it is a WholeSpace, where a vector is its own
coordinate list.  Neither factors anything, and their representatives
are only built when something reads them.

Violated internal invariants raise InvariantError, an AssertionError
raised explicitly, so the checks also run under python -O.
"""

from __future__ import annotations

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
    if g > 1:
        nums = {c: v // g for c, v in nums.items()}
    else:
        g = 1
    return nums, quotient(denom, g)


class Echelon:
    """Fraction-free row echelon form with replayable row operations.

    Pivoting is deterministic: columns are scanned left to right and the
    first remaining row with a nonzero entry is promoted.  The recorded
    operation log lets solve() transform arbitrary right-hand sides
    exactly as the matrix rows were transformed.
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
        self.ops = []  # ("swap", i, j) | ("axpy", i, r, piv, v, g)
        self.rows = work
        self.pivots = []  # list of (row, col)
        self._eliminate()

    def _eliminate(self):
        work = self.rows
        r = 0
        for col in range(self.ncols):
            sel = None
            for i in range(r, len(work)):
                if work[i].get(col):
                    sel = i
                    break
            if sel is None:
                continue
            if sel != r:
                work[r], work[sel] = work[sel], work[r]
                self.ops.append(("swap", r, sel))
            piv = work[r][col]
            for i in range(r + 1, len(work)):
                v = work[i].get(col)
                if not v:
                    continue
                new = {}
                for c, val in work[i].items():
                    new[c] = piv * val
                for c, val in work[r].items():
                    new[c] = new.get(c, 0) - v * val
                new = {c: val for c, val in new.items() if val}
                g = 0
                for val in new.values():
                    g = gcd(g, val)
                g = max(g, 1)
                if g > 1:
                    new = {c: val // g for c, val in new.items()}
                work[i] = new
                self.ops.append(("axpy", i, r, piv, v, g))
            self.pivots.append((r, col))
            r += 1
            if r == len(work):
                break

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _transform_rhs(self, b):
        """Replay the recorded row operations on a right-hand side."""
        w = [v * s if v else 0 for v, s in zip(b, self.scales)]
        for op in self.ops:
            if op[0] == "swap":
                _, i, j = op
                w[i], w[j] = w[j], w[i]
            else:
                _, i, r, piv, v, g = op
                if w[i] or w[r]:
                    w[i] = piv * w[i] - v * w[r]
                    if g != 1:
                        w[i] = quotient(w[i], g)
        return w

    def solve(self, b):
        """A particular solution x of A x = b, or None if inconsistent.

        Free variables are set to zero, so the answer is deterministic.
        """
        if len(b) != self.nrows:
            raise InvariantError(f"right-hand side of length {len(b)} for "
                                 f"{self.nrows} rows")
        w = self._transform_rhs(b)
        for i in range(self.rank, self.nrows):
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

    def kernel_basis(self):
        """Deterministic basis of the null space, one vector per free column."""
        pivot_cols = {col for _, col in self.pivots}
        basis = []
        for f in range(self.ncols):
            if f in pivot_cols:
                continue
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

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

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


def _check_length(vec, dim: int):
    if len(vec) != dim:
        raise ValueError(f"vector of length {len(vec)} in a space of "
                         f"dimension {dim}")


class SubquotientBasis:
    """A basis of (span of cycles)/(span of boundaries) with coordinates.

    Representatives are chosen greedily from the cycle list in order, so
    the basis is deterministic.  express() writes any vector of
    span(cycles) + span(boundaries) in the representative basis modulo
    boundaries.
    """

    def __init__(self, ambient_dim: int, cycles, boundaries):
        self.ambient_dim = ambient_dim
        space = RowSpace(ambient_dim)
        self.boundary_basis = []
        for b in boundaries:
            if space.add(b):
                self.boundary_basis.append(list(b))
        self.reps = []
        for z in cycles:
            if space.add(z):
                self.reps.append(list(z))
        cols = self.boundary_basis + self.reps
        entries = {}
        for j, v in enumerate(cols):
            for i, val in enumerate(v):
                if val:
                    entries[(i, j)] = val
        self._solver = Echelon(rows_from_entries(entries, ambient_dim),
                               len(cols))

    @property
    def dim(self) -> int:
        return len(self.reps)

    def express(self, vec):
        """Coordinates of vec in the representative basis, mod boundaries."""
        _check_length(vec, self.ambient_dim)
        x = self._solver.solve(list(vec))
        if x is None:
            raise ValueError("vector is not in cycles + boundaries")
        nb = len(self.boundary_basis)
        return x[nb:]


class QuotientSpace(SubquotientBasis):
    """The subquotient of a slice with no outgoing differential: every
    vector is a cycle, modulo the span of the boundaries.

    The classes are represented by the standard vectors e_s at the free
    indices s, those that are no boundary's trailing (last nonzero)
    index, in ascending order.  These are exactly the vectors a greedy
    choice from the identity list keeps, since e_s lies in the
    boundaries plus e_0..e_{s-1} exactly when some boundary ends at s.
    express() reduces a vector against the boundaries from the trailing
    end, which leaves it supported on the free indices, and reads its
    coordinates off there; nothing is factored.
    """

    def __init__(self, ambient_dim: int, boundaries=()):
        self.ambient_dim = ambient_dim
        self._span = RowSpace(ambient_dim)  # boundaries, coordinates reversed
        self.boundary_basis = []
        for b in boundaries:
            if self._span.add(b[::-1]):
                self.boundary_basis.append(list(b))
        top = ambient_dim - 1
        trailing = {top - pc for pc in self._span.pivcols}
        self.free = [s for s in range(ambient_dim) if s not in trailing]

    @property
    def dim(self) -> int:
        return len(self.free)

    @property
    def reps(self) -> list:
        """The standard vectors at the free indices, built on every read."""
        d = self.ambient_dim
        return [[int(t == s) for t in range(d)] for s in self.free]

    def express(self, vec):
        _check_length(vec, self.ambient_dim)
        w = self._span.reduce(vec[::-1])
        top = self.ambient_dim - 1
        return [w[top - s] for s in self.free]


class WholeSpace(QuotientSpace):
    """The subquotient of a slice with no differential in or out: all
    vectors are cycles, none is a boundary, the classes are represented
    by the standard basis in order, and express() is the identity."""

    def __init__(self, ambient_dim: int):
        super().__init__(ambient_dim)

    def express(self, vec):
        """vec itself: cycles plus boundaries is the whole space."""
        _check_length(vec, self.ambient_dim)
        return list(vec)
