"""Exact sparse linear algebra over Q and F_p.

Everything downstream (Hopf structure checks, cyclic modules, spectral
sequences) reduces to kernels, images, quotients and equalizers of sparse
matrices with exact entries.  No floating point anywhere: scalars are
arbitrary-precision rationals or residues mod a prime, so every rank is
exact and every projection/section pair is an actual one-sided inverse.

Matrices act on column vectors: a matrix of shape (rows, cols) sends basis
vector e_j of k^cols to sum_i M[i,j] e_i.  Tensor products use row-major
indexing with the left factor slowest: (i, j) <-> i*dim_right + j.

A ``SparseMatrix`` is its row map, {row: {col: value}}, the one form that
products, elimination and the differential writer ``block_matrix`` read.
Other modules write a matrix by rows or by entries and read it through
``entries``, ``get`` and the operations here.  An ``IndexTable`` answers
the same calls (listed there), so only this module tells the two apart.

Every complex the package ranks is one ``ChainComplex`` (Weibel, *An
Introduction to Homological Algebra*, 1.2): Hochschild and cyclic
homology, Tor, and the rows, columns and total complex of the spectral
double complex.  Each C_n is a sum of labelled blocks, and
``block_matrix`` writes each d_n from signed terms addressed by label.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from types import SimpleNamespace

try:
    from gmpy2 import mpq as _mpq
except ImportError:
    _mpq = None


class LinAlgError(Exception):
    pass


class ShapeMismatch(LinAlgError):
    pass


class NotWellDefined(LinAlgError):
    """An operator failed to descend to a quotient or restrict to a subspace.

    This signals a construction bug upstream, not bad user input.
    """


class Inconsistent(LinAlgError):
    """Linear system has no solution."""


# ---------------------------------------------------------------------------
# fields


class RationalField:
    """The field Q.

    Values: an integral value is a plain ``int``; only a non-integral value
    is a ``Fraction`` (``gmpy2.mpq`` when gmpy2 is installed).  ``zero``,
    ``one``, ``from_int``, ``from_str`` and ``inv`` keep to this.  The
    sparse kernels combine values with ``+``, ``-`` and ``*`` only, which
    may leave an integral ``Fraction`` such as ``Fraction(2)`` inside an
    elimination; every ``SparseMatrix`` they build turns it back into an
    ``int``.  ``int``, ``Fraction`` and ``mpq`` compare, hash and ``str()``
    identically, so either form of a value gives the same equality and the
    same report.  Division happens only in ``inv``: ``int / int`` would
    give a float.
    """

    name = "Q"
    p = None
    zero = 0
    one = 1
    _frac = Fraction if _mpq is None else _mpq

    def __repr__(self):
        return "QQ"

    @staticmethod
    def _normal(q):
        return int(q.numerator) if q.denominator == 1 else q

    def from_int(self, n):
        return int(n)

    def from_str(self, s):
        try:
            return self._normal(self._frac(str(s)))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._normal(1 / self._frac(a))

    def is_zero(self, a):
        return a == 0

    def pivot_size(self, a):
        # smallest-numerator pivot heuristic keeps intermediate entries tame
        return (abs(a.numerator), a.denominator)


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015; the first 12 reach only 3.18e23).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality test for n < 3.3e24; larger n raise ValueError."""
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for a prime p.

    Values are ints in [0, p), one residue per class, so ``==`` on values
    (and on a ``SparseMatrix``'s row map) is equality in F_p.  The sparse kernels
    use native ``+``, ``-``, ``*`` and reduce with ``% p``.
    """

    zero = 0
    one = 1

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def __repr__(self):
        return f"GF({self.p})"

    def from_int(self, n):
        return n % self.p

    def from_str(self, s):
        s = str(s)
        if "/" in s:
            num, den = s.split("/")
            den = int(den) % self.p
            if den == 0:
                raise ValueError(f"denominator of {s!r} is divisible by {self.p}")
            return self.mul(int(num) % self.p, self.inv(den))
        return int(s) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def pivot_size(self, a):
        return (1, 1)


QQ = RationalField()


# ---------------------------------------------------------------------------
# sparse matrices


class SparseMatrix:
    """Immutable-by-convention sparse matrix over an exact field, stored as
    its row map ``{row: {col: value}}`` (Gustavson's row-wise form, *Two
    fast algorithms for sparse matrices*, 1978), with no empty row, no
    zero and every value in its field's canonical form (see
    ``RationalField`` and ``PrimeField``), so equality is ``==`` on row
    maps.  Rows and their entries keep the order they were written in,
    which is the order elimination reads them in.  The column map, the
    reduced row echelon form, the pivot columns behind the rank and
    whether the matrix is an identity are derived and cached on first use.
    Nothing writes to a row map after construction, so a cached value
    stays true, a product may hand back a factor or its rows unchanged, and
    two matrices may share a row dict.  An identity's row map is a
    read-only ``Mapping`` that makes each row when it is read.
    """

    __slots__ = ("rows", "cols", "field", "_rows_map", "_cols_map", "_rref", "_pivots",
                 "_identity")

    def __init__(self, rows, cols, field, rows_map=None):
        self.rows = rows
        self.cols = cols
        self.field = field
        self._rows_map = {} if rows_map is None else rows_map
        self._cols_map = None
        self._rref = None
        self._pivots = None
        self._identity = None

    # construction ---------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, field):
        return cls(rows, cols, field)

    @classmethod
    def identity(cls, n, field):
        m = cls(n, n, field, _Diagonal(n, field.one))
        m._identity = True
        return m

    @classmethod
    def from_entries(cls, rows, cols, field, entries):
        """The sum of the (row, col, value) ``entries``."""
        out = {}
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
            row = out.setdefault(i, {})
            row[j] = row.get(j, 0) + v
        return cls(rows, cols, field,
                   {i: r for i, row in out.items() if (r := _canonical_row(row, field.p))})

    # basic access ----------------------------------------------------------

    def get(self, i, j):
        row = self._rows_map.get(i)
        return self.field.zero if row is None else row.get(j, self.field.zero)

    def entries(self):
        """(row, col, value) for every entry, row by row, as ``IndexTable.entries``."""
        return ((i, j, v) for i, row in self._rows_map.items() for j, v in row.items())

    @property
    def nnz(self):
        return sum(map(len, self._rows_map.values()))

    def is_zero_matrix(self):
        return not self._rows_map

    def is_identity(self):
        if self._identity is None:
            rows = self._rows_map
            self._identity = (
                self.rows == self.cols
                and len(rows) == self.rows
                and all(len(row) == 1 and row.get(i) == 1 for i, row in rows.items())
            )
        return self._identity

    def rows_map(self):
        return self._rows_map

    def cols_map(self):
        if self._cols_map is None:
            self._cols_map = _columns_of(self._rows_map.items())
        return self._cols_map

    def matrix(self):
        return self

    def table(self, by_rows=False):
        """This operator's ``IndexTable`` over its columns, or with ``by_rows``
        its rows, read off the row map; None when a column (row) holds two."""
        idx = [-1] * ((self.rows if by_rows else self.cols) + 1)
        val = [0] * len(idx)
        for i, row in self._rows_map.items():
            for j, v in row.items():
                k, r = (i, j) if by_rows else (j, i)
                if idx[k] >= 0:
                    return None
                idx[k] = r
                val[k] = v
        return IndexTable(self.rows, self.cols, self.field, idx,
                          None if set(val) <= {0, 1} else val, by_rows)

    def column(self, j):
        """Column j as a rows x 1 matrix."""
        return SparseMatrix(self.rows, 1, self.field,
                            {i: {0: row[j]} for i, row in self._rows_map.items() if j in row})

    def __eq__(self, other):
        if not isinstance(other, (SparseMatrix, IndexTable)):
            return NotImplemented
        other = other.matrix()
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self._rows_map == other._rows_map

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # arithmetic -------------------------------------------------------------

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other, sign=1):
        # self's rows in order, then rows only other has; in a row, self's
        # entries, then those only other has
        self._same_shape(other)
        p = self.field.p
        out = dict(self._rows_map)
        for i, brow in other._rows_map.items():
            row = out.get(i)
            if row is None and sign == 1:
                out[i] = brow
                continue
            row = out[i] = {} if row is None else dict(row)
            for j, w in brow.items():
                v = row.get(j, 0) + sign * w
                if p is not None:
                    v %= p
                elif v.__class__ is not int:
                    v = _normal(v)
                if v:
                    row[j] = v
                else:
                    del row[j]
            if not row:
                del out[i]
        return SparseMatrix(self.rows, self.cols, self.field, out)

    def __neg__(self):
        return self.scale(self.field.from_int(-1))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return SparseMatrix.zeros(self.rows, self.cols, f)
        return SparseMatrix(self.rows, self.cols, f, {
            i: _canonical_row({j: c * v for j, v in row.items()}, f.p)
            for i, row in self._rows_map.items()})

    def __matmul__(self, other):
        """The row-by-row product: row i is the sum, over the entries (k, a)
        of row i of self, of a times row k of other, taken as its matrix."""
        other = other.matrix()
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # a product with an identity factor is the other factor, row order and all
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        p = self.field.p
        orows = other._rows_map
        out = {}
        for i, row in self._rows_map.items():
            if len(row) == 1:
                (k, a), = row.items()
                if a == 1:  # row i of the product is row k of other
                    if k in orows:
                        out[i] = orows[k]
                    continue
            acc = {}
            get = acc.get
            for k, a in row.items():
                orow = orows.get(k)
                if orow is not None:
                    for j, b in orow.items():
                        acc[j] = get(j, 0) + a * b
            # each entry is reduced once and zeros are dropped only here
            if p is None:
                acc = {j: v if v.__class__ is int else _normal(v) for j, v in acc.items() if v}
            else:
                acc = {j: w for j, v in acc.items() if (w := v % p)}
            if acc:
                out[i] = acc
        return SparseMatrix(self.rows, other.cols, self.field, out)

    def t(self):
        """The transpose: its row map is self's column map, and its column
        map self's row map."""
        m = SparseMatrix(self.cols, self.rows, self.field, self.cols_map())
        m._cols_map = self._rows_map
        return m

    def kron(self, other):
        f = self.field
        if self.is_identity() and other.is_identity():
            return SparseMatrix.identity(self.rows * other.rows, f)
        nr, nc, p = other.rows, other.cols, f.p
        if other.is_identity():  # row i1 * nr + i2 is row i1 with each column j1 at j1 * nc + i2
            return SparseMatrix(self.rows * nr, self.cols * nc, f, {
                i1 * nr + i2: {j1 * nc + i2: a for j1, a in row1.items()}
                for i1, row1 in self._rows_map.items() for i2 in range(nr)})
        if self.is_identity():  # row i1 * nr + i2 is row i2 of other shifted by i1 * nc
            orows = other._rows_map.items()
            return SparseMatrix(self.rows * nr, self.cols * nc, f, {
                i1 * nr + i2: {i1 * nc + j2: b for j2, b in row2.items()}
                for i1 in range(self.rows) for i2, row2 in orows})
        orows = list(other._rows_map.items())
        return SparseMatrix(self.rows * nr, self.cols * nc, f, {
            i1 * nr + i2: _canonical_row(
                {j1 * nc + j2: a * b for j1, a in row1.items() for j2, b in row2.items()}, p)
            for i1, row1 in self._rows_map.items() for i2, row2 in orows})

    @staticmethod
    def hstack(mats):
        mats = [m for m in mats if m.cols > 0] or mats[:1]
        rows, f = mats[0].rows, mats[0].field
        out = {}
        off = 0
        for m in mats:
            if m.rows != rows:
                raise ShapeMismatch("hstack row mismatch")
            for i, row in m._rows_map.items():
                shifted = {j + off: v for j, v in row.items()} if off else dict(row)
                if i in out:
                    out[i].update(shifted)
                else:
                    out[i] = shifted
            off += m.cols
        return SparseMatrix(rows, off, f, out)

    # elimination ------------------------------------------------------------

    def rref(self):
        """Reduced row echelon form: (pivot columns, rows as sparse dicts).

        The RREF is mathematically unique, so the result is canonical no
        matter which pivots the elimination picks; use it wherever a basis
        matters.  For a count alone, ``rank()`` is cheaper.
        """
        if self._rref is None:
            rows = list(self.rows_map().values())
            self._rref = _rref_rows(rows, self.cols, self.field)
        return self._rref

    def rank(self, cleared=frozenset()):
        """Exact rank, by forward elimination only (no back-substitution).

        Gives only the count; reuses the pivot count of a cached RREF.
        Over a field the rank does not depend on pivot order, so the
        short-row pivots of ``_echelon_rows`` change the cost, not the result.
        The rows in ``cleared`` are left out of the elimination, and the
        count is cached as the rank: only ``ChainComplex.homology_dims``
        passes rows that it has shown to change no kernel.  The echelon
        pivot columns are cached in ``_pivots``.
        """
        if self._pivots is None:
            if self._rref is not None:
                self._pivots = self._rref[0]
            else:
                rows = [r for i, r in self.rows_map().items() if i not in cleared]
                self._pivots = [c for c, _ in _echelon_rows(rows, self.cols, self.field)]
        return len(self._pivots)


class _Diagonal(Mapping):
    """The row map {i: {i: one} for i < n} of an n x n identity."""

    __slots__ = ("n", "one")

    def __init__(self, n, one):
        self.n, self.one = n, one

    def __getitem__(self, i):
        if 0 <= i < self.n:
            return {i: self.one}
        raise KeyError(i)

    def __iter__(self):
        return iter(range(self.n))

    def __len__(self):
        return self.n


def _echelon_rows(rows_in, ncols, field):
    """Forward elimination of sparse rows (dicts col -> value) to echelon form.

    Processes columns left to right.  Within a column the pivot is the
    shortest live row with an entry there (ties broken by ``pivot_size``,
    then row order), which keeps fill-in low in the structured Gaussian
    elimination manner of LaMacchia and Odlyzko.  The pivot row is scaled
    to a leading one and eliminated only from rows not yet pivoted.

    Returns [(pivot col, row)] in increasing pivot column: an echelon
    basis of the row space, not a canonical one, so its length is the
    rank.  The input rows are not modified.  Updates use native operators,
    with one ``% p`` per update over F_p (``field.p`` is None over Q).
    """
    p = field.p
    rows = {}
    col_index = {}  # col -> live unpivoted rows with an entry there
    for i, r in enumerate(rows_in):
        r = {c: v for c, v in r.items() if v}
        if not r:
            continue
        rows[i] = r
        for c in r:
            col_index.setdefault(c, set()).add(i)
    echelon = []
    for c in range(ncols):
        live = col_index.pop(c, None)
        if not live:
            continue
        piv = min(live, key=lambda i: (len(rows[i]), field.pivot_size(rows[i][c]), i))
        live.discard(piv)
        prow = rows.pop(piv)
        for cc in prow:
            if cc != c:
                col_index[cc].discard(piv)
        pv = prow.pop(c)
        if pv != 1:
            inv = field.inv(pv)
            if p is None:
                prow = {cc: v * inv for cc, v in prow.items()}
            else:
                prow = {cc: v * inv % p for cc, v in prow.items()}
        for i in live:
            r = rows[i]
            fac = r.pop(c)
            for cc, v in prow.items():
                old = r.get(cc)
                if old is None:
                    # -fac * v is nonzero: a product of nonzero field elements
                    r[cc] = -fac * v if p is None else -fac * v % p
                    col_index.setdefault(cc, set()).add(i)
                    continue
                nv = old - fac * v
                if p is not None:
                    nv %= p
                if nv:
                    r[cc] = nv
                else:
                    del r[cc]
                    col_index[cc].discard(i)
            if not r:
                del rows[i]
        prow[c] = 1
        echelon.append((c, prow))
    return echelon


def _rref_rows(rows_in, ncols, field):
    """Row-reduce sparse rows (dicts col -> value) to the unique RREF.

    Runs the forward pass of ``_echelon_rows``, then back-substitutes from
    the last pivot up, so the result is canonical: this is the form that
    gives bases (``kernel``, ``span_columns``, ``quotient_by_columns``,
    ``solve``).  Returns (pivot_cols, rows) with rows ordered by pivot
    column and every value canonical, so the bases are written from them
    as they are.
    """
    p = field.p
    echelon = _echelon_rows(rows_in, ncols, field)
    by_col = dict(echelon)
    for pc, row in reversed(echelon):
        # rows below are already reduced and hold no other pivot column,
        # so subtracting them clears pivot entries without creating new ones
        for cc in [cc for cc in row if cc != pc and cc in by_col]:
            fac = row.pop(cc)
            for c2, v in by_col[cc].items():
                if c2 == cc:
                    continue
                nv = row.get(c2, 0) - fac * v
                if p is not None:
                    nv %= p
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)
    return [c for c, _ in echelon], [_canonical_row(r, p) if p is None else r for _, r in echelon]


# ---------------------------------------------------------------------------
# signed index tables


class IndexTable:
    """A matrix over ``field`` with at most one entry in each column, or
    with ``by_rows`` in each row, as a signed index table.

    ``idx[j]`` is the row of column j's entry and ``val[j]`` its value; with
    ``by_rows``, ``idx[i]`` is the column of row i's entry.  An empty column
    (row) is ``-1``/``0``, and both lists end with that sentinel, so
    indexing by ``-1`` reads an empty one.  ``a @ b`` of two tables of one
    orientation is one list pass that reads the outer table at the inner
    one's indices: a at b's rows over columns, b at a's columns over rows.
    The values are multiplied, and the sentinel is carried through.  A
    product of nonzero field elements is never zero, so an empty column
    (row) stays ``-1``/``0``, the table of a product is the product of the
    tables, and two tables of one orientation are equal exactly when their
    matrices are.  ``val`` is None when every entry is 1, as on a group
    algebra: a product of two such tables composes its indices alone.

    A table and a ``SparseMatrix`` answer one vocabulary: ``rows``,
    ``cols``, ``entries()``, ``matrix()``, ``table(by_rows)`` (None when a
    column, a row, holds two entries), ``is_identity()``, ``@``, a matrix
    when either factor is one or the two tables differ in orientation, and
    ``==``, which compares them as matrices.
    """

    __slots__ = ("rows", "cols", "field", "idx", "val", "by_rows")

    def __init__(self, rows, cols, field, idx, val, by_rows=False):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.idx = idx
        self.val = val
        self.by_rows = by_rows

    @classmethod
    def identity(cls, n, field, by_rows=False):
        return cls(n, n, field, [*range(n), -1], None, by_rows)

    def __matmul__(self, other):
        if not isinstance(other, IndexTable) or self.by_rows != other.by_rows:
            return self.matrix() @ other
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        outer, inner = (other, self) if self.by_rows else (self, other)
        ia, va, p = outer.idx, outer.val, self.field.p
        ib, vb = inner.idx, inner.val
        idx = [ia[r] for r in ib]
        if vb is None:
            val = None if va is None else [va[r] for r in ib]
        elif va is None:
            val = [v if i >= 0 else 0 for i, v in zip(idx, vb)]
        elif p is None:
            val = [va[r] * v for r, v in zip(ib, vb)]
        else:
            val = [va[r] * v % p for r, v in zip(ib, vb)]
        return IndexTable(self.rows, other.cols, self.field, idx, val, self.by_rows)

    def _values(self):
        return [int(i >= 0) for i in self.idx] if self.val is None else self.val

    def entries(self):
        """(row, col, value) for every entry, in the order of ``idx``."""
        index = range(len(self.idx) - 1)
        values = repeat(1) if self.val is None else self.val
        triples = zip(index, self.idx, values) if self.by_rows else zip(self.idx, index, values)
        return compress(triples, map((-1).__lt__, self.idx))

    def matrix(self):
        return SparseMatrix(self.rows, self.cols, self.field,
                            _columns_of((j, {i: v}) for i, j, v in self.entries()))

    def table(self, by_rows=False):
        """Itself in its own orientation; in the other, each entry's position
        and index trade places, and None when an index repeats."""
        if by_rows == self.by_rows:
            return self
        idx = [-1] * ((self.rows if by_rows else self.cols) + 1)
        val = [0] * len(idx)
        for k, (r, v) in enumerate(zip(self.idx, repeat(1) if self.val is None else self.val)):
            if r >= 0:  # skips empty positions and the closing sentinel
                if idx[r] >= 0:
                    return None
                idx[r] = k
                val[r] = v
        return IndexTable(self.rows, self.cols, self.field, idx,
                          None if self.val is None else val, by_rows)

    def is_identity(self):
        n = self.rows
        return self.cols == n and self.idx == [*range(n), -1] and \
            (self.val is None or self.val[:n] == [1] * n)

    def __eq__(self, other):
        if not isinstance(other, IndexTable):
            return NotImplemented  # a matrix compares the two as matrices
        if self.by_rows != other.by_rows:
            return self.matrix() == other
        if (self.rows, self.cols, self.idx) != (other.rows, other.cols, other.idx):
            return False
        return self.val is other.val is None or self._values() == other._values()


def _kron_table(tb, left, right):
    """The table of id_left (x) tb (x) id_right: position (lft, mid, rgt)
    holds index (lft * n + tb.idx[mid]) * right + rgt, where n is the
    range of tb's indices, and -1 where tb's is empty."""
    n = tb.cols if tb.by_rows else tb.rows
    block = []
    for r in tb.idx[:-1]:
        block += range(r * right, (r + 1) * right) if r >= 0 else [-1] * right
    offsets = range(0, left * n * right, n * right)
    if -1 in block:
        idx = [x + off if x >= 0 else -1 for off in offsets for x in block]
    else:
        idx = [x + off for off in offsets for x in block]
    idx.append(-1)
    val = None
    if tb.val is not None:
        val = [v for v in tb.val[:-1] for _ in range(right)] * left + [0]
    return IndexTable(left * tb.rows * right, left * tb.cols * right, tb.field, idx, val,
                      tb.by_rows)


def _permutation_table(target, field, by_rows):
    """The table of the permutation matrix that sends index i to target[i]."""
    if by_rows:
        inverse = [0] * len(target)
        for i, t in enumerate(target):
            inverse[t] = i
        target = inverse
    n = len(target)
    return IndexTable(n, n, field, [*target, -1], None, by_rows)


# ---------------------------------------------------------------------------
# subquotient spaces


class SubquotientSpace:
    """A subspace or quotient (or subquotient) of k^ambient_dim.

    Presented constructively by a projection (ambient -> reduced) and a
    section (reduced -> ambient) with projection @ section = identity.
    The space is defined on its carrier im(section) + span(rel_cols),
    and the columns of ``rel_cols`` are its relations: they are linearly
    independent and the projection kills them, so

        carrier intersect ker(projection) = span(rel_cols).

    A pure quotient is one whose carrier is the whole ambient, which is
    exactly when dim + rel_cols.cols == ambient_dim (``is_quotient``);
    then span(rel_cols) = ker(projection).  A pure subspace has no
    relations.
    """

    __slots__ = ("ambient_dim", "dim", "projection", "section", "rel_cols", "_tables")

    def __init__(self, projection, section, rel_cols=None):
        if projection.cols != section.rows or projection.rows != section.cols:
            raise ShapeMismatch("projection/section shapes incompatible")
        self.ambient_dim = projection.cols
        self.dim = projection.rows
        self.projection = projection
        self.section = section
        if rel_cols is None:
            rel_cols = SparseMatrix.zeros(self.ambient_dim, 0, projection.field)
        self.rel_cols = rel_cols
        self._tables = {}
        if not (projection @ section).is_identity():
            raise NotWellDefined("projection @ section is not the identity")

    @classmethod
    def full(cls, n, field):
        ident = SparseMatrix.identity(n, field)
        return cls(ident, ident)

    @property
    def field(self):
        return self.projection.field

    @property
    def is_quotient(self):
        return self.dim + self.rel_cols.cols == self.ambient_dim

    def __repr__(self):
        return (f"SubquotientSpace(dim={self.dim}, ambient={self.ambient_dim}, "
                f"rel={self.rel_cols.cols})")

    def tables(self, by_rows=False):
        """(projection, section) as ``IndexTable``s of one orientation, for
        ``induced_table``, with an identity left as None: composing with it
        changes nothing, so a full space costs no pass.  None instead of the
        pair when either has two entries in one column (row), or when the
        space has relations and is not a pure quotient.  Cached."""
        if by_rows not in self._tables:
            ends, pair = (self.projection, self.section), None
            if self.is_quotient or not self.rel_cols.cols:
                pair = [None if m.is_identity() else m.table(by_rows) for m in ends]
                if any(tb is None and not m.is_identity() for tb, m in zip(pair, ends)):
                    pair = None
            self._tables[by_rows] = pair
        return self._tables[by_rows]

    def then(self, inner):
        """Compose with a subquotient of this space's reduced coordinates."""
        if inner.ambient_dim != self.dim:
            raise ShapeMismatch("inner subquotient does not live on reduced space")
        proj = inner.projection @ self.projection
        sect = self.section @ inner.section
        # ker(q p) on the carrier = ker p + s(ker q)
        rel = SparseMatrix.hstack([self.rel_cols, self.section @ inner.rel_cols])
        return SubquotientSpace(proj, sect, rel)

    def tensor(self, other):
        """Tensor product of subquotients, on the kron-indexed ambient."""
        proj = self.projection.kron(other.projection)
        sect = self.section.kron(other.section)
        if other.is_quotient:
            carrier = SparseMatrix.identity(other.ambient_dim, self.field)
        else:
            carrier = SparseMatrix.hstack([other.section, other.rel_cols])
        # relations: rel (x) carrier + im(section) (x) rel
        rel = SparseMatrix.hstack([self.rel_cols.kron(carrier), self.section.kron(other.rel_cols)])
        return SubquotientSpace(proj, sect, rel)


def span_contains(basis, candidates):
    """True when every column of ``candidates`` lies in the column span of ``basis``."""
    if candidates.is_zero_matrix():
        return True
    if basis.cols == 0:
        return False
    both = SparseMatrix.hstack([basis, candidates])
    return both.rank() == basis.rank()


def induced_map(f, dom, cod):
    """Descend/restrict the ambient map ``f`` to reduced coordinates.

    ``f`` is a matrix or a ``LegChain``: it is only applied on the right,
    to the columns of ``dom.section`` and ``dom.rel_cols``.  Returns
    cod.projection @ (f @ dom.section) after two checks, which together
    send the carrier of ``dom`` into the carrier of ``cod`` and its
    relations into the relations of ``cod``:

    * descent: cod.projection kills f @ dom.rel_cols;
    * restriction, unless ``cod.is_quotient`` (its carrier is everything):
      every image x, of the section or of a relation, has
      x - cod.section @ cod.projection @ x in span(cod.rel_cols).  That
      difference lies in ker(cod.projection), and x is in the carrier
      exactly when it lies in the carrier's part of that kernel.

    A failure raises NotWellDefined: the map is not defined on the subquotient.
    The restriction check reads the operator it hands back as it is, since
    a product leaves no cache on its factors.
    """
    if f.cols != dom.ambient_dim or f.rows != cod.ambient_dim:
        raise ShapeMismatch("map shape does not match ambient spaces")
    image = f @ dom.section
    reduced = cod.projection @ image
    images = [image]
    if dom.rel_cols.cols:
        img = f @ dom.rel_cols
        if not (cod.projection @ img).is_zero_matrix():
            raise NotWellDefined("map does not descend: relations not preserved")
        images.append(img)
    if not cod.is_quotient:
        # the relation images are killed by the projection: each is its own difference
        images[0] = image - cod.section @ reduced
        if not span_contains(cod.rel_cols, SparseMatrix.hstack(images)):
            where = "carrier" if cod.rel_cols.cols else "subspace"
            raise NotWellDefined(f"map does not restrict: image leaves the {where}")
    return reduced


def induced_table(chain, dom, cod, by_rows=False):
    """``induced_map(chain, dom, cod)`` composed from index tables, for a
    monomial chain between spaces whose projection and section are
    monomial: op = cod.projection @ chain.table(by_rows) @ dom.section, as
    an ``IndexTable`` of that orientation.  An identity projection or
    section is left out, so between full spaces this is the chain's table
    itself.  None when a leg map of the chain, dom or cod has no table in
    that orientation (``SubquotientSpace.tables``).

    The checks are those of ``induced_map``, with its messages, as
    comparisons of tables.  A dom with relations is a pure quotient here,
    so span(dom.rel_cols) = ker(dom.projection), and a map kills it
    exactly when it factors through dom.projection:

    * descent: cod.projection @ table == op @ dom.projection;
    * restriction, unless ``cod.is_quotient`` (then cod has no relations):
      cod.section @ op == table @ dom.section, and the table kills
      dom's relations, whose images must lie in cod's zero relation span:
      table == table @ dom.section @ dom.projection.
    """
    if chain.cols != dom.ambient_dim or chain.rows != cod.ambient_dim:
        raise ShapeMismatch("map shape does not match ambient spaces")
    ends = dom.tables(by_rows), cod.tables(by_rows)
    tb = None if None in ends else chain.table(by_rows)
    if tb is None:
        return None
    (dom_proj, sect), (proj, cod_sect) = ends
    image = tb if sect is None else tb @ sect
    op = image if proj is None else proj @ image
    rels = dom.rel_cols.cols
    if rels and (tb if proj is None else proj @ tb) != op @ dom_proj:
        raise NotWellDefined("map does not descend: relations not preserved")
    if not cod.is_quotient and (cod_sect @ op != image or rels and tb != image @ dom_proj):
        raise NotWellDefined("map does not restrict: image leaves the subspace")
    return op


# ---------------------------------------------------------------------------
# kernels, images, quotients, equalizers


def kernel(m):
    """Null space of m as a subspace of its column space k^cols."""
    pivcols, rrows = m.rref()
    f = m.field
    pivset = set(pivcols)
    free = [c for c in range(m.cols) if c not in pivset]
    by_col = {}  # column -> (pivot column, -RREF entry) pairs, in pivot order
    for pc, row in zip(pivcols, rrows):
        for c, v in row.items():
            by_col.setdefault(c, []).append((pc, f.neg(v)))
    sect = _columns_of((k, dict(((fc, f.one), *by_col.get(fc, ())))) for k, fc in enumerate(free))
    section = SparseMatrix(m.cols, len(free), f, sect)
    proj = SparseMatrix(len(free), m.cols, f, {k: {c: f.one} for k, c in enumerate(free)})
    return SubquotientSpace(proj, section)


def _columns(m):
    """m's nonzero columns in increasing index: rows to eliminate, in an
    order that does not depend on the order m's rows were written in."""
    return [col for _, col in sorted(m.cols_map().items())]


def span_columns(m):
    """Column span of m as a subspace of k^rows, with canonical echelon basis."""
    f = m.field
    pivcols, rrows = _rref_rows(_columns(m), m.rows, f)
    section = SparseMatrix(m.rows, len(rrows), f, _columns_of(enumerate(rrows)))
    proj = SparseMatrix(len(rrows), m.rows, f, {k: {c: f.one} for k, c in enumerate(pivcols)})
    return SubquotientSpace(proj, section)


def quotient_by_columns(ambient_dim, cols):
    """Quotient of k^ambient_dim by the span of the given columns.

    The section picks the non-pivot coordinates as representatives, so the
    choice of lift is deterministic and reused everywhere.
    """
    f = cols.field
    if cols.rows != ambient_dim:
        raise ShapeMismatch("relation columns do not live in the ambient space")
    pivcols, rrows = _rref_rows(_columns(cols), ambient_dim, f)
    pivset = set(pivcols)
    nonpiv = [c for c in range(ambient_dim) if c not in pivset]
    red = {c: k for k, c in enumerate(nonpiv)}
    proj = {red[c]: {c: f.one} for c in nonpiv}
    for pc, row in zip(pivcols, rrows):
        for c, v in row.items():
            if c != pc:
                proj[red[c]][pc] = f.neg(v)
    projection = SparseMatrix(len(nonpiv), ambient_dim, f, proj)
    section = SparseMatrix(ambient_dim, len(nonpiv), f, {c: {red[c]: f.one} for c in nonpiv})
    relbasis = SparseMatrix(ambient_dim, len(rrows), f, _columns_of(enumerate(rrows)))
    return SubquotientSpace(projection, section, relbasis)


def equalizer(f, g):
    """Equalizer of two parallel maps: ker(f - g) as a subspace of the domain."""
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatch("equalizer of maps with different shapes")
    return kernel(f - g)


def coequalizer(f, g):
    """Coequalizer of two parallel maps: codomain / im(f - g)."""
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatch("coequalizer of maps with different shapes")
    return quotient_by_columns(f.rows, f - g)


def homology_space(out_map, in_map):
    """ker(out_map) / im(in_map) as a subquotient of the middle space.

    Raises NotWellDefined unless im(in_map) really sits inside ker(out_map),
    i.e. unless out_map @ in_map = 0.
    """
    if not composite_is_zero(out_map, in_map):
        raise NotWellDefined("not a complex: composite of differentials is nonzero")
    z = kernel(out_map)
    q = quotient_by_columns(z.dim, z.projection @ in_map)
    return z.then(q)


def composite_is_zero(a, b):
    """True when a @ b is zero.  The product is taken one row at a time and
    each row is dropped once it is seen to vanish, so the product, which can
    be far larger than its factors before its terms cancel, is never held."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"{a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    p = a.field.p
    brows = b.rows_map()
    for arow in a.rows_map().values():
        acc = {}
        get = acc.get
        for k, x in arow.items():
            brow = brows.get(k)
            if brow:
                for j, y in brow.items():
                    acc[j] = get(j, 0) + x * y
        if any(acc.values()) if p is None else any(v % p for v in acc.values()):
            return False
    return True


def block_matrix(row_dims, col_dims, terms, field):
    """The sum of ``terms``, each (sign, operator, row block, column block)
    with an ``IndexTable``, a ``SparseMatrix`` or any operator with rows,
    cols and ``entries()``: every differential the package ranks is
    written here, a normalized one from the entries that
    ``ChainComplex.quotient`` keeps as it reads each term.  ``row_dims``
    and ``col_dims`` map block labels, in order, to sizes, which fix the
    offsets.  The entries are summed in term order straight into the row
    map that elimination and the d^2 check read, zeros and empty rows
    dropped; ``terms`` may be a generator, asked for a term once the last
    one's entries are read, so only the sum and one operator are held.
    Elimination cost depends on the order rows are first written.
    """
    def offsets(dims):
        out, off = {}, 0
        for label, size in dims.items():
            out[label] = off
            off += size
        return out, off

    row_off, rows = offsets(row_dims)
    col_off, cols = offsets(col_dims)
    out = {}
    for sign, op, r, c in terms:
        if (op.rows, op.cols) != (row_dims[r], col_dims[c]):
            raise ShapeMismatch(f"block ({r}, {c}) is {op.rows}x{op.cols}, "
                                f"not {row_dims[r]}x{col_dims[c]}")
        ro, co = row_off[r], col_off[c]
        entries = op.entries()
        if ro or co:
            entries = ((i + ro, j + co, v) for i, j, v in entries)
        _add_entries(out, entries, sign, field.p)
    return SparseMatrix(rows, cols, field, {i: row for i, row in out.items() if row})


def _add_entries(out, entries, sign, p):
    """Add sign times the (row, col, value) ``entries`` into the row map
    ``out``, deleting zero sums; an emptied row keeps its place."""
    for i, j, v in entries:
        if sign < 0:
            v = -v if p is None else p - v
        row = out.get(i)
        if row is None:
            out[i] = {j: v}
        elif j not in row:
            row[j] = v
        elif v := row[j] + v if p is None else (row[j] + v) % p:
            row[j] = v if v.__class__ is int else _normal(v)
        else:
            del row[j]


def _split(op, row_of, col_of, lost):
    """Read the (row, col, value) ``entries()`` of a term op once, in order,
    for ``ChainComplex.quotient``: yield those on a kept row and column
    relabelled by ``row_of`` and ``col_of``, append those on a kept row and
    a dropped column to ``lost`` with the row relabelled, skip the rest."""
    for i, j, v in op.entries():
        if (k := row_of[i]) >= 0:
            if (c := col_of[j]) >= 0:
                yield k, c, v
            else:
                lost.append((k, j, v))


class ChainComplex:
    """A chain complex whose C_n is the sum of the labelled blocks
    ``blocks(n)``, an ordered {label: dim}, empty below the bottom degree,
    where d is zero.  ``terms(n)`` yields the ``block_matrix`` terms of
    d_n: C_n -> C_{n-1}.  Each d_n and homology space is built once and kept.
    ``quotient`` gives the normalized complex C/D by one rule.
    """

    def __init__(self, field, blocks, terms, degeneracies=None):
        self.field = field
        self.terms = terms
        self._blocks = blocks
        self._degeneracies = degeneracies
        self._relabel = {}
        self._d = {}
        self._homology = {}

    def quotient(self, degeneracies):
        """C/D, D spanned by the images of the degeneracies whose column
        ``IndexTable``s into block ``label`` are ``degeneracies(label)`` (a
        label names one space in every degree it appears in).  Each image
        is spanned by the coordinates its table hits, so C/D is a
        coordinate quotient, which needs no elimination: its block is the
        coordinates that no table hits, in order.  A term of block (r, c),
        table or matrix, is written on C/D by reading its ``entries()``
        once, in their order, through the relabellings of blocks r and c:
        an entry on a dropped row is skipped, one on a kept row and column
        is written relabelled, and one on a kept row and a dropped column
        is summed with the term's sign.  Those sums must vanish over the
        terms, which certifies d(D) in D; NotWellDefined is raised
        otherwise.  Each block's relabelling is built once and kept."""
        return ChainComplex(self.field, self._blocks, self.terms, degeneracies)

    def blocks(self, n):
        full = self._blocks(n)
        if self._degeneracies is None:
            return full
        return {label: self._relabelling(label, size)[1] for label, size in full.items()}

    def _relabelling(self, label, size):
        """Block ``label``'s coordinates numbered in order on C/D, -1 where
        dropped, then a table's sentinel -1, and the number kept; built
        once and kept."""
        if label not in self._relabel:
            relabel = [0] * size + [-1]
            for tb in self._degeneracies(label):
                if tb.by_rows or tb.rows != size:
                    raise ShapeMismatch(f"no column table into block {label} of size {size}")
                for i in tb.idx:
                    relabel[i] = -1
            kept = list(compress(range(size), map((0).__eq__, relabel)))
            for k, i in enumerate(kept):
                relabel[i] = k
            self._relabel[label] = relabel, len(kept)
        return self._relabel[label]

    def _on_quotient(self, n, terms):
        """The terms of d_n written on C/D by ``quotient``'s rule; a term's
        certificate entries are summed once ``block_matrix`` has read it."""
        relabel = {label: self._relabelling(label, size)
                   for label, size in {**self._blocks(n - 1), **self._blocks(n)}.items()}
        lost = {}
        for sign, op, r, c in terms:
            (row_of, dim_r), (col_of, dim_c) = relabel[r], relabel[c]
            if (op.rows, op.cols) != (len(row_of) - 1, len(col_of) - 1):
                raise ShapeMismatch(f"block ({r}, {c}) is {op.rows}x{op.cols}, "
                                    f"not {len(row_of) - 1}x{len(col_of) - 1}")
            off = []
            kept = partial(_split, op, row_of, col_of, off)
            yield sign, SimpleNamespace(rows=dim_r, cols=dim_c, entries=kept), r, c
            _add_entries(lost.setdefault((r, c), {}), off, sign, self.field.p)
        for (r, c), rows in lost.items():
            for i, row in rows.items():
                for j in row:
                    raise NotWellDefined(f"not a quotient complex: d sends the dropped column "
                                         f"{j} of block {c} to the kept row {i} of block {r}")

    @classmethod
    def total(cls, field, cells, dh, dv):
        """Tot of a double complex on a window: Tot_n is the sum of the cells
        ``cells(n)``, {(p, q): dim}, and d is dh + dv where it stays in the
        window.  With dv signed, d^2 = 0 holds each square of the window."""
        def terms(n):
            tgt = cells(n - 1)
            for p, q in cells(n):
                if (p - 1, q) in tgt:
                    yield 1, dh(p, q), (p - 1, q), (p, q)
                if (p, q - 1) in tgt:
                    yield 1, dv(p, q), (p, q - 1), (p, q)
        return cls(field, cells, terms)

    def dim(self, n):
        return sum(self.blocks(n).values())

    def d(self, n):
        if n not in self._d:
            rows, cols = self.blocks(n - 1), self.blocks(n)
            terms = self.terms(n) if rows and cols else ()
            if self._degeneracies is not None:
                terms = self._on_quotient(n, terms)
            self._d[n] = block_matrix(rows, cols, terms, self.field)
        return self._d[n]

    def inclusion(self, n, label):
        """Block ``label`` into C_n; its transpose is the projection onto it."""
        dim = self.blocks(n)[label]
        return block_matrix(self.blocks(n), {label: dim},
                            [(1, SparseMatrix.identity(dim, self.field), label, label)], self.field)

    def homology(self, n):
        """H_n as a subquotient of C_n; ``homology_space`` checks d_n d_{n+1} = 0."""
        if n not in self._homology:
            self._homology[n] = homology_space(self.d(n), self.d(n + 1))
        return self._homology[n]

    def homology_dims(self, upto):
        """dim C_n - rank d_n - rank d_{n+1} for n <= upto; raises
        NotWellDefined unless d_{n-1} d_n = 0.  Ranks are taken in increasing
        degree, each with clearing (the dual of the twist of Chen and Kerber,
        2011): rank d_{n+1} is taken on its rows off the pivot columns P_n of
        d_n.  A vector of ker d_n is determined by its coordinates off P_n,
        so once d_n d_{n+1} = 0 is checked, dropping the rows P_n keeps the
        kernel of d_{n+1}, hence its rank and a valid P_{n+1}.  An empty d_n
        is not eliminated and leaves P_n empty."""
        dims, ranks, pivots = [self.dim(n) for n in range(upto + 2)], [], ()
        for n in range(upto + 2):
            d = self.d(n)
            if n and not composite_is_zero(self.d(n - 1), d):
                raise NotWellDefined(f"not a complex: d^2 != 0 at degree {n}")
            ranks.append(d.rank(cleared=frozenset(pivots)) if d.rows and d.cols else 0)
            pivots = d._pivots or ()
        return [dims[n] - ranks[n] - ranks[n + 1] for n in range(upto + 1)]


def solve(a, b):
    """A particular solution X of a @ X = b (free variables set to zero)."""
    if a.rows != b.rows:
        raise ShapeMismatch("solve: row mismatch")
    f = a.field
    aug = SparseMatrix.hstack([a, b]).rows_map()
    pivcols, rrows = _rref_rows([aug[i] for i in sorted(aug)], a.cols + b.cols, f)
    out = {}
    for pc, row in zip(pivcols, rrows):
        if pc >= a.cols:
            raise Inconsistent("solve: system has no solution")
        if row := {c - a.cols: v for c, v in row.items() if c >= a.cols}:
            out[pc] = row
    return SparseMatrix(a.cols, b.cols, f, out)


def inverse(a):
    if a.rows != a.cols:
        raise ShapeMismatch("inverse of non-square matrix")
    if a.rank() != a.rows:
        raise Inconsistent("matrix is singular")
    return solve(a, SparseMatrix.identity(a.rows, a.field))


# ---------------------------------------------------------------------------
# tensor index conventions


def tensor_index(dims, multi):
    """Flatten a multi-index, row-major with the left factor slowest."""
    idx = 0
    for d, i in zip(dims, multi):
        if not 0 <= i < d:
            raise IndexError("component out of range")
        idx = idx * d + i
    return idx

def tensor_unindex(dims, idx):
    """Inverse of tensor_index."""
    multi = []
    for d in reversed(dims):
        multi.append(idx % d)
        idx //= d
    if idx:
        raise IndexError("flat index out of range")
    return tuple(reversed(multi))


def tensor_dim(dims):
    n = 1
    for d in dims:
        n *= d
    return n


def apply_on_leg(op, dims, pos, arity=1):
    """id (x) op (x) id acting on legs [pos, pos+arity) of a tensor product.

    ``op`` maps the tensor product of dims[pos:pos+arity] into a space of
    dimension op.rows.  Returns the assembled sparse matrix.
    """
    f = op.field
    left = tensor_dim(dims[:pos])
    mid_in = tensor_dim(dims[pos : pos + arity])
    right = tensor_dim(dims[pos + arity :])
    if op.cols != mid_in:
        raise ShapeMismatch("operator arity does not match leg dims")
    mid_out = op.rows
    out = {}
    for r, row in op.rows_map().items():
        for lft in range(left):
            base_r, base_c = (lft * mid_out + r) * right, lft * mid_in * right
            for rgt in range(right):
                out[base_r + rgt] = {base_c + c * right + rgt: v for c, v in row.items()}
    return SparseMatrix(left * mid_out * right, left * mid_in * right, f, out)


_normal = RationalField._normal


def _canonical_row(row, p):
    """``row`` with zeros dropped and every value canonical: reduced once
    over F_p, and over Q an int where it is integral."""
    if p is None:
        return {j: v if v.__class__ is int else _normal(v) for j, v in row.items() if v}
    return {j: w for j, v in row.items() if (w := v % p)}


def _columns_of(rows):
    """The transpose of (index, {col: value}) pairs as a row map: each
    column and its entries in the order first met."""
    out = {}
    for k, row in rows:
        for c, v in row.items():
            col = out.get(c)
            if col is None:
                out[c] = {k: v}
            else:
                col[k] = v
    return out


def permutation_matrix(dims, perm, field):
    """Permutation of tensor legs; target tuple j is source tuple (t[perm[k]])_k."""
    return LegChain(dims, field).perm(perm).matrix()


class LegChain:
    """A composite of leg maps and leg permutations, kept as its steps.

    Starts from the input leg dims; ``leg(op, pos, arity, out_dims)`` adds
    id (x) op (x) id on legs [pos, pos+arity) (conventions of
    ``apply_on_leg``; ``out_dims``, by default one leg of dimension op.rows,
    replaces those legs) and ``perm(perm)`` the permutation of the legs that
    makes target leg k source leg perm[k], each returning a new chain.
    ``rows`` and ``cols`` let ``induced_map`` take a chain where it takes a
    matrix.  ``matrix()`` is ``chain @ identity``, for a chain that is
    itself used as a structure map.

    ``chain @ x`` applies every step in one pass over the column set x, so
    the operator is never assembled over the whole ambient.  It carries
    x's row map {row: {col: value}} from step to step, and the last step's
    rows are the result's: a permutation relabels the rows and leaves
    their entries alone, and a leg step sends each row through the column
    of op that the row's leg digits select.  A row met with the value 1 is
    handed on as it is, so the result may share row dicts with x, and a
    row dict is copied before the first sum written into it, so x's rows
    are never changed.  Over F_p a product with any other value is
    reduced at once.  Each row is reduced once, at the end, and only when
    a sum, or over Q a product with a value other than 1 or -1, may have
    left a zero or a value out of canonical form.
    """

    __slots__ = ("in_dims", "dims", "field", "steps", "rows", "cols")

    def __init__(self, dims, field, steps=(), out_dims=None):
        self.in_dims = list(dims)
        self.dims = self.in_dims if out_dims is None else out_dims
        self.field = field
        self.steps = steps
        self.rows = tensor_dim(self.dims)
        self.cols = tensor_dim(self.in_dims)

    def leg(self, op, pos, arity=1, out_dims=None):
        out_dims = [op.rows] if out_dims is None else list(out_dims)
        if op.cols != tensor_dim(self.dims[pos:pos + arity]) or op.rows != tensor_dim(out_dims):
            raise ShapeMismatch("operator arity does not match leg dims")
        dims = self.dims[:pos] + out_dims + self.dims[pos + arity:]
        return LegChain(self.in_dims, self.field, self.steps + ((op, pos, arity, out_dims),), dims)

    def perm(self, perm):
        if sorted(perm) != list(range(len(self.dims))):
            raise ShapeMismatch("not a permutation of legs")
        dims = [self.dims[p] for p in perm]
        return LegChain(self.in_dims, self.field, self.steps + ((list(perm),),), dims)

    def __matmul__(self, x):
        if x.rows != self.cols:
            raise ShapeMismatch(f"chain on {self.cols} coordinates @ {x.rows}x{x.cols}")
        if not self.steps:
            return x
        p = self.field.p
        rows, dims, loose = x.rows_map(), self.in_dims, False
        for step in self.steps:
            if len(step) == 1:
                target, dims = _relabelling(rows, dims, step[0])
                rows = {target[i]: row for i, row in rows.items()}
            else:
                rows, dims, step_loose = _leg_rows(rows, dims, p, *step)
                loose = loose or step_loose
        if loose:
            rows = {i: r for i, row in rows.items() if (r := _canonical_row(row, p))}
        return SparseMatrix(self.rows, x.cols, self.field, rows)

    def matrix(self):
        return self @ SparseMatrix.identity(self.cols, self.field)

    def table(self, by_rows=False):
        """The chain's ``IndexTable`` over every column, or with ``by_rows``
        over every row, assembled step by step from the tables of the leg
        maps and permutations; None when a leg map has two entries in one
        column (row)."""
        f, dims, out = self.field, self.in_dims, None
        for step in self.steps:
            if len(step) == 1:
                target, dims = _relabelling(None, dims, step[0])
                tb = _permutation_table(target, f, by_rows)
            else:
                op, pos, arity, out_dims = step
                tb = op.table(by_rows)
                if tb is None:
                    return None
                tb = _kron_table(tb, tensor_dim(dims[:pos]), tensor_dim(dims[pos + arity:]))
                dims = dims[:pos] + out_dims + dims[pos + arity:]
            out = tb if out is None else tb @ out
        return IndexTable.identity(self.cols, f, by_rows) if out is None else out


def _relabelling(rows, dims, perm):
    """A permutation step of ``LegChain``: where each row index goes.

    Source legs that stay adjacent move as one block, read off an index
    with one division.  Returns (target, permuted dims): ``target[i]`` is
    the new index of row i, from a dict of the rows alone when that takes
    fewer steps to build than a list of every index.  ``rows`` None asks
    for the list."""
    blocks = []  # [first, end) source legs, in target order
    for src in perm:
        if blocks and blocks[-1][1] == src:
            blocks[-1][1] += 1
        else:
            blocks.append([src, src + 1])
    moves = []  # (stride in the source, size, stride in the target)
    stride = 1
    for first, end in reversed(blocks):
        size = tensor_dim(dims[first:end])
        moves.append((tensor_dim(dims[end:]), size, stride))
        stride *= size
    out_dims = [dims[q] for q in perm]
    if rows is not None and len(rows) * len(moves) < stride:
        keys = list(rows)
        targets = [0] * len(keys)
        for src, size, tgt in moves:
            targets = [t + i // src % size * tgt for t, i in zip(targets, keys)]
        return dict(zip(keys, targets)), out_dims
    target = [0]
    for src, size, tgt in sorted(moves, reverse=True):  # source order
        target = [base + t for base in target for t in range(0, size * tgt, tgt)]
    return target, out_dims


def _leg_rows(rows, dims, p, op, pos, arity, out_dims):
    """A leg step of ``LegChain``: the rows of (id (x) op (x) id) @ x from
    the rows of x.  Returns (rows, new leg dims, whether a value may be
    zero or out of canonical form: two rows were summed, or over Q a row
    was scaled by a value other than 1 or -1)."""
    right = tensor_dim(dims[pos + arity:])
    block_in, block_out = op.cols * right, op.rows * right
    op_cols = op.cols_map()
    out, owned, loose = {}, set(), False
    for i, row in rows.items():
        lft, rest = divmod(i, block_in)
        mid, rgt = divmod(rest, right)
        col = op_cols.get(mid)
        if not col:
            continue
        base = lft * block_out + rgt
        for r, v in col.items():
            r = base + r * right
            if v == 1:
                scaled = row
            elif p is None:
                scaled = {j: v * a for j, a in row.items()}
                loose = loose or v != -1
            else:
                scaled = {j: v * a % p for j, a in row.items()}
            acc = out.get(r)
            if acc is None:
                out[r] = scaled
                if scaled is not row:
                    owned.add(r)
                continue
            if r not in owned:
                acc = out[r] = dict(acc)
                owned.add(r)
            loose = True
            get = acc.get
            for j, a in scaled.items():
                acc[j] = get(j, 0) + a
    return out, dims[:pos] + out_dims + dims[pos + arity:], loose
