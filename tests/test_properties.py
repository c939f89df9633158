"""Property tests of the sparse elimination kernels against the dense oracle.

Random sparse matrices over Q and over F_(2^31-1) are checked against
``oracle.dense_rank``: ``rank``, ``kernel``, ``solve`` and
``quotient_by_columns``.  Over F_p the entries are integers in [-3, 3]
and the matrices at most 7 x 7, so every minor is below Hadamard's bound
(3 sqrt 7)^7 < 2.1e6 < p; a minor vanishes mod p exactly when it
vanishes over Q, and the dense rank over Q is the rank over F_p.
``ChainComplex.homology_dims``, which clears rows, is checked on random complexes over
Q and F_7 against ranks taken on all rows, and ``ChainComplex.quotient`` on
random terms and dropped coordinates over Q and F_3 against the full sum
restricted to the kept coordinates.  The operations on the row-map
store of ``SparseMatrix`` are checked over Q, F_2, F_3 and F_(2^31-1)
against dense list-of-lists arithmetic written here, and every result
against the store's invariant; so are the tables of matrices, and the
products and comparisons of tables with matrices, over Q and F_3.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracle import dense_rank  # noqa: E402
from support import complex_of, from_keyed, restricted, to_keyed, uncached  # noqa: E402

from hopfcyclic.linalg import (  # noqa: E402
    QQ,
    ChainComplex,
    IndexTable,
    Inconsistent,
    LegChain,
    NotWellDefined,
    PrimeField,
    SparseMatrix,
    kernel,
    quotient_by_columns,
    solve,
)

FP = PrimeField(2**31 - 1)
F7 = PrimeField(7)
MAX_SIDE = 7

_q_entries = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)
_fp_entries = st.integers(-3, 3)


@st.composite
def _matrices(draw, field, rows=None, cols=None):
    """(sparse matrix, its entries as rational rows): mostly zeros."""
    rows = draw(st.integers(0, MAX_SIDE)) if rows is None else rows
    cols = draw(st.integers(0, MAX_SIDE)) if cols is None else cols
    entries = _q_entries if field is QQ else _fp_entries
    dense = [[draw(entries) if draw(st.integers(0, 2)) == 0 else 0 for _ in range(cols)]
             for _ in range(rows)]
    data = {(i, j): field.from_str(str(v)) for i, row in enumerate(dense)
            for j, v in enumerate(row) if v}
    return from_keyed(rows, cols, field, data), dense


def _oracle_rank(dense, ncols):
    return dense_rank(dense) if dense and ncols else 0


def _columns(dense, ncols):
    return [list(col) for col in zip(*dense)] if dense else [[] for _ in range(ncols)]


fields = pytest.mark.parametrize("field", [QQ, FP], ids=str)
examples = settings(max_examples=60, deadline=None)


@fields
@examples
@given(data=st.data())
def test_rank_matches_oracle(field, data):
    m, dense = data.draw(_matrices(field))
    assert m.rank() == _oracle_rank(dense, m.cols)
    assert len(m.rref()[0]) == m.rank()


@fields
@examples
@given(data=st.data())
def test_kernel_matches_oracle(field, data):
    m, dense = data.draw(_matrices(field))
    k = kernel(m)
    assert k.dim == m.cols - _oracle_rank(dense, m.cols)
    assert (m @ k.section).is_zero_matrix()
    assert k.section.rank() == k.dim


@fields
@examples
@given(data=st.data())
def test_solve_matches_oracle(field, data):
    m, dense = data.draw(_matrices(field))
    x, _ = data.draw(_matrices(field, rows=m.cols, cols=data.draw(st.integers(1, 3))))
    b = m @ x
    assert m @ solve(m, b) == b
    # a right-hand side outside the column span has no solution
    target = data.draw(st.lists(_fp_entries, min_size=m.rows, max_size=m.rows))
    rhs = from_keyed(m.rows, 1, field,
                     {(i, 0): field.from_int(v) for i, v in enumerate(target) if v})
    augmented = [row + [v] for row, v in zip(dense, target)]
    if _oracle_rank(augmented, m.cols + 1) > _oracle_rank(dense, m.cols):
        with pytest.raises(Inconsistent):
            solve(m, rhs)
    else:
        assert m @ solve(m, rhs) == rhs


@fields
@examples
@given(data=st.data())
def test_quotient_by_columns_matches_oracle(field, data):
    m, dense = data.draw(_matrices(field))
    q = quotient_by_columns(m.rows, m)
    assert q.dim == m.rows - _oracle_rank(dense, m.cols)
    assert (q.projection @ m).is_zero_matrix()
    assert (q.projection @ q.section).is_identity()
    # the quotient is canonical: the span, not the chosen columns, decides it
    reordered = from_keyed(m.rows, m.cols, field,
                           {(i, m.cols - 1 - j): v for i, j, v in m.entries()})
    again = quotient_by_columns(m.rows, reordered)
    assert again.projection == q.projection and again.section == q.section


@st.composite
def _complexes(draw, field):
    """(dims, d): each d[n] is missing (zero) or has its columns drawn from
    ker d[n - 1], so that d[n - 1] @ d[n] = 0."""
    dims = draw(st.lists(st.integers(0, MAX_SIDE), min_size=2, max_size=5))
    d = {}
    for n in range(1, len(dims)):
        if draw(st.integers(0, 4)) == 0:
            continue
        if n - 1 in d:
            cycles = kernel(uncached(d[n - 1])).section
            d[n] = cycles @ draw(_matrices(field, cycles.cols, dims[n]))[0]
        else:
            d[n] = draw(_matrices(field, dims[n - 1], dims[n]))[0]
    return dims, d


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
@examples
@given(data=st.data())
def test_cleared_homology_dims_match_uncleared_ranks(field, data):
    dims, d = data.draw(_complexes(field))
    upto = len(dims) - 2
    ranks = [uncached(d[n]).rank() if n in d else 0 for n in range(upto + 2)]
    cx = complex_of(dims, d, field)
    assert cx.homology_dims(upto) == [dims[n] - ranks[n] - ranks[n + 1] for n in range(upto + 1)]
    # the rank each d_n caches, cleared or not, is its exact rank
    assert all(cx.d(n).rank() == ranks[n] for n in range(1, upto + 2))


@st.composite
def _column_tables(draw, field, rows, cols):
    """A random rows x cols table with at most one entry in each column."""
    idx = [draw(st.integers(-1, rows - 1)) if rows else -1 for _ in range(cols)]
    nonzero = _q_entries.filter(bool) if field is QQ else st.integers(1, field.p - 1)
    val = [field.from_str(str(draw(nonzero))) if i >= 0 else 0 for i in idx]
    return IndexTable(rows, cols, field, idx + [-1], val + [0])


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
@settings(max_examples=150, deadline=2000)
@given(data=st.data())
def test_quotient_writes_the_restricted_sum_and_certifies_exactly_a_subcomplex(field, data):
    """d: C_1 -> C_0, a sum of two or three signed terms, each given as a
    table and as its matrix, on C/D for random dropped coordinates D_0 and
    D_1: d-bar is the full sum restricted to the kept coordinates, the same
    from either form, and it is refused exactly when d(D_1) leaves D_0."""
    dims = [data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))]
    tables = data.draw(st.lists(_column_tables(field, *dims), min_size=2, max_size=3))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
    if data.draw(st.booleans()):  # the last term cancels the first
        tables[-1], signs[len(tables) - 1] = tables[0], -signs[0]
    dropped = [data.draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
               for n in dims]
    kept = [[i for i in range(n) if i not in out] for n, out in zip(dims, dropped)]
    full = SparseMatrix.zeros(*dims, field)
    for sign, tb in zip(signs, tables):
        full = full + tb.matrix() if sign > 0 else full - tb.matrix()
    lost = restricted(full, kept[0], sorted(dropped[1]))
    written = []
    for ops in (tables, [tb.matrix() for tb in tables]):
        terms = [(sign, op, 0, 1) for sign, op in zip(signs, ops)]
        cx = ChainComplex(field, lambda n: {n: dims[n]} if n in (0, 1) else {},
                          lambda n: terms if n == 1 else [])
        quotient = cx.quotient(lambda n: [IndexTable(dims[n], len(dropped[n]), field,
                                                     [*sorted(dropped[n]), -1], None)])
        if lost.is_zero_matrix():
            written.append(quotient.d(1))
            assert written[-1] == restricted(full, kept[0], kept[1])
        else:
            with pytest.raises(NotWellDefined, match="not a quotient complex: d sends the "
                                                     "dropped column"):
                quotient.d(1)
    assert len(written) in (0, 2) and written[:1] == written[1:]


# ---------------------------------------------------------------------------
# the row-map store against dense lists

STORE_FIELDS = [QQ, PrimeField(2), PrimeField(3), FP]
STORE_SIDE = 5


def _canonical(field, v):
    """v in the field's canonical form: a residue in [0, p), or over Q an
    int when integral."""
    if field is QQ:
        v = Fraction(v)
        return int(v) if v.denominator == 1 else v
    return v % field.p


@st.composite
def _dense_lists(draw, field, rows, cols):
    """A rows x cols list of lists of canonical values, mostly zeros."""
    entries = _q_entries if field is QQ else st.integers(-3, 3)
    return [[_canonical(field, draw(entries)) if draw(st.integers(0, 2)) == 0 else 0
             for _ in range(cols)] for _ in range(rows)]


def _stored(dense, cols, field, order):
    """The SparseMatrix of ``dense``, its rows written in ``order``."""
    rows = {i: {j: v for j, v in enumerate(dense[i]) if v} for i in order}
    return SparseMatrix(len(dense), cols, field, {i: row for i, row in rows.items() if row})


def _as_lists(m):
    rows = m.rows_map()
    return [[rows.get(i, {}).get(j, 0) for j in range(m.cols)] for i in range(m.rows)]


def _assert_store(m, field):
    """No empty row, no zero, every value canonical."""
    for i, row in m.rows_map().items():
        assert 0 <= i < m.rows and row, (i, row)
        for j, v in row.items():
            assert 0 <= j < m.cols and v != 0 and not isinstance(v, float), (i, j, v)
            if field is QQ:
                assert v.denominator != 1 or type(v) is int, (i, j, v)
            else:
                assert type(v) is int and 0 < v < field.p, (i, j, v)


def _reduce(field, v):
    return v if field is QQ else v % field.p


def _lists_product(a, b, inner, cols, field):
    return [[_reduce(field, sum(row[k] * b[k][j] for k in range(inner))) for j in range(cols)]
            for row in a]


def _lists_sum(a, b, sign, field):
    return [[_reduce(field, x + sign * y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _lists_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def _lists_kron(a, b, bcols, field):
    return [[_reduce(field, x * y) for x in ra for y in rb] if bcols else []
            for ra in a for rb in b]


def _lists_leg_then_swap(op, left, right, field):
    """(id swap) (op (x) id_right) as lists: leg 0 of dims [left, right]
    through op, then the two legs exchanged."""
    out = len(op)
    full = [[0] * (left * right) for _ in range(out * right)]
    for o in range(out):
        for i in range(left):
            for r in range(right):
                full[o * right + r][i * right + r] = op[o][i]
    swap = [[int(c == (t % out) * right + t // out) for c in range(out * right)]
            for t in range(out * right)]
    return _lists_product(swap, full, out * right, left * right, field)


@pytest.mark.parametrize("field", STORE_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_store_operations_match_dense_lists(field, data):
    r, k, c = (data.draw(st.integers(0, STORE_SIDE)) for _ in range(3))
    a, a2 = (data.draw(_dense_lists(field, r, k)) for _ in range(2))
    b = data.draw(_dense_lists(field, k, c))
    order = data.draw(st.permutations(range(r)))
    x, x2 = _stored(a, k, field, order), _stored(a2, k, field, range(r))
    y = _stored(b, c, field, range(k))
    results = [
        (x @ y, _lists_product(a, b, k, c, field)),
        (x + x2, _lists_sum(a, a2, 1, field)),
        (x - x2, _lists_sum(a, a2, -1, field)),
        (x.t(), _lists_transpose(a, k)),
        (x.kron(y), _lists_kron(a, b, c, field)),
        (SparseMatrix.hstack([x, x2]), [ra + rb for ra, rb in zip(a, a2)]),
        *((x.column(j), [[row[j]] for row in a]) for j in range(k)),
    ]
    # an identity factor: its rows are made when read, and kron shifts rows
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    ident = SparseMatrix.identity(k, field)
    results += [(ident.kron(y), _lists_kron(eye, b, c, field)),
                (y.kron(ident), _lists_kron(b, eye, k, field)), (x @ ident, a)]
    for got, want in results:
        _assert_store(got, field)
        assert _as_lists(got) == want
    assert x == _stored(a, k, field, range(r))  # the order rows are written in is not compared
    assert (x == x2) == (a == a2)
    ident = [[int(i == j) for j in range(r)] for i in range(r)]
    assert _stored(ident, r, field, order).is_identity()
    assert x.is_identity() == (a == ident and r == k)
    for by_rows in (False, True):
        lines = a if by_rows else _lists_transpose(a, k)
        table = x.table(by_rows)
        assert (table is None) == any(sum(map(bool, line)) > 1 for line in lines)
        if table is not None:
            _assert_store(table.matrix(), field)
            assert _as_lists(table.matrix()) == a


@pytest.mark.parametrize("field", STORE_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_leg_chain_matches_dense_lists(field, data):
    left = data.draw(st.integers(1, STORE_SIDE))
    right = data.draw(st.integers(1, STORE_SIDE // left))
    out, cols = data.draw(st.integers(1, STORE_SIDE)), data.draw(st.integers(0, STORE_SIDE))
    op = data.draw(_dense_lists(field, out, left))
    xs = data.draw(_dense_lists(field, left * right, cols))
    chain = LegChain([left, right], field).leg(_stored(op, left, field, range(out)), 0).perm([1, 0])
    x = _stored(xs, cols, field, range(left * right))
    got = chain @ x
    _assert_store(got, field)
    assert _as_lists(got) == _lists_product(_lists_leg_then_swap(op, left, right, field), xs,
                                            left * right, cols, field)


# ---------------------------------------------------------------------------
# one operator vocabulary: tables and matrices against dense lists

VOCABULARY_SIDE = 6


@st.composite
def _operator_lists(draw, field, rows, cols):
    """A rows x cols list of lists of canonical values, signed (mostly 1
    and -1): monomial by columns, monomial by rows, or of no such shape."""
    nonzero = _q_entries.filter(bool) if field is QQ else st.integers(1, field.p - 1)
    values = st.one_of(st.sampled_from([1, -1]), nonzero)
    shape = draw(st.sampled_from(["columns", "rows", "any"]))
    if shape == "any":
        return [[_canonical(field, draw(values)) if draw(st.integers(0, 2)) == 0 else 0
                 for _ in range(cols)] for _ in range(rows)]
    dense = [[0] * cols for _ in range(rows)]
    outer, inner = (rows, cols) if shape == "rows" else (cols, rows)
    for k in range(outer):
        if inner and draw(st.booleans()):
            other = draw(st.integers(0, inner - 1))
            i, j = (k, other) if shape == "rows" else (other, k)
            dense[i][j] = _canonical(field, draw(values))
    return dense


def _identity_lists(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _two_in_a_line(dense, cols, by_rows):
    lines = dense if by_rows else _lists_transpose(dense, cols)
    return any(sum(map(bool, line)) > 1 for line in lines)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
@settings(max_examples=150, deadline=2000)
@given(data=st.data())
def test_tables_and_matrices_answer_one_vocabulary(field, data):
    """m.table(by_rows) is None exactly when a column (row) of m holds two
    entries, and otherwise has m's shape, entries and matrix; t and m are
    ``is_identity()`` exactly when the lists are the identity.  A table
    and a matrix, or two tables of different orientations, compose and
    compare as matrices: t @ m, m @ t and t @ t' are the matrix products,
    as matrices, t @ t' of one orientation is the table of the product,
    and t == m and t == t', either way round, exactly when the lists are
    equal."""
    j, n, k, c = (data.draw(st.integers(0, VOCABULARY_SIDE)) for _ in range(4))
    by_rows = data.draw(st.booleans())
    left, a, other = (data.draw(_operator_lists(field, r, s)) for r, s in ((j, n), (n, k), (n, k)))
    b = data.draw(_operator_lists(field, k, c))
    x, y, w = (_stored(dense, s, field, range(len(dense))) for dense, s in
               ((left, n), (a, k), (other, k)))
    z = _stored(b, c, field, range(k))
    square = data.draw(st.one_of(st.just(_identity_lists(n)), _operator_lists(field, n, n)))
    sq = _stored(square, n, field, range(n))
    for dense, cols, m in ((a, k, y), (b, c, z), (other, k, w), (square, n, sq)):
        for orient in (False, True):
            tb = m.table(orient)
            assert (tb is None) == _two_in_a_line(dense, cols, orient)
            if tb is None:
                continue
            assert (tb.rows, tb.cols, tb.by_rows) == (m.rows, m.cols, orient)
            assert sorted(tb.entries()) == sorted(m.entries())
            _assert_store(tb.matrix(), field)
            assert _as_lists(tb.matrix()) == dense
            assert tb.table(orient) is tb
            assert tb.is_identity() == m.is_identity() == (dense == _identity_lists(cols))
            flipped = tb.table(not orient)
            assert (flipped is None) == (m.table(not orient) is None)
            assert flipped is None or (sorted(flipped.entries()) == sorted(m.entries())
                                       and flipped.by_rows != orient)
    ta, tz = y.table(by_rows), z.table(by_rows)
    if ta is None:
        return
    ab = _lists_product(a, b, k, c, field)
    for got, want in ((ta @ z, ab), (x @ ta, _lists_product(left, a, n, k, field))):
        assert isinstance(got, SparseMatrix)
        _assert_store(got, field)
        assert _as_lists(got) == want
    if tz is not None:
        both = ta @ tz
        assert isinstance(both, IndexTable) and both.by_rows == by_rows
        assert _as_lists(both.matrix()) == ab and both == y @ z == both.matrix()
    crossed = z.table(not by_rows)
    if crossed is not None:
        got = ta @ crossed
        assert isinstance(got, SparseMatrix) and _as_lists(got) == ab
    for m, dense in ((y, a), (w, other)):
        assert (ta == m) == (m == ta) == (dense == a)
        assert (ta != m) == (m != ta) == (dense != a)
        tm = m.table(not by_rows)
        if tm is not None:
            assert (ta == tm) == (tm == ta) == (dense == a) != (ta != tm)
    assert ta != SparseMatrix.zeros(n, k + 1, field) and SparseMatrix.zeros(n + 1, k, field) != ta
