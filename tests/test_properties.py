"""Property tests of the sparse elimination kernels against the dense oracle.

Random sparse matrices over Q and over F_(2^31-1) are checked against
``oracle.dense_rank``: ``rank``, ``kernel``, ``solve`` and
``quotient_by_columns``.  Over F_p the entries are integers in [-3, 3]
and the matrices at most 7 x 7, so every minor is below Hadamard's bound
(3 sqrt 7)^7 < 2.1e6 < p; a minor vanishes mod p exactly when it
vanishes over Q, and the dense rank over Q is the rank over F_p.
``ChainComplex.homology_dims``, which clears rows, is checked on random complexes over
Q and F_7 against ranks taken on all rows.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracle import dense_rank  # noqa: E402
from support import complex_of, uncached  # noqa: E402

from hopfcyclic.linalg import (  # noqa: E402
    QQ,
    Inconsistent,
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
    return SparseMatrix(rows, cols, field, data), dense


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
    rhs = SparseMatrix(m.rows, 1, field,
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
    reordered = SparseMatrix(m.rows, m.cols, field,
                             {(i, m.cols - 1 - j): v for (i, j), v in m.data.items()})
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
