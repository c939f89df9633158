import numbers
import random
from fractions import Fraction

import pytest
from oracle import dense_rank
from support import complex_of, from_dense, from_keyed, to_dense, to_keyed, uncached

from hopfcyclic.cyclic import chain_complex, relative_cyclic
from hopfcyclic.linalg import (
    QQ,
    ChainComplex,
    Inconsistent,
    IndexTable,
    LegChain,
    NotWellDefined,
    PrimeField,
    ShapeMismatch,
    SparseMatrix,
    SubquotientSpace,
    apply_on_leg,
    block_matrix,
    coequalizer,
    composite_is_zero,
    equalizer,
    homology_space,
    induced_map,
    induced_table,
    inverse,
    is_prime,
    kernel,
    permutation_matrix,
    quotient_by_columns,
    solve,
    span_columns,
    tensor_dim,
    tensor_index,
    tensor_unindex,
)
from hopfcyclic.presets import SETUP_NAMES, builtin_hopf, builtin_setup
from hopfcyclic.sayd import ad_module
from hopfcyclic.specseq import bar_complex


def M(rows, field=QQ):
    return from_dense([[field.from_int(x) for x in r] for r in rows], field)


def test_kernel_identity_is_zero():
    assert kernel(SparseMatrix.identity(2, QQ)).dim == 0


def test_kernel_zero_map():
    assert kernel(SparseMatrix.zeros(1, 2, QQ)).dim == 2


def test_kernel_rank_one_matrix():
    # x + 2y = 0 twice over; kernel spanned by (-2, 1) up to scale
    k = kernel(M([[1, 2], [2, 4]]))
    assert k.dim == 1
    col = k.section.column(0)
    x, y = col.get(0, 0), col.get(1, 0)
    assert x == QQ.from_int(-2) * y and y != 0


def test_rank_nullity_random():
    rng = random.Random(0)
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = SparseMatrix.from_entries(
            rows,
            cols,
            QQ,
            [
                (rng.randrange(rows), rng.randrange(cols), QQ.from_int(rng.randint(-3, 3)))
                for _ in range(rng.randint(0, rows * cols))
            ],
        )
        assert m.rank() + kernel(m).dim == cols


def test_rank_nullity_mod_p():
    F5 = PrimeField(5)
    rng = random.Random(1)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = SparseMatrix.from_entries(
            rows,
            cols,
            F5,
            [
                (rng.randrange(rows), rng.randrange(cols), rng.randint(1, 4))
                for _ in range(rng.randint(0, rows * cols))
            ],
        )
        assert m.rank() + kernel(m).dim == cols


def _random_sparse(rng, rows, cols, field):
    """Sparse matrix with some rows and columns left empty and, when tall,
    rows that are combinations of others."""
    empty_rows = set(rng.sample(range(rows), rows // 4))
    empty_cols = set(rng.sample(range(cols), cols // 4))
    density = rng.uniform(0.05, 0.4)
    entries = [
        (i, j, field.from_int(rng.randint(-5, 5)))
        for i in range(rows)
        for j in range(cols)
        if i not in empty_rows and j not in empty_cols and rng.random() < density
    ]
    m = SparseMatrix.from_entries(rows, cols, field, entries)
    if rows > cols:
        # rows past the column count become combinations of earlier rows
        base = m.rows_map()
        entries = [(i, j, v) for i, j, v in m.entries() if i < cols]
        for i in range(cols, rows):
            a, b = rng.randrange(cols), rng.randrange(cols)
            ca, cb = field.from_int(rng.randint(1, 3)), field.from_int(rng.randint(-3, -1))
            entries += [(i, j, field.mul(ca, v)) for j, v in base.get(a, {}).items()]
            entries += [(i, j, field.mul(cb, v)) for j, v in base.get(b, {}).items()]
        m = SparseMatrix.from_entries(rows, cols, field, entries)
    return m


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)], ids=str)
def test_rank_forward_elimination_matches_reference(field):
    rng = random.Random(7)
    for k in range(60):
        shape = [(rng.randint(1, 12), rng.randint(1, 12)),  # small
                 (rng.randint(15, 30), rng.randint(2, 10)),  # tall
                 (rng.randint(2, 10), rng.randint(15, 30))][k % 3]  # wide
        m = _random_sparse(rng, *shape, field)
        fresh = uncached(m)
        r = m.rank()  # forward pass only: no RREF cached yet
        if field is QQ:
            assert r == dense_rank(to_dense(m))
        assert r == len(fresh.rref()[0])
        assert r == fresh.rank()  # taken from the cached RREF
        assert m.rank() == r


def test_prime_field_rejects_composite():
    for modulus in (6, 0, 1, 8, -7, 2**61 + 1):
        with pytest.raises(ValueError):
            PrimeField(modulus)


def test_is_prime_matches_sieve_and_strong_pseudoprimes():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for n in range(2, limit):
        if sieve[n]:
            for m in range(n * n, limit, n):
                sieve[m] = False
    assert [n for n in range(-3, limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # Carmichael numbers, and composites that are strong pseudoprimes to every
    # prime base up to 7, 31 and 37 (the last one is caught only by base 41)
    for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    # the largest prime below the deterministic bound
    for n in (2**31 - 1, 2**61 - 1, 3317044064679887385961813):
        assert is_prime(n)


def test_prime_field_large_modulus_is_fast_and_bounded():
    assert PrimeField(2**61 - 1).p == 2**61 - 1  # trial division never finished here
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2**127 - 1)


# --- the native-operator kernels against dense references written here ------

Q_VALUES = [1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(2)]


def _random_mixed(rng, rows, cols, field, density):
    """Sparse matrix whose Q entries mix ints with non-integral Fractions
    (and an integral Fraction(2)); F_p entries are residues from from_int."""
    data = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                if field is QQ:
                    data[(i, j)] = rng.choice(Q_VALUES)
                else:
                    v = field.from_int(rng.randint(-10, 10))
                    if v:
                        data[(i, j)] = v
    return from_keyed(rows, cols, field, data)


def _ref_scalars(field):
    """(to_exact, reduce, inverse) for the dense reference: Fractions over Q,
    plain residues mod p over F_p."""
    if field is QQ:
        return Fraction, lambda x: x, lambda x: 1 / x
    p = field.p
    return (lambda x: x % p), (lambda x: x % p), (lambda x: pow(x, p - 2, p))


def _dense(m, field):
    exact, _, _ = _ref_scalars(field)
    return [[exact(m.get(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _dense_product(a, b, field):
    _, red, _ = _ref_scalars(field)
    return [[red(sum(x * y for x, y in zip(row, col))) for col in zip(*b)] for row in a]


def _dense_rref(rows, field):
    """Textbook Gauss-Jordan: (pivot columns, nonzero rows as dicts)."""
    _, red, inv = _ref_scalars(field)
    m = [list(r) for r in rows]
    pivots, r = [], 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((k for k in range(r, len(m)) if m[k][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        iv = inv(m[r][c])
        m[r] = [red(x * iv) for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c] != 0:
                fac = m[k][c]
                m[k] = [red(x - fac * y) for x, y in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
    return pivots, [{c: v for c, v in enumerate(row) if v != 0} for row in m[:r]]


def _assert_clean(m, field):
    """No explicit zeros, no floats, F_p values in [1, p)."""
    for _, _, v in m.entries():
        assert v != 0 and not isinstance(v, float)
        if field is QQ:
            assert isinstance(v, numbers.Rational)  # int, Fraction or gmpy2.mpq
        else:
            assert type(v) is int and 0 < v < field.p


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)], ids=str)
def test_kernels_match_dense_reference(field):
    rng = random.Random(11)
    for k in range(80):
        n, m_, l = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.1, 0.3, 0.6])
        a = _random_mixed(rng, n, m_, field, density)
        b = _random_mixed(rng, m_, l, field, density)
        cancels = k % 4 == 0
        if cancels:
            # [a a] @ [b; -b]: every term is matched by its negative
            a, b = SparseMatrix.hstack([a, a]), SparseMatrix.hstack([b.t(), (-b).t()]).t()
        prod = a @ b
        want = _dense_product(_dense(a, field), _dense(b, field), field)
        _assert_clean(prod, field)
        assert _dense(prod, field) == want
        assert prod == from_dense(want, field)
        if cancels:
            assert to_keyed(prod) == {}
        for mat in (a, a.t(), prod, a + a, a - a, -a):
            _assert_clean(mat, field)
            dense = _dense(mat, field)
            pivots, rows = _dense_rref(dense, field)
            fresh = uncached(mat)
            assert fresh.rank() == len(pivots)
            got_piv, got_rows = uncached(mat).rref()
            assert got_piv == pivots and got_rows == rows
            for row in got_rows:
                assert all(v != 0 and not isinstance(v, float) for v in row.values())
                if field is not QQ:
                    assert all(0 < v < field.p for v in row.values())
        assert (a - a).is_zero_matrix()
        assert a + (-a) == SparseMatrix.zeros(a.rows, a.cols, field)


def _reference_permutation(dims, perm, field):
    """The permutation of legs index by index, through tensor_unindex/tensor_index."""
    out_dims = [dims[p] for p in perm]
    n = tensor_dim(dims)
    data = {}
    for idx in range(n):
        t = tensor_unindex(dims, idx)
        data[(tensor_index(out_dims, tuple(t[p] for p in perm)), idx)] = field.one
    return from_keyed(n, n, field, data)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)], ids=str)
def test_leg_map_and_permute_legs_match_full_ambient(field):
    """One-step chains, a leg map or a permutation of legs, against the
    assembled operator; then random chains against the product of theirs."""
    rng = random.Random(23)
    cancelled = 0
    for k in range(150):
        dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        cancels = k % 4 == 0
        pos = rng.randrange(len(dims) + (not cancels))
        arity = 1 if cancels else rng.randint(0, len(dims) - pos)
        out_dims = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        ncols = rng.randint(0, 5)
        density = rng.choice([0.0, 0.2, 0.5, 0.9])
        op = _random_mixed(rng, tensor_dim(out_dims), tensor_dim(dims[pos:pos + arity]),
                           field, density)
        x = _random_mixed(rng, tensor_dim(dims), ncols, field, density)
        if cancels:
            # op = [a, -a] on a doubled leg and x equal on both halves:
            # every product is matched by its negative
            half = op.cols
            op = SparseMatrix.hstack([op, -op])
            dims = dims[:pos] + [2 * half] + dims[pos + 1:]
            right = tensor_dim(dims[pos + 1:])
            x = _random_mixed(rng, tensor_dim(dims), ncols, field, density)
            data = {}
            for i, j, v in x.entries():
                lft, rest = divmod(i, 2 * half * right)
                mid, rgt = divmod(rest, right)
                if mid < half:
                    data[(i, j)] = v
                    data[((lft * 2 * half + mid + half) * right + rgt, j)] = v
            x = from_keyed(x.rows, ncols, field, data)
        step = LegChain(dims, field).leg(op, pos, arity, out_dims)
        got = step @ x
        want = apply_on_leg(op, dims, pos, arity) @ x
        assert got == want and (got.rows, got.cols) == (want.rows, want.cols)
        assert step.dims == dims[:pos] + out_dims + dims[pos + arity:]
        _assert_clean(got, field)
        if cancels:
            assert to_keyed(got) == {}
            cancelled += not (x.is_zero_matrix() or op.is_zero_matrix())

        perm = list(range(len(dims)))
        rng.shuffle(perm)
        ref = _reference_permutation(dims, perm, field)
        assert permutation_matrix(dims, perm, field) == ref
        step = LegChain(dims, field).perm(perm)
        got = step @ x
        assert got == ref @ x and step.dims == [dims[p] for p in perm]
        _assert_clean(got, field)
    assert cancelled >= 10
    with pytest.raises(ShapeMismatch):
        LegChain([2, 3], field).leg(SparseMatrix.identity(2, field), 1) \
            @ SparseMatrix.identity(6, field)
    with pytest.raises(ShapeMismatch):
        LegChain([2, 3], field).perm([0, 0]) @ SparseMatrix.identity(6, field)

    # random chains against the product of their assembled factors
    seen = {"arity 0": 0, "arity 1": 0, "arity 2": 0, "out_dims []": 0,
            "multi-leg out_dims": 0, "perm": 0}
    for k in range(120):
        dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        chain, want, cur = LegChain(dims, field), SparseMatrix.identity(tensor_dim(dims), field), dims
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                perm = list(range(len(cur)))
                rng.shuffle(perm)
                chain = chain.perm(perm)
                want = permutation_matrix(cur, perm, field) @ want
                cur = [cur[p] for p in perm]
                seen["perm"] += 1
                continue
            pos = rng.randrange(len(cur) + 1)
            arity = rng.randint(0, min(2, len(cur) - pos))
            out_dims = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
            op = _random_mixed(rng, tensor_dim(out_dims), tensor_dim(cur[pos:pos + arity]),
                               field, rng.choice([0.3, 0.7]))
            chain = chain.leg(op, pos, arity, out_dims)
            want = apply_on_leg(op, cur, pos, arity) @ want
            cur = cur[:pos] + out_dims + cur[pos + arity:]
            seen[f"arity {arity}"] += 1
            seen["out_dims []"] += not out_dims
            seen["multi-leg out_dims"] += len(out_dims) > 1
        x = _random_mixed(rng, tensor_dim(dims), rng.randint(0, 4), field, 0.5)
        assert (chain.rows, chain.cols) == (want.rows, want.cols) and chain.dims == cur
        got = chain @ x
        assert got == want @ x and (got.rows, got.cols) == (want.rows, x.cols)
        _assert_clean(got, field)
        assert chain.matrix() == want
    assert min(seen.values()) >= 10, seen
    with pytest.raises(ShapeMismatch):
        LegChain([2, 3], field) @ SparseMatrix.identity(5, field)


def _frozen(m):
    """m's entries in order and its row map, as plain copies."""
    return list(m.entries()), {i: list(row.items()) for i, row in m.rows_map().items()}


def _chain_and_product(dims, field, steps):
    """The chain of ``steps`` on ``dims`` and the product of its assembled
    factors; a step is a permutation list or (op, pos, arity, out_dims)."""
    chain, want, cur = LegChain(dims, field), SparseMatrix.identity(tensor_dim(dims), field), dims
    for st in steps:
        if isinstance(st, list):
            chain, want = chain.perm(st), permutation_matrix(cur, st, field) @ want
        else:
            op, pos, arity, out_dims = st
            chain, want = chain.leg(op, pos, arity, out_dims), apply_on_leg(op, cur, pos, arity) @ want
        cur = chain.dims
    return chain, want


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)], ids=str)
def test_chain_shares_a_row_then_merges_it_without_touching_its_input(field):
    """A value-1 step hands one row of x to two outputs and a later step
    sums them: the sums go into copies, so x keeps its entries and its row
    map, and the result is the product of the assembled factors."""
    f = field.from_str
    x = from_keyed(2, 3, field, {(0, 0): f("2/3"), (0, 2): f("-5"), (1, 1): f("7")})
    x.rows_map()
    before = _frozen(x)
    # (a) leg 0: e0 -> e0 + e1 and e1 -> e2, all with value 1
    split = M([[1, 0], [1, 0], [0, 1]], field)
    # (b) then e0, e1, e2 -> 1, 3, -1 times e0: rows 0 and 1 are x's row 0
    merge = M([[1, 3, -1]], field)
    for steps in ([(split, 0, 1, [3]), (merge, 0, 1, [1])],
                  [(split, 0, 1, [3]), [0], (merge, 0, 1, [1])],
                  [(split, 0, 1, [3]), (split.t(), 0, 1, [2]), (split, 0, 1, [3])]):
        chain, want = _chain_and_product([2], field, steps)
        got = chain @ x
        assert got == want @ x and (got.rows, got.cols) == (want.rows, x.cols)
        _assert_clean(got, field)
        assert _frozen(x) == before
    assert to_keyed(got) == to_keyed(want @ x) != {}
    assert to_keyed(chain @ x) == to_keyed(got)  # a second application reads the same rows


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)], ids=str)
def test_chain_entries_cancel_to_zero_across_two_steps(field):
    """Entries that two steps send to the same place with opposite signs
    leave no entry, not even after a further step reads them."""
    f = field.from_str
    x = from_keyed(4, 2, field, {(0, 0): f("1/2"), (1, 0): f("3"), (2, 1): f("-4"),
                                   (3, 0): f("5"), (3, 1): f("5")})
    before = _frozen(x)
    # on dims [2, 2]: leg 1 doubles (e0 -> e0 + 2 e1, e1 -> 0), then leg 1
    # sends (e0, e1) -> 2 e0 - e1, so every entry that survives the first
    # step cancels in the second; doubling leg 0 instead leaves entries
    double = M([[1, 0], [2, 0]], field)
    cancel = M([[2, -1]], field)
    for steps, survives in (([(double, 1, 1, [2]), (cancel, 1, 1, [1])], False),
                            ([(double, 1, 1, [2]), (cancel, 1, 1, [1]), [1, 0]], False),
                            ([(double, 1, 1, [2]), (cancel, 1, 1, [1]),
                              (M([[1], [3]], field), 1, 1, [2])], False),
                            ([(double, 0, 1, [2]), (cancel, 1, 1, [1])], True)):
        chain, want = _chain_and_product([2, 2], field, steps)
        got = chain @ x
        assert got == want @ x
        _assert_clean(got, field)
        assert (got.nnz > 0) == survives
        assert _frozen(x) == before


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)], ids=str)
def test_chain_of_permutations_only(field):
    """A chain of permutations moves entries, values untouched, exactly as
    the product of the index-by-index permutations."""
    rng = random.Random(5)
    for _ in range(40):
        dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        x = _random_mixed(rng, tensor_dim(dims), rng.randint(0, 4), field, 0.5)
        before = _frozen(x)
        chain, want, cur = LegChain(dims, field), SparseMatrix.identity(tensor_dim(dims), field), dims
        for _ in range(rng.randint(1, 3)):
            perm = list(range(len(cur)))
            rng.shuffle(perm)
            chain, want = chain.perm(perm), _reference_permutation(cur, perm, field) @ want
            cur = chain.dims
        got = chain @ x
        assert got == want @ x and \
            sorted(v for _, _, v in got.entries()) == sorted(v for _, _, v in x.entries())
        _assert_clean(got, field)
        assert _frozen(x) == before
        assert LegChain(dims, field) @ x is x  # no steps: the identity


def test_q_integral_fraction_equals_int_and_cancels():
    two_int = from_keyed(1, 1, QQ, {(0, 0): 2})
    two_frac = from_keyed(1, 1, QQ, {(0, 0): Fraction(2)})
    assert two_int == two_frac and two_frac == two_int
    assert two_frac @ two_frac == from_keyed(1, 1, QQ, {(0, 0): 4})
    half = from_keyed(1, 2, QQ, {(0, 0): Fraction(1, 2), (0, 1): Fraction(-3, 4)})
    col = from_keyed(2, 1, QQ, {(0, 0): 3, (1, 0): 2})
    assert (half @ col).is_zero_matrix()  # 3/2 - 3/2: no explicit zero kept
    assert to_keyed(half @ col) == {}
    quarter = from_keyed(2, 1, QQ, {(0, 0): Fraction(1, 2), (1, 0): 4})
    assert half @ quarter == from_keyed(1, 1, QQ, {(0, 0): Fraction(-11, 4)})
    assert to_keyed(two_frac - two_int) == {}


def test_field_values_are_int_when_integral():
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    assert type(QQ.from_int(-4)) is int
    assert type(QQ.from_str("6/3")) is int and QQ.from_str("6/3") == 2
    assert QQ.from_str("-3/4") == Fraction(-3, 4)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(4) == Fraction(1, 4)
    assert str(QQ.from_str("6/3")) == str(Fraction(2)) == "2"
    assert hash(Fraction(2)) == hash(2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    assert type(QQ.inv(Fraction(-1))) is int and QQ.inv(Fraction(-1)) == -1
    f7 = PrimeField(7)
    assert f7.from_str("1/2") == 4 and f7.from_int(-1) == 6 and f7.p == 7
    assert [f7.inv(a) for a in range(1, 7)] == [1, 4, 5, 2, 3, 6] and f7.inv(-1) == 6
    with pytest.raises(ZeroDivisionError):
        f7.inv(14)
    assert QQ.p is None


def test_coequalizer_equal_maps_is_whole_codomain():
    f = M([[1, 0], [0, 1]])
    assert coequalizer(f, f).dim == 2


def test_coequalizer_identity_vs_zero():
    f = SparseMatrix.identity(1, QQ)
    assert coequalizer(f, SparseMatrix.zeros(1, 1, QQ)).dim == 0


def test_coequalizer_scalars_tensor_group_algebra():
    # k (x)_{kC2} kC2 via the trivial and regular action maps B (x) H -> H.
    # Basis of B (x) H: e(x)e, e(x)g, g(x)e, g(x)g.
    act = M([[1, 0, 0, 1], [0, 1, 1, 0]])  # b (x) h -> b.h
    triv = M([[1, 0, 1, 0], [0, 1, 0, 1]])  # b (x) h -> eps(b) h
    q = coequalizer(act, triv)
    assert q.dim == 1


def test_equalizer_mirrors_coequalizer_by_transposition():
    act = M([[1, 0, 0, 1], [0, 1, 1, 0]])
    triv = M([[1, 0, 1, 0], [0, 1, 0, 1]])
    eq = equalizer(act.t(), triv.t())
    assert eq.dim == 1
    # composing the inclusion into both arrows gives equal maps
    assert act.t() @ eq.section == triv.t() @ eq.section


def test_coequalizer_projection_coequalizes():
    f = M([[1, 2], [0, 1]])
    g = M([[0, 1], [1, 1]])
    q = coequalizer(f, g)
    assert q.projection @ f == q.projection @ g


def test_projection_section_identity_and_idempotent():
    sub = span_columns(M([[1, 0], [1, 1], [0, 2]]))
    assert (sub.projection @ sub.section).is_identity()
    sp = sub.section @ sub.projection
    assert sp @ sp == sp


def test_tensor_index_examples():
    assert tensor_index((1, 5), (0, 3)) == 3
    assert tensor_index((2, 3), (1, 2)) == 5
    assert tensor_index((2, 2, 2), (1, 0, 1)) == 5


def test_tensor_index_bijection():
    for dims in [(2,), (1, 4), (2, 3), (6, 6, 6), (3, 2, 5)]:
        n = tensor_dim(dims)
        seen = set()
        for idx in range(n):
            multi = tensor_unindex(dims, idx)
            assert tensor_index(dims, multi) == idx
            seen.add(multi)
        assert len(seen) == n


def test_induced_map_identity_and_zero():
    rel = M([[1], [1]])  # quotient k^2 / (e0 + e1)
    q = quotient_by_columns(2, rel)
    ident = SparseMatrix.identity(2, QQ)
    assert induced_map(ident, q, q).is_identity()
    z = SparseMatrix.zeros(2, 2, QQ)
    assert induced_map(z, q, q).is_zero_matrix()


def test_induced_map_group_algebra_mult_descends():
    # kC2 (x)_{kC2} kC2 -> kC2 induced by multiplication, invertible 2x2
    mult = M([[1, 0, 0, 1], [0, 1, 1, 0]])  # H (x) H -> H for H = kC2
    entries = []
    # h (x) g.h' - h.g (x) h' for basis pairs (h, h')
    for h in range(2):
        for hp in range(2):
            j = 2 * h + hp
            entries.append((tensor_index((2, 2), (h, 1 - hp)), j, QQ.one))
            entries.append((tensor_index((2, 2), (1 - h, hp)), j, QQ.from_int(-1)))
    rel = SparseMatrix.from_entries(4, 4, QQ, entries)
    dom = quotient_by_columns(4, rel)
    assert dom.dim == 2
    cod = SubquotientSpace.full(2, QQ)
    red = induced_map(mult, dom, cod)
    assert red.rank() == 2


def test_induced_map_rejects_non_descending():
    rel = M([[1], [0]])  # kill e0
    q = quotient_by_columns(2, rel)
    bad = M([[0, 0], [1, 0]])  # sends e0 to e1, does not preserve relations
    with pytest.raises(NotWellDefined):
        induced_map(bad, q, q)


def test_induced_map_quotient_into_explicit_subquotient():
    # k^3 / <e2> into <e0, e1> / <e0>: the carrier holds both images below,
    # so only the relation check tells them apart
    dom = quotient_by_columns(3, M([[0], [0], [1]]))
    cod = span_columns(M([[1, 0], [0, 1], [0, 0]])).then(quotient_by_columns(2, M([[1], [0]])))
    assert dom.is_quotient and not cod.is_quotient
    good = M([[1, 0, 1], [0, 1, 0], [0, 0, 0]])  # e2 -> e0, a relation
    assert induced_map(good, dom, cod) == M([[0, 1]])
    bad = M([[1, 0, 0], [0, 1, 1], [0, 0, 0]])  # e2 -> e1, not a relation
    with pytest.raises(NotWellDefined, match="relations not preserved"):
        induced_map(bad, dom, cod)


def test_induced_map_restricts_the_images_of_relations_too():
    # the identity of k^2 / <e1> into the line <e0>, and of k^3 / <e2> into
    # <e0, e1> / <e0>: the codomain's projection kills the relation's image,
    # but the image leaves the carrier, so neither map is defined
    line = span_columns(M([[1], [0]]))
    with pytest.raises(NotWellDefined, match="image leaves the subspace"):
        induced_map(SparseMatrix.identity(2, QQ), quotient_by_columns(2, M([[0], [1]])), line)
    dom = quotient_by_columns(3, M([[0], [0], [1]]))
    cod = span_columns(M([[1, 0], [0, 1], [0, 0]])).then(quotient_by_columns(2, M([[1], [0]])))
    with pytest.raises(NotWellDefined, match="image leaves the carrier"):
        induced_map(SparseMatrix.identity(3, QQ), dom, cod)


def test_induced_map_rejects_escaping_subspace():
    sub = span_columns(M([[1], [0]]))
    rot = M([[0, -1], [1, 0]])
    with pytest.raises(NotWellDefined):
        induced_map(rot, sub, sub)


def test_induced_table_checks_as_induced_map_does():
    # the cases above whose spaces have tables: the same result or message
    def chain(m):
        return LegChain([m.cols], QQ).leg(m, 0)

    q = quotient_by_columns(2, M([[1], [1]]))
    assert induced_table(chain(SparseMatrix.identity(2, QQ)), q, q).matrix().is_identity()
    with pytest.raises(NotWellDefined, match="relations not preserved"):
        induced_table(chain(M([[0, 0], [1, 0]])), quotient_by_columns(2, M([[1], [0]])),
                      quotient_by_columns(2, M([[1], [0]])))
    # the relation's image is killed by the line's projection, but not zero
    line = span_columns(M([[1], [0]]))
    with pytest.raises(NotWellDefined, match="image leaves the subspace"):
        induced_table(chain(SparseMatrix.identity(2, QQ)), quotient_by_columns(2, M([[0], [1]])),
                      line)
    with pytest.raises(NotWellDefined, match="image leaves the subspace"):
        induced_table(chain(M([[0, -1], [1, 0]])), line, line)
    swap = chain(M([[0, 1], [1, 0]]))
    diagonal = span_columns(M([[1], [1]]))
    assert induced_table(swap, diagonal, diagonal, by_rows=True).matrix().is_identity()
    # no table: a section with two entries in a column, a relation outside a
    # pure quotient, or a leg map with two entries in a column
    assert diagonal.tables() is None and induced_table(swap, diagonal, diagonal) is None
    explicit = span_columns(M([[1, 0], [0, 1], [0, 0]])).then(quotient_by_columns(2, M([[1], [0]])))
    assert explicit.tables() is None and explicit.tables(True) is None
    assert induced_table(chain(M([[1, 0], [1, 0]])), q, SubquotientSpace.full(2, QQ)) is None
    with pytest.raises(ShapeMismatch):
        induced_table(swap, SubquotientSpace.full(3, QQ), SubquotientSpace.full(2, QQ))


def test_subquotient_tensor_and_then():
    sub = span_columns(M([[1], [1]]))  # diagonal line in k^2
    two = sub.tensor(sub)
    assert two.dim == 1 and two.ambient_dim == 4
    q = quotient_by_columns(2, M([[1], [1]]))
    qq = q.tensor(SubquotientSpace.full(2, QQ))
    assert qq.dim == 2 and qq.is_quotient
    # two non-full factors, of either kind: relations rel (x) carrier + carrier (x) rel
    both = q.tensor(q)
    assert both.dim == 1 and both.is_quotient
    assert (both.projection @ both.rel_cols).is_zero_matrix() and both.rel_cols.rank() == 3
    line_q, q_line = sub.tensor(q), q.tensor(sub)
    assert not line_q.is_quotient and not q_line.is_quotient and line_q.dim == 1
    assert (line_q.projection @ line_q.rel_cols).is_zero_matrix()
    assert SparseMatrix.hstack([line_q.section, line_q.rel_cols]).rank() == 2
    swap = permutation_matrix([2, 2], [1, 0], QQ)
    assert induced_map(swap, line_q, q_line).rank() == 1
    with pytest.raises(NotWellDefined, match="leaves the carrier"):
        induced_map(SparseMatrix.identity(4, QQ), line_q, q_line)


def test_homology_space_of_exact_pair_is_zero():
    d1 = M([[1, 1]])  # k^2 -> k
    d2 = M([[1], [-1]])  # k -> k^2
    h = homology_space(d1, d2)
    assert h.dim == 0


def test_homology_space_with_gap():
    d_out = SparseMatrix.zeros(1, 2, QQ)
    d_in = M([[1], [0]])
    h = homology_space(d_out, d_in)
    assert h.dim == 1


def test_alternating_sum_and_homology_dims():
    # k --0--> k^2 --onto--> k; a missing d[n] counts as zero
    d = {1: M([[1, 1]]), 2: SparseMatrix.zeros(2, 1, QQ)}
    assert complex_of([1, 2, 1], d, QQ).homology_dims(2) == [0, 1, 1]
    assert complex_of([1, 2], {}, QQ).homology_dims(1) == [1, 2]


def test_homology_dims_rejects_a_non_complex():
    # k --1--> k --1--> k: d[1] @ d[2] != 0 is caught before d[2] is ranked
    d = {1: M([[1]]), 2: M([[1]])}
    with pytest.raises(NotWellDefined):
        complex_of([1, 1, 1], d, QQ).homology_dims(1)


def _assert_cleared_ranks_exact(cx, upto):
    """Each rank that ``homology_dims`` caches on d_n of the complex cx,
    cleared by the pivots of d_{n-1}, equals the rank of a fresh copy on all
    its rows."""
    cx.homology_dims(upto)
    for n in range(1, upto + 2):
        assert cx.d(n).rank() == uncached(cx.d(n)).rank(), n


CLEARING_FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=str)


@CLEARING_FIELDS
@pytest.mark.parametrize("name", SETUP_NAMES)
def test_cleared_hochschild_ranks_are_exact(name, field):
    setup = builtin_setup(name, field)
    cm = relative_cyclic(setup.hopf, setup.subalgebra, 4)
    _assert_cleared_ranks_exact(chain_complex(cm), 3)


@CLEARING_FIELDS
@pytest.mark.parametrize("name", sorted({pair.split("/")[0] for pair in SETUP_NAMES}))
def test_cleared_tor_ranks_are_exact(name, field):
    h = builtin_hopf(name, field)
    ad = ad_module(h)
    _assert_cleared_ranks_exact(bar_complex(h, h.eps, 1, ad.operator_action, ad.dim), 3)


def test_block_matrix_places_blocks_and_rejects_a_wrong_shape():
    rows, cols = {"x": 1, "y": 2}, {"u": 2, "v": 1}
    got = block_matrix(rows, cols, [(1, M([[1, 2], [3, 4]]), "y", "u"), (1, M([[5]]), "x", "v")],
                       QQ)
    assert got == M([[0, 0, 5], [1, 2, 0], [3, 4, 0]])
    assert list(to_keyed(got)) == [(1, 0), (1, 1), (2, 0), (2, 1), (0, 2)]  # in term order
    with pytest.raises(ShapeMismatch):
        block_matrix(rows, cols, [(1, M([[1, 2], [3, 4]]), "x", "u")], QQ)
    with pytest.raises(ShapeMismatch):  # a table is checked as a matrix is
        block_matrix(rows, cols, [(1, IndexTable.identity(2, QQ), "x", "u")], QQ)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(2**31 - 1)], ids=str)
def test_block_matrix_sums_signed_terms_and_drops_what_cancels(field):
    a = M([[1, 2, 0], [0, 0, 2]], field)
    t = M([[1, 0, 0], [0, 0, 2]], field).table()
    rows, cols = {0: 2}, {0: 1, 1: 3}
    # a - t cancels all of row 1 and one entry of row 0
    got = block_matrix(rows, cols, [(1, a, 0, 1), (-1, t, 0, 1)], field)
    assert got.rows_map() == {0: {2: field.from_int(2)}}
    # a - t - a + t cancels every entry
    terms = [(1, a, 0, 1), (-1, t, 0, 1), (-1, a, 0, 1), (1, t, 0, 1)]
    assert block_matrix(rows, cols, terms, field).rows_map() == {}
    # rows emptied on the way and written again hold their new entries alone
    terms += [(1, t, 0, 1), (1, M([[1], [0]], field), 0, 0)]
    got = block_matrix(rows, cols, terms, field)
    assert got == M([[1, 1, 0, 0], [0, 0, 0, 2]], field)
    assert all(row and all(row.values()) for row in got.rows_map().values())


def _columns_table(n, coords):
    """The column table of the inclusion of the coordinates ``coords`` of k^n."""
    return IndexTable(n, len(coords), QQ, [*coords, -1], None)


def _one_degree_complex(terms, dims, dropped):
    """The quotient of the complex with d_1 = the sum of ``terms`` (sign,
    operator), C_0 and C_1 of ``dims`` in blocks "r" and "c", by the
    coordinates ``dropped`` of each block."""
    full = ChainComplex(QQ, lambda n: {("r", "c")[n]: dims[n]} if n in (0, 1) else {},
                        lambda n: [(sign, op, "r", "c") for sign, op in terms] if n == 1 else [])
    return full.quotient(lambda label: [_columns_table(dims[label == "c"], dropped[label])])


def test_block_matrix_on_a_coordinate_quotient_writes_kept_entries_and_certifies_the_rest():
    # column 0 is dropped: its entries on the kept row 1 cancel between the
    # two terms, and its entry on the dropped row 0 is never read
    dropped = {"r": [0], "c": [0]}
    a, b = M([[1, 0], [1, 2], [0, 3]]), M([[0, 0], [1, 0], [0, 0]])
    for second in (b, b.table()):  # a matrix and a table are restricted alike
        got = _one_degree_complex([(1, a), (-1, second)], [3, 2], dropped).d(1)
        assert got == M([[2], [3]])
    with pytest.raises(NotWellDefined, match="not a quotient complex: d sends the dropped "
                                             "column 0 of block c to the kept row 0 of block r"):
        _one_degree_complex([(1, a)], [3, 2], dropped).d(1)
    with pytest.raises(ShapeMismatch):  # shapes are those of the unquotiented blocks
        _one_degree_complex([(1, got)], [3, 2], dropped).d(1)


def test_coordinate_quotient_by_a_subcomplex_keeps_the_homology():
    # e0 -> f0 spans an acyclic subcomplex D; e1 -> 0 and f1 -> g stay
    d, dims = {1: M([[0, 1]]), 2: M([[1, 0], [0, 0]])}, [1, 2, 2]
    full = ChainComplex(QQ, lambda n: {n: dims[n]} if 0 <= n < 3 else {},
                        lambda n: [(1, d[n], n - 1, n)] if n in d else [])
    quotient = full.quotient(lambda label: [_columns_table(dims[label], [0])] if label else [])
    assert [quotient.dim(n) for n in range(3)] == [1, 1, 1]
    assert quotient.d(1) == M([[1]]) and quotient.d(2).is_zero_matrix()
    assert quotient.homology_dims(2) == full.homology_dims(2) == [0, 0, 1]
    # e1 and f1 span no subcomplex, since f1 -> g is kept
    bad = full.quotient(lambda label: [_columns_table(dims[label], [1])] if label else [])
    assert bad.d(2) == M([[1]])
    with pytest.raises(NotWellDefined, match="not a quotient complex"):
        bad.homology_dims(1)


def test_solve_and_inverse():
    a = M([[2, 1], [1, 1]])
    b = M([[1], [0]])
    x = solve(a, b)
    assert a @ x == b
    ai = inverse(a)
    assert (a @ ai).is_identity() and (ai @ a).is_identity()
    with pytest.raises(Inconsistent):
        inverse(M([[1, 2], [2, 4]]))
    with pytest.raises(Inconsistent):
        solve(M([[1, 2], [2, 4]]), M([[0], [1]]))


def test_apply_on_leg_and_permutation():
    mult = M([[1, 0, 0, 1], [0, 1, 1, 0]])
    dims = [2, 2, 2]
    op = apply_on_leg(mult, dims, 1, arity=2)
    assert op.rows == 4 and op.cols == 8
    perm = permutation_matrix([2, 3], [1, 0], QQ)
    assert perm.rows == 6
    # round trip: permuting back is the inverse
    back = permutation_matrix([3, 2], [1, 0], QQ)
    assert (back @ perm).is_identity()


def test_shape_guards():
    with pytest.raises(ShapeMismatch):
        M([[1]]) @ M([[1, 2], [3, 4]])
    with pytest.raises(ShapeMismatch):
        equalizer(M([[1]]), M([[1, 2]]))


IDENTITY_FIELDS = [QQ, PrimeField(5), PrimeField(2**31 - 1)]
identity_fields = pytest.mark.parametrize("field", IDENTITY_FIELDS, ids=str)


def _product_via_dense(a, b):
    f = a.field
    return from_dense(_dense_product(_dense(a, f), _dense(b, f), f), f)


def _dense_kron(a, b):
    f = a.field
    return from_dense(
        [[f.mul(a.get(i1, j1), b.get(i2, j2)) for j1 in range(a.cols) for j2 in range(b.cols)]
         for i1 in range(a.rows) for i2 in range(b.rows)], f)


def _scrambled(field, rows, cols, seed):
    """A matrix whose rows, and the entries within each, are in scrambled order."""
    rng = random.Random(seed)
    keys = [(i, j) for i in range(rows) for j in range(cols) if rng.random() < 0.6]
    rng.shuffle(keys)
    values = ["-1/2", "3", "2/3", "-4", "7"]  # nonzero in every field used here
    return from_keyed(rows, cols, field,
                      {k: field.from_str(values[n % len(values)]) for n, k in enumerate(keys)})


@identity_fields
def test_products_with_identity_factors_equal_dense_products(field):
    x = _scrambled(field, 3, 4, 1)
    i3, i4 = SparseMatrix.identity(3, field), SparseMatrix.identity(4, field)
    # an identity built entry by entry is recognized too
    j4 = from_keyed(4, 4, field, {(k, k): field.one for k in reversed(range(4))})
    assert i3 @ x == _product_via_dense(i3, x) == x
    assert x @ i4 == _product_via_dense(x, i4) == x
    assert x @ j4 == _product_via_dense(x, j4) == x
    assert i3.kron(i4) == _dense_kron(i3, i4) == SparseMatrix.identity(12, field)
    assert i3.kron(j4) == _dense_kron(i3, j4)
    assert (i3.kron(i4) @ x.kron(i4)) == x.kron(i4)


@identity_fields
def test_product_with_an_identity_keeps_the_other_factors_key_order(field):
    x = _scrambled(field, 3, 4, 2)
    keys = list(to_keyed(x))
    assert keys != sorted(keys)
    assert list(to_keyed(x @ SparseMatrix.identity(4, field))) == keys
    assert list(to_keyed(SparseMatrix.identity(3, field) @ x)) == keys


@identity_fields
def test_identity_factor_still_checks_shapes(field):
    x = _scrambled(field, 3, 4, 3)
    with pytest.raises(ShapeMismatch):
        SparseMatrix.identity(4, field) @ x
    with pytest.raises(ShapeMismatch):
        x @ SparseMatrix.identity(3, field)
    with pytest.raises(ShapeMismatch):
        SparseMatrix.identity(2, field) @ SparseMatrix.identity(3, field)


def _look_alikes(field):
    one, two = field.one, field.from_int(2)
    return {
        "2I": SparseMatrix.identity(3, field).scale(two),
        "permutation": from_keyed(3, 3, field, {(1, 0): one, (2, 1): one, (0, 2): one}),
        "I plus an off-diagonal entry": from_keyed(
            3, 3, field, {(0, 0): one, (1, 1): one, (2, 2): one, (0, 2): one}),
        "3x4 with ones on its diagonal": from_keyed(
            3, 4, field, {(0, 0): one, (1, 1): one, (2, 2): one}),
    }


@identity_fields
@pytest.mark.parametrize("kind", list(_look_alikes(QQ)))
def test_identity_look_alikes_are_multiplied(field, kind):
    m = _look_alikes(field)[kind]
    assert not m.is_identity()
    left, right = _scrambled(field, 2, m.rows, 4), _scrambled(field, m.cols, 2, 5)
    assert left @ m == _product_via_dense(left, m)
    assert m @ right == _product_via_dense(m, right)
    assert m.kron(m) == _dense_kron(m, m)
    assert m.kron(SparseMatrix.identity(2, field)) == _dense_kron(m, SparseMatrix.identity(2, field))


@identity_fields
def test_composite_is_zero_matches_the_product(field):
    rng = random.Random(6)
    for _ in range(40):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = _scrambled(field, n, k, rng.randrange(10**6))
        b = kernel(a).section  # a @ b = 0, with terms that cancel
        assert composite_is_zero(a, b) and (a @ b).is_zero_matrix()
        c = _scrambled(field, k, m, rng.randrange(10**6))
        assert composite_is_zero(a, c) == (a @ c).is_zero_matrix()
    with pytest.raises(ShapeMismatch):
        composite_is_zero(SparseMatrix.identity(2, field), SparseMatrix.identity(3, field))


def _monomial(field, rows, cols, seed, by_rows=False):
    """A matrix with at most one entry in each column (each row with
    ``by_rows``), some columns (rows) empty, keys in scrambled order."""
    rng = random.Random(seed)
    values = ["-1/2", "3", "2/3", "-4", "7"]  # nonzero in every field used here
    outer, inner = (rows, cols) if by_rows else (cols, rows)
    data = {}
    for k in rng.sample(range(outer), outer):
        if rng.random() < 0.75:
            other = rng.randrange(inner)
            data[(k, other) if by_rows else (other, k)] = field.from_str(rng.choice(values))
    return from_keyed(rows, cols, field, data)


@identity_fields
@pytest.mark.parametrize("by_rows", [False, True], ids=["columns", "rows"])
def test_index_tables_compose_as_the_matrix_products(field, by_rows):
    rng = random.Random(7)

    def table(m):
        return m.table(by_rows)

    def compose(outer, inner):  # a table of either orientation composes as its matrix
        return outer @ inner

    for _ in range(60):
        n, k, m, q = (rng.randint(1, 5) for _ in range(4))
        a, b, c = (_monomial(field, r, s, rng.randrange(10**6), by_rows)
                   for r, s in ((n, k), (k, m), (m, q)))
        assert compose(table(a), table(b)) == table(a @ b) == table(_product_via_dense(a, b))
        # the composite's empty columns are read again by a further product
        assert compose(compose(table(a), table(b)), table(c)) == table(a @ b @ c)
        assert compose(table(a), compose(table(b), table(c))) == table(a @ b @ c)
        assert compose(table(a), IndexTable.identity(k, field, by_rows)) == table(a)
        assert compose(IndexTable.identity(n, field, by_rows), table(a)) == table(a)
        assert (table(a) == table(a.scale(field.from_int(2)))) == a.is_zero_matrix()
        assert table(a).matrix() == a and table(a @ b).matrix() == a @ b
    assert IndexTable.identity(4, field, by_rows) == table(SparseMatrix.identity(4, field))


@identity_fields
@pytest.mark.parametrize("by_rows", [False, True], ids=["columns", "rows"])
def test_all_ones_index_tables_compose_indices_only(field, by_rows):
    """Tables whose entries are all 1 keep no value list and compose their
    indices alone; they equal a table that keeps one exactly when the
    matrices are equal, whichever way that table was reached."""
    rng = random.Random(3)

    def table(m):
        return m.table(by_rows)

    def compose(outer, inner):
        return outer @ inner

    def ones(m):
        return from_keyed(m.rows, m.cols, field, {k: field.one for k in to_keyed(m)})

    def signs(m):  # entries -1, so that a product of two is all ones again
        return from_keyed(m.rows, m.cols, field, {k: field.from_int(-1) for k in to_keyed(m)})

    for _ in range(60):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        a, b = (_monomial(field, r, s, rng.randrange(10**6), by_rows) for r, s in ((n, k), (k, m)))
        a1, b1 = ones(a), ones(b)
        assert table(a1).val is None and compose(table(a1), table(b1)).val is None
        assert compose(table(a1), table(b1)) == table(a1 @ b1)
        for x, y in ((a1, b), (a, b1)):
            assert compose(table(x), table(y)) == table(x @ y)
            assert compose(table(x), table(y)) == table(_product_via_dense(x, y))
        # signs square to a value list of all ones, kept: it equals the table without one
        sq = _monomial(field, n, n, rng.randrange(10**6), by_rows)
        kept = compose(table(signs(sq)), table(signs(sq)))
        assert (kept.val is None) == sq.is_zero_matrix()
        assert sq.is_zero_matrix() or set(kept.val) <= {0, 1}
        assert kept == table(ones(sq) @ ones(sq)) == table(signs(sq) @ signs(sq))
        assert table(ones(sq) @ ones(sq)).val is None
        assert (kept == table(sq @ sq)) == (sq @ sq == ones(sq) @ ones(sq))
        assert (table(a1) == table(a1.scale(field.from_int(2)))) == a1.is_zero_matrix()
        assert (table(a1.scale(field.from_int(2))) == table(a1)) == a1.is_zero_matrix()
    assert IndexTable.identity(3, field).val is None


@identity_fields
def test_index_tables_hold_the_shape(field):
    zero23, zero33 = SparseMatrix.zeros(2, 3, field), SparseMatrix.zeros(3, 3, field)
    for by_rows in (False, True):
        assert zero23.table(by_rows) != zero33.table(by_rows)
    a, b = _monomial(field, 3, 4, 1), _monomial(field, 5, 2, 2)
    with pytest.raises(ShapeMismatch):
        a.table() @ b.table()
    a_rows, b_rows = _monomial(field, 3, 4, 1, True), _monomial(field, 5, 2, 2, True)
    with pytest.raises(ShapeMismatch):
        a_rows.table(True) @ b_rows.table(True)
    with pytest.raises(ShapeMismatch):
        b_rows.table(True) @ a_rows.table(True)
    # a table of rows and one of columns compose and compare as matrices
    square = _monomial(field, 4, 4, 3)
    mixed = square.table() @ IndexTable.identity(4, field, True)
    assert isinstance(mixed, SparseMatrix) and mixed == square
    assert IndexTable.identity(4, field) == IndexTable.identity(4, field, True)
    perm = IndexTable(4, 4, field, [2, 0, 3, 1, -1], None)
    assert perm.table(True) == perm != IndexTable.identity(4, field, True)
    assert perm.table(True) @ perm.table(True) == perm @ perm == perm.table(True) @ perm
    with pytest.raises(ShapeMismatch):
        square.table() @ a_rows.table(True)
    with pytest.raises(ShapeMismatch):
        a.table() @ IndexTable.identity(3, field)


@identity_fields
def test_index_tables_only_of_monomial_matrices(field):
    one = field.one
    two_in_a_column = from_keyed(3, 2, field, {(0, 1): one, (2, 1): one})
    assert two_in_a_column.table() is None
    assert two_in_a_column.table(True) is not None
    assert two_in_a_column.t().table(True) is None
    assert _scrambled(field, 4, 4, 8).table() is None


@identity_fields
@pytest.mark.parametrize("by_rows", [False, True], ids=["columns", "rows"])
def test_chain_table_is_the_table_of_its_matrix(field, by_rows):
    """A chain of permutations and leg maps with at most one entry in each
    column (row), some empty, some with values and some all ones, inserted
    legs and consumed ones among them, assembles the table of its matrix;
    a leg map with two entries in a column (row) gives none."""
    rng = random.Random(11)
    for _ in range(80):
        dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        chain = LegChain(dims, field)
        for _ in range(rng.randint(0, 4)):
            cur = chain.dims
            if cur and rng.random() < 0.4:
                perm = list(range(len(cur)))
                rng.shuffle(perm)
                chain = chain.perm(perm)
                continue
            pos = rng.randint(0, len(cur))
            arity = rng.randint(0, min(2, len(cur) - pos))
            out_dims = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
            op = _monomial(field, tensor_dim(out_dims), tensor_dim(cur[pos:pos + arity]),
                           rng.randrange(10**6), by_rows)
            if rng.random() < 0.3:
                op = from_keyed(op.rows, op.cols, field, {k: field.one for k in to_keyed(op)})
            chain = chain.leg(op, pos, arity, out_dims)
        assert chain.table(by_rows) == chain.matrix().table(by_rows)
        assert chain.table(by_rows).matrix() == chain.matrix()
    two = from_keyed(2, 1, field, {(0, 0): field.one, (1, 0): field.one})
    split, merge = LegChain([1], field).leg(two, 0), LegChain([2], field).leg(two.t(), 0)
    assert split.table() is None and split.table(True) == two.table(True)
    assert merge.table(True) is None and merge.table() == two.t().table()
