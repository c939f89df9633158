"""The structure-map builders of ``hopf``, ``sayd`` and ``cyclic`` against
element-level Sweedler references.

Each reference expands every coproduct one Sweedler combination at a
time with the helpers of ``tests/sweedler.py``, which read the structure
constants directly, so a reference and the leg-map chain it checks share
no code.  Every builder is compared on every preset pair over Q and F_7.
"""

import itertools

import pytest
import sweedler as sw
from oracle import (
    adjoint_action,
    cyclic_group_algebra_dense,
    hochschild_boundary,
    sweedler_dense,
    tor_boundary,
)

from hopfcyclic.cyclic import chain_complex, diagonal_action, relative_cyclic
from hopfcyclic.hopf import (
    canonical_map_n,
    cocanonical_map,
    tensor_power_over_b,
    translation_map,
    trivial_subalgebra,
)
from hopfcyclic.linalg import QQ, PrimeField, SubquotientSpace, induced_map
from hopfcyclic.presets import SETUP_NAMES, builtin_hopf, builtin_setup
from hopfcyclic.sayd import ad_module, coad_module
from hopfcyclic.specseq import bar_complex
from support import from_keyed, restricted, unnormalized_complex

FIELDS = [QQ, PrimeField(7)]

pairs = pytest.mark.parametrize("name", SETUP_NAMES)
fields = pytest.mark.parametrize("field", FIELDS, ids=str)


def _matrix(nrows, cols, f):
    return from_keyed(nrows, len(cols), f,
                      {(i, j): v for j, col in enumerate(cols) for i, v in col.items()})


def _ref_canonical(h, c, n):
    """Ambient matrices of the degree-n canonical map and of its inverse."""
    f, d, cd = h.field, h.dim, c.dim
    fwd = []
    for tup in itertools.product(range(d), repeat=n + 1):
        # m (x) h^1 ... h^n -> m h^1_(1) ... h^n_(1) (x) bar(h^1_(2) ... h^n_(2)) (x) ...
        expansions = [sw.delta_iter(h, sw.basis(h, tup[i]), i) for i in range(1, n + 1)]
        col = {}
        for combo in itertools.product(*[e.items() for e in expansions]):
            paths = [t for t, _ in combo]  # paths[i - 1] splits h^i into i + 1 pieces
            legs = [sw.mul_many(h, [sw.basis(h, tup[0])] + [sw.basis(h, p[0]) for p in paths])]
            for j in range(1, n + 1):
                prod = sw.mul_many(h, [sw.basis(h, paths[i - 1][j]) for i in range(j, n + 1)])
                legs.append(sw.apply(c.space.projection, prod))
            sw.accumulate(col, legs, [d] + [cd] * n, sw.coefficient(f, combo), f)
        fwd.append(col)
    inv = []
    for tup in itertools.product(range(d), *[range(cd)] * n):
        # m (x) bar g^1 (x) ... -> m S(g^1_(1)) (x) g^1_(2) S(g^2_(1)) (x) ... (x) g^n_(2)
        expansions = [sw.delta(h, sw.column(c.space.section, tup[j])) for j in range(1, n + 1)]
        col = {}
        for combo in itertools.product(*[e.items() for e in expansions]):
            pieces = [t for t, _ in combo]
            legs = [sw.mul(h, sw.basis(h, tup[0]), sw.antipode(h, sw.basis(h, pieces[0][0])))]
            for j in range(1, n):
                legs.append(sw.mul(h, sw.basis(h, pieces[j - 1][1]),
                                   sw.antipode(h, sw.basis(h, pieces[j][0]))))
            legs.append(sw.basis(h, pieces[n - 1][1]))
            sw.accumulate(col, legs, [d] * (n + 1), sw.coefficient(f, combo), f)
        inv.append(col)
    return _matrix(d * cd ** n, fwd, f), _matrix(d ** (n + 1), inv, f)


@fields
@pairs
def test_canonical_map_matches_reference(name, field):
    s = builtin_setup(name, field)
    h, b, c = s.hopf, s.subalgebra, s.quotient
    for n in (1, 2):
        can, can_inv, dom = canonical_map_n(h, b, c, n)
        fwd, inv = _ref_canonical(h, c, n)
        full = SubquotientSpace.full(h.dim * c.dim ** n, field)
        assert can == induced_map(fwd, dom, full), n
        assert can_inv == induced_map(inv, full, dom), n


@fields
@pairs
def test_translation_map_matches_reference(name, field):
    s = builtin_setup(name, field)
    h, b, c = s.hopf, s.subalgebra, s.quotient
    d = h.dim
    cols = []
    for j in range(c.dim):
        # bar h -> S(h_(1)) (x) h_(2) on the fixed lift of bar h
        col = {}
        for (i1, i2), v in sw.delta(h, sw.column(c.space.section, j)).items():
            legs = [sw.antipode(h, sw.basis(h, i1)), sw.basis(h, i2)]
            sw.accumulate(col, legs, [d, d], v, field)
        cols.append(col)
    want = tensor_power_over_b(h, b, 2).projection @ _matrix(d * d, cols, field)
    assert translation_map(h, b, c) == want


@fields
@pairs
def test_cocanonical_map_matches_reference(name, field):
    s = builtin_setup(name, field)
    h, b, c = s.hopf, s.subalgebra, s.quotient
    d = h.dim
    cols = []
    for jb in range(b.dim):
        bvec = sw.column(b.space.section, jb)
        for jd in range(d):
            # b (x) d -> b d_(1) (x) d_(2)
            col = {}
            for (i1, i2), v in sw.delta(h, sw.basis(h, jd)).items():
                sw.accumulate(col, [sw.mul(h, bvec, sw.basis(h, i1)), sw.basis(h, i2)],
                              [d, d], v, field)
            cols.append(col)
    red, cot, _ = cocanonical_map(h, b, c)
    assert red == induced_map(_matrix(d * d, cols, field),
                              SubquotientSpace.full(b.dim * d, field), cot)


def _ref_ad(h):
    """h |> h' = h_(2) h' S(h_(1)), column h (x) h'."""
    d, f = h.dim, h.field
    cols = []
    for i, j in itertools.product(range(d), repeat=2):
        col = {}
        for (a, b), v in sw.delta(h, sw.basis(h, i)).items():
            term = sw.mul(h, sw.mul(h, sw.basis(h, b), sw.basis(h, j)),
                          sw.antipode(h, sw.basis(h, a)))
            sw.accumulate(col, [term], [d], v, f)
        cols.append(col)
    return _matrix(d, cols, f)


@fields
@pairs
def test_ad_action_matches_reference(name, field):
    h = builtin_setup(name, field).hopf
    assert ad_module(h).action == _ref_ad(h)


_ORACLE_ALGEBRAS = {
    "kC2": lambda: cyclic_group_algebra_dense(2),
    "kC3": lambda: cyclic_group_algebra_dense(3),
    "kC4": lambda: cyclic_group_algebra_dense(4),
    "H4": sweedler_dense,
}


@fields
@pytest.mark.parametrize("name", sorted(_ORACLE_ALGEBRAS))
def test_ad_action_matches_oracle(name, field):
    h = builtin_hopf(name, field)
    alg = _ORACLE_ALGEBRAS[name]()

    def values(terms):
        out = {k: field.from_str(str(v)) for k, v in terms}
        return {k: v for k, v in out.items() if not field.is_zero(v)}

    # the oracle's hand-written structure constants are the package's
    for i, j in itertools.product(range(h.dim), repeat=2):
        assert values(alg.mult[(i, j)]) == {
            k: v for (a, b, k), v in h.mult.items() if (a, b) == (i, j)}
    action = ad_module(h).action
    for i, j in itertools.product(range(h.dim), repeat=2):
        got = {r: v for r, col, v in action.entries() if col == i * h.dim + j}
        assert got == values(adjoint_action(alg, i, j)), (i, j)


def _oracle_matrix(cols, rows, field):
    """Dense oracle columns (``Fraction`` entries) as a matrix over ``field``."""
    data = {}
    for j, col in enumerate(cols):
        for i, v in enumerate(col):
            x = field.from_str(str(v))
            if not field.is_zero(x):
                data[(i, j)] = x
    return from_keyed(rows, len(cols), field, data)


@fields
@pytest.mark.parametrize("name", sorted(_ORACLE_ALGEBRAS))
def test_boundaries_match_oracle(name, field):
    # matrix for matrix, not only in rank: the Tor bar boundary with k through
    # the counit and ad H, and the Hochschild boundary of C(H|k), unnormalized
    # and on the tuples with no unit in legs 1..q, which the package ranks
    h = builtin_hopf(name, field)
    alg = _ORACLE_ALGEBRAS[name]()
    ad = ad_module(h)
    tor = bar_complex(h, h.eps, 1, ad.operator_action, ad.dim)
    cm = relative_cyclic(h, trivial_subalgebra(h), 3)
    hochschild, unnormalized = chain_complex(cm), unnormalized_complex(cm)

    def normalized(q):
        return [k for k, tup in enumerate(itertools.product(range(h.dim), repeat=q + 1))
                if alg.unit_index not in tup[1:]]

    for q in (1, 2, 3):
        assert tor.d(q) == _oracle_matrix(tor_boundary(alg, q), h.dim ** q, field), q
        b = _oracle_matrix(hochschild_boundary(alg, q), h.dim ** q, field)
        assert unnormalized.d(q) == b, q
        assert hochschild.d(q) == restricted(b, normalized(q - 1), normalized(q)), q


@fields
@pairs
def test_coad_coactions_match_reference(name, field):
    h = builtin_setup(name, field).hopf
    d = h.dim
    left, right = [], []
    for j in range(d):
        lcol, rcol = {}, {}
        for (a, b, c), v in sw.delta_iter(h, sw.basis(h, j), 2).items():
            s_a = sw.antipode(h, sw.basis(h, a))
            s_c = sw.antipode(h, sw.basis(h, c))
            # h -> S(h_(3)) h_(1) (x) h_(2)  and  h -> h_(2) (x) h_(3) S(h_(1))
            sw.accumulate(lcol, [sw.mul(h, s_c, sw.basis(h, a)), sw.basis(h, b)], [d, d], v, field)
            sw.accumulate(rcol, [sw.basis(h, b), sw.mul(h, sw.basis(h, c), s_a)], [d, d], v, field)
        left.append(lcol)
        right.append(rcol)
    coad = coad_module(h)
    assert coad.coaction == _matrix(d * d, left, field)
    assert coad.cotensor_coaction == _matrix(d * d, right, field)


@fields
@pairs
def test_diagonal_action_matches_reference(name, field):
    c = builtin_setup(name, field).quotient
    h, cd = c.parent, c.dim
    d = h.dim
    for legs in (1, 2, 3):
        cols = []
        for tup in itertools.product(range(cd), repeat=legs):
            for g in range(d):
                # (c^1 ... c^k) (x) g -> c^1 g_(1) (x) ... (x) c^k g_(k)
                col = {}
                for path, v in sw.delta_iter(h, sw.basis(h, g), legs - 1).items():
                    pieces = [sw.apply(c.action, {tup[i] * d + path[i]: field.one})
                              for i in range(legs)]
                    sw.accumulate(col, pieces, [cd] * legs, v, field)
                cols.append(col)
        assert diagonal_action(c, legs) == _matrix(cd ** legs, cols, field), legs
