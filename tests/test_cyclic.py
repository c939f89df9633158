import functools
from dataclasses import replace

import pytest

from hopfcyclic.cyclic import (
    CyclicModule,
    TruncationError,
    chain_complex,
    check_identities,
    coext_cyclic,
    coextension_space,
    cocyclic_dual,
    cyclic_dual,
    cyclic_homology,
    hochschild_homology,
    hopf_cocyclic_coalgebra,
    hopf_cyclic_coalgebra,
    hopf_cyclic_comodule_algebra,
    hopf_cyclic_spaces,
    normalized_complex,
    relative_cyclic,
    relative_cocyclic_coext,
)
from hopfcyclic.cli import run
from hopfcyclic.hopf import (
    commutator_quotient,
    quotient_module_coalgebra,
    subalgebra_from_columns,
    tensor_power_over_b,
    trivial_subalgebra,
)
from hopfcyclic.linalg import (
    QQ,
    ChainComplex,
    IndexTable,
    LegChain,
    NotWellDefined,
    PrimeField,
    ShapeMismatch,
    SparseMatrix,
    SubquotientSpace,
    apply_on_leg,
    induced_map,
    induced_table,
    kernel,
    permutation_matrix,
)
from hopfcyclic.loaders import load_hopf_json
from hopfcyclic.presets import PAIR_NAMES, SETUP_NAMES, builtin_hopf, builtin_setup
from hopfcyclic.sayd import ad_module, coad_module
from oracle import burghelea_hh, closure
from support import (
    connes_reference,
    from_keyed,
    kept_coordinates,
    reference_dual,
    restricted,
    to_keyed,
    trivial_sayd,
    uncached,
    unnormalized_complex,
)

# frozen by the dense brute-force oracle (tests/oracle.py)
HH_H4 = [2, 1, 1, 1]
HC_KC2 = [2, 0, 2, 0]
HC_H4 = [2, 1, 2, 1]
REFERENCE_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(2 ** 31 - 1)]


def cyclic_modules_equal(a, b):
    """Spaces assumed shared; compares every operator matrix."""
    return a.n_max == b.n_max and a.t == b.t and a.d == b.d and a.s == b.s


def trivial_quotient(h):
    """C = k: quotient by the whole augmentation ideal."""
    ker_eps = kernel(h.eps)
    return quotient_module_coalgebra(h, ker_eps.section)


def full_quotient(h):
    return quotient_module_coalgebra(h, SparseMatrix.zeros(h.dim, 0, QQ))


def test_relative_cyclic_base_field_dims():
    s = builtin_setup("kC2/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 3)
    assert cm.dims() == [2, 4, 8, 16]
    assert check_identities(cm).ok


def test_relative_cyclic_collapse_b_equals_a():
    h = builtin_hopf("kS3")
    b = subalgebra_from_columns(h, h.ident())
    cm = relative_cyclic(h, b, 2)
    # [A (x)_A ... (x)_A A]_A = A/[A,A] in every degree; kS3 has 3 classes
    assert cm.dims() == [3, 3, 3]
    assert check_identities(cm).ok


def test_relative_cyclic_ks3_kc2_identities_and_dims():
    s = builtin_setup("kS3/kC2")
    cm = relative_cyclic(s.hopf, s.subalgebra, 3)
    assert cm.spaces[0].dim == 4  # kS3 / [kS3, kC2]
    assert check_identities(cm).ok


def test_hopf_cyclic_trivial_coalgebra_and_coefficients():
    h = builtin_hopf("kC2")
    c = trivial_quotient(h)
    m = trivial_sayd(h)
    cm = hopf_cyclic_coalgebra(c, m, 3)
    assert cm.dims() == [1, 1, 1, 1]
    for n in range(4):
        assert cm.t[n].matrix().is_identity()
    assert check_identities(cm).ok


def test_hopf_cyclic_full_quotient_matches_relative():
    h = builtin_hopf("kC2")
    cm = hopf_cyclic_coalgebra(full_quotient(h), ad_module(h), 3)
    s = builtin_setup("kC2/k")
    rel = relative_cyclic(s.hopf, s.subalgebra, 3)
    assert cm.dims() == rel.dims() == [2, 4, 8, 16]
    assert check_identities(cm).ok


def test_hopf_cyclic_ks3_dims_match_relative():
    s = builtin_setup("kS3/kC2")
    cm = hopf_cyclic_coalgebra(s.quotient, ad_module(s.hopf), 3)
    rel = relative_cyclic(s.hopf, s.subalgebra, 3)
    assert cm.dims() == rel.dims()
    assert check_identities(cm).ok


def test_hopf_cyclic_sweedler_dims_match_relative():
    s = builtin_setup("H4/B")
    cm = hopf_cyclic_coalgebra(s.quotient, ad_module(s.hopf), 3)
    rel = relative_cyclic(s.hopf, s.subalgebra, 3)
    assert cm.dims() == rel.dims()
    assert check_identities(cm).ok and check_identities(rel).ok


def test_coext_trivial_quotient_is_full_tensor_power():
    h = builtin_hopf("kC2")
    c = trivial_quotient(h)
    for legs in (1, 2, 3):
        assert coextension_space(h, c, legs).dim == 2 ** legs


def test_coext_cyclic_identities():
    s = builtin_setup("kS3/kC2")
    cm = coext_cyclic(s.hopf, s.quotient, 3)
    assert check_identities(cm).ok
    ccm = relative_cocyclic_coext(s.hopf, s.quotient, 3)
    assert check_identities(ccm).ok


def test_coext_cyclic_pontryagin_dimension_match():
    # O(S3) coextension dims agree degreewise with the kS3 relative object
    s_fun = builtin_setup("OS3/OC2")
    s_grp = builtin_setup("kS3/kC2")
    cm_fun = coext_cyclic(s_fun.hopf, s_fun.quotient, 2)
    rel = relative_cyclic(s_grp.hopf, s_grp.subalgebra, 2)
    assert cm_fun.dims() == rel.dims()
    assert check_identities(cm_fun).ok


def test_comodule_algebra_trivial_case():
    h = builtin_hopf("kC2")
    b = trivial_subalgebra(h)
    cm = hopf_cyclic_comodule_algebra(h, b, trivial_sayd(h), 3)
    assert cm.dims() == [1, 1, 1, 1]
    assert check_identities(cm).ok


def test_comodule_algebra_full_b_matches_coext():
    h = builtin_hopf("kC2")
    b = subalgebra_from_columns(h, h.ident())
    coad = coad_module(h)
    cm = hopf_cyclic_comodule_algebra(h, b, coad, 3)
    c = trivial_quotient(h)
    dual_side = coext_cyclic(h, c, 3)
    assert cm.dims() == dual_side.dims() == [2, 4, 8, 16]
    assert check_identities(cm).ok


def test_comodule_algebra_ks3_dims_match_coext():
    s = builtin_setup("kS3/kC2")
    coad = coad_module(s.hopf)
    cm = hopf_cyclic_comodule_algebra(s.hopf, s.subalgebra, coad, 3)
    dual_side = coext_cyclic(s.hopf, s.quotient, 3)
    assert cm.dims() == dual_side.dims()
    assert check_identities(cm).ok


def test_cocyclic_coalgebra_identities_and_duality():
    """The Connes dual of the cocyclic coalgebra object is a cyclic module
    and equals the one descended from explicit chains, which share no code
    with ``cyclic_dual``."""
    for name in ("kC2/k", "kS3/kC2"):
        s = builtin_setup(name)
        c = s.quotient if s.quotient.dim < s.hopf.dim else full_quotient(s.hopf)
        m = ad_module(s.hopf)
        spaces = hopf_cyclic_spaces(c, m, 2)
        ccm = hopf_cocyclic_coalgebra(c, m, 2, spaces=spaces)
        assert check_identities(ccm).ok
        dual = cyclic_dual(ccm)
        assert check_identities(dual).ok
        assert cyclic_modules_equal(dual, _coalgebra_chains(c, m, ccm))


def test_coextension_duality():
    """The same for the coextension object, on the pair whose
    comultiplication is not grouplike as well as on a group algebra."""
    for name in ("kS3/kC2", "OS3/OC2"):
        s = builtin_setup(name)
        spaces = [coextension_space(s.hopf, s.quotient, n + 1) for n in range(3)]
        ccm = relative_cocyclic_coext(s.hopf, s.quotient, 2, spaces=spaces)
        dual = cyclic_dual(ccm)
        assert check_identities(dual).ok
        assert cyclic_modules_equal(dual, _coext_chains(s.hopf, ccm))


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
@pytest.mark.parametrize("name", SETUP_NAMES)
def test_connes_duals_keep_their_kind_and_match_the_inverted_reference(name, field):
    """On both cocyclic modules of every pair, each operator of the Connes
    dual has the matrix of the reference that inverts tau by elimination,
    t = tau^n among them, and the dual is all tables exactly when its
    cocyclic module is."""
    built = _six_constructions(name, field)
    for kind in ("relative_cocyclic_coext", "hopf_cocyclic_coalgebra"):
        ccm = built[kind]
        dual, ref = cyclic_dual(ccm), reference_dual(ccm)
        for mine, theirs in zip(_operator_dicts(dual), _operator_dicts(ref)):
            assert mine.keys() == theirs.keys(), kind
            for key, op in mine.items():
                assert op.matrix() == theirs[key], (kind, key)
        tables = [isinstance(m, IndexTable) for op in _operator_dicts(ccm) for m in op.values()]
        assert all(isinstance(m, IndexTable) for op in _operator_dicts(dual)
                   for m in op.values()) == all(tables), kind


@pytest.mark.parametrize("as_table", [False, True], ids=["matrix", "table"])
def test_connes_dual_refuses_a_rotation_whose_cube_is_not_the_identity(as_table):
    """tau_2 replaced by the transposition of two coordinates, as a matrix
    or as its table, has tau^3 != id: the dual names degree 2, and below
    it the mutant dualizes to a cyclic module."""
    ccm = _six_constructions("kS3/kC2", QQ)["relative_cocyclic_coext"]
    dim = ccm.spaces[2].dim
    swap = SparseMatrix(dim, dim, QQ, {0: {1: 1}, 1: {0: 1}, **{i: {i: 1} for i in range(2, dim)}})
    mutant = replace(ccm, tau={**ccm.tau, 2: swap.table() if as_table else swap})
    assert check_identities(cyclic_dual(replace(mutant, n_max=1))).ok
    with pytest.raises(NotWellDefined, match="at degree 2$"):
        cyclic_dual(mutant)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
@pytest.mark.parametrize("name", SETUP_NAMES)
def test_cocyclic_dual_inverts_the_connes_dual(name, field):
    """Both cocyclic modules of every pair come back from their Connes
    duals, and C(H|B) from its cocyclic dual, operator by operator."""
    built = _six_constructions(name, field)
    for kind in ("relative_cocyclic_coext", "hopf_cocyclic_coalgebra", "relative_cyclic"):
        x = built[kind]
        back = cyclic_dual(cocyclic_dual(x)) if kind == "relative_cyclic" \
            else cocyclic_dual(cyclic_dual(x))
        assert back.spaces is x.spaces, kind
        for mine, theirs in zip(_operator_dicts(back), _operator_dicts(x)):
            assert mine.keys() == theirs.keys(), kind
            for key, op in mine.items():
                assert op == theirs[key], (kind, key)


def test_cocyclic_dual_refuses_a_rotation_whose_cube_is_not_the_identity():
    """t_2 of C(kS3|kC2) replaced by the transposition of two coordinates:
    the cocyclic dual names degree 2, and below it the mutant dualizes."""
    cm = _six_constructions("kS3/kC2", QQ)["relative_cyclic"]
    dim = cm.spaces[2].dim
    swap = SparseMatrix(dim, dim, QQ, {0: {1: 1}, 1: {0: 1}, **{i: {i: 1} for i in range(2, dim)}})
    mutant = replace(cm, t={**cm.t, 2: swap.table()})
    assert check_identities(cocyclic_dual(replace(mutant, n_max=1))).ok
    with pytest.raises(NotWellDefined, match="t\\^3 != id at degree 2$"):
        cocyclic_dual(mutant)


# ---------------------------------------------------------------------------
# the derived operators against the chains the constructions once descended


def _coext_chains(h, x):
    """The coextension cyclic module on x's spaces, descended from explicit
    chains: counit faces, coproduct degeneracies, last leg to the front."""
    d, f = h.dim, h.field

    def legs(n):
        return LegChain([d] * (n + 1), f)

    return CyclicModule(x.n_max, x.spaces,
                        _faces(x, lambda n, i: legs(n).leg(h.eps, i, 1, [])),
                        _degeneracies(x, lambda n, j: legs(n).leg(h.delta, j, 1, [d, d])),
                        _rotations(x, lambda n: legs(n).perm([n] + list(range(n)))))


def _coalgebra_chains(c, m, x):
    """The Hopf-cyclic coalgebra cyclic module on x's spaces, descended from
    explicit chains: counit faces, coproduct degeneracies and the rotation
    (c^0 ... c^n) (x) m -> (c^n . m_(1) (x) c^0 ... c^{n-1}) (x) m_(0)."""
    d, cd, md, f = c.parent.dim, c.dim, m.dim, c.parent.field

    def legs(n):
        return LegChain([cd] * (n + 1) + [md], f)

    return CyclicModule(x.n_max, x.spaces,
                        _faces(x, lambda n, i: legs(n).leg(c.eps_c, i, 1, [])),
                        _degeneracies(x, lambda n, j: legs(n).leg(c.delta_c, j, 1, [cd, cd])),
                        _rotations(x, lambda n: legs(n).leg(m.coaction, n + 1, 1, [md, d])
                                   .perm([n, n + 2] + list(range(n)) + [n + 1])
                                   .leg(c.action, 0, 2)))


def _faces(x, face):
    return {(n, i): induced_map(face(n, i), x.spaces[n], x.spaces[n - 1])
            for n in range(1, x.n_max + 1) for i in range(n + 1)}


def _degeneracies(x, degeneracy):
    return {(n, j): induced_map(degeneracy(n, j), x.spaces[n], x.spaces[n + 1])
            for n in range(x.n_max) for j in range(n + 1)}


def _rotations(x, rotation):
    return {n: induced_map(rotation(n), x.spaces[n], x.spaces[n]) for n in range(x.n_max + 1)}


def _last_faces(x, face):
    return {(n, n): induced_map(face(n), x.spaces[n], x.spaces[n - 1])
            for n in range(1, x.n_max + 1)}


def _wrap_cofaces(x, coface):
    return {(n, n + 1): induced_map(coface(n), x.spaces[n], x.spaces[n + 1])
            for n in range(x.n_max)}


def _restricted(ops, reference):
    return {k: ops[k] for k in reference}


def _as_matrices(ops, field):
    return {k: m.matrix() for k, m in ops.items()}


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
@pytest.mark.parametrize("name", SETUP_NAMES)
def test_derived_operators_match_the_chains_they_replace(name, field):
    """The two Connes duals, every composed last face and every composed
    wrap-around coface equal the descents of explicit reference chains."""
    n_max = 2 if name == "kS3/k" else 3
    s = builtin_setup(name, field)
    h, b, c, f = s.hopf, s.subalgebra, s.quotient, field
    ad, coad = ad_module(h), coad_module(h)
    d, bd, cd, md = h.dim, b.dim, c.dim, ad.dim

    def legs(n):
        return LegChain([d] * (n + 1), f)

    def coalgebra_legs(n):
        return LegChain([cd] * (n + 1) + [md], f)

    def algebra_legs(n):
        return LegChain([coad.dim] + [bd] * (n + 1), f)

    # the coextension: counit faces, coproduct degeneracies, last leg to the front
    cm = coext_cyclic(h, c, n_max)
    assert cyclic_modules_equal(cm, _coext_chains(h, cm))
    # its wrap coface: the coproduct of the front leg, whose first half goes last
    ccm = relative_cocyclic_coext(h, c, n_max, cm.spaces)
    wrap = _wrap_cofaces(ccm, lambda n: legs(n).leg(h.delta, 0, 1, [d, d])
                         .perm(list(range(1, n + 2)) + [0]))
    assert _as_matrices(_restricted(ccm.delta, wrap), f) == wrap

    # the Hopf-cyclic coalgebra: counit faces, coproduct degeneracies and
    # the coefficient-twisted rotation
    hsp = hopf_cyclic_spaces(c, ad, n_max)
    hm = hopf_cyclic_coalgebra(c, ad, n_max, spaces=hsp)
    assert cyclic_modules_equal(hm, _coalgebra_chains(c, ad, hm))
    # its S^{-1}-twisted wrap coface:
    # (c^0_(2) (x) c^1 ... c^n (x) c^0_(1) . S^{-1}(m_(1))) (x) m_(0)
    hcm = hopf_cocyclic_coalgebra(c, ad, n_max, spaces=hsp)
    wrap = _wrap_cofaces(hcm, lambda n: coalgebra_legs(n).leg(ad.coaction, n + 1, 1, [md, d])
                         .leg(h.antipode_inv, n + 2).leg(c.delta_c, 0, 1, [cd, cd])
                         .perm([1] + list(range(2, n + 2)) + [0, n + 3, n + 2])
                         .leg(c.action, n + 1, 2))
    assert _as_matrices(_restricted(hcm.delta, wrap), f) == wrap

    # the last face of C(H|B): rotate, then multiply the first two legs
    rel = relative_cyclic(h, b, n_max)
    last = _last_faces(rel, lambda n: legs(n).perm([n] + list(range(n))).leg(h.mu, 0, 2))
    assert _as_matrices(_restricted(rel.d, last), f) == last
    # the last face of C(B, M)^H:
    # (m, b^0 ... b^n) -> (b^n_(-1) m, b^n_(0) b^0, b^1 ... b^{n-1})
    com = hopf_cyclic_comodule_algebra(h, b, coad, n_max)
    last = _last_faces(com, lambda n: algebra_legs(n).leg(b.coaction_b, n + 1, 1, [d, bd])
                       .perm([n + 1, 0, n + 2] + list(range(1, n + 1)))
                       .leg(coad.operator_action, 0, 2).leg(b.mult_b, 1, 2))
    assert _as_matrices(_restricted(com.d, last), f) == last


def test_mutant_cyclic_operator_fails():
    s = builtin_setup("kC2/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 2)
    # t -> t^2 still satisfies t^{n+1} = id but breaks the s/t compatibilities
    mutant = replace(cm, t={**cm.t, 1: cm.t[1] @ cm.t[1]})
    rep = check_identities(mutant)
    assert not rep.ok
    # a rescaled rotation fails the torsion identity itself, as a matrix
    # among tables and as a table
    t1 = cm.t[1]
    doubled = IndexTable(t1.rows, t1.cols, t1.field, t1.idx, [2 * (i >= 0) for i in t1.idx])
    for m in (t1.matrix().scale(QQ.from_int(2)), doubled):
        rep2 = check_identities(replace(cm, t={**cm.t, 1: m}))
        assert any("t^2 = id @ 1" in c.name for c in rep2.failures())


def test_mutant_face_fails():
    s = builtin_setup("kC2/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 2)
    zero = SparseMatrix.zeros(cm.spaces[0].dim, cm.spaces[1].dim, QQ)
    mutant = replace(cm, d={**cm.d, (1, 0): zero})
    assert not check_identities(mutant).ok


def test_mutant_cocyclic_operator_fails():
    s = builtin_setup("kC2/k")
    ccm = relative_cocyclic_coext(s.hopf, s.quotient, 2)
    assert check_identities(ccm).ok
    # a rescaled rotation fails the torsion identity, as a matrix among
    # tables and as a table
    tau1 = ccm.tau[1]
    assert isinstance(tau1, IndexTable)
    doubled = IndexTable(tau1.rows, tau1.cols, tau1.field, tau1.idx,
                         [2 * (i >= 0) for i in tau1.idx])
    for m in (tau1.matrix().scale(QQ.from_int(2)), doubled):
        scaled = replace(ccm, tau={**ccm.tau, 1: m})
        assert "tau^2 = id @ 1" in [c.name for c in check_identities(scaled).failures()]
    zero = SparseMatrix.zeros(ccm.spaces[1].dim, ccm.spaces[0].dim, QQ)
    mutant = replace(ccm, delta={**ccm.delta, (0, 0): zero})
    assert not check_identities(mutant).ok


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(2**31 - 1)], ids=str)
@pytest.mark.parametrize("name", PAIR_NAMES)
def test_table_descents_are_the_induced_maps_of_their_chains(name, field, monkeypatch):
    """Every operator of the four descended constructions, and every
    B-multiplication of their spaces, that is composed from tables has the
    matrix that ``induced_map`` gives its chain."""
    import hopfcyclic.cyclic as cyclic_module
    import hopfcyclic.hopf as hopf_module

    compared = []

    def checked(chain, dom, cod, by_rows=False):
        tb = induced_table(chain, dom, cod, by_rows)
        if tb is not None:
            assert tb.matrix() == induced_map(chain, dom, cod)
            compared.append(tb.by_rows)
        return tb

    monkeypatch.setattr(cyclic_module, "induced_table", checked)
    monkeypatch.setattr(hopf_module, "induced_table", checked)
    n_max = 3
    s = builtin_setup(name, field)
    h, b, c = s.hopf, s.subalgebra, s.quotient
    built = [relative_cyclic(h, b, n_max), relative_cocyclic_coext(h, c, n_max),
             hopf_cocyclic_coalgebra(c, ad_module(h), n_max),
             hopf_cyclic_comodule_algebra(h, b, coad_module(h), n_max)]
    assert compared
    for x in built:
        ops = [m for op in _operator_dicts(x) for m in op.values()]
        assert all(isinstance(m, IndexTable) for m in ops) or \
            all(isinstance(m, SparseMatrix) for m in ops)
    # C(H|B) is composed from tables on every pair
    assert all(isinstance(m, IndexTable) for op in _operator_dicts(built[0]) for m in op.values())


def test_maps_breaking_the_b_relations_do_not_descend():
    # kS3/kC2 in degree 2: H^{(x)_B 3} and [H^{(x)_B 3}]_B are pure quotients,
    # so the relation columns are the only check that can reject these maps
    s = builtin_setup("kS3/kC2")
    h, b = s.hopf, s.subalgebra
    d, f = h.dim, h.field
    dims = [d] * 3
    tp2, tp3 = tensor_power_over_b(h, b, 2), tensor_power_over_b(h, b, 3)
    cq2, cq3 = commutator_quotient(h, b, tp2, 2), commutator_quotient(h, b, tp3, 3)
    swap = permutation_matrix([d, d], [1, 0], f)
    assembled = (apply_on_leg(h.mu, dims, 0, 2),                 # x y (x) z
                 apply_on_leg(h.mu @ swap, dims, 0, 2),          # y x (x) z
                 permutation_matrix(dims, [1, 0, 2], f))         # y (x) x (x) z
    legs = LegChain(dims, f)
    chains = (legs.leg(h.mu, 0, 2), legs.perm([1, 0, 2]).leg(h.mu, 0, 2), legs.perm([1, 0, 2]))
    for face, swapped_face, past in (assembled, chains):
        for dom, cod in ((tp3, tp2), (cq3, cq2)):
            assert dom.is_quotient and cod.is_quotient
            induced_map(face, dom, cod)
            with pytest.raises(NotWellDefined, match="relations not preserved"):
                induced_map(swapped_face, dom, cod)
        for space in (tp3, cq3):
            with pytest.raises(NotWellDefined, match="relations not preserved"):
                induced_map(past, space, space)
    # the same on the table route, whose relation check is one pass of a table
    face, swapped_face, past = chains
    for dom, cod in ((tp3, tp2), (cq3, cq2)):
        assert induced_table(face, dom, cod).matrix() == induced_map(face, dom, cod)
        with pytest.raises(NotWellDefined, match="relations not preserved"):
            induced_table(swapped_face, dom, cod)
    for space in (tp3, cq3):
        with pytest.raises(NotWellDefined, match="relations not preserved"):
            induced_table(past, space, space)


def test_chain_leaving_a_coextension_space_does_not_restrict():
    # (D box_C D)^C is an explicit subspace: the rotation restricts to it,
    # the antipode on one leg does not
    s = builtin_setup("kS3/kC2")
    h, f = s.hopf, s.hopf.field
    d = h.dim
    space = coextension_space(h, s.quotient, 2)
    assert not space.is_quotient and space.rel_cols.cols == 0
    legs = LegChain([d, d], f)
    induced_map(legs.perm([1, 0]), space, space)
    for bad in (legs.leg(h.antipode, 0), apply_on_leg(h.antipode, [d, d], 0)):
        with pytest.raises(NotWellDefined, match="image leaves the subspace"):
            induced_map(bad, space, space)
    # the same on the table route, whose restriction check compares tables
    rotation = induced_table(legs.perm([1, 0]), space, space)
    assert rotation.matrix() == induced_map(legs.perm([1, 0]), space, space)
    with pytest.raises(NotWellDefined, match="image leaves the subspace"):
        induced_table(legs.leg(h.antipode, 0), space, space)


def test_hochschild_kc2_and_ks3():
    s = builtin_setup("kC2/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 3)
    assert hochschild_homology(cm) == [2, 0, 0]
    s3 = builtin_setup("kS3/k")
    cm3 = relative_cyclic(s3.hopf, s3.subalgebra, 2)
    assert hochschild_homology(cm3) == [3, 0]


def test_hochschild_sweedler_matches_oracle():
    s = builtin_setup("H4/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 4)
    assert hochschild_homology(cm) == HH_H4


GENERATORS = {"kC2": [(1, 0)], "kC3": [(1, 2, 0)], "kC4": [(1, 2, 3, 0)],
              "kS3": [(1, 0, 2), (1, 2, 0)]}


@pytest.mark.parametrize("p", [0, 2, 3])
@pytest.mark.parametrize("name, upto", [("kC2", 3), ("kC3", 3), ("kC4", 3), ("kS3", 2)])
def test_hochschild_homology_of_a_group_algebra_is_burghelea(name, upto, p):
    """HH_n(kG) is the sum of H_n(C_G(g); k) over the conjugacy classes,
    which the oracle reads off the permutations that generate G, with its
    own bar complex: over Q, F_2 and F_3, where HH is not zero above degree
    0 once p divides |G|."""
    field = QQ if p == 0 else PrimeField(p)
    h = builtin_hopf(name, field)
    group = closure(GENERATORS[name])
    assert len(group) == h.dim
    hh = hochschild_homology(relative_cyclic(h, trivial_subalgebra(h), upto + 1), upto)
    assert hh == burghelea_hh(group, p, upto)


def test_hochschild_zero_ops_mutant():
    f = QQ
    spaces = [SubquotientSpace.full(3, f) for _ in range(3)]
    d = {(n, i): SparseMatrix.zeros(3, 3, f) for n in (1, 2) for i in range(n + 1)}
    s = {(n, j): SparseMatrix.zeros(3, 3, f) for n in (0, 1) for j in range(n + 1)}
    t = {n: SparseMatrix.identity(3, f) for n in range(3)}
    from hopfcyclic.cyclic import CyclicModule

    cm = CyclicModule(2, spaces, d, s, t)
    assert hochschild_homology(cm, 1) == [3, 3]


def test_cyclic_homology_kc2_matches_oracle():
    s = builtin_setup("kC2/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 4)
    assert cyclic_homology(cm) == HC_KC2


def test_cyclic_homology_sweedler_matches_oracle():
    s = builtin_setup("H4/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 4)
    assert cyclic_homology(cm) == HC_H4


def test_truncation_guards():
    s = builtin_setup("kC2/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 2)
    with pytest.raises(TruncationError):
        hochschild_homology(cm, 2)
    with pytest.raises(TruncationError):
        cyclic_homology(cm, 2)
    with pytest.raises(TruncationError):
        chain_complex(cm).d(3)
    with pytest.raises(TruncationError):
        chain_complex(cm, connes=True).d(3)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
@pytest.mark.parametrize("name", SETUP_NAMES)
def test_cyclic_homology_needs_only_degree_n_plus_1(name, field):
    # HC_n reads b up to degree n + 1 and B only into degree n, so one more
    # degree of the cyclic module changes nothing
    s = builtin_setup(name, field)
    wide = cyclic_homology(relative_cyclic(s.hopf, s.subalgebra, 4), 2)
    for n in range(3):
        assert cyclic_homology(relative_cyclic(s.hopf, s.subalgebra, n + 1), n) == wide[:n + 1]


def _normalized_cyclic_homology(cm, upto):
    """HC_n for n <= upto from the normalized mixed complex: the quotient of
    the cyclic module by its degeneracies, with b and B descended into it
    (``normalized_complex``), and Tot_n = C_n + C_(n-2) + ... of the
    quotients (Loday, *Cyclic Homology*, 2.1)."""
    f = cm.spaces[0].field
    nspaces, nb, nB = normalized_complex(cm)

    def blocks(n):
        return {q: nspaces[q].dim for q in range(n, -1, -2)}

    def terms(n):
        src, tgt = blocks(n), blocks(n - 1)
        yield from ((1, nb[q], q - 1, q) for q in src if q - 1 in tgt)
        yield from ((1, nB[q], q + 1, q) for q in src if q + 1 in tgt)

    return ChainComplex(f, blocks, terms).homology_dims(upto)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
@pytest.mark.parametrize("name", PAIR_NAMES)
def test_cyclic_homology_matches_the_unnormalized_mixed_complex(name, field):
    """HH and HC rank the quotient by the degenerate chains, written on the
    coordinates off the degeneracies' images where those images are
    coordinate subspaces.  The quotient is quasi-isomorphic to the
    unnormalized complex, so no dimension changes, and it is the one that
    ``normalized_complex`` descends b and B into by elimination."""
    s = builtin_setup(name, field)
    cm = relative_cyclic(s.hopf, s.subalgebra, 4)
    hc = cyclic_homology(cm, 3)
    assert hc == unnormalized_complex(cm, connes=True).homology_dims(3)
    assert hc == _normalized_cyclic_homology(cm, 3)
    assert hochschild_homology(cm, 3) == unnormalized_complex(cm).homology_dims(3)
    nspaces, nb, _ = normalized_complex(cm)
    hochschild = chain_complex(cm)
    dropped = hochschild.dim(1) < cm.spaces[1].dim
    assert dropped == (name.split("/")[0] not in ("OS3", "OC2"))
    for q in range(1, 5):
        assert hochschild.dim(q) == (nspaces[q].dim if dropped else cm.spaces[q].dim), q
        if dropped:
            assert hochschild.d(q) == nb[q], q


@pytest.mark.parametrize("name, p, want", [("kS3/k", 3, [3, 0, 3, 1]),
                                           ("H4/k", 2, [4, 5, 10, 12])])
def test_unnormalized_cyclic_homology_in_positive_characteristic(name, p, want):
    s = builtin_setup(name, PrimeField(p))
    cm = relative_cyclic(s.hopf, s.subalgebra, 4)
    assert cyclic_homology(cm, 3) == unnormalized_complex(cm, connes=True).homology_dims(3) == want


@pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)], ids=str)
@pytest.mark.parametrize("name", PAIR_NAMES)
def test_connes_boundary_is_the_matrix_formula(name, field):
    """B, written from its signed composites as the block (n + 1, n) of the
    (b, B) total complex's d_{n+2}, equals the product of matrices on the
    coordinates off the degeneracies' images in every degree of every pair:
    on table modules and on descended ones."""
    s = builtin_setup(name, field)
    cm = relative_cyclic(s.hopf, s.subalgebra, 4)
    tot = chain_complex(cm, connes=True)
    for n in range(3):
        block = tot.inclusion(n + 1, n + 1).t() @ tot.d(n + 2) @ tot.inclusion(n + 2, n)
        want = restricted(connes_reference(cm, n), kept_coordinates(cm, n + 1),
                          kept_coordinates(cm, n))
        assert block == want, n


@pytest.mark.parametrize("name, want", [("kS3/k", [3, 0, 3, 0]), ("OS3/k", [6, 0, 6, 0])])
def test_cyclic_homology_of_a_table_module_takes_no_matrix(name, want, monkeypatch):
    """HC of a module of tables composes and writes the tables themselves,
    in the library and through the CLI, which also checks the identities."""
    s = builtin_setup(name)
    cm = relative_cyclic(s.hopf, s.subalgebra, 4)

    def refuse(table):
        raise AssertionError("a table was turned into a matrix")

    monkeypatch.setattr(IndexTable, "matrix", refuse)
    assert cyclic_homology(cm) == want
    code, text = run(["homology", name.split("/")[0], "--theory", "hc", "--max-degree", "3"])
    assert code == 0, text


def _relative_hh(name, field, upto):
    s = builtin_setup(name, field)
    return s, hochschild_homology(relative_cyclic(s.hopf, s.subalgebra, upto + 1), upto)


@pytest.mark.parametrize("name, p", [("kS3/kC2", 2), ("kS3/kC3", 3)])
def test_relative_hochschild_vanishes_when_p_does_not_divide_the_index(name, p):
    # Higman: kG is separable over kK when p does not divide [G:K], so
    # HH_n(kG|kK) = 0 for n > 0, although p divides |G| and kG is not semisimple
    s, hh = _relative_hh(name, PrimeField(p), 3)
    assert (s.hopf.dim // s.subalgebra.dim) % p != 0 and s.hopf.dim % p == 0
    assert hh == [3, 0, 0, 0]


@pytest.mark.parametrize("name, p, want", [("kS3/kC3", 2, [3, 2, 2, 2]),
                                           ("kS3/kC2", 3, [3, 1, 1, 2])])
def test_relative_hochschild_is_absolute_when_p_does_not_divide_the_subgroup(name, p, want):
    # kK is separable when p does not divide |K|, so HH(kG|kK) = HH(kG)
    s, hh = _relative_hh(name, PrimeField(p), 3)
    assert s.subalgebra.dim % p != 0
    assert hh == _relative_hh("kS3/k", PrimeField(p), 3)[1] == want


def test_cyclic_homology_rejects_faces_with_nonzero_b_squared():
    # full spaces, zero degeneracies and faces with b_1 = b_2 = 1: B = 0,
    # so the total maps compose to b_1 b_2 != 0
    f = QQ
    spaces = [SubquotientSpace.full(1, f) for _ in range(3)]
    d = {(n, i): SparseMatrix.zeros(1, 1, f) for n in (1, 2) for i in range(n + 1)}
    d[(1, 0)] = d[(2, 0)] = SparseMatrix.identity(1, f)
    s = {(n, j): SparseMatrix.zeros(1, 1, f) for n in (0, 1) for j in range(n + 1)}
    t = {n: SparseMatrix.identity(1, f) for n in range(3)}
    cm = CyclicModule(2, spaces, d, s, t)
    with pytest.raises(NotWellDefined, match=r"not a complex: d\^2 != 0 at degree 2"):
        cyclic_homology(cm)


def test_cyclic_homology_rejects_a_rotation_that_moves_degenerate_chains_off_them():
    """t_1 sending the degenerate (a, e) to the chain (g, g) leaves b alone,
    since the last face was composed when the module was built, but B_1 then
    sends (a, e) to -(e, g, g) + ..., off the degenerate chains, so the
    total complex of HC is refused as d_3 is written."""
    s = builtin_setup("kS3/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 3)
    a, g, e = 1, 3, 0
    idx = list(cm.t[1].idx)
    idx[a * 6 + e] = g * 6 + g
    mutant = replace(cm, t={**cm.t, 1: IndexTable(36, 36, QQ, idx, None)})
    assert hochschild_homology(mutant) == hochschild_homology(cm) == [3, 0, 0]
    with pytest.raises(NotWellDefined, match="not a quotient complex: d sends the dropped "
                                             "column 6 of block 1"):
        cyclic_homology(mutant)


def _cyclic_identity_names(N):
    """The name of every simplicial and cyclic identity in degrees 0..N, one
    family at a time."""
    names = [f"d{i} d{j} = d{j-1} d{i} @ {n}"
             for n in range(2, N + 1) for j in range(n + 1) for i in range(j)]
    names += [f"s{i} s{j} = s{j+1} s{i} @ {n}"
              for n in range(N - 1) for i in range(n + 1) for j in range(i, n + 1)]
    names += [f"d{i} s{j} @ {n}" for n in range(N) for j in range(n + 1) for i in range(n + 2)]
    names += [f"t^{n+1} = id @ {n}" for n in range(N + 1)]
    names += [f"d0 t = d{n} @ {n}" for n in range(1, N + 1)]
    names += [f"d{i} t = t d{i-1} @ {n}" for n in range(1, N + 1) for i in range(1, n + 1)]
    names += [f"s0 t = t^2 s{n} @ {n}" for n in range(N)]
    names += [f"s{i} t = t s{i-1} @ {n}" for n in range(N) for i in range(1, n + 1)]
    return names


@pytest.mark.parametrize("n_max", range(5))
def test_cyclic_check_runs_every_identity_once_and_keeps_no_row_map(n_max):
    """Over k and over kC2 the operators of C(H|B) are tables, which hold no
    row map; a Connes dual's are of its cocyclic module's kind: tables on
    kS3/kC2, and on H4/B, whose coproduct has no table, matrices once there
    is a coface, each its row map, on which the check caches no derived
    column map."""
    ks3, h4 = builtin_setup("kS3/kC2"), builtin_setup("H4/B")
    cases = [(relative_cyclic(s.hopf, s.subalgebra, n_max), IndexTable)
             for s in (builtin_setup("kC2/k"), ks3)]
    cases += [(coext_cyclic(s.hopf, s.quotient, n_max), kind)
              for s, kind in ((ks3, IndexTable), (h4, SparseMatrix if n_max else IndexTable))]
    for cm, kind in cases:
        rep = check_identities(cm)
        assert rep.ok
        assert sorted(c.name for c in rep.checks) == sorted(_cyclic_identity_names(n_max))
        ops = [*cm.d.values(), *cm.s.values(), *cm.t.values()]
        assert all(type(m) is kind for m in ops)
        assert all(m._cols_map is None for m in ops if kind is SparseMatrix)


# ---------------------------------------------------------------------------
# the identity check on index tables against exact matrix products

EQUIVALENCE_FIELDS = [QQ, PrimeField(7), PrimeField(2**31 - 1)]


@functools.lru_cache(maxsize=None)
def _six_constructions(name, field):
    n_max = 3
    s = builtin_setup(name, field)
    h, b, c = s.hopf, s.subalgebra, s.quotient
    ad, coad = ad_module(h), coad_module(h)
    spaces = [coextension_space(h, c, n + 1) for n in range(n_max + 1)]
    hsp = hopf_cyclic_spaces(c, ad, n_max)
    return {
        "relative_cyclic": relative_cyclic(h, b, n_max),
        "coext_cyclic": coext_cyclic(h, c, n_max, spaces=spaces),
        "relative_cocyclic_coext": relative_cocyclic_coext(h, c, n_max, spaces=spaces),
        "hopf_cyclic_coalgebra": hopf_cyclic_coalgebra(c, ad, n_max, spaces=hsp),
        "hopf_cocyclic_coalgebra": hopf_cocyclic_coalgebra(c, ad, n_max, spaces=hsp),
        "hopf_cyclic_comodule_algebra": hopf_cyclic_comodule_algebra(h, b, coad, n_max),
    }


def _operator_fields(x):
    return ("d", "s", "t") if isinstance(x, CyclicModule) else ("delta", "sigma", "tau")


def _operator_dicts(x):
    return [getattr(x, name) for name in _operator_fields(x)]


def _with_matrices(x):
    """x with every operator replaced by its matrix."""
    return replace(x, **{name: {k: m.matrix() for k, m in getattr(x, name).items()}
                         for name in _operator_fields(x)})


def _with_operator(x, kind, key, m):
    """x with operator ``key`` of ``kind`` (0 faces, 1 degeneracies, 2
    rotations) replaced by m."""
    name = _operator_fields(x)[kind]
    return replace(x, **{name: {**getattr(x, name), key: m}})


def _first_face(x):
    faces = getattr(x, _operator_fields(x)[0])
    return min(faces), faces[min(faces)]


def _like(op, m):
    """m in the form of the operator op it replaces: a table of op's
    orientation when op is a table and m has one, else the matrix m."""
    if isinstance(op, IndexTable):
        return m.table(op.by_rows) or m
    return m


def _face_entry_moved(x):
    """One entry of a face moved to another row of its column, an empty row
    where there is one: the face keeps at most one entry per column, and
    per row where it had that."""
    key, op = _first_face(x)
    m = op.matrix()
    entries = to_keyed(m)
    (i, j), v = min(entries.items())
    used = {r for r, _ in entries}
    r = next((r for r in range(m.rows) if r not in used), (i + 1) % m.rows)
    data = {k: w for k, w in entries.items() if k != (i, j)}
    moved = from_keyed(m.rows, m.cols, m.field, {**data, (r, j): v})
    return _with_operator(x, 0, key, _like(op, moved))


def _face_entry_added(x):
    """One more entry in a face column, in a row that already holds one."""
    key, op = _first_face(x)
    m = op.matrix()
    entries = to_keyed(m)
    (i, j), _ = min(entries.items())
    r = next(r for r, _ in sorted(entries) if r != i)
    return _with_operator(x, 0, key, from_keyed(m.rows, m.cols, m.field,
                                                {**entries, (r, j): m.field.one}))


def _degeneracies_swapped(x):
    degens = getattr(x, _operator_fields(x)[1])
    swapped = {**degens, (2, 0): degens[(2, 1)], (2, 1): degens[(2, 0)]}
    return replace(x, **{_operator_fields(x)[1]: swapped})


def _face_zeroed(x):
    key, op = _first_face(x)
    f = x.spaces[0].field
    return _with_operator(x, 0, key, _like(op, SparseMatrix.zeros(op.rows, op.cols, f)))


def _rotation_scaled(x):
    t = getattr(x, _operator_fields(x)[2])
    f = x.spaces[0].field
    return _with_operator(x, 2, 2, _like(t[2], t[2].matrix().scale(f.from_int(2))))


def _face_reoriented(x):
    """The first face as its table of the other orientation, where it has
    one, so a module of tables mixes orientations and one of matrices
    holds a table."""
    key, op = _first_face(x)
    other = op.table(isinstance(op, IndexTable) and not op.by_rows)
    return _with_operator(x, 0, key, other or op)


def _rotation_squared(x):
    t = getattr(x, _operator_fields(x)[2])
    if isinstance(t[1], IndexTable):
        return _with_operator(x, 2, 1, t[1] @ t[1])
    return _with_operator(x, 2, 1, t[1] @ uncached(t[1]))  # no row map cached on x


MUTANTS = {
    "t scaled by 2": _rotation_scaled,
    "t @ t": _rotation_squared,
    "zero face": _face_zeroed,
    "swapped degeneracies": _degeneracies_swapped,
    "face entry moved": _face_entry_moved,
    "extra face entry": _face_entry_added,
}


def _outcome(rep):
    return [(c.name, c.ok) for c in rep.checks]


def _matrix_outcome(x):
    """The check on x with every operator replaced by its matrix, which
    leaves no derived column map on x's matrices (its tables hold none)."""
    rep = check_identities(_with_matrices(x))
    ops = [m for op in _operator_dicts(x) for m in op.values()]
    assert all(m._cols_map is None for m in ops if isinstance(m, SparseMatrix))
    return _outcome(rep)


@pytest.mark.parametrize("field", EQUIVALENCE_FIELDS, ids=str)
@pytest.mark.parametrize("name", SETUP_NAMES)
def test_index_tables_and_matrix_products_check_alike(name, field):
    """Same check names in the same order, with the same flags, on the
    operators as built and on their matrices, for the six constructions,
    for each with its first face in the other orientation, and for six
    mutants of each.  Each mutant breaks an identity of at least one
    construction; the extra face entry leaves a face with no table, which
    composes with the tables as a matrix."""
    broken = set()
    for kind, x in _six_constructions(name, field).items():
        variants = [("none", lambda y: y), ("face reoriented", _face_reoriented),
                    *MUTANTS.items()]
        for mutant, make in variants:
            y = make(x)
            want = _matrix_outcome(y)
            assert _outcome(check_identities(y)) == want, (kind, mutant)
            if mutant in ("none", "face reoriented"):
                assert all(ok for _, ok in want), (kind, mutant)
            if mutant == "extra face entry":
                face = _first_face(y)[1]
                assert face.table() is None and face.table(True) is None, kind
            if not all(ok for _, ok in want):
                broken.add(mutant)
    assert broken == set(MUTANTS)


@pytest.mark.parametrize("name", ["kC2/k", "OS3/OC2", "kS3/kC2"])
@pytest.mark.parametrize("kind", ["relative_cyclic", "relative_cocyclic_coext"])
def test_an_operator_of_the_wrong_shape_raises_on_both_paths(name, kind):
    x = _six_constructions(name, QQ)[kind]
    key, op = _first_face(x)
    m = op.matrix()
    padded = SparseMatrix(m.rows + 1, m.cols, QQ, m.rows_map())
    padded = _with_operator(x, 0, key, _like(op, padded))
    assert all(isinstance(m, IndexTable) for op in _operator_dicts(padded) for m in op.values())
    for y in (padded, _with_matrices(padded)):
        with pytest.raises(ShapeMismatch):
            check_identities(y)


@pytest.mark.parametrize("name", ["kC2/k", "OS3/k"])
def test_cyclic_homology_of_tables_mixed_with_matrices(name):
    """An operator given as its own matrix among tables changes no HC; each
    mutant of the identity check gets its HC or fails the d^2 check."""
    s = builtin_setup(name)
    cm = relative_cyclic(s.hopf, s.subalgebra, 3)
    want = cyclic_homology(cm)
    for kind, key in ((0, (2, 1)), (1, (1, 1)), (2, 1), (2, 2)):
        op = getattr(cm, _operator_fields(cm)[kind])[key]
        assert cyclic_homology(_with_operator(cm, kind, key, op.matrix())) == want
    for mutant, make in MUTANTS.items():
        try:
            dims = cyclic_homology(make(cm))
        except NotWellDefined:
            continue
        assert len(dims) == 3, mutant


# ---------------------------------------------------------------------------
# C(H|k): full spaces, so the operators are the tables of their chains

K_PAIRS = [name for name in PAIR_NAMES if name.endswith("/k")]


def _relative_chains(h, n_max, f):
    """{(operator family, key): chain} of every operator of C(H|k): faces,
    the last face as rotation then product, degeneracies and rotations."""
    def legs(n):
        return LegChain([h.dim] * (n + 1), f)

    def rotation(n):
        return legs(n).perm([n] + list(range(n)))

    chains = {("d", (n, i)): legs(n).leg(h.mu, i, 2) for n in range(1, n_max + 1) for i in range(n)}
    chains.update({("d", (n, n)): rotation(n).leg(h.mu, 0, 2) for n in range(1, n_max + 1)})
    chains.update({("s", (n, j)): legs(n).leg(h.eta, j + 1, 0)
                   for n in range(n_max) for j in range(n + 1)})
    chains.update({("t", n): rotation(n) for n in range(n_max + 1)})
    return chains


@pytest.mark.parametrize("field", EQUIVALENCE_FIELDS, ids=str)
@pytest.mark.parametrize("name", K_PAIRS)
def test_table_operators_are_their_chains_descended(name, field):
    """Every operator of C(H|k) is a table, of rows exactly when mu or the
    unit has two entries in a column (the unit of a function algebra
    fills one), and its matrix is its chain descended between the full
    spaces.  The identity report on the tables is the one on the matrices."""
    s = builtin_setup(name, field)
    h, n_max = s.hopf, 3
    cm = relative_cyclic(h, s.subalgebra, n_max)
    chains = _relative_chains(h, n_max, field)
    assert len(chains) == len(cm.d) + len(cm.s) + len(cm.t)
    by_rows = any(m.table() is None for m in (h.mu, h.eta))
    for (family, key), chain in chains.items():
        op = getattr(cm, family)[key]
        assert isinstance(op, IndexTable) and op.by_rows == by_rows, (family, key)
        full_in, full_out = (SubquotientSpace.full(k, field) for k in (chain.cols, chain.rows))
        assert op.matrix() == induced_map(chain, full_in, full_out), (family, key)
    assert _outcome(check_identities(cm)) == _matrix_outcome(cm)


@pytest.mark.parametrize("name", K_PAIRS)
def test_a_table_face_with_one_index_moved_fails_both_checks(name):
    """A face table with one entry moved to the next row (column, for a
    table of rows) stays a table and fails the identity check on tables,
    and b^2 != 0 stops the unnormalized homology at the d^2 check.  The
    first entry sits on a degenerate column where the unit is a basis
    vector, so there the normalized homology stops as b_2 is written."""
    s = builtin_setup(name)
    cm = relative_cyclic(s.hopf, s.subalgebra, 3)
    face = cm.d[(2, 0)]
    idx = list(face.idx)
    k = next(k for k, i in enumerate(idx) if i >= 0)
    idx[k] = (idx[k] + 1) % (face.cols if face.by_rows else face.rows)
    moved = IndexTable(face.rows, face.cols, face.field, idx, face.val, face.by_rows)
    mutant = replace(cm, d={**cm.d, (2, 0): moved})
    assert not check_identities(mutant).ok
    assert not check_identities(_with_matrices(mutant)).ok
    # b_2 holds the moved face, and b_1 b_2 or b_2 b_3 is checked on it in
    # the unnormalized complex
    d_squared = r"d\^2 != 0 at degree [23]"
    with pytest.raises(NotWellDefined, match=d_squared):
        unnormalized_complex(mutant).homology_dims(2)
    # HH and HC rank the quotient by the degenerate chains, which never
    # writes a degenerate column: one moved there is caught as b_2 is
    # written, since b_2 then sends a degenerate chain off the degenerate ones
    on_degenerate = k not in kept_coordinates(cm, 2)
    assert on_degenerate == (name.split("/")[0] not in ("OS3", "OC2"))
    for homology in (hochschild_homology, cyclic_homology):
        with pytest.raises(NotWellDefined,
                           match="not a quotient complex" if on_degenerate else d_squared):
            homology(mutant)


def _kc2_in_basis_1_and_1_plus_2g():
    """kC2 on the basis e0 = 1, e1 = 1 + 2g, where e1 e1 = 3 e0 + 2 e1 and
    D(e1) = (3 e0e0 - e0e1 - e1e0 + e1e1) / 2: neither mu nor Delta has
    at most one entry in each column, or in each row."""
    return {
        "name": "kC2-mixed-basis",
        "field": {"type": "Q"},
        "dim": 2,
        "basis": ["1", "1+2g"],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "3"], [1, 1, 1, "2"]],
        "unit": ["1", "0"],
        "comult": [[0, 0, 0, "1"], [1, 0, 0, "3/2"], [1, 0, 1, "-1/2"], [1, 1, 0, "-1/2"],
                   [1, 1, 1, "1/2"]],
        "counit": ["1", "3"],
        "antipode": [[0, 0, "1"], [1, 1, "1"]],
    }


def test_a_loaded_product_monomial_in_neither_orientation_takes_the_matrix_path():
    h = load_hopf_json(_kc2_in_basis_1_and_1_plus_2g())
    assert h.validate().ok
    assert h.mu.table() is None and h.mu.table(True) is None
    cm = relative_cyclic(h, trivial_subalgebra(h), 4)
    assert all(isinstance(m, SparseMatrix) for op in (cm.d, cm.s, cm.t) for m in op.values())
    assert check_identities(cm).ok
    ref = builtin_setup("kC2/k")
    assert hochschild_homology(cm) == hochschild_homology(relative_cyclic(ref.hopf,
                                                                          ref.subalgebra, 4))
