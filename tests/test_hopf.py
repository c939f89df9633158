import pytest

from hopfcyclic.groups import builtin_group
from hopfcyclic.hopf import (
    HopfAlgebra,
    HopfError,
    HypothesisError,
    SparseMatrix,
    canonical_map_n,
    cocanonical_map,
    coinvariants,
    commutator_quotient,
    galois_criterion,
    group_algebra,
    function_algebra,
    iterated_coinvariance_ok,
    quotient_module_coalgebra,
    subalgebra_from_columns,
    sweedler_algebra,
    takeuchi_subalgebra_to_quotient,
    tensor_power_over_b,
    translation_map,
    trivial_subalgebra,
)
from hopfcyclic.linalg import (
    QQ,
    LegChain,
    PrimeField,
    SubquotientSpace,
    induced_map,
    quotient_by_columns,
    span_contains,
)
from hopfcyclic.presets import (
    SETUP_NAMES,
    S3_C2_INDICES,
    _basis_columns,
    builtin_hopf,
    builtin_setup,
)
from support import from_dense, from_keyed, is_cocommutative, is_commutative


def test_validate_group_algebras():
    for name in ("kC2", "kC3", "kS3"):
        rep = builtin_hopf(name).validate()
        assert rep.ok, rep.failures()


def test_validate_function_algebras():
    for grp in ("C2", "S3"):
        rep = function_algebra(builtin_group(grp)).validate()
        assert rep.ok, rep.failures()


def test_trivial_group_gives_base_field():
    h = group_algebra(builtin_group("trivial"))
    assert h.dim == 1 and h.validate().ok
    o = function_algebra(builtin_group("trivial"))
    assert o.dim == 1 and o.validate().ok


def test_commutativity_flags():
    assert is_cocommutative(builtin_hopf("kC2"))
    ks3 = builtin_hopf("kS3")
    assert is_cocommutative(ks3) and not is_commutative(ks3)
    os3 = builtin_hopf("OS3")
    assert is_commutative(os3) and not is_cocommutative(os3)


def test_sweedler_validates_and_antipode_order_four():
    h = sweedler_algebra()
    assert h.validate().ok
    s2 = h.antipode @ h.antipode
    assert not s2.is_identity()
    assert (s2 @ s2).is_identity()


def test_corrupted_antipode_fails_with_witness():
    g = builtin_group("C2")
    h = group_algebra(g)
    bad_antipode = from_dense([[QQ.one, QQ.one], [QQ.zero, QQ.zero]], QQ)
    bad = HopfAlgebra("kC2-bad", QQ, h.basis, h.mult, h.unit, h.comult, h.counit, bad_antipode)
    rep = bad.validate()
    assert not rep.ok
    failing = {c.name: c for c in rep.failures()}
    assert "left antipode identity" in failing or "right antipode identity" in failing
    witness = next(c.witness for c in rep.failures() if "antipode identity" in c.name)
    assert "g" in witness


def test_corrupted_mult_fails():
    h = builtin_hopf("kC2")
    mult = dict(h.mult)
    mult[(1, 1, 0)] = QQ.from_int(2)  # g.g = 2e breaks unitality of the bialgebra axioms
    bad = HopfAlgebra("bad", QQ, h.basis, mult, h.unit, h.comult, h.counit, h.antipode)
    assert not bad.validate().ok


def test_takeuchi_trivial_subalgebra():
    h = builtin_hopf("kC2")
    b = trivial_subalgebra(h)
    c = takeuchi_subalgebra_to_quotient(h, b)
    assert c.ideal.dim == 0 and c.dim == h.dim


def test_takeuchi_ks3_kc2_dims():
    s = builtin_setup("kS3/kC2")
    # B+ is 1-dimensional, so I = B+H has dim 3 and C is the right-coset coalgebra
    assert s.subalgebra.dim == 2
    assert s.quotient.ideal.dim == 3
    assert s.quotient.dim == 3


def test_takeuchi_sweedler_dims():
    s = builtin_setup("H4/B")
    assert s.quotient.ideal.dim == 2 and s.quotient.dim == 2
    # I = span{x, gx}
    h = s.hopf
    xgx = _basis_columns(h, (2, 3))
    assert span_contains(s.quotient.ideal.section, xgx)
    assert span_contains(xgx, s.quotient.ideal.section)


def test_coinvariants_full_quotient_is_scalars():
    h = builtin_hopf("kS3")
    c = quotient_module_coalgebra(h, SparseMatrix.zeros(h.dim, 0, QQ))
    b = coinvariants(h, c)
    assert b.dim == 1
    assert span_contains(b.space.section, h.eta)


def test_takeuchi_round_trip_recovers_subalgebra():
    for name in ("kS3/kC2", "kS3/kC3", "H4/B"):
        s = builtin_setup(name)
        back = coinvariants(s.hopf, s.quotient)
        assert back.dim == s.subalgebra.dim, name
        assert span_contains(back.space.section, s.subalgebra.space.section), name
        assert span_contains(s.subalgebra.space.section, back.space.section), name


def test_coinvariants_function_algebra_cosets():
    s = builtin_setup("OS3/OC2")
    # functions constant on left cosets of C2: 3 cosets
    assert s.quotient.dim == 2
    assert s.subalgebra.dim == 3


def test_iterated_coinvariance():
    for name in ("kS3/kC2", "H4/B"):
        s = builtin_setup(name)
        for n in range(4):
            assert iterated_coinvariance_ok(s.hopf, s.quotient, s.subalgebra, n)


def test_canonical_map_hopf_case():
    s = builtin_setup("kC2/k")
    can, can_inv, dom = canonical_map_n(s.hopf, s.subalgebra, s.quotient, 1)
    assert can.rows == can.cols == 4
    assert (can @ can_inv).is_identity()


def test_canonical_map_ks3_kc2():
    s = builtin_setup("kS3/kC2")
    can, can_inv, dom = canonical_map_n(s.hopf, s.subalgebra, s.quotient, 1)
    assert dom.dim == 18 and can.rows == 18 and can.cols == 18
    assert (can_inv @ can).is_identity()


def test_canonical_map_sweedler_degree_two():
    s = builtin_setup("H4/B")
    can, can_inv, dom = canonical_map_n(s.hopf, s.subalgebra, s.quotient, 2)
    assert dom.dim == can.rows == can.cols
    assert (can @ can_inv).is_identity() and (can_inv @ can).is_identity()


def test_galois_criterion_true_cases():
    for name in ("kC2/k", "kS3/kC2", "kS3/kC3", "H4/B"):
        s = builtin_setup(name)
        assert galois_criterion(s.hopf, s.subalgebra, s.quotient), name


def test_galois_criterion_mismatched_pair():
    h = builtin_hopf("kS3")
    c_full = quotient_module_coalgebra(h, SparseMatrix.zeros(h.dim, 0, QQ))
    b = subalgebra_from_columns(h, _basis_columns(h, S3_C2_INDICES))
    assert not galois_criterion(h, b, c_full)


def test_translation_map_grouplikes():
    s = builtin_setup("kS3/kC2")
    h = s.hopf
    tau = translation_map(h, s.subalgebra, s.quotient)
    dom2 = tensor_power_over_b(h, s.subalgebra, 2)
    # on the class of a grouplike g the translation map is g^{-1} (x)_B g
    grp = builtin_group("S3")
    for g in range(6):
        cbar = s.quotient.space.projection @ h.ident().column(g)
        exp = from_keyed(36, 1, QQ, {(grp.inv(g) * 6 + g, 0): QQ.one})
        assert tau @ cbar == dom2.projection @ exp


def _augmentation_quotient(h):
    """H / H^+ for a group algebra: the ideal is spanned by g - e."""
    f = h.field
    gens = {(g, g - 1): f.one for g in range(1, h.dim)}
    gens.update({(0, g - 1): f.neg(f.one) for g in range(1, h.dim)})
    return quotient_module_coalgebra(h, from_keyed(h.dim, h.dim - 1, f, gens))


def test_translation_map_checks_the_whole_ideal():
    # B = span{e, (13)} with C = kS3/kS3^+: tau(g - e) = g^-1 (x)_B g - e (x)_B e
    # vanishes only for g in B, so tau depends on the lift; a single bumped lift
    # that adds e - (13) cannot see it
    h = builtin_hopf("kS3")
    b = subalgebra_from_columns(h, _basis_columns(h, (0, 5)))
    c = _augmentation_quotient(h)
    assert c.dim == 1 and c.ideal.dim == 5
    with pytest.raises(HopfError, match="depends on the choice of representatives"):
        translation_map(h, b, c)


def _ideal(name, *indices):
    h = builtin_hopf(name)
    return lambda: quotient_module_coalgebra(h, _basis_columns(h, indices))


def _subalgebra(name, *columns):
    h = builtin_hopf(name)
    cols = from_keyed(h.dim, len(columns), h.field,
                      {(i, j): h.field.one for j, col in enumerate(columns) for i in col})
    return lambda: subalgebra_from_columns(h, cols)


# S3 is numbered e, (23), (12), (123), (132), (13); OS3 has the delta functions d_g
@pytest.mark.parametrize("build, message", [
    (_ideal("OS3", 2), "ideal is not a coideal"),
    (_ideal("OS3", 0), "ideal is not contained in the kernel of the counit"),
    (_subalgebra("kS3", (0,), (2,), (5,)), "subspace is not closed under multiplication"),
    (_subalgebra("kS3", (0,), (1, 2, 5), (3, 4)), "subspace is not a left coideal"),
    (_subalgebra("kS3", (1,)), "subalgebra does not contain 1"),
], ids=["not a coideal", "outside ker eps", "not closed", "not a left coideal", "no 1"])
def test_each_hypothesis_failure_is_named(build, message):
    with pytest.raises(HypothesisError, match=f"^{message}$"):
        build()


def test_translation_map_representative_independence_sweedler():
    s = builtin_setup("H4/B")
    translation_map(s.hopf, s.subalgebra, s.quotient)  # raises on dependence


def test_translation_vs_canonical_map():
    # can(lift . tau) = 1 (x) id on C
    for name in ("kS3/kC2", "H4/B"):
        s = builtin_setup(name)
        h, cdim = s.hopf, s.quotient.dim
        tau = translation_map(h, s.subalgebra, s.quotient)
        can, _, _ = canonical_map_n(h, s.subalgebra, s.quotient, 1)
        expected = from_keyed(
            h.dim * cdim, cdim, QQ,
            {(i * cdim + j, j): v for j in range(cdim)
             for i, v in h.unit.items()},
        )
        assert can @ tau == expected


def test_cocanonical_trivial_subalgebra():
    s = builtin_setup("kC2/k")
    red, cot, bij = cocanonical_map(s.hopf, s.subalgebra, s.quotient)
    assert bij and cot.dim == 2


def test_cocanonical_ks3():
    s = builtin_setup("kS3/kC2")
    red, cot, bij = cocanonical_map(s.hopf, s.subalgebra, s.quotient)
    assert cot.dim == 12 and bij


def test_cocanonical_os3():
    s = builtin_setup("OS3/OC2")
    red, cot, bij = cocanonical_map(s.hopf, s.subalgebra, s.quotient)
    assert bij


def test_commutative_tensor_power_has_no_commutators():
    from hopfcyclic.hopf import commutator_quotient

    s = builtin_setup("OS3/OC2")
    for legs in (1, 2):
        x = tensor_power_over_b(s.hopf, s.subalgebra, legs)
        xb = commutator_quotient(s.hopf, s.subalgebra, x, legs)
        assert xb.dim == x.dim


def test_ideal_not_coideal_rejected():
    # span{e - g} in kC2 is a right ideal but eps(e - g) = 0 fails... it is 0;
    # use span{e} instead: not in ker(eps)
    h = builtin_hopf("kC2")
    gens = from_keyed(2, 1, QQ, {(0, 0): QQ.one})
    with pytest.raises(HopfError):
        quotient_module_coalgebra(h, gens)


# ---------------------------------------------------------------------------
# the relations of 1 in B are zero, and leaving them out changes no space


def _relations_of_every_b(h, b, rels_of):
    """hstack of ``rels_of(right, left)`` over every basis column of B, 1 included."""
    bcols = b.space.section
    return SparseMatrix.hstack([
        rels_of(h.right_mult_matrix(bcols.column(j)), h.left_mult_matrix(bcols.column(j)))
        for j in range(bcols.cols)])


def _tensor_power_keeping_unit(h, b, legs):
    d, f = h.dim, h.field
    space = SubquotientSpace.full(d, f)
    for k in range(1, legs):
        amb = space.tensor(SubquotientSpace.full(d, f))

        def rels_of(right, left):
            rb = induced_map(LegChain([d] * k, f).leg(right, k - 1), space, space)
            return (rb.kron(SparseMatrix.identity(d, f))
                    - SparseMatrix.identity(space.dim, f).kron(left))

        stage = quotient_by_columns(space.dim * d, _relations_of_every_b(h, b, rels_of))
        space = amb.then(stage)
    return space


def _commutator_quotient_keeping_unit(h, b, space, legs):
    chain = LegChain([h.dim] * legs, h.field)

    def rels_of(right, left):
        return (induced_map(chain.leg(right, legs - 1), space, space)
                - induced_map(chain.leg(left, 0), space, space))

    return space.then(quotient_by_columns(space.dim, _relations_of_every_b(h, b, rels_of)))


def _same_space(a, b):
    return (a.projection == b.projection and a.section == b.section
            and a.rel_cols == b.rel_cols and a.is_quotient == b.is_quotient)


def _os3_coinvariants_from_columns(field):
    """B = H^{co C} of OS3/OC2, rebuilt with ``subalgebra_from_columns``: its
    basis columns are sums of delta functions, and 1 is none of them."""
    s = builtin_setup("OS3/OC2", field)
    return s.hopf, subalgebra_from_columns(s.hopf, s.subalgebra.space.section)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
@pytest.mark.parametrize("name", SETUP_NAMES + ("OS3 B from columns",))
def test_leaving_out_the_relations_of_1_changes_no_space(name, field):
    if name in SETUP_NAMES:
        s = builtin_setup(name, field)
        h, b = s.hopf, s.subalgebra
        if name.endswith("/k"):
            assert b.space.section == h.eta  # 1 is B's one basis column
    else:
        h, b = _os3_coinvariants_from_columns(field)
        bcols = b.space.section
        assert all(bcols.column(j) != h.eta for j in range(bcols.cols))
    for legs in (1, 2, 3):
        want = _tensor_power_keeping_unit(h, b, legs)
        got = tensor_power_over_b(h, b, legs)
        assert _same_space(got, want), legs
        assert _same_space(commutator_quotient(h, b, got, legs),
                           _commutator_quotient_keeping_unit(h, b, want, legs)), legs
