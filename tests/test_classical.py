import functools
import itertools
import random
import re
from dataclasses import replace

import pytest

import classical_reference as reference
from hopfcyclic.groups import (
    BUILTIN_GROUPS,
    CHARACTER_TABLES,
    ClassFunction,
    FiniteGroup,
    GroupError,
    GSet,
    builtin_group,
    coset_action,
    irreducible_characters,
    subgroup_as_group,
)
from hopfcyclic.classical import (
    TUPLE_BUDGET,
    _unrank,
    class_function_dim_check,
    direct_picture_check,
    dual_picture,
    dual_picture_check,
    extended_quotient,
    extended_quotient_check,
    extended_quotient_transport_check,
    frobenius_reciprocity_check,
    induce_class_function,
    intertwining_checks,
    stabilizer_coincidence_check,
)
from hopfcyclic.cli import _resolve_chi
from hopfcyclic.cyclic import check_identities, cocyclic_dual
from hopfcyclic.iso import comodule_algebra_transform, module_coalgebra_transform
from hopfcyclic.linalg import QQ, IndexTable
from hopfcyclic.hopf import group_algebra
from hopfcyclic.presets import group_pair
from support import group_algebra_hh0

S3 = builtin_group("S3")
C2_IN_S3 = [0, 2]  # e, (12)


def _pair(g, sub):
    """The builder of (kG, kK) that the picture checks call once within budget."""
    return functools.partial(group_pair, g, sub)


def test_group_tables_validate():
    for name in ("C2", "C3", "C4", "S3", "Q8", "A4"):
        grp = builtin_group(name)
        assert grp.order in (2, 3, 4, 6, 8, 12)


def _reduced_latin_squares(n, rows=None):
    """Every Latin square of order n whose first row and column are 0..n-1:
    the loops with identity 0."""
    rows = rows or [list(range(n))]
    if len(rows) == n:
        yield [list(r) for r in rows]
        return
    for perm in itertools.permutations(range(n)):
        if perm[0] == len(rows) and all(perm[c] != r[c] for r in rows for c in range(n)):
            yield from _reduced_latin_squares(n, rows + [perm])


def _latin_squares(rng):
    """Latin squares isotopic to the built-in groups, (a, b) -> gamma(alpha(a)
    beta(b)), most of them not associative; every loop L of order 5 with its
    elements relabelled at random, so its identity may be any element; and
    C2 x L with C2's generator first, where associativity can fail only at a
    later generator."""
    for name in ("C4", "C6", "S3", "Q8"):
        t = builtin_group(name).table
        n = len(t)
        for _ in range(40):
            alpha, beta, gamma = (rng.sample(range(n), n) for _ in range(3))
            yield [[gamma[t[alpha[a]][beta[b]]] for b in range(n)] for a in range(n)]
    for loop in _reduced_latin_squares(5):
        at = rng.sample(range(5), 5)
        table = [[0] * 5 for _ in range(5)]
        for a in range(5):
            for b in range(5):
                table[at[a]][at[b]] = at[loop[a][b]]
        yield table
        yield [[(a % 2 ^ b % 2) + 2 * loop[a // 2][b // 2] for b in range(10)] for a in range(10)]


def test_associativity_is_checked_on_generators_as_on_every_triple():
    # a table with an identity is refused exactly when some triple fails,
    # naming a failing triple
    for table in _latin_squares(random.Random(0)):
        n = len(table)
        fails = {(a, b, c) for a in range(n) for b in range(n) for c in range(n)
                 if table[table[a][b]][c] != table[a][table[b][c]]}
        unital = any(all(table[e][x] == x == table[x][e] for x in range(n)) for e in range(n))
        try:
            FiniteGroup("latin", [str(k) for k in range(n)], table)
        except GroupError as exc:
            if not unital:
                assert str(exc) == "no identity element"
                continue
            witness = re.fullmatch(r"associativity fails at \((\d+),(\d+),(\d+)\)", str(exc))
            assert tuple(map(int, witness.groups())) in fails
        else:
            assert unital and not fails


def test_conjugacy_classes_s3_and_q8():
    assert [len(c) for c in S3.conjugacy_classes()] == [1, 3, 2]
    q8 = builtin_group("Q8")
    assert sorted(len(c) for c in q8.conjugacy_classes()) == [1, 1, 2, 2, 2]


def test_q8_is_the_quaternion_group_under_its_names():
    q8 = builtin_group("Q8")

    def mul(*names):
        return q8.names[q8.prod(q8.index(nm) for nm in names)]

    assert mul("i", "i") == mul("j", "j") == mul("k", "k") == mul("i", "j", "k") == "-1"
    assert (mul("i", "j"), mul("j", "k"), mul("k", "i")) == ("k", "i", "j")


@pytest.mark.parametrize("name", sorted(CHARACTER_TABLES))
def test_character_tables_are_orthonormal_with_one_row_per_class(name):
    g = builtin_group(name)
    chis = irreducible_characters(g)
    assert len(chis) == len(g.conjugacy_classes())
    for a, chi in enumerate(chis):
        for b, psi in enumerate(chis):
            assert chi.inner(psi) == (QQ.one if a == b else QQ.zero), (a, b)


def test_character_table_is_chosen_by_multiplication_table_not_name():
    s3 = builtin_group("S3")
    renamed = FiniteGroup("not S3", [f"x{k}" for k in range(6)], s3.table)
    assert [c.values for c in irreducible_characters(renamed)] == \
        [c.values for c in irreducible_characters(s3)]
    q8_of_order_two = FiniteGroup("Q8", ["1", "-1"], [[0, 1], [1, 0]])
    assert [c.values for c in irreducible_characters(q8_of_order_two)] == [
        [QQ.one, QQ.one], [QQ.one, QQ.from_int(-1)]]
    c6 = builtin_group("C6")
    with pytest.raises(GroupError, match="no built-in rational character table for S3"):
        irreducible_characters(FiniteGroup("S3", c6.names, c6.table))


def test_direct_picture_subgroup_equals_group():
    whole = list(S3.elements())
    rep = direct_picture_check(S3, whole, 2, _pair(S3, whole))
    assert rep.ok, [c.name for c in rep.failures()]


def test_direct_picture_s3_c2():
    rep = direct_picture_check(S3, C2_IN_S3, 3, _pair(S3, C2_IN_S3))
    assert rep.ok, [c.name for c in rep.failures()]


def test_direct_picture_c4_c2():
    c4 = builtin_group("C4")
    rep = direct_picture_check(c4, [0, 2], 2, _pair(c4, [0, 2]))
    assert rep.ok, [c.name for c in rep.failures()]


def test_dual_picture_subgroup_equals_group():
    # both sides reduce to conjugacy-class data
    whole = list(S3.elements())
    rep = dual_picture_check(dual_picture(S3, whole, 1, _pair(S3, whole)), 1)
    assert rep.ok, [c.name for c in rep.failures()]


def test_dual_picture_s3_c2():
    rep = dual_picture_check(dual_picture(S3, C2_IN_S3, 2, _pair(S3, C2_IN_S3)), 2)
    assert rep.ok, [c.name for c in rep.failures()]


def test_dual_picture_q8_center():
    q8 = builtin_group("Q8")
    center = [0, 1]  # 1, -1
    rep = dual_picture_check(dual_picture(q8, center, 2, _pair(q8, center)), 2)
    assert rep.ok, [c.name for c in rep.failures()]


def test_stabilizers_trivial_case():
    rep = stabilizer_coincidence_check(S3, list(S3.elements()), 0)
    assert rep.ok


def test_stabilizers_s3_exhaustive():
    rep = stabilizer_coincidence_check(S3, C2_IN_S3, 1)
    assert rep.ok, [c.witness for c in rep.failures()]


@pytest.mark.parametrize("name", ["S3", "A4"])
def test_stabilizers_with_the_whole_group_as_subgroup(name):
    # the closed form conjugated h_0 by the prefix on the wrong side
    g = builtin_group(name)
    whole = list(g.elements())
    rep = stabilizer_coincidence_check(g, whole, 1)
    assert rep.ok, [c.witness for c in rep.failures()]
    rep = stabilizer_coincidence_check(g, whole, 2, sample=40, seed=0)
    assert rep.ok, [c.witness for c in rep.failures()]


def test_stabilizers_sampled_degree_two():
    rep = stabilizer_coincidence_check(S3, C2_IN_S3, 2, sample=40, seed=0)
    assert rep.ok


def test_extended_quotient_trivial_group():
    triv = builtin_group("trivial")
    picture = dual_picture(triv, [0], 2, _pair(triv, [0]))
    assert [len(extended_quotient(triv, [0], picture, n)) for n in range(3)] == [1, 1, 1]
    x = GSet(triv, 3, [[0, 1, 2]])
    assert len(reference.extended_quotient(triv, x, 0)) == 3


def test_extended_quotient_s3_cosets():
    picture = dual_picture(S3, C2_IN_S3, 2, _pair(S3, C2_IN_S3))
    assert len(extended_quotient(S3, C2_IN_S3, picture, 0)) == 2
    rep = extended_quotient_check(S3, C2_IN_S3, picture, 1)
    assert rep.ok


@pytest.mark.parametrize("gens", [[], ["(12)"], ["(123)"], ["(12)", "(123)"]])
def test_extended_quotient_check_every_s3_subgroup(gens):
    sub = S3.subgroup_closure([S3.index(x) for x in gens])
    rep = extended_quotient_check(S3, sub, dual_picture(S3, sub, 3, _pair(S3, sub)), 2)
    assert rep.ok, [c.name for c in rep.failures()]


def _fiber_power_set(n_max):
    """The fiber powers of S3 -> S3/<(12)>, read off the coextension object."""
    gamma, _ = comodule_algebra_transform(group_pair(S3, C2_IN_S3), n_max)
    return cocyclic_dual(gamma.target)


def test_cocyclic_sets_and_modules_check_the_same_identities():
    from hopfcyclic.cyclic import relative_cocyclic_coext
    from hopfcyclic.presets import builtin_setup

    s = builtin_setup("kC2/k")
    module = check_identities(relative_cocyclic_coext(s.hopf, s.quotient, 3))
    finite = check_identities(reference.fiber_power_set(S3, C2_IN_S3, 3))
    read = check_identities(_fiber_power_set(3))
    assert [c.name for c in module.checks] == [c.name for c in finite.checks] == \
        [c.name for c in read.checks]


def test_mutant_cocyclic_set_fails():
    """The rotation in degree 1, an all-ones column table of the set read
    off the coextension object, with two indices swapped."""
    cs = _fiber_power_set(2)
    assert check_identities(cs).ok
    tau = cs.tau[1]
    assert tau.val is None and not tau.by_rows
    swapped = list(tau.idx)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    mutant = replace(cs, tau={**cs.tau, 1: IndexTable(tau.rows, tau.cols, QQ, swapped, None)})
    assert not check_identities(mutant).ok


def test_extended_quotient_transport():
    picture = dual_picture(S3, C2_IN_S3, 1, _pair(S3, C2_IN_S3))
    rep = extended_quotient_transport_check(S3, C2_IN_S3, picture, 1)
    assert rep.ok, [c.witness for c in rep.failures()]


def test_induced_characters_s3():
    sub = subgroup_as_group(S3, C2_IN_S3)
    trivial = ClassFunction(sub, [QQ.one, QQ.one])
    sign = ClassFunction(sub, [QQ.one, QQ.from_int(-1)])
    picture = dual_picture(S3, C2_IN_S3, 0, _pair(S3, C2_IN_S3))
    up_triv = induce_class_function(S3, C2_IN_S3, trivial, picture)
    up_sign = induce_class_function(S3, C2_IN_S3, sign, picture)
    # classes ordered e, transpositions, 3-cycles
    assert up_triv.values == [QQ.from_int(3), QQ.one, QQ.zero]
    assert up_sign.values == [QQ.from_int(3), QQ.from_int(-1), QQ.zero]


def test_induction_from_whole_group_is_identity():
    chis = irreducible_characters(S3)
    whole = list(S3.elements())
    picture = dual_picture(S3, whole, 0, _pair(S3, whole))
    for chi in chis:
        up = induce_class_function(S3, list(S3.elements()), chi, picture)
        assert up.values == chi.values


def test_frobenius_reciprocity_s3():
    sub = subgroup_as_group(S3, C2_IN_S3)
    picture = dual_picture(S3, C2_IN_S3, 0, _pair(S3, C2_IN_S3))
    for vals in ([QQ.one, QQ.one], [QQ.one, QQ.from_int(-1)]):
        chi = ClassFunction(sub, list(vals))
        rep = frobenius_reciprocity_check(
            S3, C2_IN_S3, chi, induce_class_function(S3, C2_IN_S3, chi, picture))
        assert rep.ok, [c.witness for c in rep.failures()]


def test_non_class_function_rejected():
    from hopfcyclic.groups import GroupError

    sub = subgroup_as_group(S3, C2_IN_S3)
    with pytest.raises(GroupError):
        induce_class_function(S3, C2_IN_S3, ClassFunction(sub, [QQ.one]),
                              dual_picture(S3, C2_IN_S3, 0, _pair(S3, C2_IN_S3)))


def test_class_function_dims():
    trivial = builtin_group("trivial")
    assert class_function_dim_check(trivial, group_algebra(trivial)).ok
    for g in (S3, builtin_group("Q8")):
        assert class_function_dim_check(g, group_algebra(g)).ok
        assert group_algebra_hh0(g) == len(g.conjugacy_classes())


def test_classical_matches_algebraic_dims():
    # linearized direct picture: fiber power sizes equal the dims of the
    # relative cyclic object of O(S3) over O(S3/C2)
    from hopfcyclic.cyclic import relative_cyclic
    from hopfcyclic.presets import builtin_setup

    s = builtin_setup("OS3/OC2")
    cm = relative_cyclic(s.hopf, s.subalgebra, 2)
    assert cm.dims() == _fiber_power_set(2).dims() == \
        reference.fiber_power_set(S3, C2_IN_S3, 2).dims()


def test_dual_orbit_count_matches_coextension_dims():
    # orbit counts of the dual picture equal the coextension dims for O(S3)
    from hopfcyclic.cyclic import coextension_space
    from hopfcyclic.presets import builtin_setup

    s = builtin_setup("OS3/OC2")
    orbits = dual_picture(S3, C2_IN_S3, 1, _pair(S3, C2_IN_S3)).phi.source.dims()  # C(kG|kK)
    for n in range(2):
        cox = coextension_space(s.hopf, s.quotient, n + 1)
        assert cox.dim == orbits[n] == len(reference.left_quotient(S3, C2_IN_S3, n))


def test_left_quotient_past_the_tuple_budget_names_its_count():
    # said "use sampling", which no command offers
    c60 = FiniteGroup("C60", [str(k) for k in range(60)],
                      [[(a + b) % 60 for b in range(60)] for a in range(60)])
    with pytest.raises(GroupError, match=f"60\\^4\\*4\\*1 = 51840000 neighbors at degree 3 "
                                         f"is over the budget of {TUPLE_BUDGET}$"):
        reference.left_quotient(c60, [0], 3)


@pytest.mark.parametrize("order, seed", [(2, 0), (3, 7), (6, 1), (12, 42)])
def test_sampled_ranks_unrank_to_the_tuples_a_sampled_list_holds(order, seed):
    for length in (2, 3):
        tuples = list(itertools.product(range(order), repeat=length))
        k = min(40, len(tuples) - 1)
        drawn = [_unrank(r, order, length)
                 for r in random.Random(seed).sample(range(len(tuples)), k)]
        assert drawn == random.Random(seed).sample(tuples, k)


def _subgroups(g):
    """The trivial subgroup, each cyclic subgroup once, and the whole group."""
    subs = {(g.identity,): [g.identity], tuple(g.elements()): list(g.elements())}
    for x in g.elements():
        closure = g.subgroup_closure([x])
        subs.setdefault(tuple(closure), closure)
    return list(subs.values())


def _reference_cases():
    for name in BUILTIN_GROUPS:
        g = builtin_group(name)
        for sub in _subgroups(g):
            yield pytest.param(name, sub, id=f"{name}-{'.'.join(g.names[x] for x in sub)}")


@pytest.mark.parametrize("name, sub", _reference_cases())
def test_pictures_read_off_kg_match_the_hand_enumerated_sets(name, sub):
    """Both pictures check the same (name, ok) lists on the linear objects
    over kG as on the hand-enumerated sets, all passing, on sets of the
    same sizes: degree 2, and the direct picture to 3 on S3, C4 and Q8."""
    g = builtin_group(name)
    n_direct = 3 if name in ("S3", "C4", "Q8") else 2
    for mine, theirs in (
            (direct_picture_check(g, sub, n_direct, _pair(g, sub)),
             reference.direct_picture_check(g, sub, n_direct)),
            (dual_picture_check(dual_picture(g, sub, 2, _pair(g, sub)), 2),
             reference.dual_picture_check(g, sub, 2))):
        mine, theirs = ([(c.name, c.ok) for c in rep.checks] for rep in (mine, theirs))
        assert mine == theirs
        assert all(ok for _, ok in mine)
    pair = group_pair(g, sub)
    gamma, _ = comodule_algebra_transform(pair, n_direct)
    psi, phi = module_coalgebra_transform(pair, 2)
    read = [cocyclic_dual(x).dims() for x in (gamma.target, gamma.source, phi.source, psi.source)]
    gset = coset_action(g, sub)
    assert read == [reference.fiber_power_set(g, sub, n_direct).dims(),
                    reference.product_one_set(g, sub, n_direct).dims(),
                    reference.left_picture_set(g, sub, 2)[0].dims(),
                    reference.right_picture_set(g, gset, 2)[0].dims()]


def test_a_map_that_is_no_permutation_is_not_bijective():
    """gamma's degree-1 component, scaled by 2 or with two columns sent to
    one basis element, fails "bijective @ 1" and nothing in degree 0."""
    gamma, _ = comodule_algebra_transform(group_pair(S3, C2_IN_S3), 1)
    src, tgt = cocyclic_dual(gamma.source), cocyclic_dual(gamma.target)
    assert all(c.ok for c in intertwining_checks(src, tgt, gamma.components, 1))
    tb = gamma.components[1].table()
    merged = list(tb.idx)
    merged[1] = merged[0]
    for bad in (gamma.components[1].scale(QQ.from_int(2)),
                IndexTable(tb.rows, tb.cols, QQ, merged, None)):
        checks = {c.name: c.ok
                  for c in intertwining_checks(src, tgt, {**gamma.components, 1: bad}, 1)}
        assert not checks["bijective @ 1"] and checks["bijective @ 0"]


def _inertia(g, sub, picture):
    """Extended-quotient sizes to degree 2, the (name, ok) lists of the
    extended and transport checks to degree 1, and the class functions
    induced from the trivial and the sign character of K, read off
    ``picture``."""
    sizes = [len(extended_quotient(g, sub, picture, n)) for n in range(3)]
    checks = [[(c.name, c.ok) for c in check(g, sub, picture, 1).checks]
              for check in (extended_quotient_check, extended_quotient_transport_check)]
    induced = [induce_class_function(g, sub, _resolve_chi(g, sub, chi), picture).values
               for chi in ("trivial", "sign")]
    return sizes, checks, induced


def _reference_inertia(g, sub):
    gset = coset_action(g, sub)
    sizes = [len(reference.extended_quotient(g, gset, n)) for n in range(3)]
    checks = [[(c.name, c.ok) for c in rep.checks]
              for rep in (reference.extended_quotient_check(g, gset, 1),
                          reference.extended_quotient_transport_check(g, sub, 1))]
    induced = [reference.induce_class_function(g, sub, _resolve_chi(g, sub, chi)).values
               for chi in ("trivial", "sign")]
    return sizes, checks, induced


@pytest.mark.parametrize("name, sub", _reference_cases())
def test_inertia_read_off_kg_matches_the_tuple_reference(name, sub):
    """The extended quotients, their transport and the induced class
    functions read off the dual picture over kG equal those enumerated on
    tuples, at degrees <= 1, all checks passing."""
    g = builtin_group(name)
    mine = _inertia(g, sub, dual_picture(g, sub, 2, _pair(g, sub)))
    assert mine == _reference_inertia(g, sub)
    assert all(ok for check in mine[1] for _, ok in check)
    assert [(c.name, c.ok) for c in class_function_dim_check(g, group_algebra(g)).checks] == \
        [(c.name, c.ok) for c in reference.class_function_dim_check(g).checks]


def test_extended_quotient_conjugated_on_the_wrong_side_fails():
    """r^{-1} m r in place of r m r^{-1} keeps the wrong basis vectors of
    the right cosets K r: on S3 with K = <(12)> the sizes read 2, 4, not
    the reference's 2, 3, and every inertia check fails."""
    picture = dual_picture(S3, C2_IN_S3, 2, _pair(S3, C2_IN_S3))
    mutant = builtin_group("S3")
    mutant.conj = lambda r, m: S3.conj(S3.inv(r), m)
    assert [len(extended_quotient(S3, C2_IN_S3, picture, n)) for n in range(2)] == [2, 3]
    assert [len(extended_quotient(mutant, C2_IN_S3, picture, n)) for n in range(2)] == [2, 4]
    assert not extended_quotient_check(mutant, C2_IN_S3, picture, 1).ok
    rep = extended_quotient_transport_check(mutant, C2_IN_S3, picture, 1)
    assert [c.witness for c in rep.failures()] == ["4 vs 3 classes"]
    with pytest.raises(GroupError, match="extension by zero is not constant on orbits"):
        induce_class_function(mutant, C2_IN_S3, _resolve_chi(S3, C2_IN_S3, "trivial"), picture)
