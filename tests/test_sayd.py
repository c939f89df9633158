from dataclasses import replace

import pytest

from hopfcyclic.hopf import group_algebra
from hopfcyclic.groups import builtin_group
from hopfcyclic.linalg import QQ, SparseMatrix, permutation_matrix
from hopfcyclic.presets import builtin_hopf
from hopfcyclic.sayd import (
    SaydModule,
    ad_module,
    check_ayd,
    check_stable,
    coad_module,
    validate_sayd,
)
from support import adjoint_action_identity_ok, from_keyed, to_keyed, trivial_sayd


def test_trivial_sayd_passes_when_antipode_involutive():
    for name in ("kC2", "kS3", "OS3"):
        h = builtin_hopf(name)
        rep = validate_sayd(trivial_sayd(h))
        assert rep.ok, (name, rep.failures())


def test_trivial_sayd_over_sweedler_needs_grouplike_twist():
    h = builtin_hopf("H4")
    # with the unit coaction the compatibility fails (S^2 != id) ...
    assert not check_ayd(trivial_sayd(h)).ok
    # ... and the group-like g repairs it
    twisted = trivial_sayd(h, grouplike=h.ident().column(1))
    assert validate_sayd(twisted).ok


def test_ad_checks_pass():
    for name in ("kC2", "kC3", "kS3", "OS3", "H4"):
        ad = ad_module(builtin_hopf(name))  # raises if the checkers fail
        assert check_ayd(ad).ok and check_stable(ad).ok


def test_ad_group_algebra_is_conjugation():
    g = builtin_group("S3")
    h = group_algebra(g)
    ad = ad_module(h)
    for i in g.elements():
        for j in g.elements():
            col = ad.action.column(i * 6 + j)
            assert to_keyed(col) == {(g.conj(i, j), 0): QQ.one}


def test_ad_factors_through_counit_for_commutative():
    h = builtin_hopf("OS3")
    ad = ad_module(h)
    expected = h.eps.kron(SparseMatrix.identity(h.dim, QQ))
    assert ad.action == expected


def test_coad_checks_pass():
    for name in ("kC2", "kC3", "kS3", "OS3", "H4"):
        coad = coad_module(builtin_hopf(name))
        assert check_ayd(coad).ok and check_stable(coad).ok


def test_coad_trivial_for_cocommutative():
    for name in ("kC2", "kS3"):
        h = builtin_hopf(name)
        coad = coad_module(h)
        # coaction m -> 1 (x) m
        expected = from_keyed(
            h.dim * h.dim, h.dim, QQ,
            {(i * h.dim + j, j): v for j in range(h.dim) for i, v in h.unit.items()},
        )
        assert coad.coaction == expected


def test_coad_function_algebra_explicit_small():
    coad = coad_module(builtin_hopf("OC2"))
    assert validate_sayd(coad).ok


def test_adjoint_action_identity():
    for name in ("kC2", "kS3", "H4"):
        assert adjoint_action_identity_ok(builtin_hopf(name))


def test_yetter_drinfeld_style_mismatch_fails_ayd():
    # kC2 acting on itself by multiplication with Delta-coaction is not AYD
    h = builtin_hopf("kC2")
    m = SaydModule(h, "left-right", h.mu, h.delta, name="mismatch")
    rep = check_ayd(m)
    assert not rep.ok
    assert rep.failures()[0].witness == "basis pair (1, 1)"


def test_scaled_coaction_breaks_stability():
    h = builtin_hopf("kC2")
    ad = ad_module(h)
    scaled = SaydModule(h, "left-right", ad.action, ad.coaction.scale(QQ.from_int(2)),
                        name="scaled")
    rep = check_stable(scaled)
    assert not rep.ok and rep.failures()[0].witness == "basis pair (0,)"


AYD, STABLE = "anti-Yetter-Drinfeld compatibility", "stability"
COASSOC, COUNIT, ASSOC = "comodule coassociativity", "comodule counit", "module associativity"


@pytest.mark.parametrize("name, mutant, broken", [
    ("kS3", "coaction Delta", {AYD, STABLE}),
    ("H4", "coaction Delta", {AYD, STABLE}),
    ("kS3", "coaction scaled by 2", {COASSOC, COUNIT, STABLE}),
    ("H4", "coaction scaled by 2", {COASSOC, COUNIT, STABLE}),
    ("kS3", "action mu swap", {ASSOC}),
    ("H4", "action mu swap", {ASSOC, AYD, STABLE}),
])
def test_right_left_mutants_of_coad_break_their_axioms(name, mutant, broken):
    # the right-left branches of every checker, on coefficients that fail
    h = builtin_hopf(name)
    coad = coad_module(h)
    if mutant == "coaction Delta":
        m = replace(coad, coaction=h.delta)
    elif mutant == "coaction scaled by 2":
        m = replace(coad, coaction=coad.coaction.scale(QQ.from_int(2)))
    else:
        m = replace(coad, action=h.mu @ permutation_matrix([h.dim, h.dim], [1, 0], QQ))
    assert m.chirality == "right-left"
    assert {c.name for c in validate_sayd(m).failures()} == broken
    assert check_ayd(m).ok == (AYD not in broken)
    assert check_stable(m).ok == (STABLE not in broken)


def test_chirality_shape_guard():
    h = builtin_hopf("kC2")
    with pytest.raises(Exception):
        SaydModule(h, "sideways", h.mu, h.delta)
