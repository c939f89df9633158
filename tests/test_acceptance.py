"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime against the stated budget (run with ``pytest -s`` to see
the lines stream)."""

import functools
import time

import pytest

from hopfcyclic.cli import run
from hopfcyclic.cyclic import (
    check_identities,
    coext_cyclic,
    coextension_space,
    cyclic_homology,
    hochschild_homology,
    hopf_cocyclic_coalgebra,
    hopf_cyclic_coalgebra,
    hopf_cyclic_comodule_algebra,
    hopf_cyclic_spaces,
    relative_cyclic,
    relative_cocyclic_coext,
)
from hopfcyclic.groups import ClassFunction, builtin_group, subgroup_as_group
from hopfcyclic.classical import (
    class_function_dim_check,
    direct_picture_check,
    dual_picture,
    dual_picture_check,
    extended_quotient,
    frobenius_reciprocity_check,
    induce_class_function,
    stabilizer_coincidence_check,
)
from hopfcyclic.hopf import (
    HopfAlgebra,
    NotHopfIdeal,
    canonical_map_n,
    coinvariants,
    galois_criterion,
)
from hopfcyclic.iso import (
    check_cyclic_map,
    comodule_algebra_transform,
    module_coalgebra_transform,
    normal_quotient_comparison,
)
from hopfcyclic.linalg import QQ, SparseMatrix, span_contains
from hopfcyclic.presets import builtin_hopf, builtin_setup, group_pair
from hopfcyclic.sayd import ad_module, coad_module
from hopfcyclic.specseq import (
    extension_double_complex,
    five_term_check,
    hochschild_tor_check,
    theorem_check,
    tor_dims,
)
from support import from_keyed, group_algebra_hh0

# frozen by the dense brute-force oracle (tests/oracle.py), computed before
# the sparse engine was built
HH_H4 = [2, 1, 1, 1]
TOR_H4 = [2, 1, 1, 1]
HC_KC2 = [2, 0, 2, 0]

ALGEBRAS = ("kC2", "kC3", "kS3", "OS3", "H4")
SETUPS = ("kS3/kC2", "kS3/kC3", "H4/B")


def _finish(tag, start, budget):
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{tag} exceeded its {budget}s budget: {elapsed:.1f}s"
    print(f"\ncriterion {tag}: PASS ({elapsed:.1f}s, budget {budget}s)")


def _mutants(h):
    """One corrupted structure constant per structure map."""
    out = []
    mult = dict(h.mult)
    key = next(iter(sorted(mult)))
    mult[key] = h.field.add(mult[key], h.field.one)
    out.append(HopfAlgebra("mult-mutant", h.field, h.basis, mult, h.unit,
                           h.comult, h.counit, h.antipode))
    comult = dict(h.comult)
    key = next(iter(sorted(comult)))
    comult[key] = h.field.add(comult[key], h.field.one)
    out.append(HopfAlgebra("comult-mutant", h.field, h.basis, h.mult, h.unit,
                           comult, h.counit, h.antipode))
    anti = h.antipode + from_keyed(h.dim, h.dim, h.field, {(h.dim - 1, 0): h.field.one})
    out.append(HopfAlgebra("antipode-mutant", h.field, h.basis, h.mult, h.unit,
                           h.comult, h.counit, anti))
    return out


def test_criterion_1_axiom_suite():
    start = time.perf_counter()
    for name in ALGEBRAS:
        h = builtin_hopf(name)
        rep = h.validate()
        assert rep.ok, (name, rep.failures())
        for mutant in _mutants(h):
            mrep = mutant.validate()
            assert not mrep.ok, (name, mutant.name)
            witnessed = [c for c in mrep.failures() if c.witness is not None]
            assert witnessed, (name, mutant.name)
    _finish("1 (axiom suite + mutants)", start, 5)


def test_criterion_2_takeuchi_round_trip():
    start = time.perf_counter()
    for name in SETUPS:
        s = builtin_setup(name)
        back = coinvariants(s.hopf, s.quotient)
        assert back.dim == s.subalgebra.dim
        assert span_contains(back.space.section, s.subalgebra.space.section)
        assert span_contains(s.subalgebra.space.section, back.space.section)
        assert galois_criterion(s.hopf, s.subalgebra, s.quotient)
        can, can_inv, _ = canonical_map_n(s.hopf, s.subalgebra, s.quotient, 1)
        assert (can @ can_inv).is_identity()
    _finish("2 (Takeuchi round trip)", start, 10)


def test_criterion_3_cyclic_identity_suite():
    start = time.perf_counter()
    for name in ("kC2/k", "kS3/kC2", "H4/B", "OS3/OC2"):
        s = builtin_setup(name)
        h, b, c = s.hopf, s.subalgebra, s.quotient
        ad, coad = ad_module(h), coad_module(h)
        rel = relative_cyclic(h, b, 4)
        assert check_identities(rel).ok, name
        spaces = [coextension_space(h, c, n + 1) for n in range(5)]
        assert check_identities(coext_cyclic(h, c, 4, spaces=spaces)).ok, name
        assert check_identities(relative_cocyclic_coext(h, c, 4, spaces=spaces)).ok, name
        hsp = hopf_cyclic_spaces(c, ad, 4)
        assert check_identities(hopf_cyclic_coalgebra(c, ad, 4, spaces=hsp)).ok, name
        assert check_identities(hopf_cocyclic_coalgebra(c, ad, 4, spaces=hsp)).ok, name
        assert check_identities(hopf_cyclic_comodule_algebra(h, b, coad, 4)).ok, name
    # operator mutants must fail
    s = builtin_setup("kC2/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 2)
    from dataclasses import replace

    doubled = cm.t[1].matrix().scale(QQ.from_int(2))
    assert not check_identities(replace(cm, t={**cm.t, 1: doubled})).ok
    assert not check_identities(replace(cm, t={**cm.t, 1: cm.t[1] @ cm.t[1]})).ok
    zero = SparseMatrix.zeros(cm.spaces[0].dim, cm.spaces[1].dim, QQ)
    assert not check_identities(replace(cm, d={**cm.d, (1, 0): zero})).ok

    bad_s = dict(cm.s)
    bad_s[(0, 0)] = SparseMatrix.zeros(cm.spaces[1].dim, cm.spaces[0].dim, QQ)
    assert not check_identities(replace(cm, s=bad_s)).ok
    _finish("3 (cyclic identity suite, n_max=4)", start, 120)


def test_criterion_4_module_coalgebra_transform():
    start = time.perf_counter()
    for name in ("kS3/kC2", "H4/B"):
        s = builtin_setup(name)
        psi, phi = module_coalgebra_transform(s, 3)  # mutual inverse asserted inside
        assert check_cyclic_map(psi).ok, name
        assert check_cyclic_map(phi).ok, name
    _finish("4 (module-coalgebra transform, n<=3)", start, 300)


def test_criterion_5_comodule_algebra_transform():
    start = time.perf_counter()
    for name in ("kS3/kC2", "H4/B"):
        s = builtin_setup(name)
        gamma, gamma_inv = comodule_algebra_transform(s, 3)
        assert check_cyclic_map(gamma).ok, name
        assert check_cyclic_map(gamma_inv).ok, name
    _finish("5 (comodule-algebra transform, n<=3)", start, 300)


def test_criterion_6_normal_quotient_comparison():
    start = time.perf_counter()
    s = builtin_setup("kS3/kC3")
    comparison, ident_maps, rel_spaces = normal_quotient_comparison(s, 2)
    assert set(comparison) == {0, 1, 2}
    s2 = builtin_setup("kS3/kC2")
    with pytest.raises(NotHopfIdeal):
        normal_quotient_comparison(s2, 1)
    _finish("6 (normal-quotient comparison)", start, 60)


def test_criterion_7_hochschild_equals_tor():
    start = time.perf_counter()
    expected = {"kC2": [2, 0, 0, 0], "kS3": [3, 0, 0, 0], "H4": HH_H4}
    for name, want in expected.items():
        s = builtin_setup(f"{name}/k")
        cm = relative_cyclic(s.hopf, s.subalgebra, 4)
        hh = hochschild_homology(cm)
        assert hh == want, (name, hh)
        tor_vals = tor_dims(ad_module(s.hopf), 3)
        assert tor_vals == want, (name, tor_vals)
        rep = hochschild_tor_check(s.hopf, hh, tor_vals)
        assert rep.ok, (name, [c for c in rep.checks if not c.ok])
    # the cyclic theory agrees with its oracle as well
    s = builtin_setup("kC2/k")
    assert cyclic_homology(relative_cyclic(s.hopf, s.subalgebra, 4)) == HC_KC2
    _finish("7 (Hochschild equals Tor)", start, 120)


def test_criterion_8_spectral_sequence():
    start = time.perf_counter()
    for name in ("kS3/kC2", "H4/B"):
        s = builtin_setup(name)
        hh = hochschild_homology(relative_cyclic(s.hopf, s.subalgebra, 3))
        dc = extension_double_complex(s, 3, 3)
        rep = theorem_check(dc, hh, tor_dims(dc.m, 2))
        assert rep.ok, (name, [c for c in rep.checks if not c.ok])
        frep = five_term_check(dc)
        assert frep.ok, (name, [c for c in frep.checks if not c.ok])
    _finish("8 (spectral sequence + five-term)", start, 300)


def test_criterion_9_classical_suite():
    start = time.perf_counter()
    g = builtin_group("S3")
    sub = [0, 2]  # e, (12)
    pair = functools.cache(functools.partial(group_pair, g, sub))  # built once, as a run does
    assert direct_picture_check(g, sub, 2, pair).ok
    picture = dual_picture(g, sub, 2, pair)
    assert dual_picture_check(picture, 2).ok
    assert stabilizer_coincidence_check(g, sub, 1).ok
    assert len(extended_quotient(g, sub, picture, 0)) == 2
    subgrp = subgroup_as_group(g, sub)
    trivial = ClassFunction(subgrp, [QQ.one, QQ.one])
    sign = ClassFunction(subgrp, [QQ.one, QQ.from_int(-1)])
    up_t = induce_class_function(g, sub, trivial, picture)  # three routes agree inside
    up_s = induce_class_function(g, sub, sign, picture)
    assert up_t.values == [QQ.from_int(3), QQ.one, QQ.zero]
    assert up_s.values == [QQ.from_int(3), QQ.from_int(-1), QQ.zero]
    assert frobenius_reciprocity_check(g, sub, trivial, up_t).ok
    assert frobenius_reciprocity_check(g, sub, sign, up_s).ok
    assert class_function_dim_check(g, pair().hopf).ok
    assert group_algebra_hh0(g) == len(g.conjugacy_classes())
    _finish("9 (classical suite)", start, 60)


def test_criterion_10_determinism():
    start = time.perf_counter()
    battery = [
        ["--format", "json", "--seed", "7", "validate", "kS3"],
        ["--format", "json", "--seed", "7", "homology", "kC2", "--theory", "hc",
         "--max-degree", "2"],
        ["--format", "json", "--seed", "7", "galois", "kS3/kC2"],
        ["--format", "json", "--seed", "7", "classical", "--group", "S3",
         "--subgroup", "(12)", "--op", "frobenius"],
        ["--format", "json", "--seed", "7", "isocheck", "kS3/kC3",
         "--theorem", "jara-stefan", "--max-degree", "1"],
        ["--format", "json", "--seed", "7", "classical", "--group", "S3",
         "--subgroup", "(12)", "--op", "stabilizers", "--max-degree", "2"],
    ]
    for argv in battery:
        code1, text1 = run(list(argv))
        code2, text2 = run(list(argv))
        assert code1 == code2 == 0, argv
        assert text1.encode() == text2.encode(), argv
    _finish("10 (deterministic reports)", start, 120)
