"""Cross-cutting property checks that tie several modules together."""

from hopfcyclic.cyclic import (
    CyclicModule,
    cyclic_homology,
    hochschild_homology,
    hopf_cyclic_coalgebra,
    relative_cyclic,
)
from hopfcyclic.iso import module_coalgebra_transform
from hopfcyclic.linalg import QQ, SparseMatrix, SubquotientSpace, homology_space
from hopfcyclic.presets import builtin_setup
from hopfcyclic.sayd import ad_module
from hopfcyclic.specseq import (
    extension_double_complex,
    second_page_spot,
    tor_dims,
)
from support import from_dense, transposed_spots, unnormalized_complex


def test_isomorphic_cyclic_modules_share_homology():
    # corollary-level regression: both sides of the transform have equal
    # Hochschild and cyclic dimension sequences
    for name in ("kS3/kC2", "H4/B"):
        s = builtin_setup(name)
        src = hopf_cyclic_coalgebra(s.quotient, ad_module(s.hopf), 4)
        tgt = relative_cyclic(s.hopf, s.subalgebra, 4)
        assert hochschild_homology(src) == hochschild_homology(tgt)
        assert cyclic_homology(src) == cyclic_homology(tgt)


def test_transform_respects_boundaries():
    s = builtin_setup("kS3/kC2")
    psi, phi = module_coalgebra_transform(s, 2)
    source, target = unnormalized_complex(psi.source), unnormalized_complex(psi.target)
    for n in (1, 2):
        assert psi.components[n - 1] @ source.d(n) == target.d(n) @ psi.components[n]


def test_euler_characteristic_consistency():
    # on a bounded rectangle the alternating sums of cell dims, truncated
    # first-page dims, and truncated second-page dims all agree
    s = builtin_setup("H4/B")
    P, Q = 2, 2
    dc = extension_double_complex(s, P, Q)
    cells = {(p, q): dc.row(q).dim(p) for p in range(P + 1) for q in range(Q + 1)}
    chi_cells = sum((-1) ** (p + q) * d for (p, q), d in cells.items())

    e1 = {}
    for p in range(P + 1):
        for q in range(Q + 1):
            out = dc.dv(p, q) if q >= 1 else SparseMatrix.zeros(0, cells[(p, q)], QQ)
            into = dc.dv(p, q + 1) if q + 1 <= Q else SparseMatrix.zeros(
                cells[(p, q)], 0, QQ)
            e1[(p, q)] = homology_space(out, into)
    chi_e1 = sum((-1) ** (p + q) * sp.dim for (p, q), sp in e1.items())

    from hopfcyclic.linalg import induced_map

    e2_dims = {}
    for p in range(P + 1):
        for q in range(Q + 1):
            out = induced_map(dc.dh(p, q), e1[(p, q)], e1[(p - 1, q)]) if p >= 1 \
                else SparseMatrix.zeros(0, e1[(p, q)].dim, QQ)
            into = induced_map(dc.dh(p + 1, q), e1[(p + 1, q)], e1[(p, q)]) if p + 1 <= P \
                else SparseMatrix.zeros(e1[(p, q)].dim, 0, QQ)
            e2_dims[(p, q)] = homology_space(out, into).dim
    chi_e2 = sum((-1) ** (p + q) * d for (p, q), d in e2_dims.items())

    assert chi_cells == chi_e1 == chi_e2


def test_transposed_page_for_kc2():
    # the transposed second page concentrates Tor(k, ad) in the p = 0 column
    s = builtin_setup("kC2/k")
    dc = extension_double_complex(s, 2, 2)
    e2 = {pq: transposed_spots(dc, *pq)[1].dim for pq in [(0, 0), (1, 0), (0, 1), (1, 1)]}
    assert e2[(0, 0)] == 2
    assert e2[(1, 0)] == 0 and e2[(1, 1)] == 0 and e2[(0, 1)] == 0


def test_zero_mutant_cyclic_homology_is_total_dims():
    f = QQ
    dims = [3, 3, 3]
    spaces = [SubquotientSpace.full(3, f) for _ in range(3)]
    d = {(n, i): SparseMatrix.zeros(3, 3, f) for n in (1, 2) for i in range(n + 1)}
    sdeg = {(n, j): SparseMatrix.zeros(3, 3, f) for n in (0, 1) for j in range(n + 1)}
    t = {n: SparseMatrix.zeros(3, 3, f) for n in range(3)}
    cm = CyclicModule(2, spaces, d, sdeg, t)
    assert cyclic_homology(cm, 0) == [3]


def test_tor_dimensions_stable_under_field_choice():
    # F_5 does not divide any built-in group order, so dims agree with Q
    from hopfcyclic.linalg import PrimeField
    from hopfcyclic.presets import builtin_hopf

    f5 = PrimeField(5)
    for name in ("kC2", "kS3"):
        hq = builtin_hopf(name)
        hp = builtin_hopf(name, f5)
        dq = tor_dims(ad_module(hq), 2)
        dp = tor_dims(ad_module(hp), 2)
        assert dq == dp


def test_total_homology_base_field_various():
    for name, want in (("kC3/k", [3, 0]), ("kC2/k", [2, 0])):
        s = builtin_setup(name)
        dc = extension_double_complex(s, 2, 2)
        assert [dc.tot.homology(n).dim for n in range(2)] == want


def _matrices(obj, seen):
    """Every SparseMatrix reachable from ``obj`` through attributes (slots
    too), dicts, lists and tuples."""
    if id(obj) in seen or isinstance(obj, (int, str, float, type(None))):
        return
    seen.add(id(obj))
    if isinstance(obj, SparseMatrix):
        yield obj
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
        children += [getattr(obj, s, None) for s in getattr(type(obj), "__slots__", ())]
    for child in children:
        yield from _matrices(child, seen)


def test_fp_constructions_keep_canonical_residues(tmp_path):
    # SparseMatrix equality compares ``data`` with ==, which is F_p equality
    # only when every value is the residue in [0, p); zeros are never stored
    import json

    from hopfcyclic.cyclic import (
        chain_complex,
        coextension_space,
        hopf_cyclic_comodule_algebra,
        normalized_complex,
    )
    from hopfcyclic.iso import comodule_algebra_transform
    from hopfcyclic.linalg import (
        PrimeField,
        apply_on_leg,
        inverse,
        kernel,
        permutation_matrix,
        quotient_by_columns,
        solve,
        span_columns,
    )
    from hopfcyclic.loaders import load_hopf_json, load_ideal_file
    from hopfcyclic.presets import SETUP_NAMES
    from hopfcyclic.sayd import coad_module
    from hopfcyclic.specseq import bar_complex, tor_complex

    f = PrimeField(7)
    built = []
    for name in SETUP_NAMES:
        s = builtin_setup(name, f)
        h = s.hopf
        built += [s, h.mult, h.unit, h.comult, h.counit]
        if name in ("kS3/kC2", "H4/B", "OS3/OC2"):
            ad, coad = ad_module(h), coad_module(h)
            cm = relative_cyclic(h, s.subalgebra, 2)
            built += [ad, coad, cm, normalized_complex(cm),
                      coextension_space(h, s.quotient, 3),
                      hopf_cyclic_coalgebra(s.quotient, ad, 2),
                      hopf_cyclic_comodule_algebra(h, s.subalgebra, coad, 2),
                      module_coalgebra_transform(s, 2), comodule_algebra_transform(s, 1),
                      [bar_complex(h, h.eps, 1, ad.operator_action, ad.dim).d(q) for q in (1, 2)]]
            if name != "OS3/OC2":  # the normalized writer's signed sums
                built += [[chain_complex(cm).d(q), chain_complex(cm, connes=True).d(q),
                           tor_complex(ad).d(q)] for q in (1, 2)]
            dc = extension_double_complex(s, 2, 2)
            built += [[dc.dh(p, q), dc.dv(p, q + 1)] for p in range(1, 3) for q in range(2)]
    # file input: every coefficient here is 1 mod 7, written as 8, -6, 15/15
    kc2 = {"dim": 2, "basis": ["e", "g"],
           "mult": [[0, 0, 0, "8"], [0, 1, 1, -6], [1, 0, 1, "15/15"], [1, 1, 0, 1]],
           "unit": ["8", "0"], "comult": [[0, 0, 0, "-6"], [1, 1, 1, "1"]],
           "counit": [8, "1"], "antipode": [[0, 0, "-13"], [1, 1, "1/8"]]}
    h = load_hopf_json(kc2, f)
    assert h.validate().ok
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"generators": [["-1", "8"]]}))
    gens = load_ideal_file(str(path), h)
    built += [h, h.mult, h.unit, h.comult, h.counit, gens]
    # the linear-algebra operations on matrices with every residue class
    m = SparseMatrix.from_entries(3, 4, f, [(i, j, f.from_int(3 * i - 5 * j + i * j))
                                            for i in range(3) for j in range(4)])
    sq = from_dense([[f.from_int(v) for v in r]
                                  for r in ([2, -1, 0], [5, 3, -4], [1, 1, 6])], f)
    built += [kernel(m), span_columns(m), quotient_by_columns(3, m), m.rref(), m @ m.t(),
              m + m, -m, m - m.scale(f.from_int(-1)), m.kron(sq), inverse(sq),
              solve(sq, m), apply_on_leg(sq, [3, 3], 1), permutation_matrix([3, 2], [1, 0], f)]

    seen = set()
    mats = list(_matrices(built, seen))
    assert len(mats) > 500
    values = [v for mat in mats for _, _, v in mat.entries()]
    for d in (h.mult, h.unit, h.comult, h.counit):
        values += d.values()
    values += [v for row in m.rref()[1] for v in row.values()]
    assert values and all(type(v) is int and 0 < v < f.p for v in values)


def _assert_relation_invariant(sp, tag):
    """The relations are independent columns that the projection kills, and
    the space is a pure quotient exactly when section and relations span
    the ambient."""
    assert (sp.projection @ sp.rel_cols).is_zero_matrix(), tag
    assert sp.rel_cols.rank() == sp.rel_cols.cols, tag
    spans = SparseMatrix.hstack([sp.section, sp.rel_cols]).rank() == sp.ambient_dim
    assert sp.is_quotient == spans, tag


def test_kernel_kind_relations_span_the_kernel_of_the_projection():
    # the descent check of induced_map relies on span(rel_cols) = ker(projection)
    # on pure quotients, and on carrier & ker(projection) = span(rel_cols) elsewhere
    from hopfcyclic.cyclic import coextension_space, comodule_algebra_space, hopf_cyclic_spaces
    from hopfcyclic.hopf import commutator_quotient, tensor_power_over_b
    from hopfcyclic.presets import SETUP_NAMES
    from hopfcyclic.sayd import coad_module
    from hopfcyclic.specseq import first_page_spot

    for name in SETUP_NAMES:
        s = builtin_setup(name)
        h, b = s.hopf, s.subalgebra
        spaces = [SubquotientSpace.full(h.dim, QQ)]
        for legs in (1, 2, 3):
            x = tensor_power_over_b(h, b, legs)
            spaces += [x, commutator_quotient(h, b, x, legs)]
        spaces += hopf_cyclic_spaces(s.quotient, ad_module(h), 2)
        for sp in spaces:
            assert sp.is_quotient, (name, sp)
            assert sp.rel_cols.rank() == sp.ambient_dim - sp.dim, (name, sp)
            _assert_relation_invariant(sp, (name, sp))

        # subspaces, their tensors with quotients, and the spectral spots
        coad = coad_module(h)
        others = [coextension_space(h, s.quotient, legs) for legs in (1, 2, 3)]
        others += [comodule_algebra_space(h, b, coad, n) for n in (0, 1, 2)]
        x2, c2 = tensor_power_over_b(h, b, 2), others[1]
        others += [c2.tensor(x2), x2.tensor(c2), b.space.tensor(x2), x2.tensor(b.space)]
        dc = extension_double_complex(s, 3, 3)
        for p, q in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            others += [first_page_spot(dc, p, q), second_page_spot(dc, p, q),
                       *transposed_spots(dc, p, q)]
        for sp in others:
            _assert_relation_invariant(sp, (name, sp))
        if name == "kS3/kC2":
            # the list reaches both kinds of space outside the pure quotients
            assert any(not sp.is_quotient and sp.rel_cols.cols for sp in others)
            assert any(not sp.is_quotient and not sp.rel_cols.cols for sp in others)
