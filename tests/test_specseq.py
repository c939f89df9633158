import gc
import itertools
import weakref
from dataclasses import replace

import pytest

from hopfcyclic.cyclic import diagonal_action, hochschild_homology, relative_cyclic
from hopfcyclic.linalg import (
    QQ,
    NotWellDefined,
    PrimeField,
    SparseMatrix,
    apply_on_leg,
    kernel,
)
from hopfcyclic.presets import HOPF_NAMES, PAIR_NAMES, SETUP_NAMES, builtin_hopf, builtin_setup
from hopfcyclic.sayd import ad_module
from hopfcyclic import linalg, specseq
from hopfcyclic.cli import run
from hopfcyclic.specseq import (
    ExtensionDoubleComplex,
    bar_complex,
    coalgebra_complex,
    extension_double_complex,
    first_page_spot,
    five_term_check,
    hochschild_tor_check,
    row_contraction_failure,
    second_page_spot,
    theorem_check,
    tor_complex,
    tor_dims,
)
from support import (
    complex_of,
    from_dense,
    from_keyed,
    restricted,
    transposed_spots,
    trivial_sayd,
)

# frozen by the dense brute-force oracle (tests/oracle.py)
TOR_H4 = [2, 1, 1, 1]
HH_H4 = [2, 1, 1, 1]


def test_chain_complex_rejects_nonzero_d_squared():
    d1 = from_dense([[QQ.one, QQ.zero]], QQ)
    d2 = from_dense([[QQ.one], [QQ.zero]], QQ)
    # the check runs where the ranks are taken, before any row is cleared
    with pytest.raises(NotWellDefined):
        complex_of([1, 2, 1], {1: d1, 2: d2}, QQ).homology_dims(1)


def _bar_resolution_of_k(h, length):
    """The bar resolution H (x) H^{(x) q} (x) k of k by free left H-modules,
    with the exactness of the complex augmented by the counit checked degree
    by degree; returns its dims and the complex."""
    bar = bar_complex(h, h.mu, h.dim, h.eps, 1)
    dims = [bar.dim(q) for q in range(length + 1)]
    assert dims == [h.dim ** (q + 1) for q in range(length + 1)]
    assert (h.eps @ bar.d(1)).is_zero_matrix()  # the augmentation kills boundaries
    assert h.eps.rank() == 1  # and is surjective
    assert kernel(h.eps).dim == bar.d(1).rank()  # exact in degree 0
    assert all(dim == 0 for dim in bar.homology_dims(length - 1)[1:])
    return dims, bar


def test_bar_resolution_trivial_algebra():
    # over the 1-dimensional Hopf algebra everything collapses to M
    from hopfcyclic.groups import builtin_group
    from hopfcyclic.hopf import group_algebra

    triv = group_algebra(builtin_group("trivial"))
    dims, bar = _bar_resolution_of_k(triv, 3)
    assert dims == [1, 1, 1, 1]
    assert bar.homology_dims(2) == [1, 0, 0]


def test_bar_resolution_kc2_exact():
    h = builtin_hopf("kC2")
    dims, bar = _bar_resolution_of_k(h, 4)
    assert dims == [2, 4, 8, 16, 32]
    # homology of the unaugmented complex is k in degree 0 only
    assert bar.homology_dims(3) == [1, 0, 0, 0]


def test_bar_resolution_sweedler_exact():
    h = builtin_hopf("H4")
    _, bar = _bar_resolution_of_k(h, 4)
    assert bar.homology_dims(3) == [1, 0, 0, 0]


@pytest.mark.parametrize("name, field, want", [
    ("kC2", PrimeField(2), [1, 1, 1, 1, 1]),
    ("kS3", QQ, [1, 0, 0, 0, 0]),
    ("kS3", PrimeField(3), [1, 0, 0, 1, 1]),
    ("kC3", PrimeField(3), [1, 1, 1, 1, 1]),
])
def test_tor_with_trivial_coefficients_is_group_homology(name, field, want):
    # Tor^{kG}(k, k) = H_*(G; k): zero above degree 0 when |G| is invertible
    # in k, periodic when the characteristic divides it (H_q(S3; F_3) is F_3
    # for q = 0, 3, 4 mod 4 and zero otherwise)
    h = builtin_hopf(name, field)
    assert tor_dims(trivial_sayd(h), 4) == want


def test_tor_semisimple_group_algebras():
    h2 = builtin_hopf("kC2")
    assert tor_dims(ad_module(h2), 3) == [2, 0, 0, 0]
    h3 = builtin_hopf("kS3")
    assert tor_dims(ad_module(h3), 3) == [3, 0, 0, 0]


def test_tor_sweedler_matches_oracle():
    h = builtin_hopf("H4")
    assert tor_dims(ad_module(h), 3) == TOR_H4


REFERENCE_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(2**31 - 1)]


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=str)
@pytest.mark.parametrize("name", HOPF_NAMES)
def test_tor_matches_the_unnormalized_bar_complex(name, field):
    """Where the unit is a basis vector u, Tor ranks the normalized bar
    complex: its boundaries are those of the unnormalized one on the tuples
    with no u in an H-leg, and its homology is the same."""
    h = builtin_hopf(name, field)
    units = list(h.eta.rows_map())
    assert (len(units) == 1) == (name not in ("OS3", "OC2"))
    for m in (ad_module(h), trivial_sayd(h)):
        bar = bar_complex(h, h.eps, 1, m.operator_action, m.dim)
        normalized = tor_complex(m)
        assert tor_dims(m, 3) == bar.homology_dims(3)

        def kept(q):
            legs = [range(h.dim)] * q + [range(m.dim)]
            return [k for k, tup in enumerate(itertools.product(*legs))
                    if len(units) > 1 or units[0] not in tup[:q]]

        for q in range(1, 5):
            assert normalized.d(q) == restricted(bar.d(q), kept(q - 1), kept(q)), q


@pytest.mark.parametrize("name", ["kS3", "H4"])
def test_tor_rejects_an_action_that_moves_the_degenerate_tuples(name):
    """With u . m0 != m0 the action is not unital, so the tuples with u in
    an H-leg span no subcomplex: the normalized complex is refused as its
    first boundary is written, d_1 sending u (x) m0 to m0 - u . m0."""
    h = builtin_hopf(name)
    ad = ad_module(h)
    (u,) = h.eta.rows_map()
    rows = {i: dict(row) for i, row in ad.operator_action.rows_map().items()}
    col = u * ad.dim  # the column of u (x) m0, m0 the first basis vector
    for row in rows.values():
        row.pop(col, None)
    rows.setdefault(1, {})[col] = h.field.one
    act = SparseMatrix(ad.dim, h.dim * ad.dim, h.field, {i: r for i, r in rows.items() if r})
    with pytest.raises(NotWellDefined, match="not a quotient complex"):
        tor_dims(replace(ad, operator_action=act), 2)


def test_corollary_check_group_algebras():
    for name, expected in (("kC2", [2, 0, 0, 0]), ("kS3", [3, 0, 0, 0])):
        h = builtin_hopf(name)
        s = builtin_setup(f"{name}/k")
        cm = relative_cyclic(s.hopf, s.subalgebra, 4)
        hh = hochschild_homology(cm)
        assert hh == expected
        rep = hochschild_tor_check(h, hh, tor_dims(ad_module(h), 3))
        assert rep.ok, rep.checks


def test_corollary_check_sweedler():
    s = builtin_setup("H4/k")
    cm = relative_cyclic(s.hopf, s.subalgebra, 4)
    hh = hochschild_homology(cm)
    assert hh == HH_H4
    tor = tor_dims(ad_module(s.hopf), 3)
    rep = hochschild_tor_check(s.hopf, hh, tor)
    assert rep.ok, [c for c in rep.checks if not c.ok]


def test_row_contraction():
    for name in ("kS3/kC2", "H4/B"):
        s = builtin_setup(name)
        assert row_contraction_failure(s.quotient, 3) is None


def test_double_complex_squares_and_total_homology_base_case():
    # B = k: the double complex total homology is Tor(k, ad H)
    s = builtin_setup("kC2/k")
    dc = extension_double_complex(s, 3, 3)
    tot = [dc.tot.homology(n).dim for n in range(3)]
    tor_vals = tor_dims(ad_module(s.hopf), 2)
    assert tot == tor_vals == [2, 0, 0]
    # every square built anticommutes, and lies where d^2 = 0 on Tot_0..Tot_3 holds it
    assert _built_squares(dc)
    for p, q in _built_squares(dc):
        assert p + q <= 3
        assert (dc.dv(p - 1, q) @ dc.dh(p, q) + dc.dh(p, q - 1) @ dc.dv(p, q)).is_zero_matrix()


def _built_squares(dc):
    """The squares (p, q), p, q >= 1, whose dh and dv are both built."""
    return sorted((p, q) for p in range(1, 6) for q in range(1, 6)
                  if p in dc.row(q)._d and q in dc.column(p)._d)


def test_a_spectral_run_builds_only_squares_inside_tots_window(monkeypatch):
    """Every dh, and every square, that a spectral run builds lies in Tot's
    window p + q <= 3, where d^2 = 0 on Tot certifies the squares; past it
    only dv(3, 1) is built, for E^1_{3,0}, which no square reads."""
    built = []
    init = specseq.ExtensionDoubleComplex.__init__

    def keep(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(specseq.ExtensionDoubleComplex, "__init__", keep)
    for name in ("H4/B", "kS3/kC2", "kC2/k"):
        built.clear()
        code, text = run(["spectral", name])
        assert code == 0, text
        dc, = built
        dh = {(p, q) for p in range(6) for q in range(6) if p in dc.row(q)._d}
        dv = {(p, q) for p in range(6) for q in range(6) if q in dc.column(p)._d}
        assert dh and all(p + q <= 3 for p, q in dh), (name, sorted(dh))
        assert {(p, q) for p, q in dv if p + q > 3} == {(3, 1)}, (name, sorted(dv))
        assert _built_squares(dc) and all(p + q <= 3 for p, q in _built_squares(dc)), name


def test_first_page_vanishes_for_semisimple():
    s = builtin_setup("kS3/kC2")
    dc = extension_double_complex(s, 2, 2)
    e1 = {pq: first_page_spot(dc, *pq).dim for pq in [(0, 1), (1, 1), (0, 0), (1, 0)]}
    assert e1[(0, 1)] == 0 and e1[(1, 1)] == 0  # flatness: Tor_q vanishes, q > 0


def test_theorem_check_ks3():
    s = builtin_setup("kS3/kC2")
    cm = relative_cyclic(s.hopf, s.subalgebra, 3)
    hh = hochschild_homology(cm)
    dc = extension_double_complex(s, 3, 3)
    rep = theorem_check(dc, hh, tor_dims(dc.m, 2))
    assert rep.ok, [c for c in rep.checks if not c.ok]


def test_theorem_check_sweedler():
    s = builtin_setup("H4/B")
    cm = relative_cyclic(s.hopf, s.subalgebra, 3)
    hh = hochschild_homology(cm)
    dc = extension_double_complex(s, 3, 3)
    rep = theorem_check(dc, hh, tor_dims(dc.m, 2))
    assert rep.ok, [c for c in rep.checks if not c.ok]


def _transposed_report(s):
    """The double complex of ``s`` and the ``transposed_E2`` table of its
    theorem check, {(p, q): value}, with the check's lines by name."""
    hh = hochschild_homology(relative_cyclic(s.hopf, s.subalgebra, 3))
    dc = extension_double_complex(s, 3, 3)
    rep = theorem_check(dc, hh, tor_dims(dc.m, 2))
    table = {tuple(map(int, key.split(","))): v for key, v in rep.tables["transposed_E2"].items()}
    return dc, table, {c.name: c for c in rep.checks}


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=str)
@pytest.mark.parametrize("name", SETUP_NAMES)
def test_transposed_page_vanishes_as_the_report_says(name, field):
    """The transposed page, computed from the rows' homology and the d^1
    that dv induces, is zero where the report, which reads it off the
    row contraction, says it is."""
    dc, table, checks = _transposed_report(builtin_setup(name, field))
    assert checks["row complex contracts to k"].ok
    assert checks["transposed page 2 vanishes for p > 0"].ok
    assert sorted(table) == [(1, 0), (1, 1), (2, 0)]
    for (p, q), reported in table.items():
        e1, e2 = transposed_spots(dc, p, q)
        assert e1.dim == e2.dim == reported == 0, (p, q)


def _dropped_augmented_d3(monkeypatch, s):
    """The augmented row complex with d_3 set to zero: h is a contraction
    below degree 2 only.  The double complex's own rows are untouched."""
    real = specseq.coalgebra_complex

    def broken(c, rest=1, augmented=False):
        row = real(c, rest, augmented)
        if augmented:
            row._d[3] = SparseMatrix.zeros(row.dim(2), row.dim(3), c.parent.field)
        return row

    monkeypatch.setattr(specseq, "coalgebra_complex", broken)


def _doubled_onebar(monkeypatch, s):
    s.quotient.onebar = s.quotient.onebar.scale(2)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=str)
@pytest.mark.parametrize("mutate, degree", [(_doubled_onebar, 0), (_dropped_augmented_d3, 2)])
def test_rows_that_do_not_contract_leave_the_transposed_page_unshown(monkeypatch, mutate,
                                                                    degree, field):
    """When insert-the-class-of-1 fails to contract the rows at some
    degree, both lines fail naming it, and the report shows 0 only for
    the p below it, where the homotopy was checked."""
    s = builtin_setup("H4/B", field)
    mutate(monkeypatch, s)
    dc, table, checks = _transposed_report(s)
    contraction, vanishing = (checks["row complex contracts to k"],
                              checks["transposed page 2 vanishes for p > 0"])
    assert not contraction.ok and f"degree {degree}" in contraction.witness
    assert not vanishing.ok and f"degree {degree}" in vanishing.witness
    assert table == {(p, q): 0 if p < degree else None for p, q in table}
    assert any(v is None for v in table.values())


def test_five_term_semisimple_trivial():
    s = builtin_setup("kS3/kC2")
    rep = five_term_check(extension_double_complex(s, 3, 3))
    assert rep.ok, [c for c in rep.checks if not c.ok]
    # all higher Tor vanish so the sequence is exact for dimension reasons
    assert rep.tables["dims"]["E2[0,1]"] == 0


def test_five_term_sweedler():
    s = builtin_setup("H4/B")
    rep = five_term_check(extension_double_complex(s, 3, 3))
    assert rep.ok, [c for c in rep.checks if not c.ok]


def test_five_term_sweedler_base_field():
    # B = k: the tail identifies HH_1(H4) with Tor_1(k, ad H4)
    s = builtin_setup("H4/k")
    rep = five_term_check(extension_double_complex(s, 3, 3))
    assert rep.ok, [c for c in rep.checks if not c.ok]
    cm = relative_cyclic(s.hopf, s.subalgebra, 2)
    hh = hochschild_homology(cm)
    assert rep.tables["dims"]["E2[1,0]"] == hh[1] == TOR_H4[1]


def test_five_term_rejects_d2_lifts_that_miss_the_horizontal_image(monkeypatch):
    # every lift y through dv(1, 1) is off by a unit vector outside ker dv(1, 1),
    # so dv(1, 1) y != dh(2, 0) x: the zig-zags are not cycles of the (1, 0) cell.
    # Over F_2, H4/B has E2[2,0] = E2[0,1] = 4, so d2 has something to map
    dc = extension_double_complex(builtin_setup("H4/B", PrimeField(2)), 3, 3)
    solve = specseq.solve

    def off_lift(a, b):
        j = min(c for _, c, _ in a.entries())  # a column where a is nonzero
        bump = from_keyed(a.cols, b.cols, a.field, {(j, k): a.field.one for k in range(b.cols)})
        return solve(a, b) + bump

    monkeypatch.setattr(specseq, "solve", off_lift)
    with pytest.raises(NotWellDefined):
        five_term_check(dc)


def test_double_complex_builds_each_object_once():
    dc = extension_double_complex(builtin_setup("H4/B"), 3, 3)
    for build, args in ((first_page_spot, (1, 0)), (first_page_spot, (1, 1)),
                        (ExtensionDoubleComplex.dh, (2, 0)), (ExtensionDoubleComplex.dv, (1, 1))):
        assert build(dc, *args) is build(dc, *args), (build.__name__, args)
    assert dc.line(0) is dc.line(0) and dc.line(0).d(1) is dc.line(0).d(1)
    assert dc.line(1).homology(0) is dc.line(1).homology(0)
    assert dc.tot.d(2) is dc.tot.d(2) and dc.tot.homology(1) is dc.tot.homology(1)


def test_each_first_page_d_is_induced_once(monkeypatch):
    """A d^1 leaves one E^2 spot and enters the next: the spots that both
    checks read, each read twice, induce each d^1 once, as the d of its
    line of the first page."""
    dc = extension_double_complex(builtin_setup("H4/B"), 3, 3)
    calls = []
    real = specseq.induced_map

    def spy(f, dom, cod):
        calls.append((id(f), id(dom), id(cod)))
        return real(f, dom, cod)

    monkeypatch.setattr(specseq, "induced_map", spy)
    for p, q in [(n, 0) for n in range(3)] + [(0, 1)] * 2 + [(2, 0), (1, 0)]:
        second_page_spot(dc, p, q)
    # d^1 out of E^1_{p,q} for p = 1, 2, 3 on line 0 and p = 1 on line 1
    assert len(calls) == len(set(calls)) == 4
    assert sorted(p for q in (0, 1) for p in dc.line(q)._d if p) == [1, 1, 2, 3]


def test_spectral_run_builds_one_double_complex(monkeypatch):
    built = []
    init = specseq.ExtensionDoubleComplex.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(specseq.ExtensionDoubleComplex, "__init__", counting_init)
    code, text = run(["spectral", "H4/B"])
    assert code == 0, text
    assert len(built) == 1


def _certified_squares(monkeypatch, dc, *checks):
    """Run ``checks`` on dc; the squares (p, q) they certify: those that a
    d^2 check of Tot from Tot_{p+q} holds, with both cells in the window."""
    seen = []
    real = linalg.composite_is_zero

    def spy(*args):
        seen.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "composite_is_zero", spy)
        reports = [check(dc) for check in checks]
    certified = set()
    for p, q in _built_squares(dc):
        n, tot = p + q, dc.tot._d
        for args in seen:
            if n in tot and args[0] is tot.get(n - 1) and args[1] is tot[n] \
                    and (p, q) in dc.tot.blocks(n) and (p - 1, q - 1) in dc.tot.blocks(n - 2):
                certified.add((p, q))
    return certified, reports


def test_shared_double_complex_checks_what_two_fresh_ones_check(monkeypatch):
    # theorem_check and five_term_check on one double complex certify the
    # squares, and report the values, that each certifies on its own instance
    s = builtin_setup("H4/B")
    hh = hochschild_homology(relative_cyclic(s.hopf, s.subalgebra, 3))
    shared = extension_double_complex(s, 3, 3)
    tor = tor_dims(shared.m, 2)

    def theorem(dc):
        return theorem_check(dc, hh, tor)

    both, reports = _certified_squares(monkeypatch, shared, theorem, five_term_check)
    alone_t, alone_f = extension_double_complex(s, 3, 3), extension_double_complex(s, 3, 3)
    by_t, alone = _certified_squares(monkeypatch, alone_t, theorem)
    by_f, report_f = _certified_squares(monkeypatch, alone_f, five_term_check)
    alone += report_f
    assert both >= by_t | by_f
    assert by_t and by_f
    # and every square that an instance builds is certified
    for dc, certified in ((shared, both), (alone_t, by_t), (alone_f, by_f)):
        assert set(_built_squares(dc)) == certified
    for got, want in zip(reports, alone):
        assert got.ok and want.ok
        assert got.tables == want.tables
        assert [(c.name, c.witness) for c in got.checks] == \
            [(c.name, c.witness) for c in want.checks]


@pytest.mark.parametrize("p, q, message", [
    (1, 1, "not a complex"),  # d^2 = 0 on Tot_2 -> Tot_0
    (2, 1, "not a complex"),  # d^2 = 0 on Tot_3 -> Tot_1
])
def test_a_square_that_does_not_anticommute_is_rejected(p, q, message):
    """dh negated at one cell leaves every row a complex but breaks the
    square there, which a spectral run rejects."""
    s = builtin_setup("H4/B")
    hh = hochschild_homology(relative_cyclic(s.hopf, s.subalgebra, 3))
    dc = extension_double_complex(s, 3, 3)
    dc.row(q)._d[p] = -dc.dh(p, q)
    with pytest.raises(NotWellDefined, match=message):
        theorem_check(dc, hh, tor_dims(dc.m, 2))
        five_term_check(dc)


def test_a_checked_double_complex_is_freed_by_reference_count():
    """Nothing a double complex keeps (its rows, columns, E^2 spots and
    total complex) refers back to it, so it is freed when dropped, with the
    cycle collector off, as ``cmd_spectral``'s ``del dc`` relies on."""
    s = builtin_setup("OS3/OC2")
    hh = hochschild_homology(relative_cyclic(s.hopf, s.subalgebra, 3))
    gc.disable()
    try:
        dc = extension_double_complex(s, 3, 3)
        assert theorem_check(dc, hh, tor_dims(dc.m, 2)).ok and five_term_check(dc).ok
        freed = weakref.ref(dc)
        del dc
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(2**31 - 1)],
                         ids=str)
@pytest.mark.parametrize("name", [n for n in PAIR_NAMES if n.endswith("/k")])
def test_hochschild_homology_is_tor_of_the_adjoint_module(name, field):
    """HH_n(H) = Tor_n^H(k, ad H) on every built-in H over k, to degree 3
    (2 when dim H > 4): the bar complex of the adjoint module checks the
    relative cyclic module and its boundaries, with no number written in."""
    s = builtin_setup(name, field)
    upto = 3 if s.hopf.dim <= 4 else 2
    hh = hochschild_homology(relative_cyclic(s.hopf, s.subalgebra, upto + 1), upto)
    assert hh == tor_dims(ad_module(s.hopf), upto)


# the differentials as they were written before ``block_matrix`` summed
# signed terms: the faces summed with ``+``, dh as the coalgebra boundary
# tensored with an identity, and the total map placing whole blocks at
# their offsets


def _faces_summed(legdims, ops, arity):
    acc = None
    for i, op in enumerate(ops):
        face = apply_on_leg(op, legdims, i, arity)
        face = -face if i % 2 else face
        acc = face if acc is None else acc + face
    return acc


def _bar_reference(h, consume, ndim, mact, mdim, q):
    return _faces_summed([ndim] + [h.dim] * q + [mdim], [consume] + [h.mu] * (q - 1) + [mact], 2)


def _coalgebra_reference(c, legs):
    return _faces_summed([c.dim] * legs, [c.eps_c] * legs, 1)


def _blocks_placed(row_dims, col_dims, blocks, field):
    def offsets(dims):
        out, off = {}, 0
        for label, size in dims.items():
            out[label], off = off, off + size
        return out, off

    (row_off, rows), (col_off, cols) = offsets(row_dims), offsets(col_dims)
    data = {}
    for (r, c), block in blocks.items():
        data.update({(row_off[r] + i, col_off[c] + j): v for i, j, v in block.entries()})
    return from_keyed(rows, cols, field, data)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(2**31 - 1)],
                         ids=str)
@pytest.mark.parametrize("name", PAIR_NAMES)
def test_written_differentials_equal_their_summed_formulas(name, field):
    """The bar and coalgebra boundaries at q <= 3, and dh, dv and the total
    map on the cells p + q <= 3 that a spectral run reads, equal the
    formulas they replace."""
    s = builtin_setup(name, field)
    h, c, f = s.hopf, s.quotient, field
    ad = ad_module(h)
    tor = bar_complex(h, h.eps, 1, ad.operator_action, ad.dim)
    for q in range(1, 4):
        assert tor.d(q) == _bar_reference(h, h.eps, 1, ad.operator_action, ad.dim, q), q
    augmented = coalgebra_complex(c, augmented=True)
    for legs in range(1, 5):
        assert augmented.d(legs - 1) == _coalgebra_reference(c, legs), legs
    dc = extension_double_complex(s, 3, 3)
    dh, dv = {}, {}
    for p in range(4):
        for q in range(4 - p):
            if p:
                ident = SparseMatrix.identity(h.dim ** q * dc.m.dim, f)
                dh[(p, q)] = _coalgebra_reference(c, p + 1).kron(ident)
                assert dc.dh(p, q) == dh[(p, q)], ("dh", p, q)
            if q:
                bnd = _bar_reference(h, diagonal_action(c, p + 1), c.dim ** (p + 1),
                                     dc.m.operator_action, dc.m.dim, q)
                dv[(p, q)] = -bnd if p % 2 else bnd
                assert dc.dv(p, q) == dv[(p, q)], ("dv", p, q)
    for n in range(1, 4):
        src, tgt = ({(p, k - p): c.dim ** (p + 1) * h.dim ** (k - p) * dc.m.dim
                     for p in range(k + 1)} for k in (n, n - 1))
        assert list(dc.tot.blocks(n).items()) == list(src.items()), n
        blocks = {}
        for (p, q) in src:
            if (p - 1, q) in tgt:
                blocks[((p - 1, q), (p, q))] = dh[(p, q)]
            if (p, q - 1) in tgt:
                blocks[((p, q - 1), (p, q))] = dv[(p, q)]
        assert dc.tot.d(n) == _blocks_placed(tgt, src, blocks, f), n
