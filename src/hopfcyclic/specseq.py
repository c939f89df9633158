"""Tor^H(k, M) for a SAYD module M, and the double complex tying the
relative Hochschild homology of a homogeneous extension to Tor over H.

Every complex here is a ``linalg.ChainComplex`` written from signed faces
on its cells' own legs.  ``bar_complex`` with N = k is Tor's complex,
which ``tor_complex`` normalizes where the unit is a basis vector by
HH's rule (``ChainComplex.quotient``, D from the unit insertions), and
with N = C^{(x) p+1} and sign (-1)^p column p of the double complex, so
the squares anticommute; ``coalgebra_complex`` is row q.  The double
complex builds its rows and columns on demand, so a requested window never
instantiates the largest corners of the grid, and keeps them: dh and dv
are their d, line q of the first page is the complex of E^1_{p,q}, the
homology of column p, with d^1 induced by dh, E^2 its homology, and
``tot`` the total complex on the window.  So ``theorem_check`` and
``five_term_check`` on one instance build each object once.  The squares
the run builds lie in Tot's window, where d^2 = 0 on Tot, which
``ChainComplex.homology`` checks, certifies them.  The rows are not
eliminated: insert-the-class-of-1 contracts them (Weibel, *An
Introduction to Homological Algebra*, 5.6), so the page of the other
filtration, the homology of the rows, vanishes for p > 0 wherever that
homotopy is checked.
Every map of the five-term exact sequence, d2 included, is induced by a
map of the total complex (McCleary, *A User's Guide to Spectral
Sequences*, Thm 2.6): d2 is the total differential on the zig-zags that
present E^2_{2,0} inside Tot_2.
"""

from __future__ import annotations

from .cyclic import _diagonal_chain, diagonal_action
from .hopf import AxiomCheck, ValidationReport, _link, equality_check
from .linalg import (
    ChainComplex,
    LegChain,
    NotWellDefined,
    SparseMatrix,
    SubquotientSpace,
    apply_on_leg,
    induced_map,
    kernel,
    solve,
    tensor_dim,
)
from .sayd import ad_module


# ---------------------------------------------------------------------------
# the bar complex, Tor and the coalgebra complex


def _complex(field, legdims, ops, arity, sign=1, bottom=0):
    """The complex with legs legdims(n) in degree n >= bottom and d_n = sign
    * sum (-1)^i (ops(n)[i] on legs [i, i + arity)), each face built when
    the writer reaches it: its index table when the map has at most one
    entry per column (a counit, a group or function algebra's product),
    else its ``apply_on_leg`` matrix."""
    def terms(n):
        dims, chain = legdims(n), LegChain(legdims(n), field)
        for i, op in enumerate(ops(n)):
            face = chain.leg(op, i, arity).table() or apply_on_leg(op, dims, i, arity)
            yield sign * (-1) ** i, face, n - 1, n

    return ChainComplex(field, lambda n: {n: tensor_dim(legdims(n))} if n >= bottom else {},
                        terms)


def bar_complex(h, consume, ndim, mact, mdim, sign=1):
    """N (x) H^{(x) q} (x) M in degree q with sign times the bar boundary
    (Mac Lane, *Homology*, X.2): the first face acts on N by ``consume``
    (N (x) H -> N), the middle faces multiply adjacent H-legs, and the
    last face acts on M by ``mact`` (H (x) M -> M)."""
    return _complex(h.field, lambda q: [ndim] + [h.dim] * q + [mdim],
                    lambda q: [consume] + [h.mu] * (q - 1) + [mact], 2, sign)


def coalgebra_complex(c, rest=1, augmented=False):
    """C^{(x) p+1} (x) R in degree p, R of dim ``rest`` as one leg, with the
    counit contractions sum (-1)^i (counit at leg i); ``augmented`` puts
    C^{(x) 0} (x) R in degree -1, so that d_0 is the counit."""
    return _complex(c.parent.field, lambda p: [c.dim] * (p + 1) + [rest],
                    lambda p: [c.eps_c] * (p + 1), 1, bottom=-1 if augmented else 0)


def tor_complex(m):
    """The complex whose homology is Tor_q^H(k, M), M the SAYD module ``m``:
    k (x) H^{(x) q} (x) M, which is k (x)_H of the bar resolution of M
    collapsed along the freeness of its terms.  When the unit is a multiple
    of a basis vector u, it is normalized, k (x) Hbar^{(x) q} (x) M (Mac
    Lane, *Homology*, X.2): the degenerate subcomplex is spanned by the
    images of the unit insertions into H-legs 1..q, whose column tables
    ``ChainComplex.quotient`` drops as each boundary is written."""
    h = m.hopf
    bar = bar_complex(h, h.eps, 1, m.operator_action, m.dim)
    if h.eta.table() is None:
        return bar
    return bar.quotient(lambda q: [
        LegChain([1] + [h.dim] * (q - 1) + [m.dim], h.field).leg(h.eta, j + 1, 0).table()
        for j in range(q)])


def tor_dims(m, upto):
    """dim Tor_q^H(k, M) for q <= upto, from ``tor_complex``."""
    return tor_complex(m).homology_dims(upto)


def row_contraction_failure(c, p_max):
    """The least p < p_max at which insert-the-class-of-1 is not a
    contraction of the augmented coalgebra complex, d h + h d != 1 on
    C^{(x) p+1}, or None.  Below that p, H_p of every row vanishes for
    p > 0, since the homotopy is the identity on the rest R."""
    f = c.parent.field
    row = coalgebra_complex(c, augmented=True)
    for p in range(p_max):
        hmat = c.onebar.kron(SparseMatrix.identity(c.dim ** (p + 1), f))
        hmat_prev = c.onebar.kron(SparseMatrix.identity(c.dim ** p, f))
        lhs = row.d(p + 1) @ hmat + hmat_prev @ row.d(p)
        if not lhs == SparseMatrix.identity(c.dim ** (p + 1), f):
            return p
    return None


# ---------------------------------------------------------------------------
# the double complex of the extension


class ExtensionDoubleComplex:
    """Cells X_{p,q} = C^{(x) p+1} (x) H^{(x) q} (x) M.

    Row q is ``coalgebra_complex`` with R = H^{(x) q} (x) M, whose counit
    contractions are checked to be right H-linear, and column p is
    ``bar_complex`` on N = C^{(x) p+1} through the diagonal action, with
    sign (-1)^p; line q of the first page has E^1_{p,q} = H_q(column p) in
    degree p and d^1 induced by dh.  ``row``, ``column`` and ``line`` build
    each once.  ``line`` and ``tot`` reach rows and columns through these
    closures, never through the instance, so a double complex holds no
    reference cycle and is freed as soon as it is dropped.
    """

    def __init__(self, c, m, p_max, q_max):
        h = c.parent
        self.c, self.h, self.m, self.p_max, self.q_max = c, h, m, p_max, q_max
        rows, columns, lines = {}, {}, {}

        def row(q):
            if q not in rows:
                rows[q] = coalgebra_complex(c, h.dim ** q * m.dim)
            return rows[q]

        def column(p):
            if p not in columns:
                columns[p] = bar_complex(h, diagonal_action(c, p + 1), c.dim ** (p + 1),
                                         m.operator_action, m.dim, (-1) ** p)
            return columns[p]

        def line(q):
            if q not in lines:
                def d1(p):
                    spots = column(p).homology(q), column(p - 1).homology(q)
                    yield 1, induced_map(row(q).d(p), *spots), p - 1, p

                lines[q] = ChainComplex(h.field, lambda p: {p: column(p).homology(q).dim}
                                        if p >= 0 else {}, d1)
            return lines[q]

        def cells(n):
            return {(p, n - p): row(n - p).dim(p)
                    for p in range(min(n, p_max) + 1) if n - p <= q_max}

        self.row, self.column, self.line = row, column, line
        self.tot = ChainComplex.total(h.field, cells, lambda p, q: row(q).d(p),
                                      lambda p, q: column(p).d(q))
        self._check_horizontal_linearity()

    def dh(self, p, q):
        """Horizontal differential X_{p,q} -> X_{p-1,q}: row q's d."""
        return self.row(q).d(p)

    def dv(self, p, q):
        """Vertical differential X_{p,q} -> X_{p,q-1}: column p's d."""
        return self.column(p).d(q)

    def _check_horizontal_linearity(self):
        """The coalgebra boundary must be a map of right H-modules."""
        gens = self.h.generator_matrix()  # checked on the algebra generators
        row = coalgebra_complex(self.c)
        for p in range(1, min(self.p_max, 2) + 1):
            bnd = row.d(p)
            ident = SparseMatrix.identity(bnd.cols, self.h.field)
            lhs = bnd @ (_diagonal_chain(self.c, p + 1) @ ident.kron(gens))
            if not (lhs == _diagonal_chain(self.c, p) @ bnd.kron(gens)):
                raise NotWellDefined("coalgebra boundary is not H-linear")


def extension_double_complex(setup, p_max, q_max):
    """The double complex of the extension with M = ad H."""
    return ExtensionDoubleComplex(setup.quotient, ad_module(setup.hopf), p_max, q_max)


# ---------------------------------------------------------------------------
# spectral pages


def first_page_spot(dc, p, q):
    """E^1_{p,q} as a subquotient of the cell (p, q): the homology of
    column p at q."""
    return dc.column(p).homology(q)


def second_page_spot(dc, p, q):
    """E^2_{p,q} as a nested subquotient of the cell (p, q): E^1_{p,q},
    then the homology there of line q of the first page."""
    return first_page_spot(dc, p, q).then(dc.line(q).homology(p))


# ---------------------------------------------------------------------------
# the theorem-level checks


def theorem_check(dc, hh_dims, tor):
    """dim E^2_{n,0} vs relative Hochschild homology, and total homology vs
    Tor^H(k, M) (``tor``, the dims of Tor_q(k, dc.m) from degree 0), for
    n up to the trusted window min(p_max, q_max) - 1 of the double complex
    ``dc``.

    In that window the truncated total complex carries every boundary that
    feeds the degrees compared.
    """
    n_upto = min(dc.p_max, dc.q_max) - 1
    checks = []
    e2_row = [second_page_spot(dc, n, 0).dim for n in range(n_upto + 1)]
    for n in range(n_upto + 1):
        checks.append(equality_check(f"E2[{n},0] = HH_{n}(H|B)", e2_row[n], hh_dims[n]))
    tot = [dc.tot.homology(n).dim for n in range(n_upto + 1)]
    tor_vals = tor[: n_upto + 1]
    for n in range(n_upto + 1):
        checks.append(equality_check(f"H_{n}(Tot) = Tor_{n}(k, ad)", tot[n], tor_vals[n]))
    # below the first degree where the rows fail to contract, the transposed
    # page, the homology of the rows, is 0 for p > 0
    fail = row_contraction_failure(dc.c, n_upto + 1)
    witness = None if fail is None else f"d h + h d != 1 at degree {fail}"
    checks.append(AxiomCheck("row complex contracts to k", fail is None, witness))
    checks.append(AxiomCheck("transposed page 2 vanishes for p > 0", fail is None,
                             witness and f"shown for p < {fail} only: {witness}"))
    tables = {
        "E2_row0": e2_row,
        "HH_relative": list(hh_dims[: n_upto + 1]),
        "total_homology": tot,
        "tor": tor_vals,
        "transposed_E2": {f"{p},{q}": 0 if fail is None or p < fail else None
                          for p in range(1, dc.p_max + 1) for q in range(dc.q_max + 1)
                          if p + q <= n_upto},
    }
    return ValidationReport(checks, tables)


def five_term_check(dc):
    """Exactness of H_2 -> E2[2,0] -> E2[0,1] -> H_1 -> E2[1,0] -> 0 by rank
    arithmetic on maps that the total differential and the inclusions and
    projections of cells induce on the total homology and page spots."""
    e2_20 = second_page_spot(dc, 2, 0)
    e2_01 = second_page_spot(dc, 0, 1)
    e2_10 = second_page_spot(dc, 1, 0)
    tot = dc.tot
    h1, h2 = tot.homology(1), tot.homology(2)
    at_01 = tot.inclusion(1, (0, 1))

    a = induced_map(tot.inclusion(2, (2, 0)).t(), h2, e2_20)
    # d2 is d on the zig-zags of E2[2,0], read in E2[0,1] placed in Tot_1
    e2_01_in_tot = SubquotientSpace(e2_01.projection @ at_01.t(), at_01 @ e2_01.section,
                                    at_01 @ e2_01.rel_cols)
    d2 = induced_map(tot.d(2), _zigzags(dc, e2_20), e2_01_in_tot)
    bmap = induced_map(at_01, e2_01, h1)
    cmap = induced_map(tot.inclusion(1, (1, 0)).t(), h1, e2_10)

    def chk(name, cond, detail):
        return AxiomCheck(name, cond, None if cond else detail)

    checks = [
        chk("d2 . a = 0", (d2 @ a).is_zero_matrix(), "composite nonzero"),
        chk("exact at E2[2,0]", a.rank() == e2_20.dim - d2.rank(),
            f"rank a={a.rank()}, dim={e2_20.dim}, rank d2={d2.rank()}"),
        chk("b . d2 = 0", (bmap @ d2).is_zero_matrix(), "composite nonzero"),
        chk("exact at E2[0,1]", d2.rank() == e2_01.dim - bmap.rank(),
            f"rank d2={d2.rank()}, dim={e2_01.dim}, rank b={bmap.rank()}"),
        chk("c . b = 0", (cmap @ bmap).is_zero_matrix(), "composite nonzero"),
        chk("exact at H_1", bmap.rank() == h1.dim - cmap.rank(),
            f"rank b={bmap.rank()}, dim H1={h1.dim}, rank c={cmap.rank()}"),
        chk("surjective onto E2[1,0]", cmap.rank() == e2_10.dim,
            f"rank c={cmap.rank()} != {e2_10.dim}"),
    ]
    # every square built here has p + q <= 3, held by d^2 = 0 on Tot_0..Tot_3,
    # which H_1 and H_2 check
    tables = {
        "dims": {
            "H2": h2.dim, "E2[2,0]": e2_20.dim, "E2[0,1]": e2_01.dim,
            "H1": h1.dim, "E2[1,0]": e2_10.dim,
        },
        "ranks": {"a": a.rank(), "d2": d2.rank(), "b": bmap.rank(), "c": cmap.rank()},
    }
    return ValidationReport(checks, tables)


def _zigzags(dc, e2_20):
    """E^2_{2,0} inside Tot_2, presented by the zig-zags x - y of its
    section and relation columns x, where dv(1, 1) y = dh(2, 0) x.  The lift
    y is fixed up to ker dv(1, 1), placed at cell (1, 1) as more relations;
    the projection reads the (2, 0) block."""
    at_20 = dc.tot.inclusion(2, (2, 0))
    at_11 = dc.tot.inclusion(2, (1, 1))

    def zigzag(x):
        return at_20 @ x - at_11 @ solve(dc.dv(1, 1), dc.dh(2, 0) @ x)

    rel = SparseMatrix.hstack([at_11 @ kernel(dc.dv(1, 1)).section, zigzag(e2_20.rel_cols)])
    return SubquotientSpace(e2_20.projection @ at_20.t(), zigzag(e2_20.section), rel)


def hochschild_tor_check(h, hh_dims, tor):
    """Degreewise equality of HH(H) and Tor^H(k, ad H) (``tor``, from degree
    0) in every degree of ``hh_dims``, plus the freeness twist
    n (x) h -> n S(h_(1)) (x) h_(2) being invertible."""
    tor_vals = tor[: len(hh_dims)]
    checks = []
    for n, (hh, t) in enumerate(zip(hh_dims, tor_vals, strict=True)):
        checks.append(equality_check(f"HH_{n}(H) = Tor_{n}(k, ad H)", hh, t))
    checks.append(AxiomCheck("untwisting map invertible", _twist_invertible(h)))
    return ValidationReport(checks, {"HH": list(hh_dims), "Tor": tor_vals})


def _twist_invertible(h):
    """n (x) h -> n S(h_(1)) (x) h_(2) on N = H with right multiplication,
    with explicit inverse n (x) h -> n h_(1) (x) h_(2)."""
    d = h.dim
    fwd = _link(h)
    bwd = LegChain([d, d], h.field).leg(h.delta, 1, 1, [d, d]).leg(h.mu, 0, 2)
    return (bwd @ fwd).is_identity() and (fwd @ bwd.matrix()).is_identity()
