"""Tor^H(k, M) for a SAYD module M, and the double complex tying the
relative Hochschild homology of a homogeneous extension to Tor over H.

The double complex has cells C^{(x) p+1} (x) H^{(x) q} (x) M with the
counit-contraction boundary horizontally and the bar boundary vertically
(sign-twisted by (-1)^p so the squares anticommute).  Its two spectral
sequences are computed directly from the definitions: first page as
homology of columns (or rows), second page as homology of the first.
Cells are built lazily so a requested window never instantiates the
largest corners of the grid.  One double complex carries every check of a
run: it keeps each differential, page spot, total-complex map and total
homology space it has built, so ``theorem_check`` and ``five_term_check``
on the same instance eliminate each of them once.  Total homology is kept
as subquotient spaces of Tot_n, and every map of the five-term exact
sequence, d2 included, is induced by a map of the total complex (McCleary,
*A User's Guide to Spectral Sequences*, Thm 2.6): d2 is the total
differential on the zig-zags that present E^2_{2,0} inside Tot_2.

Every differential here is written by ``linalg.block_matrix`` from signed
faces on the cells' own legs, dv's (-1)^p in the term signs, and placed
by cell label: no sum of whole matrices, negated copy or Kronecker product.
"""

from __future__ import annotations

from .cyclic import _diagonal_chain, diagonal_action
from .hopf import AxiomCheck, ValidationReport, _link, equality_check
from .linalg import (
    LegChain,
    NotWellDefined,
    SparseMatrix,
    SubquotientSpace,
    apply_on_leg,
    block_matrix,
    homology_dims,
    homology_space,
    induced_map,
    kernel,
    solve,
)
from .sayd import ad_module


# ---------------------------------------------------------------------------
# the bar complex and Tor


def _face_sum(legdims, ops, arity, field, sign=1):
    """sign * sum (-1)^i (ops[i] on legs [i, i + arity)), each face built
    when the writer reaches it: its index table when ops[i] has at most one
    entry per column (a counit, a group or function algebra's product),
    else its ``apply_on_leg`` matrix."""
    chains = [LegChain(legdims, field).leg(op, i, arity) for i, op in enumerate(ops)]
    terms = ((sign * (-1) ** i, ch.table() or apply_on_leg(ops[i], legdims, i, arity), 0, 0)
             for i, ch in enumerate(chains))
    return block_matrix({0: chains[0].rows}, {0: chains[0].cols}, terms, field)


def _bar_faces(h, consume, ndim, mact, mdim, q):
    """The leg dims and the faces of ``bar_boundary``."""
    return [ndim] + [h.dim] * q + [mdim], [consume] + [h.mu] * (q - 1) + [mact]


def bar_boundary(h, consume, ndim, mact, mdim, q):
    """The bar boundary N (x) H^{(x) q} (x) M -> N (x) H^{(x) q-1} (x) M
    (Mac Lane, *Homology*, X.2): the first face acts on N by ``consume``
    (N (x) H -> N), the middle faces multiply adjacent H-legs, and the last
    face acts on M by ``mact`` (H (x) M -> M).  With N = k through the
    counit it is the boundary of the Tor complex, with N = C^{(x) p+1} the
    vertical boundary of the double complex."""
    return _face_sum(*_bar_faces(h, consume, ndim, mact, mdim, q), 2, h.field)


def tor_dims(m, upto):
    """dim Tor_q^H(k, M) for q <= upto, M the SAYD module ``m``: the
    homology of k (x) H^{(x) q} (x) M, which is k (x)_H of the bar
    resolution of M collapsed along the freeness of its terms."""
    h = m.hopf
    dims = [h.dim ** q * m.dim for q in range(upto + 2)]
    diffs = {q: bar_boundary(h, h.eps, 1, m.operator_action, m.dim, q)
             for q in range(1, upto + 2)}
    return homology_dims(dims, diffs, upto)


# ---------------------------------------------------------------------------
# the double complex of the extension


class ExtensionDoubleComplex:
    """Cells X_{p,q} = C^{(x) p+1} (x) H^{(x) q} (x) M, built on demand.

    Horizontal: alternating counit contractions of the coalgebra legs
    (checked to be right H-linear).  Vertical: the bar boundary, scaled by
    (-1)^p; anticommutation is asserted on every instantiated square.
    Every differential, action, page spot, total-complex map and total
    homology space is built once and kept, keyed by its kind and indices.
    """

    def __init__(self, c, m, p_max, q_max):
        self.c = c
        self.h = c.parent
        self.m = m
        self.p_max = p_max
        self.q_max = q_max
        self._built = {}
        self._checked_squares = set()
        self._check_horizontal_linearity()

    def cached(self, key, build):
        """The object kept under ``key``, built by ``build()`` on first use."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def dim(self, p, q):
        return self.c.dim ** (p + 1) * self.h.dim ** q * self.m.dim

    def _check_horizontal_linearity(self):
        """The coalgebra boundary must be a map of right H-modules."""
        gens = self.h.generator_matrix()  # checked on the algebra generators
        for p in range(1, min(self.p_max, 2) + 1):
            bnd = coalgebra_boundary(self.c, p + 1)
            ident = SparseMatrix.identity(bnd.cols, self.h.field)
            lhs = bnd @ (_diagonal_chain(self.c, p + 1) @ ident.kron(gens))
            if not (lhs == _diagonal_chain(self.c, p) @ bnd.kron(gens)):
                raise NotWellDefined("coalgebra boundary is not H-linear")

    def dh(self, p, q):
        """Horizontal differential X_{p,q} -> X_{p-1,q}: the counit faces on
        the p + 1 coalgebra legs of the cell, H^{(x) q} (x) M as one leg."""
        legdims = [self.c.dim] * (p + 1) + [self.h.dim ** q * self.m.dim]
        return self.cached(("dh", p, q), lambda: _face_sum(
            legdims, [self.c.eps_c] * (p + 1), 1, self.h.field))

    def _diagonal_consume(self, p):
        """C^{(x) p+1} (x) H -> C^{(x) p+1}, the diagonal right action."""
        return self.cached(("act", p), lambda: diagonal_action(self.c, p + 1))

    def dv(self, p, q):
        """Vertical differential X_{p,q} -> X_{p,q-1}, sign-twisted by (-1)^p."""
        return self.cached(("dv", p, q), lambda: _face_sum(
            *_bar_faces(self.h, self._diagonal_consume(p), self.c.dim ** (p + 1),
                        self.m.operator_action, self.m.dim, q), 2, self.h.field, (-1) ** p))

    def validate_square(self, p, q):
        """d_h d_v + d_v d_h = 0 into cell (p-1, q-1)."""
        key = (p, q)
        if key in self._checked_squares or p < 1 or q < 1:
            return
        self._checked_squares.add(key)
        down = self.dv(p - 1, q) @ self.dh(p, q) + self.dh(p, q - 1) @ self.dv(p, q)
        if not down.is_zero_matrix():
            raise NotWellDefined(f"double complex squares fail at ({p},{q})")

    def validate_instantiated_squares(self):
        for (p, q) in sorted(key[1:] for key in self._built
                             if key[0] == "dh" and ("dv", *key[1:]) in self._built):
            self.validate_square(p, q)


def coalgebra_boundary(c, legs):
    """sum (-1)^i (counit at leg i): C^{(x) legs} -> C^{(x) legs-1}."""
    return _face_sum([c.dim] * legs, [c.eps_c] * legs, 1, c.parent.field)


def extension_double_complex(setup, p_max, q_max):
    """The double complex of the extension with M = ad H."""
    return ExtensionDoubleComplex(setup.quotient, ad_module(setup.hopf), p_max, q_max)


# ---------------------------------------------------------------------------
# spectral pages


def first_page_spot(dc, p, q, transposed=False):
    """E^1_{p,q} as a subquotient of the cell (p, q)."""
    def build():
        if transposed:
            out_map = dc.dh(p, q) if p >= 1 else SparseMatrix.zeros(0, dc.dim(p, q), dc.h.field)
            in_map = dc.dh(p + 1, q)
        else:
            out_map = dc.dv(p, q) if q >= 1 else SparseMatrix.zeros(0, dc.dim(p, q), dc.h.field)
            in_map = dc.dv(p, q + 1)
        return homology_space(out_map, in_map)
    return dc.cached(("E1", p, q, transposed), build)


def second_page_spot(dc, p, q, transposed=False):
    """E^2_{p,q} as a nested subquotient of the cell (p, q)."""
    def build():
        here = first_page_spot(dc, p, q, transposed)
        if transposed:
            out_amb = dc.dv(p, q) if q >= 1 else None
            in_amb, prev, nxt = dc.dv(p, q + 1), (p, q - 1), (p, q + 1)
        else:
            out_amb = dc.dh(p, q) if p >= 1 else None
            in_amb, prev, nxt = dc.dh(p + 1, q), (p - 1, q), (p + 1, q)
        if out_amb is None:
            out_red = SparseMatrix.zeros(0, here.dim, dc.h.field)
        else:
            out_red = induced_map(out_amb, here, first_page_spot(dc, *prev, transposed))
        in_red = induced_map(in_amb, first_page_spot(dc, *nxt, transposed), here)
        return here.then(homology_space(out_red, in_red))
    return dc.cached(("E2", p, q, transposed), build)


# ---------------------------------------------------------------------------
# total complex


def _total_cells(dc, n):
    """{cell: dim} over the cells (p, n - p) of Tot_n inside the truncation
    p <= p_max, q <= q_max, in increasing p."""
    return {(p, n - p): dc.dim(p, n - p)
            for p in range(min(n, dc.p_max) + 1) if n - p <= dc.q_max}


def total_complex_map(dc, n):
    """d: Tot_n -> Tot_{n-1}, d_h + d_v on each cell."""
    def build():
        src, tgt = _total_cells(dc, n), _total_cells(dc, n - 1)
        terms = []
        for (p, q) in src:
            if (p - 1, q) in tgt:
                terms.append((1, dc.dh(p, q), (p - 1, q), (p, q)))
            if (p, q - 1) in tgt:
                terms.append((1, dc.dv(p, q), (p, q - 1), (p, q)))
        return block_matrix(tgt, src, terms, dc.h.field)
    return dc.cached(("Tot", n), build)


def _inclusion_into_total(dc, n, cell):
    """The cell X_cell as a block of Tot_n; its transpose is the projection."""
    dim = dc.dim(*cell)
    return block_matrix(_total_cells(dc, n), {cell: dim},
                        [(1, SparseMatrix.identity(dim, dc.h.field), cell, cell)], dc.h.field)


def total_homology(dc, n):
    """H_n(Tot) as a subquotient of Tot_n; d_0 is the zero map with no rows."""
    return dc.cached(("H", n), lambda: homology_space(total_complex_map(dc, n),
                                                      total_complex_map(dc, n + 1)))


def row_contraction_ok(c, p_max):
    """The row complex contracts to k: insert-the-class-of-1 is a homotopy."""
    f = c.parent.field
    for p in range(p_max):
        hmat = c.onebar.kron(SparseMatrix.identity(c.dim ** (p + 1), f))
        hmat_prev = c.onebar.kron(SparseMatrix.identity(c.dim ** p, f))
        lhs = coalgebra_boundary(c, p + 2) @ hmat + hmat_prev @ coalgebra_boundary(c, p + 1)
        if not lhs == SparseMatrix.identity(c.dim ** (p + 1), f):
            return False
    return True


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
    tot = [total_homology(dc, n).dim for n in range(n_upto + 1)]
    tor_vals = tor[: n_upto + 1]
    for n in range(n_upto + 1):
        checks.append(equality_check(f"H_{n}(Tot) = Tor_{n}(k, ad)", tot[n], tor_vals[n]))
    checks.append(AxiomCheck("row complex contracts to k",
                             row_contraction_ok(dc.c, min(dc.p_max, 2))))
    # transposed degeneration on the trusted window
    transposed = {(p, q): second_page_spot(dc, p, q, True).dim
                  for p in range(1, dc.p_max + 1) for q in range(dc.q_max + 1)
                  if p + q <= n_upto}
    degen = all(v == 0 for v in transposed.values())
    checks.append(AxiomCheck("transposed page 2 vanishes for p > 0", degen,
                             None if degen else str(transposed)))
    dc.validate_instantiated_squares()
    tables = {
        "E2_row0": e2_row,
        "HH_relative": list(hh_dims[: n_upto + 1]),
        "total_homology": tot,
        "tor": tor_vals,
        "transposed_E2": {f"{p},{q}": v for (p, q), v in transposed.items()},
    }
    return ValidationReport(checks, tables)


def five_term_check(dc):
    """Exactness of H_2 -> E2[2,0] -> E2[0,1] -> H_1 -> E2[1,0] -> 0 by rank
    arithmetic on maps that the total differential and the inclusions and
    projections of cells induce on the total homology and page spots."""
    e2_20 = second_page_spot(dc, 2, 0)
    e2_01 = second_page_spot(dc, 0, 1)
    e2_10 = second_page_spot(dc, 1, 0)
    h1, h2 = total_homology(dc, 1), total_homology(dc, 2)
    at_01 = _inclusion_into_total(dc, 1, (0, 1))

    a = induced_map(_inclusion_into_total(dc, 2, (2, 0)).t(), h2, e2_20)
    # d2 is d on the zig-zags of E2[2,0], read in E2[0,1] placed in Tot_1
    e2_01_in_tot = SubquotientSpace(e2_01.projection @ at_01.t(), at_01 @ e2_01.section,
                                    at_01 @ e2_01.rel_cols)
    d2 = induced_map(total_complex_map(dc, 2), _zigzags(dc, e2_20), e2_01_in_tot)
    bmap = induced_map(at_01, e2_01, h1)
    cmap = induced_map(_inclusion_into_total(dc, 1, (1, 0)).t(), h1, e2_10)

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
    dc.validate_instantiated_squares()
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
    at_20 = _inclusion_into_total(dc, 2, (2, 0))
    at_11 = _inclusion_into_total(dc, 2, (1, 1))

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
