"""Helpers that only the tests use: dense and (row, col)-keyed conversion
and uncached copies of sparse matrices, predicates on Hopf algebras,
cyclic maps and SAYD coefficients, the page of a double complex that the
package only certifies, the unnormalized complexes whose coordinate
quotients the package ranks, and Connes' dual with t inverted by
elimination."""

from hopfcyclic.cyclic import CyclicModule, hochschild_homology, relative_cyclic
from hopfcyclic.hopf import group_algebra, trivial_subalgebra
from hopfcyclic.linalg import (
    ChainComplex,
    LegChain,
    SparseMatrix,
    homology_space,
    induced_map,
    inverse,
    permutation_matrix,
)
from hopfcyclic.sayd import SaydModule, ad_module


def from_dense(rows_list, field):
    """The sparse matrix with the given rows; int entries are mapped into ``field``."""
    entries = {}
    for i, row in enumerate(rows_list):
        for j, v in enumerate(row):
            v = field.from_int(v) if isinstance(v, int) else v
            if not field.is_zero(v):
                entries[(i, j)] = v
    return from_keyed(len(rows_list), len(rows_list[0]) if rows_list else 0, field, entries)


def from_keyed(rows, cols, field, entries):
    """The matrix with the nonzero ``entries`` {(row, col): value}, values
    as given, its rows written in the order the dict first meets them."""
    out = {}
    for (i, j), v in entries.items():
        out.setdefault(i, {})[j] = v
    return SparseMatrix(rows, cols, field, out)


def to_keyed(m):
    """m's entries as {(row, col): value}, row by row."""
    return {(i, j): v for i, j, v in m.entries()}


def complex_of(dims, d, field):
    """The ChainComplex with C_n = k^dims[n] for 0 <= n < len(dims), one
    block each, and d_n = d[n], zero where d has no n."""
    return ChainComplex(field, lambda n: {0: dims[n]} if 0 <= n < len(dims) else {},
                        lambda n: [(1, d[n], 0, 0)] if n in d else [])


def transposed_spots(dc, p, q):
    """E^1 and E^2 at (p, q) of the row filtration of the double complex
    ``dc``, computed, not certified: E^1_{p,q} = H_p(row q), and E^2 the
    homology there of the d^1 that dv induces."""
    here = dc.row(q).homology(p)
    out = induced_map(dc.dv(p, q), here, dc.row(q - 1).homology(p)) if q \
        else SparseMatrix.zeros(0, here.dim, dc.h.field)
    into = induced_map(dc.dv(p, q + 1), dc.row(q + 1).homology(p), here)
    return here, here.then(homology_space(out, into))


def to_dense(m):
    return [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]


def uncached(m):
    """An uncached copy of m: its rank is eliminated on all of its rows."""
    return SparseMatrix(m.rows, m.cols, m.field, {i: dict(row) for i, row in m.rows_map().items()})


def is_bijective(cmap):
    """Every component of a cyclic map is square and invertible."""
    return all(m.rows == m.cols and m.rank() == m.rows for m in cmap.components.values())


def _swap(h):
    return permutation_matrix([h.dim, h.dim], [1, 0], h.field)


def is_commutative(h):
    return h.mu @ _swap(h) == h.mu


def is_cocommutative(h):
    return _swap(h) @ h.delta == h.delta


def trivial_sayd(h, grouplike=None):
    """k with the counit action and a group-like coaction (a d x 1 column).

    The unit coaction only satisfies the compatibility when S^2 = id; for
    algebras like H4 one must twist by a suitable group-like (here g), the
    classical modular-pair-in-involution situation.
    """
    coaction = h.eta if grouplike is None else grouplike
    return SaydModule(h, "left-right", h.eps, coaction, name="k")


def adjoint_action_identity_ok(h, ad=None):
    """h_(2) |> (h' h_(1)) = h h' for all basis pairs, as a matrix identity."""
    d, f = h.dim, h.field
    if ad is None:
        ad = ad_module(h)
    # (h, h') -> (h1, h2, h') -> (h2, h', h1) -> (h2, h' h1), then the action
    step = LegChain([d, d], f).leg(h.delta, 0, 1, [d, d]).perm([1, 2, 0]).leg(h.mu, 1, 2)
    lhs = ad.action @ step.matrix()
    return lhs == h.mu


def group_algebra_hh0(g):
    """dim HH_0(kG) over Q, from the relative cyclic object of kG over k."""
    h = group_algebra(g)
    return hochschild_homology(relative_cyclic(h, trivial_subalgebra(h), 1), 0)[0]


# ---------------------------------------------------------------------------
# unnormalized references


def connes_reference(cm, n):
    """B = (1 - lambda_(n+1)) t_(n+1) s_n N as a product of matrices, where
    lambda_m = (-1)^m t_m and N = 1 + lambda_n + ... + lambda_n^n."""
    f = cm.spaces[0].field

    def lam(m):
        return cm.t[m].matrix().scale(f.one if m % 2 == 0 else f.neg(f.one))

    norm = power = SparseMatrix.identity(cm.spaces[n].dim, f)
    for _ in range(n):
        power = lam(n) @ power
        norm = norm + power
    extra = cm.t[n + 1].matrix() @ cm.s[(n, n)].matrix()
    one_minus = SparseMatrix.identity(cm.spaces[n + 1].dim, f) - lam(n + 1)
    return one_minus @ extra @ norm


def unnormalized_complex(cm, connes=False):
    """The Hochschild complex of cm, or with ``connes`` the total complex of
    its (b, B) mixed complex, degenerate chains included: b_q = sum (-1)^i
    d_i and B_q = ``connes_reference``, from cm's operators as matrices."""
    f = cm.spaces[0].field
    dims = cm.dims()

    def blocks(n):
        degrees = range(n, -1, -2)
        return {q: dims[q] for q in (degrees if connes else degrees[:1])}

    def terms(n):
        for q in blocks(n):
            if q:
                yield from (((-1) ** i, cm.d[(q, i)].matrix(), q - 1, q)
                            for i in range(q + 1))
            if q + 2 <= n:
                yield 1, connes_reference(cm, q), q + 1, q

    return ChainComplex(f, blocks, terms)


def kept_coordinates(cm, q):
    """The coordinates of C_q off every image of a degeneracy into it when
    each degeneracy matrix has at most one entry in each column, so that
    the images are spanned by the coordinates they hit; else all of C_q."""
    f = cm.spaces[0].field
    hit = set()
    for j in range(q):
        entries = list(cm.s[(q - 1, j)].matrix().entries())
        if len({j for _, j, _ in entries}) < len(entries):
            return list(range(cm.spaces[q].dim))
        hit.update(i for i, _, _ in entries)
    return [i for i in range(cm.spaces[q].dim) if i not in hit]


def restricted(m, rows, cols):
    """The submatrix of m on the coordinates ``rows`` and ``cols``, in order."""
    at = {j: k for k, j in enumerate(cols)}
    out = {}
    for k, i in enumerate(rows):
        row = {at[j]: v for j, v in m.rows_map().get(i, {}).items() if j in at}
        if row:
            out[k] = row
    return SparseMatrix(len(rows), len(cols), m.field, out)


def reference_dual(ccm):
    """Connes' dual of the cocyclic module ccm as the package first wrote
    it: every operator as its matrix, d_i = sigma_{i-1}, d_0 = sigma_{n-1}
    tau, s_j = delta_j and t = tau^{-1} by elimination."""
    dops, sops, tops = {}, {}, {}
    for n in range(ccm.n_max + 1):
        tops[n] = inverse(ccm.tau[n].matrix())
        if n >= 1:
            dops[(n, 0)] = ccm.sigma[(n, n - 1)].matrix() @ ccm.tau[n].matrix()
            for i in range(1, n + 1):
                dops[(n, i)] = ccm.sigma[(n, i - 1)].matrix()
        if n < ccm.n_max:
            for j in range(n + 1):
                sops[(n, j)] = ccm.delta[(n, j)].matrix()
    return CyclicModule(ccm.n_max, ccm.spaces, dops, sops, tops, name=f"dual({ccm.name})")
