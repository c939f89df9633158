"""Independent brute-force homology oracle.

Deliberately shares no code with the package: dense Fraction matrices,
hand-written structure constants, textbook boundary formulas.  Used to
freeze expected dimensions before trusting the sparse engine.
"""

from fractions import Fraction
from itertools import product


def dense_rank(rows):
    # entries may be ints, so divide as Fractions: int / int would be a float
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class DenseAlgebra:
    """mult[(i, j)] = list of (k, coeff); comult[k] = list of (i, j, coeff)."""

    def __init__(self, dim, mult, comult, counit, unit_index, antipode):
        self.dim = dim
        self.mult = mult
        self.comult = comult
        self.counit = counit
        self.unit_index = unit_index
        self.antipode = antipode  # antipode[j] = list of (i, coeff)


def sweedler_dense():
    one = Fraction(1)
    neg = Fraction(-1)
    I, G, X, GX = range(4)
    mult = {}
    for a in range(4):
        mult[(I, a)] = [(a, one)]
        mult[(a, I)] = [(a, one)]
    mult[(G, G)] = [(I, one)]
    mult[(G, X)] = [(GX, one)]
    mult[(G, GX)] = [(X, one)]
    mult[(X, G)] = [(GX, neg)]
    mult[(GX, G)] = [(X, neg)]
    mult[(X, X)] = []
    mult[(X, GX)] = []
    mult[(GX, X)] = []
    mult[(GX, GX)] = []
    comult = {
        I: [(I, I, one)],
        G: [(G, G, one)],
        X: [(X, I, one), (G, X, one)],
        GX: [(GX, G, one), (I, GX, one)],
    }
    counit = {I: one, G: one, X: Fraction(0), GX: Fraction(0)}
    antipode = {I: [(I, one)], G: [(G, one)], X: [(GX, neg)], GX: [(X, one)]}
    return DenseAlgebra(4, mult, comult, counit, I, antipode)


def cyclic_group_algebra_dense(n):
    one = Fraction(1)
    mult = {(a, b): [((a + b) % n, one)] for a in range(n) for b in range(n)}
    comult = {k: [(k, k, one)] for k in range(n)}
    counit = {k: one for k in range(n)}
    antipode = {j: [((-j) % n, one)] for j in range(n)}
    return DenseAlgebra(n, mult, comult, counit, 0, antipode)


def _mul_terms(alg, terms_a, terms_b):
    out = {}
    for ia, va in terms_a:
        for ib, vb in terms_b:
            for k, c in alg.mult[(ia, ib)]:
                out[k] = out.get(k, Fraction(0)) + va * vb * c
    return [(k, v) for k, v in out.items() if v != 0]


def hochschild_boundary(alg, n):
    """b: A^{(x) n+1} -> A^{(x) n} as dense columns."""
    d = alg.dim
    src = [tuple(t) for t in product(range(d), repeat=n + 1)]
    tgt_index = {t: i for i, t in enumerate(product(range(d), repeat=n))}
    cols = []
    for tup in src:
        col = [Fraction(0)] * (d ** n)
        for i in range(n):
            for k, c in alg.mult[(tup[i], tup[i + 1])]:
                t2 = tup[:i] + (k,) + tup[i + 2:]
                col[tgt_index[t2]] += (-1) ** i * c
        for k, c in alg.mult[(tup[n], tup[0])]:
            t2 = (k,) + tup[1:n]
            col[tgt_index[t2]] += (-1) ** n * c
        cols.append(col)
    return cols  # list of columns


def transpose(cols):
    if not cols:
        return []
    return [list(r) for r in zip(*cols)]


def hochschild_dims(alg, upto):
    """HH_n(A) for n <= upto by dense rank computations."""
    bs = {n: hochschild_boundary(alg, n) for n in range(1, upto + 2)}
    dims = []
    for n in range(upto + 1):
        dim_cn = alg.dim ** (n + 1)
        rank_out = dense_rank(transpose(bs[n])) if n >= 1 else 0
        rank_in = dense_rank(transpose(bs[n + 1]))
        dims.append(dim_cn - rank_out - rank_in)
    return dims


def adjoint_action(alg, i, j):
    """h |> h' = h_(2) h' S(h_(1)) for basis elements i, j."""
    out = {}
    for (a, b, c) in [(a, b, c) for (a, b, c) in alg.comult[i]]:
        sa = alg.antipode[a]
        terms = _mul_terms(alg, [(b, c)], [(j, Fraction(1))])
        terms = _mul_terms(alg, terms, sa)
        for k, v in terms:
            out[k] = out.get(k, Fraction(0)) + v
    return [(k, v) for k, v in out.items() if v != 0]


def tor_boundary(alg, q):
    """d: k (x) A^{(x) q} (x) M -> k (x) A^{(x) q-1} (x) M with M = ad(A).

    First bar slot acts on k through the counit, last acts on M through
    the adjoint action.
    """
    d = alg.dim
    src = [tuple(t) for t in product(range(d), repeat=q + 1)]  # (h_1..h_q, m)
    tgt_index = {t: i for i, t in enumerate(product(range(d), repeat=q))}
    cols = []
    for tup in src:
        col = [Fraction(0)] * (d ** q)
        hs, m = tup[:q], tup[q]
        # eps(h_1) drop
        eps = alg.counit[hs[0]]
        if eps:
            col[tgt_index[hs[1:] + (m,)]] += eps
        for i in range(q - 1):
            for k, c in alg.mult[(hs[i], hs[i + 1])]:
                t2 = hs[:i] + (k,) + hs[i + 2:] + (m,)
                col[tgt_index[t2]] += (-1) ** (i + 1) * c
        for k, c in adjoint_action(alg, hs[q - 1], m):
            t2 = hs[:-1] + (k,)
            col[tgt_index[t2]] += (-1) ** q * c
        cols.append(col)
    return cols


def tor_dims(alg, upto):
    bs = {q: tor_boundary(alg, q) for q in range(1, upto + 2)}
    dims = []
    for q in range(upto + 1):
        dim_cq = alg.dim ** (q + 1)
        rank_out = dense_rank(transpose(bs[q])) if q >= 1 else 0
        rank_in = dense_rank(transpose(bs[q + 1]))
        dims.append(dim_cq - rank_out - rank_in)
    return dims


def cyclic_dims(alg, upto):
    """HC_n via the unnormalized (b, B) mixed complex, dense."""
    d = alg.dim

    def faces(n):
        # list of face maps as dicts: tuple -> list of (tuple, coeff)
        def face(i, tup):
            if i < n:
                return [(tup[:i] + (k,) + tup[i + 2:], c) for k, c in alg.mult[(tup[i], tup[i + 1])]]
            return [((k,) + tup[1:n], c) for k, c in alg.mult[(tup[n], tup[0])]]

        return face

    def b_matrix(n):
        src = list(product(range(d), repeat=n + 1))
        tgt_index = {t: i for i, t in enumerate(product(range(d), repeat=n))}
        face = faces(n)
        cols = []
        for tup in src:
            col = [Fraction(0)] * (d ** n)
            for i in range(n + 1):
                for t2, c in face(i, tup):
                    col[tgt_index[t2]] += (-1) ** i * c
            cols.append(col)
        return cols

    def B_matrix(n):
        # B = (1 - lambda) s N with lambda = (-1)^n t, s = insert unit in front
        src = list(product(range(d), repeat=n + 1))
        tgt_index = {t: i for i, t in enumerate(product(range(d), repeat=n + 2))}
        cols = []
        for tup in src:
            acc = {}
            cur = tup
            sign = Fraction(1)
            for _ in range(n + 1):
                stuck = (alg.unit_index,) + cur
                acc[stuck] = acc.get(stuck, Fraction(0)) + sign
                # lambda_{n+1} applied to stuck, subtracted
                rot = (stuck[-1],) + stuck[:-1]
                acc[rot] = acc.get(rot, Fraction(0)) - sign * (-1) ** (n + 1)
                cur = (cur[-1],) + cur[:-1]
                sign *= (-1) ** n
            col = [Fraction(0)] * (d ** (n + 2))
            for t2, c in acc.items():
                col[tgt_index[t2]] += c
            cols.append(col)
        return cols

    bmats = {n: b_matrix(n) for n in range(1, upto + 3)}
    Bmats = {n: B_matrix(n) for n in range(0, upto + 2)}

    def tot_blocks(n):
        return [n - 2 * p for p in range((n // 2) + 1) if n - 2 * p >= 0]

    def tot_matrix(n):
        # D: Tot_n -> Tot_{n-1}
        src_blocks = tot_blocks(n)
        tgt_blocks = tot_blocks(n - 1)
        tgt_off = {}
        off = 0
        for q in tgt_blocks:
            tgt_off[q] = off
            off += d ** (q + 1)
        height = off
        cols = []
        for q in src_blocks:
            size = d ** (q + 1)
            bcols = bmats[q] if q >= 1 else None
            Bcols = Bmats[q] if q + 1 in tgt_off else None
            for j in range(size):
                col = [Fraction(0)] * height
                if q >= 1 and q - 1 in tgt_off:
                    o = tgt_off[q - 1]
                    for r, v in enumerate(bcols[j]):
                        col[o + r] += v
                if Bcols is not None:
                    o = tgt_off[q + 1]
                    for r, v in enumerate(Bcols[j]):
                        col[o + r] += v
                cols.append(col)
        return cols

    dims = []
    for n in range(upto + 1):
        dim_tot = sum(d ** (q + 1) for q in tot_blocks(n))
        rank_out = dense_rank(transpose(tot_matrix(n))) if n >= 1 else 0
        rank_in = dense_rank(transpose(tot_matrix(n + 1)))
        dims.append(dim_tot - rank_out - rank_in)
    return dims


def dense_rank_mod(rows, p):
    """Rank over F_p of integer rows, by dense elimination mod p."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def compose(a, b):
    """The permutation a after b, as tuples of images."""
    return tuple(a[i] for i in b)


def closure(generators):
    """The permutation group generated by ``generators``, in the order found."""
    ident = tuple(range(len(generators[0])))
    group, frontier = [ident], [ident]
    while frontier:
        found = []
        for x in frontier:
            for g in generators:
                y = compose(g, x)
                if y not in group:
                    group.append(y)
                    found.append(y)
        frontier = found
    return group


def group_homology_dims(group, p, upto):
    """dim H_n(G; k) for n <= upto, k = Q when p is 0 and F_p otherwise, from
    the bar complex k[G^n] with d(g_1..g_n) = (g_2..g_n) + sum_{0<i<n}
    (-1)^i (.. g_i g_(i+1) ..) + (-1)^n (g_1..g_(n-1))."""
    index = {g: i for i, g in enumerate(group)}

    def tuple_index(tup):
        k = 0
        for g in tup:
            k = k * len(group) + index[g]
        return k

    def boundary_rows(n):
        # d_n: k[G^n] -> k[G^(n-1)] as rows (one per target tuple)
        rows = [[0] * len(group) ** n for _ in range(len(group) ** (n - 1))]
        for j, tup in enumerate(product(group, repeat=n)):
            terms = [(1, tup[1:])]
            terms += [((-1) ** i, tup[:i - 1] + (compose(tup[i - 1], tup[i]),) + tup[i + 1:])
                      for i in range(1, n)]
            terms.append(((-1) ** n, tup[:-1]))
            for sign, t2 in terms:
                rows[tuple_index(t2)][j] += sign
        return rows

    def rank(rows):
        return dense_rank(rows) if p == 0 else dense_rank_mod(rows, p)

    ranks = [0] + [rank(boundary_rows(n)) for n in range(1, upto + 2)]
    return [len(group) ** n - ranks[n] - ranks[n + 1] for n in range(upto + 1)]


def burghelea_hh(group, p, upto):
    """dim HH_n(kG) for n <= upto by Burghelea's decomposition (Loday,
    *Cyclic Homology*, 7.4): HH_n(kG) = sum over the conjugacy classes [g]
    of H_n(C_G(g); k), each centralizer's homology from its own bar complex;
    ``group`` is a list of permutations and k is Q when p is 0, else F_p."""
    inverse = {g: tuple(sorted(range(len(g)), key=g.__getitem__)) for g in group}
    seen, total, cache = set(), [0] * (upto + 1), {}
    for g in group:
        if g in seen:
            continue
        seen.update(compose(compose(x, g), inverse[x]) for x in group)
        centralizer = [x for x in group if compose(x, g) == compose(g, x)]
        key = frozenset(centralizer)
        if key not in cache:
            cache[key] = group_homology_dims(centralizer, p, upto)
        total = [a + b for a, b in zip(total, cache[key])]
    return total


if __name__ == "__main__":
    h4 = sweedler_dense()
    kc2 = cyclic_group_algebra_dense(2)
    kc3 = cyclic_group_algebra_dense(3)
    print("HH(H4) 0..3:", hochschild_dims(h4, 3))
    print("Tor^{H4}(k, ad) 0..3:", tor_dims(h4, 3))
    print("HH(kC2) 0..3:", hochschild_dims(kc2, 3))
    print("Tor^{kC2}(k, ad) 0..3:", tor_dims(kc2, 3))
    print("HC(kC2) 0..3:", cyclic_dims(kc2, 3))
    print("HC(kC3) 0..3:", cyclic_dims(kc3, 3))
    print("HC(H4) 0..3:", cyclic_dims(h4, 3))
