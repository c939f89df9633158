"""Truncated cyclic and cocyclic modules and the six concrete constructions.

A CyclicModule holds degrees 0..n_max of a cyclic object: per-degree space
presentations plus face, degeneracy and cyclic operators on reduced
coordinates.  Four constructions are their spaces plus their faces,
degeneracies and rotation written as ``LegChain`` composites of structure
maps (mu, Delta, eps, the action of C, the coaction of B or M);
``build_cyclic`` and ``build_cocyclic`` descend them and compose the
wrap-around operators d_n = d_0 t and delta_{n+1} = tau delta_0.  There
are two descent routes, and the descent/restriction check of each is the
machine substitute for the by-hand well-definedness proofs.  When every
chain and every space's projection and section are monomial in one
orientation, as on the orbit quotients and orbit-sum subspaces of a
group algebra or a function algebra, each operator is composed from
index tables by ``induced_table``: P_cod @ chain table @ S_dom, with its
checks read off the tables, and between full spaces, as for C(H|k), the
chain's table itself (the rule is stated on ``CyclicModule``).
Otherwise ``induced_map`` applies each chain only to the sections and
relation columns of the spaces, never assembling it over the ambient.
The other two, the coextension and Hopf-cyclic coalgebra cyclic objects,
are the Connes duals (``cyclic_dual``) of their cocyclic objects, and
``cocyclic_dual`` inverts that duality.

``cyclic_identities`` and ``cocyclic_identities`` are the one table of
simplicial and cyclic identities and the one of cosimplicial and cocyclic
identities, written with ``@``, ``==`` and ``is_identity()``.
``check_identities`` runs them on a module's operators as built; no
operator is converted, since a table and a matrix answer the same calls
(``linalg.IndexTable``).  ``chain_complex`` is one
``linalg.ChainComplex`` constructor for HH and HC: the Hochschild complex
with b_q (the faces) at block (q - 1, q), and the (b, B) total complex,
Tot_n = C_n + C_{n-2} + ..., with B_q (the composites t^a s_q t^k, tables
on a module of tables) also at block (q + 1, q).  Both are written on
the normalized chains by ``ChainComplex.quotient``, Tor's rule too: the
degeneracies s_j give D where each is a column table, as on a group
algebra or H4, whose unit is a basis vector; otherwise, as on a function
algebra, on all of C.  No function here asks an operator's kind: the
dual of a module of tables is one of tables.

Truncation semantics: both complexes stop at n_max, so HH_n and HC_n are
trusted up to n_max - 1: they read b up to degree n + 1, and HC reads B
only into degree n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hopf import (
    AxiomCheck,
    HopfError,
    ValidationReport,
    coactions,
    commutator_quotient,
    tensor_powers_over_b,
)
from .linalg import (
    ChainComplex,
    LegChain,
    NotWellDefined,
    SparseMatrix,
    SubquotientSpace,
    apply_on_leg,
    block_matrix,
    equalizer,
    induced_map,
    induced_table,
    kernel,
    quotient_by_columns,
)


class TruncationError(HopfError):
    pass


# the most coordinates a space of one run may have: a run past it is
# refused before anything is built (``cli``, and ``classical``'s pictures)
COORDINATE_BUDGET = 500_000


@dataclass
class CyclicModule:
    """Degrees 0..n_max with faces d[n][i], degeneracies s[n][j], cyclic t[n].

    A built operator is an ``IndexTable`` exactly when, in one orientation,
    columns or else rows, every chain of the builder is monomial and every
    space has tables (``SubquotientSpace.tables``: a monomial projection
    and section, and relations only on a pure quotient).  A group algebra
    goes by columns, a function algebra by rows, since its unit fills one
    column; then all of them are tables of that orientation.  Otherwise,
    as for the comodule-algebra object of H4/B, whose sections are not
    monomial, every operator is a ``SparseMatrix``.  The same holds for
    ``CocyclicModule``, whose ``cyclic_dual`` keeps its kind.  Either way
    ``check_identities`` checks the operators as they are.
    """

    n_max: int
    spaces: list
    d: dict      # (n, i) -> operator C_n -> C_{n-1}, 1 <= n, 0 <= i <= n
    s: dict      # (n, j) -> operator C_n -> C_{n+1}, n < n_max, 0 <= j <= n
    t: dict      # n -> operator C_n -> C_n
    name: str = ""

    def dims(self):
        return [sp.dim for sp in self.spaces]


@dataclass
class CocyclicModule:
    """Degrees 0..n_max with cofaces delta[n][i], codegeneracies sigma[n][j],
    cocyclic tau[n]."""

    n_max: int
    spaces: list
    delta: dict  # (n, i) -> operator C^n -> C^{n+1}, n < n_max, 0 <= i <= n+1
    sigma: dict  # (n, j) -> operator C^n -> C^{n-1}, 1 <= n, 0 <= j <= n-1
    tau: dict    # n -> operator C^n -> C^n
    name: str = ""

    def dims(self):
        return [sp.dim for sp in self.spaces]


# ---------------------------------------------------------------------------
# identity checkers


def check_identities(x):
    """Every identity of a cyclic or cocyclic module within its
    truncation, on its operators as built: tables compose as tables,
    matrices by exact products, and a table with a matrix or with a table
    of the other orientation as matrices."""
    if isinstance(x, CyclicModule):
        table = cyclic_identities(x.n_max, x.d, x.s, x.t)
    else:
        table = cocyclic_identities(x.n_max, x.delta, x.sigma, x.tau)
    return ValidationReport([AxiomCheck(name, holds) for name, holds in table])


def cyclic_identities(n_max, d, s, t):
    """(name, holds) for every simplicial and cyclic identity in degrees
    0..n_max (Loday, *Cyclic Homology*, 6.1), degree by degree.

    ``d[(n, i)]``, ``s[(n, j)]`` and ``t[n]`` are the operators keyed as in
    ``CyclicModule``, composed by ``@`` and compared by ``==``; an identity
    whose right-hand side is id holds when the left is ``is_identity()``.
    """
    N = n_max
    for n in range(N + 1):
        if n >= 2:
            for j in range(n + 1):
                for i in range(j):
                    yield (f"d{i} d{j} = d{j-1} d{i} @ {n}",
                           d[(n - 1, i)] @ d[(n, j)] == d[(n - 1, j - 1)] @ d[(n, i)])
        if n < N - 1:
            for i in range(n + 1):
                for j in range(i, n + 1):
                    yield (f"s{i} s{j} = s{j+1} s{i} @ {n}",
                           s[(n + 1, i)] @ s[(n, j)] == s[(n + 1, j + 1)] @ s[(n, i)])
        if n < N:
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = d[(n + 1, i)] @ s[(n, j)]
                    if i < j:
                        holds = lhs == s[(n - 1, j - 1)] @ d[(n, i)]
                    elif i in (j, j + 1):
                        holds = lhs.is_identity()
                    else:
                        holds = lhs == s[(n - 1, j)] @ d[(n, i - 1)]
                    yield f"d{i} s{j} @ {n}", holds
        power = t[n]
        for _ in range(n):
            power = t[n] @ power
        yield f"t^{n+1} = id @ {n}", power.is_identity()
        if n >= 1:
            yield f"d0 t = d{n} @ {n}", d[(n, 0)] @ t[n] == d[(n, n)]
            for i in range(1, n + 1):
                yield f"d{i} t = t d{i-1} @ {n}", d[(n, i)] @ t[n] == t[n - 1] @ d[(n, i - 1)]
        if n < N:
            yield f"s0 t = t^2 s{n} @ {n}", s[(n, 0)] @ t[n] == t[n + 1] @ (t[n + 1] @ s[(n, n)])
            for i in range(1, n + 1):
                yield f"s{i} t = t s{i-1} @ {n}", s[(n, i)] @ t[n] == t[n + 1] @ s[(n, i - 1)]


def cocyclic_identities(n_max, delta, sigma, tau):
    """(name, holds) for every cosimplicial and cocyclic identity in
    degrees 0..n_max (Loday, *Cyclic Homology*, 6.1).

    ``delta[(n, i)]``, ``sigma[(n, j)]`` and ``tau[n]`` are the operators
    keyed as in ``CocyclicModule``, composed by ``@`` and compared by
    ``==``; an identity whose right-hand side is id holds when the left is
    ``is_identity()``.
    """
    N = n_max
    for n in range(N - 1):
        for j in range(n + 3):
            for i in range(min(j, n + 2)):
                yield (f"delta{j} delta{i} @ {n}",
                       delta[(n + 1, j)] @ delta[(n, i)] == delta[(n + 1, i)] @ delta[(n, j - 1)])
    for n in range(2, N + 1):
        for j in range(n - 1):
            for i in range(j + 1):
                yield (f"sigma{j} sigma{i} @ {n}",
                       sigma[(n - 1, j)] @ sigma[(n, i)] == sigma[(n - 1, i)] @ sigma[(n, j + 1)])
    for n in range(N):
        for i in range(n + 2):
            for j in range(n + 1):
                lhs = sigma[(n + 1, j)] @ delta[(n, i)]
                if i < j:
                    holds = lhs == delta[(n - 1, i)] @ sigma[(n, j - 1)]
                elif i in (j, j + 1):
                    holds = lhs.is_identity()
                else:
                    holds = lhs == delta[(n - 1, i - 1)] @ sigma[(n, j)]
                yield f"sigma{j} delta{i} @ {n}", holds
    for n in range(N + 1):
        power = tau[n]
        for _ in range(n):
            power = tau[n] @ power
        yield f"tau^{n+1} = id @ {n}", power.is_identity()
    for n in range(N):
        yield f"tau delta0 = delta{n+1} @ {n}", tau[n + 1] @ delta[(n, 0)] == delta[(n, n + 1)]
        for i in range(1, n + 2):
            yield f"tau delta{i} @ {n}", tau[n + 1] @ delta[(n, i)] == delta[(n, i - 1)] @ tau[n]
    for n in range(1, N + 1):
        yield (f"tau sigma0 @ {n}",
               tau[n - 1] @ sigma[(n, 0)] == sigma[(n, n - 1)] @ tau[n] @ tau[n])
        for j in range(1, n):
            yield f"tau sigma{j} @ {n}", tau[n - 1] @ sigma[(n, j)] == sigma[(n, j - 1)] @ tau[n]


# ---------------------------------------------------------------------------
# the shared builders


def build_cyclic(n_max, spaces, face, degeneracy, rotation, name=""):
    """The cyclic module on ``spaces`` whose operators descend the ambient
    chains face(n, i) for i < n, degeneracy(n, j) and rotation(n); the last
    face is d_n = d_0 t."""
    t, d, s = _descended(spaces, (
        {n: (rotation(n), n, n) for n in range(n_max + 1)},
        {(n, i): (face(n, i), n, n - 1) for n in range(1, n_max + 1) for i in range(n)},
        {(n, j): (degeneracy(n, j), n, n + 1) for n in range(n_max) for j in range(n + 1)}))
    for n in range(1, n_max + 1):
        d[(n, n)] = d[(n, 0)] @ t[n]
    return CyclicModule(n_max, spaces, d, s, t, name=name)


def build_cocyclic(n_max, spaces, coface, codegeneracy, rotation, name=""):
    """The cocyclic module on ``spaces`` whose operators descend the ambient
    chains coface(n, i) for i <= n, codegeneracy(n, j) and rotation(n); the
    last coface is delta_{n+1} = tau delta_0."""
    tau, delta, sigma = _descended(spaces, (
        {n: (rotation(n), n, n) for n in range(n_max + 1)},
        {(n, i): (coface(n, i), n, n + 1) for n in range(n_max) for i in range(n + 1)},
        {(n, j): (codegeneracy(n, j), n, n - 1) for n in range(1, n_max + 1) for j in range(n)}))
    for n in range(n_max):
        delta[(n, n + 1)] = tau[n + 1] @ delta[(n, 0)]
    return CocyclicModule(n_max, spaces, delta, sigma, tau, name=name)


def _descended(spaces, families):
    """Each family {key: (chain, source degree, target degree)} as operators.

    They are ``IndexTable``s composed by ``induced_table`` in the first
    orientation, columns or rows, in which every leg map of every chain
    and every space has tables (between full spaces, the chains' own
    tables); otherwise the chains descended by ``induced_map``."""
    legs = {id(step[0]): step[0] for fam in families for chain, _, _ in fam.values()
            for step in chain.steps if len(step) > 1}
    for by_rows in (False, True):
        if all(sp.tables(by_rows) is not None for sp in spaces) and \
                all(op.table(by_rows) is not None for op in legs.values()):
            return [{k: induced_table(chain, spaces[a], spaces[b], by_rows)
                     for k, (chain, a, b) in fam.items()} for fam in families]
    return [{k: induced_map(chain, spaces[a], spaces[b]) for k, (chain, a, b) in fam.items()}
            for fam in families]


# ---------------------------------------------------------------------------
# construction 1: relative cyclic object of the algebra extension B -> H


def relative_cyclic(h, b, n_max):
    """C_n(H|B) = [H^{(x)_B n+1}]_B with multiplication faces, unit
    degeneracies, and rotation."""
    d, f = h.dim, h.field
    spaces = [commutator_quotient(h, b, power, n + 1)
              for n, power in enumerate(tensor_powers_over_b(h, b, n_max + 1))]

    def legs(n):
        return LegChain([d] * (n + 1), f)

    return build_cyclic(
        n_max, spaces,
        face=lambda n, i: legs(n).leg(h.mu, i, 2),
        degeneracy=lambda n, j: legs(n).leg(h.eta, j + 1, 0),
        rotation=lambda n: legs(n).perm([n] + list(range(n))),
        name=f"C(H|B) {h.name}")


# ---------------------------------------------------------------------------
# constructions 2a/2b: the coextension (co)cyclic objects of H -> C


def coextension_space(h, c, legs):
    """(D^{box_C legs})^C inside D^{(x) legs}: cotensor junction conditions
    plus the bicomodule invariance condition.

    Built one leg at a time; conditions at earlier junctions survive the
    tensor-with-D step, so each stage only has to intersect with the
    newest junction, keeping the eliminations small.
    """
    d, cd, f = h.dim, c.dim, h.field
    rho, lam = coactions(h, c)
    space = SubquotientSpace.full(d, f)
    for k in range(1, legs):
        amb = space.tensor(SubquotientSpace.full(d, f))
        chain = LegChain([d] * (k + 1), f)
        sect = amb.section
        cond = chain.leg(rho, k - 1, 1, [d, cd]) @ sect - chain.leg(lam, k, 1, [cd, d]) @ sect
        space = amb.then(kernel(cond))
    chain = LegChain([d] * legs, f)
    right = chain.leg(rho, legs - 1, 1, [d, cd])                     # C-leg appended
    left = chain.leg(lam, 0, 1, [cd, d]).perm(list(range(1, legs + 1)) + [0])
    return space.then(kernel(right @ space.section - left @ space.section))


def coext_cyclic(h, c, n_max, spaces=None):
    """Cyclic module on (D^{box_C n+1})^C, the Connes dual of
    ``relative_cocyclic_coext``: counit faces, comultiplication
    degeneracies, rotation moving the last tensorand to the front."""
    return cyclic_dual(relative_cocyclic_coext(h, c, n_max, spaces))


def relative_cocyclic_coext(h, c, n_max, spaces=None):
    """Cocyclic module on (D^{box_C n+1})^C: comultiplication cofaces,
    counit codegeneracies, left rotation."""
    d, f = h.dim, h.field
    if spaces is None:
        spaces = [coextension_space(h, c, n + 1) for n in range(n_max + 1)]

    def legs(n):
        return LegChain([d] * (n + 1), f)

    return build_cocyclic(
        n_max, spaces,
        coface=lambda n, i: legs(n).leg(h.delta, i, 1, [d, d]),
        codegeneracy=lambda n, j: legs(n).leg(h.eps, j + 1, 1, []),
        rotation=lambda n: legs(n).perm(list(range(1, n + 1)) + [0]),
        name=f"C^({h.name}|C)")


# ---------------------------------------------------------------------------
# constructions 3a/3b: Hopf-cyclic objects of the module coalgebra C


def diagonal_action(c, legs):
    """Diagonal right action C^{(x) legs} (x) H -> C^{(x) legs},
    (c^1 ... c^k) (x) g -> c^1 g_(1) (x) ... (x) c^k g_(k)."""
    return _diagonal_chain(c, legs).matrix()


def _diagonal_chain(c, legs):
    """The diagonal action as a chain on C^{(x) legs} (x) H.

    The H-leg is carried from the last algebra leg to the first, leaving
    one coproduct factor in each; its last piece is consumed by the counit.
    """
    h = c.parent
    d, cd, f = h.dim, c.dim, h.field
    # carry: c (x) g -> g_(1) (x) c g_(2)
    carry = LegChain([cd, d], f).leg(h.delta, 1, 1, [d, d]).perm([1, 0, 2]) \
        .leg(c.action, 1, 2).matrix()
    chain = LegChain([cd] * legs + [d], f)
    for k in reversed(range(legs)):
        chain = chain.leg(carry, k, 2, [d, cd])
    return chain.leg(h.eps, 0, 1, [])


def generator_relations(c, legs, acts):
    """Columns x (x) g.m - x.g (x) m spanning the relations of
    C^{(x) legs} (x)_H M, one block for each algebra generator g of H;
    ``acts[j]`` is the action on M of the j-th column of ``generator_matrix()``.

    ``quotient_by_columns`` meets the relations in column order, generator
    by generator and x-major in each, which needs far fewer pivot
    rescalings than the order their entries are first written in: none on
    kC2/k, kC3/k and kS3/k up to degree 4, against 363 on kC3/k and 9,330
    on kS3/k.
    """
    h, f = c.parent, c.parent.field
    ident_legs = SparseMatrix.identity(c.dim ** legs, f)
    gens = h.generator_matrix()
    diagonal = _diagonal_chain(c, legs)
    rels = []
    for j, act in enumerate(acts):
        right = diagonal @ ident_legs.kron(gens.column(j))
        rels.append(ident_legs.kron(act) - right.kron(SparseMatrix.identity(act.rows, f)))
    return SparseMatrix.hstack(rels)


def generator_actions(h, m):
    """The operator action of M restricted to each algebra generator of H."""
    gens = h.generator_matrix()
    ident_m = SparseMatrix.identity(m.dim, h.field)
    return [m.operator_action @ gens.column(j).kron(ident_m) for j in range(gens.cols)]


def hopf_cyclic_spaces(c, m, n_max):
    """C^{(x) n+1} (x)_H M: quotients by the diagonal-versus-coefficient
    action relations, generated over an algebra generating set of H."""
    acts = generator_actions(c.parent, m)
    spaces = []
    for n in range(n_max + 1):
        rels = generator_relations(c, n + 1, acts)
        spaces.append(quotient_by_columns(rels.rows, rels))
    return spaces


def hopf_cyclic_coalgebra(c, m, n_max, spaces=None):
    """Cyclic module C_n(C, M)_H, the Connes dual of
    ``hopf_cocyclic_coalgebra``: counit faces, coproduct degeneracies, and
    the coefficient-twisted rotation
    (c^0 ... c^n) (x) m -> (c^n . m_(1) (x) c^0 ... c^{n-1}) (x) m_(0)."""
    return cyclic_dual(hopf_cocyclic_coalgebra(c, m, n_max, spaces))


def hopf_cocyclic_coalgebra(c, m, n_max, spaces=None):
    """Cocyclic module C^n(C, M)_H: coproduct cofaces, counit
    codegeneracies, and the cocyclic operator, which twists by the inverse
    antipode on the coefficients."""
    h = c.parent
    d, cd, md, f = h.dim, c.dim, m.dim, h.field
    if h.antipode_inv is None:
        raise HopfError("cocyclic construction needs an invertible antipode")
    if spaces is None:
        spaces = hopf_cyclic_spaces(c, m, n_max)

    def legs(n):
        return LegChain([cd] * (n + 1) + [md], f)

    def rotation(n):
        # (c^0 ... c^n, m) -> (c^1 ... c^n (x) c^0 . S^{-1}(m_(1))) (x) m_(0)
        return legs(n).leg(m.coaction, n + 1, 1, [md, d]).leg(h.antipode_inv, n + 2) \
            .perm(list(range(1, n + 1)) + [0, n + 2, n + 1]).leg(c.action, n, 2)

    return build_cocyclic(
        n_max, spaces,
        coface=lambda n, i: legs(n).leg(c.delta_c, i, 1, [cd, cd]),
        codegeneracy=lambda n, j: legs(n).leg(c.eps_c, j + 1, 1, []),
        rotation=rotation, name=f"C^(C,{m.name})_H")


# ---------------------------------------------------------------------------
# construction 4: Hopf-cyclic object of the comodule algebra B


def _diagonal_coaction_columns(h, b, legs):
    """Diagonal left coaction on B^{(x) legs} as a matrix
    B^{(x) legs} -> H (x) B^{(x) legs}.

    The H-part b^1_(-1) ... b^k_(-1) is carried as one leg and multiplied
    by each coaction factor as soon as that factor is split off.
    """
    d, bd, f = h.dim, b.dim, h.field
    # carry: g (x) b -> b_(0) (x) g b_(-1)
    carry = LegChain([d, bd], f).leg(b.coaction_b, 1, 1, [d, bd]).leg(h.mu, 0, 2) \
        .perm([1, 0]).matrix()
    chain = LegChain([bd] * legs, f).leg(h.eta, 0, 0)
    for k in range(legs):
        chain = chain.leg(carry, k, 2, [bd, d])
    return chain.perm([legs] + list(range(legs))).matrix()


def comodule_algebra_space(h, b, m, n):
    """M box_H B^{(x) n+1}: the coefficients' cotensor coaction matched
    against the diagonal left coaction of the algebra legs."""
    bd, md = b.dim, m.dim
    legs = n + 1
    dims = [md] + [bd] * legs
    if m.cotensor_coaction is None:
        raise HopfError("coefficients carry no cotensor coaction")
    side_m = apply_on_leg(m.cotensor_coaction, dims, 0)  # (m0, m1, b...)
    lam_diag = _diagonal_coaction_columns(h, b, legs)
    side_b = apply_on_leg(lam_diag, dims, 1, legs)       # (m, h, b...)
    return equalizer(side_m, side_b)


def hopf_cyclic_comodule_algebra(h, b, m, n_max):
    """Cyclic module C_n(B, M)^H = M box_H B^{(x) n+1}.

    Faces multiply adjacent algebra legs; the cyclic operator rotates the
    last leg through the coefficients using its coaction and the module's
    operator action.
    """
    f = h.field
    d, bd, md = h.dim, b.dim, m.dim
    if m.operator_action is None:
        raise HopfError("coefficients need an operator action for this construction")
    spaces = [comodule_algebra_space(h, b, m, n) for n in range(n_max + 1)]

    def legs(n):
        return LegChain([md] + [bd] * (n + 1), f)

    def rotation(n):
        # (m, b^0..b^n) -> (b^n_(-1) m, b^n_(0), b^0..b^{n-1})
        return legs(n).leg(b.coaction_b, n + 1, 1, [d, bd]) \
            .perm([n + 1, 0, n + 2] + list(range(1, n + 1))) \
            .leg(m.operator_action, 0, 2)

    return build_cyclic(
        n_max, spaces,
        face=lambda n, i: legs(n).leg(b.mult_b, i + 1, 2),
        degeneracy=lambda n, j: legs(n).leg(b.unit_b, j + 2, 0),
        rotation=rotation, name=f"C(B,{m.name})^H")


# ---------------------------------------------------------------------------
# cyclic duality


def cyclic_dual(ccm):
    """Connes' duality dictionary (Loday, *Cyclic Homology*, 6.1):
    d_i = sigma_{i-1}, d_0 = sigma_{n-1} tau, s_j = delta_j and t = tau^n,
    which is tau^{-1} once tau^{n+1} = 1 is checked (NotWellDefined names
    the degree otherwise), on the same spaces and in ccm's operator kind."""
    dops, sops, tops = {}, {}, {}
    for n in range(ccm.n_max + 1):
        tau = ccm.tau[n]
        tops[n] = _inverse_rotation(tau, n, "cocyclic module: tau")
        if n >= 1:
            dops[(n, 0)] = ccm.sigma[(n, n - 1)] @ tau
            for i in range(1, n + 1):
                dops[(n, i)] = ccm.sigma[(n, i - 1)]
        if n < ccm.n_max:
            for j in range(n + 1):
                sops[(n, j)] = ccm.delta[(n, j)]
    return CyclicModule(ccm.n_max, ccm.spaces, dops, sops, tops, name=f"dual({ccm.name})")


def cocyclic_dual(cm):
    """The inverse of ``cyclic_dual``: delta_j = s_j for j <= n,
    delta_{n+1} = tau delta_0, sigma_j = d_{j+1} and tau = t^n, which is
    t^{-1} once t^{n+1} = 1 is checked (NotWellDefined names the degree
    otherwise), on the same spaces and in cm's operator kind."""
    delta, sigma, tau = {}, {}, {}
    for n in range(cm.n_max + 1):
        tau[n] = _inverse_rotation(cm.t[n], n, "cyclic module: t")
        for j in range(n):
            sigma[(n, j)] = cm.d[(n, j + 1)]
    for n in range(cm.n_max):
        for j in range(n + 1):
            delta[(n, j)] = cm.s[(n, j)]
        delta[(n, n + 1)] = tau[n + 1] @ delta[(n, 0)]
    return CocyclicModule(cm.n_max, cm.spaces, delta, sigma, tau, name=f"dual({cm.name})")


def _inverse_rotation(rot, n, what):
    """rot^n, the inverse of the degree-n rotation rot once rot^{n+1} = id
    is checked; ``what`` names the module and the operator if it is not."""
    power = rot
    for _ in range(n - 1):
        power = rot @ power
    if not (rot @ power if n else rot).is_identity():
        raise NotWellDefined(f"not a {what}^{n + 1} != id at degree {n}")
    return power


# ---------------------------------------------------------------------------
# homology


def _faces(cm, n):
    """b_n = sum (-1)^i d_i as its n + 1 signed faces."""
    return (((-1) ** i, cm.d[(n, i)]) for i in range(n + 1))


def _connes_composites(cm, n):
    """B_n = (1 - lambda) t s_n N, where lambda = (-1)^n t and N = 1 + lambda
    + ... + lambda^n, as its 2(n + 1) signed composites (-1)^{nk}
    t_{n+1} s_n t_n^k and (-1)^{n(k+1)} t_{n+1}^2 s_n t_n^k, 0 <= k <= n,
    composed by ``@``: a table while every factor is one."""
    t, t1, u = cm.t[n], cm.t[n + 1], cm.s[(n, n)]
    for k in range(n + 1):
        if k:
            u = u @ t
        once = t1 @ u
        yield (-1) ** (n * k), once
        yield (-1) ** (n * (k + 1)), t1 @ once


def chain_complex(cm, connes=False):
    """The Hochschild complex (C, b) of cm, or with ``connes`` the total
    complex of its (b, B) mixed complex, Tot_n = C_n + C_{n-2} + ...
    (Loday, *Cyclic Homology*, 2.1.7), each C_q a block labelled q:
    b_q = sum (-1)^i d_i is block (q - 1, q), and B_q block (q + 1, q).
    Where every degeneracy s_j has a column table, it is the quotient by
    the degenerate chains D (``ChainComplex.quotient``): D is acyclic, so
    the homology is the same (Loday 1.6 and 2.1.9), and b(D) and B(D) lie
    in D, which the writer checks.  Degrees past n_max raise TruncationError."""
    dims = cm.dims()

    def blocks(n):
        if n > cm.n_max:
            raise TruncationError(f"degree {n} outside 0..{cm.n_max}")
        degrees = range(n, -1, -2)
        return {q: dims[q] for q in (degrees if connes else degrees[:1])}

    def terms(n):
        for q in blocks(n):
            if q:
                yield from ((sign, op, q - 1, q) for sign, op in _faces(cm, q))
            if q + 2 <= n:
                yield from ((sign, op, q + 1, q) for sign, op in _connes_composites(cm, q))

    cx = ChainComplex(cm.spaces[0].field, blocks, terms)
    s = {key: op.table() for key, op in cm.s.items()}
    if any(tb is None for tb in s.values()):
        return cx
    return cx.quotient(lambda q: [s[(q - 1, j)] for j in range(q)])


def hochschild_homology(cm, upto=None):
    """dim HH_n for n <= upto (default n_max - 1) from ``chain_complex``;
    ``homology_dims`` asserts b . b = 0 on every map it ranks."""
    return chain_complex(cm).homology_dims(cm.n_max - 1 if upto is None else upto)


def normalized_complex(cm):
    """The tests' elimination-based reference for the normalized complex
    that ``chain_complex`` writes on coordinates: the quotient of each C_n
    by the images of the degeneracies, by ``quotient_by_columns``, with b
    from degrees 1..n_max and the unnormalized B from degrees 0..n_max - 2
    descended into it by ``induced_map``; returns (spaces, b ops, B ops)."""
    f = cm.spaces[0].field
    dims = cm.dims()
    nspaces = [SubquotientSpace.full(dims[0], f)]
    for n in range(1, cm.n_max + 1):
        degen = SparseMatrix.hstack([cm.s[(n - 1, j)].matrix() for j in range(n)])
        nspaces.append(quotient_by_columns(dims[n], degen))

    def written(terms, rows, cols):
        return block_matrix({0: rows}, {0: cols}, ((sign, op, 0, 0) for sign, op in terms), f)

    nb = {n: induced_map(written(_faces(cm, n), dims[n - 1], dims[n]), nspaces[n], nspaces[n - 1])
          for n in range(1, cm.n_max + 1)}
    nB = {n: induced_map(written(_connes_composites(cm, n), dims[n + 1], dims[n]),
                         nspaces[n], nspaces[n + 1]) for n in range(cm.n_max - 1)}
    return nspaces, nb, nB


def cyclic_homology(cm, upto=None):
    """dim HC_n for n <= upto (default n_max - 1) from the total complex of
    the (b, B) mixed complex (Loday, *Cyclic Homology*, 2.1.7), normalized
    where ``chain_complex`` finds the degenerate chains spanned by
    coordinates: d^2 = 0, which ``homology_dims`` checks on each total map,
    is b^2 = B^2 = bB + Bb = 0 on every block that HC reads."""
    return chain_complex(cm, connes=True).homology_dims(cm.n_max - 1 if upto is None else upto)
