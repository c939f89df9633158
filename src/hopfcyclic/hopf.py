"""Finite-dimensional Hopf algebras by structure constants.

Conventions, fixed once and used everywhere:

* ``mult[(i, j, k)]`` is the e_k coefficient of e_i . e_j;
* ``comult[(k, i, j)]`` is the e_i (x) e_j coefficient of Delta(e_k);
* matrices act on column vectors, tensor legs are indexed row-major with
  the left factor slowest;
* an element of H is a d x 1 column.

The module also builds the two sides of the Takeuchi correspondence for a
Hopf algebra H: quotient right module coalgebras C = H/I and left coideal
subalgebras B = H^{co C}, together with the canonical map, the translation
map, and the cocanonical map of the associated homogeneous extension.
The Takeuchi hypotheses and lift independence are not checked by hand
but by ``induced_map``: I lies in ker(eps) and is a coideal when eps and
Delta descend to H/I; B contains 1, is closed under multiplication and
is a left coideal when eta, mu and Delta restrict to B (and H (x) B);
and the translation map is independent of the lift when it descends
from H to H/I.

Every operator is a ``LegChain`` of the structure matrices ``mu``,
``delta``, ``eps``, ``eta`` and ``antipode`` (and the lifts and
projections of the subquotients), applied to the thin matrix on its
right: the columns of a space in ``induced_map``, or ``delta``,
``delta_c`` or a coaction in an axiom check.  Only an operator needed
whole is assembled: by ``matrix()`` where a chain is itself a structure
map (``_link``, ``_carry``), and by ``apply_on_leg`` where id (x) op (x) id
is a term of a sum of faces, a side of an equalizer or the right factor
of a product.  The B-multiplications that present H^{(x)_B n} and
[H^{(x)_B n}]_B are descended by ``induced_table``, composed from index
tables, when they and the spaces are monomial, as on a group algebra.
The chain helpers below are shared with ``iso``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field

from .linalg import (
    QQ,
    Inconsistent,
    LegChain,
    NotWellDefined,
    SparseMatrix,
    SubquotientSpace,
    apply_on_leg,
    equalizer,
    induced_map,
    induced_table,
    inverse,
    kernel,
    quotient_by_columns,
    span_columns,
    span_contains,
    tensor_index,
    tensor_unindex,
)


class HopfError(ValueError):
    pass


class NotGalois(HopfError):
    pass


class NotHopfIdeal(HopfError):
    pass


class HypothesisError(HopfError):
    """The given ideal or subalgebra breaks a hypothesis of the construction."""


@dataclass
class AxiomCheck:
    name: str
    ok: bool
    witness: str | None = None


def equality_check(name, a, b):
    """The check that a == b, witnessed by "a != b" when it fails."""
    return AxiomCheck(name, a == b, None if a == b else f"{a} != {b}")


@dataclass
class ValidationReport:
    checks: list
    tables: dict = _field(default_factory=dict)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


class HopfAlgebra:
    """A Hopf algebra over an exact field, given by structure-constant tensors."""

    def __init__(self, name, field, basis, mult, unit, comult, counit, antipode,
                 generator_indices=None):
        self.name = name
        self.field = field
        self.basis = list(basis)
        self.dim = len(self.basis)
        d = self.dim
        self.mult = {k: v for k, v in mult.items() if not field.is_zero(v)}
        self.unit = {k: v for k, v in unit.items() if not field.is_zero(v)}
        self.comult = {k: v for k, v in comult.items() if not field.is_zero(v)}
        self.counit = {k: v for k, v in counit.items() if not field.is_zero(v)}
        self.antipode = antipode
        self.generator_indices = generator_indices
        # derived structure matrices
        self.mu = SparseMatrix.from_entries(
            d, d * d, field,
            ((k, tensor_index((d, d), (i, j)), v) for (i, j, k), v in self.mult.items()))
        self.delta = SparseMatrix.from_entries(
            d * d, d, field,
            ((tensor_index((d, d), (i, j)), k, v) for (k, i, j), v in self.comult.items()))
        self.eta = SparseMatrix(d, 1, field, {i: {0: v} for i, v in self.unit.items()})
        self.eps = SparseMatrix(1, d, field, {0: dict(self.counit)} if self.counit else {})
        try:
            self.antipode_inv = inverse(antipode)
        except Inconsistent:
            self.antipode_inv = None

    def __repr__(self):
        return f"HopfAlgebra({self.name}, dim={self.dim}, field={self.field.name})"

    def ident(self):
        return SparseMatrix.identity(self.dim, self.field)

    def generators(self):
        """Basis indices generating H as a unital algebra."""
        if self.generator_indices is not None:
            return list(self.generator_indices)
        return list(range(self.dim))

    def generator_matrix(self):
        """The generators() as the columns of a d x k matrix."""
        one = self.field.one
        gens = self.generators()
        return SparseMatrix.from_entries(self.dim, len(gens), self.field,
                                         ((g, j, one) for j, g in enumerate(gens)))

    def left_mult_matrix(self, a):
        """Matrix of x -> a . x for an element a given as a d x 1 column."""
        return self.mu @ a.kron(self.ident())

    def right_mult_matrix(self, a):
        """Matrix of x -> x . a for an element a given as a d x 1 column."""
        return self.mu @ self.ident().kron(a)

    # axiom validation -------------------------------------------------------

    def validate(self):
        """Check every Hopf axiom; report failures with a witness basis tuple."""
        d, f = self.dim, self.field
        ident = self.ident()
        legs = LegChain([d, d], f)
        checks = []

        def check(name, lhs, rhs, dims):
            if lhs == rhs:
                checks.append(AxiomCheck(name, True))
            else:
                col = min((lhs - rhs).entries())[1]
                witness = ", ".join(self.basis[t] for t in tensor_unindex(dims, col))
                checks.append(AxiomCheck(name, False, f"({witness})"))

        check("associativity",
              self.mu @ apply_on_leg(self.mu, [d, d, d], 0, 2),
              self.mu @ apply_on_leg(self.mu, [d, d, d], 1, 2),
              [d, d, d])
        check("left unit", self.mu @ self.eta.kron(ident), ident, [d])
        check("right unit", self.mu @ ident.kron(self.eta), ident, [d])
        check("coassociativity",
              legs.leg(self.delta, 0) @ self.delta, legs.leg(self.delta, 1) @ self.delta, [d])
        check("left counit", self.eps.kron(ident) @ self.delta, ident, [d])
        check("right counit", ident.kron(self.eps) @ self.delta, ident, [d])
        check("comultiplication is an algebra map",
              self.delta @ self.mu,
              LegChain([d] * 4, f).perm([0, 2, 1, 3]).leg(self.mu, 0, 2).leg(self.mu, 1, 2)
              @ self.delta.kron(self.delta),
              [d, d])
        check("counit is an algebra map", self.eps @ self.mu, self.eps.kron(self.eps), [d, d])
        check("unit is grouplike", self.delta @ self.eta, self.eta.kron(self.eta), [1])
        check("counit of unit", self.eps @ self.eta,
              SparseMatrix.identity(1, f), [1])
        eta_eps = self.eta @ self.eps
        check("left antipode identity",
              legs.leg(self.antipode, 0).leg(self.mu, 0, 2) @ self.delta, eta_eps, [d])
        check("right antipode identity",
              legs.leg(self.antipode, 1).leg(self.mu, 0, 2) @ self.delta, eta_eps, [d])
        checks.append(
            AxiomCheck("antipode invertible", self.antipode_inv is not None,
                       None if self.antipode_inv is not None else "antipode matrix is singular")
        )
        return ValidationReport(checks)


# ---------------------------------------------------------------------------
# constructors


def group_algebra(group, field=QQ):
    """kG: basis the group elements, Delta(g) = g (x) g, S(g) = g^{-1}."""
    n = group.order
    one = field.one
    mult = {(i, j, group.mul(i, j)): one for i in range(n) for j in range(n)}
    comult = {(k, k, k): one for k in range(n)}
    counit = {k: one for k in range(n)}
    unit = {group.identity: one}
    antipode = SparseMatrix(n, n, field, {group.inv(j): {j: one} for j in range(n)})
    return HopfAlgebra(f"k[{group.name}]", field, list(group.names), mult, unit,
                       comult, counit, antipode,
                       generator_indices=group.generators or [group.identity])


def function_algebra(group, field=QQ):
    """O(G): delta functions with pointwise product and convolution coproduct."""
    n = group.order
    one = field.one
    mult = {(i, i, i): one for i in range(n)}
    unit = {i: one for i in range(n)}
    comult = {}
    for a in range(n):
        for b in range(n):
            comult[(group.mul(a, b), a, b)] = one
    counit = {group.identity: one}
    antipode = SparseMatrix(n, n, field, {group.inv(j): {j: one} for j in range(n)})
    names = [f"d_{nm}" for nm in group.names]
    return HopfAlgebra(f"O({group.name})", field, names, mult, unit, comult, counit, antipode)


def sweedler_algebra(field=QQ):
    """The 4-dimensional algebra with basis 1, g, x, gx; g^2 = 1, x^2 = 0, xg = -gx."""
    one = field.one
    neg = field.neg(one)
    I, G, X, GX = 0, 1, 2, 3
    mult = {}
    for a in range(4):
        mult[(I, a, a)] = one
        if a != I:
            mult[(a, I, a)] = one
    mult.update({(G, G, I): one, (G, X, GX): one, (G, GX, X): one})
    mult.update({(X, G, GX): neg, (GX, G, X): neg})
    # x.x = x.gx = gx.x = gx.gx = 0
    unit = {I: one}
    comult = {
        (I, I, I): one,
        (G, G, G): one,
        (X, X, I): one,
        (X, G, X): one,
        (GX, GX, G): one,
        (GX, I, GX): one,
    }
    counit = {I: one, G: one}
    antipode = SparseMatrix(4, 4, field, {I: {I: one}, G: {G: one}, GX: {X: neg}, X: {GX: one}})
    return HopfAlgebra("H4", field, ["1", "g", "x", "gx"], mult, unit, comult, counit,
                       antipode, generator_indices=[G, X])


# ---------------------------------------------------------------------------
# quotient module coalgebras C = H / I


class QuotientModuleCoalgebra:
    """H/I for a coideal right ideal I, with the induced coalgebra structure.

    The section of ``space`` is the lift of H -> C fixed once and reused by
    every construction downstream; representative independence is always a
    theorem to be checked, never an assumption.
    """

    def __init__(self, parent, ideal, space):
        self.parent = parent
        self.ideal = ideal          # subspace of H
        self.space = space          # quotient subquotient H -> C
        self.dim = space.dim
        h = parent
        d, c, f = h.dim, self.dim, h.field
        p = space.projection
        # induced coalgebra structure: the descents are the hypotheses on I
        self.eps_c = _hypothesis(h.eps, space, SubquotientSpace.full(1, f),
                                 "ideal is not contained in the kernel of the counit")
        self.delta_c = _hypothesis(p.kron(p) @ h.delta, space,
                                   SubquotientSpace.full(c * c, f), "ideal is not a coideal")
        # right H-action on C induced by multiplication
        self.action = induced_map(
            p @ h.mu, space.tensor(SubquotientSpace.full(d, f)),
            SubquotientSpace.full(c, f),
        )
        self.onebar = p @ h.eta
        self._validate()

    def _validate(self):
        h, c, f = self.parent, self.dim, self.parent.field
        d = h.dim
        ident = SparseMatrix.identity(c, f)
        legs = LegChain([c, c], f)
        if not (legs.leg(self.delta_c, 0) @ self.delta_c
                == legs.leg(self.delta_c, 1) @ self.delta_c):
            raise HopfError("induced comultiplication is not coassociative")
        if not (self.eps_c.kron(ident) @ self.delta_c == ident
                and ident.kron(self.eps_c) @ self.delta_c == ident):
            raise HopfError("induced counit laws fail")
        # module coalgebra compatibility: Delta_C(c.h) = c_(1) h_(1) (x) c_(2) h_(2)
        rhs = LegChain([c, c, d, d], f).perm([0, 2, 1, 3]).leg(self.action, 0, 2) \
            .leg(self.action, 1, 2) @ self.delta_c.kron(h.delta)
        if not (self.delta_c @ self.action == rhs):
            raise HopfError("right action is not a module coalgebra structure")
        if not (self.eps_c @ self.action == self.eps_c.kron(h.eps)):
            raise HopfError("counit is not H-linear")
        # 1bar is grouplike
        if not (self.delta_c @ self.onebar == self.onebar.kron(self.onebar)):
            raise HopfError("class of 1 is not grouplike")
        if not (self.eps_c @ self.onebar).is_identity():
            raise HopfError("counit of the class of 1 is not 1")

    def __repr__(self):
        return f"QuotientModuleCoalgebra({self.parent.name}/I, dim={self.dim})"


def right_ideal_closure(h, generator_cols):
    """Span of the right ideal generated by the given columns of H."""
    current = span_columns(generator_cols)
    while True:
        products = h.mu @ current.section.kron(h.ident())  # every x e_j
        bigger = span_columns(SparseMatrix.hstack([current.section, products]))
        if bigger.dim == current.dim:
            return bigger
        current = bigger


def quotient_module_coalgebra(h, generator_cols):
    """Build H/I from ideal generators: saturate to a right ideal; the
    coideal conditions are checked, not forced, when the counit and the
    comultiplication descend (saturating the coalgebra side would silently
    change I)."""
    ideal = right_ideal_closure(h, generator_cols)
    return QuotientModuleCoalgebra(h, ideal, quotient_by_columns(h.dim, ideal.section))


def _hypothesis(f, dom, cod, failure):
    """``induced_map(f, dom, cod)``, whose NotWellDefined is the hypothesis
    ``failure`` on the given ideal or subalgebra."""
    try:
        return induced_map(f, dom, cod)
    except NotWellDefined:
        raise HypothesisError(failure) from None


# ---------------------------------------------------------------------------
# comodule subalgebras B, coinvariants, Takeuchi transforms


class ComoduleSubalgebra:
    """A left coideal subalgebra B of H, presented by a subspace with basis."""

    def __init__(self, parent, space):
        self.parent = parent
        self.space = space
        self.dim = space.dim
        h = parent
        d, f = h.dim, h.field
        # the hypotheses are restrictions: eta, mu and Delta (into H (x) B) stay in B
        self.unit_b = _hypothesis(h.eta, SubquotientSpace.full(1, f), space,
                                  "subalgebra does not contain 1")
        self.mult_b = _hypothesis(h.mu, space.tensor(space), space,
                                  "subspace is not closed under multiplication")
        self.coaction_b = _hypothesis(h.delta, space, SubquotientSpace.full(d, f).tensor(space),
                                      "subspace is not a left coideal")

    def __repr__(self):
        return f"ComoduleSubalgebra(dim={self.dim} in {self.parent.name})"


def trivial_subalgebra(h):
    return ComoduleSubalgebra(h, span_columns(h.eta))


def subalgebra_from_columns(h, cols):
    return ComoduleSubalgebra(h, span_columns(cols))


def coactions(h, c):
    """The coactions of C on D = H induced by Delta: h -> h_(1) (x) bar(h_(2))
    (D -> D (x) C) and h -> bar(h_(1)) (x) h_(2) (D -> C (x) D)."""
    legs = LegChain([h.dim, h.dim], h.field)
    p = c.space.projection
    return legs.leg(p, 1) @ h.delta, legs.leg(p, 0) @ h.delta


def coinvariants(h, c):
    """H^{co C} as the equalizer of h -> h_(1) (x) bar(h_(2)) and h -> h (x) bar(1)."""
    eq = equalizer(coactions(h, c)[0], h.ident().kron(c.onebar))
    return ComoduleSubalgebra(h, eq)


def iterated_coinvariance_ok(h, c, b, n):
    """b_(1) (x) ... (x) bar(b_(n+2)) = b_(1) (x) ... (x) b_(n+1) (x) bar(1)."""
    d = h.dim
    split = LegChain([d], h.field)               # b -> b_(1) (x) ... (x) b_(n+1)
    for k in range(n):
        split = split.leg(h.delta, k, 1, [d, d])
    lhs = split.leg(h.delta, n, 1, [d, d]).leg(c.space.projection, n + 1) @ b.space.section
    return lhs == (split @ b.space.section).kron(c.onebar)


def _bplus_cols(h, b):
    """B^+ = B intersect ker(eps), as columns of H."""
    return b.space.section @ kernel(h.eps @ b.space.section).section


def takeuchi_subalgebra_to_quotient(h, b):
    """B -> H / B^+ H where B^+ = B intersect ker(eps)."""
    return quotient_module_coalgebra(h, _bplus_cols(h, b))


def galois_criterion(h, b, c):
    """True iff the ideal of C equals B^+ H."""
    bh = right_ideal_closure(h, _bplus_cols(h, b))
    return bh.dim == c.ideal.dim and span_contains(c.ideal.section, bh.section)


# ---------------------------------------------------------------------------
# leg-by-leg structure-map chains
#
# An operator is a ``LegChain`` of structure matrices.  A coproduct factor
# is multiplied into the leg it belongs to as soon as it is split off, so
# a column carries one leg per factor still to be placed, never the whole
# Sweedler expansion.  Coassociativity makes the order of splitting
# irrelevant, and the arithmetic is exact.


def _link(h):
    """a (x) b -> a S(b_(1)) (x) b_(2), as a matrix on H (x) H."""
    d = h.dim
    return LegChain([d, d], h.field).leg(h.delta, 1, 1, [d, d]).leg(h.antipode, 1) \
        .leg(h.mu, 0, 2).matrix()


def _carry(h):
    """p (x) r -> r_(1) (x) p r_(2), as a matrix on H (x) H."""
    d = h.dim
    return LegChain([d, d], h.field).leg(h.delta, 1, 1, [d, d]).perm([1, 0, 2]) \
        .leg(h.mu, 1, 2).matrix()


def _linked(h, chain, n):
    """Extend ``chain``, whose legs are (g^0, ..., g^n, ...), by
    (S(g^0_(1)), g^0_(2) S(g^1_(1)), ..., g^{n-1}_(2) S(g^n_(1)), g^n_(2), ...)."""
    d = h.dim
    chain = chain.leg(h.delta, 0, 1, [d, d]).leg(h.antipode, 0)
    link = _link(h)
    for j in range(1, n + 1):
        chain = chain.leg(link, j, 2, [d, d])
    return chain


def _absorb(h, chain, k, carry, split_last):
    """Extend ``chain`` by multiplying the coproduct pieces of leg k+1 into
    legs 0..k, on the right.

    Legs 0..k hold m, p_0, ..., p_{k-1} and leg k+1 holds e.  Afterwards
    leg 0 holds m e_(1) and leg j+1 holds p_j e_(j+2).  With
    ``split_last`` e has one piece more, e_(k+2), left as a new leg k+1.
    ``carry`` is ``_carry(h)``.
    """
    d = h.dim
    if split_last:
        chain = chain.leg(h.delta, k + 1, 1, [d, d])
    for j in range(k, 0, -1):
        chain = chain.leg(carry, j, 2, [d, d])
    return chain.leg(h.mu, 0, 2)


def _absorbed_legs(h, n):
    """h^0 (x) ... (x) h^n -> (h^0 h^1_(1) ... h^n_(1), h^1_(2) ... h^n_(2),
    ..., h^n_(n+1)), as a chain on H^{(x) n+1}."""
    chain = LegChain([h.dim] * (n + 1), h.field)
    carry = _carry(h)
    for i in range(1, n + 1):
        chain = _absorb(h, chain, i - 1, carry, split_last=True)
    return chain


# ---------------------------------------------------------------------------
# tensor powers over B and the canonical map


def tensor_powers_over_b(h, b, legs):
    """[H^{(x)_B k} for k = 1..legs], built in one pass: each stage is a
    coequalizer on the one before, a quotient of H^{(x) k} over the full
    tensor-power ambient."""
    d, f = h.dim, h.field
    mults = _b_multiplications(h, b)
    if not mults:
        return [SubquotientSpace.full(d ** k, f) for k in range(1, legs + 1)]
    stages = [SubquotientSpace.full(d, f)]
    for k in range(1, legs):
        space = stages[-1]
        amb = space.tensor(SubquotientSpace.full(d, f))
        rels = []
        for right, left in mults:
            rb = _b_descended(LegChain([d] * k, f).leg(right, k - 1), space)
            ident_r = SparseMatrix.identity(space.dim, f)
            ident_d = SparseMatrix.identity(d, f)
            rels.append(rb.kron(ident_d) - ident_r.kron(left))
        stages.append(amb.then(quotient_by_columns(space.dim * d, SparseMatrix.hstack(rels))))
    return stages


def tensor_power_over_b(h, b, legs):
    """H^{(x)_B legs}, the last stage of ``tensor_powers_over_b``."""
    return tensor_powers_over_b(h, b, legs)[-1]


def commutator_quotient(h, b, space, legs):
    """[X]_B: quotient of X = H^{(x)_B legs} by right-minus-left B-action."""
    d, f = h.dim, h.field
    rels = []
    chain = LegChain([d] * legs, f)
    for right, left in _b_multiplications(h, b):
        rels.append(_b_descended(chain.leg(right, legs - 1), space)
                    - _b_descended(chain.leg(left, 0), space))
    if not rels:
        return space
    return space.then(quotient_by_columns(space.dim, SparseMatrix.hstack(rels)))


def _b_descended(chain, space):
    """A B-multiplication ``chain`` descended to ``space`` as a matrix: by
    ``induced_table`` in the first orientation that has tables, otherwise
    by ``induced_map``."""
    for by_rows in (False, True):
        tb = induced_table(chain, space, space, by_rows)
        if tb is not None:
            return tb.matrix()
    return induced_map(chain, space, space)


def _b_multiplications(h, b):
    """(right, left) multiplication matrices of each basis column of B.

    A column whose two matrices are both the identity is 1, and every
    relation it gives, x.1 - 1.x in some leg, is zero; it is left out.
    """
    bcols = b.space.section
    mults = []
    for jb in range(bcols.cols):
        bvec = bcols.column(jb)
        right, left = h.right_mult_matrix(bvec), h.left_mult_matrix(bvec)
        if not (right.is_identity() and left.is_identity()):
            mults.append((right, left))
    return mults


def canonical_map_n(h, b, c, n):
    """The degree-n canonical map and its inverse, as matrices on reduced
    coordinates between H^{(x)_B n+1} and H (x) C^{(x) n}.

    Raises NotGalois when the two are not mutually inverse bijections.
    """
    if n < 1:
        raise HopfError("canonical map needs degree n >= 1")
    d, cdim, f = h.dim, c.dim, h.field
    dom = tensor_power_over_b(h, b, n + 1)
    tdim = d * cdim ** n

    # forward: m (x) h^1 ... h^n -> m h^1_(1)...h^n_(1) (x) bar(h^1_(2)...h^n_(2)) (x) ...
    chain = _absorbed_legs(h, n)
    for j in range(1, n + 1):
        chain = chain.leg(c.space.projection, j)
    can = induced_map(chain, dom, SubquotientSpace.full(tdim, f))

    # inverse: m (x) bar g^1 (x) ... -> m S(g^1_(1)) (x) g^1_(2) S(g^2_(1)) (x) ...
    chain = LegChain([d] + [cdim] * n, f)
    for j in range(1, n + 1):
        chain = chain.leg(c.space.section, j)
    link = _link(h)
    for j in range(n):
        chain = chain.leg(link, j, 2, [d, d])
    can_inv = induced_map(chain, SubquotientSpace.full(tdim, f), dom)

    if not (can @ can_inv).is_identity() or not (can_inv @ can).is_identity():
        raise NotGalois(f"canonical map in degree {n} is not bijective")
    return can, can_inv, dom


def translation_map(h, b, c):
    """tau(bar h) = S(h_(1)) (x)_B h_(2); independence of the lift is its
    descent from H to C = H/I: tau kills the whole ideal."""
    d = h.dim
    chain = LegChain([d], h.field).leg(h.delta, 0, 1, [d, d]).leg(h.antipode, 0)
    try:
        return induced_map(chain, c.space, tensor_power_over_b(h, b, 2))
    except NotWellDefined:
        raise HopfError("translation map depends on the choice of representatives") from None


def cocanonical_map(h, b, c):
    """cocan: B (x) D -> D box_C D, b (x) d -> b d_(1) (x) d_(2); D = H here.

    Returns (matrix on reduced coordinates, cotensor subquotient, bijective flag).
    """
    d, f = h.dim, h.field
    cot = cotensor_square(h, c)
    chain = LegChain([b.dim, d], f).leg(b.space.section, 0).leg(h.delta, 1, 1, [d, d]) \
        .leg(h.mu, 0, 2)
    reduced = induced_map(chain, SubquotientSpace.full(b.dim * d, f), cot)
    bij = reduced.rows == reduced.cols and reduced.rank() == reduced.rows
    return reduced, cot, bij


def cotensor_square(h, c):
    """D box_C D inside D (x) D via the two induced coactions."""
    d = h.dim
    rho, lam = coactions(h, c)
    left = apply_on_leg(rho, [d, d], 0, 1)
    right = apply_on_leg(lam, [d, d], 1, 1)
    return equalizer(left, right)


# ---------------------------------------------------------------------------
# bundled Galois setup


@dataclass
class GaloisSetup:
    """A homogeneous quotient-Galois pair: B = H^{co H/I} inside H, C = H/I."""

    hopf: HopfAlgebra
    subalgebra: ComoduleSubalgebra
    quotient: QuotientModuleCoalgebra
    name: str = ""

    def __post_init__(self):
        if not self.name:
            self.name = f"{self.hopf.name}/B(dim {self.subalgebra.dim})"


def setup_from_subalgebra(h, cols, name=""):
    b = subalgebra_from_columns(h, cols)
    c = takeuchi_subalgebra_to_quotient(h, b)
    return GaloisSetup(h, b, c, name)


def setup_from_ideal(h, gen_cols, name=""):
    c = quotient_module_coalgebra(h, gen_cols)
    b = coinvariants(h, c)
    return GaloisSetup(h, b, c, name)
