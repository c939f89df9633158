"""The cyclic-homological transforms between the two sides of a
homogeneous Galois pair.

Three families of maps, all written on ambient tensor coordinates with
the fixed lift of H -> H/I and descended through ``induced_map`` (whose
descent check replaces the by-hand well-definedness computations):

* the mutually inverse pair between the Hopf-cyclic object of the quotient
  coalgebra with adjoint coefficients and the relative cyclic object of
  the algebra extension;
* its Pontryagin-dual pair between the Hopf-cyclic object of the comodule
  subalgebra with coadjoint coefficients and the coextension cyclic object;
* the normal-quotient (Hopf ideal) comparison map, which tensors with the
  B-commutator quotient of the adjoint coefficients over H/I instead of
  over H, together with the explicit identification showing it agrees
  with the second family's counterpart.

Every transform is a ``LegChain`` of structure matrices (``delta``,
``mu``, the antipode, the coaction of B, the lifts and projections of the
subquotients), applied by ``induced_map`` to the columns of the spaces it
descends between and never assembled over the whole ambient.  Each
coproduct factor is multiplied into its target leg as soon as it is split
off, so a column costs the sum of the coproduct sizes, not their product.
The one operator assembled (``matrix()``) is phi in
``normal_quotient_comparison``, which descends it twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclic import (
    CyclicModule,
    coext_cyclic,
    generator_actions,
    generator_relations,
    hopf_cyclic_coalgebra,
    hopf_cyclic_comodule_algebra,
    hopf_cyclic_spaces,
    relative_cyclic,
)
from .hopf import (
    AxiomCheck,
    NotHopfIdeal,
    ValidationReport,
    _absorb,
    _absorbed_legs,
    _carry,
    _linked,
    commutator_quotient,
)
from .linalg import (
    LegChain,
    NotWellDefined,
    SparseMatrix,
    SubquotientSpace,
    induced_map,
    quotient_by_columns,
)
from .sayd import ad_module, coad_module


@dataclass
class CyclicMap:
    """A degreewise map of cyclic modules; commutation is checked, not assumed."""

    source: CyclicModule
    target: CyclicModule
    components: dict  # n -> matrix
    name: str = ""


def check_cyclic_map(f):
    """Commutation with every face, degeneracy and cyclic operator, reported
    identity by identity (the i = 0, middle, i = n cases separately); a
    product with a component, a matrix, is a matrix."""
    checks = []
    N = min(f.source.n_max, f.target.n_max)
    for n in range(1, N + 1):
        for i in range(n + 1):
            kind = "first" if i == 0 else ("last" if i == n else "middle")
            checks.append(AxiomCheck(
                f"face d{i} ({kind}) @ {n}",
                f.components[n - 1] @ f.source.d[(n, i)]
                == f.target.d[(n, i)] @ f.components[n],
            ))
    for n in range(N):
        for j in range(n + 1):
            checks.append(AxiomCheck(
                f"degeneracy s{j} @ {n}",
                f.components[n + 1] @ f.source.s[(n, j)]
                == f.target.s[(n, j)] @ f.components[n],
            ))
    for n in range(N + 1):
        checks.append(AxiomCheck(
            f"cyclic t @ {n}",
            f.components[n] @ f.source.t[n] == f.target.t[n] @ f.components[n],
        ))
    return ValidationReport(checks)


def _mutually_inverse(fwd, bwd):
    for n in fwd.components:
        a, b = fwd.components[n], bwd.components[n]
        if not (a @ b).is_identity() or not (b @ a).is_identity():
            return False
    return True


# ---------------------------------------------------------------------------
# the module-coalgebra side: psi and phi


def _psi_ambient(h, c, n):
    """(bar g^0 ... bar g^n) (x) h -> g^n_(2) h S(g^0_(1)) (x) g^0_(2) S(g^1_(1)) (x) ...

    Uses the fixed lift of H/I into H; independence of the lift is exactly
    what the descent check certifies.
    """
    chain = LegChain([c.dim] * (n + 1) + [h.dim], h.field)
    for i in range(n + 1):
        chain = chain.leg(c.space.section, i)
    chain = _linked(h, chain, n)              # (S g^0_(1), legs 1..n, g^n_(2), h)
    chain = chain.perm([n + 1, n + 2, 0] + list(range(1, n + 1)))
    return chain.leg(h.mu, 0, 2).leg(h.mu, 0, 2)


def _phi_ambient(h, c, n):
    """h^0 (x)_B ... (x)_B h^n -> (bar(prod h^i_(2)) (x) ... (x) bar 1) (x)_H
    h^0 h^1_(1) ... h^n_(1)."""
    # (h^0 h^1_(1) ..., prod h^i_(2), ..., h^n_(n+1))
    chain = _absorbed_legs(h, n).perm(list(range(1, n + 1)) + [0])
    for j in range(n):
        chain = chain.leg(c.space.projection, j)
    return chain.leg(c.onebar, n, 0)


def module_coalgebra_transform(setup, n_max):
    """The isomorphism pair between C(H/I, ad(H))_H and C(H | B).

    Returns (to_relative, from_relative) as CyclicMaps; asserts they are
    mutually inverse degree by degree.
    """
    h, b, c = setup.hopf, setup.subalgebra, setup.quotient
    source = hopf_cyclic_coalgebra(c, ad_module(h), n_max)
    target = relative_cyclic(h, b, n_max)
    fwd, bwd = {}, {}
    for n in range(n_max + 1):
        fwd[n] = induced_map(_psi_ambient(h, c, n), source.spaces[n], target.spaces[n])
        bwd[n] = induced_map(_phi_ambient(h, c, n), target.spaces[n], source.spaces[n])
    psi = CyclicMap(source, target, fwd, name="to_relative")
    phi = CyclicMap(target, source, bwd, name="from_relative")
    if not _mutually_inverse(psi, phi):
        raise NotWellDefined("transform pair is not mutually inverse")
    return psi, phi


# ---------------------------------------------------------------------------
# the comodule-algebra side: gamma and its inverse


def _gamma_ambient(h, b, n):
    """h (x) b^0 ... b^n -> (prod_i b^i_(2) h_(2)) (x) ... (x) b^0 b^1_(1) ... h_(1)."""
    chain = LegChain([h.dim] + [b.dim] * (n + 1), h.field)
    chain = chain.perm(list(range(1, n + 2)) + [0])                  # (b^0, ..., b^n, h)
    carry = _carry(h)
    chain = chain.leg(b.space.section, 0)
    for i in range(1, n + 1):
        chain = chain.leg(b.space.section, i)
        chain = _absorb(h, chain, i - 1, carry, split_last=True)
    chain = _absorb(h, chain, n, carry, split_last=False)
    return chain.perm(list(range(1, n + 1)) + [0])


def _gamma_inv_ambient(h, n):
    """h^0 ... h^n -> h^n_(2) (x) h^n_(3) S(h^0_(1)) (x) h^0_(2) S(h^1_(1)) (x) ...

    A chain into H^{(x) n+2}: its last n + 1 legs land in B only on the
    coextension subspace, which ``induced_map`` checks against the codomain.
    """
    d = h.dim
    chain = _linked(h, LegChain([d] * (n + 1), h.field), n)  # (S h^0_(1), legs 2..n+1, h^n_(2))
    chain = chain.leg(h.delta, n + 1, 1, [d, d]).perm([n + 1, n + 2, 0] + list(range(1, n + 1)))
    return chain.leg(h.mu, 1, 2)


def comodule_algebra_transform(setup, n_max):
    """The isomorphism pair between C(B, coad(H))^H and C(H | H/B+H)."""
    h, b, c = setup.hopf, setup.subalgebra, setup.quotient
    source = hopf_cyclic_comodule_algebra(h, b, coad_module(h), n_max)
    target = coext_cyclic(h, c, n_max)
    legs = SubquotientSpace.full(h.dim, h.field)  # H (x) B^{(x) n+1} inside H^{(x) n+2}
    fwd, bwd = {}, {}
    for n in range(n_max + 1):
        legs = legs.tensor(b.space)
        fwd[n] = induced_map(_gamma_ambient(h, b, n), source.spaces[n], target.spaces[n])
        # one restriction check: into the B-legs and into the equalizer
        bwd[n] = induced_map(_gamma_inv_ambient(h, n), target.spaces[n],
                             legs.then(source.spaces[n]))
    gamma = CyclicMap(source, target, fwd, name="to_coextension")
    gamma_inv = CyclicMap(target, source, bwd, name="from_coextension")
    if not _mutually_inverse(gamma, gamma_inv):
        raise NotWellDefined("dual transform pair is not mutually inverse")
    return gamma, gamma_inv


# ---------------------------------------------------------------------------
# the normal-quotient comparison


def is_hopf_ideal(h, c):
    """Whether the coideal right ideal I of C = H/I is a Hopf ideal: S(I) is
    in I exactly when pi S descends through pi: H -> H/I, and H I is in I
    exactly when pi mu descends from H (x) H/I."""
    f, p = h.field, c.space.projection
    full = SubquotientSpace.full(c.dim, f)
    try:
        induced_map(p @ h.antipode, c.space, full)
        induced_map(p @ h.mu, SubquotientSpace.full(h.dim, f).tensor(c.space), full)
    except NotWellDefined:
        return False
    return True


def normal_quotient_comparison(setup, n_max):
    """The comparison map into (H/I)^{(x) n+1} (x)_{H/I} [ad(H)]_B.

    Requires I to be a Hopf ideal (raises NotHopfIdeal otherwise).  Returns
    (components, identification, target_spaces) where ``identification``
    maps the comparison target isomorphically onto the adjoint-coefficient
    target, intertwining the two transforms; the coincidence is asserted.
    """
    h, b, c = setup.hopf, setup.subalgebra, setup.quotient
    f = h.field
    d, cd = h.dim, c.dim
    if not is_hopf_ideal(h, c):
        raise NotHopfIdeal(f"{setup.name}: ideal is not two-sided and antipode-stable")
    adb = commutator_quotient(h, b, SubquotientSpace.full(d, f), 1)  # [ad(H)]_B
    # Miyashita-Ulbrich style action of H/I on [ad(H)]_B: descend the adjoint
    # action of a lift; well-definedness is the Hopf-ideal hypothesis at work.
    m = ad_module(h)
    mu_action = [induced_map(act, adb, adb) for act in generator_actions(h, m)]

    rel_spaces = []
    for n in range(n_max + 1):
        legdim = cd ** (n + 1)
        amb = SubquotientSpace.full(legdim, f).tensor(adb)
        stage = quotient_by_columns(legdim * adb.dim, generator_relations(c, n + 1, mu_action))
        rel_spaces.append(amb.then(stage))

    source = relative_cyclic(h, b, n_max)
    coeff_spaces = hopf_cyclic_spaces(c, m, n_max)
    comparison = {}
    ident_maps = {}
    for n in range(n_max + 1):
        amb = _phi_ambient(h, c, n).matrix()  # descended twice
        comparison[n] = induced_map(amb, source.spaces[n], rel_spaces[n])
        ident_amb = SparseMatrix.identity(cd ** (n + 1) * d, f)
        j_fwd = induced_map(ident_amb, rel_spaces[n], coeff_spaces[n])
        j_bwd = induced_map(ident_amb, coeff_spaces[n], rel_spaces[n])
        if not (j_fwd @ j_bwd).is_identity() or not (j_bwd @ j_fwd).is_identity():
            raise NotWellDefined("coefficient identification is not invertible")
        ident_maps[n] = j_fwd
        phi_n = induced_map(amb, source.spaces[n], coeff_spaces[n])
        if not (ident_maps[n] @ comparison[n] == phi_n):
            raise NotWellDefined("comparison map does not match the adjoint transform")
    return comparison, ident_maps, rel_spaces
