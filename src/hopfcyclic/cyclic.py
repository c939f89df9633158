"""Truncated cyclic and cocyclic modules and the six concrete constructions.

A CyclicModule holds degrees 0..n_max of a cyclic object: per-degree space
presentations plus face, degeneracy and cyclic operators on reduced
coordinates.  All concrete operators are written on ambient tensor
coordinates and pushed through ``induced_map``; its descent/restriction
check is the machine substitute for the by-hand well-definedness proofs.

Truncation semantics: Hochschild homology is trusted up to n_max - 1 and
cyclic homology up to n_max - 2, since the boundary at degree n consumes
degree n and the Connes boundary reaches one degree further.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .hopf import AxiomCheck, HopfError, ValidationReport
from .linalg import (
    NotWellDefined,
    SparseMatrix,
    SubquotientSpace,
    apply_on_leg,
    equalizer,
    induced_map,
    inverse,
    kernel,
    leg_map,
    permutation_matrix,
    permute_legs,
    quotient_by_columns,
)


class TruncationError(HopfError):
    pass


@dataclass
class CyclicModule:
    """Degrees 0..n_max with faces d[n][i], degeneracies s[n][j], cyclic t[n]."""

    n_max: int
    spaces: list
    d: dict      # (n, i) -> matrix C_n -> C_{n-1}, 1 <= n, 0 <= i <= n
    s: dict      # (n, j) -> matrix C_n -> C_{n+1}, n < n_max, 0 <= j <= n
    t: dict      # n -> matrix C_n -> C_n
    name: str = ""

    def dims(self):
        return [sp.dim for sp in self.spaces]


@dataclass
class CocyclicModule:
    """Degrees 0..n_max with cofaces delta[n][i], codegeneracies sigma[n][j],
    cocyclic tau[n]."""

    n_max: int
    spaces: list
    delta: dict  # (n, i) -> matrix C^n -> C^{n+1}, n < n_max, 0 <= i <= n+1
    sigma: dict  # (n, j) -> matrix C^n -> C^{n-1}, 1 <= n, 0 <= j <= n-1
    tau: dict    # n -> matrix C^n -> C^n
    name: str = ""

    def dims(self):
        return [sp.dim for sp in self.spaces]


# ---------------------------------------------------------------------------
# identity checkers


def check_identities(x):
    if isinstance(x, CyclicModule):
        return check_cyclic_identities(x)
    return check_cocyclic_identities(x)


def check_cyclic_identities(cm):
    """All simplicial and cyclic identities valid within the truncation."""
    checks = []

    def eq(name, lhs, rhs):
        checks.append(AxiomCheck(name, lhs == rhs))

    N = cm.n_max
    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                eq(f"d{i} d{j} = d{j-1} d{i} @ {n}",
                   cm.d[(n - 1, i)] @ cm.d[(n, j)], cm.d[(n - 1, j - 1)] @ cm.d[(n, i)])
    for n in range(N - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                eq(f"s{i} s{j} = s{j+1} s{i} @ {n}",
                   cm.s[(n + 1, i)] @ cm.s[(n, j)], cm.s[(n + 1, j + 1)] @ cm.s[(n, i)])
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = cm.d[(n + 1, i)] @ cm.s[(n, j)]
                if i < j:
                    rhs = cm.s[(n - 1, j - 1)] @ cm.d[(n, i)]
                elif i in (j, j + 1):
                    rhs = SparseMatrix.identity(cm.spaces[n].dim, lhs.field)
                else:
                    rhs = cm.s[(n - 1, j)] @ cm.d[(n, i - 1)]
                eq(f"d{i} s{j} @ {n}", lhs, rhs)
    for n in range(N + 1):
        power = SparseMatrix.identity(cm.spaces[n].dim, cm.t[n].field)
        for _ in range(n + 1):
            power = cm.t[n] @ power
        eq(f"t^{n+1} = id @ {n}", power, SparseMatrix.identity(cm.spaces[n].dim, cm.t[n].field))
    for n in range(1, N + 1):
        eq(f"d0 t = d{n} @ {n}", cm.d[(n, 0)] @ cm.t[n], cm.d[(n, n)])
        for i in range(1, n + 1):
            eq(f"d{i} t = t d{i-1} @ {n}",
               cm.d[(n, i)] @ cm.t[n], cm.t[n - 1] @ cm.d[(n, i - 1)])
    for n in range(N):
        eq(f"s0 t = t^2 s{n} @ {n}",
           cm.s[(n, 0)] @ cm.t[n], cm.t[n + 1] @ cm.t[n + 1] @ cm.s[(n, n)])
        for i in range(1, n + 1):
            eq(f"s{i} t = t s{i-1} @ {n}",
               cm.s[(n, i)] @ cm.t[n], cm.t[n + 1] @ cm.s[(n, i - 1)])
    return ValidationReport(checks)


def check_cocyclic_identities(ccm):
    checks = []

    def eq(name, lhs, rhs):
        checks.append(AxiomCheck(name, lhs == rhs))

    N = ccm.n_max
    for n in range(N - 1):
        for j in range(n + 3):
            for i in range(min(j, n + 2)):
                eq(f"delta{j} delta{i} = delta{i} delta{j-1} @ {n}",
                   ccm.delta[(n + 1, j)] @ ccm.delta[(n, i)],
                   ccm.delta[(n + 1, i)] @ ccm.delta[(n, j - 1)])
    for n in range(2, N + 1):
        for j in range(n - 1):
            for i in range(j + 1):
                eq(f"sigma{j} sigma{i} = sigma{i} sigma{j+1} @ {n}",
                   ccm.sigma[(n - 1, j)] @ ccm.sigma[(n, i)],
                   ccm.sigma[(n - 1, i)] @ ccm.sigma[(n, j + 1)])
    for n in range(N):
        for i in range(n + 2):
            for j in range(n + 1):
                lhs = ccm.sigma[(n + 1, j)] @ ccm.delta[(n, i)]
                if i < j:
                    rhs = ccm.delta[(n - 1, i)] @ ccm.sigma[(n, j - 1)]
                elif i in (j, j + 1):
                    rhs = SparseMatrix.identity(ccm.spaces[n].dim, lhs.field)
                else:
                    rhs = ccm.delta[(n - 1, i - 1)] @ ccm.sigma[(n, j)]
                eq(f"sigma{j} delta{i} @ {n}", lhs, rhs)
    for n in range(N + 1):
        power = SparseMatrix.identity(ccm.spaces[n].dim, ccm.tau[n].field)
        for _ in range(n + 1):
            power = ccm.tau[n] @ power
        eq(f"tau^{n+1} = id @ {n}", power,
           SparseMatrix.identity(ccm.spaces[n].dim, ccm.tau[n].field))
    for n in range(N):
        eq(f"tau delta0 = delta{n+1} @ {n}",
           ccm.tau[n + 1] @ ccm.delta[(n, 0)], ccm.delta[(n, n + 1)])
        for i in range(1, n + 2):
            eq(f"tau delta{i} = delta{i-1} tau @ {n}",
               ccm.tau[n + 1] @ ccm.delta[(n, i)], ccm.delta[(n, i - 1)] @ ccm.tau[n])
    for n in range(1, N + 1):
        eq(f"sigma0-tau @ {n}",
           ccm.tau[n - 1] @ ccm.sigma[(n, 0)],
           ccm.sigma[(n, n - 1)] @ ccm.tau[n] @ ccm.tau[n])
        for j in range(1, n):
            eq(f"tau sigma{j} = sigma{j-1} tau @ {n}",
               ccm.tau[n - 1] @ ccm.sigma[(n, j)], ccm.sigma[(n, j - 1)] @ ccm.tau[n])
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# construction 1: relative cyclic object of the algebra extension B -> H


def relative_cyclic(h, b, n_max):
    """C_n(H|B) = [H^{(x)_B n+1}]_B with multiplication faces, unit
    degeneracies, and rotation."""
    from .hopf import commutator_quotient, tensor_power_over_b

    d, f = h.dim, h.field
    spaces = []
    for n in range(n_max + 1):
        x = tensor_power_over_b(h, b, n + 1)
        spaces.append(commutator_quotient(h, b, x, n + 1))
    dops, sops, tops = {}, {}, {}
    for n in range(n_max + 1):
        dims = [d] * (n + 1)
        rot = permutation_matrix(dims, [n] + list(range(n)), f)
        tops[n] = induced_map(rot, spaces[n], spaces[n])
        if n >= 1:
            for i in range(n):
                amb = apply_on_leg(h.mu, dims, i, 2)
                dops[(n, i)] = induced_map(amb, spaces[n], spaces[n - 1])
            amb = apply_on_leg(h.mu, [d] * (n + 1), 0, 2) @ rot
            dops[(n, n)] = induced_map(amb, spaces[n], spaces[n - 1])
        if n < n_max:
            for j in range(n + 1):
                amb = apply_on_leg(h.eta, dims, j + 1, 0)
                sops[(n, j)] = induced_map(amb, spaces[n], spaces[n + 1])
    return CyclicModule(n_max, spaces, dops, sops, tops, name=f"C(H|B) {h.name}")


# ---------------------------------------------------------------------------
# constructions 2a/2b: the coextension (co)cyclic objects of H -> C


def coextension_space(h, c, legs):
    """(D^{box_C legs})^C inside D^{(x) legs}: cotensor junction conditions
    plus the bicomodule invariance condition.

    Built one leg at a time; conditions at earlier junctions survive the
    tensor-with-D step, so each stage only has to intersect with the
    newest junction, keeping the eliminations small.
    """
    d, f = h.dim, h.field
    rho = apply_on_leg(c.space.projection, [d, d], 1) @ h.delta   # d -> (D, C)
    lam = apply_on_leg(c.space.projection, [d, d], 0) @ h.delta   # d -> (C, D)
    space = SubquotientSpace.full(d, f)
    for k in range(1, legs):
        amb = space.tensor(SubquotientSpace.full(d, f))
        dims = [d] * (k + 1)
        cond = apply_on_leg(rho, dims, k - 1) - apply_on_leg(lam, dims, k)
        space = amb.then(kernel(cond @ amb.section))
    dims = [d] * legs
    right = apply_on_leg(rho, dims, legs - 1)        # C-leg appended at the end
    left = apply_on_leg(lam, dims, 0)                # C-leg in front
    out_dims = [c.dim] + dims
    tail = permutation_matrix(out_dims, list(range(1, legs + 1)) + [0], f)
    inv_cond = (right - tail @ left) @ space.section
    return space.then(kernel(inv_cond))


def coext_cyclic(h, c, n_max, spaces=None):
    """Cyclic module on (D^{box_C n+1})^C: counit faces, comultiplication
    degeneracies, rotation moving the last tensorand to the front."""
    d, f = h.dim, h.field
    if spaces is None:
        spaces = [coextension_space(h, c, n + 1) for n in range(n_max + 1)]
    dops, sops, tops = {}, {}, {}
    for n in range(n_max + 1):
        dims = [d] * (n + 1)
        rot = permutation_matrix(dims, [n] + list(range(n)), f)
        tops[n] = induced_map(rot, spaces[n], spaces[n])
        if n >= 1:
            for i in range(n + 1):
                amb = apply_on_leg(h.eps, dims, i)
                dops[(n, i)] = induced_map(amb, spaces[n], spaces[n - 1])
        if n < n_max:
            for j in range(n + 1):
                amb = apply_on_leg(h.delta, dims, j)
                sops[(n, j)] = induced_map(amb, spaces[n], spaces[n + 1])
    return CyclicModule(n_max, spaces, dops, sops, tops, name=f"C({h.name}|C)")


def relative_cocyclic_coext(h, c, n_max, spaces=None):
    """Cocyclic module on the same spaces: comultiplication cofaces (with
    the wrap-around coface), counit codegeneracies, left rotation."""
    d, f = h.dim, h.field
    if spaces is None:
        spaces = [coextension_space(h, c, n + 1) for n in range(n_max + 1)]
    delta, sigma, tau = {}, {}, {}
    for n in range(n_max + 1):
        dims = [d] * (n + 1)
        rotl = permutation_matrix(dims, list(range(1, n + 1)) + [0], f)
        tau[n] = induced_map(rotl, spaces[n], spaces[n])
        if n < n_max:
            for i in range(n + 1):
                amb = apply_on_leg(h.delta, dims, i)
                delta[(n, i)] = induced_map(amb, spaces[n], spaces[n + 1])
            wrap = permutation_matrix([d] * (n + 2), list(range(1, n + 2)) + [0], f) \
                @ apply_on_leg(h.delta, dims, 0)
            delta[(n, n + 1)] = induced_map(wrap, spaces[n], spaces[n + 1])
        if n >= 1:
            for j in range(n):
                amb = apply_on_leg(h.eps, dims, j + 1)
                sigma[(n, j)] = induced_map(amb, spaces[n], spaces[n - 1])
    return CocyclicModule(n_max, spaces, delta, sigma, tau, name=f"C^({h.name}|C)")


# ---------------------------------------------------------------------------
# constructions 3a/3b: Hopf-cyclic objects of the module coalgebra C


def diagonal_action(c, legs):
    """Diagonal right action C^{(x) legs} (x) H -> C^{(x) legs},
    (c^1 ... c^k) (x) g -> c^1 g_(1) (x) ... (x) c^k g_(k)."""
    return _diagonal_act(c, SparseMatrix.identity(c.dim ** legs * c.parent.dim, c.parent.field),
                         legs)


def _diagonal_act(c, x, legs):
    """The diagonal action applied to a column set x on C^{(x) legs} (x) H.

    The H-leg is carried from the last algebra leg to the first, leaving
    one coproduct factor in each; its last piece is consumed by the counit.
    """
    h = c.parent
    d, cd = h.dim, c.dim
    # carry: c (x) g -> g_(1) (x) c g_(2)
    y, dims = leg_map(h.delta, SparseMatrix.identity(cd * d, h.field), [cd, d], 1,
                      out_dims=[d, d])
    y, dims = permute_legs(y, dims, [1, 0, 2])
    carry = leg_map(c.action, y, dims, 1, 2)[0]
    dims = [cd] * legs + [d]
    for k in reversed(range(legs)):
        x, dims = leg_map(carry, x, dims, k, 2, [d, cd])
    return leg_map(h.eps, x, dims, 0, out_dims=[])[0]


def generator_relations(c, legs, acts):
    """Columns x (x) g.m - x.g (x) m spanning the relations of
    C^{(x) legs} (x)_H M, one block for each algebra generator g of H;
    ``acts[j]`` is the action on M of the j-th column of ``generator_matrix()``.

    The coefficient term comes first: ``quotient_by_columns`` meets the
    relations in the order their entries first appear, and this order needs
    far fewer pivot rescalings than the reverse (none on kC2/k, kC3/k and
    kS3/k up to degree 4).
    """
    h, f = c.parent, c.parent.field
    ident_legs = SparseMatrix.identity(c.dim ** legs, f)
    gens = h.generator_matrix()
    rels = []
    for j, act in enumerate(acts):
        right = _diagonal_act(c, ident_legs.kron(gens.column(j)), legs)
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


def _coalgebra_cyclic_rotation(c, m, n):
    """(c^0 ... c^n) (x) m -> (c^n . m_(1) (x) c^0 ... c^{n-1}) (x) m_(0)."""
    h = c.parent
    d, cd, md, f = h.dim, c.dim, m.dim, h.field
    dims = [cd] * (n + 1) + [md]
    step = apply_on_leg(m.coaction, dims, n + 1)       # (c^0..c^n, m0, m1)
    dims2 = [cd] * (n + 1) + [md, d]
    perm = permutation_matrix(dims2, [n, n + 2] + list(range(n)) + [n + 1], f)
    step = perm @ step                                  # (c^n, h, c^0..c^{n-1}, m0)
    dims3 = [cd, d] + [cd] * n + [md]
    return apply_on_leg(c.action, dims3, 0, 2) @ step


def hopf_cyclic_coalgebra(c, m, n_max, spaces=None):
    """Cyclic module C_n(C, M)_H: counit faces, coproduct degeneracies, and
    the coefficient-twisted rotation."""
    h = c.parent
    cd, md, f = c.dim, m.dim, h.field
    if spaces is None:
        spaces = hopf_cyclic_spaces(c, m, n_max)
    dops, sops, tops = {}, {}, {}
    for n in range(n_max + 1):
        dims = [cd] * (n + 1) + [md]
        tops[n] = induced_map(_coalgebra_cyclic_rotation(c, m, n), spaces[n], spaces[n])
        if n >= 1:
            for i in range(n + 1):
                amb = apply_on_leg(c.eps_c, dims, i)
                dops[(n, i)] = induced_map(amb, spaces[n], spaces[n - 1])
        if n < n_max:
            for j in range(n + 1):
                amb = apply_on_leg(c.delta_c, dims, j)
                sops[(n, j)] = induced_map(amb, spaces[n], spaces[n + 1])
    return CyclicModule(n_max, spaces, dops, sops, tops, name=f"C(C,{m.name})_H")


def hopf_cocyclic_coalgebra(c, m, n_max, spaces=None):
    """Cocyclic module on the same spaces; the wrap-around coface and the
    cocyclic operator twist by the inverse antipode on the coefficients."""
    h = c.parent
    d, cd, md, f = h.dim, c.dim, m.dim, h.field
    if h.antipode_inv is None:
        raise HopfError("cocyclic construction needs an invertible antipode")
    if spaces is None:
        spaces = hopf_cyclic_spaces(c, m, n_max)

    def twisted_rotation(n):
        # (c^0 ... c^n) (x) m -> (c^1 ... c^n (x) c^0 . S^{-1}(m_(1))) (x) m_(0)
        dims = [cd] * (n + 1) + [md]
        step = apply_on_leg(m.coaction, dims, n + 1)
        dims2 = [cd] * (n + 1) + [md, d]
        step = apply_on_leg(h.antipode_inv, dims2, n + 2) @ step
        perm = permutation_matrix(dims2, list(range(1, n + 1)) + [0, n + 2, n + 1], f)
        step = perm @ step                              # (c^1..c^n, c^0, S^{-1}m1, m0)
        dims3 = [cd] * n + [cd, d, md]
        return apply_on_leg(c.action, dims3, n, 2) @ step

    delta, sigma, tau = {}, {}, {}
    for n in range(n_max + 1):
        dims = [cd] * (n + 1) + [md]
        tau[n] = induced_map(twisted_rotation(n), spaces[n], spaces[n])
        if n < n_max:
            for i in range(n + 1):
                amb = apply_on_leg(c.delta_c, dims, i)
                delta[(n, i)] = induced_map(amb, spaces[n], spaces[n + 1])
            # delta_{n+1} = tau_{n+1} after inserting at the front:
            # (c^0_(2) (x) c^1 ... c^n (x) c^0_(1) S^{-1}(m_(1))) (x) m_(0)
            step = apply_on_leg(m.coaction, dims, n + 1)
            dims2 = [cd] * (n + 1) + [md, d]
            step = apply_on_leg(h.antipode_inv, dims2, n + 2) @ step
            step = apply_on_leg(c.delta_c, dims2, 0) @ step
            dims3 = [cd, cd] + [cd] * n + [md, d]
            perm = permutation_matrix(
                dims3, [1] + list(range(2, n + 2)) + [0, n + 3, n + 2], f
            )
            step = perm @ step                          # (c^0_2, c^1.., c^0_1, S^-1 m1, m0)
            dims4 = [cd] * (n + 1) + [cd, d, md]
            delta[(n, n + 1)] = induced_map(
                apply_on_leg(c.action, dims4, n + 1, 2) @ step, spaces[n], spaces[n + 1]
            )
        if n >= 1:
            for j in range(n):
                amb = apply_on_leg(c.eps_c, dims, j + 1)
                sigma[(n, j)] = induced_map(amb, spaces[n], spaces[n - 1])
    return CocyclicModule(n_max, spaces, delta, sigma, tau, name=f"C^(C,{m.name})_H")


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
    x, dims = leg_map(b.coaction_b, SparseMatrix.identity(d * bd, f), [d, bd], 1,
                      out_dims=[d, bd])
    x, dims = leg_map(h.mu, x, dims, 0, 2)
    carry = permute_legs(x, dims, [1, 0])[0]
    x, dims = leg_map(h.eta, SparseMatrix.identity(bd ** legs, f), [bd] * legs, 0, 0)
    for k in range(legs):
        x, dims = leg_map(carry, x, dims, k, 2, [bd, d])
    return permute_legs(x, dims, [legs] + list(range(legs)))[0]


def comodule_algebra_space(h, b, m, n):
    """M box_H B^{(x) n+1}: the coefficients' cotensor coaction matched
    against the diagonal left coaction of the algebra legs."""
    f = h.field
    bd, md = b.dim, m.dim
    legs = n + 1
    dims = [md] + [bd] * legs
    if m.cotensor_coaction is None:
        raise HopfError("coefficients carry no cotensor coaction")
    side_m = apply_on_leg(m.cotensor_coaction, dims, 0)  # (m0, m1, b...)
    lam_diag = _diagonal_coaction_columns(h, b, legs)
    side_b = apply_on_leg(lam_diag, dims, 1, legs)       # (m, h, b...)
    return equalizer(side_m, side_b)


def hopf_cyclic_comodule_algebra(h, b, m, n_max, spaces=None):
    """Cyclic module C_n(B, M)^H = M box_H B^{(x) n+1}.

    Faces multiply adjacent algebra legs; the last face and the cyclic
    operator rotate the last leg through the coefficients using its
    coaction and the module's operator action.
    """
    f = h.field
    d, bd, md = h.dim, b.dim, m.dim
    if m.operator_action is None:
        raise HopfError("coefficients need an operator action for this construction")
    if spaces is None:
        spaces = [comodule_algebra_space(h, b, m, n) for n in range(n_max + 1)]
    unit_b = b.space.projection @ h.eta

    def last_leg_rotation(n, with_mult):
        legs = n + 1
        dims = [md] + [bd] * legs
        step = apply_on_leg(b.coaction_b, dims, legs)   # (m, b0..b^{n-1}, h, b^n)
        dims2 = [md] + [bd] * n + [d, bd]
        perm = permutation_matrix(
            dims2, [n + 1, 0, n + 2] + list(range(1, n + 1)), f
        )
        step = perm @ step                              # (h, m, b^n, b0..b^{n-1})
        dims3 = [d, md, bd] + [bd] * n
        step = apply_on_leg(m.operator_action, dims3, 0, 2) @ step
        if not with_mult:
            return step
        dims4 = [md, bd, bd] + [bd] * (n - 1)
        return apply_on_leg(b.mult_b, dims4, 1, 2) @ step

    dops, sops, tops = {}, {}, {}
    for n in range(n_max + 1):
        dims = [md] + [bd] * (n + 1)
        tops[n] = induced_map(last_leg_rotation(n, False), spaces[n], spaces[n])
        if n >= 1:
            for i in range(n):
                amb = apply_on_leg(b.mult_b, dims, i + 1, 2)
                dops[(n, i)] = induced_map(amb, spaces[n], spaces[n - 1])
            dops[(n, n)] = induced_map(last_leg_rotation(n, True), spaces[n], spaces[n - 1])
        if n < n_max:
            for j in range(n + 1):
                amb = apply_on_leg(unit_b, dims, j + 2, 0)
                sops[(n, j)] = induced_map(amb, spaces[n], spaces[n + 1])
    return CyclicModule(n_max, spaces, dops, sops, tops, name=f"C(B,{m.name})^H")


# ---------------------------------------------------------------------------
# cyclic duality


def cyclic_dual(ccm):
    """Connes' duality dictionary: d_i = sigma_{i-1}, d_0 = sigma_{m-1} tau,
    s_j = delta_j, t = tau^{-1}, on the same spaces."""
    dops, sops, tops = {}, {}, {}
    for n in range(ccm.n_max + 1):
        tops[n] = inverse(ccm.tau[n])
        if n >= 1:
            dops[(n, 0)] = ccm.sigma[(n, n - 1)] @ ccm.tau[n]
            for i in range(1, n + 1):
                dops[(n, i)] = ccm.sigma[(n, i - 1)]
        if n < ccm.n_max:
            for j in range(n + 1):
                sops[(n, j)] = ccm.delta[(n, j)]
    return CyclicModule(ccm.n_max, ccm.spaces, dops, sops, tops, name=f"dual({ccm.name})")


def cyclic_modules_equal(a, b):
    """Spaces assumed shared; compares every operator matrix."""
    if a.n_max != b.n_max:
        return False
    for n in range(a.n_max + 1):
        if not (a.t[n] == b.t[n]):
            return False
        if n >= 1 and any(not (a.d[(n, i)] == b.d[(n, i)]) for i in range(n + 1)):
            return False
        if n < a.n_max and any(not (a.s[(n, j)] == b.s[(n, j)]) for j in range(n + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# homology


def boundary(cm, n):
    """Hochschild boundary b = sum (-1)^i d_i in degree n."""
    if n < 1 or n > cm.n_max:
        raise TruncationError(f"boundary degree {n} outside 1..{cm.n_max}")
    f = cm.t[0].field
    acc = cm.d[(n, 0)]
    sign = f.one
    for i in range(1, n + 1):
        sign = f.neg(sign)
        acc = acc + cm.d[(n, i)].scale(sign)
    return acc


def hochschild_homology(cm, upto=None):
    """dim HH_n for n <= upto (default n_max - 1); asserts b . b = 0."""
    if upto is None:
        upto = cm.n_max - 1
    if upto > cm.n_max - 1:
        raise TruncationError(f"HH trusted only up to degree {cm.n_max - 1}")
    bs = {n: boundary(cm, n) for n in range(1, upto + 2)}
    for n in range(2, upto + 2):
        if not (bs[n - 1] @ bs[n]).is_zero_matrix():
            raise NotWellDefined("b^2 != 0")
    dims = []
    for n in range(upto + 1):
        cyc = cm.spaces[n].dim - (bs[n].rank() if n >= 1 else 0)
        dims.append(cyc - bs[n + 1].rank())
    return dims


def connes_boundary(cm, n):
    """B = (1 - lambda) s_e N with lambda the signed rotation and s_e the
    extra degeneracy t s_n; raises if the truncation cannot hold degree n+1."""
    if n + 1 > cm.n_max:
        raise TruncationError("Connes boundary leaves the truncation")
    f = cm.t[n].field
    dim_n = cm.spaces[n].dim
    lam = cm.t[n].scale(f.one if n % 2 == 0 else f.neg(f.one))
    norm = SparseMatrix.identity(dim_n, f)
    power = SparseMatrix.identity(dim_n, f)
    for _ in range(n):
        power = lam @ power
        norm = norm + power
    s_extra = cm.t[n + 1] @ cm.s[(n, n)]
    lam1 = cm.t[n + 1].scale(f.one if (n + 1) % 2 == 0 else f.neg(f.one))
    one_minus = SparseMatrix.identity(cm.spaces[n + 1].dim, f) - lam1
    return one_minus @ s_extra @ norm


def normalized_complex(cm):
    """Quotient by the degenerate subcomplex; returns (spaces, b ops, B ops).

    The b and B operators are descended through the quotient; the mixed
    complex identities b^2 = B^2 = bB + Bb = 0 are asserted there.
    """
    f = cm.t[0].field
    nspaces = [SubquotientSpace.full(cm.spaces[0].dim, f)]
    for n in range(1, cm.n_max + 1):
        degen = SparseMatrix.hstack([cm.s[(n - 1, j)] for j in range(n)])
        nspaces.append(quotient_by_columns(cm.spaces[n].dim, degen))
    nb = {}
    for n in range(1, cm.n_max + 1):
        nb[n] = induced_map(boundary(cm, n), nspaces[n], nspaces[n - 1])
    nB = {}
    for n in range(cm.n_max):
        nB[n] = induced_map(connes_boundary(cm, n), nspaces[n], nspaces[n + 1])
    for n in range(2, cm.n_max + 1):
        if not (nb[n - 1] @ nb[n]).is_zero_matrix():
            raise NotWellDefined("normalized b^2 != 0")
    for n in range(cm.n_max - 1):
        if not (nB[n + 1] @ nB[n]).is_zero_matrix():
            raise NotWellDefined("normalized B^2 != 0")
    for n in range(1, cm.n_max):
        if not (nB[n - 1] @ nb[n] + nb[n + 1] @ nB[n]).is_zero_matrix():
            raise NotWellDefined("bB + Bb != 0 on the normalized complex")
    return nspaces, nb, nB


def cyclic_homology(cm, upto=None):
    """dim HC_n for n <= upto (default n_max - 2), from the total complex
    of the normalized (b, B) mixed bicomplex."""
    if upto is None:
        upto = cm.n_max - 2
    if upto > cm.n_max - 2:
        raise TruncationError(f"HC trusted only up to degree {cm.n_max - 2}")
    nspaces, nb, nB = normalized_complex(cm)
    f = cm.t[0].field

    def blocks(n):
        return [n - 2 * p for p in range(n // 2 + 1) if n - 2 * p >= 0]

    def total_map(n):
        src, tgt = blocks(n), blocks(n - 1)
        tgt_off = {}
        off = 0
        for q in tgt:
            tgt_off[q] = off
            off += nspaces[q].dim
        height = off
        pieces = []
        for q in src:
            data = {}
            if q >= 1 and q - 1 in tgt_off:
                o = tgt_off[q - 1]
                for (r, cc), v in nb[q].data.items():
                    data[(o + r, cc)] = v
            if q + 1 in tgt_off:
                o = tgt_off[q + 1]
                for (r, cc), v in nB[q].data.items():
                    key = (o + r, cc)
                    data[key] = f.add(data.get(key, f.zero), v)
            pieces.append(SparseMatrix(height, nspaces[q].dim, f, data))
        return SparseMatrix.hstack(pieces)

    dims = []
    for n in range(upto + 1):
        tot_dim = sum(nspaces[q].dim for q in blocks(n))
        rank_out = total_map(n).rank() if n >= 1 else 0
        rank_in = total_map(n + 1).rank()
        dims.append(tot_dim - rank_out - rank_in)
    return dims


# ---------------------------------------------------------------------------
# operator mutation helpers (for the mutant acceptance checks)


def with_replaced_cyclic(cm, n, matrix):
    t = dict(cm.t)
    t[n] = matrix
    return replace(cm, t=t, name=cm.name + "[mutant t]")


def with_replaced_face(cm, n, i, matrix):
    d = dict(cm.d)
    d[(n, i)] = matrix
    return replace(cm, d=d, name=cm.name + "[mutant d]")
