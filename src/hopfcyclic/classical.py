"""The finite-group realization of both pictures.

Their four finite cocyclic sets are read off the linear objects over the
group algebra kG and its subalgebra kK, on which every operator is an
all-ones column ``IndexTable``, the map of a finite set on its basis:
each set is the cocyclic dual (``cyclic.cocyclic_dual``) of one object,
and each bijection between two sets is a transform, whose components are
permutation matrices.  The direct picture's fiber powers of G -> G/K and
its pairs ((k_0, ..., k_n), g) with k_0 ... k_n = e are the coextension
and comodule-algebra objects of ``iso.comodule_algebra_transform``,
joined by gamma (Theorem 3.7).  The dual picture's orbits G^{n+1}/K^{n+1}
and orbits of (K r_0, ..., K r_n; m) in (K\\G)^{n+1} x ad(G) are C(kG|kK)
and the Hopf-cyclic coalgebra object of ``iso.module_coalgebra_transform``,
joined by phi (Theorem 3.4).  A picture is refused before anything is
built when its largest space passes ``cyclic.COORDINATE_BUDGET``.

The extended quotients, their transport and the Frobenius trace are read
off the dual picture (``dual_picture``), built once per run.  The extended
quotient at degree n holds the basis vectors (K r_0, ..., K r_n; m) of
the Hopf-cyclic coalgebra object with every r_i m r_i^{-1} in K, decoded
from the monomial section of its space; psi carries it onto the basis
vectors of C(kG|kK) whose cyclic rotations all multiply into K.  The
Frobenius trace reads the orbit of each conjugation pair (K r, m) off the
degree-0 projection.  Only the stabilizers stay an enumeration on tuples,
refused before it starts past ``TUPLE_BUDGET``; their point map carries
(g_0, ..., g_n) to (g_0...g_n; K, g_0 K, ..., g_0...g_{n-1} K), so the
stabilizer descriptions are literally equal.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .groups import (
    ClassFunction,
    GroupError,
    coset_action,
    irreducible_characters,
    subgroup_as_group,
)
from .cyclic import COORDINATE_BUDGET, check_identities, cocyclic_dual, cocyclic_identities
from .hopf import (
    AxiomCheck,
    ValidationReport,
    commutator_quotient,
    equality_check,
    subalgebra_from_columns,
)
from .iso import (
    CyclicMap,
    _mutually_inverse,
    comodule_algebra_transform,
    module_coalgebra_transform,
)
from .linalg import SubquotientSpace, tensor_unindex

TUPLE_BUDGET = 10 ** 7


def _check_budget(count, formula, unit, budget=TUPLE_BUDGET):
    """Refuse, before it starts, a run of ``count`` ``unit`` over
    ``budget``; ``formula`` spells the count out."""
    if count > budget:
        raise GroupError(f"tuple budget exceeded: {formula} = {count} {unit} is over the "
                         f"budget of {budget}")


def intertwining_checks(src, tgt, maps, n_max):
    """maps[n], from src degree n to tgt degree n, is a permutation matrix,
    a bijection of the bases, and commutes with every operator, in
    degrees 0..n_max."""
    checks = []

    def eq(name, left, right):
        checks.append(AxiomCheck(name, left == right))

    ops = {}
    for n in range(n_max + 1):
        tb = maps[n].table()  # a permutation matrix: all ones, every row hit once
        checks.append(AxiomCheck(f"bijective @ {n}", tb is not None and tb.val is None
                                 and (tb.rows, tb.cols) == (tgt.dims()[n], src.dims()[n])
                                 and sorted(tb.idx[:-1]) == list(range(tb.rows))))
        ops[n] = maps[n] if tb is None else tb
    for n in range(n_max):
        for i in range(n + 2):
            eq(f"intertwines delta{i} @ {n}",
               ops[n + 1] @ src.delta[(n, i)], tgt.delta[(n, i)] @ ops[n])
    for n in range(1, n_max + 1):
        for j in range(n):
            eq(f"intertwines sigma{j} @ {n}",
               ops[n - 1] @ src.sigma[(n, j)], tgt.sigma[(n, j)] @ ops[n])
    for n in range(n_max + 1):
        eq(f"intertwines tau @ {n}", ops[n] @ src.tau[n], tgt.tau[n] @ ops[n])
    return checks


# ---------------------------------------------------------------------------
# the two pictures


def direct_picture_check(g, sub, n_max, pair):
    """The fiber-power and product-one cocyclic sets, their identities and
    sizes, and gamma and its inverse, mutually inverse and intertwining;
    ``pair()`` builds (kG, kK) once the budget admits the run."""
    order_k = len(set(sub))
    _check_budget(max(g.order * order_k ** (n_max + 1), g.order ** (n_max + 1)),
                  f"max({g.order}*{order_k}^{n_max + 1}, {g.order}^{n_max + 1})",
                  f"coordinates at degree {n_max}", COORDINATE_BUDGET)
    gamma, gamma_inv = comodule_algebra_transform(pair(), n_max)
    fiber, prod = cocyclic_dual(gamma.target), cocyclic_dual(gamma.source)
    checks = check_identities(fiber).checks + check_identities(prod).checks
    for n in range(n_max + 1):
        checks.append(AxiomCheck(f"mutually inverse @ {n}", _mutually_inverse(
            gamma.components[n], gamma_inv.components[n])))
        checks.append(AxiomCheck(
            f"sizes |G||H|^n @ {n}",
            fiber.dims()[n] == prod.dims()[n] == g.order * order_k ** n))
    checks += intertwining_checks(prod, fiber, gamma.components, n_max)
    return ValidationReport(checks)


@dataclass
class DualPicture:
    """psi and phi of (kG, kK) to one degree.  The basis vectors c of
    C = kG/kK^+ kG are the right cosets K r, and C's section lifts c to
    reps[c] = r."""

    psi: CyclicMap
    phi: CyclicMap
    reps: list


def dual_picture(g, sub, n_max, pair):
    """The dual picture of (G, K) to degree n_max, built once for every
    check that reads it; refused before ``pair()`` builds (kG, kK) when
    its largest space passes ``COORDINATE_BUDGET``."""
    index = g.order // len(set(sub))
    _check_budget(max(g.order ** (n_max + 1), index ** (n_max + 1) * g.order),
                  f"max({g.order}^{n_max + 1}, {index}^{n_max + 1}*{g.order})",
                  f"coordinates at degree {n_max}", COORDINATE_BUDGET)
    built = pair()
    psi, phi = module_coalgebra_transform(built, n_max)
    return DualPicture(psi, phi, built.quotient.space.section.table().idx[:-1])


def dual_picture_check(picture, n_max):
    """The orbit sets G^{n+1}/K^{n+1} and of conjugation-translation pairs,
    their identities and counts, and phi and psi, mutually inverse and
    intertwining, in degrees 0..n_max of ``picture``."""
    left, right = cocyclic_dual(picture.phi.source), cocyclic_dual(picture.psi.source)
    checks = [AxiomCheck(name, holds) for x in (left, right)
              for name, holds in cocyclic_identities(n_max, x.delta, x.sigma, x.tau)]
    for n in range(n_max + 1):
        checks.append(AxiomCheck(f"orbit counts agree @ {n}", left.dims()[n] == right.dims()[n]))
        checks.append(AxiomCheck(f"mutually inverse @ {n}", _mutually_inverse(
            picture.phi.components[n], picture.psi.components[n])))
    checks += intertwining_checks(left, right, picture.phi.components, n_max)
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# stabilizers


def lhs_stabilizer_tuples(g, sub, tup):
    """Brute-force stabilizer of a tuple under the H^{n+1}-action."""
    subset = sorted(set(sub))
    k = len(tup)
    out = []
    for hs in itertools.product(subset, repeat=k):
        if all(g.mul(g.mul(g.inv(hs[i]), tup[i]), hs[(i + 1) % k]) == tup[i]
               for i in range(k)):
            out.append(hs)
    return out


def lhs_stabilizer_closed_form(g, sub, tup):
    """h_0 in H cap C_G(g_0...g_n) cap all prefix conjugates of H, with the
    later h_i = p^{-1} h_0 p forced for the prefix p = g_0...g_{i-1};
    returns (h_0 list, all-tuples-valid)."""
    subset = set(sub)
    total = g.prod(tup)
    cent = set(g.centralizer(total))
    constraints = []
    prefix = g.identity
    for gi in tup:
        prefix = g.mul(prefix, gi)
        constraints.append({g.conj(prefix, hh) for hh in subset})
    h0s = sorted(
        h0 for h0 in sorted(subset)
        if h0 in cent and all(h0 in cc for cc in constraints)
    )
    brute = set(lhs_stabilizer_tuples(g, sub, tup))
    ok = True
    for h0 in h0s:
        hs = [h0]
        prefix = g.identity
        for i in range(1, len(tup)):
            prefix = g.mul(prefix, tup[i - 1])
            hs.append(g.conj(g.inv(prefix), h0))
        if tuple(hs) not in brute:
            ok = False
    if sorted({hs[0] for hs in brute}) != h0s:
        ok = False
    return h0s, ok


def rhs_stabilizer(g, gset, point):
    gt, xs = point[0], point[1:]
    return sorted(
        gg for gg in g.elements()
        if g.conj(gg, gt) == gt and all(gset.apply(gg, x) == x for x in xs)
    )


def _base_coset_index(g, gset, subset):
    for k, cs in enumerate(g.left_cosets(subset)):
        if g.identity in cs:
            return k
    raise GroupError("no base coset")


def dual_forward_point(g, gset, base, tup):
    """(g_0, ..., g_n) -> (g_0...g_n; H, g_0 H, ..., g_0...g_{n-1} H)."""
    xs = [base]
    acc = g.identity
    for gi in tup[:-1]:
        acc = g.mul(acc, gi)
        xs.append(gset.apply(acc, base))
    total = g.mul(acc, tup[-1])
    return (total,) + tuple(xs)


def _unrank(rank, order, length):
    """The tuple at ``rank`` in the lexicographic list of range(order)^length."""
    return tuple(rank // order ** k % order for k in reversed(range(length)))


def stabilizer_coincidence_check(g, sub, n_max, sample=None, seed=0):
    """For every tuple (or a seeded sample) the brute-force stabilizer, the
    closed form, and the stabilizer of the image point coincide.

    A sample draws ranks into the lexicographic list of G^{n+1} and
    unranks them, so it picks what sampling the list itself would."""
    subset = sorted(set(sub))
    drawn = g.order ** (n_max + 1) if sample is None else min(sample, g.order ** (n_max + 1))
    _check_budget(drawn * len(subset) ** (n_max + 1), f"{drawn}*{len(subset)}^{n_max + 1}",
                  f"stabilizer candidates at degree {n_max}")
    gset = coset_action(g, subset)
    base = _base_coset_index(g, gset, subset)
    checks = []
    for n in range(n_max + 1):
        ranks = range(g.order ** (n + 1))
        if sample is not None and len(ranks) > sample:
            ranks = random.Random(seed).sample(ranks, sample)
        ok = True
        witness = None
        for rank in ranks:
            tup = _unrank(rank, g.order, n + 1)
            closed, tuples_ok = lhs_stabilizer_closed_form(g, sub, tup)
            image = dual_forward_point(g, gset, base, tup)
            rhs = rhs_stabilizer(g, gset, image)
            if not (closed == rhs and tuples_ok):
                ok = False
                witness = f"tuple {tuple(g.names[x] for x in tup)}"
                break
        checks.append(AxiomCheck(f"stabilizers coincide @ {n}", ok, witness))
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# extended quotients


def _points(space, dims):
    """The ambient multi-index, on legs of ``dims``, that the monomial
    section of ``space`` lifts each basis vector to."""
    return [tensor_unindex(dims, a) for a in space.section.table().idx[:-1]]


def extended_quotient(g, sub, picture, n):
    """The basis vectors (K r_0, ..., K r_n; m) of the Hopf-cyclic
    coalgebra object at degree n with r_i m r_i^{-1} in K for every i:
    m fixes every coset."""
    subset = set(sub)
    dims = [len(picture.reps)] * (n + 1) + [g.order]
    return {k for k, (*cs, m) in enumerate(_points(picture.psi.source.spaces[n], dims))
            if all(g.conj(picture.reps[c], m) in subset for c in cs)}


def extended_quotient_check(g, sub, picture, n_max):
    """The cocyclic operators of the orbit set of pairs restrict to the
    extended quotients, which ``picture`` holds up to degree n_max + 1."""
    ops = cocyclic_dual(picture.psi.source)
    fixed = [extended_quotient(g, sub, picture, n) for n in range(n_max + 2)]

    def restricts(op, n, m):
        idx = op.table().idx
        return all(idx[k] in fixed[m] for k in fixed[n])

    checks = []
    for n in range(n_max + 1):
        checks.append(AxiomCheck(f"cofaces restrict @ {n}", all(
            restricts(ops.delta[(n, i)], n, n + 1) for i in range(n + 2))))
        if n >= 1:
            checks.append(AxiomCheck(f"codegeneracies restrict @ {n}", all(
                restricts(ops.sigma[(n, j)], n, n - 1) for j in range(n))))
        checks.append(AxiomCheck(f"cocyclic restricts @ {n}", restricts(ops.tau[n], n, n)))
    return ValidationReport(checks)


def extended_quotient_transport_check(g, sub, picture, n_max):
    """psi carries the extended quotients onto the basis vectors of
    C(kG|kK) whose cyclic rotations all multiply into K."""
    subset = set(sub)
    checks = []
    for n in range(n_max + 1):
        idx = picture.psi.components[n].table().idx
        carried = {idx[k] for k in extended_quotient(g, sub, picture, n)}
        expected = {k for k, tup in enumerate(_points(picture.psi.target.spaces[n],
                                                      [g.order] * (n + 1)))
                    if all(g.prod(tup[i + 1:] + tup[: i + 1]) in subset for i in range(n + 1))}
        checks.append(AxiomCheck(
            f"extended quotient transported @ {n}", carried == expected,
            None if carried == expected else f"{len(carried)} vs {len(expected)} classes"))
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Frobenius reciprocity via the trace decomposition


def induce_class_function(g, sub, chi_sub, picture):
    """The induced class function computed three ways, asserted equal:

    (a) extension by zero to the orbit set of conjugation pairs (K r, m),
        the degree-0 basis of ``picture``'s Hopf-cyclic coalgebra object,
        then the trace along the fibers of the projection to conjugacy
        classes;
    (b) the coset-representative sum;
    (c) the averaged whole-group sum.
    """
    subset = sorted(set(sub))
    subgrp = subgroup_as_group(g, subset)
    if len(chi_sub.values) != len(subgrp.conjugacy_classes()):
        raise GroupError("character values do not match subgroup classes")
    f = chi_sub.field
    pos = {h: i for i, h in enumerate(subset)}

    def chi_at(x):
        return chi_sub.values[subgrp.class_of(pos[x])]

    # the orbit of (K r, m) at ambient index c |G| + m
    orbit = picture.psi.source.spaces[0].projection.table().idx

    # Tr_i: extension by zero, must be constant on orbits (machine-checked)
    orbit_values = {}
    for c, r in enumerate(picture.reps):
        for m in g.elements():
            conj = g.conj(r, m)
            orbit_values.setdefault(orbit[c * g.order + m], set()).add(
                chi_at(conj) if conj in pos else f.zero)
    if any(len(vals) != 1 for vals in orbit_values.values()):
        raise GroupError("extension by zero is not constant on orbits")
    tr_i = {k: vals.pop() for k, vals in orbit_values.items()}

    def route_a(gt):
        total = f.zero
        for c in range(len(picture.reps)):
            total = f.add(total, tr_i[orbit[c * g.order + gt]])
        return total

    coset_reps = [min(cs) for cs in g.left_cosets(subset)]

    def route_b(gt):
        total = f.zero
        for rep in coset_reps:
            conj = g.mul(g.mul(g.inv(rep), gt), rep)
            if conj in pos:
                total = f.add(total, chi_at(conj))
        return total

    def route_c(gt):
        total = f.zero
        for gg in g.elements():
            conj = g.mul(g.mul(g.inv(gg), gt), gg)
            if conj in pos:
                total = f.add(total, chi_at(conj))
        return f.mul(total, f.inv(f.from_int(len(subset))))

    values = []
    for cls in g.conjugacy_classes():
        gt = cls[0]
        va, vb, vc = route_a(gt), route_b(gt), route_c(gt)
        if not va == vb == vc:
            raise GroupError(f"induction routes disagree at class of {g.names[gt]}")
        values.append(vb)
    return ClassFunction(g, values, f)


def frobenius_reciprocity_check(g, sub, chi_sub, induced):
    """<induced, theta>_G = <chi, theta restricted>_H for every built-in
    irreducible theta of G, where ``induced`` is the class function induced
    from ``chi_sub`` (``induce_class_function``)."""
    subset = sorted(set(sub))
    subgrp = subgroup_as_group(g, subset)
    checks = []
    for k, theta in enumerate(irreducible_characters(g)):
        lhs = induced.inner(theta)
        rhs = chi_sub.inner(theta.restrict(subset, subgrp))
        checks.append(equality_check(f"reciprocity vs irreducible {k}", lhs, rhs))
    return ValidationReport(checks)


def class_function_dim_check(g, h):
    """dim O(G \\ ad G), the extended quotient of a point, is the class
    count: it is dim h/[h, h] for h = kG, the commutator quotient over B = kG."""
    whole = subalgebra_from_columns(h, h.ident())
    dim = commutator_quotient(h, whole, SubquotientSpace.full(h.dim, h.field), 1).dim
    return ValidationReport([equality_check("extended quotient of a point counts classes",
                                            dim, len(g.conjugacy_classes()))])
