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
and orbits of (g; x_0, ..., x_n) in ad(G) x (G/K)^{n+1} are C(kG|kK) and
the Hopf-cyclic coalgebra object of ``iso.module_coalgebra_transform``,
joined by phi (Theorem 3.4).  A picture is refused before anything is
built when its largest space passes ``cyclic.COORDINATE_BUDGET``.

Stabilizers, extended quotients, their transport and Frobenius
reciprocity stay enumerations on tuples, each refused before it starts
past ``TUPLE_BUDGET``.  Orbits are kept by lexicographically least
representatives, and the dual-picture point map carries the class of
(g_0, ..., g_n) to (g_0...g_n; K, g_0 K, ..., g_0...g_{n-1} K), so the
stabilizer descriptions are literally equal.
"""

from __future__ import annotations

import itertools
import random

from .groups import (
    ClassFunction,
    GSet,
    GroupError,
    coset_action,
    irreducible_characters,
    subgroup_as_group,
)
from .cyclic import COORDINATE_BUDGET, check_identities, cocyclic_dual
from .hopf import (
    AxiomCheck,
    ValidationReport,
    equality_check,
    group_algebra,
    setup_from_subalgebra,
)
from .iso import comodule_algebra_transform, module_coalgebra_transform
from .linalg import QQ
from .presets import _basis_columns

TUPLE_BUDGET = 10 ** 7


def _check_budget(count, formula, unit, budget=TUPLE_BUDGET):
    """Refuse, before it starts, a run of ``count`` ``unit`` over
    ``budget``; ``formula`` spells the count out."""
    if count > budget:
        raise GroupError(f"tuple budget exceeded: {formula} = {count} {unit} is over the "
                         f"budget of {budget}")


def _group_pair(g, sub):
    """The Galois pair (kG, kK) over Q, K spanned by its basis columns."""
    h = group_algebra(g, QQ)
    return setup_from_subalgebra(h, _basis_columns(h, sorted(set(sub))), f"k{g.name}/kK")


def intertwining_checks(src, tgt, maps):
    """maps[n], from src degree n to tgt degree n, is a permutation matrix,
    a bijection of the bases, and commutes with every operator."""
    checks = []

    def eq(name, left, right):
        checks.append(AxiomCheck(name, left == right))

    N = min(src.n_max, tgt.n_max)
    ops = {}
    for n in range(N + 1):
        tb = maps[n].table()  # a permutation matrix: all ones, every row hit once
        checks.append(AxiomCheck(f"bijective @ {n}", tb is not None and tb.val is None
                                 and (tb.rows, tb.cols) == (tgt.dims()[n], src.dims()[n])
                                 and sorted(tb.idx[:-1]) == list(range(tb.rows))))
        ops[n] = maps[n] if tb is None else tb
    for n in range(N):
        for i in range(n + 2):
            eq(f"intertwines delta{i} @ {n}",
               ops[n + 1] @ src.delta[(n, i)], tgt.delta[(n, i)] @ ops[n])
    for n in range(1, N + 1):
        for j in range(n):
            eq(f"intertwines sigma{j} @ {n}",
               ops[n - 1] @ src.sigma[(n, j)], tgt.sigma[(n, j)] @ ops[n])
    for n in range(N + 1):
        eq(f"intertwines tau @ {n}", ops[n] @ src.tau[n], tgt.tau[n] @ ops[n])
    return checks


def _mutually_inverse(fwd, bwd):
    return (bwd @ fwd).is_identity() and (fwd @ bwd).is_identity()


# ---------------------------------------------------------------------------
# the two pictures


def direct_picture_check(g, sub, n_max):
    """The fiber-power and product-one cocyclic sets, their identities and
    sizes, and gamma and its inverse, mutually inverse and intertwining."""
    order_k = len(set(sub))
    _check_budget(max(g.order * order_k ** (n_max + 1), g.order ** (n_max + 1)),
                  f"max({g.order}*{order_k}^{n_max + 1}, {g.order}^{n_max + 1})",
                  f"coordinates at degree {n_max}", COORDINATE_BUDGET)
    gamma, gamma_inv = comodule_algebra_transform(_group_pair(g, sub), n_max)
    fiber, prod = cocyclic_dual(gamma.target), cocyclic_dual(gamma.source)
    checks = check_identities(fiber).checks + check_identities(prod).checks
    for n in range(n_max + 1):
        checks.append(AxiomCheck(f"mutually inverse @ {n}", _mutually_inverse(
            gamma.components[n], gamma_inv.components[n])))
        checks.append(AxiomCheck(
            f"sizes |G||H|^n @ {n}",
            fiber.dims()[n] == prod.dims()[n] == g.order * order_k ** n))
    checks += intertwining_checks(prod, fiber, gamma.components)
    return ValidationReport(checks)


def dual_picture_check(g, sub, n_max):
    """The orbit sets G^{n+1}/K^{n+1} and of conjugation-translation pairs,
    their identities and counts, and phi and psi, mutually inverse and
    intertwining."""
    index = g.order // len(set(sub))
    _check_budget(max(g.order ** (n_max + 1), index ** (n_max + 1) * g.order),
                  f"max({g.order}^{n_max + 1}, {index}^{n_max + 1}*{g.order})",
                  f"coordinates at degree {n_max}", COORDINATE_BUDGET)
    psi, phi = module_coalgebra_transform(_group_pair(g, sub), n_max)
    left, right = cocyclic_dual(phi.source), cocyclic_dual(psi.source)
    checks = check_identities(left).checks + check_identities(right).checks
    for n in range(n_max + 1):
        checks.append(AxiomCheck(f"orbit counts agree @ {n}", left.dims()[n] == right.dims()[n]))
        checks.append(AxiomCheck(f"mutually inverse @ {n}", _mutually_inverse(
            phi.components[n], psi.components[n])))
    checks += intertwining_checks(left, right, phi.components)
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# orbit machinery


class QuotientSet:
    """Orbits of a finite group action, canonical lex-least representatives."""

    def __init__(self, points, neighbors_fn):
        self.canon = {}
        for p in points:
            if p in self.canon:
                continue
            orbit, frontier = {p}, [p]
            while frontier:
                for t in neighbors_fn(frontier.pop()):
                    if t not in orbit:
                        orbit.add(t)
                        frontier.append(t)
            self.canon.update(dict.fromkeys(orbit, min(orbit)))
        self.reps = sorted(set(self.canon.values()))
        self.index = {r: k for k, r in enumerate(self.reps)}

    def __len__(self):
        return len(self.reps)

    def class_index(self, p):
        return self.index[self.canon[p]]


def left_quotient(g, sub, n):
    """G^{n+1}/H^{n+1} under (g_i) . (h_i) = (h_i^{-1} g_i h_{i+1})."""
    subset = sorted(set(sub))
    # (n + 1) |K| neighbors of each of |G|^{n+1} points
    _check_budget(g.order ** (n + 1) * (n + 1) * len(subset),
                  f"{g.order}^{n + 1}*{n + 1}*{len(subset)}", f"neighbors at degree {n}")
    points = list(itertools.product(g.elements(), repeat=n + 1))

    def neighbors(t):
        k = len(t)
        out = []
        for slot in range(k):
            for hh in subset:
                hs = [g.identity] * k
                hs[slot] = hh
                out.append(tuple(
                    g.mul(g.mul(g.inv(hs[i]), t[i]), hs[(i + 1) % k])
                    for i in range(k)
                ))
        return out

    return QuotientSet(points, neighbors)


def right_quotient(g, gset, n):
    """G \\ (ad(G) x X^{n+1}) under gg . (gt, xs) = (gg gt gg^{-1}, gg xs)."""
    return _conjugation_orbits(g, gset, n, lambda t: True)


def _conjugation_orbits(g, gset, n, keep):
    """Orbits of gg . (gt, xs) = (gg gt gg^{-1}, gg xs) on the points
    (gt, x_0, ..., x_n) satisfying ``keep``, a condition the action preserves."""
    _check_budget(g.order * gset.size ** (n + 1), f"{g.order}*{gset.size}^{n + 1}",
                  f"points at degree {n}")
    points = [t for t in ((gt,) + xs for gt in g.elements()
                          for xs in itertools.product(range(gset.size), repeat=n + 1))
              if keep(t)]

    def neighbors(t):
        return [(g.conj(gg, t[0]),) + tuple(gset.apply(gg, x) for x in t[1:])
                for gg in g.elements()]

    return QuotientSet(points, neighbors)


def _base_coset_index(g, gset, subset):
    for k, cs in enumerate(g.left_cosets(subset)):
        if g.identity in cs:
            return k
    raise GroupError("no base coset")


def _coset_rep(cosets, x):
    return min(cosets[x])


def _right_coface(gset, n, i, t):
    """delta_i on (gt; x_0..x_n): duplicate x_i, or for i = n + 1 append
    gt . x_0, the wrap coface twisted by the conjugation coordinate."""
    if i <= n:
        return t[: i + 2] + t[i + 1:]
    return t + (gset.apply(t[0], t[1]),)


def _right_codegen(j, t):
    """sigma_j on (gt; x_0..x_n): delete x_{j+1}."""
    return t[: j + 2] + t[j + 3:]


def _right_cocyclic(gset, t):
    """tau on (gt; x_0..x_n): (gt; x_1, ..., x_n, gt . x_0)."""
    return (t[0],) + t[2:] + (gset.apply(t[0], t[1]),)


def dual_forward_point(g, gset, base, tup):
    """(g_0, ..., g_n) -> (g_0...g_n; H, g_0 H, ..., g_0...g_{n-1} H)."""
    xs = [base]
    acc = g.identity
    for gi in tup[:-1]:
        acc = g.mul(acc, gi)
        xs.append(gset.apply(acc, base))
    total = g.mul(acc, tup[-1])
    return (total,) + tuple(xs)


def dual_backward_point(g, cosets, point):
    """(gt; x_0, ..., x_n) -> (r_0^{-1} r_1, ..., r_{n-1}^{-1} r_n,
    r_n^{-1} gt r_0) using the lex-least coset representatives."""
    gt, xs = point[0], point[1:]
    reps = [_coset_rep(cosets, x) for x in xs]
    out = []
    for i in range(len(xs) - 1):
        out.append(g.mul(g.inv(reps[i]), reps[i + 1]))
    out.append(g.mul(g.mul(g.inv(reps[-1]), gt), reps[0]))
    return tuple(out)


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


def extended_quotient(g, gset, n):
    """Orbits of (gt, x_0..x_n) with gt fixing every coordinate."""
    return _conjugation_orbits(
        g, gset, n, lambda t: all(gset.apply(t[0], x) == x for x in t[1:]))


def extended_quotient_check(g, gset, n_max):
    """The ambient cocyclic operators restrict to the extended quotients."""
    checks = []
    # the largest first, so that a refusal comes before any is built
    fixed = {n: set(extended_quotient(g, gset, n).canon) for n in reversed(range(n_max + 2))}
    for n in range(n_max + 1):
        pts = fixed[n]
        checks.append(AxiomCheck(f"cofaces restrict @ {n}", all(
            _right_coface(gset, n, i, t) in fixed[n + 1] for t in pts for i in range(n + 2))))
        if n >= 1:
            checks.append(AxiomCheck(f"codegeneracies restrict @ {n}", all(
                _right_codegen(j, t) in fixed[n - 1] for t in pts for j in range(n))))
        checks.append(AxiomCheck(f"cocyclic restricts @ {n}", all(
            _right_cocyclic(gset, t) in fixed[n] for t in pts)))
    return ValidationReport(checks)


def extended_quotient_transport_check(g, sub, n_max):
    """The inverse dual-picture map carries the extended quotients onto the
    classes of tuples whose cyclic rotations all multiply into H."""
    subset = sorted(set(sub))
    gset = coset_action(g, subset)
    cosets = g.left_cosets(subset)
    sub_set = set(subset)
    checks = []
    for n in range(n_max + 1):
        ext = extended_quotient(g, gset, n)
        lq = left_quotient(g, sub, n)
        carried = {lq.canon[dual_backward_point(g, cosets, rep)] for rep in ext.reps}
        expected = set()
        for tup in itertools.product(g.elements(), repeat=n + 1):
            if all(
                g.prod(tup[i + 1:] + tup[: i + 1]) in sub_set
                for i in range(n + 1)
            ):
                expected.add(lq.canon[tup])
        checks.append(AxiomCheck(
            f"extended quotient transported @ {n}", carried == expected,
            None if carried == expected else f"{len(carried)} vs {len(expected)} classes"))
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Frobenius reciprocity via the trace decomposition


def induce_class_function(g, sub, chi_sub):
    """The induced class function computed three ways, asserted equal:

    (a) extension by zero to the orbit set of conjugation pairs, then the
        trace along the fibers of the projection to conjugacy classes;
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

    gset = coset_action(g, subset)
    cosets = g.left_cosets(subset)
    pairs = right_quotient(g, gset, 0)

    # Tr_i: extension by zero, must be constant on orbits (machine-checked)
    orbit_values = {}
    for (gt, x), rep in pairs.canon.items():
        r = _coset_rep(cosets, x)
        conj = g.mul(g.mul(g.inv(r), gt), r)
        orbit_values.setdefault(pairs.index[rep], set()).add(
            chi_at(conj) if conj in pos else f.zero)
    if any(len(vals) != 1 for vals in orbit_values.values()):
        raise GroupError("extension by zero is not constant on orbits")
    tr_i = {k: vals.pop() for k, vals in orbit_values.items()}

    def route_a(gt):
        total = f.zero
        for x in range(gset.size):
            total = f.add(total, tr_i[pairs.class_index((gt, x))])
        return total

    def route_b(gt):
        total = f.zero
        for cs in cosets:
            rep = min(cs)
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


def class_function_dim_check(g):
    """dim O(G \\ ad G) = conjugacy class count."""
    point = GSet(g, 1, [[0]] * g.order)
    ext = extended_quotient(g, point, 0)
    classes = len(g.conjugacy_classes())
    return ValidationReport([equality_check("extended quotient of a point counts classes",
                                            len(ext), classes)])
