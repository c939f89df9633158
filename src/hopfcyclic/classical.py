"""The finite-group realization of both pictures, done combinatorially.

Everything here is exhaustive enumeration on tuples: the two cocyclic
finite sets of the direct picture (fiber powers of G -> G/H versus
product-one tuples times G), the two of the dual picture (G^{n+1}/H^{n+1}
orbits versus orbits of conjugation-translation pairs), their mutually
inverse operator-intertwining bijections, stabilizer matching, extended
quotients, and Frobenius reciprocity via the trace decomposition.

Orbit sets are represented by lexicographically least representatives, so
equality of quotient data is equality of canonical forms.

Index conventions.  Cofaces insert (or duplicate) at slot i for
0 <= i <= n+1, with the wrap coface delta_{n+1} = tau . delta_0;
codegeneracy sigma_j removes what delta_j and delta_{j+1} insert.  The
dual-picture bijection carries the class of (g_0, ..., g_n) to the class
of (g_0...g_n; H, g_0 H, ..., g_0...g_{n-1} H): the empty prefix comes
first, which is what makes the operator indices align on both sides (and
makes the stabilizer descriptions literally equal).  A cocyclic set holds
each operator as the all-ones column index table of its map on
representatives and is checked by ``cyclic.check_identities``, as the
cocyclic modules are; the bijections between two sets are such tables
too, composed by ``@`` and compared by ``==``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .groups import (
    ClassFunction,
    GSet,
    GroupError,
    coset_action,
    irreducible_characters,
    subgroup_as_group,
)
from .cyclic import check_identities
from .hopf import AxiomCheck, ValidationReport, equality_check
from .linalg import QQ, IndexTable

TUPLE_BUDGET = 10 ** 7


@dataclass
class CocyclicFiniteSet:
    """Per-degree finite sets with cofaces delta[n][i], codegeneracies
    sigma[n][j] and cocyclic tau[n], named and keyed as in
    ``cyclic.CocyclicModule``, so ``cyclic.check_identities`` checks them.

    ``elements[n]`` lists canonical representatives; each operator is the
    all-ones column ``IndexTable`` of its map on indices into the target
    degree's list (``_map_table``).
    """

    n_max: int
    elements: list
    delta: dict   # (n, i): degree n -> degree n+1, 0 <= i <= n+1
    sigma: dict   # (n, j): degree n -> degree n-1, 0 <= j <= n-1
    tau: dict     # n: degree n -> degree n


def _map_table(targets, size):
    """The all-ones column table of the map sending index k to
    ``targets[k]`` in a set of ``size`` elements."""
    return IndexTable(size, len(targets), QQ, [*targets, -1], None)


def build_cocyclic_set(n_max, elems_fn, coface_fn, codegen_fn, cocyclic_fn):
    """Assemble a truncated cocyclic set from element enumerators and
    operator functions on representatives."""
    elements = [sorted(set(elems_fn(n))) for n in range(n_max + 1)]
    index = [{e: k for k, e in enumerate(lst)} for lst in elements]

    def table(n, m, fn):
        return _map_table([index[m][fn(e)] for e in elements[n]], len(elements[m]))

    delta = {(n, i): table(n, n + 1, lambda e: coface_fn(n, i, e))
             for n in range(n_max) for i in range(n + 2)}
    sigma = {(n, j): table(n, n - 1, lambda e: codegen_fn(n, j, e))
             for n in range(1, n_max + 1) for j in range(n)}
    tau = {n: table(n, n, lambda e: cocyclic_fn(n, e)) for n in range(n_max + 1)}
    return CocyclicFiniteSet(n_max, elements, delta, sigma, tau)


def intertwining_checks(src, tgt, maps):
    """maps[n], a table from src degree n to tgt degree n, is bijective and
    commutes with every operator."""
    checks = []

    def eq(name, left, right):
        checks.append(AxiomCheck(name, left == right))

    N = min(src.n_max, tgt.n_max)
    for n in range(N + 1):
        fwd = maps[n]
        checks.append(AxiomCheck(
            f"bijective @ {n}",
            (fwd.rows, fwd.cols) == (len(tgt.elements[n]), len(src.elements[n]))
            and fwd.rows == fwd.cols and fwd.table(True) is not None))
    for n in range(N):
        for i in range(n + 2):
            eq(f"intertwines delta{i} @ {n}",
               maps[n + 1] @ src.delta[(n, i)], tgt.delta[(n, i)] @ maps[n])
    for n in range(1, N + 1):
        for j in range(n):
            eq(f"intertwines sigma{j} @ {n}",
               maps[n - 1] @ src.sigma[(n, j)], tgt.sigma[(n, j)] @ maps[n])
    for n in range(N + 1):
        eq(f"intertwines tau @ {n}", maps[n] @ src.tau[n], tgt.tau[n] @ maps[n])
    return checks


# ---------------------------------------------------------------------------
# the direct picture


def fiber_power_set(g, sub, n_max):
    """Tuples (g_0, ..., g_n) lying in a single coset of H."""
    subset = sorted(set(sub))

    def elems(n):
        for g0 in g.elements():
            for hs in itertools.product(subset, repeat=n):
                tup = [g0]
                for hh in hs:
                    tup.append(g.mul(tup[-1], hh))
                yield tuple(tup)

    def coface(n, i, e):
        if i <= n:
            return e[: i + 1] + e[i:]
        return e + (e[0],)

    def codegen(n, j, e):
        return e[: j + 1] + e[j + 2:]

    def cocyc(n, e):
        return e[1:] + (e[0],)

    return build_cocyclic_set(n_max, elems, coface, codegen, cocyc)


def product_one_set(g, sub, n_max):
    """Pairs ((h_0, ..., h_n), g) with h_0 ... h_n = e."""
    subset = sorted(set(sub))
    sub_set = set(subset)

    def elems(n):
        for hs in itertools.product(subset, repeat=n):
            last = g.inv(g.prod(hs))
            if last in sub_set:
                for gg in g.elements():
                    yield (tuple(hs) + (last,), gg)

    def coface(n, i, e):
        hs, gg = e
        return (hs[:i] + (g.identity,) + hs[i:], gg)

    def codegen(n, j, e):
        hs, gg = e
        return (hs[:j] + (g.mul(hs[j], hs[j + 1]),) + hs[j + 2:], gg)

    def cocyc(n, e):
        hs, gg = e
        return (hs[1:] + (hs[0],), g.mul(gg, hs[0]))

    return build_cocyclic_set(n_max, elems, coface, codegen, cocyc)


def direct_picture_check(g, sub, n_max):
    """Both direct-picture cocyclic sets, their identities, size counts,
    and the mutually inverse operator-intertwining bijections."""
    tuples = g.order * len(set(sub)) ** n_max
    if tuples * (n_max + 2) > TUPLE_BUDGET:
        raise GroupError(f"tuple budget exceeded: {tuples} tuples at degree {n_max} times "
                         f"{n_max + 2} cofaces is over the budget of {TUPLE_BUDGET}")
    fiber = fiber_power_set(g, sub, n_max)
    prod = product_one_set(g, sub, n_max)
    checks = []
    checks += check_identities(fiber).checks
    checks += check_identities(prod).checks
    order_h = len(set(sub))

    def to_fiber(e):
        hs, gg = e
        tup = [gg]
        for hh in hs[:-1]:
            tup.append(g.mul(tup[-1], hh))
        return tuple(tup)

    def to_product(tup):
        k = len(tup)
        hs = tuple(g.mul(g.inv(tup[i]), tup[(i + 1) % k]) for i in range(k))
        return (hs, tup[0])

    maps = {}
    for n in range(n_max + 1):
        fib, pro = fiber.elements[n], prod.elements[n]
        fib_at = {e: k for k, e in enumerate(fib)}
        pro_at = {e: k for k, e in enumerate(pro)}
        fwd = _map_table([fib_at[to_fiber(e)] for e in pro], len(fib))
        bwd = _map_table([pro_at[to_product(e)] for e in fib], len(pro))
        checks.append(AxiomCheck(f"mutually inverse @ {n}",
                                 (bwd @ fwd).is_identity() and (fwd @ bwd).is_identity()))
        checks.append(AxiomCheck(
            f"sizes |G||H|^n @ {n}",
            len(fib) == len(pro) == g.order * order_h ** n))
        maps[n] = fwd
    checks += intertwining_checks(prod, fiber, maps)
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# orbit machinery for the dual picture


class QuotientSet:
    """Orbits of a finite group action, canonical lex-least representatives."""

    def __init__(self, points, neighbors_fn):
        self.canon = {}
        reps = []
        seen = set()
        for p in points:
            if p in seen:
                continue
            orbit = {p}
            frontier = [p]
            while frontier:
                nxt = []
                for t in frontier:
                    for t2 in neighbors_fn(t):
                        if t2 not in orbit:
                            orbit.add(t2)
                            nxt.append(t2)
                frontier = nxt
            rep = min(orbit)
            for q in orbit:
                self.canon[q] = rep
            seen |= orbit
            reps.append(rep)
        self.reps = sorted(reps)
        self.index = {r: k for k, r in enumerate(self.reps)}

    def __len__(self):
        return len(self.reps)

    def class_index(self, p):
        return self.index[self.canon[p]]


def left_quotient_points(g, n):
    return list(itertools.product(g.elements(), repeat=n + 1))


def left_quotient(g, sub, n):
    """G^{n+1}/H^{n+1} under (g_i) . (h_i) = (h_i^{-1} g_i h_{i+1})."""
    subset = sorted(set(sub))
    points = left_quotient_points(g, n)
    if len(points) * (n + 1) * len(subset) > TUPLE_BUDGET:
        raise GroupError("tuple budget exceeded; use sampling")

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


def left_picture_set(g, sub, n_max):
    """G^{n+1}/H^{n+1} with insert-identity cofaces, merge codegeneracies,
    and left rotation, on canonical representatives."""
    quotients = {n: left_quotient(g, sub, n) for n in range(n_max + 1)}

    def elems(n):
        return quotients[n].reps

    def coface(n, i, e):
        if i <= n:
            t = e[:i] + (g.identity,) + e[i:]
        else:
            t = e + (g.identity,)
        return quotients[n + 1].canon[t]

    def codegen(n, j, e):
        t = e[:j] + (g.mul(e[j], e[j + 1]),) + e[j + 2:]
        return quotients[n - 1].canon[t]

    def cocyc(n, e):
        return quotients[n].canon[e[1:] + (e[0],)]

    cs = build_cocyclic_set(n_max, elems, coface, codegen, cocyc)
    return cs, quotients


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


def right_picture_set(g, gset, n_max):
    """G \\ (ad(G) x (G/H)^{n+1}) with duplication cofaces (wrap coface
    twisted by the conjugation coordinate), deletion codegeneracies, and
    the twisted rotation, on canonical representatives."""
    quotients = {n: right_quotient(g, gset, n) for n in range(n_max + 1)}
    cs = build_cocyclic_set(
        n_max, lambda n: quotients[n].reps,
        lambda n, i, e: quotients[n + 1].canon[_right_coface(gset, n, i, e)],
        lambda n, j, e: quotients[n - 1].canon[_right_codegen(j, e)],
        lambda n, e: quotients[n].canon[_right_cocyclic(gset, e)])
    return cs, quotients


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


def dual_picture_check(g, sub, n_max):
    """Orbit counts, the canonical bijection in both directions, and full
    operator intertwining for the dual picture."""
    subset = sorted(set(sub))
    gset = coset_action(g, subset)
    base = _base_coset_index(g, gset, subset)
    cosets = g.left_cosets(subset)
    left, lq = left_picture_set(g, sub, n_max)
    right, rq = right_picture_set(g, gset, n_max)
    checks = []
    checks += check_identities(left).checks
    checks += check_identities(right).checks
    maps = {}
    for n in range(n_max + 1):
        checks.append(AxiomCheck(
            f"orbit counts agree @ {n}", len(left.elements[n]) == len(right.elements[n])))
        fwd = _map_table([rq[n].class_index(dual_forward_point(g, gset, base, rep))
                         for rep in left.elements[n]], len(right.elements[n]))
        bwd = _map_table([lq[n].class_index(dual_backward_point(g, cosets, rep))
                         for rep in right.elements[n]], len(left.elements[n]))
        checks.append(AxiomCheck(f"mutually inverse @ {n}",
                                 (bwd @ fwd).is_identity() and (fwd @ bwd).is_identity()))
        maps[n] = fwd
    checks += intertwining_checks(left, right, maps)
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


def stabilizer_coincidence_check(g, sub, n_max, sample=None, seed=0):
    """For every tuple (or a seeded sample) the brute-force stabilizer, the
    closed form, and the stabilizer of the image point coincide."""
    subset = sorted(set(sub))
    gset = coset_action(g, subset)
    base = _base_coset_index(g, gset, subset)
    checks = []
    for n in range(n_max + 1):
        tuples = list(itertools.product(g.elements(), repeat=n + 1))
        if sample is not None and len(tuples) > sample:
            rng = random.Random(seed)
            tuples = rng.sample(tuples, sample)
        ok = True
        witness = None
        for tup in tuples:
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
    fixed = {n: set(extended_quotient(g, gset, n).canon) for n in range(n_max + 2)}
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
