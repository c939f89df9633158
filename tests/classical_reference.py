"""The finite cocyclic sets of both finite-group pictures, enumerated on
tuples by hand, the two picture checks on them, and the extended
quotients, their transport and the Frobenius trace on the same orbits:
the reference that ``classical``, which reads all of them off the linear
objects over kG, is compared against.

A set holds each operator as the all-ones column ``IndexTable`` of its
map on canonical representatives, keyed as in ``cyclic.CocyclicModule``,
so ``cyclic.check_identities`` and ``classical.intertwining_checks`` take
it as they take a cocyclic module.  Cofaces insert (or duplicate) at slot
i for 0 <= i <= n+1, with the wrap coface delta_{n+1} = tau . delta_0;
codegeneracy sigma_j removes what delta_j and delta_{j+1} insert.
"""

import itertools
from dataclasses import dataclass

from hopfcyclic.classical import (
    TUPLE_BUDGET,
    _base_coset_index,
    _check_budget,
    dual_forward_point,
    intertwining_checks,
)
from hopfcyclic.cyclic import check_identities
from hopfcyclic.groups import ClassFunction, GroupError, GSet, coset_action, subgroup_as_group
from hopfcyclic.hopf import AxiomCheck, ValidationReport, equality_check
from hopfcyclic.iso import _mutually_inverse
from hopfcyclic.linalg import QQ, IndexTable


@dataclass
class CocyclicFiniteSet:
    """Per-degree finite sets with cofaces delta[n][i], codegeneracies
    sigma[n][j] and cocyclic tau[n]; ``elements[n]`` lists canonical
    representatives, and each operator is the all-ones column table of
    its map on indices into the target degree's list."""

    n_max: int
    elements: list
    delta: dict   # (n, i): degree n -> degree n+1, 0 <= i <= n+1
    sigma: dict   # (n, j): degree n -> degree n-1, 0 <= j <= n-1
    tau: dict     # n: degree n -> degree n

    def dims(self):
        return [len(e) for e in self.elements]


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
        checks.append(AxiomCheck(f"mutually inverse @ {n}", _mutually_inverse(fwd, bwd)))
        checks.append(AxiomCheck(
            f"sizes |G||H|^n @ {n}",
            len(fib) == len(pro) == g.order * order_h ** n))
        maps[n] = fwd
    checks += intertwining_checks(prod, fiber, maps, n_max)
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# orbits and the dual picture's operators on tuples


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
# the dual picture


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
        checks.append(AxiomCheck(f"mutually inverse @ {n}", _mutually_inverse(fwd, bwd)))
        maps[n] = fwd
    checks += intertwining_checks(left, right, maps, n_max)
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


def class_function_dim_check(g):
    """dim O(G \\ ad G) = conjugacy class count."""
    point = GSet(g, 1, [[0]] * g.order)
    ext = extended_quotient(g, point, 0)
    classes = len(g.conjugacy_classes())
    return ValidationReport([equality_check("extended quotient of a point counts classes",
                                            len(ext), classes)])
