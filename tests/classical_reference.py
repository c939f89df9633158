"""The finite cocyclic sets of both finite-group pictures, enumerated on
tuples by hand, and the two picture checks on them: the reference that
``classical``, which reads the same sets off the linear objects over kG,
is compared against.

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
    _right_cocyclic,
    _right_codegen,
    _right_coface,
    dual_backward_point,
    dual_forward_point,
    intertwining_checks,
    left_quotient,
    right_quotient,
)
from hopfcyclic.cyclic import check_identities
from hopfcyclic.groups import GroupError, coset_action
from hopfcyclic.hopf import AxiomCheck, ValidationReport
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
        checks.append(AxiomCheck(f"mutually inverse @ {n}",
                                 (bwd @ fwd).is_identity() and (fwd @ bwd).is_identity()))
        checks.append(AxiomCheck(
            f"sizes |G||H|^n @ {n}",
            len(fib) == len(pro) == g.order * order_h ** n))
        maps[n] = fwd
    checks += intertwining_checks(prod, fiber, maps)
    return ValidationReport(checks)


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
        checks.append(AxiomCheck(f"mutually inverse @ {n}",
                                 (bwd @ fwd).is_identity() and (fwd @ bwd).is_identity()))
        maps[n] = fwd
    checks += intertwining_checks(left, right, maps)
    return ValidationReport(checks)
