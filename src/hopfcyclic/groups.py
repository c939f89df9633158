"""Finite groups by multiplication table, group actions, and class functions.

Groups are kept small (built-ins up to order 12), so the multiplication
table representation is the right level of generality: ``classical``
reads its pictures and inertia data off the group algebra and enumerates
only the stabilizers on tuples, within its ``TUPLE_BUDGET``.

The built-in groups are data: cyclic groups under addition mod n, S3 and A4
as permutation groups, and Q8 as the unit quaternions under the Hamilton
product.  So are the rational character tables of the trivial group, C2, S3
and Q8.  A group gets one of those tables only when its multiplication table
equals that built-in group's, whatever the group or its elements are named.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .linalg import QQ


class GroupError(ValueError):
    pass


class FiniteGroup:
    """A finite group with named elements and a validated multiplication table."""

    def __init__(self, name, names, table):
        self.name = name
        self.names = list(names)
        self.order = len(self.names)
        self.table = [list(r) for r in table]
        self._validate()
        self.identity = self._find_identity()
        self.generators = self._generators()
        self._check_associative()
        self.inverse = [row.index(self.identity) for row in self.table]
        self._index = {nm: i for i, nm in enumerate(self.names)}
        self._conj_classes = None

    def _validate(self):
        n = self.order
        if len(self.table) != n:
            raise GroupError(f"names list has length {n}, table has {len(self.table)} rows")
        if len(set(self.names)) != n:
            raise GroupError("element names are not distinct")
        if any(len(r) != n for r in self.table):
            raise GroupError("multiplication table is not square")
        for r in self.table:
            if sorted(r) != list(range(n)):
                raise GroupError("row of multiplication table is not a permutation")
        for c in range(n):
            if sorted(self.table[r][c] for r in range(n)) != list(range(n)):
                raise GroupError("column of multiplication table is not a permutation")

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                return e
        raise GroupError("no identity element")

    def _generators(self):
        """Each element, in index order, outside the closure of those before it."""
        gens, have = [], {self.identity}
        for x in self.elements():
            if x not in have:
                gens.append(x)
                have = set(self.subgroup_closure(gens))
        return gens

    def _check_associative(self):
        # Light's test: the b with (ab)c = a(bc) for all a, c are closed under
        # products, so b need only range over generators, in O(n^2) each
        t, n = self.table, self.order
        for b in self.generators:
            for a in range(n):
                for c in range(n):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise GroupError(f"associativity fails at ({a},{b},{c})")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def conj(self, g, x):
        """g x g^{-1}"""
        return self.mul(self.mul(g, x), self.inv(g))

    def index(self, name):
        return self._index[name]

    def elements(self):
        return range(self.order)

    def prod(self, elems):
        acc = self.identity
        for x in elems:
            acc = self.mul(acc, x)
        return acc

    def subgroup_closure(self, gens):
        """Sorted element list of the subgroup generated by ``gens``: the
        identity multiplied by the generators until nothing new appears."""
        seen, frontier = {self.identity}, [self.identity]
        while frontier:
            a = frontier.pop()
            for c in (self.mul(a, x) for x in gens):
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return sorted(seen)

    def conjugacy_classes(self):
        """List of sorted conjugacy classes, ordered by least element."""
        if self._conj_classes is None:
            left = set(self.elements())
            classes = []
            while left:
                x = min(left)
                cls = sorted({self.conj(g, x) for g in self.elements()})
                classes.append(cls)
                left -= set(cls)
            self._conj_classes = classes
        return self._conj_classes

    def class_of(self, x):
        for k, cls in enumerate(self.conjugacy_classes()):
            if x in cls:
                return k
        raise GroupError("element outside group")

    def centralizer(self, x):
        return [g for g in self.elements() if self.conj(g, x) == x]

    def left_cosets(self, sub):
        """Left cosets gH as sorted tuples, ordered by least representative."""
        subset = set(sub)
        seen = set()
        cosets = []
        for g in self.elements():
            cs = tuple(sorted(self.mul(g, h) for h in subset))
            if cs not in seen:
                seen.add(cs)
                cosets.append(cs)
        return cosets

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def resolve_subgroup(g, text):
    """The subgroup of ``g`` generated by the elements ``text`` names,
    comma- or space-separated, as sorted indices; all of ``g`` for none or "all"."""
    if text in (None, "", "all"):
        return sorted(g.elements())
    tokens = text.replace(",", " ").split()
    for token in tokens:
        if token not in g.names:
            raise GroupError(f"unknown group element {token!r}")
    return g.subgroup_closure([g.index(token) for token in tokens])


@dataclass
class GSet:
    """A finite left G-set given by an action table act[g][x]."""

    group: FiniteGroup
    size: int
    act: list

    def __post_init__(self):
        g = self.group
        if len(self.act) != g.order or any(len(r) != self.size for r in self.act):
            raise GroupError("action table has wrong shape")
        for x in range(self.size):
            if self.act[g.identity][x] != x:
                raise GroupError("identity does not act trivially")
        for a in g.elements():
            for b in g.elements():
                ab = g.mul(a, b)
                for x in range(self.size):
                    if self.act[a][self.act[b][x]] != self.act[ab][x]:
                        raise GroupError("action is not compatible with multiplication")

    def apply(self, g, x):
        return self.act[g][x]


def coset_action(group, sub):
    """The left G-set G/H with points ordered by least coset representative."""
    cosets = group.left_cosets(sub)
    lookup = {cs: i for i, cs in enumerate(cosets)}
    act = []
    for g in group.elements():
        row = []
        for cs in cosets:
            row.append(lookup[tuple(sorted(group.mul(g, x) for x in cs))])
        act.append(row)
    return GSet(group, len(cosets), act)


# ---------------------------------------------------------------------------
# built-in groups


def cyclic_group(n):
    names = ["e"] + [f"g{'^' + str(k) if k > 1 else ''}" for k in range(1, n)]
    return _product_group(f"C{n}", range(n), names, lambda a, b: (a + b) % n)


def _product_group(name, elems, names, product):
    """The group of ``elems``, in this order, under ``product``."""
    at = {x: i for i, x in enumerate(elems)}
    return FiniteGroup(name, names, [[at[product(x, y)] for y in elems] for x in elems])


def _cycle_name(p):
    """Cycle notation on the points 1..n; e for the identity."""
    parts, seen = [], set()
    for i in range(len(p)):
        cyc = [i]
        while p[cyc[-1]] != i:
            cyc.append(p[cyc[-1]])
        if i not in seen and len(cyc) > 1:
            parts.append("(" + "".join(str(k + 1) for k in cyc) + ")")
        seen.update(cyc)
    return "".join(parts) or "e"


def permutation_group(name, perms):
    """Permutations of 0..n-1 (tuples of images) in lexicographic order,
    composed right to left: (p q)(i) = p(q(i))."""
    perms = sorted(perms)
    return _product_group(name, perms, [_cycle_name(p) for p in perms],
                          lambda p, q: tuple(p[i] for i in q))


def _hamilton(p, q):
    """The product of quaternions a + bi + cj + dk written as (a, b, c, d)."""
    a, b, c, d = p
    w, x, y, z = q
    return (a * w - b * x - c * y - d * z, a * x + b * w + c * z - d * y,
            a * y - b * z + c * w + d * x, a * z + b * y - c * x + d * w)


def quaternion_group():
    """Q8: the units 1, -1, i, -i, j, -j, k, -k under the Hamilton product."""
    axes = [(axis, sign) for axis in range(4) for sign in (1, -1)]
    units = [tuple(sign if a == axis else 0 for a in range(4)) for axis, sign in axes]
    names = [("-" if sign < 0 else "") + "1ijk"[axis] for axis, sign in axes]
    return _product_group("Q8", units, names, _hamilton)


def _is_even(p):
    return sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0


BUILTIN_GROUPS = {
    "trivial": lambda: cyclic_group(1),
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C6": lambda: cyclic_group(6),
    "S3": lambda: permutation_group("S3", itertools.permutations(range(3))),
    "Q8": quaternion_group,
    "A4": lambda: permutation_group("A4", filter(_is_even, itertools.permutations(range(4)))),
}


def builtin_group(name):
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise GroupError(f"unknown built-in group {name!r}") from None


# ---------------------------------------------------------------------------
# class functions and characters


@dataclass
class ClassFunction:
    """One exact value per conjugacy class of ``group``."""

    group: FiniteGroup
    values: list
    field: object = field(default=QQ)

    def __post_init__(self):
        if len(self.values) != len(self.group.conjugacy_classes()):
            raise GroupError("wrong number of class values")

    def at(self, g):
        return self.values[self.group.class_of(g)]

    def inner(self, other):
        """<self, other> = (1/|G|) sum_g self(g) other(g^{-1})."""
        f = self.field
        total = f.zero
        for g in self.group.elements():
            total = f.add(total, f.mul(self.at(g), other.at(self.group.inv(g))))
        return f.mul(total, f.inv(f.from_int(self.group.order)))

    def restrict(self, subgroup_elems, subgroup):
        """Restriction along a subgroup realized as its own FiniteGroup.

        ``subgroup_elems`` lists the parent indices in the same order as the
        elements of ``subgroup``.
        """
        vals = []
        for cls in subgroup.conjugacy_classes():
            vals.append(self.at(subgroup_elems[cls[0]]))
        return ClassFunction(subgroup, vals, self.field)


def subgroup_as_group(group, elems):
    """Realize a subgroup (list of parent indices) as a standalone FiniteGroup."""
    pos = {g: i for i, g in enumerate(elems)}
    table = [[pos[group.mul(a, b)] for b in elems] for a in elems]
    return FiniteGroup(
        f"{group.name}<{','.join(group.names[g] for g in elems)}>",
        [group.names[g] for g in elems],
        table,
    )


# The rational character tables of the built-in groups that have one: one
# row per irreducible character, columns in canonical class order.  Every
# group of order 1 has the trivial group's table [[0]], so it gets [[1]].
CHARACTER_TABLES = {
    "trivial": [[1]],
    "C2": [[1, 1], [1, -1]],
    # classes e, transpositions, 3-cycles
    "S3": [[1, 1, 1], [1, -1, 1], [2, 0, -1]],
    # classes 1, -1, {i, -i}, {j, -j}, {k, -k}
    "Q8": [[1, 1, 1, 1, 1], [1, 1, 1, -1, -1], [1, 1, -1, 1, -1], [1, 1, -1, -1, 1],
           [2, -2, 0, 0, 0]],
}


def irreducible_characters(group):
    """The irreducible characters of ``group`` as ClassFunctions, from the
    built-in group in ``CHARACTER_TABLES`` with the same multiplication table.
    Names play no part: a table is never applied to a group it does not describe."""
    for name, rows in CHARACTER_TABLES.items():
        if builtin_group(name).table == group.table:
            return [ClassFunction(group, [QQ.from_int(v) for v in row]) for row in rows]
    raise GroupError(f"no built-in rational character table for {group.name}")
