"""Finite groups by multiplication table, group actions, and class functions.

Groups are kept deliberately small (built-ins up to order 12): every check
in the dual-picture machinery is an exhaustive enumeration over tuples, so
the multiplication table representation is the right level of generality.
"""

from __future__ import annotations

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
        self.inverse = [row.index(self.identity) for row in self.table]
        self._index = {nm: i for i, nm in enumerate(self.names)}
        self._conj_classes = None

    def _validate(self):
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise GroupError("multiplication table is not square")
        for r in self.table:
            if sorted(r) != list(range(n)):
                raise GroupError("row of multiplication table is not a permutation")
        for c in range(n):
            if sorted(self.table[r][c] for r in range(n)) != list(range(n)):
                raise GroupError("column of multiplication table is not a permutation")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise GroupError(f"associativity fails at ({a},{b},{c})")

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                return e
        raise GroupError("no identity element")

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
        """Sorted element list of the subgroup generated by ``gens``."""
        seen = {self.identity}
        frontier = list(gens)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(seen):
                    for c in (self.mul(a, b), self.mul(b, a), self.inv(a)):
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
                if a not in seen:
                    seen.add(a)
                    nxt.append(a)
            frontier = nxt
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
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(f"C{n}", names, table)


def _perm_mul(p, q):
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_name(p):
    n = len(p)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + "".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric_group(n):
    import itertools

    perms = sorted(itertools.permutations(range(n)))
    lookup = {p: i for i, p in enumerate(perms)}
    table = [[lookup[_perm_mul(p, q)] for q in perms] for p in perms]
    return FiniteGroup(f"S{n}", [_cycle_name(p) for p in perms], table)


def quaternion_group():
    # order: 1, -1, i, -i, j, -j, k, -k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def unit_mul(a, b):
        tbl = {
            ("1", x): (1, x) for x in "1ijk"
        }
        tbl.update({(x, "1"): (1, x) for x in "1ijk"})
        tbl.update(
            {
                ("i", "i"): (-1, "1"),
                ("j", "j"): (-1, "1"),
                ("k", "k"): (-1, "1"),
                ("i", "j"): (1, "k"),
                ("j", "i"): (-1, "k"),
                ("j", "k"): (1, "i"),
                ("k", "j"): (-1, "i"),
                ("k", "i"): (1, "j"),
                ("i", "k"): (-1, "j"),
            }
        )
        return tbl[(a, b)]

    def decode(name):
        sign = -1 if name.startswith("-") else 1
        return sign, name.lstrip("-")

    def encode(sign, unit):
        if unit == "1":
            return "1" if sign == 1 else "-1"
        return unit if sign == 1 else "-" + unit

    idx = {nm: i for i, nm in enumerate(names)}
    table = []
    for a in names:
        sa, ua = decode(a)
        row = []
        for b in names:
            sb, ub = decode(b)
            s, u = unit_mul(ua, ub)
            row.append(idx[encode(sa * sb * s, u)])
        table.append(row)
    return FiniteGroup("Q8", names, table)


def alternating_group_4():
    import itertools

    perms = sorted(p for p in itertools.permutations(range(4)) if _perm_parity(p) == 0)
    lookup = {p: i for i, p in enumerate(perms)}
    table = [[lookup[_perm_mul(p, q)] for q in perms] for p in perms]
    return FiniteGroup("A4", [_cycle_name(p) for p in perms], table)


def _perm_parity(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


BUILTIN_GROUPS = {
    "trivial": lambda: cyclic_group(1),
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C6": lambda: cyclic_group(6),
    "S3": lambda: symmetric_group(3),
    "Q8": quaternion_group,
    "A4": alternating_group_4,
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


# rational character tables for the groups whose characters are rational
def irreducible_characters(group):
    """Known rational character tables, as ClassFunctions (classes in canonical order)."""
    name = group.name
    classes = group.conjugacy_classes()
    q = QQ.from_int
    if name == "C1" or group.order == 1:
        return [ClassFunction(group, [q(1)])]
    if name == "C2":
        # classes: {e}, {g}
        return [ClassFunction(group, [q(1), q(1)]), ClassFunction(group, [q(1), q(-1)])]
    if name == "S3":
        # canonical class order: e, transpositions, 3-cycles? verify by sizes
        sizes = [len(c) for c in classes]
        assert sizes == [1, 2, 3] or sizes == [1, 3, 2]
        # order classes as (e, transpositions, 3-cycles) independent of listing
        def vals(on_e, on_transp, on_3cyc):
            out = []
            for cls in classes:
                rep = cls[0]
                if rep == group.identity:
                    out.append(on_e)
                elif len(cls) == 3:
                    out.append(on_transp)
                else:
                    out.append(on_3cyc)
            return out

        return [
            ClassFunction(group, vals(q(1), q(1), q(1))),
            ClassFunction(group, vals(q(1), q(-1), q(1))),
            ClassFunction(group, vals(q(2), q(0), q(-1))),
        ]
    if name == "Q8":
        # classes: {1}, {-1}, {±i}, {±j}, {±k}
        def vals(f):
            return [f(cls) for cls in classes]

        def sign_char(axis):
            def f(cls):
                nm = group.names[cls[0]]
                core = nm.lstrip("-")
                if core == "1":
                    return q(1)
                return q(1) if core == axis else q(-1)

            return f

        one = ClassFunction(group, vals(lambda cls: q(1)))
        chi_i = ClassFunction(group, vals(sign_char("i")))
        chi_j = ClassFunction(group, vals(sign_char("j")))
        chi_k = ClassFunction(group, vals(sign_char("k")))

        def two_dim(cls):
            nm = group.names[cls[0]]
            if nm == "1":
                return q(2)
            if nm == "-1":
                return q(-2)
            return q(0)

        return [one, chi_i, chi_j, chi_k, ClassFunction(group, vals(two_dim))]
    raise GroupError(f"no built-in rational character table for {name}")
