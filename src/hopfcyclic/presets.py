"""Built-in Hopf algebras and Galois pairs, named by one grammar.

``k<G>`` is kG and ``O<G>`` is O(G) for every built-in group G, and
``H4`` (or ``sweedler``) is Sweedler's algebra.  A pair is a Hopf name, a
slash and generators of a subgroup K in ``classical --subgroup``'s syntax:
B = kK in kG, or C = O(K) from O(G).  ``<name>/k`` has B = k, ``H4/B`` has
B spanned by 1 and x, and ``ALIASES`` keeps the older pair names.
"""

from __future__ import annotations

from .groups import BUILTIN_GROUPS, GroupError, builtin_group, resolve_subgroup
from .hopf import (
    SparseMatrix,
    group_algebra,
    function_algebra,
    setup_from_ideal,
    setup_from_subalgebra,
    sweedler_algebra,
)
from .linalg import QQ

GROUP_HOPF = {"k": group_algebra, "O": function_algebra}
SWEEDLER_NAMES = ("H4", "sweedler")
ALIASES = {"kS3/kC2": "kS3/(12)", "kS3/kC3": "kS3/(123)", "OS3/OC2": "OS3/(12)"}

# the names README lists and the tests sweep
HOPF_NAMES = ("kC2", "kC3", "kC4", "kS3", "OS3", "OC2", "H4", "sweedler")
SETUP_NAMES = (
    "kC2/k",
    "kC3/k",
    "kS3/k",
    "H4/k",
    "kS3/kC2",
    "kS3/kC3",
    "H4/B",
    "OS3/OC2",
)
PAIR_NAMES = SETUP_NAMES + tuple(f"{n}/k" for n in HOPF_NAMES if f"{n}/k" not in SETUP_NAMES)


def is_builtin_hopf(name):
    """Whether ``builtin_hopf`` builds ``name``."""
    return name in SWEEDLER_NAMES or (name[:1] in GROUP_HOPF and name[1:] in BUILTIN_GROUPS)


def _group_of(name):
    """The built-in group G of the Hopf name k<G> or O<G>."""
    if name[:1] not in GROUP_HOPF:
        raise GroupError(f"unknown Hopf algebra {name!r}: write k<G> or O<G> for a built-in "
                         "group G, or H4")
    return builtin_group(name[1:])


def builtin_hopf(name, field=QQ):
    if name in SWEEDLER_NAMES:
        return sweedler_algebra(field)
    g = _group_of(name)
    return GROUP_HOPF[name[0]](g, field)


def _basis_columns(h, indices):
    f = h.field
    return SparseMatrix.from_entries(h.dim, len(indices), f,
                                     ((i, j, f.one) for j, i in enumerate(indices)))


def group_pair(g, sub, field=QQ, name="kG/kK"):
    """The pair of the subgroup ``sub`` of ``g``, on the side the prefix of
    ``name`` picks: B = kK in kG, or C = O(K), O(G) modulo the functions
    that vanish on K."""
    h = GROUP_HOPF[name[0]](g, field)
    if name[0] == "k":
        return setup_from_subalgebra(h, _basis_columns(h, sorted(set(sub))), name)
    return setup_from_ideal(h, _basis_columns(h, [x for x in g.elements() if x not in sub]), name)


def builtin_setup(name, field=QQ):
    """The Galois pair (H, B, C) of a pair name, which it keeps as typed."""
    hopf, slash, sub = ALIASES.get(name, name).partition("/")
    if name == "H4/B":
        h = sweedler_algebra(field)
        return setup_from_subalgebra(h, _basis_columns(h, (0, 2)), name)
    if slash and sub == "k":
        h = builtin_hopf(hopf, field)
        return setup_from_subalgebra(h, h.eta, name)
    if not slash or hopf in SWEEDLER_NAMES:
        raise GroupError(f"{name!r} is no pair: write <Hopf name>/<subgroup>, H4/k or H4/B")
    g = _group_of(hopf)
    return group_pair(g, resolve_subgroup(g, sub), field, name)
