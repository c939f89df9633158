"""Built-in Hopf algebras and Galois pairs used by the test suite and CLI.

Everything the acceptance checks need is constructible from here with no
external files: group algebras kC2, kC3, kS3, the function algebra O(S3),
and the 4-dimensional algebra H4, together with their standard coideal
subalgebra / quotient coalgebra pairs.
"""

from __future__ import annotations

from .groups import builtin_group
from .hopf import (
    GaloisSetup,
    HopfError,
    SparseMatrix,
    group_algebra,
    function_algebra,
    setup_from_ideal,
    setup_from_subalgebra,
    sweedler_algebra,
    trivial_subalgebra,
    takeuchi_subalgebra_to_quotient,
)
from .linalg import QQ


# the one list of built-in algebras: HOPF_NAMES and builtin_hopf both read it
BUILTIN_HOPF = {
    "kC2": lambda f: group_algebra(builtin_group("C2"), f),
    "kC3": lambda f: group_algebra(builtin_group("C3"), f),
    "kC4": lambda f: group_algebra(builtin_group("C4"), f),
    "kS3": lambda f: group_algebra(builtin_group("S3"), f),
    "OS3": lambda f: function_algebra(builtin_group("S3"), f),
    "OC2": lambda f: function_algebra(builtin_group("C2"), f),
    "H4": sweedler_algebra,
    "sweedler": sweedler_algebra,
}
HOPF_NAMES = tuple(BUILTIN_HOPF)


def builtin_hopf(name, field=QQ):
    try:
        build = BUILTIN_HOPF[name]
    except KeyError:
        raise HopfError(f"unknown built-in Hopf algebra {name!r}") from None
    return build(field)


def _basis_columns(h, indices):
    f = h.field
    return SparseMatrix.from_entries(h.dim, len(indices), f,
                                     ((i, j, f.one) for j, i in enumerate(indices)))


# basis order of kS3 follows lexicographic one-line notation:
# 0:e  1:(23)  2:(12)  3:(123)  4:(132)  5:(13)
S3_C2_INDICES = (0, 2)
S3_C3_INDICES = (0, 3, 4)

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
# every name builtin_setup accepts: the setups, and <name>/k for every algebra
PAIR_NAMES = SETUP_NAMES + tuple(f"{n}/k" for n in HOPF_NAMES if f"{n}/k" not in SETUP_NAMES)


def builtin_setup(name, field=QQ):
    """A named homogeneous Galois pair (H, B, C), one of ``PAIR_NAMES``."""
    if name not in PAIR_NAMES:
        raise HopfError(f"unknown built-in setup {name!r}")
    if name.endswith("/k"):
        h = builtin_hopf(name.split("/")[0], field)
        b = trivial_subalgebra(h)
        return GaloisSetup(h, b, takeuchi_subalgebra_to_quotient(h, b), name)
    if name == "kS3/kC2":
        h = builtin_hopf("kS3", field)
        return setup_from_subalgebra(h, _basis_columns(h, S3_C2_INDICES), name)
    if name == "kS3/kC3":
        h = builtin_hopf("kS3", field)
        return setup_from_subalgebra(h, _basis_columns(h, S3_C3_INDICES), name)
    if name == "H4/B":
        h = builtin_hopf("H4", field)
        return setup_from_subalgebra(h, _basis_columns(h, (0, 2)), name)
    # OS3/OC2, with the ideal of functions vanishing on the subgroup <(12)> = {0, 2}
    h = builtin_hopf("OS3", field)
    gens = _basis_columns(h, tuple(i for i in range(6) if i not in S3_C2_INDICES))
    return setup_from_ideal(h, gens, name)
