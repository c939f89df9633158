"""Command-line front end.

Subcommands: validate, galois, homology, isocheck, tor, spectral,
classical.  Exit code 0 means every check passed, 1 means a mathematical
check failed (the report carries a witness), 2 means bad input: the input
could not be parsed, or a Hopf algebra file given to any command but
``validate`` breaks an axiom.  Built-in algebras (``presets.HOPF_NAMES``)
and pairs (``presets.PAIR_NAMES``: kS3/kC2, kS3/kC3, H4/B, OS3/OC2, and
<name>/k for every algebra) can be named in place of files, so the whole
acceptance surface runs without external data.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import presets
from .classical import (
    class_function_dim_check,
    direct_picture_check,
    dual_picture_check,
    extended_quotient_check,
    extended_quotient_transport_check,
    frobenius_reciprocity_check,
    induce_class_function,
    stabilizer_coincidence_check,
)
from .cyclic import (
    COORDINATE_BUDGET,
    check_identities,
    cyclic_homology,
    hochschild_homology,
    relative_cyclic,
)
from .groups import (
    ClassFunction,
    GroupError,
    builtin_group,
    coset_action,
    subgroup_as_group,
)
from .hopf import (
    GaloisSetup,
    HopfError,
    HypothesisError,
    NotGalois,
    NotHopfIdeal,
    canonical_map_n,
    cocanonical_map,
    coinvariants,
    galois_criterion,
    quotient_module_coalgebra,
    subalgebra_from_columns,
    translation_map,
    trivial_subalgebra,
    takeuchi_subalgebra_to_quotient,
)
from .iso import (
    check_cyclic_map,
    comodule_algebra_transform,
    module_coalgebra_transform,
    normal_quotient_comparison,
)
from .linalg import LinAlgError, PrimeField, QQ, span_contains
from .loaders import InputError, declared_field, load_group_file, load_hopf_file, load_ideal_file
from .report import Report
from .sayd import ad_module, coad_module
from .specseq import (
    extension_double_complex,
    five_term_check,
    hochschild_tor_check,
    theorem_check,
    tor_dims,
)


def _parse_field(text, hopf):
    """``--field``, or when it is omitted the field that the Hopf algebra
    file ``hopf`` declares; Q for a built-in algebra or pair."""
    if text is None:
        is_file = hopf not in presets.HOPF_NAMES and os.path.isfile(hopf or "")
        return declared_field(hopf) if is_file else QQ
    if text.lower() == "q":
        return QQ
    if text.lower().startswith("fp:"):
        try:
            return PrimeField(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise InputError(f"bad field {text!r}: {exc}") from None
    raise InputError(f"unknown field {text!r} (use q or fp:<prime>)")


def _resolve_hopf(arg, field, check_axioms=True):
    """A built-in algebra, or a loaded file that (unless ``validate`` reads
    it) must pass every Hopf axiom: a file that breaks one is bad input."""
    if arg in presets.HOPF_NAMES:
        return presets.builtin_hopf(arg, field)
    if not os.path.exists(arg):
        raise InputError(f"no built-in Hopf algebra or file named {arg!r}")
    h = load_hopf_file(arg, field)
    failures = h.validate().failures() if check_axioms else []
    if failures:
        raise InputError("bad Hopf algebra file: " + "; ".join(
            f"axiom {c.name!r} fails (witness {c.witness})" for c in failures))
    return h


def _resolve_setup(args, field):
    name = args.hopf
    sub = getattr(args, "subalgebra", None)
    ideal = getattr(args, "ideal", None)
    if "/" in name and not os.path.exists(name):
        if name not in presets.PAIR_NAMES:
            raise InputError(f"no built-in pair or file named {name!r}")
        if sub or ideal:
            option = "--subalgebra" if sub else "--ideal"
            raise InputError(f"the built-in pair {name!r} fixes B and C; give {option} with a "
                             "Hopf algebra, not a pair")
        return presets.builtin_setup(name, field)
    h = _resolve_hopf(name, field)
    if sub and ideal:
        raise InputError("give either --subalgebra or --ideal, not both")
    if sub and not os.path.exists(sub):
        raise InputError(f"subalgebra file {sub!r} not found")
    if not (sub or ideal):
        b = trivial_subalgebra(h)
        return GaloisSetup(h, b, takeuchi_subalgebra_to_quotient(h, b), f"{name}/k")
    cols = load_ideal_file(sub or ideal, h)
    try:
        # only the file's own hypotheses are bad input; a failure of what is
        # derived from it (B^+H, the coinvariants, the induced structure) is not
        given = subalgebra_from_columns(h, cols) if sub else quotient_module_coalgebra(h, cols)
    except HypothesisError as exc:
        raise InputError(f"{'--subalgebra' if sub else '--ideal'} file: {exc}") from None
    if sub:
        return GaloisSetup(h, given, takeuchi_subalgebra_to_quotient(h, given), f"{name}/file")
    return GaloisSetup(h, coinvariants(h, given), given, f"{name}/ideal")


def _clamp_degree(n):
    if not 0 <= n <= 5:
        raise InputError("max degree must be between 0 and 5")
    return n


# a degree-n command builds spaces of up to dim(H)^(n+2) coordinates (the
# cyclic module to degree n + 1, the bar complex to degree n + 1 on ad H);
# kS3 at degree 5 has 6^7 = 279,936 and peaks near 0.3 GB in HH and HC and
# 0.16 GB in Tor
def _check_budget(h, n):
    """Refuse, as bad input, a run whose spaces would pass COORDINATE_BUDGET."""
    if h.dim ** (n + 2) > COORDINATE_BUDGET:
        raise InputError(f"coordinate budget exceeded: {h.dim}^{n + 2} = {h.dim ** (n + 2)} "
                         f"coordinates is over the budget of {COORDINATE_BUDGET}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args, field):
    rep = Report("validate", {"hopf": args.hopf, "field": field.name})
    h = _resolve_hopf(args.hopf, field, check_axioms=False)
    rep.params["dim"] = h.dim
    rep.add_validation("axiom: ", h.validate())
    # each builder validates its coefficients; coad is tried only once ad passes
    for kind, build in (("adjoint", ad_module), ("coadjoint", coad_module)):
        try:
            build(h)
        except HopfError as exc:
            rep.add_check(f"{kind} coefficients SAYD", False, str(exc))
            break
        rep.add_check(f"{kind} coefficients SAYD", True)
    return rep


def cmd_galois(args, field):
    rep = Report("galois", {"hopf": args.hopf, "field": field.name})
    setup = _resolve_setup(args, field)
    h, b, c = setup.hopf, setup.subalgebra, setup.quotient
    rep.params.update({"setup": setup.name, "dim_B": b.dim, "dim_C": c.dim,
                       "dim_ideal": c.ideal.dim})
    crit = galois_criterion(h, b, c)
    rep.add_check("ideal equals B+H (Galois criterion)", crit)
    try:
        can, can_inv, dom = canonical_map_n(h, b, c, 1)
        rep.add_check("canonical map bijective in degree 1", True)
        rep.tables["canonical_map"] = {"dim": can.rows}
    except NotGalois as exc:
        rep.add_check("canonical map bijective in degree 1", False, str(exc))
        return rep
    back = coinvariants(h, c)
    # with equal dimensions, one containment is equality
    round_trip = back.dim == b.dim and span_contains(back.space.section, b.space.section)
    rep.add_check("coinvariants recover the subalgebra", round_trip)
    try:
        translation_map(h, b, c)
        rep.add_check("translation map independent of lift", True)
    except HopfError as exc:
        rep.add_check("translation map independent of lift", False, str(exc))
    _, cot, bij = cocanonical_map(h, b, c)
    rep.add_check("cocanonical map bijective", bij)
    rep.tables["cotensor_square_dim"] = {"dim": cot.dim}
    rep.add_skip("faithful flatness", "unverified (freeness checks only)")
    return rep


def cmd_homology(args, field):
    n = _clamp_degree(args.max_degree)
    rep = Report("homology", {"hopf": args.hopf, "theory": args.theory,
                              "max_degree": n, "field": field.name})
    setup = _resolve_setup(args, field)
    _check_budget(setup.hopf, n)
    rep.params["setup"] = setup.name
    cm = relative_cyclic(setup.hopf, setup.subalgebra, n + 1)
    dims = (hochschild_homology if args.theory == "hh" else cyclic_homology)(cm, n)
    rep.add_check("cyclic module identities", check_identities(cm).ok)
    rep.tables["dimensions"] = {f"degree {k}": dims[k] for k in range(len(dims))}
    return rep


def cmd_tor(args, field):
    n = _clamp_degree(args.max_degree)
    rep = Report("tor", {"hopf": args.hopf, "max_degree": n, "field": field.name})
    h = _resolve_hopf(args.hopf, field)
    _check_budget(h, n)
    dims = tor_dims(ad_module(h), n)
    rep.tables["tor_k_ad"] = {f"degree {k}": dims[k] for k in range(len(dims))}
    rep.add_check("bar complex d^2 = 0", True)  # tor_dims raises otherwise
    return rep


def cmd_isocheck(args, field):
    n = _clamp_degree(args.max_degree)
    rep = Report("isocheck", {"hopf": args.hopf, "theorem": args.theorem,
                              "max_degree": n, "field": field.name})
    setup = _resolve_setup(args, field)
    _check_budget(setup.hopf, n)
    rep.params["setup"] = setup.name
    if args.theorem == "3.4":
        psi, phi = module_coalgebra_transform(setup, n)
        rep.add_check("mutually inverse", True)  # asserted by construction
        rep.add_validation("psi ", check_cyclic_map(psi))
        rep.add_validation("phi ", check_cyclic_map(phi))
        rep.tables["dims"] = {f"degree {k}": psi.source.spaces[k].dim for k in range(n + 1)}
    elif args.theorem == "3.7":
        gamma, gamma_inv = comodule_algebra_transform(setup, n)
        rep.add_check("mutually inverse", True)
        rep.add_validation("gamma ", check_cyclic_map(gamma))
        rep.add_validation("gamma_inv ", check_cyclic_map(gamma_inv))
        rep.tables["dims"] = {f"degree {k}": gamma.source.spaces[k].dim for k in range(n + 1)}
    else:  # jara-stefan
        try:
            comparison, ident_maps, rel_spaces = normal_quotient_comparison(setup, n)
        except NotHopfIdeal as exc:
            rep.add_check("ideal is a Hopf ideal", False, str(exc))
            return rep
        rep.add_check("ideal is a Hopf ideal", True)
        rep.add_check("comparison matches the adjoint-coefficient transform", True)
        rep.tables["dims"] = {f"degree {k}": rel_spaces[k].dim for k in range(n + 1)}
    return rep


def cmd_spectral(args, field):
    rep = Report("spectral", {"hopf": args.hopf, "field": field.name})
    setup = _resolve_setup(args, field)
    # the largest cell the double complex builds is (3, 1), for E^1_{3,0}, the homology
    # of column 3: dim(H)^6 coordinates when B = k
    _check_budget(setup.hopf, 4)
    rep.params["setup"] = setup.name
    hh = hochschild_homology(relative_cyclic(setup.hopf, setup.subalgebra, 3))
    dc = extension_double_complex(setup, 3, 3)
    # one Tor(k, ad H), to the degree 3 the absolute check needs; theorem_check reads <= 2
    tor = tor_dims(dc.m, 3)
    srep = theorem_check(dc, hh, tor)
    frep = five_term_check(dc)
    # HH of the absolute cyclic module below sets the run's peak memory, so
    # neither the relative cyclic module nor the double complex (with every
    # map and spot it keeps) is held while it is built
    del dc
    rep.add_validation("", srep)
    rep.tables.update(srep.tables)
    rep.add_validation("five-term: ", frep)
    rep.tables["five_term"] = frep.tables["dims"]
    rep.add_validation("absolute: ", hochschild_tor_check(setup.hopf, hochschild_homology(
        relative_cyclic(setup.hopf, trivial_subalgebra(setup.hopf), 4)), tor))
    return rep


def _resolve_group(name):
    try:
        return builtin_group(name)
    except GroupError:
        if os.path.exists(name):
            return load_group_file(name)
        raise InputError(f"no built-in group or file named {name!r}") from None


def _resolve_subgroup(g, text):
    if text in (None, "", "all"):
        return sorted(g.elements())
    gens = []
    for token in text.replace(",", " ").split():
        if token not in g.names:
            raise InputError(f"unknown group element {token!r}")
        gens.append(g.index(token))
    return g.subgroup_closure(gens)


def _resolve_chi(g, sub, text):
    subgrp = subgroup_as_group(g, sub)
    k = len(subgrp.conjugacy_classes())
    if text in (None, "trivial"):
        return ClassFunction(subgrp, [QQ.one] * k)
    if text == "sign":
        vals = []
        for cls in subgrp.conjugacy_classes():
            rep = cls[0]
            order = 1
            acc = rep
            while acc != subgrp.identity:
                acc = subgrp.mul(acc, rep)
                order += 1
            vals.append(QQ.one if order % 2 == 1 else QQ.from_int(-1))
        return ClassFunction(subgrp, vals)
    try:
        vals = [QQ.from_str(v) for v in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --chi {text!r}: {exc}") from None
    return ClassFunction(subgrp, vals)


def cmd_classical(args, field):
    n = _clamp_degree(args.max_degree)
    rep = Report("classical", {"group": args.group, "op": args.op,
                               "max_degree": n, "seed": args.seed})
    g = _resolve_group(args.group)
    sub = _resolve_subgroup(g, args.subgroup)
    rep.params["subgroup_order"] = len(sub)
    if field.name != "Q" and g.order % field.p == 0:
        raise InputError("field characteristic divides the group order")
    ops = [args.op] if args.op != "all" else [
        "direct", "dual", "stabilizers", "extended", "frobenius"]
    for op in ops:
        if op == "direct":
            rep.add_validation("direct ", direct_picture_check(g, sub, min(n, 3)))
        elif op == "dual":
            rep.add_validation("dual ", dual_picture_check(g, sub, min(n, 2)))
        elif op == "stabilizers":
            exhaustive = min(n, 1)
            rep.add_validation(
                "stabilizers ",
                stabilizer_coincidence_check(g, sub, exhaustive))
            if n >= 2:
                rep.add_validation(
                    "stabilizers sampled ",
                    stabilizer_coincidence_check(g, sub, 2, sample=40, seed=args.seed))
        elif op == "extended":
            gset = coset_action(g, sub)
            rep.add_validation("extended ", extended_quotient_check(g, gset, min(n, 1)))
            rep.add_validation(
                "transport ", extended_quotient_transport_check(g, sub, min(n, 1)))
        elif op == "frobenius":
            chi = _resolve_chi(g, sub, args.chi)
            try:
                induced = induce_class_function(g, sub, chi)
            except GroupError as exc:
                # a disagreement of the routes is a mathematical failure, not bad input
                rep.add_check("three induction routes agree", False, str(exc))
                rep.add_skip("reciprocity", "needs the induced class function")
            else:
                rep.tables["induced_character"] = {
                    f"class of {g.names[cls[0]]}": str(induced.values[k])
                    for k, cls in enumerate(g.conjugacy_classes())
                }
                rep.add_check("three induction routes agree", True)
                try:
                    rep.add_validation("reciprocity ",
                                       frobenius_reciprocity_check(g, sub, chi, induced))
                except GroupError as exc:  # no built-in rational character table
                    rep.add_skip("reciprocity", str(exc))
            rep.add_validation("class functions ", class_function_dim_check(g))
    return rep


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfcyclic",
        description="exact cyclic-homology computations for Hopf algebra quotients",
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--field", help="q or fp:<prime>; by default the field a Hopf "
                        "algebra file declares, and q for a built-in")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock time in the report")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check every Hopf axiom")
    p.add_argument("hopf")

    p = subs.add_parser("galois", help="Galois criterion and canonical maps")
    p.add_argument("hopf")
    p.add_argument("--ideal")
    p.add_argument("--subalgebra")

    p = subs.add_parser("homology", help="relative Hochschild or cyclic dimensions")
    p.add_argument("hopf")
    p.add_argument("--ideal")
    p.add_argument("--subalgebra")
    p.add_argument("--theory", choices=("hh", "hc"), default="hh")
    p.add_argument("--max-degree", type=int, default=2)

    p = subs.add_parser("isocheck", help="verify a transform family degreewise")
    p.add_argument("hopf")
    p.add_argument("--ideal")
    p.add_argument("--subalgebra")
    p.add_argument("--theorem", choices=("3.4", "3.7", "jara-stefan"), required=True,
                   help="module-coalgebra transform, comodule-algebra transform, "
                        "or the normal-quotient comparison")
    p.add_argument("--max-degree", type=int, default=2)

    p = subs.add_parser("tor", help="Tor over H of k against the adjoint coefficients")
    p.add_argument("hopf")
    p.add_argument("--max-degree", type=int, default=3)

    p = subs.add_parser("spectral", help="double-complex and five-term reports")
    p.add_argument("hopf")
    p.add_argument("--ideal")
    p.add_argument("--subalgebra")

    p = subs.add_parser("classical", help="finite-group picture checks")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", default="all")
    p.add_argument("--op", choices=("direct", "dual", "stabilizers", "extended",
                                    "frobenius", "all"), default="all")
    p.add_argument("--chi", default="trivial")
    p.add_argument("--max-degree", type=int, default=2)
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "galois": cmd_galois,
    "homology": cmd_homology,
    "isocheck": cmd_isocheck,
    "tor": cmd_tor,
    "spectral": cmd_spectral,
    "classical": cmd_classical,
}


def run(argv):
    """Parse, execute, and render; returns (exit_code, rendered_report)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), ""
    start = time.monotonic()
    try:
        field = _parse_field(args.field, getattr(args, "hopf", None))
        report = COMMANDS[args.command](args, field)
    except (InputError, OSError, GroupError) as exc:
        report = Report(args.command, error=str(exc))
    except (HopfError, LinAlgError) as exc:
        report = Report(args.command)
        report.add_check("construction", False, str(exc))
    except MemoryError:
        report = None  # made below, once the failed run's frames are freed
    if report is None:
        # a size problem, not a failed check: bad input, like COORDINATE_BUDGET
        report = Report(args.command, error="out of memory: the spaces of this run do not fit "
                                            "in this machine's memory; lower --max-degree")
    elapsed = time.monotonic() - start
    timing = round(elapsed, 3) if args.timing else None
    text = report.to_json(timing) if args.format == "json" else report.to_table(timing)
    return report.exit_code, text


def _unraisable(hook_args):
    """Drop the MemoryError of a generator closed as the frames of a run
    that ran out of memory are freed: the run's report, or ``main``'s
    message, already says so."""
    if not isinstance(hook_args.exc_value, MemoryError):
        sys.__unraisablehook__(hook_args)


def main(argv=None):
    sys.unraisablehook = _unraisable
    try:
        code, text = run(sys.argv[1:] if argv is None else argv)
    except MemoryError:
        # raised again while ``run`` made the report of one: said below, once freed
        code, text = 2, None
    if text is None:
        sys.stderr.write("error: out of memory, even for the report\n")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
