"""The benchmark's workloads: operations and the references they are checked against.

Every operation runs once over Q and once over F_(2^31-1).  Apart from
the stabilizer-sampling seed, all inputs are fixed built-in presets; the
benchmark seed also sets the order of operations within a pass (run.py).
"""

from checks import (
    C2_IN_S3,
    C3_IN_S3,
    S3,
    closure,
    conjugacy_class_count,
    cycle,
    load_oracle,
    product_one_counts,
    same_coset_counts,
    twisted_orbit_counts,
)

FIELDS = ("q", "fp:2147483647")


def _cli(args, *expect):
    return {"kind": "cli", "name": args, "args": args.split(), "expect": list(expect)}


def _lib(name, *expect):
    return {"kind": "lib", "name": name, "expect": list(expect)}


def _definitions(workload):
    oracle = load_oracle()
    classes = conjugacy_class_count(S3)
    if workload == "cli-readme":
        frob = ("induced", ("tables", "induced_character"), C2_IN_S3)
        return [
            _cli("validate kS3"),
            _cli("galois kS3/kC2",
                 ("equals", ("tables", "canonical_map", "dim"), len(S3) * len(S3) // len(C2_IN_S3))),
            _cli("homology kC2 --theory hc --max-degree 2",
                 ("degrees", ("tables", "dimensions"), oracle["HC_kC2"])),
            _cli("isocheck kS3/kC2 --theorem 3.4 --max-degree 3",
                 ("degrees", ("tables", "dims"), twisted_orbit_counts(S3, C2_IN_S3, 3))),
            _cli("isocheck H4/B --theorem 3.7 --max-degree 3"),
            _cli("isocheck kS3/kC3 --theorem jara-stefan --max-degree 2",
                 ("degrees", ("tables", "dims"), twisted_orbit_counts(S3, C3_IN_S3, 2))),
            _cli("tor H4 --max-degree 3",
                 ("degrees", ("tables", "tor_k_ad"), oracle["Tor_H4"])),
            _cli("spectral H4/B", ("equals", ("tables", "tor"), oracle["Tor_H4"][:3])),
            _cli("classical --group S3 --subgroup (12) --op frobenius --chi trivial", frob),
            _cli("classical --group S3 --subgroup (12) --op all --max-degree 2", frob),
            _cli("isocheck kS3/kC3 --theorem jara-stefan --max-degree 1",
                 ("degrees", ("tables", "dims"), twisted_orbit_counts(S3, C3_IN_S3, 1))),
            _cli("classical --group S3 --subgroup (12) --op stabilizers --max-degree 2"),
        ]
    if workload == "homology-large":
        semisimple = [classes, 0, 0, 0]
        return [
            _cli("homology kS3 --theory hh --max-degree 3",
                 ("degrees", ("tables", "dimensions"), semisimple)),
            _cli("tor kS3 --max-degree 3", ("degrees", ("tables", "tor_k_ad"), semisimple)),
            # O(S3) is commutative and separable: HH_0 = O(S3), nothing above
            _cli("homology OS3 --theory hh --max-degree 3",
                 ("degrees", ("tables", "dimensions"), [len(S3), 0, 0, 0])),
            _cli("homology H4 --theory hc --max-degree 3",
                 ("degrees", ("tables", "dimensions"), oracle["HC_H4"])),
            # degree 3 alone would take 11 s of the pass
            _cli("homology kS3/kC2 --theory hh --max-degree 2",
                 ("degrees", ("tables", "dimensions"), semisimple[:3])),
        ]
    if workload == "transforms":
        c2 = closure([cycle("(12)", 2)], 2)
        trivial = [tuple(range(2))]
        suite = []
        for name, g, k in (("kC2/k", c2, trivial), ("kS3/kC2", S3, C2_IN_S3)):
            suite.append(("equals", ("tables", name, "relative_cyclic"),
                          twisted_orbit_counts(g, k, 3)))
            suite.append(("equals", ("tables", name, "hopf_cyclic_comodule_algebra"),
                          product_one_counts(g, k, 3)))
        suite.append(("equals", ("tables", "OS3/OC2", "relative_cyclic"),
                      same_coset_counts(S3, C2_IN_S3, 3)))
        separable = [len(S3), 0, 0]
        return [
            _cli("isocheck kS3/kC2 --theorem 3.7 --max-degree 4",
                 ("degrees", ("tables", "dims"), product_one_counts(S3, C2_IN_S3, 4))),
            _cli("isocheck OS3/OC2 --theorem 3.4 --max-degree 2",
                 ("degrees", ("tables", "dims"), same_coset_counts(S3, C2_IN_S3, 2))),
            _cli("isocheck OS3/OC2 --theorem 3.7 --max-degree 1"),
            _cli("isocheck kS3/kC3 --theorem jara-stefan --max-degree 3",
                 ("degrees", ("tables", "dims"), twisted_orbit_counts(S3, C3_IN_S3, 3))),
            _cli("spectral OS3/OC2", ("equals", ("tables", "tor"), separable),
                 ("equals", ("tables", "HH_relative"), separable)),
            _lib("cyclic-identity-suite", *suite),
        ]
    raise KeyError(workload)


WORKLOADS = ("cli-readme", "homology-large", "transforms")


def build(workload, seed):
    """The workload's operations, one per (definition, field), in definition order."""
    ops = []
    for d in _definitions(workload):
        for field in FIELDS:
            op = {"key": f"{d['name']} [{field}]", "name": d["name"], "field": field,
                  "kind": d["kind"], "expect": d["expect"]}
            if d["kind"] == "cli":
                argv = ["--format", "json", "--field", field]
                if d["args"][0] == "classical":
                    argv += ["--seed", str(seed)]  # sampled stabilizer check
                op["argv"] = argv + d["args"]
            ops.append(op)
    return ops
