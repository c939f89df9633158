"""Named library operations of the benchmark.

Each takes a field spec ("q" or "fp:<p>") and returns (exit code, report
text) shaped like a ``--format json`` CLI report, so the same checks read
both.  Package functions are looked up through their modules at call
time, so the layer wrappers installed by ``layertrace`` are the ones
called.
"""

import json

from hopfcyclic import cyclic, presets, sayd
from hopfcyclic.linalg import QQ, PrimeField

SUITE_SETUPS = ("kC2/k", "kS3/kC2", "H4/B", "OS3/OC2")
SUITE_N_MAX = 3


def _field(spec):
    return QQ if spec == "q" else PrimeField(int(spec.split(":", 1)[1]))


def cyclic_identity_suite(field_spec):
    """The body of acceptance criterion 3 at n_max 3: all six (co)cyclic
    constructions and their identity checks on four pairs."""
    field = _field(field_spec)
    n = SUITE_N_MAX
    checks, tables = [], {}
    for name in SUITE_SETUPS:
        s = presets.builtin_setup(name, field)
        h, b, c = s.hopf, s.subalgebra, s.quotient
        ad, coad = sayd.ad_module(h), sayd.coad_module(h)
        spaces = [cyclic.coextension_space(h, c, k + 1) for k in range(n + 1)]
        hsp = cyclic.hopf_cyclic_spaces(c, ad, n)
        built = {
            "relative_cyclic": cyclic.relative_cyclic(h, b, n),
            "coext_cyclic": cyclic.coext_cyclic(h, c, n, spaces=spaces),
            "relative_cocyclic_coext": cyclic.relative_cocyclic_coext(h, c, n, spaces=spaces),
            "hopf_cyclic_coalgebra": cyclic.hopf_cyclic_coalgebra(c, ad, n, spaces=hsp),
            "hopf_cocyclic_coalgebra": cyclic.hopf_cocyclic_coalgebra(c, ad, n, spaces=hsp),
            "hopf_cyclic_comodule_algebra": cyclic.hopf_cyclic_comodule_algebra(h, b, coad, n),
        }
        for kind, obj in built.items():
            ok = cyclic.check_identities(obj).ok
            checks.append({"name": f"{name} {kind} identities",
                           "status": "pass" if ok else "fail"})
        tables[name] = {kind: obj.dims() for kind, obj in built.items()}
    fails = sum(1 for c in checks if c["status"] == "fail")
    report = {
        "command": "cyclic-identity-suite",
        "params": {"field": field.name, "n_max": n},
        "checks": checks,
        "tables": tables,
        "summary": {"pass": len(checks) - fails, "fail": fails, "skip": 0},
    }
    return (1 if fails else 0), json.dumps(report, sort_keys=True, indent=2) + "\n"


OPS = {"cyclic-identity-suite": cyclic_identity_suite}
