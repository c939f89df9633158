"""Byte-for-byte comparison of CLI reports against committed golden files.

The golden reports under ``tests/golden/`` pin the exact ``--format json``
output of the README commands, the criterion-10 determinism battery, the
transform and spectral checks on O(S3)/O(C2) and kS3 and cyclic homology
of O(S3) and of kS3/kC2, over Q and F_(2^31-1), two spectral reports
over a small prime field, where the five-term sequence has nonzero terms,
Tor of kS3 over F_2 and F_3, where it is nonzero in every degree, and the
spectral report of H4/k over Q and F_3.
A refactor of an operator builder must leave every byte unchanged.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import pathlib
import sys

import pytest

from hopfcyclic.cli import run

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
FIELDS = {"q": "q", "fp2147483647": "fp:2147483647"}

_S7 = ["--seed", "7"]
COMMANDS = [
    # the ten README commands
    ("readme_validate_kS3", ["validate", "kS3"]),
    ("readme_galois_kS3_kC2", ["galois", "kS3/kC2"]),
    ("readme_homology_kC2_hc2", ["homology", "kC2", "--theory", "hc", "--max-degree", "2"]),
    ("readme_isocheck_kS3_kC2_34_n3",
     ["isocheck", "kS3/kC2", "--theorem", "3.4", "--max-degree", "3"]),
    ("readme_isocheck_H4_B_37_n3", ["isocheck", "H4/B", "--theorem", "3.7", "--max-degree", "3"]),
    ("readme_isocheck_kS3_kC3_js_n2",
     ["isocheck", "kS3/kC3", "--theorem", "jara-stefan", "--max-degree", "2"]),
    ("readme_tor_H4_n3", ["tor", "H4", "--max-degree", "3"]),
    ("readme_spectral_H4_B", ["spectral", "H4/B"]),
    ("readme_classical_frobenius",
     ["classical", "--group", "S3", "--subgroup", "(12)", "--op", "frobenius", "--chi", "trivial"]),
    ("readme_classical_all_n2",
     ["classical", "--group", "S3", "--subgroup", "(12)", "--op", "all", "--max-degree", "2"]),
    # the criterion-10 battery
    ("c10_validate_kS3", _S7 + ["validate", "kS3"]),
    ("c10_homology_kC2_hc2", _S7 + ["homology", "kC2", "--theory", "hc", "--max-degree", "2"]),
    ("c10_galois_kS3_kC2", _S7 + ["galois", "kS3/kC2"]),
    ("c10_classical_frobenius",
     _S7 + ["classical", "--group", "S3", "--subgroup", "(12)", "--op", "frobenius"]),
    ("c10_isocheck_kS3_kC3_js_n1",
     _S7 + ["isocheck", "kS3/kC3", "--theorem", "jara-stefan", "--max-degree", "1"]),
    ("c10_classical_stabilizers_n2",
     _S7 + ["classical", "--group", "S3", "--subgroup", "(12)", "--op", "stabilizers",
            "--max-degree", "2"]),
    # transform and spectral checks
    ("tr_isocheck_kS3_kC2_37_n4",
     ["isocheck", "kS3/kC2", "--theorem", "3.7", "--max-degree", "4"]),
    ("tr_isocheck_OS3_OC2_34_n2",
     ["isocheck", "OS3/OC2", "--theorem", "3.4", "--max-degree", "2"]),
    ("tr_isocheck_OS3_OC2_37_n1",
     ["isocheck", "OS3/OC2", "--theorem", "3.7", "--max-degree", "1"]),
    ("tr_isocheck_kS3_kC3_js_n3",
     ["isocheck", "kS3/kC3", "--theorem", "jara-stefan", "--max-degree", "3"]),
    ("tr_spectral_OS3_OC2", ["spectral", "OS3/OC2"]),
    # cyclic homology on a module of row tables and on a descended module
    ("hc_homology_OS3_n4", ["homology", "OS3", "--theory", "hc", "--max-degree", "4"]),
    ("hc_homology_kS3_kC2_n3",
     ["homology", "kS3/kC2", "--theory", "hc", "--max-degree", "3"]),
]
# each over its own fields: over F_2, H4/B is the one built-in pair whose d2
# has a nonzero domain and codomain (E2[2,0] = E2[0,1] = 4); over F_3,
# kS3/kC3 has E2[0,1] = 1 and total homology 3, 1, 1.  Over F_2 and F_3,
# Tor of kS3 is nonzero in every degree; H4/k's double complex has all of
# H4 as its coalgebra, whose diagonal action, the first face of each
# vertical map, is a matrix, not an index table
FP_COMMANDS = [
    ("fp_spectral_H4_B", ["spectral", "H4/B"], {"fp2": "fp:2"}),
    ("fp_spectral_kS3_kC3", ["spectral", "kS3/kC3"], {"fp3": "fp:3"}),
    ("fp_tor_kS3_n3", ["tor", "kS3", "--max-degree", "3"], {"fp2": "fp:2", "fp3": "fp:3"}),
    ("spectral_H4_k", ["spectral", "H4/k"], {"q": "q", "fp3": "fp:3"}),
]
CASES = [(name, args, FIELDS) for name, args in COMMANDS] + FP_COMMANDS


def _report(args, field):
    code, text = run(["--format", "json", "--field", field] + args)
    return code, text.encode()


def _path(name, tag):
    return GOLDEN_DIR / f"{name}.{tag}.json"


@pytest.mark.parametrize("name,args,fields", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, args, fields):
    for tag, field in fields.items():
        code, got = _report(args, field)
        assert code == 0, (name, field)
        assert got == _path(name, tag).read_bytes(), (name, field)


def _write():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args, fields in CASES:
        for tag, field in fields.items():
            code, text = _report(args, field)
            if code != 0:
                raise SystemExit(f"{name} [{field}] exited {code}")
            _path(name, tag).write_bytes(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    _write()
