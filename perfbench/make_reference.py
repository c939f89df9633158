"""Writes oracle_reference.json from the dense oracle in tests/oracle.py.

Usage (from the repository root): python3 perfbench/make_reference.py

The oracle shares no code with the package; it takes about 15 s here,
too long to run inside every benchmark run, so its values are stored.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracle

    h4 = oracle.sweedler_dense()
    kc2 = oracle.cyclic_group_algebra_dense(2)
    ref = {
        "HH_H4": oracle.hochschild_dims(h4, 3),
        "Tor_H4": oracle.tor_dims(h4, 3),
        "HC_H4": oracle.cyclic_dims(h4, 3),
        "HC_kC2": oracle.cyclic_dims(kc2, 2),
    }
    out = Path(__file__).resolve().parent / "oracle_reference.json"
    out.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(json.dumps(ref, sort_keys=True))


if __name__ == "__main__":
    main()
