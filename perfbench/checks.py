"""Reference values computed without the package, and the output checks.

The group-theoretic references count orbits of permutation tuples
directly.  They hold over Q and over F_p for p not dividing |G| (all
references here are for S3, and 2^31 - 1 does not divide 6).  The
homology of H4 and the cyclic homology of kC2 come from the dense oracle
``tests/oracle.py`` through ``oracle_reference.json``, which
``make_reference.py`` writes.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "oracle_reference.json"


# ---------------------------------------------------------------------------
# permutation groups


def compose(p, q):
    """(p q)(x) = p(q(x)), permutations as tuples of images."""
    return tuple(p[x] for x in q)


def invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def closure(gens, degree):
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = compose(g, e)
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(elems)


def cycle(text, degree):
    """Permutation of {0..degree-1} from 1-based cycle notation, e.g. "(123)"."""
    images = list(range(degree))
    for part in text.replace(")", " ").split("("):
        pts = [int(ch) - 1 for ch in part.strip()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


S3 = closure([cycle("(12)", 3), cycle("(123)", 3)], 3)
C2_IN_S3 = closure([cycle("(12)", 3)], 3)
C3_IN_S3 = closure([cycle("(123)", 3)], 3)


def conjugacy_class_count(g):
    seen, count = set(), 0
    for x in g:
        if x in seen:
            continue
        count += 1
        seen.update(compose(compose(y, x), invert(y)) for y in g)
    return count


def twisted_orbit_counts(g, k, n_max):
    """Orbits of K^{n+1} on G^{n+1} under g_i -> k_{i-1} g_i k_i^{-1}
    (indices mod n+1), for n = 0..n_max: the dimensions of the relative
    cyclic object of kG over kK."""
    counts = []
    for n in range(n_max + 1):
        legs = n + 1
        seen, orbits = set(), 0
        for tup in itertools.product(g, repeat=legs):
            if tup in seen:
                continue
            orbits += 1
            for ks in itertools.product(k, repeat=legs):
                seen.add(tuple(compose(compose(ks[i - 1], tup[i]), invert(ks[i]))
                               for i in range(legs)))
        counts.append(orbits)
    return counts


def product_one_counts(g, k, n_max):
    """|G| times #{(k_0..k_n) in K^{n+1} : k_0 ... k_n = e}: the dimensions of
    coad(kG) cotensored with kK^{(x) n+1}, whose coaction is trivial on G."""
    ident = tuple(range(len(g[0])))
    counts = []
    for n in range(n_max + 1):
        hits = 0
        for ks in itertools.product(k, repeat=n + 1):
            acc = ident
            for x in ks:
                acc = compose(acc, x)
            hits += acc == ident
        counts.append(len(g) * hits)
    return counts


def same_coset_counts(g, k, n_max):
    """#{(g_0..g_n) in G^{n+1} all in one left coset gK}: the dimensions of
    the relative cyclic object of O(G) over the functions constant on the
    cosets of K."""
    def coset(x):
        return frozenset(compose(x, y) for y in k)

    counts = []
    for n in range(n_max + 1):
        counts.append(sum(1 for tup in itertools.product(g, repeat=n + 1)
                          if len({coset(x) for x in tup}) == 1))
    return counts


def induced_trivial_character(g, h, x):
    """Ind_H^G(1)(x) = #{y in G : y^-1 x y in H} / |H|."""
    hs = set(h)
    hits = sum(1 for y in g if compose(compose(invert(y), x), y) in hs)
    return Fraction(hits, len(h))


def load_oracle():
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------------------
# reading reports


def _lookup(report, path):
    node = report
    for key in path:
        node = node[key]
    return node


def _class_rep(key):
    """The permutation named by a "class of <cycle>" key ("e" is the identity)."""
    name = key[len("class of "):]
    return tuple(range(3)) if name == "e" else cycle(name, 3)


def degree_list(table):
    """A {"degree k": v} table as the list [v_0, v_1, ...]."""
    return [table[f"degree {k}"] for k in range(len(table))]


def check_report(expectations, code, text):
    """Problems found in one operation's output; empty when it is correct.

    Every report must exit 0 with no failed check.  Each expectation is
    (kind, path, value):
      "degrees": the {"degree k": v} table at path equals the list value;
      "equals": the entry at path equals value;
      "induced": the {"class of <cycle>": v} table at path is the induced
                 trivial character of the subgroup ``value`` of S3.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(text)
    except ValueError:
        return ["report is not JSON"]
    problems = []
    if report.get("summary", {}).get("fail") != 0:
        problems.append(f"summary {report.get('summary')}")
    for kind, path, value in expectations:
        try:
            got = _lookup(report, path)
            if kind == "degrees":
                got = degree_list(got)
                want = value
            elif kind == "equals":
                want = value
            else:  # induced
                got = {key: Fraction(v) for key, v in got.items()}
                want = {key: induced_trivial_character(S3, value, _class_rep(key))
                        for key in got}
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{'/'.join(path)} unreadable: {exc!r}")
            continue
        if got != want:
            problems.append(f"{'/'.join(path)} = {got}, reference {want}")
    return problems
