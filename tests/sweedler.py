"""Element-level Sweedler references for the structure-map builders.

Elements are sparse dict vectors {basis index: coefficient}.  Every
helper reads the structure constants ``h.mult``, ``h.comult``, ``h.unit``
and the entries of ``h.antipode`` (or of any given matrix) directly, and
expands each coproduct one Sweedler combination at a time, so the
references share no code with the package's leg-map chains.
"""

import itertools


def _add_into(out, key, value, f):
    s = f.add(out.get(key, f.zero), value)
    if f.is_zero(s):
        out.pop(key, None)
    else:
        out[key] = s


def basis(h, i):
    return {i: h.field.one}


def mul(h, a, b):
    f = h.field
    out = {}
    for (i, j, k), m in h.mult.items():
        if i in a and j in b:
            _add_into(out, k, f.mul(f.mul(a[i], b[j]), m), f)
    return out


def mul_many(h, vecs):
    acc = dict(h.unit)
    for v in vecs:
        acc = mul(h, acc, v)
    return acc


def delta(h, a):
    """Delta(a) as {(i, j): coefficient}."""
    f = h.field
    out = {}
    for (k, i, j), m in h.comult.items():
        if k in a:
            _add_into(out, (i, j), f.mul(a[k], m), f)
    return out


def delta_iter(h, a, times):
    """Iterated coproduct as {(times+1)-tuple: coefficient}, splitting the first leg."""
    f = h.field
    terms = {(k,): v for k, v in a.items()}
    for _ in range(times):
        nxt = {}
        for tup, v in terms.items():
            for (i, j), m in delta(h, {tup[0]: f.one}).items():
                _add_into(nxt, (i, j) + tup[1:], f.mul(v, m), f)
        terms = nxt
    return terms


def apply(mat, a):
    """mat @ a for a matrix given by its entries and a dict vector a."""
    f = mat.field
    out = {}
    for r, c, w in mat.entries():
        if c in a:
            _add_into(out, r, f.mul(w, a[c]), f)
    return out


def antipode(h, a):
    return apply(h.antipode, a)


def column(mat, j):
    return {r: v for r, c, v in mat.entries() if c == j}


def coefficient(f, combo):
    coeff = f.one
    for _, v in combo:
        coeff = f.mul(coeff, v)
    return coeff


def accumulate(col, legs, dims, coeff, f):
    """Add coeff * (legs[0] (x) ... (x) legs[-1]) into the flat column col."""
    for combo in itertools.product(*[leg.items() for leg in legs]):
        c = coeff
        idx = 0
        for (i, v), dd in zip(combo, dims):
            c = f.mul(c, v)
            idx = idx * dd + i
        _add_into(col, idx, c, f)

