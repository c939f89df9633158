"""JSON input formats: Hopf algebra files, ideal files, group files.

Hopf algebra file:

    {
      "name": "...",
      "field": {"type": "Q"} | {"type": "Fp", "p": <prime>},
      "dim": <n>,
      "basis": ["e", "g", ...],
      "mult":     [[i, j, k, "num/den"], ...],   # coeff of e_k in e_i e_j
      "unit":     ["c0", ...],
      "comult":   [[k, i, j, "num/den"], ...],   # coeff of e_i (x) e_j in D(e_k)
      "counit":   ["c0", ...],
      "antipode": [[i, j, "num/den"], ...]       # coeff of e_i in S(e_j)
    }

Coefficients are exact fraction strings or JSON integers; indices (0-based,
never repeated as a tuple under one key) and dim are JSON integers.  The
declared field must be Q or F_p with p prime.  Ideal file:
{"generators": [[coeff, ...], ...]}.
Group file: {"name": ..., "order": n, "table": [[...]]} with an optional
"names" list; order, table rows and names must agree, and names be distinct.
"""

from __future__ import annotations

import json

from .groups import FiniteGroup
from .hopf import HopfAlgebra
from .linalg import QQ, PrimeField, SparseMatrix


class InputError(ValueError):
    pass


def _field_from_spec(spec):
    if spec is None or spec.get("type", "Q").upper() == "Q":
        return QQ
    if spec["type"] == "Fp" and type(spec.get("p")) is int:
        return PrimeField(spec["p"])
    raise InputError(f"unknown field {spec!r}")


def _coeff(field, value):
    if type(value) is int:
        return field.from_int(value)
    if not isinstance(value, str):
        raise InputError(f"coefficient {value!r} is neither an integer nor a string")
    return field.from_str(value)


def _table(data, key, arity, dim, f):
    """{indices: coefficient} of the structure-constant rows under ``key``,
    each index checked against dim and no index tuple repeated."""
    table = {}
    for row in data[key]:
        row = list(row)
        if len(row) != arity + 1:
            raise InputError(f"{key} row {row} needs {arity} indices and a coefficient")
        idx = tuple(row[:arity])
        if any(type(i) is not int for i in idx):  # a bool, float or string is no index
            raise InputError(f"{key} row {row} has an index that is not an integer")
        for i in idx:
            if not 0 <= i < dim:
                raise InputError(f"{key} index {i} outside 0..{dim - 1} in row {row}")
        if idx in table:
            raise InputError(f"{key} repeats the indices of row {row}")
        table[idx] = _coeff(f, row[arity])
    return table


def _vector(data, key, dim, f):
    values = list(data[key])
    if len(values) != dim:
        raise InputError(f"{key} has length {len(values)}, expected dim {dim}")
    return {i: _coeff(f, v) for i, v in enumerate(values)}


def load_hopf_json(data, field=None):
    try:
        dim = data["dim"]
        if type(dim) is not int:
            raise InputError(f"dim {dim!r} is not an integer")
        if dim < 1:
            raise InputError(f"dim must be at least 1, got {dim}")
        basis = list(data["basis"])
        if len(basis) != dim:
            raise InputError("basis length does not match dim")
        f = field if field is not None else _field_from_spec(data.get("field"))
        mult = _table(data, "mult", 3, dim, f)
        unit = _vector(data, "unit", dim, f)
        comult = _table(data, "comult", 3, dim, f)
        counit = _vector(data, "counit", dim, f)
        antipode = SparseMatrix.from_entries(
            dim, dim, f, [(i, j, v) for (i, j), v in _table(data, "antipode", 2, dim, f).items()])
        return HopfAlgebra(data.get("name", "hopf"), f, basis, mult, unit,
                           comult, counit, antipode)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"bad Hopf algebra file: {exc}") from exc


def _read_hopf_file(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:
        raise InputError(f"bad Hopf algebra file: {exc}") from exc


def load_hopf_file(path, field=None):
    return load_hopf_json(_read_hopf_file(path), field)


def declared_field(path):
    """The field a Hopf algebra file declares: Q when it declares none."""
    data = _read_hopf_file(path)
    try:
        return _field_from_spec(data.get("field"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad Hopf algebra file: field: {exc}") from exc


def load_ideal_file(path, h):
    try:
        with open(path) as fh:
            data = json.load(fh)
        gens = data["generators"]
        entries = []
        for j, vec in enumerate(gens):
            if len(vec) != h.dim:
                raise InputError("generator length does not match dim")
            entries += [(i, j, _coeff(h.field, v)) for i, v in enumerate(vec)]
        return SparseMatrix.from_entries(h.dim, len(gens), h.field, entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad ideal file: {exc}") from exc


def load_group_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
        order = int(data["order"])
        table = data["table"]
        if order != len(table):
            raise InputError(f"order {order} does not match a table of {len(table)} rows")
        names = data.get("names", [str(i) for i in range(order)])
        return FiniteGroup(data.get("name", "group"), names, table)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad group file: {exc}") from exc
