"""Layer timing from outside the package.

``install()`` replaces the public functions and methods named in
``LAYERS`` with timing wrappers.  A module-level function is also rebound
in every ``hopfcyclic`` module that imported it by name
(``from .linalg import kernel``), so calls through those names are timed
too.  Nothing under ``src/`` is edited.

Each wrapped call is a span.  Spans nest on one stack; a span's self time
is its duration minus the time covered by the spans it caused.  Spans are
aggregated in memory per layer and handed back by ``Tracer.summary()``
when the operation ends.
"""

import functools
import importlib
import inspect
import sys
import time

# layer -> list of "module:qualname" targets.  A target ending in ".*"
# means every public function defined in that module.
LAYERS = {
    "linalg.rank": ["linalg:SparseMatrix.rank"],
    "linalg.rref": ["linalg:SparseMatrix.rref"],
    "linalg.matmul": ["linalg:SparseMatrix.__matmul__"],
    "linalg.compare": ["linalg:SparseMatrix.__eq__", "linalg:SparseMatrix.is_identity",
                       "linalg:SparseMatrix.is_zero_matrix"],
    "linalg.basis": ["linalg:kernel", "linalg:span_columns", "linalg:quotient_by_columns",
                     "linalg:solve", "linalg:inverse"],
    "linalg.span_contains": ["linalg:span_contains"],
    "linalg.induced_map": ["linalg:induced_map"],
    "linalg.kron": ["linalg:SparseMatrix.kron"],
    "linalg.apply_on_leg": ["linalg:apply_on_leg"],
    "linalg.permutation_matrix": ["linalg:permutation_matrix"],
    "linalg.add": ["linalg:SparseMatrix.__add__", "linalg:SparseMatrix.__sub__",
                   "linalg:SparseMatrix.__neg__", "linalg:SparseMatrix.scale"],
    "linalg.subquotient": ["linalg:SubquotientSpace.__init__", "linalg:SubquotientSpace.full",
                           "linalg:SubquotientSpace.then", "linalg:SubquotientSpace.tensor",
                           "linalg:equalizer", "linalg:coequalizer", "linalg:homology_space"],
    "iso.module_coalgebra_transform": ["iso:module_coalgebra_transform"],
    "iso.comodule_algebra_transform": ["iso:comodule_algebra_transform"],
    "iso.normal_quotient_comparison": ["iso:normal_quotient_comparison"],
    "iso.check_cyclic_map": ["iso:check_cyclic_map"],
    "cyclic.comodule_algebra_space": ["cyclic:comodule_algebra_space"],
    "cyclic.relative_cyclic": ["cyclic:relative_cyclic"],
    "cyclic.coextension_space": ["cyclic:coextension_space"],
    "cyclic.coext_cyclic": ["cyclic:coext_cyclic"],
    "cyclic.relative_cocyclic_coext": ["cyclic:relative_cocyclic_coext"],
    "cyclic.hopf_cyclic_spaces": ["cyclic:hopf_cyclic_spaces"],
    "cyclic.hopf_cyclic_coalgebra": ["cyclic:hopf_cyclic_coalgebra"],
    "cyclic.hopf_cocyclic_coalgebra": ["cyclic:hopf_cocyclic_coalgebra"],
    "cyclic.hopf_cyclic_comodule_algebra": ["cyclic:hopf_cyclic_comodule_algebra"],
    "cyclic.check_identities": ["cyclic:check_identities"],
    "cyclic.hochschild_homology": ["cyclic:hochschild_homology"],
    "cyclic.cyclic_homology": ["cyclic:cyclic_homology"],
    "cyclic.normalized_complex": ["cyclic:normalized_complex"],
    "hopf.canonical_map_n": ["hopf:canonical_map_n"],
    "hopf.translation_map": ["hopf:translation_map"],
    "hopf.cocanonical_map": ["hopf:cocanonical_map"],
    "hopf.tensor_power_over_b": ["hopf:tensor_power_over_b"],
    "hopf.commutator_quotient": ["hopf:commutator_quotient"],
    "hopf.validate": ["hopf:HopfAlgebra.validate"],
    "hopf.pair": ["hopf:takeuchi_subalgebra_to_quotient", "hopf:coinvariants",
                  "hopf:galois_criterion", "hopf:setup_from_subalgebra",
                  "hopf:setup_from_ideal", "hopf:quotient_module_coalgebra",
                  "hopf:right_ideal_closure", "hopf:trivial_subalgebra",
                  "hopf:subalgebra_from_columns", "hopf:iterated_coinvariance_ok",
                  "hopf:cotensor_square"],
    "specseq.tor_dims": ["specseq:tor_dims"],
    "specseq.theorem_check": ["specseq:theorem_check"],
    "specseq.five_term_check": ["specseq:five_term_check"],
    "specseq.hochschild_tor_check": ["specseq:hochschild_tor_check"],
    "presets.builtin_hopf": ["presets:builtin_hopf"],
    "presets.builtin_setup": ["presets:builtin_setup"],
    "sayd.ad_module": ["sayd:ad_module"],
    "sayd.coad_module": ["sayd:coad_module"],
    "sayd.validate_sayd": ["sayd:validate_sayd"],
    "classical": ["classical:*"],
    "report.render": ["report:Report.to_json", "report:Report.to_table"],
    "cli.run": ["cli:run"],
}

# per-layer size counters: layer -> (counter name, where it is read)
SIZES = {
    "linalg.rank": ("nnz_in", "self"),
    "linalg.matmul": ("nnz_out", "result"),
    "linalg.apply_on_leg": ("nnz_out", "result"),
}

# what the benchmark reports per layer; every other layer reports self_s.
# q_self_s / fp_self_s split self_s by the field of the operation.
REPORTED = {
    "linalg.rank": ("self_s", "calls", "nnz_in", "q_self_s", "fp_self_s"),
    "linalg.rref": ("self_s", "calls"),
    "linalg.matmul": ("self_s", "calls", "nnz_out", "q_self_s", "fp_self_s"),
    "linalg.compare": ("self_s", "calls"),
    "linalg.basis": ("self_s", "calls"),
    "linalg.span_contains": ("self_s", "calls"),
    "linalg.induced_map": ("self_s", "incl_s", "calls"),
    "linalg.apply_on_leg": ("self_s", "nnz_out"),
}

PACKAGE = "hopfcyclic"


class LayerStat:
    __slots__ = ("calls", "self_s", "incl_s", "size", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.size = 0
        self.depth = 0


class Tracer:
    """Span stack plus per-layer aggregates for one operation."""

    def __init__(self):
        self.stats = {name: LayerStat() for name in LAYERS}
        self.stack = []
        self.covered_s = 0.0  # time inside some top-level span

    def wrap(self, layer, fn):
        stat = self.stats[layer]
        stack = self.stack
        clock = time.perf_counter
        size_from = SIZES.get(layer, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if stat.depth == 0:
                    stat.incl_s += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.covered_s += dur
            if size_from == "result":
                stat.size += result.nnz
            elif size_from == "self":
                stat.size += args[0].nnz
            return result

        return wrapper

    def summary(self):
        out = {}
        for name, st in self.stats.items():
            row = {"calls": st.calls, "self_s": st.self_s, "incl_s": st.incl_s}
            size_name = SIZES.get(name, (None,))[0]
            if size_name:
                row[size_name] = st.size
            out[name] = row
        return {"layers": out, "covered_s": self.covered_s}


def _resolve(target):
    modname, qual = target.split(":")
    module = importlib.import_module(f"{PACKAGE}.{modname}")
    if qual == "*":
        return [(None, name, obj) for name, obj in vars(module).items()
                if inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")]
    if "." in qual:
        cls_name, attr = qual.split(".")
        cls = getattr(module, cls_name)
        return [(cls, attr, cls.__dict__[attr])]
    return [(None, qual, getattr(module, qual))]


def install():
    """Wrap every target of ``LAYERS``; returns the Tracer that records them."""
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    for layer, targets in LAYERS.items():
        for target in targets:
            for cls, name, obj in _resolve(target):
                if cls is not None:
                    if isinstance(obj, (classmethod, staticmethod)):
                        wrapped = type(obj)(tracer.wrap(layer, obj.__func__))
                    else:
                        wrapped = tracer.wrap(layer, obj)
                    setattr(cls, name, wrapped)
                    continue
                wrapped = tracer.wrap(layer, obj)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, attr, wrapped)
    return tracer
