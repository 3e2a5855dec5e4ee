"""Per-layer tracing of cyfold from outside the program.

``Tracer.install()`` replaces the entry points of each cyfold module with
timing wrappers and ``uninstall()`` puts the originals back.  A layer is a
module; a span is one call of a wrapped function; a span's self time is
its duration minus the durations of the spans it called.

Modules bind each other's functions with ``from .exactlin import rref``,
so wrapping the defining module alone would miss calls made through the
copies.  ``install`` therefore rebinds every name in every loaded cyfold
module that refers to a wrapped function, and wraps methods in place on
their class, which also covers the lazily imported ``PreparedSolver`` and
``IncrementalSpan``.  ``unwrapped_aliases`` lists any name still bound to
an original, and ``ReachCheck`` catches, at run time, an original reached
by a path that skipped its wrapper.

Element arithmetic (field operations, path multiplication, vertex maps) is
called hundreds of thousands of times per pass at well under a
microsecond each; it is not wrapped, so its time counts as self time of
the span that called it.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("exactlin", "quiveralg", "bimodcx", "rootpair", "completion",
          "cluster", "transport", "cli")

# Methods wrapped as spans, per layer module.  Module-level functions are
# all wrapped except LEAVES.
METHODS = {
    "exactlin": {"Subspace": ("contains",), "Matrix": ("matmul", "transpose"),
                 "PreparedSolver": ("__init__", "solve"),
                 "IncrementalSpan": ("add", "contains")},
    "quiveralg": {"PathBasisAlgebra": ("mult_elements",)},
    "bimodcx": {"ProjBimodComplex": ("validate", "cohomology", "cohomology_dims",
                                     "is_acyclic", "diff_matrix"),
                "RightComplex": ("validate", "cohomology_dims", "is_acyclic"),
                "HomComplex": ("cohomology_dim",),
                "ChainMap": ("is_closed",)},
    "cluster": {"OrbitQuiver": ("dot",)},
    "transport": {"CoordComplex": ("cohomology_dims",)},
}
LEAVES = {"exactlin": {"derive_seed"}, "bimodcx": {"entry_add", "entry_scale"},
          "completion": {"_free_piece_basis"}}


def _nnz(rows):
    return sum(len(r) - r.count(0) for r in rows)


def _count_rref(tr, args, result):
    m = args[0]
    tr.add("exactlin.rref.cells", m.rows * m.cols)
    tr.add("exactlin.rref.nnz", _nnz(m.data))
    tr.add("exactlin.rref.rank", result.rank)
    tr.add("exactlin.rref.rank_bound", min(m.rows, m.cols))
    if m.field.char:
        tr.add("exactlin.rref.modp_calls", 1)


def _count_minimize(tr, args, result):
    tr.add("bimodcx.minimize.summands_in",
           sum(len(s) for s in args[0].terms.values()))
    tr.add("bimodcx.minimize.summands_out",
           sum(len(s) for s in result.terms.values()))


# span name -> counter hook(tracer, args, result), run outside the timed call
COUNTERS = {
    "exactlin.rref": _count_rref,
    "exactlin.solve_linear":
        lambda tr, a, r: tr.add("exactlin.solve_linear.inconsistent", r is None),
    "exactlin.IncrementalSpan.add":
        lambda tr, a, r: tr.add("exactlin.incremental_span.grew", bool(r)),
    "bimodcx.find_quasi_iso":
        lambda tr, a, r: tr.add("bimodcx.find_quasi_iso.found", r is not None),
    "bimodcx.minimize": _count_minimize,
    "cli.cache_get":
        lambda tr, a, r: tr.add("cli.cache.hits", r is not None),
}


def _wrap(tracer, name, fn, counter):
    stack = tracer.stack
    spans = tracer.spans
    clock = time.perf_counter

    @functools.wraps(fn)
    def span(*args, **kwargs):
        stack.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = clock() - t0
            child = stack.pop()
            rec = spans.get(name)
            if rec is None:
                rec = spans[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child
            if stack:
                stack[-1] += dur
        if counter is not None:
            t1 = clock()
            counter(tracer, args, result)
            spent = clock() - t1
            tracer.counting_s += spent
            if stack:  # keep the counting out of the caller's self time
                stack[-1] += spent
        return result

    return span


class Tracer:
    """Span and counter store, plus the wrapping of cyfold's entry points."""

    def __init__(self):
        self.spans = {}    # name -> [calls, total_s, self_s]
        self.counts = {}   # name -> int
        self.stack = []
        self.counting_s = 0.0
        self._originals = {}  # id(original) -> (original, wrapper)
        self._methods = []   # (class, attribute, original)
        self._rebound = []   # (module, attribute, original)

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.counting_s = 0.0

    def snapshot(self):
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts), "counting_s": self.counting_s}

    def merge(self, snap):
        for k, (c, tot, slf) in snap["spans"].items():
            rec = self.spans.setdefault(k, [0, 0.0, 0.0])
            rec[0] += c
            rec[1] += tot
            rec[2] += slf
        for k, n in snap["counts"].items():
            self.add(k, n)
        self.counting_s += snap["counting_s"]

    # -- wrapping ---------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"cyfold.{layer}")
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and attr not in LEAVES.get(layer, ())):
                    name = f"{layer}.{attr}"
                    self._originals[id(val)] = (
                        val, _wrap(self, name, val, COUNTERS.get(name)))
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    orig = cls.__dict__[attr]
                    name = f"{layer}.{cls_name}.{attr}"
                    self._methods.append((cls, attr, orig))
                    setattr(cls, attr, _wrap(self, name, orig, COUNTERS.get(name)))
        for mod in _cyfold_modules():
            for attr, val in list(vars(mod).items()):
                hit = self._originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._rebound.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, orig in self._rebound:
            setattr(mod, attr, orig)
        for cls, attr, orig in self._methods:
            setattr(cls, attr, orig)
        self._rebound.clear()
        self._methods.clear()
        self._originals.clear()

    def originals(self):
        """Code objects of every wrapped function and method."""
        codes = {o.__code__ for o, _ in self._originals.values()}
        codes |= {o.__code__ for _, _, o in self._methods}
        return codes

    def unwrapped_aliases(self):
        """Names in loaded cyfold modules still bound to a wrapped original."""
        bad = []
        for mod in _cyfold_modules():
            for attr, val in vars(mod).items():
                hit = self._originals.get(id(val))
                if hit is not None and hit[0] is val:
                    bad.append(f"{mod.__name__}.{attr}")
        return bad


def _cyfold_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "cyfold" or n.startswith("cyfold."))]


class ReachCheck:
    """Profiler hook that records calls to a wrapped original whose caller
    is not its wrapper, i.e. calls that reached the function through a
    name ``install`` did not rebind.  Slow: for the self-test only."""

    def __init__(self, tracer):
        self.codes = tracer.originals()
        self.wrapper_code = _wrap(tracer, "", lambda: None, None).__code__
        self.misses = {}

    def _hook(self, frame, event, arg):
        if event == "call" and frame.f_code in self.codes:
            back = frame.f_back
            if back is None or back.f_code is not self.wrapper_code:
                key = f"{frame.f_code.co_filename.rsplit('/', 1)[-1]}:" \
                      f"{frame.f_code.co_qualname}"
                self.misses[key] = self.misses.get(key, 0) + 1

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


def layer_metrics(spans, counts, counting_s, wall_s):
    """The per-layer metrics for one pass, from its spans and counters.
    ``trace.unattributed_s`` is the pass time outside every span and
    outside the counters: the harness and unwrapped top-level code."""
    def rec(name):
        return spans.get(name, [0, 0.0, 0.0])

    out = {}
    rref = rec("exactlin.rref")
    out["exactlin.rref.calls"] = rref[0]
    out["exactlin.rref.self_s"] = rref[2]
    out["exactlin.rref.cells"] = counts.get("exactlin.rref.cells", 0)
    out["exactlin.rref.nnz"] = counts.get("exactlin.rref.nnz", 0)
    bound = counts.get("exactlin.rref.rank_bound", 0)
    out["exactlin.rref.rank_ratio"] = (
        counts.get("exactlin.rref.rank", 0) / bound if bound else 0.0)
    out["exactlin.rref.modp_calls"] = counts.get("exactlin.rref.modp_calls", 0)
    kb = rec("exactlin.kernel_basis")
    out["exactlin.kernel_basis.calls"] = kb[0]
    out["exactlin.kernel_basis.self_s"] = kb[2]
    factor, solve = rec("exactlin.PreparedSolver.__init__"), rec(
        "exactlin.PreparedSolver.solve")
    out["exactlin.prepared_solver.factor_calls"] = factor[0]
    out["exactlin.prepared_solver.factor_s"] = factor[1]
    out["exactlin.prepared_solver.solve_calls"] = solve[0]
    out["exactlin.prepared_solver.solve_s"] = solve[1]
    sl = rec("exactlin.solve_linear")
    out["exactlin.solve_linear.calls"] = sl[0]
    out["exactlin.solve_linear.self_s"] = sl[2]
    out["exactlin.solve_linear.inconsistent"] = counts.get(
        "exactlin.solve_linear.inconsistent", 0)
    add = rec("exactlin.IncrementalSpan.add")
    out["exactlin.incremental_span.add_calls"] = add[0]
    out["exactlin.incremental_span.add_s"] = add[1]
    out["exactlin.incremental_span.grew_ratio"] = (
        counts.get("exactlin.incremental_span.grew", 0) / add[0] if add[0] else 0.0)
    for fn in ("minimize", "tensor_power", "tensor_over_A", "resolve_bimodule",
               "resolution_of_algebra", "chain_maps"):
        out[f"bimodcx.{fn}.self_s"] = rec(f"bimodcx.{fn}")[2]
    out["bimodcx.minimize.summands_in"] = counts.get("bimodcx.minimize.summands_in", 0)
    out["bimodcx.minimize.summands_out"] = counts.get(
        "bimodcx.minimize.summands_out", 0)
    fq = rec("bimodcx.find_quasi_iso")
    out["bimodcx.find_quasi_iso.calls"] = fq[0]
    out["bimodcx.find_quasi_iso.found_ratio"] = (
        counts.get("bimodcx.find_quasi_iso.found", 0) / fq[0] if fq[0] else 0.0)
    for layer, fns in (
        ("rootpair", ("is_cyclically_invariant", "check_peel_identity",
                      "check_strict_pair", "casimir")),
        ("completion", ("completion", "completion_algebra", "quasi_veronese",
                        "graded_gorenstein_check", "dg_path_cohomology")),
        ("cluster", ("classify_dynkin_roots", "orbit_count", "serre_check",
                     "cluster_tilting_check", "orbit_hom")),
        ("transport", ("transported_pair", "resolve_complex",
                       "match_basic_algebras")),
        ("quiveralg", ("build_algebra",)),
    ):
        for fn in fns:
            out[f"{layer}.{fn}.self_s"] = rec(f"{layer}.{fn}")[2]
    out["cli.cache.lookups"] = rec("cli.cache_get")[0]
    out["cli.cache.hits"] = counts.get("cli.cache.hits", 0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, slf) in spans.items():
        layer_self[name.split(".", 1)[0]] += slf
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.share"] = layer_self[layer] / wall_s if wall_s else 0.0
    out["trace.counting_s"] = counting_s
    out["trace.unattributed_s"] = wall_s - sum(layer_self.values()) - counting_s
    return out
