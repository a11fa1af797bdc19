"""Per-layer tracing from outside the library.

The tracer wraps a fixed list of public functions and ``Poly`` methods.  For
a module-level function it replaces every binding of the original object in
every loaded ``dunkl_harmonics`` module (the defining module and each
from-import, such as ``harmonic.laplacian`` or ``intertwine.dunkl_axis``) and
in any extra module given, so calls are caught whichever name they go
through.  ``_linalg.rref`` is reached by ``solve_unique`` and ``nullspace``
through the module global, which is one of those bindings.

Each call records a span (id, parent, layer code, start, end, and the outer
duration that includes the tracer's own bookkeeping) in flat arrays.  Self
time of a span is its duration minus the outer durations of its children, so
the cost of the counters below never lands in any layer's self time; it shows
only in ``trace.overhead_frac``.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from fractions import Fraction

import numpy as np

PACKAGE = "dunkl_harmonics"

# (module, attribute or Class.method, metric prefix)
TARGETS = (
    ("polyring", "Poly.divided_difference", "polyring.divided_difference"),
    ("polyring", "Poly.reflect", "polyring.reflect"),
    ("polyring", "Poly.__mul__", "polyring.mul"),
    ("reflection", "make_context", "reflection.make_context"),
    ("dunkl", "laplacian", "dunkl.laplacian"),
    ("dunkl", "dunkl_axis", "dunkl.dunkl_axis"),
    ("dunkl", "dunkl_apply", "dunkl.dunkl_apply"),
    ("dunkl", "apply_operator_poly", "dunkl.apply_operator_poly"),
    ("harmonic", "proj", "harmonic.proj"),
    ("harmonic", "canonical_decompose", "harmonic.canonical_decompose"),
    ("harmonic", "h_harmonic_basis", "harmonic.h_harmonic_basis"),
    ("harmonic", "reduce_mod_sphere", "harmonic.reduce_mod_sphere"),
    ("spherical", "sphere_integrate", "spherical.sphere_integrate"),
    ("spherical", "extended_pizzetti", "spherical.extended_pizzetti"),
    ("spherical", "pair_integral", "spherical.pair_integral"),
    ("spherical", "hobson_apply", "spherical.hobson_apply"),
    ("intertwine", "intertwiner_apply", "intertwine.intertwiner_apply"),
    ("intertwine", "funk_hecke_check", "intertwine.funk_hecke_check"),
    ("intertwine", "reproducing_kernel", "intertwine.reproducing_kernel"),
    ("_linalg", "rref", "linalg.rref"),
    ("oracle", "mc_sphere_integral", "oracle.mc_sphere_integral"),
)
# layers whose returned values are scanned for the largest coefficient
BITS_LAYERS = ("dunkl", "harmonic", "intertwine", "linalg")
# functions whose input monomials are checked for repeats on the same context
REPEAT_TARGETS = ("dunkl.laplacian", "spherical.sphere_integrate")
OP_SPAN = "op"


def coeff_bits(value) -> int:
    """Largest numerator or denominator bit length among the Fractions in a value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    terms = getattr(value, "terms", None)
    if isinstance(terms, dict):
        return max(map(coeff_bits, terms.values()), default=0)
    if isinstance(value, (list, tuple)):
        return max(map(coeff_bits, value), default=0)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max((coeff_bits(getattr(value, f.name)) for f in dataclasses.fields(value)), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN] + [metric for _, _, metric in TARGETS]
        self.ids = array("q")
        self.parents = array("q")
        self.codes = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.outers = array("d")
        self._stack = [0]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.max_bits = {layer: 0 for layer in BITS_LAYERS}
        self.repeats = {metric: [0, 0, set()] for metric in REPEAT_TARGETS}  # repeats, total, seen
        self.rref_rows = self.rref_entries = self.rref_pivots = 0
        self.mc_samples = 0

    # -- span recording --------------------------------------------------------

    def _record(self, sid, parent, code, t0, t1, outer):
        self.ids.append(sid)
        self.parents.append(parent)
        self.codes.append(code)
        self.starts.append(t0)
        self.ends.append(t1)
        self.outers.append(outer)

    def call(self, code: int, func, args=(), kwargs=None, before=None, after=None):
        """Run ``func`` inside a span; ``before``/``after`` count outside its self time."""
        o0 = time.perf_counter()
        if before is not None:
            before(args, kwargs)
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = func(*args, **(kwargs or {}))
        except BaseException:
            t1 = time.perf_counter()
            self._stack.pop()
            self._record(sid, parent, code, t0, t1, t1 - o0)
            raise
        t1 = time.perf_counter()
        self._stack.pop()
        if after is not None:
            after(args, kwargs, result)
        self._record(sid, parent, code, t0, t1, time.perf_counter() - o0)
        return result

    def run_op(self, func):
        """One benchmark op as a root span."""
        return self.call(0, func)

    # -- counters ----------------------------------------------------------------

    def _hooks(self, metric: str):
        before = after = None
        if metric in REPEAT_TARGETS:
            counts = self.repeats[metric]

            def before(args, kwargs):
                ctx, poly = args[0], args[1]
                seen = counts[2]
                for mono in poly.terms:
                    key = (ctx, mono)
                    counts[1] += 1
                    if key in seen:
                        counts[0] += 1
                    else:
                        seen.add(key)

        layer = metric.split(".", 1)[0]
        if metric == "linalg.rref":

            def after(args, kwargs, result):
                matrix = args[0]
                reduced, pivots = result
                self.rref_rows += len(matrix)
                self.rref_entries += len(matrix) * (len(matrix[0]) if matrix else 0)
                self.rref_pivots += len(pivots)
                self.max_bits["linalg"] = max(self.max_bits["linalg"], coeff_bits(reduced))

        elif metric == "oracle.mc_sphere_integral":

            def after(args, kwargs, result):
                self.mc_samples += result.samples

        elif layer in BITS_LAYERS:

            def after(args, kwargs, result):
                bits = coeff_bits(result)
                if bits > self.max_bits[layer]:
                    self.max_bits[layer] = bits

        return before, after

    def _wrapper(self, code: int, metric: str, orig):
        before, after = self._hooks(metric)
        call = self.call

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return call(code, orig, args, kwargs, before, after)

        wrapper.perfbench_span = metric
        return wrapper

    # -- patching ----------------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ] + list(extra_modules)
        for code, (mod_name, attr, metric) in enumerate(TARGETS, start=1):
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[method]
                self._patch(owner, method, self._wrapper(code, metric, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrapper(code, metric, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, orig = self._patched.pop()
            setattr(owner, name, orig)

    @property
    def patched_bindings(self) -> list[str]:
        return sorted(f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in self._patched)

    # -- results -----------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "id": np.frombuffer(self.ids, dtype=np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "code": np.frombuffer(self.codes, dtype=np.int16),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "outer": np.frombuffer(self.outers, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the outer durations of its children."""
        s = self.spans()
        n = len(s["id"])
        position = np.zeros(self._next_id + 1, dtype=np.int64)
        position[s["id"]] = np.arange(n)
        children = np.zeros(n)
        has_parent = s["parent"] > 0
        np.add.at(children, position[s["parent"][has_parent]], s["outer"][has_parent])
        return (s["end"] - s["start"]) - children

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics; times are multiplied by ``time_scale`` (wall to reference clock)."""
        codes = np.frombuffer(self.codes, dtype=np.int16)
        n_codes = len(self.names)
        calls = np.bincount(codes, minlength=n_codes)
        self_s = time_scale * np.bincount(codes, weights=self.self_times(), minlength=n_codes)
        op_time = time_scale * float(np.sum(np.frombuffer(self.ends)[codes == 0] - np.frombuffer(self.starts)[codes == 0]))
        out: dict[str, float] = {}
        for code, metric in enumerate(self.names):
            if code == 0:
                continue
            out[f"{metric}.calls"] = int(calls[code])
            out[f"{metric}.self_s"] = float(self_s[code])
        for layer, bits in self.max_bits.items():
            out[f"{layer}.max_coeff_bits"] = bits
        for metric, (repeats, total, _) in self.repeats.items():
            out[f"{metric}.monomial_repeat_frac"] = repeats / total if total else 0.0
        out["linalg.rref.entries"] = self.rref_entries
        out["linalg.pivot_ratio"] = self.rref_pivots / self.rref_rows if self.rref_rows else 0.0
        mc_time = out["oracle.mc_sphere_integral.self_s"]
        out["oracle.samples_per_s"] = self.mc_samples / mc_time if mc_time else 0.0
        for metric in ("linalg.rref", "oracle.mc_sphere_integral"):
            out[f"{metric}.self_frac"] = out[f"{metric}.self_s"] / op_time if op_time else 0.0
        return out


def leftover_wrappers(extra_modules=()) -> list[str]:
    """Names still bound to a tracer wrapper in the library or the given modules."""
    found = []
    modules = [m for n, m in sys.modules.items() if m is not None and n.split(".")[0] == PACKAGE]
    for mod in modules + list(extra_modules):
        for name, value in vars(mod).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type):
                found += [f"{mod.__name__}.{name}.{k}" for k, v in vars(value).items() if hasattr(v, "perfbench_span")]
    return sorted(set(found))
