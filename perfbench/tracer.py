"""Call tracer for the gramxent modules, installed from outside the package.

Every public function of a layer module is wrapped once, and the wrapper is
bound into every gramxent namespace that holds the function, including
dicts such as ``experiments.RUNNERS``: ``estimators``, ``experiments``,
``verification`` and ``cli`` bind names through ``from .x import y``, so
patching the defining module alone would miss their calls. Decompositions
are counted at numpy's symmetric eigen-gufuncs, which every call of
``numpy.linalg.eigh`` / ``eigvalsh`` reaches however the caller bound the
name (``DecompositionCounter`` counts there too, untimed). A solver outside
numpy (``scipy.linalg``, say) is not seen: a decomposition count of 0 means
the counters need extending, not that the work is gone.

A span is one wrapped call. Its self time is its duration minus the time
of the spans it encloses; a layer's self time is the sum over its spans.
Bookkeeping done after a call (digests of decomposed matrices and Gram
inputs) is charged to no layer.
"""

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("kernels", "psd_linalg", "estimators", "experiments", "verification", "cli")
GRAM_BUILDERS = ("gram_univariate", "gram_cross")
RUNNER_PREFIX = "run_"
# numpy.linalg.eigh / eigvalsh call exactly one of these per decomposition,
# looked up on numpy.linalg._umath_linalg at call time.
SYMMETRIC_GUFUNCS = {
    "eigh": ("eigh_lo", "eigh_up"),
    "eigvalsh": ("eigvalsh_lo", "eigvalsh_up"),
}
# Functions whose call counts (and, for estimators, times) are reported.
REPORTED = {
    "psd_linalg": (
        "sym_eig", "clamp_threshold", "matrix_power", "matrix_log",
        "support_included", "trace_product",
    ),
    "estimators": (
        "nonmirrored_cross_entropy", "mirrored_cross_entropy",
        "mirrored_cross_entropy_two_param", "mirrored_limit_umegaki",
        "tripartite_cross_entropy", "matrix_renyi_entropy", "joint_entropy",
        "conditional_entropy", "mutual_information", "trace_distance_bounds",
    ),
}


def _patch_symmetric_gufuncs(make_wrapper, restore):
    """Replace each gufunc by make_wrapper(name, gufunc); record undo entries."""
    umath = vars(np.linalg._umath_linalg)
    for name, gufuncs in SYMMETRIC_GUFUNCS.items():
        for gufunc in gufuncs:
            restore.append((umath, gufunc, umath[gufunc]))
            umath[gufunc] = make_wrapper(name, umath[gufunc])


def _undo(restore):
    for mapping, key, original in reversed(restore):
        mapping[key] = original
    restore.clear()


class DecompositionCounter:
    """Plain count of numpy eigh / eigvalsh decompositions while installed."""

    def __init__(self):
        self.count = 0
        self._restore = []

    def install(self):
        def make_wrapper(name, gufunc):
            def counted(*args, **kwargs):
                self.count += 1
                return gufunc(*args, **kwargs)
            return counted

        _patch_symmetric_gufuncs(make_wrapper, self._restore)

    def uninstall(self):
        _undo(self._restore)


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(memoryview(a).cast("B"))
    return h.digest()


class Tracer:
    """Counts and times calls into the gramxent layers while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.calls = Counter()
        self.inclusive_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.decomp_n3 = 0
        self.decomp_digests = set()
        self.gram_entries = 0
        self.gram_digests = set()
        self.rows = 0
        self.output_bytes = 0
        self.checks = 0
        self._stack = []
        self._gram_depth = 0
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public layer function and numpy's symmetric eigen-gufuncs."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gramxent.{layer}")
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(layer, name, obj)
        namespaces = [
            m for name, m in sys.modules.items()
            if name == "gramxent" or name.startswith("gramxent.")
        ]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(val) and val in wrapped:
                    self._rebind(ns.__dict__, attr, wrapped[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            self._rebind(val, key, wrapped[item])
        _patch_symmetric_gufuncs(
            lambda name, gufunc: self._wrap("numpy", name, gufunc), self._restore
        )

    def uninstall(self):
        _undo(self._restore)

    def _rebind(self, mapping, key, value):
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value

    # -- spans ------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        key = f"{layer}.{name}"
        is_gram = layer == "kernels" and name in GRAM_BUILDERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            outer_gram = is_gram and tracer._gram_depth == 0
            tracer._gram_depth += is_gram
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer._gram_depth -= is_gram
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                tracer.self_s[layer] += dur - frame[0]
                tracer.calls[key] += 1
                tracer.inclusive_s[key] += dur
                if outer_gram:
                    tracer.calls["kernels.gram_builds"] += 1
                    tracer.inclusive_s["kernels.gram_builds"] += dur
            h0 = time.perf_counter()
            tracer._account(layer, name, args, result, outer_gram)
            if tracer._stack:
                tracer._stack[-1][0] += time.perf_counter() - h0
            return result

        return traced

    def _account(self, layer, name, args, result, outer_gram):
        if layer == "numpy":
            A = np.asarray(args[0])
            self.decomp_n3 += A.shape[-1] ** 3
            self.decomp_digests.add(_digest(A))
        elif outer_gram:
            self.gram_entries += result.values.size
            spec = args[0]
            self.gram_digests.add(
                (name, spec.family, spec.bandwidth, _digest(*(s.data for s in args[1:])))
            )
        elif layer == "experiments" and name.startswith(RUNNER_PREFIX):
            self.rows += len(result)
        elif layer == "experiments" and name == "emit_results":
            path = args[1] if len(args) > 1 else None
            if path is not None:
                self.output_bytes += os.path.getsize(path)
        elif layer == "verification" and name == "run_property_suite":
            self.checks += sum(r.instances for r in result)

    # -- report -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        decomps = self.calls["numpy.eigh"] + self.calls["numpy.eigvalsh"]
        builds = self.calls["kernels.gram_builds"]
        m = {
            "psd_linalg.eigh_calls": (self.calls["numpy.eigh"], "count"),
            "psd_linalg.eigvalsh_calls": (self.calls["numpy.eigvalsh"], "count"),
            "psd_linalg.decomp_n3": (self.decomp_n3, "n3"),
            "psd_linalg.decomp_s": (
                self.inclusive_s["numpy.eigh"] + self.inclusive_s["numpy.eigvalsh"], "s"
            ),
            "psd_linalg.decomp_unique_ratio": (
                len(self.decomp_digests) / decomps if decomps else 0.0, "ratio"
            ),
            "kernels.gram_builds": (builds, "count"),
            "kernels.gram_entries": (self.gram_entries, "count"),
            "kernels.gram_s": (self.inclusive_s["kernels.gram_builds"], "s"),
            "kernels.gram_unique_ratio": (
                len(self.gram_digests) / builds if builds else 0.0, "ratio"
            ),
            "experiments.runner_s": (
                sum(
                    (v for k, v in self.inclusive_s.items()
                     if k.startswith("experiments." + RUNNER_PREFIX)),
                    0.0,
                ),
                "s",
            ),
            "experiments.emit_s": (self.inclusive_s["experiments.emit_results"], "s"),
            "experiments.rows": (self.rows, "count"),
            "experiments.output_bytes": (self.output_bytes, "bytes"),
            "verification.checks": (self.checks, "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for layer, names in REPORTED.items():
            for fn in names:
                m[f"{layer}.{fn}_calls"] = (self.calls[f"{layer}.{fn}"], "count")
                if layer == "estimators":
                    m[f"{layer}.{fn}_s"] = (self.inclusive_s[f"{layer}.{fn}"], "s")
        return m
