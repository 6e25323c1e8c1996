"""Self-test of the tracer, run at the start of every traced benchmark run.

    python3 perfbench/selftest.py

Checks three things on one call of each estimator (small seeded inputs):

1. the tracer's ``eigh`` / ``eigvalsh`` counts, and the plain
   ``DecompositionCounter`` the untraced runs use, equal the count of calls
   into numpy's ``eigh`` / ``eigvalsh`` code seen by a ``sys.setprofile``
   hook, which does not depend on how any module bound those names;
2. every estimator makes at least one decomposition, so a solver the
   counters do not see fails here rather than reading as a count of 0;
3. the traced call returns a result bit-identical to the untraced call.

The counts themselves are printed, not asserted: they are what a
"decompose once" change is expected to lower.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gramxent  # noqa: E402
from tracer import DecompositionCounter, Tracer  # noqa: E402

# code object of numpy's implementation -> solver name
_SOLVER_CODES = {
    getattr(np.linalg, name)._implementation.__code__: name
    for name in ("eigh", "eigvalsh")
}


def _inputs():
    rng = np.random.default_rng(20210923)
    spec = gramxent.KernelSpec(gramxent.GAUSSIAN, 1.0)
    X = gramxent.SampleSet(0.5 * rng.standard_normal((24, 6)))
    Y = gramxent.SampleSet(0.5 * rng.standard_normal((24, 6)) + 0.1)
    Z = gramxent.SampleSet(0.5 * rng.standard_normal((32, 6)))
    G1, G2, G3 = (gramxent.gram_univariate(spec, S) for S in (X, Y, Z))
    K1, K2 = gramxent.normalize_trace(G1), gramxent.normalize_trace(G2)
    return {
        "nonmirrored": lambda: gramxent.nonmirrored_cross_entropy(K1, K2, 2.0),
        "mirrored": lambda: gramxent.mirrored_cross_entropy(K1, K2, 2.0),
        "two-param": lambda: gramxent.mirrored_cross_entropy_two_param(K1, K2, 0.5, 0.75),
        "umegaki": lambda: gramxent.mirrored_limit_umegaki(K1, K2),
        "tripartite-square": lambda: gramxent.tripartite_cross_entropy(
            G1, gramxent.gram_cross(spec, X, Y), G2, 2.0
        ),
        "tripartite-nonsquare": lambda: gramxent.tripartite_cross_entropy(
            G1, gramxent.gram_cross(spec, X, Z), G3, 2.0
        ),
        "entropy": lambda: gramxent.matrix_renyi_entropy(K1, 2.0),
        "mutual-information": lambda: gramxent.mutual_information(K1, K2, 2.0),
        "bounds": lambda: gramxent.trace_distance_bounds(K1, K2),
    }


def _profiled_counts(call):
    """(result, Counter of numpy eigh / eigvalsh calls) of one call."""
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in _SOLVER_CODES:
            seen[_SOLVER_CODES[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, seen


def run_selftest():
    """{'ok': bool, 'eigh': {name: count}, 'problems': [...]} for one call each."""
    problems = []
    eigh = {}
    for label, call in _inputs().items():
        untraced = repr(call())
        counter = DecompositionCounter()
        counter.install()
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            result, seen = _profiled_counts(call)
        finally:
            tracer.uninstall()
            counter.uninstall()
        for name in _SOLVER_CODES.values():
            if tracer.calls[f"numpy.{name}"] != seen[name]:
                problems.append(
                    f"{label}: traced {name} {tracer.calls[f'numpy.{name}']} != profiled {seen[name]}"
                )
        if counter.count != sum(seen.values()):
            problems.append(f"{label}: counted {counter.count} != profiled {sum(seen.values())}")
        if not seen:
            problems.append(f"{label}: no numpy eigh / eigvalsh call seen")
        if repr(result) != untraced:
            problems.append(f"{label}: traced result differs from untraced")
        eigh[label] = seen["eigh"]
    return {"ok": not problems, "eigh": eigh, "problems": problems}


if __name__ == "__main__":
    result = run_selftest()
    print(json.dumps(result))
    sys.exit(0 if result["ok"] else 1)
