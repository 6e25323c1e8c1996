"""The four benchmark workloads and the checks on their outputs.

A workload is made for one seed and work directory; ``build_ops()`` is
its input generation and returns the (label, callable) list of one pass. Each callable
returns the program's output in a form the benchmark can compare: the CSV
text a CLI call wrote, the property reports, or estimator values. The
program is always reached through attribute lookups at call time
(``gramxent.cli.main``, ``gramxent.<estimator>``), so a traced run sees
every call.

Why these four (each stresses a different layer):

* convergence: the criterion-5 grid, one ``gramxent convergence`` call per
  (d, n) cell. LAPACK-bound and the only workload at large n, so it is
  where "decompose once" should show.
* properties: the property suite on thousands of tiny matrices, where
  per-call Python overhead in psd_linalg/estimators dominates and flop
  savings hardly show.
* sweeps: mean-shift, variance-scale and tripartite at their pinned
  defaults. The only workload reaching the exponential-inner-product kernel
  and non-square tripartite cells (one decomposition each, so "decompose
  once" is bypassed), and the one where Gram builds weigh most.
* library: each public estimator on pre-built pairs at n = 512. The only
  workload reaching matrix_log, hadamard_joint, the entropies and the
  trace-distance bounds.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import gramxent
import gramxent.cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Reference rows match when |a - b| <= RTOL * max(|a|, |b|) + ATOL and the
# +-inf pattern is identical. Switching the OpenBLAS kernel (SkylakeX vs
# Haswell) moves ill-conditioned variance-scale rows (order 4, K2^-3) by up
# to 3.2e-9 relative, and the convergence rows that are rounding noise around
# zero (d >= 50, |value| ~ 1e-16) by 1e-15 absolute; RTOL and ATOL leave
# room for that and nothing more.
RTOL = 1e-8
ATOL = 1e-10

KEY_COLUMNS = ("experiment", "kernel", "alpha", "parameter", "measure", "n", "m", "d", "seed")

CONVERGENCE_D = (2, 10, 25, 50, 100)
CONVERGENCE_N = (32, 64, 128, 256, 512)
CONVERGENCE_REPLICATES = 2
PROPERTY_CALLS = 10
LIBRARY_N = 512
LIBRARY_D = 10
LIBRARY_SCALE = 0.5
LIBRARY_SHIFT = 0.1
LIBRARY_PAIRS = 2


def _cli_op(argv, out_path):
    def op():
        code = gramxent.cli.main([*argv, "--out", str(out_path)])
        if code != 0:
            raise RuntimeError(f"gramxent {' '.join(argv)} exited with {code}")
        return out_path.read_text()

    return op


def _parse_rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(gramxent.experiments.RESULT_COLUMNS):
        raise ValueError(f"unexpected header {header}")
    rows = []
    for cells in reader:
        row = dict(zip(header, cells))
        rows.append((tuple(row[c] for c in KEY_COLUMNS), float(row["value"])))
    return rows


def _values_match(a, b):
    if math.isnan(a) or math.isnan(b):
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def compare_rows(text, reference_text):
    """Problems found comparing CSV output against reference CSV output."""
    got, want = _parse_rows(text), _parse_rows(reference_text)
    if [k for k, _ in got] != [k for k, _ in want]:
        return [f"row keys differ ({len(got)} rows vs {len(want)} in the reference)"]
    return [
        f"row {key}: {a!r} vs reference {b!r}"
        for (key, a), (_, b) in zip(got, want)
        if not _values_match(a, b)
    ]


class Workload:
    """Base: subclasses build the ops of a pass and check single outputs."""

    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        path = REFERENCE_DIR / f"{self.name}-seed{seed}.json"
        self.reference = json.loads(path.read_text()) if path.is_file() else None

    def snapshot(self, output):
        """The form of an output stored in a reference file."""
        return output

    def check(self, label, output):
        """Problems with one output; an empty list means it is correct."""
        try:
            problems = self.invariants(output)
            if self.reference is not None:
                if label not in self.reference:
                    problems.append("no reference output")
                else:
                    problems += self.against_reference(output, self.reference[label])
        except ValueError as exc:
            problems = [f"unreadable output: {exc}"]
        return [f"{label}: {p}" for p in problems]


class _CliWorkload(Workload):
    def invariants(self, text):
        rows = _parse_rows(text)
        if not rows:
            return ["no rows"]
        return [f"row {k}: NaN" for k, v in rows if math.isnan(v)]

    def against_reference(self, text, reference_text):
        return compare_rows(text, reference_text)


class Convergence(_CliWorkload):
    """The criterion-5 grid (alpha 2, 2 replicates), one CLI call per cell."""

    name = "convergence"

    def build_ops(self):
        config = self.workdir / "convergence.json"
        config.write_text(json.dumps({"replicates": CONVERGENCE_REPLICATES}))
        cells = [(d, n) for d in CONVERGENCE_D for n in CONVERGENCE_N]
        ops = []
        for k, (d, n) in enumerate(cells):
            argv = [
                "convergence", "--config", str(config), "--alpha", "2",
                "--d", str(d), "--n", str(n),
                "--seed", str(self.seed * len(cells) + k),
            ]
            ops.append((f"d{d}-n{n}", _cli_op(argv, self.workdir / f"conv-{k}.csv")))
        return ops


class Sweeps(_CliWorkload):
    """mean-shift, variance-scale and tripartite at their pinned defaults.

    The two bipartite sweeps are split into one call per kernel family and
    grid value. Their draws depend only on the seed and replicate, so the
    union of the calls' rows is exactly the single default run's output.
    """

    name = "sweeps"

    def build_ops(self):
        seed = ["--seed", str(self.seed)]
        ops = []
        for experiment, flag, grid in (
            ("mean-shift", "--shift", "shift_grid"),
            ("variance-scale", "--scale", "scale_grid"),
        ):
            grid = getattr(gramxent.default_config(experiment), grid)
            for family in ("gaussian", "exponential-inner-product"):
                for i, p in enumerate(grid):
                    argv = [experiment, "--kernel", family, flag, repr(p), *seed]
                    label = f"{experiment}-{family}-{i}"
                    ops.append((label, _cli_op(argv, self.workdir / f"{label}.csv")))
        ops.append(("tripartite", _cli_op(["tripartite", *seed], self.workdir / "tripartite.csv")))
        return ops


class Properties(Workload):
    """The property suite at its default sizes and orders, one instance seed
    per call, ten calls per pass (half the work of the 20-seed default, so a
    run makes enough passes to take per-call medians)."""

    name = "properties"

    def build_ops(self):
        base = self.seed * PROPERTY_CALLS
        return [
            (f"suite-{i}", lambda s=base + i: gramxent.run_property_suite(seed=s, n_seeds=1))
            for i in range(PROPERTY_CALLS)
        ]

    def snapshot(self, reports):
        return [[r.name, r.instances, r.passed] for r in reports]

    def invariants(self, reports):
        return [
            f"{r.name} failed: violation {r.max_violation:.3g} > {r.tolerance:.3g}"
            for r in reports
            if not r.passed
        ]

    def against_reference(self, reports, reference):
        got = self.snapshot(reports)
        return [] if got == reference else [f"reports {got} vs reference {reference}"]


def _library_pair(rng):
    shape = (LIBRARY_N, LIBRARY_D)
    X = gramxent.SampleSet(LIBRARY_SCALE * rng.standard_normal(shape))
    Y = gramxent.SampleSet(LIBRARY_SCALE * rng.standard_normal(shape) + LIBRARY_SHIFT)
    spec = gramxent.KernelSpec(gramxent.GAUSSIAN, 1.0)
    G1 = gramxent.gram_univariate(spec, X)
    G2 = gramxent.gram_univariate(spec, Y)
    return {
        "G1": G1,
        "G2": G2,
        "K12": gramxent.gram_cross(spec, X, Y),
        "K1": gramxent.normalize_trace(G1),
        "K2": gramxent.normalize_trace(G2),
    }


LIBRARY_CALLS = {
    "nonmirrored": lambda p: gramxent.nonmirrored_cross_entropy(p["K1"], p["K2"], 2.0).value,
    "mirrored": lambda p: gramxent.mirrored_cross_entropy(p["K1"], p["K2"], 2.0).value,
    "two-param": lambda p: gramxent.mirrored_cross_entropy_two_param(
        p["K1"], p["K2"], 0.5, 0.75
    ).value,
    "umegaki": lambda p: gramxent.mirrored_limit_umegaki(p["K1"], p["K2"]).value,
    "tripartite": lambda p: gramxent.tripartite_cross_entropy(
        p["G1"], p["K12"], p["G2"], 2.0
    ).value,
    "entropy": lambda p: gramxent.matrix_renyi_entropy(p["K1"], 2.0),
    "mutual-information": lambda p: gramxent.mutual_information(p["K1"], p["K2"], 2.0),
    "conditional-entropy": lambda p: gramxent.conditional_entropy(p["K1"], p["K2"], 2.0),
    "bounds": lambda p: list(gramxent.trace_distance_bounds(p["K1"], p["K2"])),
}


class Library(Workload):
    """Every public estimator on seeded, pre-built pairs at n = 512.

    The data (d = 10, scale 0.5) keeps the Grams well conditioned (condition
    number ~4e2), so every value is finite and each call takes the same
    path on every seed. A pass calls each estimator once on each pair.
    """

    name = "library"

    def build_ops(self):
        rng = np.random.default_rng(self.seed)
        pairs = [_library_pair(rng) for _ in range(LIBRARY_PAIRS)]
        return [
            (f"{name}/pair{i}", lambda f=f, p=pair: f(p))
            for i, pair in enumerate(pairs)
            for name, f in LIBRARY_CALLS.items()
        ]

    def invariants(self, value):
        values = value if isinstance(value, list) else [value]
        return [f"non-finite value {v!r}" for v in values if not math.isfinite(v)]

    def against_reference(self, value, reference):
        got = value if isinstance(value, list) else [value]
        want = reference if isinstance(reference, list) else [reference]
        if len(got) != len(want) or not all(map(_values_match, got, want)):
            return [f"{value!r} vs reference {reference!r}"]
        return []


WORKLOADS = {w.name: w for w in (Convergence, Properties, Sweeps, Library)}
