"""gramxent benchmark: one seeded workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout; nothing needs building. Workloads are listed in
``workloads.py``. A run sets the workload up several times (fresh-process
``import gramxent`` plus input generation) and reports the median as
``setup_s``, then repeats whole passes of the workload's calls for about S
seconds, checking every output: against the reference under
``perfbench/reference`` when one exists for the seed, against the
workload's invariants, and for bit-identity with the first pass. Every call
must also make as many numpy ``eigh`` / ``eigvalsh`` decompositions as it
made in the first pass, and at least one: the passes repeat the same calls
on the same inputs, so a result reused from an earlier pass would otherwise
read as a gain that a single run of the program never sees.
``BENCHMARK.json`` lists the gated workloads; the others stay runnable by
name.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
The three call timings are given at a nominal host speed: each is
multiplied by PROBE_NOMINAL_S over the median time of a fixed numpy probe
(``eigh`` and reconstruction of one 256 x 256 matrix, independent of the
program) timed every PROBE_EVERY_S seconds between calls. On a shared host
whose speed changes by up to 50 % over minutes, this keeps runs made at
different times comparable; the raw timings and the factor are on the
report line.

* wall_s: time of one pass, taking each call's median over the run's
  passes (set-up and checks excluded).
* setup_s: median fresh-process import time (five before the first pass
  and one after each pass) plus median input generation (five times), as
  measured (not scaled).
* peak_rss_mb: peak resident set of this process.
* call_ms_p50: median over the pass's calls of each call's median.
* call_ms_tail: the latency with exactly ten calls of the run slower than it
  (the highest percentile with at least ten samples beyond it); the
  percentile and the sample count are printed on the report line.

Failures are the ``failed`` / ``attempted`` counts of that line (an
operation is one call: a CLI invocation, a property-suite call or an
estimator call). With ``--trace 1`` the run also makes one traced pass and
prints the per-layer metrics of ``tracer.py``, the tracer self-test result,
and the wall time of a single-threaded convergence pass (a subprocess with
OPENBLAS_NUM_THREADS=1) as a plain baseline. The line before the last
(``report``) holds the environment block and the details.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
MAX_PROBLEMS_SHOWN = 10
PROBE_N = 256
PROBE_EVERY_S = 0.5
# a round figure near the probe's median on the host the benchmark was tuned
# on (2 cores of a shared Xeon, OpenBLAS 0.3.31 with 2 threads), where
# per-run medians ranged 8.3-10.8 ms
PROBE_NOMINAL_S = 0.008

_PROBE_A = np.random.default_rng(PROBE_N).standard_normal((PROBE_N, PROBE_N))
_PROBE_MATRIX = _PROBE_A @ _PROBE_A.T
_PROBE_EIGH = np.linalg.eigh  # bound before the program is imported

_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gramxent\n"
    "t = time.perf_counter() - t\n"
    "if not gramxent.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('imported gramxent from ' + gramxent.__file__)\n"
    "print(t)\n"
)


def fresh_import_s():
    """Seconds a fresh interpreter spends on ``import gramxent``."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def tail_latency(samples):
    """(value, percentile): the sample with exactly TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def host_probe_s():
    """Seconds of one fixed eigendecomposition and reconstruction (host speed)."""
    t0 = time.perf_counter()
    w, V = _PROBE_EIGH(_PROBE_MATRIX)
    (V * w) @ V.T
    return time.perf_counter() - t0


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for key, symbol, restype in (
            ("blas_threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
            ("blas_config", "scipy_openblas_get_config64_", ctypes.c_char_p),
            ("blas_core", "scipy_openblas_get_corename64_", ctypes.c_char_p),
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                env[key] = value.decode() if isinstance(value, bytes) else value
    sources = sorted((SRC / "gramxent").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()[:16]
    head = ROOT / ".git" / "HEAD"
    env["commit"] = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else None
        env["commit"] = ref
    return env


class Measurement:
    """Latencies and check results of the passes made so far."""

    def __init__(self, workload, counter):
        self.workload = workload
        self.counter = counter
        self.first = {}
        self.first_decomps = {}
        self.latencies = []
        self.by_label = {}
        self.pass_s = []
        self.probe_s = []
        self._last_probe = -math.inf
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, probe=True):
        total = 0.0
        for label, op in self.workload.ops:
            if probe and time.perf_counter() - self._last_probe >= PROBE_EVERY_S:
                self.probe_s.append(host_probe_s())
                self._last_probe = time.perf_counter()
            before = self.counter.count
            t0 = time.perf_counter()
            try:
                output, error = op(), None
            except Exception:  # one failed call must not stop the run
                output, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            decomps = self.counter.count - before
            total += dt
            self.latencies.append(dt)
            self.by_label.setdefault(label, []).append(dt)
            self.attempted += 1
            problems = [f"{label}: {error}"] if error else self._check(label, output, decomps)
            if problems:
                self.failed += 1
                self.problems += problems[: MAX_PROBLEMS_SHOWN - len(self.problems)]
        self.pass_s.append(total)

    def _check(self, label, output, decomps):
        snap = self.workload.snapshot(output)
        if label not in self.first:
            self.first[label] = snap
            self.first_decomps[label] = decomps
            problems = self.workload.check(label, output)
            if decomps == 0:
                problems.append(f"{label}: no numpy eigh / eigvalsh decomposition seen")
            return problems
        problems = []
        if snap != self.first[label]:
            problems.append(f"{label}: output differs from the first pass")
        if decomps != self.first_decomps[label]:
            problems.append(
                f"{label}: {decomps} decompositions, {self.first_decomps[label]} in the first pass"
            )
        return problems

    def run_for(self, seconds, between_passes):
        t0 = time.perf_counter()
        while True:
            self.run_pass()
            between_passes()
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * statistics.median(self.pass_s) >= seconds:
                return


def single_thread_convergence(seed):
    """(unscaled wall_s, problem) of a convergence run with OPENBLAS_NUM_THREADS=1 (not gated)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", "convergence",
        "--seed", str(seed), "--seconds", "1", "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, env=env)
    if out.returncode != 0:
        return None, f"single-threaded convergence exited {out.returncode}: {out.stderr[-500:]}"
    *_, report_line, result_line = out.stdout.strip().splitlines()
    if not json.loads(result_line)["correct"]:
        return None, "single-threaded convergence run was not correct"
    # raw: the probe itself runs single-threaded there, so its scale would not apply
    return json.loads(report_line.removeprefix("report "))["raw"]["wall_s"], None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gramxent" / "__init__.py").is_file():
        print(f"perfbench: no gramxent package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import DecompositionCounter

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import_s = [fresh_import_s() for _ in range(SETUP_REPEATS)]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    counter = DecompositionCounter()
    counter.install()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        gen_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.ops = workload.build_ops()
            gen_s.append(time.perf_counter() - t0)

        # one more fresh import after every pass, so that the median samples
        # the host over the whole run rather than over its first second
        m = Measurement(workload, counter)
        m.run_for(args.seconds, lambda: import_s.append(fresh_import_s()))
        setup_s = statistics.median(import_s) + statistics.median(gen_s)
        report = {"workload": args.workload, "seed": args.seed, "env": environment()}
        if args.trace:
            metrics = traced_metrics(workload, m, args.seed, report)
        else:
            tail, pct = tail_latency(m.latencies)
            medians = [statistics.median(v) for v in m.by_label.values()]
            raw = {
                "wall_s": sum(medians),
                "call_ms_p50": 1000.0 * statistics.median(medians),
                "call_ms_tail": 1000.0 * tail,
            }
            probe_median_s = statistics.median(m.probe_s)
            scale = PROBE_NOMINAL_S / probe_median_s
            metrics = {
                "wall_s": (scale * raw["wall_s"], "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
                "call_ms_p50": (scale * raw["call_ms_p50"], "ms"),
                "call_ms_tail": (scale * raw["call_ms_tail"], "ms"),
            }
            report.update(
                raw=raw,
                probe_median_s=probe_median_s,
                probes=len(m.probe_s),
                host_scale=scale,
                call_ms_tail_percentile=round(pct, 2),
            )
        report.update(
            passes=len(m.pass_s),
            calls=m.attempted,
            fail_ratio=m.failed / m.attempted,
            reference=workload.reference is not None,
            problems=m.problems,
        )
    finally:
        counter.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": m.failed == 0 and not m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(workload, m, seed, report):
    """One traced pass after the untraced ones; returns the per-layer metrics."""
    from selftest import run_selftest
    from tracer import Tracer

    report["selftest"] = run_selftest()
    if not report["selftest"]["ok"]:
        m.problems.append("tracer self-test failed")

    untraced_s = statistics.median(m.pass_s)
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        m.run_pass(probe=False)  # the probe's decompositions are not the program's
    finally:
        tracer.enabled = False
        tracer.uninstall()
    traced_s = m.pass_s.pop()

    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    wall_1t, problem = single_thread_convergence(seed)
    report["convergence_1thread_wall_s"] = wall_1t
    if problem:
        m.problems.append(problem)
    else:
        metrics["blas.convergence_1thread_wall_s"] = (wall_1t, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
