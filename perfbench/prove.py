"""Run every workload over ten seeds and report each metric's spread.

    python3 perfbench/prove.py

For each workload of ``BENCHMARK.json`` this makes one untraced run on
each of the seeds 0-9 and prints, for every end-to-end metric, the median
of the per-run values, the quartiles (``statistics.quantiles``, n=4) and the
spread (q3 - q1) / median next to the metric's bound. A benchmark is steady
when every spread is below a third of its bound. Every run must also report
``correct`` with no failed operations. Exits 1 if any run fails or any
spread, that of setup_s included, exceeds its bound.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def run_once(command, workload, seed, seconds):
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            r = run_once(bench["command"], workload, seed, bench["run_seconds"])
            results.append(r)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}")
        print(f"\n{workload}: {len(results)} runs, "
              f"{sum(r['attempted'] for r in results)} calls, "
              f"{sum(r['failed'] for r in results)} failed")
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = ok and spread <= metric["bound"]
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name:14s} median {med:12.5g} {metric['unit']:3s} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.4f} "
                  f"bound {metric['bound']:.2f} "
                  f"{'steady' if spread < metric['bound'] / 3 else 'NOT STEADY'}")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
