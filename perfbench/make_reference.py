"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py 0 1

Runs one pass of every workload for each given seed and stores each call's
output under ``perfbench/reference/<workload>-seed<N>.json``. For
``sweeps`` it also confirms that the split calls reproduce, row for row,
the single default ``gramxent mean-shift`` / ``variance-scale`` run.

References pin the program's numbers: regenerate them only in a change
whose purpose is to change those numbers, and say so in that change.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gramxent.cli  # noqa: E402
import workloads  # noqa: E402


def _sweeps_match_default(outputs, seed, workdir):
    for experiment in ("mean-shift", "variance-scale"):
        out = Path(workdir) / f"{experiment}-default.csv"
        if gramxent.cli.main([experiment, "--seed", str(seed), "--out", str(out)]) != 0:
            raise SystemExit(f"default {experiment} run failed")
        header, *default_rows = out.read_text().splitlines()
        split_rows = [
            line
            for label, text in outputs.items()
            if label.startswith(experiment + "-")
            for line in text.splitlines()[1:]
        ]
        if sorted(split_rows) != sorted(default_rows):
            raise SystemExit(f"split {experiment} calls do not reproduce the default run")


def main(seeds):
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in seeds:
        for name, cls in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
                workload = cls(seed, workdir)
                outputs = {label: op() for label, op in workload.build_ops()}
                problems = [
                    p for label, out in outputs.items() for p in workload.invariants(out)
                ]
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems[:5]}")
                if name == "sweeps":
                    _sweeps_match_default(outputs, seed, workdir)
            snapshot = {label: workload.snapshot(out) for label, out in outputs.items()}
            path = workloads.REFERENCE_DIR / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(snapshot, indent=1) + "\n")
            print(f"wrote {path.relative_to(BENCH_DIR.parent)} ({len(snapshot)} outputs)")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [0])
