"""Before/after benchmark rows for two delaycert trees.

Runs `python3 perfbench/run.py --trace 0` in each tree on every workload
that BENCHMARK.json gates, or on each workload named with --workload, in
alternating pairs (the parent first in even pairs, the change first in odd
ones), and writes the median and quartiles of every end-to-end metric for
both trees to one JSON file.  Seeds given with --held-out run the same
pairs after --seed, and their rows go under `held_out` in the same file.

    git archive HEAD~1 | tar -x -C ../parent
    python tools/bench_rows.py ../parent . --out BENCH_<n>.json --pairs 10 --seconds 50
    python tools/bench_rows.py ../parent . --out BENCH_<n>.json --held-out 5   # and seed 5
    python tools/bench_rows.py ../parent . --out rows.json --workload linear_dense --workload discrete_long

Each tree runs its own perfbench/ on its own src/, from its root.  For each
metric the file also gives `change_wins`, the number of pairs in which the
change was better in the metric's direction (ties count for neither side),
and `ratio`, the change's median over the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON summary of one untraced benchmark run in root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(argv)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", type=Path, help="root of the parent tree")
    ap.add_argument("change_root", type=Path, help="root of the changed tree")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0, help="run length of each run")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, nargs="*", default=[],
                    help="further seeds, run in pairs after --seed and written under held_out")
    ap.add_argument("--workload", action="append",
                    help="a workload to run (repeatable); by default every one BENCHMARK.json lists")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    def rows_of(seed: int) -> dict:
        rows = {}
        for w in args.workload or [w["name"] for w in bench["workloads"]]:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for k in range(args.pairs):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    runs[side].append(run_once(roots[side], w, seed, args.seconds))
                    print(f"{w} seed {seed} pair {k + 1}/{args.pairs} {side}: "
                          f"run_s {runs[side][-1]['metrics']['run_s']['value']:.4f}", flush=True)
            metrics = {}
            for name in better:
                per = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
                sign = 1.0 if better[name] == "higher" else -1.0
                diff = sign * (np.array(per["change"]) - np.array(per["parent"]))
                row = {"unit": units[name], "better": better[name]}
                row.update({side: summary(per[side]) for side in per})
                row["change_wins"] = int(np.sum(diff > 0.0))
                row["ratio"] = row["change"]["median"] / row["parent"]["median"]
                metrics[name] = row
            failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
            rows[w] = {"metrics": metrics, "failed_ops": failed}
        return rows

    tables = {seed: rows_of(seed) for seed in [args.seed, *args.held_out]}
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "conditions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
        },
        "workloads": tables[args.seed],
    }
    if args.held_out:
        doc["held_out"] = {str(seed): tables[seed] for seed in args.held_out}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for seed, rows in tables.items():
        for w, row in rows.items():
            for name, m in row["metrics"].items():
                print(f"seed {seed} {w:18s} {name:12s} parent {m['parent']['median']:.6g} "
                      f"change {m['change']['median']:.6g} ratio {m['ratio']:.3f} "
                      f"wins {m['change_wins']}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
