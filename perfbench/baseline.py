"""Measure a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py [--seeds 10] [--out perfbench/baseline.json]

Run from the repository root.  For each workload of BENCHMARK.json it runs
run.py with --trace 0 on seeds 1..N and records, per end-to-end metric, the median,
the quartiles (statistics.quantiles, n=4), the run count and the spread
(interquartile range over the median) against the metric's bound in
BENCHMARK.json; then one --trace 1 run on the default seed gives the
per-layer values.  It also records the Python and numpy versions and the
number of processors.
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

import workloads

HERE = Path(__file__).resolve().parent


def _run(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect outputs:\n{proc.stdout}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {
        "conditions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "run_seconds": seconds,
            "seeds": list(range(1, args.seeds + 1)),
            "traced_seed": workloads.DEFAULT_SEED,
        },
        "end_to_end": {},
        "per_layer": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in doc["conditions"]["seeds"]:
            for metric, m in _run(name, seed, seconds, 0)["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        rows = {}
        for metric, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            rows[metric] = {"median": q2, "q1": q1, "q3": q3, "n": len(vals),
                            "unit": units[metric], "spread": spread, "values": vals}
            flag = "" if spread <= bounds[metric] / 3 else "  (above a third of the bound)"
            print(f"{name:18s} {metric:12s} median {q2:12.6g} {units[metric]:6s} "
                  f"spread {spread:.3f} bound {bounds[metric]}{flag}", flush=True)
        doc["end_to_end"][name] = rows
        traced = _run(name, workloads.DEFAULT_SEED, seconds, 1)["metrics"]
        doc["per_layer"][name] = {k: m["value"] for k, m in traced.items()}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
