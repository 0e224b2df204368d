"""delaycert benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Configs are generated from the seed into
.perfbench_work/, the program runs in a worker process (worker.py), and its
outputs are checked here with numpy alone (checker.py).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (tracer.py) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checker
import workloads
from tracer import COUNT_METRICS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
# set-up is timed in this many fresh processes, plus once in the worker:
# a set-up takes about 0.2 s, so one sample is at the mercy of the machine
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170


def _worker(root: Path, workdir: Path, args, *extra: str, seconds: float = 0.0) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root),
        "--workdir", str(workdir), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
        *extra,
    ]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"


def _failures(workload: workloads.Workload, docs, workdir: Path, summary: dict):
    """(attempted, failed, verdicts of the last pass).

    The worker reports a digest of every pass's outputs; the last pass's
    outputs are checked, and a pass whose digest differs from it counts as
    failed throughout, because its outputs were not the checked ones."""
    results = json.loads((workdir / "results.json").read_text())
    verdicts = checker.check_pass(workload.name, docs, results, workdir / "out")
    digests = summary["digests"]
    bad_in_checked = verdicts.ok.count(False)
    attempted = workload.ops_per_pass * len(digests)
    failed = sum(
        bad_in_checked if d == digests[-1] else workload.ops_per_pass for d in digests
    )
    return attempted, failed, verdicts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "delaycert" / "__init__.py").is_file():
        print(f"error: {root} holds no src/delaycert; run from the repository root",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = root / WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = [
            _worker(root, workdir / f"probe{k}", args, "--setup-only")["setup_s"]
            for k in range(SETUP_PROBES)
        ]
        summary = _worker(root, workdir, args, seconds=args.seconds)
        setups.append(summary["setup_s"])

        docs = workload.configs(args.seed)
        for stem, doc in docs.items():
            written = json.loads((workdir / "configs" / f"{stem}.json").read_text())
            if written != doc:
                raise SystemExit(f"config {stem} differs from the generator's")
        attempted, failed, verdicts = _failures(workload, docs, workdir, summary)

        run_s = statistics.median(summary["pass_s"])
        print(f"workload {args.workload}, seed {args.seed}, {workload.ops_per_pass} ops per pass")
        print(f"pass time (s): {_quartiles(summary['pass_s'])}")
        print(f"set-up time (s): {_quartiles(setups)}")
        print(f"outcomes: {dict(sorted(verdicts.outcomes.items()))}, bound rates: "
              f"{[round(r, 6) for r in verdicts.rates]}")
        for reason in verdicts.reasons:
            print(f"FAILED {reason}")

        if args.trace:
            layer = summary["layer"]
            metrics = {}
            for name, unit in LAYER_METRICS:
                values = [m[name] for m in layer]
                if name in COUNT_METRICS and len(set(values)) > 1:
                    print(f"FAILED counter {name} differs between traced passes: {values}")
                    failed += 1
                metrics[name] = {"value": float(statistics.median(values)), "unit": unit}
            traced_s = statistics.median(summary["traced_pass_s"])
            metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_s - run_s, "unit": "s"}
            print(f"traced pass time (s): {_quartiles(summary['traced_pass_s'])}; "
                  f"tracing overhead {traced_s - run_s:+.4f} s "
                  f"({(traced_s - run_s) / run_s:+.1%} of the untraced {run_s:.4f} s)")
            spans = root / WORK_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            shutil.copyfile(workdir / "spans.npz", spans)
            print(f"spans of the last traced pass: {spans.relative_to(root)}")
        else:
            metrics = {
                "run_s": {"value": run_s, "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "steps_per_s": {"value": summary["work_per_pass"] / run_s, "unit": "1/s"},
                "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
                "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            }
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
