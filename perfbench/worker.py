"""Benchmark worker: the one process per workload that runs the program.

Run by run.py, never by hand:

    python3 perfbench/worker.py --root ROOT --workdir DIR --workload NAME
        --seed N --seconds S --trace 0|1 [--setup-only]

It imports delaycert from ROOT/src, generates and parses the workload's
configs (that is the set-up it times), then drives delaycert.cli.main(argv)
in-process: one untimed warm-up pass, then passes for S seconds.  With
--trace 1 the first half of the time runs untraced passes and the second
half traced ones.  The last line of stdout is a JSON summary; the outputs
of the last pass stay in DIR for run.py to check.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_PASSES = 2


def _setup(root: Path, workdir: Path, workload_name: str, seed: int):
    """Import numpy and delaycert, generate and parse the configs."""
    sys.path.insert(0, str(root / "src"))
    import numpy  # noqa: F401
    import delaycert
    import delaycert.cli
    from delaycert.config import load_config

    src = (root / "src").resolve()
    if src not in Path(delaycert.__file__).resolve().parents:
        raise SystemExit(f"delaycert imported from {delaycert.__file__}, not from {src}")
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    config_dir = workdir / "configs"
    docs = workloads.write_configs(workload, seed, config_dir)
    for stem in docs:
        load_config(config_dir / f"{stem}.json")
    return workload, delaycert.cli


def _run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            raised = f"{type(exc).__name__}: {exc}"
    return {"code": code, "raised": raised, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _digest(results: list[dict], out_dir: Path) -> str:
    h = hashlib.sha256(json.dumps(results, sort_keys=True).encode())
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _one_pass(cli, ops, out_dir: Path, tracer=None):
    """Run every invocation once; returns (seconds, results, digest)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gc.collect()
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        results = [_run_op(cli, argv) for argv in ops]
        elapsed = time.perf_counter() - t0
    return elapsed, results, _digest(results, out_dir)


def _warm_up(cli, ops, out_dir):
    """Untimed first pass, which lets lazy imports and caches settle.  It
    also counts the pass's work: integrator steps, or the certificate
    search's margin evaluations on a workload that does not simulate.
    Returns (digest, work)."""
    import delaycert.certify as certify

    steps, margins = [0], [0]
    saved = (cli.simulate_continuous, cli.simulate_discrete, certify.margins)

    def counted_integrate(fn):
        def wrapper(*args, **kwargs):
            traj = fn(*args, **kwargs)
            steps[0] += len(traj.times) - 1
            return traj
        return wrapper

    def counted_margins(*args, **kwargs):
        margins[0] += 1
        return saved[2](*args, **kwargs)

    cli.simulate_continuous = counted_integrate(saved[0])
    cli.simulate_discrete = counted_integrate(saved[1])
    certify.margins = counted_margins
    try:
        _, _, digest = _one_pass(cli, ops, out_dir)
    finally:
        cli.simulate_continuous, cli.simulate_discrete, certify.margins = saved
    return digest, steps[0] or margins[0]


def _passes(cli, ops, out_dir, seconds, make_tracer=None):
    """Passes until `seconds` have gone by (at least MIN_PASSES).  Returns
    (times, digests, per-pass layer metrics, last results, last tracer)."""
    times, digests, layer, last, tracer = [], [], [], None, None
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        tracer = make_tracer() if make_tracer else None
        elapsed, last, digest = _one_pass(cli, ops, out_dir, tracer)
        times.append(elapsed)
        digests.append(digest)
        if tracer is not None:
            layer.append(tracer.metrics())
    return times, digests, layer, last, tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload, cli = _setup(args.root, args.workdir, args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracer import Tracer

    out_dir = args.workdir / "out"
    ops = workload.ops(args.workdir / "configs", out_dir)
    warm_digest, work = _warm_up(cli, ops, out_dir)
    summary = {"setup_s": setup_s, "work_per_pass": work}
    if args.trace:
        import numpy as np

        half = args.seconds / 2.0
        plain, plain_digests, _, _, _ = _passes(cli, ops, out_dir, half)
        traced, traced_digests, layer, last, tracer = _passes(
            cli, ops, out_dir, half, lambda: Tracer(workload.ops_per_pass)
        )
        np.savez_compressed(args.workdir / "spans.npz", **tracer.arrays())
        summary.update(
            pass_s=plain, traced_pass_s=traced,
            digests=[warm_digest] + plain_digests + traced_digests, layer=layer,
        )
    else:
        times, digests, _, last, _ = _passes(cli, ops, out_dir, args.seconds)
        summary.update(pass_s=times, digests=[warm_digest] + digests)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.workdir / "results.json").write_text(json.dumps(last))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
