"""Command-line front end.

Subcommands: check | certify | bounds | simulate | batch.  Reports are JSON
on stdout; trajectories go to CSV.  Exit codes:

    0   success / positive verdict
    2   negative scientific verdict (hypothesis failure, no certificate,
        blow-up, envelope violated)
    3   undetermined (sampling could neither prove nor refute)
    64  unusable configuration or arguments, a command-line usage error
        included (`--help` exits 0)

`batch` loads each config and obtains its certificate and bounds in input
order on the calling thread, then simulates the configs on up to one thread
per usable core and prints their reports, and the `error:` lines of
unusable configs, in input order: its stdout, stderr, exit code and CSV
bytes are those of `simulate` run on one config after another.  The
simulating threads run their Python one at a time under one lock
(`native.held`) and overlap only in the C kernel and CSV writer; configs
that share a file name, and so a CSV, run one after another.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import threading
from pathlib import Path

from . import checks as checks_mod
from . import native
from . import rates as rates_mod
from .certify import (
    HypothesisError,
    find_certificate_linear,
    find_certificate_nonlinear,
    verify_certificate,
)
from .config import ConfigError, ExperimentConfig, load_config
from .model import Certificate
from .simulate import envelope_check, export_csv, level_set_descent, simulate_continuous, simulate_discrete

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_UNDETERMINED = 3
EXIT_CONFIG = 64


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "h", None) is not None or getattr(args, "horizon", None) is not None:
        sim = cfg.sim
        new_sim = dataclasses.replace(
            sim,
            h=args.h if args.h is not None else sim.h,
            horizon=args.horizon if args.horizon is not None else sim.horizon,
        )
        cfg = dataclasses.replace(cfg, sim=new_sim)
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_check(args) -> int:
    cfg = _load(args)
    report = checks_mod.check_model(cfg.system)
    delay_reports = {}
    for q, d in enumerate(cfg.delays):
        delay_reports[f"delay_{q}"] = checks_mod.check_delay_assumption(
            d, horizon=max(cfg.sim.horizon, 10.0)
        ).to_dict()
    verdict = report.verdict
    for rep in delay_reports.values():
        if rep["divergence(a5)"] == checks_mod.FAIL:
            verdict = checks_mod.FAIL
    _emit({"report": report.to_dict(), "delays": delay_reports, "verdict": verdict})
    if verdict == checks_mod.FAIL:
        return EXIT_NEGATIVE
    if verdict == checks_mod.UNDETERMINED:
        return EXIT_UNDETERMINED
    return EXIT_OK


def _obtain_certificate(cfg: ExperimentConfig) -> tuple[Certificate | None, str]:
    """The system's certificate, or None with the reason there is none.

    A system that violates a standing hypothesis has no certificate: that
    is a negative verdict, not unusable input.
    """
    system = cfg.system
    if cfg.analysis.v is not None:
        return verify_certificate(system, cfg.analysis.v), ""
    try:
        if system.f.is_linear and all(g.is_linear for g in system.delayed_terms):
            v = find_certificate_linear(
                system.f.to_matrix(),
                [g.to_matrix() for g in system.delayed_terms],
                system.kind,
            )
            provenance = "linear-solve"
        else:
            v = find_certificate_nonlinear(system, cfg.seed)
            provenance = "ray-search"
    except HypothesisError as exc:
        return None, f"standing hypothesis violated: {exc}"
    if v is None:
        return None, "no certificate found; for nonlinear systems this is not a proof of infeasibility"
    return verify_certificate(system, v, provenance=provenance), ""


def cmd_certify(args) -> int:
    cfg = _load(args)
    cert, reason = _obtain_certificate(cfg)
    if cert is None:
        _emit({"certificate": None, "note": reason})
        return EXIT_NEGATIVE
    _emit({"certificate": cert.to_dict()})
    return EXIT_OK if cert.valid else EXIT_NEGATIVE


def cmd_bounds(args) -> int:
    cfg = _load(args)
    cert, reason = _obtain_certificate(cfg)
    if cert is None or not cert.valid:
        _emit({
            "certificate": None if cert is None else cert.to_dict(),
            "bounds": [],
            "note": reason or "decay bounds need a valid certificate",
        })
        return EXIT_NEGATIVE
    bounds, skipped = rates_mod.decay_bounds(cfg.system, cert, cfg.analysis.bounds, cfg.delays)
    if skipped:
        raise ConfigError("; ".join(skipped))
    _emit({
        "certificate": cert.to_dict(),
        "bounds": [b.to_dict() for b in bounds],
    })
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    status, report = _run_simulation(cfg, _analyse(cfg), Path(args.out))
    _emit(report)
    return status


def _analyse(cfg: ExperimentConfig) -> tuple[Certificate | None, list, str]:
    """(certificate, bounds, why there is no bound) of cfg: all that
    `_run_simulation` needs of the theory."""
    cert, skipped = _obtain_certificate(cfg)
    bounds = []
    if cert is not None and not cert.valid:
        skipped = "certificate is not valid"
    elif cert is not None:
        bounds, reasons = rates_mod.decay_bounds(cfg.system, cert, cfg.analysis.bounds, cfg.delays)
        skipped = "; ".join(reasons)
        if not bounds and not skipped:
            skipped = "no bound form applies to this system and delay"
    return cert, bounds, skipped


def _run_simulation(cfg: ExperimentConfig, analysis: tuple, out_path: Path) -> tuple[int, dict]:
    """(exit code, report) of one simulation of cfg, checked against its
    `_analyse` result, its CSV written to out_path; nothing is printed."""
    system = cfg.system
    if system.is_discrete:
        traj = simulate_discrete(
            system, list(cfg.delays), cfg.history_discrete(), int(cfg.sim.horizon)
        )
    else:
        traj = simulate_continuous(
            system, list(cfg.delays), cfg.history_continuous(), cfg.sim.h, cfg.sim.horizon
        )

    cert, bounds, skipped = analysis
    bound = bounds[0] if bounds else None

    v = cert.v if cert else None
    try:
        export_csv(traj, out_path, v=v, dilation=system.dilation, bound=bound)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {out_path}: {exc.strerror}") from exc

    report: dict = {
        "csv": str(out_path),
        "samples": int(len(traj.times)),
        "final_time": float(traj.times[-1]),
        "diverged_at": traj.metadata.get("diverged_at"),
        "positivity_violations": len(traj.metadata.get("positivity_violations", [])),
    }
    if skipped:
        report["bounds_skipped"] = skipped
    status = EXIT_OK
    if traj.diverged:
        report["note"] = "state left the finite range; trajectory truncated"
        status = EXIT_NEGATIVE
    elif bound is not None:
        history_v = cfg.history_peak(v, traj.metadata["history_depth"])
        # decay_bounds returns only bounds that upper_envelope covers
        clock, M = rates_mod.upper_envelope(system, cert, bound, cfg.delays, history_v)
        env = envelope_check(traj, clock, v, system.dilation, M)
        report["envelope"] = env.to_dict()
        if clock is not bound:
            report["envelope"]["clock"] = clock.to_dict()
        if not env.holds:
            status = EXIT_NEGATIVE
        report["bound"] = bound.to_dict()
        report["level_set_entries"] = level_set_descent(
            traj, v, system.dilation, cfg.analysis.gamma, history_v
        )
    return status, report


def cmd_batch(args) -> int:
    """Simulate each config and print the reports and errors in input
    order (see the module docstring).  An exception other than ValueError
    ends the batch after the reports of the configs before its own; the
    configs not yet started are not run."""
    from concurrent.futures import ThreadPoolExecutor  # here, so that importing the CLI stays cheap

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot make the directory {out_dir}: {exc.strerror}") from exc
    # configs and their analyses, or the error lines of unusable configs.
    # Every field evaluation happens here, before the first run starts, so a
    # profiler that nests calls by time never puts one inside another
    # thread's integration
    jobs: list[tuple | str] = []
    failure = None
    for path in map(Path, args.configs):
        try:
            cfg = load_config(path)
            jobs.append((path, cfg, _analyse(cfg)))
        except ValueError as exc:  # ConfigError included
            jobs.append(f"error: {path}: {exc}")
        except Exception as exc:  # raised after the reports before it
            failure = exc
            break
    python = threading.Lock()

    def run(job: tuple | str) -> tuple[int, dict | str]:
        if isinstance(job, str):
            return EXIT_CONFIG, job
        path, cfg, analysis = job
        try:
            with native.held(python):
                return _run_simulation(cfg, analysis, out_dir / (path.stem + ".csv"))
        except ValueError as exc:
            return EXIT_CONFIG, f"error: {path}: {exc}"

    stems = [Path(path).stem for path in args.configs]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # configs that share a file name write one CSV, so they run in input order
    workers = min(len(stems), cores) if len(set(stems)) == len(stems) else 1
    worst = EXIT_OK
    with ThreadPoolExecutor(workers) as pool:
        for status, out in pool.map(run, jobs):
            if isinstance(out, str):
                print(out, file=sys.stderr)
            else:
                _emit(out)
            worst = max(worst, status)
    if failure is not None:
        raise failure
    return worst


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_CONFIG, not 2, which
    is the negative verdict; subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was."""
    parser = _Parser(
        prog="delaycert",
        description=(
            "Certify delay-independent stability of positive systems, compute "
            "guaranteed decay-rate bounds, and validate them by simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_required=False):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--h", type=float, default=None, help="override the step size")
        p.add_argument("--horizon", type=float, default=None, help="override the horizon")
        if out_required:
            p.add_argument("--out", required=True, help="output CSV path")

    add_common(sub.add_parser("check", help="verify the standing hypotheses"))
    add_common(sub.add_parser("certify", help="find or verify a stability certificate"))
    add_common(sub.add_parser("bounds", help="compute guaranteed decay-rate bounds"))
    add_common(sub.add_parser("simulate", help="integrate the delayed dynamics"), out_required=True)

    batch = sub.add_parser(
        "batch",
        help="simulate several configs, on up to the number of usable cores; "
        "reports are printed in input order",
    )
    batch.add_argument("configs", nargs="+", help="experiment configs (JSON)")
    batch.add_argument("--out", required=True, help="output directory for CSV files")
    return parser


_COMMANDS = {
    "check": cmd_check,
    "certify": cmd_certify,
    "bounds": cmd_bounds,
    "simulate": cmd_simulate,
    "batch": cmd_batch,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
