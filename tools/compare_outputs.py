"""Compare the CLI outputs of two delaycert source trees.

Runs `check`, `certify`, `bounds` and `simulate` from each tree on the same
configs, and `batch` in one process over each seed's six cubic_ensemble
configs and over a mixed batch (those six with an unusable config, a
diverging one and one that is not positive among them), and prints every
difference in stdout, exit code or CSV bytes, and for `batch` in stderr.  Exits 1 when any run differs
and 0 when all agree.  `batch` is the one path where several configs run in
one process, and so share what a process keeps between runs (such as
compiled code), and run on several threads; a state that leaks from one
config into the next, or a report or error out of input order, shows up
there as a difference.

    git worktree add ../parent HEAD~1        # or: git archive HEAD~1 | tar -x -C ../parent
    python tools/compare_outputs.py ../parent/src src
    python tools/compare_outputs.py ../parent/src src --no-compiler

The configs are those of the perfbench workloads at seeds 1-3 (generated by
perfbench/workloads.py, which is only imported) and variants built from the
config builders of tests/test_cli.py: discrete maps among them, one
that blows up and one that is not positive, and one continuous system
that is not positive, whose runs clamp roundoff and record violations.
Two continuous runs of 20,000 steps span several plan blocks
(simulate.PLAN_BLOCK steps each), where every other run fits in one.  JSON reports
are compared key by key, so a difference is printed as the path of the
key with both values.  Each run is a separate `python -m delaycert`
process with PYTHONPATH set to its tree; files go to a temporary directory
that is removed afterwards.

With --no-compiler every run has PATH set to an empty directory and
XDG_CACHE_HOME to a fresh one, so that no C kernel can be built and each
tree runs its Python code; the tool then also reports whether that kernel
cache stayed empty, and exits 1 when it did not.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
COMMANDS = ("check", "certify", "bounds", "simulate")
ABSENT = "(absent)"
# x' = -x - 0.8 x(t - 1) from 1: it swings through zero, so its runs snap
# roundoff below zero to zero and record about a thousand violations
NEGATIVE_FEEDBACK = {
    "version": 1,
    "system": {"kind": "continuous", "dilation": [1], "degree": 0,
               "f": {"n": 1, "components": [[{"coeff": -1, "exp": [1]}]]},
               "delayed": [{"n": 1, "components": [[{"coeff": -0.8, "exp": [1]}]]}]},
    "delay": {"family": "constant", "tau": 1},
    "initial_history": {"constant": [1]},
    "sim": {"h": 0.01, "horizon": 20},
}


def _workloads():
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads

    return workloads


def perfbench_configs() -> dict[str, dict]:
    workloads = _workloads()

    out = {}
    for seed in SEEDS:
        for w in workloads.WORKLOADS.values():
            for stem, doc in w.configs(seed).items():
                out[f"{w.name}-s{seed}-{stem}"] = doc
    return out


def cli_test_configs(src: Path) -> dict[str, dict]:
    # tests/test_cli.py imports delaycert.cli, so one tree must be importable
    sys.path[:0] = [str(REPO / "tests"), str(src)]
    import test_cli

    def variant(base: dict, **sections) -> dict:
        doc = copy.deepcopy(base)
        for key, value in sections.items():
            if key == "analysis":
                doc.setdefault("analysis", {}).update(value)
            else:
                doc[key] = value
        return doc

    cubic, scalar, discrete = test_cli.cubic_config(), test_cli.scalar_config(), test_cli.discrete_config()
    proportional = {"family": "proportional", "alpha": 0.5}
    out = {
        "cubic": cubic,
        "cubic-eta": variant(cubic, analysis={"bounds": ["eta"]}),
        "discrete-constant-steps": discrete,
        "discrete-constant-steps-eta": variant(discrete, analysis={"bounds": ["eta"]}),
        "discrete-proportional-steps": variant(discrete, delay={"family": "proportional_steps", "alpha": 0.5}),
        "cubic-t5": variant(cubic, sim={"h": 0.01, "horizon": 5}),
        "cubic-beta": variant(cubic, delay=proportional),
        "cubic-beta-t5": variant(cubic, delay=proportional, sim={"h": 0.01, "horizon": 5}),
        "growth": test_cli.growth_config(),
        "scalar": scalar,
        "scalar-table": variant(scalar, initial_history={"table": {
            "times": [-3, -2, -0.5, 0], "states": [[5], [4], [2], [1]],
        }}),
        "scalar-eta-tau1000": variant(scalar, delay={"family": "constant", "tau": 1000},
                                      analysis={"bounds": ["eta"]}),
        "scalar-xi-constant-delay": variant(scalar, analysis={"bounds": ["xi"]}),
        "scalar-xi-proportional": variant(scalar, delay=proportional, analysis={"bounds": ["xi"]}),
        "scalar-xi-log-lag": variant(scalar, delay={"family": "log_lag"}, analysis={"bounds": ["xi"]}),
        "scalar-tau-sup-declared": variant(scalar, delay=proportional, analysis={"tau_sup": 1}),
        "scalar-mixed-delays": variant(
            scalar,
            system={**scalar["system"], "delayed": [
                {"n": 1, "components": [[{"coeff": 0.25, "exp": [1]}]]},
            ] * 2},
            delay=[{"family": "constant", "tau": 5}, proportional],
        ),
        "scalar-eta-h1-t2400": variant(scalar, sim={"h": 1, "horizon": 2400}),
        "scalar-eta-theta": variant(scalar, analysis={"bounds": ["eta", "theta"]}),
        "negative-feedback": NEGATIVE_FEEDBACK,
        **discrete_map_configs(test_cli, variant),
        **multi_block_configs(variant),
    }
    for horizon in (2, 5, 20):
        out[f"scalar-xi-t{horizon}"] = variant(
            scalar, delay=proportional, sim={"h": 0.01, "horizon": horizon},
            analysis={"bounds": ["xi"]},
        )
    return {**out, **rate_branch_configs(test_cli, variant)}


def discrete_map_configs(test_cli, variant) -> dict[str, dict]:
    """Maps whose runs read the state itself (the parity delay), a table
    history, two delayed terms with their own delays, a quadratic map that
    blows up at k = 21, and a map whose states turn negative."""
    discrete = test_cli.discrete_config()
    term = {"n": 1, "components": [[{"coeff": 0.1, "exp": [1]}]]}
    quadratic = test_cli.quadratic_map_config()
    quadratic["system"]["f"]["components"][0][0]["coeff"] = 0.5
    quadratic["system"]["delayed"][0]["components"][0][0]["coeff"] = 0.25
    negative = test_cli.discrete_config()
    negative["system"]["f"]["components"][0][0]["coeff"] = 0.5
    negative["system"]["delayed"][0]["components"][0][0]["coeff"] = -0.8
    return {
        "discrete-alternating-parity": variant(discrete, delay={"family": "alternating_parity"}),
        "discrete-table-history": variant(discrete, initial_history={"table": {
            "times": [-2, -1, 0], "states": [[3], [0.5], [1]],
        }}),
        "discrete-two-delays": variant(
            discrete, system={**discrete["system"], "delayed": [term, term]},
            delay=[{"family": "constant_steps", "d": 3}, {"family": "proportional_steps", "alpha": 0.5}],
        ),
        # x(k+1) = 0.5 x(k)**2 + 0.25 x(k - 2)**2 from 1.34, just above its basin edge 4/3
        "discrete-quadratic-blow-up": variant(quadratic, initial_history={"constant": [1.34]},
                                              sim={"horizon": 100}),
        # x(k+1) = 0.5 x(k) - 0.8 x(k - 2): it swings through zero
        "discrete-negative-states": variant(negative, sim={"horizon": 200}),
    }


def multi_block_configs(variant) -> dict[str, dict]:
    """Runs of 20,000 steps: NEGATIVE_FEEDBACK at h = 0.001, whose
    violations fall on both sides of the block edges, and the cubic of
    cubic_ensemble (seed 1) under its piecewise-linear delay at h = 0.002."""
    cubic = next(doc for doc in _workloads().WORKLOADS["cubic_ensemble"].configs(1).values()
                 if doc["delay"]["family"] == "piecewise_linear")
    return {
        "negative-feedback-h0.001": variant(NEGATIVE_FEEDBACK, sim={"h": 0.001, "horizon": 20}),
        "cubic-piecewise-linear-h0.002": variant(cubic, sim={"h": 0.002, "horizon": 40}),
    }


def rate_branch_configs(test_cli, variant) -> dict[str, dict]:
    """Configs that reach the branches of the rate layer the others miss:
    degree 0 under the dilation r = (1, 2), components without a delayed
    coupling under eta, theta (tau = 0 and tau > 0) and the power clocks,
    and a discrete component with f_i(v) = g_i(v) = 0."""
    out, linear = {}, test_cli.linear_config
    # tests/test_rates.py::dilated_model: an x_1**2 coupling into component 2, v = (1, 1)
    for kind, (f1, f2), (g1, g2) in (("continuous", (-1, -1), (0.6, 0.2)), ("discrete", (0.3, 0.2), (0.5, 0.3))):
        doc = {
            "version": 1,
            "system": {"kind": kind, "dilation": [1, 2], "degree": 0,
                       "f": {"n": 2, "components": [[{"coeff": f1, "exp": [1, 0]}], [{"coeff": f2, "exp": [0, 1]}]]},
                       "delayed": [{"n": 2, "components": [[{"coeff": g1, "exp": [1, 0]}],
                                                           [{"coeff": g2, "exp": [2, 0]}]]}]},
            "initial_history": {"constant": [1, 1]},
            "sim": {"h": 0.01, "horizon": 5} if kind == "continuous" else {"horizon": 30},
            "analysis": {"v": [1, 1], "bounds": ["eta", "xi"]},
        }
        steps = "_steps" if kind == "discrete" else ""
        bounded = {"family": "constant_steps", "d": 1} if steps else {"family": "constant", "tau": 1}
        out[f"dilated-{kind}-constant"] = variant(doc, delay=bounded)
        out[f"dilated-{kind}-proportional"] = variant(
            doc, delay={"family": f"proportional{steps}", "alpha": 0.5}, analysis={"bounds": ["xi"]},
        )
    # x_2 has no delayed coupling: eta's closed form, xi's inf, a power clock root
    f, g = [[-2, 0], [0.5, -1]], [[0.5, 0], [0, 0]]
    out["uncoupled-eta"] = linear("continuous", f, g, {"family": "constant", "tau": 1}, ["eta"])
    out["uncoupled-xi"] = linear("continuous", f, g, {"family": "proportional", "alpha": 0.5}, ["xi"])
    out["uncoupled-xi-tau50"] = linear("continuous", f, g, {"family": "constant", "tau": 50}, ["xi"])
    # the cubic with component 2's delayed term removed: theta_i in closed form
    uncoupled = test_cli.cubic_config()
    uncoupled["system"]["delayed"][0]["components"][1] = []
    for tau in (0, 1):
        out[f"cubic-uncoupled-theta-tau{tau}"] = variant(
            uncoupled, delay={"family": "constant", "tau": tau}, sim={"h": 0.01, "horizon": 5},
            analysis={"bounds": ["theta"]},
        )
    out["cubic-uncoupled-beta"] = variant(
        uncoupled, delay={"family": "proportional", "alpha": 0.5}, sim={"h": 0.01, "horizon": 5},
        analysis={"bounds": ["beta"]},
    )
    # component 2 of a discrete system is zero after one step
    f, g = [[0.3, 0], [0, 0]], [[0.2, 0], [0, 0]]
    for name, delay, bounds in (("eta", {"family": "constant_steps", "d": 2}, ["eta"]),
                                ("xi", {"family": "proportional_steps", "alpha": 0.5}, ["xi"])):
        out[f"discrete-zero-row-{name}"] = linear("discrete", f, g, delay, bounds)
    return out


def run_tree(src: Path, doc: dict, work: Path, env: dict) -> dict[str, tuple]:
    """{command: (exit code, stdout, CSV bytes or None)} of one tree on one config."""
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(doc))
    env = dict(env, PYTHONPATH=str(src))
    results = {}
    for cmd in COMMANDS:
        argv = [sys.executable, "-m", "delaycert", cmd, "--config", "config.json"]
        csv = work / f"{cmd}.csv"
        if cmd == "simulate":
            argv += ["--out", csv.name]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        results[cmd] = (proc.returncode, proc.stdout, csv.read_bytes() if csv.exists() else None)
    return results


def mixed_batch(cubic: dict[str, dict]) -> dict[str, dict]:
    """The cubic configs with an unusable config (an unknown key, exit 64)
    after the second, and after the fourth a diverging one (x' = x**2 +
    0.5 x(t - 1)**2 from 1.5, exit 2) and NEGATIVE_FEEDBACK."""
    stems = list(cubic)
    unusable = {**cubic[stems[0]], "extra": 1}
    diverging = {
        "version": 1,
        "system": {"kind": "continuous", "dilation": [1], "degree": 1,
                   "f": {"n": 1, "components": [[{"coeff": 1, "exp": [2]}]]},
                   "delayed": [{"n": 1, "components": [[{"coeff": 0.5, "exp": [2]}]]}]},
        "delay": {"family": "constant", "tau": 1},
        "initial_history": {"constant": [1.5]},
        "sim": {"h": 0.01, "horizon": 5},
    }
    docs = [(stem, cubic[stem]) for stem in stems]
    docs[4:4] = [("diverging", diverging), ("negative-feedback", NEGATIVE_FEEDBACK)]
    docs[2:2] = [("unusable", unusable)]
    return dict(docs)


def run_batch(src: Path, docs: dict[str, dict], work: Path, env: dict) -> tuple:
    """(exit code, stdout, stderr, {CSV name: bytes}) of one `batch` over docs."""
    (work / "out").mkdir(parents=True)
    for stem, doc in docs.items():
        (work / f"{stem}.json").write_text(json.dumps(doc))
    argv = [sys.executable, "-m", "delaycert", "batch", *(f"{stem}.json" for stem in docs), "--out", "out"]
    proc = subprocess.run(argv, cwd=work, env=dict(env, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    csvs = {p.name: p.read_bytes() for p in sorted((work / "out").iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, csvs


def json_differences(old, new, path: str = "") -> list[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in old or key not in new:
                out.append(f"{sub}: {old.get(key, ABSENT)!r} -> {new.get(key, ABSENT)!r}")
            else:
                out += json_differences(old[key], new[key], sub)
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, (a, b) in enumerate(zip(old, new)) for d in json_differences(a, b, f"{path}[{i}]")]
    return [] if old == new else [f"{path or '(document)'}: {old!r} -> {new!r}"]


def stdout_differences(old: str, new: str) -> list[str]:
    if old == new:
        return []
    try:
        return json_differences(json.loads(old), json.loads(new))
    except json.JSONDecodeError:
        return [f"(text) {old.strip()[:200]!r} -> {new.strip()[:200]!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path, help="the src directory of the reference tree")
    parser.add_argument("new_src", type=Path, help="the src directory of the changed tree")
    parser.add_argument("--no-compiler", action="store_true",
                        help="run without a C compiler and with an empty kernel cache")
    args = parser.parse_args(argv)
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()
    configs = {**perfbench_configs(), **cli_test_configs(new_src)}
    runs = differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        env, cache, cached = dict(os.environ), Path(tmp) / "cache", []
        if args.no_compiler:
            for path in (Path(tmp) / "bin", cache):
                path.mkdir()
            env.update(PATH=str(Path(tmp) / "bin"), XDG_CACHE_HOME=str(cache))
        for name, doc in configs.items():
            old = run_tree(old_src, doc, Path(tmp) / "old" / name, env)
            new = run_tree(new_src, doc, Path(tmp) / "new" / name, env)
            for cmd in COMMANDS:
                (code_a, out_a, csv_a), (code_b, out_b, csv_b) = old[cmd], new[cmd]
                lines = [f"exit code: {code_a} -> {code_b}"] if code_a != code_b else []
                lines += [f"stdout {d}" for d in stdout_differences(out_a, out_b)]
                if csv_a != csv_b:
                    lines.append("CSV bytes differ")
                runs += 1
                if lines:
                    differing += 1
                    for line in lines:
                        print(f"{name} {cmd}: {line}")
        cubic = _workloads().WORKLOADS["cubic_ensemble"]
        batches = {}
        for seed in SEEDS:
            batches[f"cubic_ensemble-s{seed}"] = cubic.configs(seed)
            batches[f"mixed-s{seed}"] = mixed_batch(cubic.configs(seed))
        for name, docs in batches.items():
            (code_a, out_a, err_a, csvs_a), (code_b, out_b, err_b, csvs_b) = (
                run_batch(src, docs, Path(tmp) / side / f"{name}-batch", env)
                for side, src in (("old", old_src), ("new", new_src))
            )
            lines = [f"exit code: {code_a} -> {code_b}"] if code_a != code_b else []
            lines += [f"{stream} differs" for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b))
                      if a != b]
            lines += [f"{csv} bytes differ" for csv in sorted(set(csvs_a) | set(csvs_b))
                      if csvs_a.get(csv) != csvs_b.get(csv)]
            runs += 1
            if lines:
                differing += 1
                for line in lines:
                    print(f"{name} batch: {line}")
        if args.no_compiler:
            cached = sorted(p.relative_to(cache) for p in cache.rglob("*") if p.is_file())
            print(f"kernel cache without a compiler: {len(cached)} files", *cached[:5])
    print(f"{runs} runs on {len(configs)} configs; {differing} differ")
    return 1 if differing or cached else 0


if __name__ == "__main__":
    sys.exit(main())
