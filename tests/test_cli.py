import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from delaycert import simulate as simulate_mod
from delaycert.cli import main

CUBIC_F_DOC = {
    "n": 2,
    "components": [
        [{"coeff": -5, "exp": [3, 0]}, {"coeff": 2, "exp": [1, 1]}],
        [{"coeff": 1, "exp": [2, 1]}, {"coeff": -4, "exp": [0, 2]}],
    ],
}
CUBIC_G_DOC = {
    "n": 2,
    "components": [
        [{"coeff": 1, "exp": [1, 1]}],
        [{"coeff": 2, "exp": [4, 0]}],
    ],
}


def cubic_config(**overrides):
    doc = {
        "version": 1,
        "system": {
            "kind": "continuous",
            "f": CUBIC_F_DOC,
            "delayed": [CUBIC_G_DOC],
            "dilation": [1, 2],
            "degree": 2,
        },
        "delay": {"family": "sinusoidal", "a": 4, "b": 1},
        "initial_history": {"constant": [1, 1]},
        "sim": {"h": 0.01, "horizon": 50},
        "analysis": {"v": [1, 1], "gamma": 0.9},
    }
    doc.update(overrides)
    return doc


def growth_config():
    return {
        "version": 1,
        "system": {
            "kind": "continuous",
            "f": {"n": 2, "components": [
                [{"coeff": 1, "exp": [1, 0]}],
                [{"coeff": -1, "exp": [1, 0]}],
            ]},
            "delayed": [{"n": 2, "components": [
                [],
                [{"coeff": 2.718281828459045, "exp": [1, 0]}],
            ]}],
            "dilation": [1, 1],
            "degree": 0,
        },
        "delay": {"family": "piecewise_linear", "knots": [[0, 0], [1, 0], [2, 1]]},
        "initial_history": {"constant": [1, 1]},
        "sim": {"h": 0.001, "horizon": 2},
    }


def scalar_config():
    """x'(t) = -x(t) + 0.5 x(t - 1) with the certificate v = 1."""
    return {
        "version": 1,
        "system": {
            "kind": "continuous",
            "f": {"n": 1, "components": [[{"coeff": -1, "exp": [1]}]]},
            "delayed": [{"n": 1, "components": [[{"coeff": 0.5, "exp": [1]}]]}],
            "dilation": [1],
            "degree": 0,
        },
        "delay": {"family": "constant", "tau": 1},
        "initial_history": {"constant": [1]},
        "sim": {"h": 0.01, "horizon": 10},
        "analysis": {"v": [1]},
    }


def discrete_config():
    """x(k+1) = 0.3 x(k) + 0.2 x(k - 2); the linear route gives v = 2."""
    return {
        "version": 1,
        "system": {
            "kind": "discrete",
            "f": {"n": 1, "components": [[{"coeff": 0.3, "exp": [1]}]]},
            "delayed": [{"n": 1, "components": [[{"coeff": 0.2, "exp": [1]}]]}],
            "dilation": [1],
            "degree": 0,
        },
        "delay": {"family": "constant_steps", "d": 2},
        "initial_history": {"constant": [1]},
        "sim": {"horizon": 30},
    }


def quadratic_map_config():
    """x(k+1) = 0.3 x(k)**2 + 0.2 x(k - 2)**2 (degree 1) with v = 1."""
    doc = discrete_config()
    doc["system"]["f"]["components"][0][0]["exp"] = [2]
    doc["system"]["delayed"][0]["components"][0][0]["exp"] = [2]
    doc["system"]["degree"] = 1
    doc["analysis"] = {"v": [1]}
    return doc


def write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# -- check ---------------------------------------------------------------------

def test_check_cubic_all_pass(tmp_path, capsys):
    cfg = write(tmp_path, cubic_config())
    code, doc = run_cli(capsys, "check", "--config", cfg)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["report"]["checks"]["cooperative:f"]["verdict"] == "pass"
    assert doc["delays"]["delay_0"]["tau_sup"] == 5.0


def test_check_growth_system_fails_positivity(tmp_path, capsys):
    cfg = write(tmp_path, growth_config())
    code, doc = run_cli(capsys, "check", "--config", cfg)
    assert code == 2
    assert doc["report"]["checks"]["positivity-condition"]["verdict"] == "fail"
    assert doc["report"]["checks"]["positivity-condition"]["witness"]["point"] == [1.0, 0.0]


def test_check_undetermined_exit_code(tmp_path, capsys):
    doc = cubic_config()
    # a homogeneous delayed term with a mixed-sign coefficient list: it is
    # non-decreasing, but not provably so from the coefficients alone
    doc["system"] = {
        "kind": "continuous",
        "f": {"n": 1, "components": [[{"coeff": -1, "exp": [1]}]]},
        "delayed": [{"n": 1, "components": [[
            {"coeff": 0.2, "exp": [1]}, {"coeff": -0.1, "exp": [1]},
        ]]}],
        "dilation": [1],
        "degree": 0,
    }
    doc["initial_history"] = {"constant": [1]}
    # every subcommand validates the whole document, so the n=1 system
    # needs a length-1 analysis.v as well
    doc["analysis"]["v"] = [1]
    cfg = write(tmp_path, doc)
    code, out = run_cli(capsys, "check", "--config", cfg)
    assert code == 3
    assert out["verdict"] == "undetermined"


def test_check_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["check", "--config", str(path)])
    capsys.readouterr()
    assert code == 64


def test_check_unknown_key_rejected(tmp_path, capsys):
    doc = cubic_config()
    doc["sim"]["stepsize"] = 0.01  # typo for h
    cfg = write(tmp_path, doc)
    code = main(["check", "--config", cfg])
    capsys.readouterr()
    assert code == 64


@pytest.mark.parametrize("key", ["settle_fraction", "tau_sup"])
def test_check_rejects_settle_fraction(tmp_path, capsys, key):
    # the envelope verdict has no tuning knob left, and the delay models
    # are the only source of tau_sup
    doc = scalar_config()
    doc["analysis"][key] = 0.5
    code = main(["check", "--config", write(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 64
    assert key in captured.err


@pytest.mark.parametrize("kind, history", [
    ("continuous", {"constant": [-1]}),
    ("continuous", {"constant": [float("nan")]}),
    ("continuous", {"constant": [float("inf")]}),
    ("continuous", {"table": {"times": [-1, 0], "states": [[1, 2], [1, 2]]}}),
    ("continuous", {"table": {"times": [0, -1], "states": [[1], [2]]}}),
    ("discrete", {"table": {"times": [-1.5, 0], "states": [[1], [2]]}}),
], ids=["negative", "nan", "infinite", "row-length", "unsorted", "discrete-fractional-time"])
def test_check_rejects_history_outside_theorems(tmp_path, capsys, kind, history):
    doc = scalar_config()
    if kind == "discrete":
        doc["system"]["kind"] = "discrete"
        doc["delay"] = {"family": "constant_steps", "d": 2}
        doc["sim"] = {"horizon": 10}
    doc["initial_history"] = history
    code = main(["check", "--config", write(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "initial_history" in captured.err


def test_check_discrete_system_tests_f_for_monotonicity(tmp_path, capsys):
    code, doc = run_cli(capsys, "check", "--config", write(tmp_path, discrete_config()))
    assert code == 0
    checks = doc["report"]["checks"]
    assert checks["nondecreasing:f"] == {"verdict": "pass", "mode": "proof"}
    assert "cooperative:f" not in checks
    # a decreasing map fails, with a witness
    doc_ = discrete_config()
    doc_["system"]["f"]["components"][0][0]["coeff"] = -0.3
    code, doc = run_cli(capsys, "check", "--config", write(tmp_path, doc_))
    assert code == 2
    assert doc["report"]["checks"]["nondecreasing:f"]["verdict"] == "fail"
    assert doc["report"]["checks"]["nondecreasing:f"]["witness"]["entry"] == [0, 0]


def _with(doc, path, value):
    """doc with the entry at path (a list of keys) set to value."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _exps(exp):
    return {"n": 1, "components": [[{"coeff": -1, "exp": exp}]]}


def _coeff(coeff):
    return {"n": 1, "components": [[{"coeff": coeff, "exp": [1]}]]}


# every case once crashed with a traceback (exit 1) or was accepted
@pytest.mark.parametrize("doc, cmd, argv, key", [
    (_with(scalar_config(), ["delay"], {"family": "constant", "tau": "x"}), "certify", [], "tau"),
    (_with(cubic_config(), ["delay"], {"family": "proportional", "alpha": "x"}), "certify", [], "alpha"),
    (_with(discrete_config(), ["delay"], {"family": "constant_steps", "d": "x"}), "certify", [], "d"),
    (_with(cubic_config(), ["delay"], {"family": "sinusoidal", "a": None, "b": 1}), "certify", [], "a"),
    (_with(cubic_config(), ["delay"], {"family": "sinusoidal", "a": 4, "b": math.nan}), "certify", [], "b"),
    (_with(growth_config(), ["delay"], {"family": "piecewise_linear", "knots": 5}), "certify", [], "knots"),
    (_with(growth_config(), ["delay"], {"family": "piecewise_linear", "knots": [[0, "x"]]}),
     "certify", [], "knots"),
    (_with(growth_config(), ["delay"], {"family": "piecewise_linear", "knots": [[0, 1e400]]}),
     "certify", [], "delay values"),
    (_with(discrete_config(), ["delay"], {"family": "constant_steps", "d": 1e400}), "certify", [], "d"),
    (_with(scalar_config(), ["delay"], {"family": "constant", "tau": 1e400}), "certify", [], "tau"),
    (_with(discrete_config(), ["sim", "horizon"], 1e400), "certify", [], "sim.horizon"),
    (_with(scalar_config(), ["sim", "horizon"], 1e400), "simulate", [], "sim.horizon"),
    (_with(scalar_config(), ["sim", "h"], "x"), "certify", [], "sim.h"),
    (scalar_config(), "simulate", ["--horizon", "inf"], "sim.horizon"),
    (scalar_config(), "certify", ["--h", "nan"], "sim.h"),
    (scalar_config(), "certify", ["--h", "0"], "sim.h"),
    (_with(scalar_config(), ["system", "degree"], "x"), "certify", [], "system.degree"),
    (_with(scalar_config(), ["system", "dilation"], [1e400]), "certify", [], "dilation"),
    (_with(scalar_config(), ["analysis", "v"], [None]), "certify", [], "analysis.v"),
    (_with(scalar_config(), ["analysis", "gamma"], None), "certify", [], "analysis.gamma"),
    (_with(scalar_config(), ["system", "f"], _exps([1, 0])), "check", [], "exponent"),
    (_with(scalar_config(), ["system", "f"], _exps([-1])), "check", [], "exponent"),
    (_with(scalar_config(), ["system", "f"], _exps([1.5])), "check", [], "exponent"),
    (_with(discrete_config(), ["delay", "d"], 2.5), "check", [], "delay: d must be a finite nonnegative whole"),
    (_with(discrete_config(), ["sim", "horizon"], 30.7), "check", [], "sim.horizon"),
    (discrete_config(), "simulate", ["--horizon", "12.9"], "sim.horizon"),
    (_with(scalar_config(), ["system", "f"], _coeff(-1e400)), "certify", [], "system.f"),
    (_with(scalar_config(), ["system", "f"], _coeff(math.nan)), "simulate", [], "system.f"),
    (_with(scalar_config(), ["system", "f"], _coeff("-1")), "certify", [], "system.f"),
    (_with(scalar_config(), ["system", "delayed"], [_coeff(math.inf)]), "check", [], "system.delayed[0]"),
    (cubic_config(analysis={"gamma": 0.9}, seed=-1), "certify", [], "seed"),
    (cubic_config(analysis={"gamma": 0.9}), "certify", ["--seed", "-3"], "seed"),
    (_with(scalar_config(), ["analysis", "bounds"], 5), "bounds", [], "analysis.bounds"),
    (_with(scalar_config(), ["analysis", "bounds"], None), "bounds", [], "analysis.bounds"),
    (_with(scalar_config(), ["delay", "family"], ["constant"]), "check", [], "delay.family"),
    (_with(scalar_config(), ["system", "f", "n"], 1.5), "check", [], "system.f.n"),
    (_with(scalar_config(), ["system", "delayed"], [dict(_coeff(0.5), n="1")]), "check", [], "system.delayed[0].n"),
], ids=[
    "tau-str", "alpha-str", "d-str", "a-null", "b-nan", "knots-int", "knots-str", "knots-inf",
    "d-inf", "tau-inf", "discrete-horizon-inf", "continuous-horizon-inf", "h-str",
    "horizon-arg-inf", "h-arg-nan", "h-arg-zero", "degree-str", "dilation-inf", "v-null",
    "gamma-null", "exponent-length", "exponent-negative", "exponent-fractional",
    "d-fractional", "discrete-horizon-fractional", "discrete-horizon-arg-fractional",
    "coeff-inf", "coeff-nan", "coeff-str", "delayed-coeff-inf", "seed-negative", "seed-arg-negative",
    "bounds-int", "bounds-null", "family-list", "n-fractional", "n-str",
])
def test_malformed_numbers_exit_64_naming_the_key(tmp_path, capsys, doc, cmd, argv, key):
    out = ["--out", str(tmp_path / "x.csv")] if cmd == "simulate" else []
    code = main([cmd, "--config", write(tmp_path, doc), *argv, *out])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert key in captured.err


# bool is an int in Python: each of these was once read as the number 1
@pytest.mark.parametrize("doc, cmd, key", [
    (_with(discrete_config(), ["delay", "d"], True), "bounds", "delay.d"),
    (_with(scalar_config(), ["system", "f"], _coeff(True)), "certify", "system.f coefficient"),
    (_with(scalar_config(), ["initial_history"], {"constant": [True]}), "check", "initial_history.constant"),
    (_with(scalar_config(), ["system", "dilation"], [True]), "check", "system.dilation"),
    (_with(scalar_config(), ["seed"], True), "certify", "seed"),
    (_with(scalar_config(), ["system", "f"], _exps([True])), "check", "system.f exponent"),
    (_with(scalar_config(), ["initial_history"], {"table": {"times": [-1, False], "states": [[1], [1]]}}),
     "check", "initial_history.table.times"),
    (_with(growth_config(), ["delay", "knots"], [[0, 0], [1, False], [2, True]]), "check", "delay.knots"),
    (_with(scalar_config(), ["system", "f", "n"], True), "check", "system.f.n"),
    (_with(scalar_config(), ["version"], True), "check", "version"),
], ids=["d", "coeff", "history", "dilation", "seed", "exponent", "history-time", "knots", "n", "version"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, doc, cmd, key):
    code = main([cmd, "--config", write(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert key in captured.err


def test_whole_step_counts_given_as_floats_are_accepted(tmp_path, capsys):
    doc = discrete_config()
    doc["delay"]["d"] = 2.0
    doc["sim"]["horizon"] = 30.0
    cfg = write(tmp_path, doc)
    code, out = run_cli(capsys, "check", "--config", cfg)
    assert code == 0
    assert out["delays"]["delay_0"]["tau_sup"] == 2.0
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--horizon", "12.0",
                        "--out", str(tmp_path / "run.csv"))
    assert code == 0
    assert out["final_time"] == 12.0


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "config.json"],
    ["bounds", "--config", "config.json", "--bogus"],
    ["bounds", "--config", "config.json", "--h", "abc"],
], ids=["missing-out", "unknown-option", "malformed-h"])
def test_usage_errors_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == ""
    assert "error: " in captured.err


def test_the_parser_is_built_once():
    from delaycert import cli

    assert cli.build_parser() is cli.build_parser()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["check", "certify", "bounds", "simulate", "batch"])
def test_analysis_alpha_is_an_unknown_key(tmp_path, capsys, cmd):
    # the delays are the one source of the delay ratio
    doc = scalar_config()
    doc["delay"] = {"family": "proportional", "alpha": 0.5}
    doc["analysis"]["alpha"] = 0.1
    cfg = write(tmp_path, doc)
    if cmd == "batch":
        argv = [cmd, cfg, "--out", str(tmp_path / "out")]
    elif cmd == "simulate":
        argv = [cmd, "--config", cfg, "--out", str(tmp_path / "run.csv")]
    else:
        argv = [cmd, "--config", cfg]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "unknown keys: ['alpha']" in captured.err


def test_bounds_take_the_ratio_of_a_proportional_delay(tmp_path, capsys):
    # x' = -x + 0.5 x(t/2): K = 2, and -1 + 0.5 * 2**xi = 0 at xi = 1
    doc = scalar_config()
    doc["delay"] = {"family": "proportional", "alpha": 0.5}
    code, out = run_cli(capsys, "bounds", "--config", write(tmp_path, doc))
    assert code == 0
    (bound,) = out["bounds"]
    assert bound["form"] == "power_rate"
    assert bound["rate"] == pytest.approx(0.999999, abs=1e-12)


CONTINUOUS_DELAYS = [
    {"family": "constant", "tau": 1},
    {"family": "sinusoidal", "a": 4, "b": 1},
    {"family": "piecewise_linear", "knots": [[0, 0], [1, 0], [2, 1]]},
    {"family": "proportional", "alpha": 0.5},
    {"family": "log_lag"},
]
DISCRETE_DELAYS = [
    {"family": "constant_steps", "d": 2},
    {"family": "alternating_parity"},
    {"family": "proportional_steps", "alpha": 0.5},
]


def test_every_finite_bound_meets_the_condition_under_its_delays():
    # decay_bounds reads tau_sup and the ratio from the delays only, so every
    # finite rate it returns is clocked by the condition under those delays
    from delaycert import rates
    from delaycert.cli import _obtain_certificate
    from delaycert.config import parse_config

    checked = 0
    for config, delays in [(scalar_config, CONTINUOUS_DELAYS), (cubic_config, CONTINUOUS_DELAYS),
                           (discrete_config, DISCRETE_DELAYS)]:
        for delay in delays:
            cfg = parse_config({**config(), "delay": delay})
            cert, _ = _obtain_certificate(cfg)
            for form in rates.FORMS:
                bounds, _ = rates.decay_bounds(cfg.system, cert, [form], cfg.delays)
                for bound in bounds:
                    if math.isfinite(bound.rate):
                        assert rates.mu_condition_check(cfg.system, cert, bound, cfg.delays), (delay, form)
                        checked += 1
    assert checked == 14  # the others are infinite or do not apply
    # a ratio below the delay's own gives a rate that the delay does not support
    cfg = parse_config({**scalar_config(), "delay": CONTINUOUS_DELAYS[3]})
    assert not rates.mu_condition_check(cfg.system, (1.0,), rates.xi_bound(cfg.system, (1.0,), 0.1), cfg.delays)


# -- certify -------------------------------------------------------------------

def test_certify_cubic_user_vector(tmp_path, capsys):
    cfg = write(tmp_path, cubic_config())
    code, doc = run_cli(capsys, "certify", "--config", cfg)
    assert code == 0
    assert doc["certificate"]["valid"] is True
    assert doc["certificate"]["margins"] == [-2.0, -1.0]
    assert doc["certificate"]["provenance"] == "user-supplied"


def test_a_vector_whose_exact_margins_are_positive_is_no_certificate(tmp_path, capsys):
    # A + B is not Hurwitz (det -0.588), and the exact margins at v are
    # +3.35e-9 and +1.04e-9; the float margins, -8.17e-9 and -1.21e-8, pass
    # the float rule, because two rounded products of about 1e8 cancel
    doc = scalar_config()
    doc["system"] = {
        "kind": "continuous",
        "f": {"n": 2, "components": [
            [{"coeff": -184302654.7015329, "exp": [1, 0]}, {"coeff": 105297250.07312062, "exp": [0, 1]}],
            [{"coeff": 249510155.94232348, "exp": [1, 0]}, {"coeff": -142552115.3159149, "exp": [0, 1]}],
        ]},
        "delayed": [{"n": 2, "components": [
            [{"coeff": 1.2359004123415527e-08, "exp": [0, 1]}],
            [{"coeff": 1.765902422375395e-08, "exp": [1, 0]}],
        ]}],
        "dilation": [1, 1],
        "degree": 0,
    }
    doc["initial_history"] = {"constant": [1, 1]}
    doc["analysis"] = {"v": [1.0, 1.7503083373359631]}
    cfg = write(tmp_path, doc)
    code, out = run_cli(capsys, "certify", "--config", cfg)
    assert code == 2
    assert out["certificate"]["valid"] is False
    assert all(m < 0.0 for m in out["certificate"]["margins"])
    code, out = run_cli(capsys, "bounds", "--config", cfg)
    assert code == 2
    assert out["bounds"] == []


def test_certify_discrete_linear_solve(tmp_path, capsys):
    doc = {
        "version": 1,
        "system": {
            "kind": "discrete",
            "f": {"n": 2, "components": [
                [{"coeff": 0.3, "exp": [1, 0]}, {"coeff": 0.2, "exp": [0, 1]}],
                [{"coeff": 0.1, "exp": [1, 0]}, {"coeff": 0.4, "exp": [0, 1]}],
            ]},
            "delayed": [{"n": 2, "components": [
                [{"coeff": 0.1, "exp": [1, 0]}],
                [{"coeff": 0.2, "exp": [1, 0]}, {"coeff": 0.1, "exp": [0, 1]}],
            ]}],
            "dilation": [1, 1],
            "degree": 0,
        },
        "delay": {"family": "constant_steps", "d": 2},
        "initial_history": {"constant": [1, 1]},
        "sim": {"horizon": 50},
    }
    cfg = write(tmp_path, doc)
    code, out = run_cli(capsys, "certify", "--config", cfg)
    assert code == 0
    cert = out["certificate"]
    assert cert["provenance"] == "linear-solve"
    assert cert["v"] == pytest.approx([35.0 / 12.0, 45.0 / 12.0])


def test_certify_unstable_linear_absent(tmp_path, capsys):
    doc = growth_config()
    code, out = run_cli(capsys, "certify", "--config", write(tmp_path, doc))
    assert code == 2
    assert out["certificate"] is None


@pytest.mark.parametrize("f_exp, g_exp, degree", [([1], [1], 0), ([3], [3], 2)],
                         ids=["linear", "cubic"])
def test_certify_unstable_system_has_no_certificate(tmp_path, capsys, f_exp, g_exp, degree):
    # x' = x + 0.2 x(t - 1), and its cubic twin: cooperative and monotone,
    # but every margin is positive, so neither route finds a certificate
    doc = scalar_config()
    del doc["analysis"]
    doc["system"]["f"] = {"n": 1, "components": [[{"coeff": 1, "exp": f_exp}]]}
    doc["system"]["delayed"] = [{"n": 1, "components": [[{"coeff": 0.2, "exp": g_exp}]]}]
    doc["system"]["degree"] = degree
    code, out = run_cli(capsys, "certify", "--config", write(tmp_path, doc))
    assert code == 2
    assert out["certificate"] is None
    assert out["note"].startswith("no certificate found")


def test_seed_argument_overrides_the_config_seed(tmp_path, capsys, monkeypatch):
    from delaycert import cli

    seeds = []

    def search(system, seed):
        seeds.append(seed)
        return find(system, seed)

    find = cli.find_certificate_nonlinear
    monkeypatch.setattr(cli, "find_certificate_nonlinear", search)
    doc = cubic_config(seed=3)
    del doc["analysis"]["v"]
    cfg = write(tmp_path, doc)
    outs = [run_cli(capsys, "certify", "--config", cfg, *argv) for argv in ([], ["--seed", "11"])]
    assert seeds == [3, 11]
    assert [code for code, _ in outs] == [0, 0]


# -- bounds --------------------------------------------------------------------

def test_bounds_hypothesis_failure_exits_2(tmp_path, capsys):
    code, out = run_cli(capsys, "bounds", "--config", write(tmp_path, growth_config()))
    assert code == 2
    assert out["certificate"] is None
    assert out["bounds"] == []
    assert "Metzler" in out["note"]


def test_bounds_cubic_theta(tmp_path, capsys):
    cfg = write(tmp_path, cubic_config())
    code, doc = run_cli(capsys, "bounds", "--config", cfg)
    assert code == 0
    (bound,) = doc["bounds"]
    assert bound["form"] == "polynomial_reciprocal"
    assert bound["rate"] == pytest.approx(0.2 * (1 - 1e-6), abs=1e-15)
    assert bound["component_rates"] == [4.0, 1.0]


def test_bounds_cubic_proportional_beta(tmp_path, capsys):
    doc = cubic_config(delay={"family": "proportional", "alpha": 0.5})
    code, out = run_cli(capsys, "bounds", "--config", write(tmp_path, doc))
    assert code == 0
    (bound,) = out["bounds"]
    assert bound["form"] == "power_rate"
    assert bound["beta"] == pytest.approx(0.2924812503605781, abs=1e-6)


def test_bounds_scalar_eta(tmp_path, capsys):
    code, out = run_cli(capsys, "bounds", "--config", write(tmp_path, scalar_config()))
    assert code == 0
    (bound,) = out["bounds"]
    assert bound["form"] == "exponential"
    assert 0.3148 <= bound["rate"] / (1 - 1e-6) <= 0.3150


@pytest.mark.parametrize("bounds", [["auto"], ["eta"]])
def test_bounds_discrete_eta(tmp_path, capsys, bounds):
    doc = discrete_config()
    doc["analysis"] = {"bounds": bounds}
    code, out = run_cli(capsys, "bounds", "--config", write(tmp_path, doc))
    assert code == 0
    (bound,) = out["bounds"]
    assert bound["form"] == "exponential"
    # 0.3 e**eta + 0.2 e**(3 eta) = 1: R1 = e**eta, R2 = e**(eta (1 + 2))
    eta = bound["component_rates"][0]
    assert 0.3 * math.exp(eta) + 0.2 * math.exp(3.0 * eta) == pytest.approx(1.0, abs=1e-12)
    assert eta == pytest.approx(0.351282, abs=1e-6)
    assert bound["rate"] == pytest.approx(eta * (1 - 1e-6), rel=1e-12)


@pytest.mark.parametrize("config, bounds, reason", [
    (cubic_config, ["eta"], "zero degree"),
    (quadratic_map_config, ["theta"], "continuous"),
])
def test_mismatched_bound_request(tmp_path, capsys, config, bounds, reason):
    # a requested form that does not apply is skipped by simulate and
    # unusable input for bounds
    doc = config()
    doc["analysis"]["bounds"] = bounds
    cfg = write(tmp_path, doc)
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "run.csv"))
    assert code == 0
    assert reason in out["bounds_skipped"]
    assert "bound" not in out
    assert main(["bounds", "--config", cfg]) == 64
    assert reason in capsys.readouterr().err


def test_simulate_keeps_every_applicable_requested_bound(tmp_path, capsys):
    # theta needs positive degree; eta still applies to x' = -x + 0.5 x(t - 1)
    doc = scalar_config()
    doc["analysis"]["bounds"] = ["eta", "theta", "beta"]
    cfg = write(tmp_path, doc)
    csv = tmp_path / "run.csv"
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--out", str(csv))
    assert code == 0
    assert out["bounds_skipped"] == (
        "theta bound needs positive degree, got 0.0; "
        "beta bound needs positive degree, got 0.0"
    )
    assert out["bound"]["form"] == "exponential"
    assert out["envelope"]["holds"]
    assert csv.read_text().splitlines()[0] == "t,x_1,V,bound"
    assert main(["bounds", "--config", cfg]) == 64
    assert "theta bound needs positive degree" in capsys.readouterr().err


def test_bounds_eta_long_delay_is_finite(tmp_path, capsys):
    # exp(eta * 1000) overflows during bracket doubling; that counts as positive
    doc = scalar_config()
    doc["delay"] = {"family": "constant", "tau": 1000}
    doc["analysis"]["bounds"] = ["eta"]
    code, out = run_cli(capsys, "bounds", "--config", write(tmp_path, doc))
    assert code == 0
    (bound,) = out["bounds"]
    # -1 + 0.5 exp(1000 eta) + eta = 0 puts eta just below ln(2)/1000
    assert 0.0 < bound["rate"] < math.log(2.0) / 1000.0
    assert -1.0 + 0.5 * math.exp(1000.0 * bound["rate"]) + bound["rate"] == pytest.approx(0.0, abs=1e-5)


def test_bounds_infinite_rate_is_strict_json(tmp_path, capsys):
    # a bounded delay has ratio 0, which leaves xi without a finite root
    doc = scalar_config()
    doc["analysis"]["bounds"] = ["xi"]
    code = main(["bounds", "--config", write(tmp_path, doc)])
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert out["bounds"][0]["rate"] == "inf"


# -- simulate ------------------------------------------------------------------

def test_simulate_cubic_writes_csv_with_bound(tmp_path, capsys):
    cfg = write(tmp_path, cubic_config(sim={"h": 0.01, "horizon": 5}))
    out_csv = tmp_path / "run.csv"
    code, doc = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out_csv))
    assert code == 0
    assert doc["envelope"]["holds"] is True
    header = out_csv.read_text().splitlines()[0]
    assert header == "t,x_1,x_2,V,bound"


def test_simulate_determinism_byte_identical(tmp_path, capsys):
    cfg = write(tmp_path, cubic_config(sim={"h": 0.01, "horizon": 3}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def _blow_up_config():
    """x(k+1) = x(k)**2 from 1.5: leaves the float range at k = 11 (exit 2)."""
    return {
        "version": 1,
        "system": {
            "kind": "discrete",
            "f": {"n": 1, "components": [[{"coeff": 1, "exp": [2]}]]},
            "delayed": [{"n": 1, "components": [[]]}],
            "dilation": [1],
            "degree": 1,
        },
        "delay": {"family": "constant_steps", "d": 0},
        "initial_history": {"constant": [1.5]},
        "sim": {"horizon": 40},
    }


def test_simulate_blowup_truncates_and_exits_2(tmp_path, capsys):
    out_csv = tmp_path / "blow.csv"
    code, out = run_cli(capsys, "simulate", "--config", write(tmp_path, _blow_up_config()), "--out", str(out_csv))
    assert code == 2
    assert out["diverged_at"] == 11
    assert len(out_csv.read_text().splitlines()) == 1 + 11  # header + surviving rows


def test_simulate_alternating_constant_column(tmp_path, capsys):
    doc = {
        "version": 1,
        "system": {
            "kind": "discrete",
            "f": {"n": 1, "components": [[{"coeff": 2, "exp": [1]}]]},
            "delayed": [{"n": 1, "components": [[{"coeff": -1, "exp": [1]}]]}],
            "dilation": [1],
            "degree": 0,
        },
        "delay": {"family": "alternating_parity"},
        "initial_history": {"constant": [3]},
        "sim": {"horizon": 20},
    }
    out_csv = tmp_path / "alt.csv"
    code, _ = run_cli(capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "3" for row in rows)


def test_simulate_reports_skipped_bounds(tmp_path, capsys):
    out_csv = tmp_path / "growth.csv"
    code, doc = run_cli(
        capsys, "simulate", "--config", write(tmp_path, growth_config()), "--out", str(out_csv)
    )
    assert code == 0
    assert "Metzler" in doc["bounds_skipped"]
    assert "envelope" not in doc


def test_simulate_discrete_eta_envelope_holds(tmp_path, capsys):
    out_csv = tmp_path / "discrete.csv"
    code, out = run_cli(
        capsys, "simulate", "--config", write(tmp_path, discrete_config()), "--out", str(out_csv)
    )
    assert code == 0
    assert out["bound"]["form"] == "exponential"
    # V(phi) e**(-eta k) is an upper solution, so M = V(phi) = 1/2
    assert out["envelope"] == {"M_fit": 0.5, "M_theory": 0.5, "holds": True}


def test_simulate_theory_constant_from_table_history(tmp_path, capsys):
    doc = scalar_config()
    # the delay reaches back to -1, where the table interpolates to 8/3;
    # the larger values before -1 are never read
    doc["initial_history"] = {"table": {
        "times": [-3, -2, -0.5, 0], "states": [[5], [4], [2], [1]],
    }}
    out_csv = tmp_path / "table.csv"
    code, out = run_cli(capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(out_csv))
    assert code == 0
    assert out["envelope"]["M_theory"] == pytest.approx(8.0 / 3.0)
    assert out["envelope"]["holds"] is True
    # the level-set ladder starts at V(phi) = 8/3 too; V(x(t)) peaks at
    # 1.06 (t = 0.41), below 8/3 * 0.9**m for m <= 8, so those sublevel
    # sets hold from t = 0
    entries = out["level_set_entries"]
    v_max = max(float(row.split(",")[2]) for row in out_csv.read_text().splitlines()[1:])
    assert entries[:9] == [0.0] * 9
    assert entries[9] > 0.0
    for m, t in enumerate(entries):
        assert (t == 0.0) == ((8.0 / 3.0) * 0.9 ** m >= v_max)


def test_simulate_discrete_level_sets_read_the_history_window(tmp_path, capsys):
    # x(k+1) = 0.3 x(k) + 0.2 x(k - 2) reads the table back to k = -2, so
    # V(phi) = 5; the 9 at k = -3 is never read
    doc = {
        "version": 1,
        "system": {
            "kind": "discrete",
            "f": {"n": 1, "components": [[{"coeff": 0.3, "exp": [1]}]]},
            "delayed": [{"n": 1, "components": [[{"coeff": 0.2, "exp": [1]}]]}],
            "dilation": [1],
            "degree": 0,
        },
        "delay": {"family": "constant_steps", "d": 2},
        "initial_history": {"table": {
            "times": [-3, -2, -1, 0], "states": [[9], [5], [4], [1]],
        }},
        "sim": {"horizon": 30},
        "analysis": {"v": [1], "bounds": ["xi"]},
    }
    out_csv = tmp_path / "levels.csv"
    code, out = run_cli(capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(out_csv))
    assert code == 0
    entries = out["level_set_entries"]
    v_max = max(float(row.split(",")[2]) for row in out_csv.read_text().splitlines()[1:])
    assert entries[0] == 0.0
    for m, t in enumerate(entries):
        assert (t == 0.0) == (5.0 * 0.9 ** m >= v_max)


@pytest.mark.parametrize("horizon", [2, 5, 20])
def test_simulate_xi_envelope_holds_at_every_horizon(tmp_path, capsys, horizon):
    # x' = -x + 0.5 x(t/2): the upper solution V(phi) (t+1)**(-e) covers
    # every horizon, shorter ones included
    doc = scalar_config()
    doc["delay"] = {"family": "proportional", "alpha": 0.5}
    doc["sim"]["horizon"] = horizon
    doc["analysis"]["bounds"] = ["xi"]
    out_csv = tmp_path / "xi.csv"
    code, out = run_cli(capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(out_csv))
    assert code == 0
    assert out["envelope"]["holds"] is True
    assert out["envelope"]["M_theory"] == 1.0
    assert out["envelope"]["M_fit"] == 1.0
    assert out["bound"]["form"] == "power_rate"
    # the clock (t/s + 1)**e it was checked against, s = 1 for this delay
    clock = out["envelope"]["clock"]
    assert clock["form"] == "polynomial_reciprocal"
    assert clock["rate"] == 1.0
    assert clock["poly_exponent"] == pytest.approx(0.358814, abs=1e-6)


def test_simulate_exponential_clock_past_the_float_range(tmp_path, capsys):
    # exp(eta t) overflows after t = 709.78/eta = 2254; RK4 at h = 1 decays
    # more slowly than eta, so W exp(eta t), taken in log space, passes M = 1
    doc = scalar_config()
    doc["sim"] = {"h": 1, "horizon": 2400}
    out_csv = tmp_path / "long.csv"
    code, out = run_cli(capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(out_csv))
    assert code == 2
    env = out["envelope"]
    assert env["holds"] is False
    assert 1.0 < env["M_fit"] < 1e6
    assert "clock" not in env
    rows = [[float(c) for c in row.split(",")] for row in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 2401
    assert all(math.isfinite(c) for row in rows for c in row)
    eta = out["bound"]["rate"]
    for t, *_, bound in rows:
        assert (bound == 0.0) == (eta * t > 709.78)


def test_simulate_infinite_rate_writes_no_bound_column(tmp_path, capsys):
    # xi under a bounded delay, whose ratio is 0, is infinite
    doc = scalar_config()
    doc["analysis"]["bounds"] = ["xi"]
    out_csv = tmp_path / "xi0.csv"
    code, out = run_cli(capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(out_csv))
    assert code == 0
    assert out["bound"]["rate"] == "inf"
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x_1,V"
    assert all(math.isfinite(float(c)) for row in lines[1:] for c in row.split(","))


def test_simulate_checks_the_zero_map(tmp_path, capsys):
    # x(k+1) = 0: eta is inf, every state is 0 from k = 1, and the envelope
    # W(0) <= M = V(phi), W(k) = 0 after is checked, not skipped
    doc = {
        "version": 1,
        "system": {"kind": "discrete", "f": {"n": 1, "components": [[]]},
                   "delayed": [{"n": 1, "components": [[]]}], "dilation": [1.0], "degree": 0.0},
        "delay": {"family": "constant_steps", "d": 2},
        "initial_history": {"constant": [1.0]},
        "sim": {"horizon": 30},
        "analysis": {"v": [1.0]},
    }
    out_csv = tmp_path / "zero.csv"
    code, out = run_cli(capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(out_csv))
    assert code == 0
    assert "envelope_skipped" not in out
    assert out["bound"]["rate"] == "inf"
    assert out["envelope"] == {"M_fit": 1.0, "M_theory": 1.0, "holds": True}
    assert out_csv.read_text().splitlines()[0] == "t,x_1,V"


def test_xi_without_a_delay_ratio_is_skipped(tmp_path, capsys):
    # log_lag is neither bounded nor proportional, so it has no ratio and
    # xi does not apply: simulate skips it, and bounds refuses the request
    doc = scalar_config()
    doc["delay"] = {"family": "log_lag"}
    doc["analysis"]["bounds"] = ["xi"]
    cfg = write(tmp_path, doc)
    out_csv = tmp_path / "loglag.csv"
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out_csv))
    assert code == 0
    assert out["bounds_skipped"] == "xi bound needs a proportional delay ratio"
    assert "bound" not in out and "envelope" not in out
    assert out_csv.read_text().splitlines()[0] == "t,x_1,V"
    assert main(["bounds", "--config", cfg]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "xi bound needs a proportional delay ratio" in captured.err


def test_simulate_rejects_history_outside_orthant(tmp_path, capsys):
    doc = scalar_config()
    doc["initial_history"] = {"table": {"times": [-1, 0], "states": [[-0.1], [1]]}}
    code, out = run_cli(
        capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(tmp_path / "neg.csv")
    )
    assert code == 64
    assert out is None
    assert not (tmp_path / "neg.csv").exists()


@pytest.mark.parametrize("argv", [["--h", "1e-300"], ["--h", "5e-324"], ["--horizon", "1e9"]],
                         ids=["h-tiny", "h-subnormal", "horizon-huge"])
def test_a_step_count_whose_states_cannot_be_allocated_exits_64(tmp_path, capsys, monkeypatch, argv):
    # 1e11 steps (1.46 TiB of states) is made to fail here, as it would on
    # most machines, so that nothing is allocated and no step is taken
    empty = np.empty

    def refuse(shape, *args, **kwargs):
        if shape == (10**11 + 1, 2):
            raise MemoryError("Unable to allocate 1.46 TiB")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse)
    out_csv = tmp_path / "x.csv"
    code = main(["simulate", "--config", write(tmp_path, cubic_config()), *argv, "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "cannot be allocated" in captured.err
    assert "sim.h = " in captured.err and "sim.horizon = " in captured.err
    assert not out_csv.exists()


def test_check_certify_and_bounds_never_load_the_csv_kernel(tmp_path, capsys, monkeypatch):
    from delaycert import native

    cfg = write(tmp_path, cubic_config(sim={"h": 0.01, "horizon": 1}))
    cache, loads, load = tmp_path / "cache", [], native.load
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(native, "load", lambda source: loads.append(source) or load(source))
    simulate_mod._csv_kernel.cache_clear()
    for cmd in ("check", "certify", "bounds"):
        assert main([cmd, "--config", cfg]) == 0
        assert simulate_mod._csv_kernel.cache_info().currsize == 0, cmd
        assert loads == [] and not cache.exists(), cmd
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
    capsys.readouterr()
    assert simulate_mod._csv_kernel.cache_info().currsize == 1
    simulate_mod._csv_kernel.cache_clear()
    # the RK4 kernel and the CSV writer load one fixed source
    assert len(loads) == 2 and len(set(loads)) == 1
    if native._compiler() is not None:
        assert [f.suffix for f in (cache / "delaycert").iterdir()] == [".so"]


def test_cli_overrides(tmp_path, capsys):
    cfg = write(tmp_path, cubic_config())
    out_csv = tmp_path / "short.csv"
    code, doc = run_cli(
        capsys, "simulate", "--config", cfg, "--out", str(out_csv), "--horizon", "1", "--h", "0.1"
    )
    assert code == 0
    assert doc["samples"] == 11


def test_simulate_with_an_invalid_certificate_skips_the_bounds(tmp_path, capsys):
    doc = scalar_config()
    doc["system"]["delayed"][0]["components"][0][0]["coeff"] = 1.5  # margin 0.5 at v = 1
    out_csv = tmp_path / "invalid.csv"
    code, out = run_cli(capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(out_csv))
    assert code == 0
    assert out["bounds_skipped"] == "certificate is not valid"
    assert "bound" not in out and "envelope" not in out
    assert out_csv.read_text().splitlines()[0] == "t,x_1,V"


# -- batch ---------------------------------------------------------------------

def test_batch_runs_multiple_configs(tmp_path, capsys):
    c1 = write(tmp_path, cubic_config(sim={"h": 0.01, "horizon": 2}), "one.json")
    c2 = write(tmp_path, cubic_config(sim={"h": 0.01, "horizon": 3}), "two.json")
    out_dir = tmp_path / "out"
    code = main(["batch", c1, c2, "--out", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "one.csv").exists() and (out_dir / "two.csv").exists()


def test_batch_keeps_going_after_an_unusable_config(tmp_path, capsys):
    # the history table lacks k = -2, which the delay d = 2 reads: the
    # config parses, and the simulator rejects it
    bad_doc = discrete_config()
    bad_doc["initial_history"] = {"table": {"times": [-1, 0], "states": [[1], [1]]}}
    bad = write(tmp_path, bad_doc, "bad.json")
    good = write(tmp_path, discrete_config(), "good.json")
    out_dir = tmp_path / "out"
    code = main(["batch", bad, good, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.err.startswith(f"error: {bad}: ")
    assert "k=-2" in captured.err
    assert (out_dir / "good.csv").exists()
    assert not (out_dir / "bad.csv").exists()


@pytest.mark.parametrize("compiler", [True, False], ids=["compiler", "no-compiler"])
def test_batch_writes_what_simulate_writes_one_config_at_a_time(tmp_path, capsys, monkeypatch, compiler):
    if not compiler:  # no kernel can be built: every run is Python, under one lock
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        simulate_mod._csv_kernel.cache_clear()
    unusable = {**scalar_config(), "extra": 1}
    docs = {
        "a": cubic_config(sim={"h": 0.01, "horizon": 3}),
        "b": cubic_config(sim={"h": 0.01, "horizon": 4}, delay={"family": "constant", "tau": 0.5}),
        "c": unusable,
        "d": _blow_up_config(),
        "e": scalar_config(),
        "f": discrete_config(),
    }
    paths = [write(tmp_path, doc, f"{stem}.json") for stem, doc in docs.items()]
    out_dir = tmp_path / "out"
    code = main(["batch", *paths, "--out", str(out_dir)])
    batch = capsys.readouterr()
    csvs = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    for p in out_dir.iterdir():
        p.unlink()

    codes, out, err = [], "", ""
    for path in paths:
        codes.append(main(["simulate", "--config", path, "--out", str(out_dir / (Path(path).stem + ".csv"))]))
        one = capsys.readouterr()
        out += one.out
        err += one.err.replace("error: ", f"error: {path}: ", 1)
    simulate_mod._csv_kernel.cache_clear()
    assert codes == [0, 0, 64, 2, 0, 0]
    assert (code, batch.out, batch.err) == (max(codes), out, err)
    assert csvs == {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(csvs) == ["a.csv", "b.csv", "d.csv", "e.csv", "f.csv"]
    if not compiler:
        assert not (tmp_path / "cache").exists()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable core")
def test_batch_overlaps_two_continuous_runs_in_their_c_calls(tmp_path, capsys, monkeypatch):
    from delaycert import native

    if native.load(simulate_mod._SOURCE) is None:
        pytest.skip("no C compiler: no C call to overlap in")
    both, met, call = threading.Barrier(2, timeout=10), set(), native.call

    def first_call_meets(fn, *args):
        def c(*a):
            if threading.get_ident() not in met:  # each run's first C call
                met.add(threading.get_ident())
                both.wait()  # breaks, and raises, unless the other run is in one too
            return fn(*a)

        return call(c, *args)

    monkeypatch.setattr(native, "call", first_call_meets)
    paths = [write(tmp_path, cubic_config(sim={"h": 0.01, "horizon": 1}), f"{k}.json") for k in range(2)]
    assert main(["batch", *paths, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(met) == 2


def test_batch_evaluates_no_field_while_a_run_integrates(tmp_path, capsys, monkeypatch):
    # every certificate and bound is worked out before the first run starts
    from delaycert import cli
    from delaycert.model import PolyVectorField

    integrating, during, evaluate, integrate = [0], [], PolyVectorField.evaluate, cli.simulate_continuous

    def counted(*args):
        integrating[0] += 1
        try:
            return integrate(*args)
        finally:
            integrating[0] -= 1

    def watched(self, x):
        during.append(integrating[0])
        return evaluate(self, x)

    monkeypatch.setattr(cli, "simulate_continuous", counted)
    monkeypatch.setattr(PolyVectorField, "evaluate", watched)
    paths = [write(tmp_path, cubic_config(sim={"h": 0.01, "horizon": 2}), f"{k}.json") for k in range(4)]
    assert main(["batch", *paths, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert during and not any(during)


def test_batch_runs_configs_of_one_file_name_in_input_order(tmp_path, capsys):
    # a/run.json and b/run.json both write out/run.csv: the later one's CSV stays
    docs = [cubic_config(sim={"h": 0.01, "horizon": 20}), cubic_config(sim={"h": 0.02, "horizon": 30})]
    paths = []
    for d, doc in zip("ab", docs):
        (tmp_path / d).mkdir()
        paths.append(write(tmp_path / d, doc, "run.json"))
    out_dir = tmp_path / "out"
    for _ in range(3):
        assert main(["batch", *paths, "--out", str(out_dir)]) == 0
        batch = capsys.readouterr().out
        assert [p.name for p in out_dir.iterdir()] == ["run.csv"]
        csv = (out_dir / "run.csv").read_bytes()
        out = ""
        for path in paths:
            assert main(["simulate", "--config", path, "--out", str(tmp_path / "one.csv")]) == 0
            out += capsys.readouterr().out
        assert batch == out.replace(str(tmp_path / "one.csv"), str(out_dir / "run.csv"))
        assert csv == (tmp_path / "one.csv").read_bytes()


def test_batch_never_runs_the_python_of_two_discrete_runs_at_once(tmp_path, capsys, monkeypatch):
    # discrete runs step in C, where they overlap; each plan block is
    # Python, which runs under the batch lock, one run at a time
    running, most, plan = [0], [0], simulate_mod._map_plan

    def counted(*args):
        running[0] += 1
        most[0] = max(most[0], running[0])
        time.sleep(0.02)  # time for another run's Python to start, were it allowed to
        try:
            return plan(*args)
        finally:
            running[0] -= 1

    monkeypatch.setattr(simulate_mod, "_map_plan", counted)
    docs = [discrete_config() for _ in range(3)]
    docs[1]["delay"] = {"family": "alternating_parity"}
    docs[2]["delay"] = {"family": "proportional_steps", "alpha": 0.5}
    for doc in docs:
        doc["sim"]["horizon"] = 3000
    paths = [write(tmp_path, doc, f"{k}.json") for k, doc in enumerate(docs)]
    out_dir = tmp_path / "out"
    code = main(["batch", *paths, "--out", str(out_dir)])
    batch = capsys.readouterr().out
    assert most[0] == 1
    # the batch is simulate run on one config after another
    one, out, codes = tmp_path / "one.csv", "", []
    for k, path in enumerate(paths):
        codes.append(main(["simulate", "--config", path, "--out", str(one)]))
        out += capsys.readouterr().out.replace(str(one), str(out_dir / f"{k}.csv"))
        assert one.read_bytes() == (out_dir / f"{k}.csv").read_bytes()
    assert (batch, code) == (out, max(codes))


def test_a_discrete_horizon_whose_states_cannot_be_allocated_exits_64_at_once(tmp_path):
    # 1e15 steps: the store is asked for before the first step, so the run
    # ends at once instead of iterating until memory runs out
    doc = discrete_config()
    doc["sim"]["horizon"] = 1e15
    proc = subprocess.run(
        [sys.executable, "-m", "delaycert", "simulate", "--config", write(tmp_path, doc),
         "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "cannot be allocated" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_importing_the_cli_loads_none_of_the_slow_modules():
    # each is imported where it is used, so start-up does not pay for it
    slow = ["concurrent.futures", "fractions", "subprocess", "hashlib", "decimal", "sysconfig"]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, delaycert.cli; print([m for m in {slow!r} if m in sys.modules])"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("stage", ["simulation", "analysis"])
def test_batch_raises_what_is_not_a_config_error_after_the_reports_before_it(tmp_path, capsys, monkeypatch, stage):
    from delaycert import cli

    if stage == "simulation":
        integrate = cli.simulate_continuous

        def fail_on_the_second(model, delays, phi, h, horizon):
            if horizon == 2:
                raise RuntimeError("not a config error")
            return integrate(model, delays, phi, h, horizon)

        monkeypatch.setattr(cli, "simulate_continuous", fail_on_the_second)
    else:
        analyse = cli._analyse

        def fail_on_the_second(cfg):
            if cfg.sim.horizon == 2:
                raise RuntimeError("not a config error")
            return analyse(cfg)

        monkeypatch.setattr(cli, "_analyse", fail_on_the_second)
    paths = [write(tmp_path, cubic_config(sim={"h": 0.01, "horizon": k}), f"{k}.json") for k in (1, 2, 3)]
    with pytest.raises(RuntimeError, match="not a config error"):
        main(["batch", *paths, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert out.count('"csv"') == 1 and '"samples": 101' in out  # the first config's report alone


@pytest.mark.parametrize("cmd, out", [
    ("simulate", lambda tmp_path: tmp_path / "missing" / "x.csv"),
    ("simulate", lambda tmp_path: tmp_path),
    ("batch", lambda tmp_path: Path(write(tmp_path, {}, "file"))),
], ids=["simulate-missing-dir", "simulate-directory", "batch-file"])
def test_an_unusable_out_exits_64_naming_it(tmp_path, capsys, cmd, out):
    cfg = write(tmp_path, scalar_config())
    args = [cfg] if cmd == "batch" else ["--config", cfg]
    code = main([cmd, *args, "--out", str(out(tmp_path))])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert "--out" in captured.err


def dense_linear_config(n):
    """x' = A x + B x(t - 1), dense: A has -n on its diagonal and 0.3 off
    it, B is 0.5 everywhere, so the all-ones vector has margins -0.2 n - 0.3."""
    def matrix(diag, off):
        return {"n": n, "components": [
            [{"coeff": diag if j == i else off, "exp": [int(k == j) for k in range(n)]} for j in range(n)]
            for i in range(n)
        ]}

    return {
        "version": 1,
        "system": {
            "kind": "continuous",
            "f": matrix(-float(n), 0.3),
            "delayed": [matrix(0.5, 0.5)],
            "dilation": [1] * n,
            "degree": 0,
        },
        "delay": {"family": "constant", "tau": 1},
        "initial_history": {"constant": [1] * n},
        "sim": {"h": 0.01, "horizon": 1},
    }


def test_one_shot_commands_on_a_linear_system_build_no_margin_evaluator(tmp_path, capsys, monkeypatch):
    # binding the margin evaluator costs more than a one-shot command's few
    # margin evaluations: only the nonlinear search builds one
    from delaycert import certify as certify_mod

    built = []
    monkeypatch.setattr(certify_mod, "_margin_evaluator", lambda model: built.append(model))
    cfg = write(tmp_path, dense_linear_config(50))
    for cmd in ("check", "certify", "bounds", "simulate"):
        out = ["--out", str(tmp_path / "x.csv")] if cmd == "simulate" else []
        code, _ = run_cli(capsys, cmd, "--config", cfg, *out)
        assert code == 0
    assert built == []
    code, _ = run_cli(capsys, "certify", "--config", write(tmp_path, cubic_config(analysis={})))
    assert code == 0 and len(built) == 1


# -- benchmark tracer ------------------------------------------------------------

def test_benchmark_tracer_wraps_current_names(tmp_path, capsys, monkeypatch):
    # the perfbench tracer wraps delaycert functions by name; a renamed or
    # dropped name breaks traced benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    cfg = write(tmp_path, scalar_config())
    traced = tracer.Tracer()
    with traced.installed():
        code, _ = run_cli(capsys, "bounds", "--config", cfg)
    assert code == 0
    metrics = traced.metrics()
    assert metrics["rates.bound_s"] > 0.0
    assert metrics["rates.solve_monotone_calls"] >= 1
    assert metrics["certify.verify_calls"] >= 1


# -- module entry point -----------------------------------------------------------

def test_python_dash_m_entry(tmp_path):
    cfg = write(tmp_path, cubic_config(sim={"h": 0.01, "horizon": 1}))
    proc = subprocess.run(
        [sys.executable, "-m", "delaycert", "check", "--config", cfg],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


def linear_config(kind, f, g, delay, bounds, v=None):
    """Degree zero, f x(t) + g x(t - tau(t)) with f and g given as rows."""
    n = len(f)

    def field(rows):
        return {"n": n, "components": [
            [{"coeff": c, "exp": [int(k == j) for k in range(n)]} for j, c in enumerate(row) if c] for row in rows
        ]}

    doc = {
        "version": 1,
        "system": {"kind": kind, "f": field(f), "delayed": [field(g)], "dilation": [1] * n, "degree": 0},
        "delay": delay,
        "initial_history": {"constant": [1] * n},
        "sim": {"h": 0.1, "horizon": 10} if kind == "continuous" else {"horizon": 30},
        "analysis": {"bounds": bounds},
    }
    if v is not None:
        doc["analysis"]["v"] = v
    return doc


@pytest.mark.parametrize("a", [1e5, 1e8])
def test_bounds_eta_with_large_coefficients(tmp_path, capsys, a):
    # near the root of -a + (a/2) exp(eta) + eta, the float spacing of the
    # left-hand side is wider than any absolute residual the solver could ask for
    doc = linear_config("continuous", [[-a]], [[a / 2]], {"family": "constant", "tau": 1}, ["eta"], v=[1])
    code, out = run_cli(capsys, "bounds", "--config", write(tmp_path, doc))
    assert code == 0
    (bound,) = out["bounds"]
    assert 0.69 < bound["rate"] < math.log(2.0)
    assert -a + a / 2 * math.exp(bound["rate"]) + bound["rate"] < 0.0


def test_simulate_power_clock_of_an_uncoupled_component_past_the_float_range(tmp_path, capsys):
    # x_2 has no delayed coupling; its sup ratio exp(ln(1001) e) overflows
    # long before its root 0.75 * 1001, which must not count against it
    doc = linear_config("continuous", [[-2, 0], [0.5, -1]], [[0.5, 0], [0, 0]],
                        {"family": "constant", "tau": 1000}, ["xi"])
    code, out = run_cli(capsys, "simulate", "--config", write(tmp_path, doc), "--out", str(tmp_path / "run.csv"))
    assert code == 0
    assert out["envelope"]["holds"]
    assert out["envelope"]["clock"]["component_rates"][1] == pytest.approx(750.75, rel=1e-12)


def test_bounds_discrete_eta_of_an_uncoupled_component_past_the_float_range(tmp_path, capsys):
    # component 2 has R2 = exp(101 eta) past the float range at its root
    # ln(1e4), and no delayed coupling to charge it to
    doc = linear_config("discrete", [[0.3, 0], [0, 1e-4]], [[0.2, 0], [0, 0]],
                        {"family": "constant_steps", "d": 100}, ["eta"])
    cfg = write(tmp_path, doc)
    code, out = run_cli(capsys, "bounds", "--config", cfg)
    assert code == 0
    assert out["bounds"][0]["component_rates"][1] == pytest.approx(math.log(1e4), rel=1e-9)
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "run.csv"))
    assert code == 0
    assert out["envelope"]["holds"]
