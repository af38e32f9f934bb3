import argparse
import csv
import gc
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rispaces import dichotomy, experiments, lorentz_operator_norm, power
from rispaces import cli
from rispaces.cli import _CAPS, main
from conftest import run_main


def test_norm_indicator_anchor():
    code, out, err = run_main("norm", "--space", "lorentz:power:0.5", "--indicator", "0.25")
    assert code == 0
    assert out == "0.5\n"
    assert err == ""


def test_norm_rational_indicator():
    code, out, _ = run_main("norm", "--space", "lpq:2:1", "--indicator", "1/4")
    assert code == 0
    assert float(out) == pytest.approx(0.5, rel=1e-12)


def test_norm_step_file(tmp_path):
    p = tmp_path / "step.json"
    p.write_text(json.dumps({"breakpoints": [0.0, 0.25, 1.0], "values": [3.0, 0.0]}))
    code, out, _ = run_main("norm", "--space", "lorentz:power:1", "--step", str(p))
    assert code == 0
    assert float(out) == pytest.approx(0.75, rel=1e-12)


def test_norm_step_keeps_a_value_one_ulp_apart(tmp_path):
    # 1 + 2^-52 on a piece of measure 2e-316 used to absorb the 1.0 that follows it
    p = tmp_path / "step.json"
    p.write_text(json.dumps({"breakpoints": [0, 1e-300, 1.0000000000000002e-300, 1],
                             "values": [2.0, 1.0000000000000002, 1.0]}))
    code, out, _ = run_main("norm", "--space", "lorentz:power:0.5", "--step", str(p))
    assert (code, out) == (0, "1.0\n")


@pytest.mark.parametrize("space", ["lorentz:power:0.5", "marcinkiewicz:logpow:2",
                                   "orlicz:np:2", "lpq:2:1"])
def test_norm_step_with_rational_ends_that_round_backward_is_finite(tmp_path, space):
    # log((10^16 + 1) / 10^316) rounds 1.1e-13 below log(1 / 10^300): the middle
    # layer used to make lpq and marcinkiewicz print nan and orlicz give up
    p = tmp_path / "step.json"
    p.write_text(json.dumps({"breakpoints": ["0", f"1/{10**300}", f"{10**16 + 1}/{10**316}", "1"],
                             "values": [3, 2, 1]}))
    code, out, err = run_main("norm", "--space", space, "--step", str(p))
    assert (code, err) == (0, "")
    assert math.isfinite(float(out))


def test_norm_requires_exactly_one_input():
    assert run_main("norm", "--space", "lorentz:power:1") == (
        2, "", "rispaces norm: error: one of the arguments --indicator --step is required\n")
    assert run_main(
        "norm", "--space", "lorentz:power:1", "--indicator", "0.5", "--step", "x.json"
    ) == (2, "", "rispaces norm: error: argument --step: not allowed with argument --indicator\n")


def test_norm_json_format():
    code, out, _ = run_main(
        "norm", "--space", "lorentz:power:0.5", "--indicator", "0.25",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] == 0.5
    assert payload["space"] == "lorentz:power:0.5"


def test_opnorm_matches_library():
    code, out, _ = run_main("opnorm", "--psi", "power:0.5", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["opnorm"] == pytest.approx(lorentz_operator_norm(power(0.5), 2), rel=1e-12)
    assert payload["opnorm"] == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-9)


def test_classify_linear_generator():
    code, out, _ = run_main("classify", "--psi", "power:1")
    assert code == 0
    assert "branch: NormEqualsN" in out
    assert "first condition" in out


def test_classify_slowly_varying_generator():
    code, out, _ = run_main("classify", "--psi", "example7")
    assert code == 0
    assert "branch: PowerBound" in out
    assert "witness n0 = 2" in out


def test_classify_json_reparses_into_report():
    code, out, _ = run_main("classify", "--psi", "power:0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "PowerBound"
    assert payload["q"] == pytest.approx(0.7075187496394222, abs=1e-9)


def test_classify_json_shape():
    code, out, _ = run_main(
        "classify", "--psi", "power:0.5", "--n-list", "16", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)  # keeps the key order of the text
    # integer keys are strings and sort as strings: "16" comes before "2"
    assert list(payload["opnorms"]) == sorted(str(n) for n in range(1, 17))
    for est in (*payload["a_estimates"].values(), *payload["c_estimates"].values()):
        assert set(est) == {"value", "grid_min", "window", "converged", "j_max"}


def test_classify_json_holds_the_series_probe_only_with_its_flag():
    # "kruglov" is always a key: null without --with-kruglov, the probe's verdict with it
    argv = ("classify", "--psi", "power:0.5", "--format", "json")
    (code, out, _), (kcode, kout, _) = run_main(*argv), run_main(*argv, "--with-kruglov")
    assert code == kcode == 0
    plain, probed = json.loads(out), json.loads(kout)
    assert plain.pop("kruglov") is None
    assert set(probed.pop("kruglov")) == {"finite", "sup_value", "N_used", "t_argmax",
                                          "inconclusive"}
    assert plain == probed


def test_classify_shallow_grid_is_inconclusive():
    # the slowly varying generator does not settle within 60 octaves
    code, out, _ = run_main("classify", "--psi", "example7", "--j-max", "60")
    assert code == 1
    assert "NOT converged" in out


def test_classify_grid_too_short_for_two_windows_exits_two():
    # at j_max = 20 the a(3) grid starts at j = 2, one point short of two windows of 10
    assert run_main("classify", "--psi", "power:0.5", "--j-max", "20") == (
        2, "", "error: j_max = 20 leaves 19 grid points; a limit estimate needs 20\n")
    assert run_main("classify", "--psi", "power:0.5", "--j-max", "21")[0] in (0, 1)


def _refused_before_any_work(monkeypatch, option, value):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed with an unknown option")

    for name in ("parse_generator", "classify", "kruglov_check"):
        monkeypatch.setattr(cli, name, no_compute)
    assert run_main("classify", "--psi", "power:0.5", option, value) == (
        2, "", f"rispaces: error: unrecognized arguments: {option} {value}\n")


def test_classify_has_no_window_option(monkeypatch):
    # the window is the estimators' constant, so the option is refused before any work
    _refused_before_any_work(monkeypatch, "--window", "10")


def test_classify_has_no_probe_or_margin_options(monkeypatch):
    # the factors k, the powers l and the margin are the decision rule's constants
    for option, value in (("--k-list", "2,3"), ("--l-list", "2"), ("--margin", "0.01")):
        _refused_before_any_work(monkeypatch, option, value)


def test_kruglov_finite():
    code, out, _ = run_main("kruglov", "--psi", "power:1", "--t-grid", "1,0.5,0.1")
    assert code == 0
    assert "finite" in out
    payload_code, jout, _ = run_main(
        "kruglov", "--psi", "power:1", "--t-grid", "1,0.5,0.1", "--format", "json"
    )
    assert json.loads(jout)["sup_value"] == pytest.approx(math.e - 1.0, abs=1e-6)


def test_kruglov_divergent():
    code, out, _ = run_main("kruglov", "--psi", "example7", "--t-grid", "0.01")
    assert code == 0
    assert "divergent" in out
    code, out, _ = run_main(
        "kruglov", "--psi", "example7", "--t-grid", "0.01", "--format", "json"
    )
    assert code == 0
    assert '"sup_value": "inf"' in out


def test_kruglov_inconclusive():
    # N = 8 terms of sum 1/n!: the N/4 sum 1.5 and the N sum 1.71827877 differ by > 1e-6
    code, out, _ = run_main(
        "kruglov", "--psi", "power:1", "--t-grid", "1", "--max-terms", "8",
        "--threshold", "1e9",
    )
    assert code == 1
    assert "INCONCLUSIVE" in out


def test_growth_exact_csv():
    code, out, _ = run_main(
        "growth", "--space", "marcinkiewicz:logpow:2",
        "--ns", "16,32,64,128", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value", "fit_q", "fit_C", "residual"]
    assert [r[0] for r in rows[1:]] == ["16", "32", "64", "128"]
    assert len({r[2] for r in rows[1:]}) == 1  # one fit, repeated per row


def test_growth_exact_reads_no_sampler(tmp_path):
    # exact mode prices the walk law, so a sampler it would never draw from is not
    # named in its report, and a sampler file it would never read is not opened
    argv = ("growth", "--space", "lpq:2:1", "--ns", "16,32,64,128", "--format", "json")
    code, out, _ = run_main(*argv)
    assert code == 0 and json.loads(out)["sampler"] is None
    assert run_main(*argv, "--sampler", "gauss") == (0, out, "")
    missing = tmp_path / "missing.csv"
    assert run_main(*argv, "--sampler", f"custom:{missing}") == (0, out, "")


def test_growth_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.args"
    cfg.write_text(
        "# growth experiment\n"
        "--space=lpq:1.5:1.2\n"
        "--sampler=signed:0.5\n"
        "--ns=16,32,64,128\n"
        "--mode=mc\n"
        "--trials=2000\n"
        "--m=256\n"
        "--seed=9\n"
    )
    code, out, _ = run_main("growth", f"@{cfg}", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 9
    assert [p[0] for p in payload["pairs"]] == [16, 32, 64, 128]
    assert all(isinstance(p, list) and len(p) == 2 and isinstance(p[1], float)
               for p in payload["pairs"])
    # the later argument wins, so a flag overrides the file only after it
    code2, out2, _ = run_main(
        "growth", f"@{cfg}", "--seed", "11", "--format", "json"
    )
    assert json.loads(out2)["seed"] == 11
    assert json.loads(out2)["pairs"] != payload["pairs"]


def test_config_parsing_errors(tmp_path):
    # a line is one argument, so a line that is not an option is left unrecognized
    bad = tmp_path / "bad.args"
    bad.write_text("space lorentz:power:1\n")
    argv = ("growth", "--space", "lorentz:power:1", "--ns", "16,32,64,128", f"@{bad}")
    assert run_main(*argv) == (
        2, "", "rispaces: error: unrecognized arguments: space lorentz:power:1\n")


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "exp.args"
    cfg.write_text("--trails=500\n")
    code, out, err = run_main("mc", f"@{cfg}", "--space", "lorentz:power:1",
                             "--sampler", "rademacher", "--n", "4")
    assert (code, out) == (2, "")
    assert err == "rispaces: error: unrecognized arguments: --trails=500\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (("--space", "lpq:2:1", "--n", "4,8,16,64"),
         "rispaces growth: error: the following arguments are required: --ns\n"),
        (("--space", "lpq:2:1", "--ns", "4,8,16,64", "--tri", "5"),
         "rispaces: error: unrecognized arguments: --tri 5\n"),
        (("@{mc}",), "rispaces growth: error: the following arguments are required: --ns\n"),
        (("@{mc}", "--ns", "16,32,64,128"), "rispaces: error: unrecognized arguments: --n=64\n"),
    ],
    ids=["n-for-ns", "tri-for-trials", "mc-file", "mc-file-with-ns"],
)
def test_option_prefixes_are_not_options(monkeypatch, tmp_path, argv, err):
    # a prefix of an option would run a different experiment, so it is no option
    def no_compute(*args, **kwargs):
        raise AssertionError("ran an experiment on a prefix of an option")

    monkeypatch.setattr(cli, "growth_table", no_compute)
    mc = tmp_path / "mc.args"
    mc.write_text("--space=lpq:2:1\n--sampler=rademacher\n--n=64\n--trials=1000\n--m=256\n")
    assert run_main("growth", *(a.format(mc=mc) for a in argv)) == (2, "", err)


def test_argument_file_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "exp.args"
    cfg.write_text("\n# the size\n  --n=4  \n\n   # the trials\n--trials=1000\n\n")
    assert run_main(*_MC_ARGS[:-6], "--m", "256", f"@{cfg}") == run_main(
        *_MC_ARGS)


def test_missing_argument_file_exits_two(tmp_path):
    missing = tmp_path / "missing.args"
    code, out, err = run_main(*_MC_ARGS, f"@{missing}")
    assert (code, out) == (2, "")
    assert err.startswith("rispaces: error:") and err.count("\n") == 1
    assert str(missing) in err


def test_argument_file_naming_itself_exits_two(tmp_path):
    # argparse reads an @ line of a file as a file in turn, so a file that
    # names itself would recurse until RecursionError
    cfg = tmp_path / "self.args"
    cfg.write_text(f"--trials=1000\n@{cfg}\n")
    assert run_main(*_MC_ARGS, f"@{cfg}") == (
        2, "", f"rispaces: error: an argument file cannot name another argument file: @{cfg}\n")


def test_argument_file_that_is_not_utf8_exits_two(tmp_path):
    # argparse's reader turns only an OSError into a usage error
    bad = tmp_path / "bad.args"
    bad.write_bytes(b"\xff\xfe--space=lpq:2:1\n")
    assert run_main("norm", f"@{bad}", "--indicator", "1/4") == (
        2, "", f"rispaces: error: cannot decode argument file {str(bad)!r}: 'utf-8' codec "
        "can't decode byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize(
    "argv, config, err",
    [
        (("mc", "--space", "lpq:2:1", "--sampler", "rademacher", "--n", "4"), "--trials=1e5\n",
         "rispaces mc: error: argument --trials: invalid int value: '1e5'\n"),
        (("growth", "--space", "lpq:2:1"), "--ns=16,32,x\n",
         "rispaces growth: error: argument --ns: expected comma-separated integers, "
         "got '16,32,x'\n"),
        (("growth", "--space", "lpq:2:1", "--ns", "16,32,64,128"), "--mode=frob\n",
         "rispaces growth: error: argument --mode: invalid choice: 'frob' "
         "(choose from 'exact', 'mc')\n"),
    ],
    ids=["mc-trials", "growth-ns", "growth-mode"],
)
def test_bad_config_value_names_its_option(tmp_path, argv, config, err):
    cfg = tmp_path / "exp.args"
    cfg.write_text(config)
    assert run_main(*argv, f"@{cfg}") == (2, "", err)


def test_bad_list_flags_name_no_private_function():
    assert run_main("classify", "--psi", "power:0.5", "--n-list", "2,x") == (
        2, "", "rispaces classify: error: argument --n-list: expected comma-separated "
        "integers, got '2,x'\n")
    assert run_main("kruglov", "--psi", "power:0.5", "--t-grid", "0.5,y") == (
        2, "", "rispaces kruglov: error: argument --t-grid: expected comma-separated "
        "floats, got '0.5,y'\n")


# a value off its option's default for each growth/mc option
_EXPERIMENT_VALUES = {"space": "lpq:2:1", "sampler": "gauss", "ns": "4,8,16", "n": "8",
                      "mode": "mc", "trials": "1000", "m": "256", "seed": "5",
                      "burn_in": "1", "format": "json", "out": "report.json"}


def test_every_experiment_option_has_a_config_key(tmp_path):
    # each growth/mc option read from an @file line parses to the value its flag gives
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name in ("growth", "mc"):
        options = {a.dest: a for a in sub.choices[name]._actions if a.dest != "help"}
        lines = [f"{a.option_strings[0]}={_EXPERIMENT_VALUES[dest]}"
                 for dest, a in options.items()]
        cfg = tmp_path / f"{name}.args"
        cfg.write_text("\n".join(lines) + "\n")
        from_flags = cli._build_parser().parse_args([name, *lines])
        from_file = cli._build_parser().parse_args([name, f"@{cfg}"])
        assert vars(from_file) == vars(from_flags)
        assert all(getattr(from_file, dest) != a.default for dest, a in options.items())


def test_cli_defaults_are_the_library_defaults():
    # the parser restates these defaults; each must stay the one its library call has
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))

    def library(fn, param):
        return inspect.signature(fn).parameters[param].default

    for command, dest, fn, param in [
        ("opnorm", "j_max", dichotomy.sup_indicator_ratio, "j_max"),
        *(("classify", d, dichotomy.classify, d)
          for d in ("n_list", "j_max")),
        ("kruglov", "max_terms", dichotomy.kruglov_check, "num_terms"),
        ("kruglov", "threshold", dichotomy.kruglov_check, "threshold"),
        *(("mc", d, experiments.mc_iid_sum_norm, d) for d in ("trials", "m")),
        *(("growth", d, experiments.growth_table, d) for d in ("trials", "m", "burn_in", "mode")),
        ("growth", "burn_in", experiments.fit_growth, "burn_in"),
        ("kruglov", "t_grid", dichotomy.kruglov_check, "t_grid"),
        *((command, "seed", experiments.SamplerSpec, "seed") for command in ("mc", "growth")),
    ]:
        default = sub.choices[command].get_default(dest)
        default = tuple(default) if isinstance(default, list) else default
        assert default == library(fn, param), (command, dest)
    code, out, _ = run_main("classify", "--psi", "power:0.5", "--with-kruglov")
    threshold = library(dichotomy.kruglov_check, "threshold")
    assert code == 0 and f"threshold {float(threshold)!r}]" in out


_MC = ("mc", "--space", "lorentz:power:1", "--sampler", "rademacher")
_GROWTH = ("growth", "--space", "lpq:2:1")
_GROWTH_MC = (*_GROWTH, "--mode", "mc", "--sampler", "rademacher")
# every size cap, by each command that reads it: the arguments before the capped
# option, the option, its value (with the value past the cap for "{}") and its key
_CAPPED = {
    "mc-n": (_MC, "--n", "{}", "n"),
    "mc-trials": ((*_MC, "--n", "4"), "--trials", "{}", "trials"),
    "mc-m": ((*_MC, "--n", "4"), "--m", "{}", "m"),
    "opnorm-n": (("opnorm", "--psi", "power:0.5"), "--n", "{}", "n"),
    "classify-n-list": (("classify", "--psi", "power:0.5"), "--n-list", "2,4,{}", "n_list"),
    "classify-j-max": (("classify", "--psi", "power:0.5"), "--j-max", "{}", "j_max"),
    "kruglov-max-terms": (("kruglov", "--psi", "power:1"), "--max-terms", "{}", "max_terms"),
    "growth-exact-ns": (_GROWTH, "--ns", "4,16,{}", "ns"),
    "growth-ns": (_GROWTH_MC, "--ns", "16,32,64,{}", "ns"),
    "growth-trials": ((*_GROWTH_MC, "--ns", "16,32,64,128"), "--trials", "{}", "trials"),
    "growth-m": ((*_GROWTH_MC, "--ns", "16,32,64,128"), "--m", "{}", "m"),
    "growth-exact-trials": ((*_GROWTH, "--ns", "16,32,64,128"), "--trials", "{}", "trials"),
    "growth-exact-m": ((*_GROWTH, "--ns", "16,32,64,128"), "--m", "{}", "m"),
}


@pytest.mark.parametrize("case, config", [
    pytest.param(case, config, id=case.replace("-", "-config-", 1) if config else case)
    for case in _CAPPED for config in (False, True)])
def test_monte_carlo_sizes_past_caps_exit_two(monkeypatch, tmp_path, case, config):
    # every size cap, Monte Carlo or not, refused by the parser from a flag or an
    # argument file line, before any token is read or anything computed
    def no_compute(*args, **kwargs):
        raise AssertionError("read a token or computed past a size cap")

    for name in ("parse_space", "parse_generator", "parse_sampler", "sup_indicator_ratio",
                 "classify", "kruglov_check", "growth_table", "mc_iid_sum_norm"):
        monkeypatch.setattr(cli, name, no_compute)
    monkeypatch.setattr(experiments, "_draw_sums", no_compute)
    argv, option, value, key = _CAPPED[case]
    over = _CAPS[key] + 1
    given = f"{option}={value.format(over)}"
    if config:
        cfg = tmp_path / "exp.args"
        cfg.write_text(given + "\n")
        given = f"@{cfg}"
    assert run_main(*argv, given) == (
        2, "", f"rispaces {argv[0]}: error: argument {option}: {over} is past its cap of "
        f"{_CAPS[key]}\n")


@pytest.mark.parametrize(
    "argv, n",
    [
        (("mc", "--space", "lpq:2:1", "--sampler", "signed:1e-9", "--n", "4"), 4),
        (("growth", "--space", "lpq:2:1", "--mode", "mc", "--sampler", "signed:1e-9",
          "--ns", "4,8,16,64"), 64),
    ],
    ids=["mc", "growth"],
)
def test_all_zero_monte_carlo_sums_are_inconclusive(tmp_path, argv, n):
    code, out, err = run_main(*argv, "--trials", "1000", "--m", "256")
    assert code == 1 and out == ""
    assert err == (f"inconclusive: every one of 1000 trials drew a sum of 0 at n = {n}; "
                   "the law is not 0, so more trials are needed\n")
    # a law whose atoms are all 0 has norm 0 exactly
    zero = tmp_path / "zero.csv"
    zero.write_text("0\n0\n")
    code, out, _ = run_main("mc", "--space", "lpq:2:1", "--sampler", f"custom:{zero}",
                           "--n", "4", "--trials", "1000", "--m", "256")
    assert (code, out) == (0, "0.0\n")


def test_growth_of_an_all_zero_law_exits_two_before_any_draw(monkeypatch, tmp_path):
    zero = tmp_path / "zero.csv"
    zero.write_text("0\n0\n")

    def no_draws(*args):
        raise AssertionError("drew samples of a law with no power fit")

    monkeypatch.setattr(experiments, "_draw_sums", no_draws)
    code, out, err = run_main("growth", "--space", "lpq:2:1", "--mode", "mc",
                             "--sampler", f"custom:{zero}", "--ns", "4,8,16,64",
                             "--trials", "1000", "--m", "256")
    assert code == 2 and out == ""
    assert err == ("error: every atom of the custom law is 0, so every norm is 0 "
                   "and there is no power fit\n")


def test_orlicz_norm_of_subnormal_values_exits_zero(tmp_path):
    step, atoms = tmp_path / "step.json", tmp_path / "atoms.csv"
    step.write_text('{"breakpoints": [0, 1], "values": [5e-324]}')
    atoms.write_text("-5e-324\n5e-324\n")
    code, out, err = run_main("norm", "--space", "orlicz:np:2", "--step", str(step))
    assert (code, out, err) == (0, "5e-324\n", "")
    for n in ("1", "4"):
        code, out, err = run_main("mc", "--space", "orlicz:np:2", "--sampler",
                                 f"custom:{atoms}", "--n", n, "--trials", "1000", "--m", "256")
        assert code == 0 and err == "" and 0.0 < float(out) < 1e-320


def test_lpq_at_the_largest_q_prices_a_subnormal_value(tmp_path):
    # q log 5e-324 is finite at q = 1e300; past it (q = 1e308 here) it overflowed
    step = tmp_path / "step.json"
    step.write_text('{"breakpoints": [0, 1], "values": [5e-324]}')
    code, out, err = run_main("norm", "--space", "lpq:1.5:1e300", "--step", str(step))
    assert (code, out, err) == (0, "5e-324\n", "")


@pytest.mark.parametrize("p", ["1e100", "1e300"])
def test_marcinkiewicz_logpow_of_a_tiny_indicator_is_warning_free(p):
    # the golden refinement probes t near 1e-309, below which e / t overflowed
    code, out, err = run_main("norm", "--space", f"marcinkiewicz:logpow:{p}",
                             "--indicator", "1e-300")
    assert (code, out, err) == (0, "1.0\n", "")


def test_custom_law_whose_sum_can_overflow_exits_two(monkeypatch, tmp_path):
    e300, e308 = tmp_path / "e300.csv", tmp_path / "e308.csv"
    e300.write_text("-1e300\n1e300\n")
    e308.write_text("-1e308\n1e308\n")
    mc = ("--space", "orlicz:np:2", "--trials", "1000", "--m", "256")
    code, out, _ = run_main("mc", *mc, "--sampler", f"custom:{e300}", "--n", "4")
    assert (code, out) == (0, "2.971670751312298e+300\n")

    def no_draws(*args):
        raise AssertionError("drew samples of a law whose sum can overflow")

    monkeypatch.setattr(experiments, "_draw_sums", no_draws)
    for argv, n in ((("mc", "--n", "4"), 4),
                    (("growth", "--mode", "mc", "--ns", "4,8,16,64"), 64)):
        code, out, err = run_main(argv[0], *mc, "--sampler", f"custom:{e308}", *argv[1:])
        assert code == 2 and out == ""
        assert err == f"error: a sum of n = {n} draws of atom 1e+308 can pass the float range\n"


def test_mc_deterministic_output():
    args = ("mc", "--space", "lorentz:power:1", "--sampler", "rademacher",
            "--n", "16", "--trials", "2000", "--m", "256", "--format", "json")
    code1, out1, _ = run_main(*args)
    code2, out2, _ = run_main(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_variable_is_not_read(monkeypatch):
    # the parser is the one source of the seed: without --seed it is 0, whatever
    # the environment holds
    args = ("mc", "--space", "lpq:2:1", "--sampler", "rademacher", "--n", "4",
            "--trials", "1000", "--m", "256")
    monkeypatch.delenv("RISPACES_SEED", raising=False)
    unset = run_main(*args)
    _, out, _ = run_main(*args, "--format", "json")
    assert unset[0] == 0 and json.loads(out)["seed"] == 0
    for value in ("5", "abc", "-5"):
        monkeypatch.setenv("RISPACES_SEED", value)
        assert run_main(*args) == unset, value
        assert json.loads(run_main(*args, "--format", "json")[1])["seed"] == 0, value


_MC_ARGS = ("mc", "--space", "lpq:2:1", "--sampler", "rademacher", "--n", "4",
            "--trials", "1000", "--m", "256")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_refused_naming_its_source(tmp_path, source):
    # NumPy refuses a negative seed with a message that names neither source
    cfg = tmp_path / "exp.args"
    cfg.write_text("--seed=-5\n")
    extra = {"flag": ("--seed=-5",), "config": (f"@{cfg}",)}[source]
    assert run_main(*_MC_ARGS, *extra) == (
        2, "", "rispaces mc: error: argument --seed: must be a non-negative integer, got '-5'\n")


def test_repeated_option_in_an_argument_file_takes_the_last_value(tmp_path):
    cfg = tmp_path / "exp.args"
    cfg.write_text("--trials=1000\n# the later line wins, as a repeated flag does\n"
                   "--trials=2000\n")
    argv = (*_MC_ARGS[:-4], "--m", "256", "--format", "json")
    code, out, err = run_main(*argv, f"@{cfg}")
    assert (code, err) == (0, "") and json.loads(out)["trials"] == 2000
    assert run_main(*argv, "--trials", "1000", "--trials", "2000") == (code, out, err)


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_main(
        "norm", "--space", "lorentz:power:0.5", "--indicator", "0.25",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["norm"] == 0.5


def test_csv_rejected_outside_growth(monkeypatch):
    def reached(*args, **kwargs):
        pytest.fail("csv output outside growth was checked only after the compute")

    monkeypatch.setattr(cli, "mc_iid_sum_norm", reached)
    monkeypatch.setattr(cli, "space_norm", reached)
    for argv in (
        ["norm", "--space", "lorentz:power:1", "--indicator", "0.5"],
        ["mc", "--space", "lpq:2:1", "--sampler", "rademacher", "--n", "1024",
         "--trials", "1000000"],
    ):
        code, out, err = run_main(*argv, "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == (f"rispaces {argv[0]}: error: argument --format: invalid choice: 'csv' "
                       "(choose from 'text', 'json')\n")


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--space"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_script_round_trip(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "rispaces.cli", "norm", "--space", "lorentz:power:0.5",
         "--indicator", "0.25"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0.5\n"


def test_only_the_process_entry_freezes_the_heap(capsys, monkeypatch):
    # main() as the process entry spares the import-time heap the collections at
    # exit; a caller that passes argv (a test, the tracer, a library user) keeps
    # its collector as it was
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(1))
    argv = ["norm", "--space", "lorentz:power:0.5", "--indicator", "0.25"]
    monkeypatch.setattr(sys, "argv", ["rispaces", *argv])
    assert main() == 0
    assert capsys.readouterr().out == "0.5\n" and calls == [1]
    assert run_main(*argv) == (0, "0.5\n", "") and calls == [1]


@pytest.mark.parametrize(
    "argv, lead, fragment",
    [
        (("norm", "--space", "lpq:inf:1", "--indicator", "1/4"), "error:", "finite"),
        (("norm", "--space", "lorentz:logpow:inf", "--indicator", "1/4"), "error:", "finite"),
        (("opnorm", "--psi", "power:0.5", "--n", "4", "--j-max", "-1"), "error:", "j_max"),
        (("opnorm", "--psi", "power:0.5", "--n", "4", "--j-max", "1075"), "error:",
         "j_max must be <= 1022"),
        # g went 0.99575, 0.98821, 1.00694 at j = 1060, 1073, 1074: clamped, 512.0 with exit 0
        (("opnorm", "--psi", "logpow:2", "--n", "512", "--j-max", "1074"), "error:",
         "j_max must be <= 1022: u = 2^-j is subnormal beyond it"),
        # argparse reads "-inf" as an option, not a value: a usage error, still one line
        (("norm", "--space", "orlicz:np:2", "--indicator", "-inf"), "rispaces norm: error:",
         "expected one argument"),
        # q log v overflowed past q = 1e300: a RuntimeWarning, then 0.0 or inf with exit 0
        (("norm", "--space", "lpq:1.5:1e308", "--indicator", "1/4"), "error:",
         "Lpq needs 1 <= q <= 1e300"),
        # power:1 fails the limit conditions, so its n probes were never looked at
        (("classify", "--psi", "power:1", "--n-list", "0"), "error:",
         "n must be a positive integer"),
        (("kruglov", "--psi", "power:1", "--t-grid", "1", "--threshold", "-1"), "error:",
         "threshold"),
        (("kruglov", "--psi", "power:1", "--t-grid", "1", "--threshold", "nan"), "error:",
         "threshold"),
        (("kruglov", "--psi", "logpow:2", "--t-grid", "1", "--threshold", "0.5"), "error:",
         "threshold must be finite and > 1"),
        (("kruglov", "--psi", "logpow:2", "--t-grid", "1", "--threshold", "1.0"), "error:",
         "threshold must be finite and > 1"),
        (("kruglov", "--psi", "power:1", "--t-grid", ""), "error:", "t_grid must be nonempty"),
        (("kruglov", "--psi", "power:1", "--t-grid", ","), "error:", "t_grid must be nonempty"),
        (("classify", "--psi", "power:1", "--n-list", ""), "error:", "n_list must be nonempty"),
        # t = 0.01 crosses at once: the bad value after it must still be caught
        (("kruglov", "--psi", "invsqrtlog", "--t-grid", "0.01,2"), "error:",
         "t_grid values must lie in (0, 1]"),
        (("kruglov", "--psi", "invsqrtlog", "--t-grid", "0.01,nan"), "error:",
         "t_grid values must lie in (0, 1]"),
        (("norm", "--space", "lpq:2:1", "--indicator", "1/4", "--out", "/nonexistent/dir/x"),
         "error:", "No such file or directory"),
        (("opnorm", "--psi", "table:", "--n", "4"), "error:", "table token needs a path"),
        (("mc", "--space", "lpq:2:1", "--sampler", "custom:", "--n", "4"), "error:",
         "custom token needs a path"),
        (("mc", "--space", "lpq:2:1", "--sampler", "rademacher"), "rispaces mc: error:",
         "required: --n"),
        (("growth", "--space", "lpq:2:1"), "rispaces growth: error:", "required: --ns"),
        (("norm", "--space", "orlicz:foo:2", "--indicator", "1/4"), "error:",
         "unknown Orlicz family 'foo'"),
        *((("norm", "--space", "lpq:2:1", "--indicator", bad),
           "rispaces norm: error: argument --indicator:", f"got {bad!r}")
          for bad in ("1/0", "abc", "1.5/2")),
    ],
    ids=["lpq-inf", "logpow-inf", "negative-j-max", "underflowing-j-max", "subnormal-j-max",
         "option-like-value", "lpq-q-past-1e300", "n-list-zero-failing-conditions", "negative-threshold", "nan-threshold", "half-threshold",
         "unit-threshold", "empty-t-grid", "comma-t-grid", "empty-n-list",
         "t-above-one-after-crossing", "nan-t-after-crossing", "unwritable-out",
         "table-without-path", "custom-without-path",
         "mc-without-n", "growth-without-ns", "unknown-orlicz-family",
         "indicator-over-zero", "indicator-not-a-number", "indicator-float-over-int"],
)
def test_invalid_parameters_exit_two(argv, lead, fragment):
    code, out, err = run_main(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith(lead) and err.count("\n") == 1
    assert fragment in err


def test_module_entry_point_is_warning_free(child_env):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rispaces.cli", "norm",
         "--space", "lpq:2:1", "--indicator", "1/4"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("column", [0, 1], ids=["t", "psi"])
def test_non_finite_table_node_exits_two(tmp_path, bad, column):
    row = ["0.5", "0.75"]
    row[column] = bad
    p = tmp_path / "psi.csv"
    p.write_text("t,psi\n0.25,0.5\n" + ",".join(row) + "\n1,1\n")
    for argv in (("norm", "--space", f"lorentz:table:{p}", "--indicator", "1/4"),
                 ("opnorm", "--psi", f"table:{p}", "--n", "4")):
        code, out, err = run_main(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "table nodes must be finite" in err


def test_table_with_unparsed_rows_after_the_first_exits_two(tmp_path):
    # only the first row may be a header, so a ';'-delimited table cannot lose
    # every row before the first ',' one
    p = tmp_path / "psi.csv"
    p.write_text("0.25;0.5\n0.5;0.7\n1,1\n")
    for argv in (("norm", "--space", f"lorentz:table:{p}", "--indicator", "1/4"),
                 ("opnorm", "--psi", f"table:{p}", "--n", "4")):
        code, out, err = run_main(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "bad table row" in err


@pytest.mark.parametrize(
    "content",
    ["[1, 2]", '{"breakpoints": [0, 1]}', '{"breakpoints": [0, null], "values": [1]}'],
    ids=["top-level-list", "missing-values", "null-entry"],
)
def test_malformed_step_file_exits_two(tmp_path, content):
    p = tmp_path / "step.json"
    p.write_text(content)
    code, out, err = run_main("norm", "--space", "lpq:2:1", "--step", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, content, fragment",
    [
        (("norm", "--space", "lpq:2:1", "--step", "{p}"), '{"breakpoints": [0, 1], "values": [-1]}',
         "values must be nonnegative"),
        (("mc", "--space", "lpq:2:1", "--sampler", "custom:{p}", "--n", "4"), "1\ninf\n-1\n-inf\n",
         "custom quantiles must be finite"),
        (("opnorm", "--psi", "table:{p}", "--n", "4"), "t,psi\n", "table needs at least one node"),
        (("opnorm", "--psi", "table:{p}", "--n", "4"), "0,0.5\n1,1\n",
         "table nodes must lie in (0, 1]"),
        (("opnorm", "--psi", "table:{p}", "--n", "4"), "0.5,0.5\n0.5,0.7\n1,1\n",
         "table nodes must have distinct t"),
        (("opnorm", "--psi", "table:{p}", "--n", "4"), "0.5,0.8\n1,0.6\n",
         "table values must be positive and strictly increasing"),
        # a first row with a number in it is no header, so a typo there is refused
        (("norm", "--space", "lorentz:table:{p}", "--indicator", "1/20"),
         "0.1x,0.3\n0.5,0.7\n1,1\n", "bad table row ['0.1x', '0.3'] in "),
        # only a row with no text at all is skipped
        (("norm", "--space", "lorentz:table:{p}", "--indicator", "1/20"),
         "0.1,0.3\n,0.6\n1,1\n", "bad table row ['', '0.6'] in "),
        (("mc", "--space", "lpq:2:1", "--sampler", "custom:{p}", "--n", "4"), "-1\n1\n,2\n",
         "bad table row ['', '2'] in "),
        # a cell past the row's width must be blank
        (("norm", "--space", "lorentz:table:{p}", "--indicator", "1/20"),
         "0.1,0.3,junk\n0.5,0.7\n1,1\n", "bad table row ['0.1', '0.3', 'junk'] in "),
        (("mc", "--space", "lpq:2:1", "--sampler", "custom:{p}", "--n", "4"), "-1,5\n1\n",
         "bad table row ['-1', '5'] in "),
    ],
    ids=["negative-step-value", "infinite-custom-atom", "header-only-table", "table-node-at-zero",
         "repeated-table-t", "falling-table-psi", "misspelt-first-table-row",
         "table-row-without-t", "custom-row-without-atom", "table-row-with-a-third-cell",
         "custom-row-with-a-second-cell"],
)
def test_refused_input_file_exits_two(tmp_path, argv, content, fragment):
    p = tmp_path / "input"
    p.write_text(content)
    code, out, err = run_main(*(a.format(p=p) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize(
    "argv, content",
    [
        (("norm", "--space", "lorentz:table:{p}", "--indicator", "1/20"),
         "t,psi,\n0.1,0.3,\n0.5,0.7,\n1,1, \n"),
        (("mc", "--space", "lpq:2:1", "--sampler", "custom:{p}", "--n", "4", "--trials", "1000",
          "--m", "256"), "-1,\n1,,\n"),
    ],
    ids=["table", "custom"],
)
def test_blank_cells_past_a_rows_width_change_no_output(tmp_path, argv, content):
    # a spreadsheet's trailing commas read as the rows without them
    padded, plain = tmp_path / "padded", tmp_path / "plain"
    padded.write_text(content)
    plain.write_text("\n".join(line.rstrip(", ") for line in content.splitlines()) + "\n")
    code, out, _ = run_main(*(a.format(p=plain) for a in argv))
    assert code == 0 and out
    assert run_main(*(a.format(p=padded) for a in argv))[:2] == (code, out)


@pytest.mark.parametrize(
    "argv, content",
    [
        (("norm", "--space", "lorentz:table:{p}", "--indicator", "1/20"),
         "0.1,0.3\n0.5,0.7\n1,1\n"),
        (("mc", "--space", "lpq:2:1", "--sampler", "custom:{p}", "--n", "4", "--trials", "1000",
          "--m", "256"), "-1\n1\n"),
        (("norm", "--space", "lpq:2:1", "--step", "{p}"),
         '{"breakpoints": [0, 0.5, 1], "values": [2, 1]}'),
        (("norm", "@{p}", "--indicator", "1/4"), "--space=lpq:2:1\n"),
    ],
    ids=["table", "custom", "step", "argument-file"],
)
def test_leading_byte_order_mark_changes_no_output(tmp_path, argv, content):
    # every input file decodes as UTF-8 with a leading byte-order mark dropped
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(content, encoding="utf-8")
    marked.write_text("\ufeff" + content, encoding="utf-8")
    code, out, _ = run_main(*(a.format(p=plain) for a in argv))
    assert code == 0 and out
    assert run_main(*(a.format(p=marked) for a in argv))[:2] == (code, out)


def test_orlicz_norm_past_float_range_exits_two(tmp_path):
    p = tmp_path / "step.json"
    p.write_text('{"breakpoints": [0, 1], "values": [1.7e308]}')
    code, out, err = run_main("norm", "--space", "orlicz:np:1", "--step", str(p))
    assert code == 2
    assert out == ""
    assert err == "error: Orlicz norm exceeds the float range\n"


def test_orlicz_norm_just_past_the_largest_float_exits_two(tmp_path):
    # the start point is the largest float itself and the modular there is still
    # above 1; bracketing the root from it used to overflow np.nextafter
    p = tmp_path / "step.json"
    p.write_text('{"breakpoints": [0.0, 1.0], "values": [1.7976931348623157e+308]}')
    code, out, err = run_main("norm", "--space", "orlicz:np:8467029476126897.0",
                             "--step", str(p))
    assert code == 2
    assert out == ""
    assert err == "error: Orlicz norm exceeds the float range\n"


_PAST_THE_FLOAT_RANGE = {
    # psi(1) = 1.76 for invsqrtlog: math.fsum's partial sums overflow, or the one product
    "lorentz-fsum": ("lorentz:invsqrtlog", [1.283e308, 0.85e308]),
    "lorentz-product": ("lorentz:invsqrtlog", [1.7976931348623157e308]),
    # phi(1) = 2e-20 for the table: exp overflows in the Marcinkiewicz core
    "marcinkiewicz": ("marcinkiewicz:table:{table}", [1e308, 1e308]),
}
_TINY_PHI = "0.5,1e-20\n1,2e-20\n"


@pytest.mark.parametrize("space, values", _PAST_THE_FLOAT_RANGE.values(),
                         ids=_PAST_THE_FLOAT_RANGE)
def test_norm_past_the_float_range_exits_two_in_every_family(tmp_path, space, values):
    (tmp_path / "phi.csv").write_text(_TINY_PHI)
    step = tmp_path / "step.json"
    cuts = [i / len(values) for i in range(len(values) + 1)]
    step.write_text(json.dumps({"breakpoints": cuts, "values": values}))
    space = space.format(table=tmp_path / "phi.csv")
    code, out, err = run_main("norm", "--space", space, "--step", str(step))
    family = space.partition(":")[0].capitalize()
    assert (code, out, err) == (2, "", f"error: {family} norm exceeds the float range\n")


@pytest.mark.parametrize("space, atom, n", [
    ("lorentz:invsqrtlog", 1.7e308, 1),  # |sum| = 1.7e308, so the norm is 1.76 times that
    ("marcinkiewicz:table:{table}", 1.7e307, 10),
], ids=["lorentz", "marcinkiewicz"])
def test_mc_norm_past_the_float_range_exits_two(tmp_path, space, atom, n):
    # n times the atom is a float, so the draws run; the norm of their sums is not
    (tmp_path / "phi.csv").write_text(_TINY_PHI)
    (tmp_path / "atoms.csv").write_text(f"{-atom!r}\n{atom!r}\n")
    space = space.format(table=tmp_path / "phi.csv")
    code, out, err = run_main("mc", "--space", space, "--sampler", f"custom:{tmp_path}/atoms.csv",
                              "--n", str(n), "--trials", "1000", "--m", "256")
    family = space.partition(":")[0].capitalize()
    assert (code, out, err) == (2, "", f"error: {family} norm exceeds the float range\n")


def test_step_file_nested_too_deep_exits_two(tmp_path):
    # the JSON decoder gives up with a RecursionError, which is a RuntimeError: the
    # file is bad input, not an inconclusive computation
    step = tmp_path / "deep.json"
    step.write_text("[" * 100_000)
    code, out, err = run_main("norm", "--space", "lpq:2:1", "--step", str(step))
    assert (code, out) == (2, "")
    assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1


def test_orlicz_root_at_float_resolution_is_the_norm(child_env):
    # M(u) = e^(u^1e308) - 1 jumps from 0 to inf at u = 1, so the modular never
    # reaches 1 exactly; the norm log1p(4)^(-1/p) rounds up to the float 1.0,
    # the least float at which the modular is at most 1
    proc = subprocess.run(
        [sys.executable, "-m", "rispaces.cli", "norm", "--space", "orlicz:np:1e308",
         "--indicator", "1/4"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.0\n"
    assert proc.stderr == ""


_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions(min_value=-2, max_value=2, max_denominator=10**6).map(str),
    st.sampled_from(["0", "1/0", "-0.0", "1e308", "1e-320", "5e-324", "abc", ""]),
)
_ORDER_TEXT = st.one_of(
    st.floats(min_value=1.0, max_value=1e6).map(repr),
    st.sampled_from(["1", "1.5", "2", "7", "1e3", "1e5", "1e10", "1e100", "1e308"]),
    _NUMBER_TEXT,
)
_MEASURE_TEXT = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(repr),
    st.fractions(min_value=0, max_value=1, max_denominator=10**9).map(str),
    _NUMBER_TEXT,
)
_STEP_VALUE = st.one_of(
    st.floats(min_value=0.0, max_value=1e300),
    st.integers(min_value=0, max_value=10**6),
    st.fractions(min_value=0, max_value=10**6).map(str),
    st.sampled_from([10**308, 10**400, "1/" + "9" * 400]),
    # the largest floats: the Orlicz norm itself then leaves the float range
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),
)
_STEP_ENTRY = st.one_of(
    _STEP_VALUE,
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(["1/0", "x", None, True]),
)


def _step_files():
    cuts = st.sets(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True), max_size=5
    ).map(sorted)
    proper = st.builds(
        lambda cs, vals: {"breakpoints": [0.0, *cs, 1.0], "values": vals[: len(cs) + 1]},
        cuts,
        st.lists(_STEP_VALUE, min_size=6, max_size=6),
    )
    loose = st.fixed_dictionaries(
        {"breakpoints": st.lists(_STEP_ENTRY, max_size=5), "values": st.lists(_STEP_ENTRY, max_size=5)}
    )
    return st.one_of(proper, loose)


@settings(max_examples=150, deadline=None)
@example(p="2", indicator="1/0", step={}, use_step=False, fmt="text")
@example(p="2", indicator="", step={"breakpoints": [0, 1], "values": ["1/0"]}, use_step=True,
         fmt="text")
@example(p="2", indicator="", step={"breakpoints": [0.0, 1.0], "values": [10**400]},
         use_step=True, fmt="json")
@example(p="1", indicator="", step={"breakpoints": [0.0, 1.0], "values": [1.7e308]},
         use_step=True, fmt="text")
@example(p="1e10", indicator="1/4", step={}, use_step=False, fmt="text")
@example(p="1e308", indicator="1/4", step={}, use_step=False, fmt="json")
@given(
    p=_ORDER_TEXT,
    indicator=_MEASURE_TEXT,
    step=_step_files(),
    use_step=st.booleans(),
    fmt=st.sampled_from(["text", "json"]),
)
def test_orlicz_norm_cli_fuzz(p, indicator, step, use_step, fmt):
    argv = ["norm", "--space", f"orlicz:np:{p}", "--format", fmt]
    with tempfile.TemporaryDirectory() as tmp:
        if use_step:
            path = os.path.join(tmp, "step.json")
            with open(path, "w") as fh:
                json.dump(step, fh)
            argv += ["--step", path]
        else:
            argv += ["--indicator", indicator]
        # in-process, an exception main() lets through fails the test here
        code, out, err = run_main(*argv)
    assert code in (0, 2)  # no Orlicz root is inconclusive
    assert "Traceback" not in err
    if code == 0:
        assert not re.search(r"nan|inf", out, re.IGNORECASE)
    else:
        assert out == ""


@st.composite
def _table_csvs(draw):
    """t,psi rows through nodes of t^a, some near t = 1e-300, now and then one entry broken."""
    a = draw(st.floats(min_value=0.01, max_value=1.0))
    ts = draw(st.sets(st.one_of(st.floats(min_value=1e-3, max_value=1.0),
                                st.floats(min_value=1e-300, max_value=1e-290), st.just(1.0)),
                      min_size=1, max_size=5))
    rows = [[repr(t), repr(t**a)] for t in sorted(ts)]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(min_value=0, max_value=1))] = draw(
            st.sampled_from(["nan", "inf", "-1", "0", "2", "x", ""]))
    header = ["t,psi"] if draw(st.booleans()) else []
    return "\n".join(header + [",".join(row) for row in rows]) + "\n"


@st.composite
def _scaled_table_csvs(draw):
    """A ``_table_csvs`` table as it is, or its psi column scaled by 2^k, -1000 <= k <= 1000."""
    k = draw(st.one_of(st.just(0), st.integers(min_value=-1000, max_value=1000)))

    def scaled(line):
        t, _, y = line.partition(",")
        try:
            return f"{t},{math.ldexp(float(y), k)!r}"
        except ValueError:  # the header, or an entry broken on purpose
            return line

    return "".join(scaled(line) + "\n" for line in draw(_table_csvs()).splitlines())


def _sqrt_nodes(scale):
    """The concave nodes (2^-j, 2^(-j/2)) for j = 60, 56, ..., 0, psi scaled by 2^scale."""
    return [(2.0**-j, math.ldexp(2.0**(-j // 2), scale)) for j in range(60, -1, -4)]


# Tables near either end of the float range.  A slope, or the linear continuation
# to t = 1, past the largest float is refused as the table is read; the scaled
# sqrt table's first slope is 2^1030.
_STEEP_TABLES = {"two-nodes": "0.5,1e308\n1,1.5e308\n", "one-node": "0.5,1e308\n",
                 "scaled-sqrt": "".join(f"{t!r},{y!r}\n" for t, y in _sqrt_nodes(1000))}
# linear tables whose n psi passes the largest float, or whose psi(2^-1022) is subnormal
_FAR_TABLES = {"huge": ("1,1.5e308\n", "40"), "tiny": ("1,1e-20\n", "1022")}


@pytest.mark.parametrize("command", [
    ("opnorm", "--psi", "table:{table}", "--n", "4"),
    ("norm", "--space", "lorentz:table:{table}", "--indicator", "1/4"),
], ids=lambda c: c[0])
@pytest.mark.parametrize("table", _STEEP_TABLES.values(), ids=_STEEP_TABLES)
def test_table_past_the_float_range_is_refused_as_it_is_read(tmp_path, table, command):
    (tmp_path / "psi.csv").write_text(table)
    code, out, err = run_main(*(arg.format(table=tmp_path / "psi.csv") for arg in command))
    assert (code, out, err.count("\n")) == (2, "", 1), err
    assert err.endswith(": table slope or continuation to t = 1 passes the largest float\n")


@pytest.mark.parametrize("table, j_max", _FAR_TABLES.values(), ids=_FAR_TABLES)
def test_opnorm_of_a_table_at_either_end_of_the_float_range(tmp_path, table, j_max):
    # a linear psi at either scale has the sup ratio of psi(t) = t: g does not see the scale
    sups = []
    for text in (table, "1,1\n"):
        (tmp_path / "psi.csv").write_text(text)
        code, out, err = run_main("opnorm", "--psi", f"table:{tmp_path / 'psi.csv'}", "--n", "4",
                                  "--j-max", j_max, "--format", "json")
        assert (code, err) == (0, "")
        sups.append(json.loads(out)["sup_ratio"])
    assert sups[0] == pytest.approx(sups[1], rel=1e-12) and 0.0 < sups[1] <= 1.0


_T_TEXT = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(repr),
    st.sampled_from(["1", "0.5", "0.01", "1e-300", "5e-324"]),
)
_BAD_T_TEXT = st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0.0", "-0.5", "1.0000000000000002", "2", "1e308"]
)
_THRESHOLD_TEXT = st.one_of(
    st.floats(min_value=1.0, max_value=1e12).map(repr),
    st.sampled_from(["1.5", "2", "1e3", "1e9", "1e308", "1", "nan", "inf", "0", "-1"]),
)


@settings(max_examples=200, deadline=None)
# t = 0.01 crosses within a few terms; the bad value after it must still be rejected
@example(psi="invsqrtlog", t_grid=["0.01"], bad_t=["2"], threshold="2", max_terms=4096,
         table="1,1\n")
@example(psi="invsqrtlog", t_grid=["0.01"], bad_t=["nan"], threshold="1.5", max_terms=8,
         table="1,1\n")
# tables whose slope and continuation to t = 1 pass the largest float
@example(psi="table:{table}", t_grid=["0.5"], bad_t=[], threshold="1e3", max_terms=64,
         table=_STEEP_TABLES["two-nodes"])
@example(psi="table:{table}", t_grid=["0.5"], bad_t=[], threshold="1e3", max_terms=64,
         table=_STEEP_TABLES["one-node"])
@given(
    psi=st.sampled_from(["invsqrtlog", "power:0.5", "table:{table}"]),
    t_grid=st.lists(_T_TEXT, min_size=1, max_size=4),
    bad_t=st.lists(_BAD_T_TEXT, max_size=1),  # placed after the valid values
    threshold=_THRESHOLD_TEXT,
    max_terms=st.integers(min_value=-2, max_value=2**12),
    table=_scaled_table_csvs(),
)
def test_kruglov_cli_fuzz(psi, t_grid, bad_t, threshold, max_terms, table):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "psi.csv")
        with open(path, "w") as fh:
            fh.write(table)
        # "=" keeps a leading "-" a value rather than an option
        argv = ["kruglov", "--psi", psi.replace("{table}", path),
                f"--t-grid={','.join(t_grid + bad_t)}", f"--threshold={threshold}",
                f"--max-terms={max_terms}", "--format", "json"]
        code, out, err = run_main(*argv)
    assert "Traceback" not in err and "Warning" not in err
    threshold_ok = math.isfinite(float(threshold)) and float(threshold) > 1
    refused = err.startswith("error: bad generator token 'table:")
    if bad_t or not threshold_ok or max_terms < 4 or refused:
        assert code == 2 and out == "" and err.count("\n") == 1
        return
    assert code in (0, 1)
    assert not re.search(r"nan", out, re.IGNORECASE)
    report = json.loads(out)
    # the one documented non-finite value: the sup of a divergent probe
    assert report["sup_value"] != "inf" or not (report["finite"] or report["inconclusive"])


# The other commands, fuzzed at small sizes.  Each case draws valid options
# and, half the time, makes exactly one of them invalid: a valid case must end
# in exit 0 with a finite report or exit 1 (inconclusive), an invalid one in
# exit 2 with a one-line error, and no case may raise.
_GEN_OK = ["power:0.5", "power:1", "power:0.01", "power:1e-300", "logpow:1", "logpow:2",
           "logpow:1e100", "logpow:1e300", "invsqrtlog", "example7", "gauss"]
_GEN_BAD = ["power:0", "power:2", "power:nan", "power:-1", "logpow:0.5", "logpow:inf",
            "table:", "table:/nonexistent.csv", "frob", ""]
_SPACE_OK = [f"{family}:{g}" for family in ("lorentz", "marcinkiewicz") for g in _GEN_OK] + [
    "orlicz:np:1", "orlicz:np:1.5", "orlicz:np:2", "orlicz:np:4",
    "lpq:2:1", "lpq:1.5:1.2", "lpq:4:3",
]
_SPACE_BAD = ["orlicz:np:0.5", "orlicz:np:nan", "orlicz:np:inf", "orlicz:exp:2", "lpq:1:1",
              "lpq:2:0.5", "lpq:inf:1", "lpq:2", "banach:2", "", "lorentz:frob",
              "marcinkiewicz:power:2"]
_SAMPLER_OK = ["rademacher", "signed:0.5", "signed:1", "gauss", "gaussian"]
_SAMPLER_BAD = ["signed:0", "signed:2", "signed:nan", "signed:-1", "custom:",
                "custom:/nonexistent.csv", "frob", ""]
_NOT_AN_INT = ["x", "", "1.5", "1e3", "nan"]


def _ints(lo, hi):
    return st.integers(min_value=lo, max_value=hi).map(str)


def _int_lists(lo, hi, min_size, max_size):
    return st.lists(st.integers(min_value=lo, max_value=hi), min_size=min_size,
                    max_size=max_size).map(lambda xs: ",".join(map(str, xs)))


@st.composite
def _options(draw, fields, config=False):
    """``--flag=VALUE`` options drawn valid, and at most one of them made invalid.

    ``fields`` maps a flag to (valid values, invalid values, optional), each
    set of values a list or a strategy; an optional flag may be left out,
    unless it is the invalid one.  With
    ``config``, each option goes on the command line or into the returned
    lines of an argument file, which carry an error of their own when the
    invalid one is an unknown option or a line with a space for its "=".  A
    repeated line is valid: the later one wins.  Returns the options, the file
    lines and whether anything was made invalid.
    """
    names = list(fields) + (["<unknown key>", "<no equals sign>", "<repeated key>"]
                            if config else [])
    bad = draw(st.one_of(st.none(), st.sampled_from(names)))
    argv, lines = [], []
    for flag, (good, wrong, optional) in fields.items():
        if flag != bad and optional and draw(st.booleans()):
            continue
        values = wrong if flag == bad else good
        if isinstance(values, list):
            values = st.sampled_from(values)
        value = draw(values)
        # "=" keeps a leading "-" a value rather than an option
        (lines if config and draw(st.booleans()) else argv).append(f"{flag}={value}")
    if bad == "<unknown key>":
        lines.append("--frob=1")
    elif bad == "<no equals sign>":
        lines.append("--trials 2000")
    elif bad == "<repeated key>":  # a drawn line again, or one option given twice
        lines += [draw(st.sampled_from(lines))] if lines else ["--seed=1", "--seed=2"]
    return argv, lines, bad not in (None, "<repeated key>")


def _value(argv, lines, key):
    """The value that option ``key`` ends with; the file's lines come after the command line."""
    values = [arg.partition("=")[2] for arg in argv + lines if arg.startswith(f"--{key}=")]
    return values[-1] if values else None


def _fuzz_run(argv, lines, bad, kruglov_inf=False, atoms=None, table=None):
    """Run one fuzz case.  ``atoms`` are the magnitudes of the law that a
    ``custom:{atoms}`` sampler reads, each atom with its negative; ``table`` is
    the text of the file that a ``table:{table}`` generator reads, which may be
    refused as it is read (exit 2, in the generator token's one line)."""
    if not bad and atoms and _value(argv, lines, "sampler") == "custom:{atoms}":
        sizes = _value(argv, lines, "n") or _value(argv, lines, "ns")
        overflows = not math.isfinite(max(map(int, sizes.split(","))) * max(atoms))
    else:
        overflows = False
    with tempfile.TemporaryDirectory() as tmp:
        if atoms:
            path = os.path.join(tmp, "atoms.csv")
            with open(path, "w") as fh:
                fh.write("".join(f"{-a!r}\n{a!r}\n" for a in atoms))
            argv = [arg.replace("{atoms}", path) for arg in argv]
            lines = [line.replace("{atoms}", path) for line in lines]
        if table is not None:
            path = os.path.join(tmp, "psi.csv")
            with open(path, "w") as fh:
                fh.write(table)
            argv = [arg.replace("{table}", path) for arg in argv]
        if lines:
            path = os.path.join(tmp, "exp.args")
            with open(path, "w") as fh:
                fh.write("# fuzzed\n" + "\n".join(lines) + "\n")
            argv = argv + [f"@{path}"]
        code, out, err = run_main(*argv)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    refused = table is not None and err.startswith("error: bad generator token 'table:")
    if bad or overflows or refused:
        assert code == 2 and out == "" and err.count("\n") == 1, (argv, lines, code, err)
        assert bad or refused or "float range" in err, (argv, lines, err)
        return
    assert code in (0, 1), (argv, lines, code, err)
    if kruglov_inf:  # the one documented non-finite value: the sup of a divergent probe
        out = out.replace('"sup_value": "inf"', "").replace("sup = inf at", "")
    assert not re.search(r"nan", out, re.IGNORECASE), (argv, lines, out)
    if code == 0:
        assert not re.search(r"inf", out, re.IGNORECASE), (argv, lines, out)


# Step files that stress the canonical form: chains of near ties v (1 + k 1e-16),
# which are exact ties or one ulp apart, pieces of measure near 1e-300 (and
# below it, down to a subnormal width) and subnormal values.
_TIE_CUT = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=5e-324, max_value=1e-298),
    st.sampled_from([1e-300, 1.0000000000000002e-300, 2e-300]),
)
_TIE_BASE = st.one_of(
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),  # subnormal
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([0.0, 5e-324, 1e-320, 1.0, 2.0, 1e300]),
)


@st.composite
def _near_tie_steps(draw):
    cuts = sorted(draw(st.lists(_TIE_CUT, max_size=7)))
    values = [draw(_TIE_BASE)]
    for _ in cuts:  # a near tie of the value before, or a fresh value
        k = draw(st.one_of(st.integers(min_value=-3, max_value=3), st.none()))
        values.append(draw(_TIE_BASE) if k is None else values[-1] * (1.0 + k * 1e-16))
    return {"breakpoints": [0.0, *cuts, 1.0], "values": values}


_NORM_SPACE = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["lorentz", "marcinkiewicz"]),
              st.sampled_from([*_GEN_OK, *_GEN_BAD, "table:{table}"])),
    st.builds("lpq:{}:{}".format, _ORDER_TEXT, _ORDER_TEXT),
)


@settings(max_examples=100, deadline=None)
@example(space="marcinkiewicz:table:{table}", indicator="1/4", use_step=False, fmt="json",
         table="t,psi\n1e-300,0.001\n0.5,0.9\n1,1\n", step={})
@example(space="marcinkiewicz:logpow:1e100", indicator="1e-300", use_step=False, fmt="text",
         table="t,psi\n1,1\n", step={})
# norms past the float range, each refused in one line
@example(space="lorentz:invsqrtlog", indicator="1", use_step=True, fmt="text", table=_TINY_PHI,
         step={"breakpoints": [0, 0.5, 1], "values": [1.283e308, 0.85e308]})
@example(space="lorentz:invsqrtlog", indicator="1", use_step=True, fmt="text", table=_TINY_PHI,
         step={"breakpoints": [0, 1], "values": [1.7976931348623157e308]})
@example(space="marcinkiewicz:table:{table}", indicator="1", use_step=True, fmt="text",
         table=_TINY_PHI, step={"breakpoints": [0, 0.5, 1], "values": [1e308, 1e308]})
# a table whose continuation to t = 1 passes the largest float is refused as it is read
@example(space="lorentz:table:{table}", indicator="1/4", use_step=False, fmt="text",
         table=_STEEP_TABLES["one-node"], step={})
@given(
    space=_NORM_SPACE,
    indicator=_MEASURE_TEXT,
    step=st.one_of(_near_tie_steps(), _step_files()),
    use_step=st.booleans(),
    fmt=st.sampled_from(["text", "json"]),
    table=_table_csvs(),
)
def test_norm_cli_fuzz(space, indicator, step, use_step, fmt, table):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "psi.csv")
        with open(path, "w") as fh:
            fh.write(table)
        argv = ["norm", "--space", space.replace("{table}", path), "--format", fmt]
        if use_step:
            step_path = os.path.join(tmp, "step.json")
            with open(step_path, "w") as fh:
                json.dump(step, fh)
            argv += ["--step", step_path]
        else:
            argv += ["--indicator", indicator]
        code, out, err = run_main(*argv)
    out = out.replace(path, "")  # the report names the table file, whose name is random
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code == 0:
        assert not re.search(r"nan|inf", out, re.IGNORECASE), (argv, out)
    else:
        assert out == "" and err.count("\n") == 1, (argv, code, err)


_OPNORM = {
    "--psi": ([*_GEN_OK, "table:{table}"], _GEN_BAD, False),
    "--n": (_ints(1, 48), ["0", "-1", *_NOT_AN_INT], False),
    "--j-max": (st.one_of(_ints(0, 80), st.just("1022")), ["-1", "1023", "1075", "x"], True),
    "--format": (["text", "json"], ["csv", "xml"], True),
}


@settings(max_examples=60, deadline=None)
# n psi past the largest float, psi(u) subnormal at u = 2^-1022; then tables too steep to read
@example(opts=(["--psi=table:{table}", "--n=4"], [], False), table=_FAR_TABLES["huge"][0])
@example(opts=(["--psi=table:{table}", "--n=4", "--j-max=1022"], [], False),
         table=_FAR_TABLES["tiny"][0])
@example(opts=(["--psi=table:{table}", "--n=4"], [], False), table=_STEEP_TABLES["two-nodes"])
@example(opts=(["--psi=table:{table}", "--n=64"], [], False), table=_STEEP_TABLES["scaled-sqrt"])
@given(opts=_options(_OPNORM), table=_scaled_table_csvs())
def test_opnorm_cli_fuzz(opts, table):
    argv, lines, bad = opts
    _fuzz_run(["opnorm", *argv], lines, bad, table=table)


_CLASSIFY = {
    "--psi": ([*_GEN_OK, "table:{table}"], _GEN_BAD, False),
    "--n-list": (_int_lists(1, 16, 1, 3), ["0", "-1", "", "x"], True),
    "--j-max": (_ints(40, 120), ["-1", "x", "1.5"], True),
    "--format": (["text", "json"], ["csv", "xml"], True),
}


@settings(max_examples=40, deadline=None)
@example(opts=(["--psi=table:{table}"], [], False), kruglov=True,
         table=_STEEP_TABLES["two-nodes"])
@given(opts=_options(_CLASSIFY), kruglov=st.booleans(), table=_scaled_table_csvs())
def test_classify_cli_fuzz(opts, kruglov, table):
    argv, lines, bad = opts
    argv = ["classify", *argv] + (["--with-kruglov"] if kruglov else [])
    _fuzz_run(argv, lines, bad, kruglov_inf=kruglov, table=table)


# four or five distinct sizes up to 64 that span two octaves
_SIZES = st.lists(st.integers(min_value=1, max_value=64), min_size=4, max_size=5,
                  unique=True).filter(lambda ns: max(ns) >= 4 * min(ns))
# Besides _SAMPLER_OK: signed:1e-9, whose sums at these sizes are all 0 (exit 1,
# inconclusive), and a custom law of atoms from 5e-324 up to 1e308, whose sum
# is refused (exit 2) when n times its largest atom passes the float range.
_MC_COMMON = {
    "--space": (_SPACE_OK, _SPACE_BAD, False),
    "--sampler": ([*_SAMPLER_OK, "signed:1e-9", "custom:{atoms}"], _SAMPLER_BAD, False),
    "--trials": (_ints(1000, 2000), ["999", *_NOT_AN_INT], True),
    "--m": (_ints(256, 512), ["255", *_NOT_AN_INT], True),
    "--seed": (_ints(0, 9), ["-1", "-5", *_NOT_AN_INT], True),
}
_GROWTH_EXACT = {
    "--space": _MC_COMMON["--space"],
    "--ns": (_SIZES.map(lambda ns: ",".join(map(str, ns))),
             ["4,8,16", "4,4,8,16", "0,4,16,64", "2,3,4,5", "x", ""], False),
    "--mode": (["exact"], ["frob"], True),
    "--burn-in": (_ints(0, 1), ["-1", "4", "9", "x"], True),
}
_GROWTH_MC = {**_GROWTH_EXACT, "--mode": (["mc"], ["frob"], False), **_MC_COMMON}
_MC = {**_MC_COMMON, "--n": (_ints(1, 64), ["0", "-1", *_NOT_AN_INT], False)}
_ATOMS = st.lists(
    st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e300, 1e308]),
              st.floats(min_value=5e-324, max_value=1e308)),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=None)
@example(opts=(["--space=orlicz:np:2", "--ns=4,8,16,64", "--mode=mc", "--sampler=signed:1e-9",
                "--trials=1000", "--m=256"], [], False), fmt="csv", atoms=[1.0])
@example(opts=(["--space=lorentz:gauss", "--ns=1,2,4,8", "--mode=mc", "--trials=1000",
                "--m=256"], ["--sampler=custom:{atoms}"], False), fmt="text", atoms=[5e-324])
# a bad burn-in is refused before the draws, whose sums here would all be 0
@example(opts=(["--space=lorentz:power:0.5", "--ns=1,2,3,4", "--mode=mc", "--burn-in=-1",
                "--sampler=signed:1e-9", "--trials=1000"], [], True), fmt="text", atoms=[1.0])
# two close sizes after the burn-in fit C = exp(723): inconclusive, not an OverflowError
@example(opts=(["--space=lorentz:power:0.01", "--ns=61,62,1,2", "--mode=mc",
                "--sampler=custom:{atoms}", "--trials=1000", "--m=256", "--seed=0"], [], False),
         fmt="text", atoms=[1e300])
# a negative seed exits 2 in either mode, from a flag or an argument file; an
# option given twice takes its last value
@example(opts=(["--space=lpq:2:1", "--ns=4,8,16,64", "--seed=-3"], [], True), fmt="text",
         atoms=[1.0])
@example(opts=(["--space=lpq:2:1", "--ns=4,8,16,64", "--mode=mc", "--sampler=rademacher",
                "--trials=1000", "--m=256"], ["--seed=-5"], True), fmt="json", atoms=[1.0])
@example(opts=(["--space=lpq:2:1", "--ns=4,8,16,64"], ["--burn-in=1", "--burn-in=1"], False),
         fmt="csv", atoms=[1.0])
@given(opts=st.one_of(_options(_GROWTH_EXACT, config=True), _options(_GROWTH_MC, config=True)),
       fmt=st.sampled_from(["text", "json", "csv"]), atoms=_ATOMS)
def test_growth_cli_fuzz(opts, fmt, atoms):
    argv, lines, bad = opts
    _fuzz_run(["growth", *argv, "--format", fmt], lines, bad, atoms=atoms)


@settings(max_examples=60, deadline=None)
@example(opts=(["--space=lpq:1.5:1.2", "--sampler=custom:{atoms}", "--n=1", "--trials=1000",
                "--m=256"], [], False), fmt="json", atoms=[5e-324, 1e308])
@example(opts=(["--space=marcinkiewicz:power:0.5", "--n=2"], ["--sampler=custom:{atoms}"],
               False), fmt="text", atoms=[5e-324, 1e308])
@example(opts=(["--space=lpq:2:1", "--sampler=rademacher", "--n=4"], ["--seed=-5"], True),
         fmt="json", atoms=[1.0])
@example(opts=(["--space=lpq:2:1", "--sampler=rademacher", "--n=4", "--seed=-1"], [], True),
         fmt="text", atoms=[1.0])
@example(opts=(["--space=lpq:2:1", "--sampler=rademacher", "--n=4"],
               ["--trials=1000", "--trials=5000"], False), fmt="text", atoms=[1.0])
@given(opts=_options(_MC, config=True), fmt=st.sampled_from(["text", "json"]), atoms=_ATOMS)
def test_mc_cli_fuzz(opts, fmt, atoms):
    argv, lines, bad = opts
    _fuzz_run(["mc", *argv, "--format", fmt], lines, bad, atoms=atoms)
