import contextlib
import csv
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

from rispaces import experiments, lorentz_operator_norm, power
from rispaces import cli
from rispaces.cli import _CAPS, main, parse_config_file


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_indicator_anchor(capsys):
    code, out, err = run_cli(capsys, "norm", "--space", "lorentz:power:0.5", "--indicator", "0.25")
    assert code == 0
    assert out == "0.5\n"
    assert err == ""


def test_norm_rational_indicator(capsys):
    code, out, _ = run_cli(capsys, "norm", "--space", "lpq:2:1", "--indicator", "1/4")
    assert code == 0
    assert float(out) == pytest.approx(0.5, rel=1e-12)


def test_norm_step_file(capsys, tmp_path):
    p = tmp_path / "step.json"
    p.write_text(json.dumps({"breakpoints": [0.0, 0.25, 1.0], "values": [3.0, 0.0]}))
    code, out, _ = run_cli(capsys, "norm", "--space", "lorentz:power:1", "--step", str(p))
    assert code == 0
    assert float(out) == pytest.approx(0.75, rel=1e-12)


def test_norm_requires_exactly_one_input(capsys):
    code, _, err = run_cli(capsys, "norm", "--space", "lorentz:power:1")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(
        capsys, "norm", "--space", "lorentz:power:1", "--indicator", "0.5", "--step", "x.json"
    )
    assert code == 2


def test_norm_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--space", "lorentz:power:0.5", "--indicator", "0.25",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] == 0.5
    assert payload["space"] == "lorentz:power:0.5"


def test_opnorm_matches_library(capsys):
    code, out, _ = run_cli(capsys, "opnorm", "--psi", "power:0.5", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["opnorm"] == pytest.approx(lorentz_operator_norm(power(0.5), 2), rel=1e-12)
    assert payload["opnorm"] == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-9)


def test_classify_linear_generator(capsys):
    code, out, _ = run_cli(capsys, "classify", "--psi", "power:1")
    assert code == 0
    assert "branch: NormEqualsN" in out
    assert "first condition" in out


def test_classify_slowly_varying_generator(capsys):
    code, out, _ = run_cli(capsys, "classify", "--psi", "example7")
    assert code == 0
    assert "branch: PowerBound" in out
    assert "witness n0 = 2" in out


def test_classify_json_reparses_into_report(capsys):
    code, out, _ = run_cli(capsys, "classify", "--psi", "power:0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["branch"] == "PowerBound"
    assert payload["q"] == pytest.approx(0.7075187496394222, abs=1e-9)


def test_classify_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--psi", "power:0.5", "--k-list", "2,3,16", "--n-list", "16",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)  # keeps the key order of the text
    # integer keys are strings and sort as strings: "16" comes before "2"
    assert list(payload["a_estimates"]) == ["16", "2", "3"]
    assert list(payload["opnorms"]) == sorted(str(n) for n in range(1, 17))
    for est in (*payload["a_estimates"].values(), *payload["c_estimates"].values()):
        assert set(est) == {"value", "grid_min", "window", "converged", "j_max"}


def test_classify_shallow_grid_is_inconclusive(capsys):
    # the slowly varying generator does not settle within 60 octaves
    code, out, _ = run_cli(capsys, "classify", "--psi", "example7", "--j-max", "60")
    assert code == 1
    assert "NOT converged" in out


def test_kruglov_finite(capsys):
    code, out, _ = run_cli(capsys, "kruglov", "--psi", "power:1", "--t-grid", "1,0.5,0.1")
    assert code == 0
    assert "finite" in out
    payload_code, jout, _ = run_cli(
        capsys, "kruglov", "--psi", "power:1", "--t-grid", "1,0.5,0.1", "--format", "json"
    )
    assert json.loads(jout)["sup_value"] == pytest.approx(math.e - 1.0, abs=1e-6)


def test_kruglov_divergent(capsys):
    code, out, _ = run_cli(capsys, "kruglov", "--psi", "example7", "--t-grid", "0.01")
    assert code == 0
    assert "divergent" in out
    code, out, _ = run_cli(
        capsys, "kruglov", "--psi", "example7", "--t-grid", "0.01", "--format", "json"
    )
    assert code == 0
    assert '"sup_value": "inf"' in out


def test_kruglov_inconclusive(capsys):
    # N = 8 terms of sum 1/n!: the N/4 sum 1.5 and the N sum 1.71827877 differ by > 1e-6
    code, out, _ = run_cli(
        capsys, "kruglov", "--psi", "power:1", "--t-grid", "1", "--max-terms", "8",
        "--threshold", "1e9",
    )
    assert code == 1
    assert "INCONCLUSIVE" in out


def test_growth_exact_csv(capsys):
    code, out, _ = run_cli(
        capsys, "growth", "--space", "marcinkiewicz:logpow:2",
        "--ns", "16,32,64,128", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value", "fit_q", "fit_C", "residual"]
    assert [r[0] for r in rows[1:]] == ["16", "32", "64", "128"]
    assert len({r[2] for r in rows[1:]}) == 1  # one fit, repeated per row


def test_growth_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# growth experiment\n"
        "space = lpq:1.5:1.2\n"
        "sampler = signed:0.5\n"
        "ns = 16,32,64,128\n"
        "mode = mc\n"
        "trials = 2000\n"
        "m = 256\n"
        "seed = 9\n"
    )
    code, out, _ = run_cli(capsys, "growth", "--config", str(cfg), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 9
    assert [p[0] for p in payload["pairs"]] == [16, 32, 64, 128]
    assert all(isinstance(p, list) and len(p) == 2 and isinstance(p[1], float)
               for p in payload["pairs"])
    code2, out2, _ = run_cli(
        capsys, "growth", "--config", str(cfg), "--seed", "11", "--format", "json"
    )
    assert json.loads(out2)["seed"] == 11
    assert json.loads(out2)["pairs"] != payload["pairs"]


def test_config_parsing_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("space lorentz:power:1\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trails = 500\n")
    code, _, err = run_cli(capsys, "mc", "--config", str(cfg), "--space", "lorentz:power:1",
                           "--sampler", "rademacher", "--n", "4")
    assert code == 2
    assert "trails" in err


_MC = ("mc", "--space", "lorentz:power:1", "--sampler", "rademacher")
_GROWTH_MC = ("growth", "--space", "lpq:2:1", "--mode", "mc", "--sampler", "rademacher")


@pytest.mark.parametrize(
    "argv, config, key",
    [
        ((*_MC, "--n", "{n}"), "", "n"),
        ((*_MC, "--n", "4", "--trials", "{trials}"), "", "trials"),
        ((*_MC, "--n", "4", "--m", "{m}"), "", "m"),
        ((*_MC,), "n = 4\nm = {m}\n", "m"),
        ((*_GROWTH_MC, "--ns", "16,32,64,{ns}"), "", "ns"),
        ((*_GROWTH_MC, "--ns", "16,32,64,128", "--trials", "{trials}"), "", "trials"),
        ((*_GROWTH_MC, "--ns", "16,32,64,128", "--m", "{m}"), "", "m"),
        ((*_GROWTH_MC,), "ns = 16,32,64,128\ntrials = {trials}\n", "trials"),
    ],
    ids=["mc-n", "mc-trials", "mc-m", "mc-config-m", "growth-ns", "growth-trials", "growth-m",
         "growth-config-trials"],
)
def test_monte_carlo_sizes_past_caps_exit_two(capsys, monkeypatch, tmp_path, argv, config, key):
    def no_draws(*args):
        raise AssertionError("drew samples past a size cap")

    monkeypatch.setattr(experiments, "_draw_sums", no_draws)
    over = {k: cap + 1 for k, cap in _CAPS.items()}
    argv = [a.format(**over) for a in argv]
    if config:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config.format(**over))
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {key} = {over[key]} is past its cap of {_CAPS[key]}\n"


@pytest.mark.parametrize(
    "argv, target, key",
    [
        (("opnorm", "--psi", "power:0.5", "--n", "{n}"), "sup_indicator_ratio", "n"),
        (("classify", "--psi", "power:0.5", "--n-list", "2,4,{n_list}"), "classify", "n_list"),
        (("classify", "--psi", "power:0.5", "--j-max", "{j_max}"), "classify", "j_max"),
        (("kruglov", "--psi", "power:1", "--max-terms", "{max_terms}"), "kruglov_check",
         "max_terms"),
    ],
    ids=["opnorm-n", "classify-n-list", "classify-j-max", "kruglov-max-terms"],
)
def test_operator_sizes_past_caps_exit_two(capsys, monkeypatch, argv, target, key):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed past a size cap")

    monkeypatch.setattr(cli, target, no_compute)
    over = {k: cap + 1 for k, cap in _CAPS.items()}
    code, out, err = run_cli(capsys, *(a.format(**over) for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: {key} = {over[key]} is past its cap of {_CAPS[key]}\n"


def test_mc_deterministic_output(capsys):
    args = ("mc", "--space", "lorentz:power:1", "--sampler", "rademacher",
            "--n", "16", "--trials", "2000", "--m", "256", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_default(capsys, monkeypatch):
    args = ("mc", "--space", "lorentz:power:1", "--sampler", "rademacher",
            "--n", "8", "--trials", "2000", "--m", "256", "--format", "json")
    monkeypatch.setenv("RISPACES_SEED", "123")
    _, out1, _ = run_cli(capsys, *args)
    assert json.loads(out1)["seed"] == 123
    monkeypatch.setenv("RISPACES_SEED", "124")
    _, out2, _ = run_cli(capsys, *args)
    assert json.loads(out2)["seed"] == 124
    assert json.loads(out1)["norm"] != json.loads(out2)["norm"]


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "norm", "--space", "lorentz:power:0.5", "--indicator", "0.25",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["norm"] == 0.5


def test_csv_rejected_outside_growth(capsys):
    code, _, err = run_cli(
        capsys, "norm", "--space", "lorentz:power:1", "--indicator", "0.5",
        "--format", "csv",
    )
    assert code == 2
    assert "csv" in err


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


@pytest.mark.parametrize(
    "argv, lead, fragment",
    [
        (("norm", "--space", "lpq:inf:1", "--indicator", "1/4"), "error:", "finite"),
        (("norm", "--space", "lorentz:logpow:inf", "--indicator", "1/4"), "error:", "finite"),
        (("opnorm", "--psi", "power:0.5", "--n", "4", "--j-max", "-1"), "error:", "j_max"),
        (("opnorm", "--psi", "power:0.5", "--n", "4", "--j-max", "1075"), "error:",
         "j_max must be <= 1074"),
        # argparse reads "-inf" as an option, not a value: a usage error, still one line
        (("norm", "--space", "orlicz:np:2", "--indicator", "-inf"), "rispaces norm: error:",
         "expected one argument"),
        (("classify", "--psi", "power:0.5", "--margin", "nan"), "error:", "margin"),
        (("classify", "--psi", "power:0.5", "--margin", "inf"), "error:", "margin"),
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
    ],
    ids=["lpq-inf", "logpow-inf", "negative-j-max", "underflowing-j-max", "option-like-value",
         "nan-margin", "inf-margin", "negative-threshold", "nan-threshold", "half-threshold",
         "unit-threshold", "empty-t-grid", "comma-t-grid"],
)
def test_invalid_parameters_exit_two(capsys, argv, lead, fragment):
    code, out, err = run_cli(capsys, *argv)
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


@pytest.mark.parametrize(
    "content",
    ["[1, 2]", '{"breakpoints": [0, 1]}', '{"breakpoints": [0, null], "values": [1]}'],
    ids=["top-level-list", "missing-values", "null-entry"],
)
def test_malformed_step_file_exits_two(capsys, tmp_path, content):
    p = tmp_path / "step.json"
    p.write_text(content)
    code, out, err = run_cli(capsys, "norm", "--space", "lpq:2:1", "--step", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_orlicz_norm_past_float_range_exits_two(capsys, tmp_path):
    p = tmp_path / "step.json"
    p.write_text('{"breakpoints": [0, 1], "values": [1.7e308]}')
    code, out, err = run_cli(capsys, "norm", "--space", "orlicz:np:1", "--step", str(p))
    assert code == 2
    assert out == ""
    assert err == "error: Orlicz norm exceeds the float range\n"


def test_orlicz_norm_just_past_the_largest_float_exits_two(capsys, tmp_path):
    # the start point is the largest float itself and the modular there is still
    # above 1; bracketing the root from it used to overflow np.nextafter
    p = tmp_path / "step.json"
    p.write_text('{"breakpoints": [0.0, 1.0], "values": [1.7976931348623157e+308]}')
    code, out, err = run_cli(capsys, "norm", "--space", "orlicz:np:8467029476126897.0",
                             "--step", str(p))
    assert code == 2
    assert out == ""
    assert err == "error: Orlicz norm exceeds the float range\n"


def test_orlicz_non_convergence_is_inconclusive(child_env):
    # M(u) = e^(u^1e308) - 1 jumps from 0 to inf at u = 1: the root search cannot close
    proc = subprocess.run(
        [sys.executable, "-m", "rispaces.cli", "norm", "--space", "orlicz:np:1e308",
         "--indicator", "1/4"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("inconclusive:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


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


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@example(p="2", indicator="1/0", step={}, use_step=False, fmt="text")
@example(p="2", indicator="", step={"breakpoints": [0, 1], "values": ["1/0"]}, use_step=True,
         fmt="text")
@example(p="2", indicator="", step={"breakpoints": [0.0, 1.0], "values": [10**400]},
         use_step=True, fmt="json")
@example(p="1", indicator="", step={"breakpoints": [0.0, 1.0], "values": [1.7e308]},
         use_step=True, fmt="text")
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
        code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert not re.search(r"nan|inf", out, re.IGNORECASE)
    else:
        assert out == ""
