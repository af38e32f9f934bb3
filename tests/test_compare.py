"""Tests of ``tools/compare.py``: its same-work runner, traced pass and seed-7 pass on
real children; its verdicts on fixed numbers; and, with its runners replaced so that
no child starts, a run failed by one differing stdout, the host and each side's size in
its record, and its usage errors."""

import argparse
import json
import subprocess
import sys

import pytest

from rispaces import cli


@pytest.mark.parametrize("args, code", [
    (["norm", "--space", "lpq:2:1", "--indicator", "1/4", "--format", "json"], 0),
    (["norm", "--space", "bogus:1", "--indicator", "1/4"], 2),
])
def test_wrapped_run_prints_what_a_bare_run_prints(compare, args, code):
    cmd = compare.workloads.Command("probe", "cli", args, check=None)
    bare = subprocess.run(compare.bench.command_argv(cmd), cwd=compare.ROOT,
                          env=compare.env(compare.ROOT), stdin=subprocess.DEVNULL,
                          capture_output=True)
    *wrapped, peak = compare.run(compare.ROOT, cmd)
    assert bare.returncode == code
    assert bare.stdout if code == 0 else bare.stderr  # an empty and a nonempty stderr
    assert wrapped == [bare.returncode, bare.stdout, bare.stderr]
    assert isinstance(peak, float) and peak > 0


def test_traced_pass_counts_work_and_leaves_no_files(compare, tmp_path, monkeypatch):
    cmd = compare.workloads.Command(
        "probe", "cli", ["norm", "--space", "orlicz:np:2", "--indicator", "1/4", "--format", "json"],
        check=lambda out, ref: [])
    trees = [compare.ROOT / "perfbench", compare.ROOT / "tools"]
    before = [sorted(tree.rglob("*")) for tree in trees]
    monkeypatch.setattr(compare.bench, "WORK", tmp_path)
    counts = compare.counted(compare.ROOT, [cmd])
    assert counts["norms.space_norm.orlicz.calls"] == 1
    assert counts["norms.orlicz.modular_evals"] > 0
    assert [sorted(tree.rglob("*")) for tree in trees] == before
    assert list(tmp_path.iterdir()) == []


def test_seed_7_pass_skips_only_commands_the_seed_leaves_alone(compare, tmp_path):
    # a seed-dependent command without seeded=True would drop out of the comparison
    kept = {(name, cmd.id) for name, seed, cmd in compare.commands(tmp_path) if seed == 7}
    for name, build in compare.workloads.WORKLOADS.items():
        for at_0, at_7 in zip(build(0, "full", tmp_path), build(7, "full", tmp_path)):
            assert at_0.id == at_7.id
            if (name, at_7.id) not in kept:
                assert (at_7.kind, at_7.args) == (at_0.kind, at_0.args), at_7.id


PARENT = [1.0 + i / 10 for i in range(10)]  # median 1.45, IQR 0.55
TIGHT = [1.0 + i / 100 for i in range(10)]  # median 1.045, IQR 0.055
LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def _verdict(compare, parent, head, metric=LOWER):
    rows = compare.summarize([{"wall_s": v} for v in parent], [{"wall_s": v} for v in head],
                             [metric])["wall_s"]
    return rows["won"], rows["verdict"]


@pytest.mark.parametrize("parent, head, won, verdict", [
    (PARENT, [v - 0.6 for v in PARENT], 10, "gain"),
    (PARENT, [v - 0.6 for v in PARENT[:9]] + PARENT[9:], 9, "gain"),  # one tie
    (PARENT, [v - 0.6 for v in PARENT[:8]] + PARENT[8:], 8, "unresolved"),  # two ties
    (PARENT, [v - 0.5 for v in PARENT], 10, "unresolved"),  # a drop inside the IQR
    (PARENT, [v + 0.6 for v in PARENT], 0, "loss"),
    (TIGHT, TIGHT[::-1], 5, "within bound"),
    (TIGHT, [v + 0.4 for v in TIGHT[:8]] + [v - 0.1 for v in TIGHT[8:]], 2, "past bound"),
], ids=["gain", "gain-one-tie", "two-ties", "drop-inside-iqr", "loss", "a-a", "past-bound"])
def test_summary_verdicts(compare, parent, head, won, verdict):
    assert _verdict(compare, parent, head) == (won, verdict)


def test_summary_reads_the_better_direction(compare):
    higher = {**LOWER, "better": "higher"}
    assert _verdict(compare, PARENT, [v + 0.6 for v in PARENT], higher) == (10, "gain")


def test_summary_medians_and_spread(compare):
    summary = compare.summarize([{"wall_s": v} for v in PARENT],
                                [{"wall_s": v - 0.6} for v in PARENT], [LOWER])
    assert summary["wall_s"] == {
        "parent_median": pytest.approx(1.45), "head_median": pytest.approx(0.85),
        "parent_iqr": pytest.approx(0.55), "pairs": 10, "won": 10, "verdict": "gain"}
    assert compare.table(summary)[1].split() == ["wall_s", "1.450", "0.850", "0.550",
                                                 "10/10", "gain"]


def _fake_children(compare, monkeypatch, tmp_path, run):
    """(head, parent): two bare checkouts, with ``run`` standing in for each same-work
    child, and the traced passes and benchmark runs all reading 1.  Each holds a
    package of its own size: head 2 source lines, 1 test line and 1 exported name,
    parent 4, 3 and 2."""
    head, parent = tmp_path / "head", tmp_path / "parent"
    for tree in (head / "src" / "rispaces", parent / "src" / "rispaces", parent / "perfbench",
                 head / "tests", parent / "tests"):
        tree.mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    (head / "src" / "rispaces" / "__init__.py").write_text('__all__ = ["a"]\na = 1\n')
    (parent / "src" / "rispaces" / "__init__.py").write_text('__all__ = ["a", "b"]\na = b = 1\n')
    (parent / "src" / "rispaces" / "b.py").write_text("x = 1\ny = 2\n")
    (head / "tests" / "test_a.py").write_text("def test_a(): pass\n")
    (parent / "tests" / "test_a.py").write_text("def test_a():\n    pass\n\n")
    (parent / "tests" / "notes.txt").write_text("not a test\n")  # only *.py counts
    metrics = {m["name"]: 1.0 for m in compare.bench.BENCH["end_to_end"]}
    monkeypatch.setattr(compare, "ROOT", head)
    monkeypatch.setattr(compare.bench, "WORK", tmp_path)  # restored after the run moves it
    monkeypatch.setattr(compare, "run", run)
    monkeypatch.setattr(compare, "counted",
                        lambda checkout, cmds: dict.fromkeys(compare.COUNTED, 1))
    monkeypatch.setattr(compare, "bench_run", lambda checkout, workload, seed: {
        "code": 0, "attempted": 1, "failed": 0, "metrics": metrics})
    return head, parent


def test_a_differing_stdout_fails_the_run_and_is_named(compare, tmp_path, monkeypatch, capsys):
    target = compare.workloads.WORKLOADS["operator"](0, "full", tmp_path)[0].id

    def run(checkout, cmd):
        out = b"0.6\n" if checkout == parent and cmd.id == target else b"0.5\n"
        return 0, out, b"", 30.0

    head, parent = _fake_children(compare, monkeypatch, tmp_path, run)
    assert compare.main([str(parent), "probe", "--pairs", "2"]) == 1
    record = json.loads((head / "BENCH_probe.json").read_text())["same_work"]
    label = f"operator seed 0 {target}"
    assert label in record["commands_differing"]
    assert all(key.endswith(f" {target}") for key in record["commands_differing"])
    assert record["commands"][label]["differs"] == ["stdout"]
    assert record["commands"][label]["parent"]["stdout"] == "0.6\n"
    assert record["counts_differing"] == record["peaks_missing"] == []
    assert f"{label}: differs in stdout" in capsys.readouterr().out


def test_the_record_names_the_host(compare, tmp_path, monkeypatch):
    # only points taken on one machine compare, so each record says which machine ran it
    head, parent = _fake_children(compare, monkeypatch, tmp_path,
                                  lambda checkout, cmd: (0, b"0.5\n", b"", 30.0))
    assert compare.main([str(parent), "probe", "--pairs", "2"]) == 0
    environment = json.loads((head / "BENCH_probe.json").read_text())["environment"]
    assert environment == {**compare.bench.environment(),
                           "numpy_exp_kernel": compare.numpy_exp_kernel()}
    assert {"python", "numpy", "nproc", "cpu_model", "numpy_exp_kernel"} <= environment.keys()
    assert environment["child_env"]["OPENBLAS_NUM_THREADS"] == "1"
    # NumPy < 2.0 has no introspect module to name the class
    monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
    assert compare.numpy_exp_kernel() == "unknown"


def test_the_record_gives_each_sides_size(compare, tmp_path, monkeypatch, capsys):
    # a simplicity change is measured in source and test lines, exported names and CLI
    # options, each read from its own side: the names and options by a child that imports
    # that side's src, whose fake packages have no CLI
    head, parent = _fake_children(compare, monkeypatch, tmp_path,
                                  lambda checkout, cmd: (0, b"0.5\n", b"", 30.0))
    assert compare.main([str(parent), "probe", "--pairs", "2"]) == 0
    size = json.loads((head / "BENCH_probe.json").read_text())["size"]
    assert size == {
        "parent": {"source_lines": 4, "test_lines": 3, "exports": 2, "options": None},
        "head": {"source_lines": 2, "test_lines": 1, "exports": 1, "options": None}}
    assert ("size (source lines, test lines, exported names, options): "
            "parent 4, 3, 2, None; head 2, 1, 1, None" in capsys.readouterr().out)
    (head / "src" / "rispaces" / "__init__.py").write_text("raise ImportError\n")
    assert compare.size(head) == {"source_lines": 1, "test_lines": 1, "exports": None,
                                  "options": None}


def test_the_size_counts_this_checkouts_options(compare):
    # one option per (subcommand, destination) of the parser, --help aside
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = sum(len({a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)})
                  for p in sub.choices.values())
    assert len(sub.choices) == 6
    assert compare.size(compare.ROOT)["options"] == options


@pytest.mark.parametrize("parent, argv, platform, message", [
    ("src", [], "linux", "has no perfbench/run.py"),
    (".", ["--pairs", "1"], "linux", "--pairs must be at least 2"),
    (".", [], "darwin", "needs Linux"),
], ids=["no-harness", "one-pair", "darwin"])
def test_usage_errors_exit_2_before_any_child(compare, monkeypatch, capsys,
                                              parent, argv, platform, message):
    for name in ("run", "counted", "bench_run"):
        monkeypatch.setattr(compare, name, lambda *args: pytest.fail("a child started"))
    monkeypatch.setattr(compare.sys, "platform", platform)
    with pytest.raises(SystemExit) as exc:
        compare.main([str(compare.ROOT / parent), "probe", *argv])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
