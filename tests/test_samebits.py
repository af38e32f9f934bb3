"""The same-work section of ``tools/compare.py`` compares two checkouts by their
output bytes, traced counts and peaks.  Its byte comparison holds only if
cutting the wrapper's peak line leaves exactly what a bare run prints; its
traced counts must come from the harness's tracer without leaving files behind;
and its seed-7 pass may skip only commands that the seed does not change.
"""

import subprocess

import pytest


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
    if compare.LINUX:
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
