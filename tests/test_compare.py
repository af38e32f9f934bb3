"""``tools/compare.py`` judges paired benchmark runs.  Its summary is checked here
on fixed numbers, so no benchmark runs: a gain needs 9 of 10 pairs won, ties
counting for neither, and a median drop past the parent's IQR; a parent spread
past the bound leaves a metric unresolved.  With its runners replaced, a whole
run starts no child and shows that one differing stdout fails the tool."""

import json

import pytest

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


def test_a_differing_stdout_fails_the_run_and_is_named(compare, tmp_path, monkeypatch, capsys):
    head, parent = tmp_path / "head", tmp_path / "parent"
    for tree in head, parent:
        (tree / "src" / "rispaces").mkdir(parents=True)
    (parent / "perfbench").mkdir()
    (parent / "perfbench" / "run.py").write_text("")
    target = compare.workloads.WORKLOADS["operator"](0, "full", tmp_path)[0].id

    def run(checkout, cmd):
        out = b"0.6\n" if checkout == parent and cmd.id == target else b"0.5\n"
        return 0, out, b"", 30.0

    metrics = {m["name"]: 1.0 for m in compare.bench.BENCH["end_to_end"]}
    monkeypatch.setattr(compare, "ROOT", head)
    monkeypatch.setattr(compare.bench, "WORK", tmp_path)  # restored after the run moves it
    monkeypatch.setattr(compare, "run", run)
    monkeypatch.setattr(compare, "counted",
                        lambda checkout, cmds: dict.fromkeys(compare.COUNTED, 1))
    monkeypatch.setattr(compare, "bench_run", lambda checkout, workload, seed: {
        "code": 0, "attempted": 1, "failed": 0, "metrics": metrics})
    assert compare.main([str(parent), "probe", "--pairs", "2"]) == 1
    record = json.loads((head / "BENCH_probe.json").read_text())["same_work"]
    label = f"operator seed 0 {target}"
    assert label in record["commands_differing"]
    assert all(key.endswith(f" {target}") for key in record["commands_differing"])
    assert record["commands"][label]["differs"] == ["stdout"]
    assert record["commands"][label]["parent"]["stdout"] == "0.6\n"
    assert record["counts_differing"] == record["peaks_missing"] == []
    assert f"{label}: differs in stdout" in capsys.readouterr().out
