"""``tools/compare.py`` judges paired benchmark runs.  Its summary is checked here
on fixed numbers, so no benchmark runs: a gain needs 9 of 10 pairs won, ties
counting for neither, and a median drop past the parent's IQR; a parent spread
past the bound leaves a metric unresolved."""

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
