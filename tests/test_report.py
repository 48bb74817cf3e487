"""Report rendering: stats.json, Tables 2-4, the trajectory distribution and
report.txt show what the aggregates compute, with n/a where a statistic is
undefined."""

import csv
import hashlib
import json

import pytest

from capstate.evaluation.report import (
    aggregate_classification,
    build_stats_report,
    per_subject_rows,
    render_report,
    summary_table,
)
from conftest import make_fold

MONOTONIC = {"c1": (0.2, 0.2), "c2": (0.4, 0.4), "c3": (0.6, 0.6)}
PEAK_C2 = {"c1": (0.3, 0.3), "c2": (0.7, 0.7), "c3": (0.5, 0.5)}
NA5 = ["n/a"] * 5


def read_table(text) -> dict[str, list[str]]:
    """Rows keyed by their first cell; the header is keyed by its first column name."""
    return {row[0]: row[1:] for row in csv.reader(text.splitlines())}


def fmt(v, digits=3) -> str:
    return f"{v:.{digits}f}"


def dist_cells(s: dict) -> list[str]:
    return [str(s["n"]), fmt(s["mean"]), fmt(s["sd"]), fmt(s["median"]), fmt(s["range"][0]), fmt(s["range"][1])]


def render(folds):
    texts = render_report(folds)
    assert sorted(texts) == [
        "report/report.txt",
        "report/table2_summary.csv",
        "report/table3_per_subject.csv",
        "report/table4_classification.csv",
        "report/trajectory_distribution.csv",
        "stats.json",
    ]
    stats = json.loads(texts["stats.json"])
    expected = {"summary": summary_table(folds), "aggregate_classification": aggregate_classification(folds),
                **build_stats_report(folds)}
    assert stats == json.loads(json.dumps(expected))
    return texts, stats


class TestWriteReport:
    def test_undefined_head_and_missing_condition(self):
        # subject c has no c3 windows: its effort head sees one class and it gets no pattern
        folds = [make_fold("a", MONOTONIC), make_fold("b", PEAK_C2), make_fold("c", MONOTONIC, ("c1", "c2"))]
        assert folds[2].metrics["effort"] is None
        texts, stats = render(folds)
        summary = stats["summary"]
        assert [summary[k]["n"] for k in ("stress", "effort", "joint_average")] == [3, 2, 3]

        table2 = read_table(texts["report/table2_summary.csv"])
        assert table2["output"] == ["n", "mean_ba", "sd", "median_ba", "range_lo", "range_hi"]
        for key in ("stress", "effort", "joint_average"):
            assert table2[key] == dist_cells(summary[key])

        table3 = read_table(texts["report/table3_per_subject.csv"])
        assert list(table3) == ["subject"] + [r["subject"] for r in per_subject_rows(folds)]
        assert table3["c"][1] == "nan" and table3["c"][4] == "nan"  # effort_ba, effort_f1

        table4 = read_table(texts["report/table4_classification.csv"])
        for head in ("stress", "effort"):
            a = stats["aggregate_classification"][head]
            assert table4[head] == [fmt(a["precision"]), fmt(a["recall"]), fmt(a["macro_f1"]),
                                    fmt(a["recall_low"], 2), fmt(a["recall_high"], 2), fmt(a["ba"]),
                                    str(a["n_total"])]

        patterns = stats["trajectory_patterns"]
        assert patterns["counts"] == {"monotonic": 1, "peak_c2": 1}
        assert patterns["subjects_without_pattern"] == ["c"]
        traj = read_table(texts["report/trajectory_distribution.csv"])
        assert traj.pop("pattern") == ["count", "share_of_classified"]
        assert traj.pop("unclassified") == ["1", "n/a"]
        assert list(traj) == ["monotonic", "rising", "peak_c2", "flat_ceiling", "inverted"]
        for name, (count, share) in traj.items():
            assert int(count) == patterns["counts"].get(name, 0)
            assert share == fmt(int(count) / 2)

        text = texts["report/report.txt"]
        assert stats["one_sample_vs_chance_stress"] is not None
        assert stats["one_sample_vs_chance_effort"] is None  # both defined effort BAs are 1.0
        assert "stress vs chance: t(2)=" in text and "effort vs chance" not in text
        row_c = next(line for line in text.splitlines() if line.startswith("  c "))
        assert row_c.split()[1:] == ["0.500", "n/a", "0.500", "0.333", "n/a", "4"]
        assert "  monotonic       1  (50%)" in text
        assert "no pattern (incomplete conditions): c" in text
        assert "theory-consistent (monotonic+rising): 1/2 (50%)" in text

    def test_single_fold_renders_na(self):
        folds = [make_fold("c", MONOTONIC, ("c1", "c2"))]
        texts, stats = render(folds)
        assert stats["summary"]["stress"]["sd"] is None
        assert stats["aggregate_classification"]["effort"] == {"n_total": 0, "undefined": True}

        table2 = read_table(texts["report/table2_summary.csv"])
        assert table2["stress"] == ["1", "0.500", "n/a", "0.500", "0.500", "0.500"]
        assert table2["effort"] == ["0"] + NA5
        assert table2["joint_average"] == table2["stress"]

        table4 = read_table(texts["report/table4_classification.csv"])
        assert table4["effort"] == ["n/a"] * 6 + ["0"]
        assert table4["stress"][-1] == "8"

        traj = read_table(texts["report/trajectory_distribution.csv"])
        assert traj["unclassified"] == ["1", "n/a"]
        assert all(traj[name] == ["0", "0.000"] for name in ("monotonic", "rising", "peak_c2"))

        text = texts["report/report.txt"]
        assert "  stress         n= 1 mean=0.500 sd=n/a median=0.500 range=[0.500, 0.500]" in text
        assert "  effort         n= 0 mean=n/a sd=n/a median=n/a range=[n/a, n/a]" in text
        assert "  effort: undefined (no complete folds)" in text
        assert "vs chance" not in text and "theory-consistent" not in text
        assert "RM-ANOVA" not in text


# The exact bytes of the CSVs written from text cells, on the two fold sets
# above: defined cells, and n/a cells for an undefined head and a single fold.
THREE_FOLDS_CSV = {
    "report/table2_summary.csv": (
        "output,n,mean_ba,sd,median_ba,range_lo,range_hi\n"
        "stress,3,0.750,0.250,0.750,0.500,1.000\n"
        "effort,2,1.000,0.000,1.000,1.000,1.000\n"
        "joint_average,3,0.792,0.260,0.875,0.500,1.000\n"),
    "report/table4_classification.csv": (
        "axis,precision,recall,f1,recall_low,recall_high,ba,n_total\n"
        "stress,0.800,0.800,0.750,1.00,0.60,0.800,32\n"
        "effort,1.000,1.000,1.000,1.00,1.00,1.000,16\n"),
    "report/trajectory_distribution.csv": (
        "pattern,count,share_of_classified\n"
        "monotonic,1,0.500\nrising,0,0.000\npeak_c2,1,0.500\nflat_ceiling,0,0.000\ninverted,0,0.000\n"
        "unclassified,1,n/a\n"),
}
ONE_FOLD_CSV = {
    "report/table2_summary.csv": (
        "output,n,mean_ba,sd,median_ba,range_lo,range_hi\n"
        "stress,1,0.500,n/a,0.500,0.500,0.500\n"
        "effort,0,n/a,n/a,n/a,n/a,n/a\n"
        "joint_average,1,0.500,n/a,0.500,0.500,0.500\n"),
    "report/table4_classification.csv": (
        "axis,precision,recall,f1,recall_low,recall_high,ba,n_total\n"
        "stress,0.250,0.500,0.333,1.00,0.00,0.500,8\n"
        "effort,n/a,n/a,n/a,n/a,n/a,n/a,0\n"),
    "report/trajectory_distribution.csv": (
        "pattern,count,share_of_classified\n"
        "monotonic,0,0.000\nrising,0,0.000\npeak_c2,0,0.000\nflat_ceiling,0,0.000\ninverted,0,0.000\n"
        "unclassified,1,n/a\n"),
}


# The sha256 of the exact stats.json text on the same two fold sets, and
# the parts of it the three-folds set spells out: both axes' RM-ANOVA over
# subjects a and b, and the quadrant counts per condition.
THREE_FOLDS_STATS_SHA256 = "1112f4414a3bb1194935054e285a01ef9cdc52a4fcb17bc7317683f017626151"
ONE_FOLD_STATS_SHA256 = "8a0dad58f18fcfe1761e61673790fdcd1417484ae1e48ad3c84570ef21fceb6e"
THREE_FOLDS_RM_ANOVA = {"F": 3.000000000000005, "df1": 2, "df2": 2, "p": 0.2499999999999997,
                        "partial_eta_sq": 0.7500000000000003}
THREE_FOLDS_OCCUPANCY = {
    cond: {"boundary_high_load": high, "motivated_engagement": 0, "overload_strain": 0, "underutilized": low}
    for cond, (low, high) in {"c1": (12, 0), "c2": (8, 4), "c3": (0, 8)}.items()
}
THREE_FOLDS = [make_fold("a", MONOTONIC), make_fold("b", PEAK_C2), make_fold("c", MONOTONIC, ("c1", "c2"))]


@pytest.mark.parametrize("folds, expected, stats_sha256", [
    (THREE_FOLDS, THREE_FOLDS_CSV, THREE_FOLDS_STATS_SHA256),
    ([make_fold("c", MONOTONIC, ("c1", "c2"))], ONE_FOLD_CSV, ONE_FOLD_STATS_SHA256),
], ids=["three-folds", "one-fold"])
def test_report_csv_bytes(folds, expected, stats_sha256):
    """Quoting, separators and line endings are pinned, not only the cells;
    stats.json is pinned by the digest of its text."""
    texts = render_report(folds)
    for name, text in expected.items():
        assert texts[name] == text, name
    assert hashlib.sha256(texts["stats.json"].encode()).hexdigest() == stats_sha256


def test_stats_json_rm_anova_and_occupancy():
    stats = json.loads(render_report(THREE_FOLDS)["stats.json"])
    for axis in ("U", "O"):
        anova = stats[f"condition_effects_{axis}"]["rm_anova"]
        assert anova == THREE_FOLDS_RM_ANOVA
        assert [type(anova[k]) for k in anova] == [float, int, int, float, float]
    assert stats["quadrant_occupancy_by_condition"] == THREE_FOLDS_OCCUPANCY
