"""Aggregation of fold results into summary tables and the statistics report,
and their rendering. ``render_report`` is the one place that aggregates: it
computes every statistic once and returns the texts of ``stats.json`` and
``report/``; it reads and writes no file. Condition effects are paired
statistics on per-subject centroids (Demšar, JMLR 7, 2006), and every CSV
under ``report/`` is formatted by ``format_table``."""

import itertools
import json
from collections import Counter

import numpy as np

from ..ingest import Condition
from ..metrics import Metrics, joint_ba, metrics_from_confusion
from ..storage import format_table
from .loso import FoldResult
from .stats import bonferroni, cohens_d, one_sample_t, paired_t, rm_anova_oneway
from .statespace import TrajectoryPattern, condition_centroids, quadrant_occupancy

CONDITIONS = tuple(c.value for c in Condition)
HEADS = ("stress", "effort")
SUMMARY_KEYS = (*HEADS, "joint_average")
CONTRAST_PAIRS = tuple(itertools.combinations(CONDITIONS, 2))


def _fold_bas(f: FoldResult) -> dict[str, float]:
    """A fold's BA per head, plus their joint average."""
    bas = {head: f.ba(head) for head in HEADS}
    return {**bas, "joint_average": joint_ba(bas.values())}


def _finite_bas(folds: list[FoldResult]) -> dict[str, np.ndarray]:
    """Per head and for the joint average, the finite fold BAs in fold order."""
    per_fold = [_fold_bas(f) for f in folds]
    out = {}
    for key in SUMMARY_KEYS:
        vals = np.array([b[key] for b in per_fold])
        out[key] = vals[np.isfinite(vals)]
    return out


def per_subject_rows(folds: list[FoldResult]) -> list[dict]:
    """Table-3-style rows sorted by descending average BA."""
    rows = []
    for f in folds:
        bas = _fold_bas(f)
        rows.append(
            {
                "subject": f.subject_id,
                "stress_ba": bas["stress"],
                "effort_ba": bas["effort"],
                "avg_ba": bas["joint_average"],
                "stress_f1": f.metrics["stress"].macro_f1 if f.metrics["stress"] else float("nan"),
                "effort_f1": f.metrics["effort"].macro_f1 if f.metrics["effort"] else float("nan"),
                "n_eff": f.n_eff,
            }
        )
    return sorted(rows, key=lambda r: (-(r["avg_ba"] if np.isfinite(r["avg_ba"]) else -1), r["subject"]))


def summary_table(folds: list[FoldResult]) -> dict:
    """Table-2-style group summary: mean/SD/median/range per head plus the
    joint average."""
    return {key: _dist_stats(vals) for key, vals in _finite_bas(folds).items()}


def _dist_stats(vals: np.ndarray) -> dict:
    if len(vals) == 0:
        return {"n": 0, "mean": None, "sd": None, "median": None, "range": None}
    return {
        "n": int(len(vals)),
        "mean": float(vals.mean()),
        "sd": float(vals.std(ddof=1)) if len(vals) > 1 else None,
        "median": float(np.median(vals)),
        "range": [float(vals.min()), float(vals.max())],
    }


def aggregate_classification(folds: list[FoldResult]) -> dict:
    """Table-4-style pooled metrics: per-head confusion summed over folds, with
    per-class recall and macro precision/recall/F1 recomputed from the pooled
    counts."""
    out = {}
    for head in HEADS:
        confusion = np.zeros((2, 2), dtype=np.int64)
        for f in folds:
            m: Metrics | None = f.metrics[head]
            if m is not None:
                confusion += m.confusion
        n_total = int(confusion.sum())
        try:
            pooled = metrics_from_confusion(confusion)
        except ValueError:
            out[head] = {"n_total": n_total, "undefined": True}
            continue
        out[head] = {
            "n_total": n_total,
            "confusion": confusion.tolist(),
            "recall_low": pooled.per_class_recall[0],
            "recall_high": pooled.per_class_recall[1],
            "ba": pooled.ba,
            "precision": pooled.precision,
            "recall": pooled.ba,  # macro recall is the mean per-class recall, the BA
            "macro_f1": pooled.macro_f1,
        }
    return out


def trajectory_summaries(folds: list[FoldResult]) -> list[dict]:
    """Each fold's trajectory record (``condition_centroids``), by subject."""
    return [
        condition_centroids(f.subject_id, f.condition, f.u, f.o) for f in sorted(folds, key=lambda f: f.subject_id)
    ]


def _contrast(a, b) -> dict | None:
    """Paired t-test of ``a`` against ``b`` as ``{t, df, p}``, or None when
    the differences have zero SD and t is undefined."""
    try:
        t, df, p = paired_t(a, b)
    except ValueError:
        return None
    return {"t": t, "df": df, "p": p}


def build_stats_report(folds: list[FoldResult]) -> dict:
    """One-sample tests vs chance, per-axis RM-ANOVA over complete subjects,
    pairwise condition contrasts (complete-case and full-sample, labeled), the
    trajectory-pattern distribution, and per-condition quadrant occupancy."""
    report = {"n_folds": len(folds)}

    bas = _finite_bas(folds)
    for head in HEADS:
        vals = bas[head]
        if len(vals) >= 2 and vals.std(ddof=1) > 0:
            t, df, p = one_sample_t(vals, 0.5)
            report[f"one_sample_vs_chance_{head}"] = {
                "mean_ba": float(vals.mean()),
                "t": t,
                "df": df,
                "p": p,
                "cohens_d": cohens_d(vals, 0.5),
            }
        else:
            report[f"one_sample_vs_chance_{head}"] = None

    summaries = trajectory_summaries(folds)
    centroid_map = {s["subject_id"]: s["centroids"] for s in summaries}

    for axis in ("u", "o"):
        complete = [
            [centroid_map[sid][c][axis] for c in CONDITIONS]
            for sid in sorted(centroid_map)
            if all(c in centroid_map[sid] for c in CONDITIONS)
        ]
        axis_report = {"n_complete_subjects": len(complete)}
        if len(complete) >= 2:
            matrix = np.asarray(complete)
            axis_report["rm_anova"] = rm_anova_oneway(matrix)
            contrasts = {}
            for a, b in CONTRAST_PAIRS:
                c = _contrast(matrix[:, CONDITIONS.index(a)], matrix[:, CONDITIONS.index(b)])
                contrasts[f"{a}_vs_{b}_complete"] = c and {**c, "p_bonferroni": bonferroni(c["p"], len(CONTRAST_PAIRS))}
            # full-sample c1 vs c3 over every subject that has both conditions
            full = [
                (centroid_map[sid]["c1"][axis], centroid_map[sid]["c3"][axis])
                for sid in sorted(centroid_map)
                if "c1" in centroid_map[sid] and "c3" in centroid_map[sid]
            ]
            if len(full) >= 2:
                c = _contrast(*np.asarray(full).T)
                contrasts["c1_vs_c3_full"] = c and {**c, "n": len(full)}
            axis_report["contrasts"] = contrasts
        report[f"condition_effects_{axis.upper()}"] = axis_report

    report["trajectory_patterns"] = {
        "counts": dict(Counter(s["pattern"] for s in summaries if s["pattern"] is not None)),
        "subjects_without_pattern": [s["subject_id"] for s in summaries if s["pattern"] is None],
        "per_subject": summaries,
    }

    occupancy = {}
    for cond in CONDITIONS:
        u = np.concatenate([f.u[f.condition == cond] for f in folds]) if folds else np.empty(0)
        o = np.concatenate([f.o[f.condition == cond] for f in folds]) if folds else np.empty(0)
        occupancy[cond] = quadrant_occupancy(u, o) if len(u) else None
    report["quadrant_occupancy_by_condition"] = occupancy
    return report


def render_report(folds: list[FoldResult]) -> dict[str, str]:
    """Aggregate the folds once and return {name under the results
    directory: text} for ``stats.json`` (every statistic) and the
    ``report/`` tables and text."""
    summary = summary_table(folds)
    agg = aggregate_classification(folds)
    stats = {"summary": summary, "aggregate_classification": agg, **build_stats_report(folds)}
    rows = per_subject_rows(folds)
    return {
        "stats.json": json.dumps(stats, indent=2, sort_keys=True) + "\n",
        "report/table2_summary.csv": _table2(summary),
        "report/table3_per_subject.csv": _table3(rows),
        "report/table4_classification.csv": _table4(agg),
        "report/trajectory_distribution.csv": _trajectory_table(stats["trajectory_patterns"]),
        "report/report.txt": _render_text_report(stats, rows),
    }


def _fmt(v, digits=3) -> str:
    if v is None or (isinstance(v, float) and not np.isfinite(v)):
        return "n/a"
    return f"{v:.{digits}f}"


def _dist_cells(s: dict) -> list[str]:
    """Formatted mean, SD, median and range ends of one summary entry."""
    lo, hi = s["range"] or (None, None)
    return [_fmt(v) for v in (s["mean"], s["sd"], s["median"], lo, hi)]


def _text_table(header: list[str], rows: list[list[str]]) -> str:
    """A table of text cells, one list per row, in the one table format."""
    return format_table({name: np.array(cells, dtype=object) for name, cells in zip(header, zip(*rows))})


def _table2(summary: dict) -> str:
    rows = [[key, str(summary[key]["n"]), *_dist_cells(summary[key])] for key in SUMMARY_KEYS]
    return _text_table(["output", "n", "mean_ba", "sd", "median_ba", "range_lo", "range_hi"], rows)


def _table3(rows: list[dict]) -> str:
    cols = ["subject", "stress_ba", "effort_ba", "avg_ba", "stress_f1", "effort_f1", "n_eff"]
    return format_table({c: np.array([r[c] for r in rows]) for c in cols})


def _pooled_cells(a: dict) -> list[str]:
    """One head's formatted precision, recall, F1, per-class recalls and BA,
    all n/a when the head is undefined."""
    if a.get("undefined"):
        return ["n/a"] * 6
    return [*(_fmt(a[k]) for k in ("precision", "recall", "macro_f1")),
            _fmt(a["recall_low"], 2), _fmt(a["recall_high"], 2), _fmt(a["ba"])]


def _table4(agg: dict) -> str:
    rows = [[head, *_pooled_cells(agg[head]), str(agg[head]["n_total"])] for head in HEADS]
    return _text_table(["axis", "precision", "recall", "f1", "recall_low", "recall_high", "ba", "n_total"], rows)


def _pooled_line(head: str, a: dict) -> str:
    """One head's report.txt line on the pooled classification."""
    if a.get("undefined"):
        return f"  {head}: undefined (no complete folds)"
    p, r, f1, lo, hi, _ = _pooled_cells(a)
    return f"  {head}: precision={p} recall={r} F1={f1} recall_low={lo} recall_high={hi} n={a['n_total']}"


def _pattern_counts(patterns: dict) -> tuple[dict[str, int], int]:
    """Subjects per pattern, in pattern order, and the number of subjects
    with a pattern."""
    counts = {p.value: patterns["counts"].get(p.value, 0) for p in TrajectoryPattern}
    return counts, sum(counts.values())


def _trajectory_table(patterns: dict) -> str:
    counts, n_classified = _pattern_counts(patterns)
    rows = [[name, str(c), _fmt(c / n_classified if n_classified else 0.0)] for name, c in counts.items()]
    rows.append(["unclassified", str(len(patterns["subjects_without_pattern"])), "n/a"])
    return _text_table(["pattern", "count", "share_of_classified"], rows)


def _render_text_report(stats: dict, rows: list[dict]) -> str:
    lines = ["== Group summary (balanced accuracy) =="]
    for key in SUMMARY_KEYS:
        s = stats["summary"][key]
        mean, sd, median, lo, hi = _dist_cells(s)
        lines.append(
            f"  {key:14s} n={s['n']:2d} mean={mean} sd={sd} median={median} range=[{lo}, {hi}]"
        )
    for head in HEADS:
        t = stats[f"one_sample_vs_chance_{head}"]
        if t:
            lines.append(
                f"  {head} vs chance: t({t['df']})={t['t']:.2f}, p={t['p']:.2g}, d={t['cohens_d']:.2f}"
            )
    lines += ["", "== Per-subject (sorted by average BA) ==",
              "  subject  stress_ba  effort_ba  avg_ba  stress_f1  effort_f1  n_eff"]
    for r in rows:
        lines.append(
            f"  {r['subject']:8s} {_fmt(r['stress_ba']):>8s} {_fmt(r['effort_ba']):>9s} "
            f"{_fmt(r['avg_ba']):>7s} {_fmt(r['stress_f1']):>9s} {_fmt(r['effort_f1']):>9s} {r['n_eff']:5d}"
        )
    lines += ["", "== Aggregated per-class structure =="]
    lines += [_pooled_line(head, stats["aggregate_classification"][head]) for head in HEADS]
    lines += ["", "== Trajectory patterns =="]
    counts, n_classified = _pattern_counts(stats["trajectory_patterns"])
    for name, c in counts.items():
        lines.append(f"  {name:13s} {c:3d}" + (f"  ({100.0 * c / n_classified:.0f}%)" if n_classified else ""))
    missing = stats["trajectory_patterns"]["subjects_without_pattern"]
    if missing:
        lines.append(f"  no pattern (incomplete conditions): {', '.join(missing)}")
    if n_classified:
        theory = counts["monotonic"] + counts["rising"]
        lines.append(f"  theory-consistent (monotonic+rising): {theory}/{n_classified} "
                     f"({100.0 * theory / n_classified:.0f}%)")
    lines.append("")
    for axis in ("U", "O"):
        eff = stats[f"condition_effects_{axis}"]
        anova = eff.get("rm_anova")
        if anova:
            lines.append(
                f"== Condition effect on {axis} (RM-ANOVA, n={eff['n_complete_subjects']}) == "
                f"F({anova['df1']},{anova['df2']})={anova['F']:.2f}, p={anova['p']:.3g}, "
                f"eta_p^2={anova['partial_eta_sq']:.2f}"
            )
    return "\n".join(lines) + "\n"
