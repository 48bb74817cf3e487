"""Aggregation of fold results into summary tables and the statistics report."""

import numpy as np

from .loso import FoldResult
from .metrics import Metrics, metrics_from_confusion
from .stats import bonferroni, cohens_d, one_sample_t, paired_t, rm_anova_oneway
from .statespace import condition_centroids, quadrant_occupancy

CONDITIONS = ("c1", "c2", "c3")


def per_subject_rows(folds: list[FoldResult]) -> list[dict]:
    """Table-3-style rows sorted by descending average BA."""
    rows = []
    for f in folds:
        ba_s = f.ba("stress")
        ba_e = f.ba("effort")
        pair = [b for b in (ba_s, ba_e) if np.isfinite(b)]
        rows.append(
            {
                "subject": f.subject_id,
                "stress_ba": ba_s,
                "effort_ba": ba_e,
                "avg_ba": float(np.mean(pair)) if pair else float("nan"),
                "stress_f1": f.metrics["stress"].macro_f1 if f.metrics["stress"] else float("nan"),
                "effort_f1": f.metrics["effort"].macro_f1 if f.metrics["effort"] else float("nan"),
                "n_eff": f.n_eff,
            }
        )
    return sorted(rows, key=lambda r: (-(r["avg_ba"] if np.isfinite(r["avg_ba"]) else -1), r["subject"]))


def summary_table(folds: list[FoldResult]) -> dict:
    """Table-2-style group summary: mean/SD/median/range per head plus the
    joint average."""
    out = {}
    arrays = {}
    for head in ("stress", "effort"):
        vals = np.array([f.ba(head) for f in folds])
        vals = vals[np.isfinite(vals)]
        arrays[head] = vals
        out[head] = _dist_stats(vals)
    joint = []
    for f in folds:
        pair = [b for b in (f.ba("stress"), f.ba("effort")) if np.isfinite(b)]
        if pair:
            joint.append(float(np.mean(pair)))
    out["joint_average"] = _dist_stats(np.asarray(joint))
    return out


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
    for head in ("stress", "effort"):
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
            "recall": pooled.recall,
            "macro_f1": pooled.macro_f1,
        }
    return out


def trajectory_summaries(folds: list[FoldResult]) -> list:
    return [
        condition_centroids(f.subject_id, f.condition, f.u, f.o) for f in sorted(folds, key=lambda f: f.subject_id)
    ]


def build_stats_report(folds: list[FoldResult]) -> dict:
    """One-sample tests vs chance, per-axis RM-ANOVA over complete subjects,
    pairwise condition contrasts (complete-case and full-sample, labeled), the
    trajectory-pattern distribution, and per-condition quadrant occupancy."""
    report = {"n_folds": len(folds)}

    for head in ("stress", "effort"):
        vals = np.array([f.ba(head) for f in folds])
        vals = vals[np.isfinite(vals)]
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
    centroid_map = {}
    for s in summaries:
        centroid_map[s.subject_id] = s.centroids

    for axis in ("u", "o"):
        complete = [
            [centroid_map[sid][c][axis] for c in CONDITIONS]
            for sid in sorted(centroid_map)
            if all(c in centroid_map[sid] for c in CONDITIONS)
        ]
        axis_report = {"n_complete_subjects": len(complete)}
        if len(complete) >= 2:
            matrix = np.asarray(complete)
            try:
                axis_report["rm_anova"] = rm_anova_oneway(matrix).as_dict()
            except ValueError:
                axis_report["rm_anova"] = None
            contrasts = {}
            pairs = [("c1", "c2"), ("c1", "c3"), ("c2", "c3")]
            for a, b in pairs:
                ia, ib = CONDITIONS.index(a), CONDITIONS.index(b)
                try:
                    t, df, p = paired_t(matrix[:, ia], matrix[:, ib])
                    contrasts[f"{a}_vs_{b}_complete"] = {
                        "t": t, "df": df, "p": p, "p_bonferroni": bonferroni(p, len(pairs)),
                    }
                except ValueError:
                    contrasts[f"{a}_vs_{b}_complete"] = None
            # full-sample c1 vs c3 over every subject that has both conditions
            full = [
                (centroid_map[sid]["c1"][axis], centroid_map[sid]["c3"][axis])
                for sid in sorted(centroid_map)
                if "c1" in centroid_map[sid] and "c3" in centroid_map[sid]
            ]
            if len(full) >= 2:
                arr = np.asarray(full)
                try:
                    t, df, p = paired_t(arr[:, 0], arr[:, 1])
                    contrasts["c1_vs_c3_full"] = {"t": t, "df": df, "p": p, "n": len(full)}
                except ValueError:
                    contrasts["c1_vs_c3_full"] = None
            axis_report["contrasts"] = contrasts
        report[f"condition_effects_{axis.upper()}"] = axis_report

    patterns = {}
    missing = []
    for s in summaries:
        if s.pattern is None:
            missing.append(s.subject_id)
        else:
            patterns[s.pattern.value] = patterns.get(s.pattern.value, 0) + 1
    report["trajectory_patterns"] = {
        "counts": patterns,
        "subjects_without_pattern": missing,
        "per_subject": [s.as_dict() for s in summaries],
    }

    occupancy = {}
    for cond in CONDITIONS:
        u = np.concatenate([f.u[f.condition == cond] for f in folds]) if folds else np.empty(0)
        o = np.concatenate([f.o[f.condition == cond] for f in folds]) if folds else np.empty(0)
        occupancy[cond] = quadrant_occupancy(u, o) if len(u) else None
    report["quadrant_occupancy_by_condition"] = occupancy
    return report
