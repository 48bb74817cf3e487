"""Operator CLI: synth, preprocess, evaluate, report.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Every stage writes a RunManifest with the resolved config hash and
sha256 digests of its inputs and outputs.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import ingest, pipeline, storage
from .errors import ConfigError, DataError, NumericalError
from .evaluation import report as repmod
from .evaluation.loso import run_loso
from .ingest import Condition


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capstate",
        description="Effort/stress capacity-state estimation from cardiac and electrodermal recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic dataset tree with demand-graded autonomic shifts"),
        ("preprocess", "signals -> windowed samples with handcrafted features"),
        ("evaluate", "leave-one-subject-out training and evaluation"),
        ("report", "consolidated tables and statistics from evaluation artifacts"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-key config override")
        p.add_argument("--seed", type=int, default=None, help="top-level seed override")
        p.add_argument("--parallel-folds", type=int, default=None)
        if name == "report":
            p.add_argument("--results-dir", type=str, default=None,
                           help="directory with fold_*.csv (default: <output_root>/results)")
    return parser


def _resolve_config(args) -> cfgmod.PipelineConfig:
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.PipelineConfig()
    if args.overrides:
        cfg = cfgmod.apply_overrides(cfg, args.overrides)
    extra = []
    if args.seed is not None:
        extra.append(f"seed={args.seed}")
    if args.parallel_folds is not None:
        extra.append(f"parallel_folds={args.parallel_folds}")
    if extra:
        cfg = cfgmod.apply_overrides(cfg, extra)
    return cfg


def cmd_synth(cfg: cfgmod.PipelineConfig) -> int:
    started = cfgmod.now_iso()
    root = Path(cfg.data_root)
    root.mkdir(parents=True, exist_ok=True)
    recs = pipeline.make_synthetic_recordings(
        cfg.synth.n_subjects,
        duration_s=cfg.synth.duration_s,
        seed=cfg.seed,
        ecg_rate_hz=cfg.synth.ecg_rate_hz,
    )
    rows = [ingest.write_recording_csvs(root, r.subject_id, r.condition, r) for r in recs]
    ingest.write_sessions_csv(root, rows)
    outputs = {"sessions.csv": cfgmod.sha256_file(root / "sessions.csv")}
    for row in rows:
        for key in ("ecg_file", "eda_file"):
            outputs[row[key]] = cfgmod.sha256_file(root / row[key])
    cfgmod.write_manifest(root, "synth", cfg, inputs={}, outputs=outputs, started_at=started)
    print(f"wrote {len(rows)} recordings for {cfg.synth.n_subjects} subjects under {root}")
    return 0


def cmd_preprocess(cfg: cfgmod.PipelineConfig) -> int:
    started = cfgmod.now_iso()
    root = Path(cfg.data_root)
    out_dir = Path(cfg.output_root) / "windows"
    out_dir.mkdir(parents=True, exist_ok=True)
    sessions = ingest.read_sessions(root)
    inputs = {"sessions.csv": cfgmod.sha256_file(sessions.path)}
    by_subject: dict[str, list] = {}
    for row in sessions.rows:
        subject = row["subject_id"]
        cond = Condition.parse(row["condition"])
        rec = ingest.load_recording(
            sessions, subject, cond,
            ecg_nominal_hz=cfg.ecg_nominal_hz,
            eda_nominal_hz=cfg.eda_nominal_hz,
        )
        inputs[row["ecg_file"]] = cfgmod.sha256_file(root / row["ecg_file"])
        inputs[row["eda_file"]] = cfgmod.sha256_file(root / row["eda_file"])
        where = f"subject {subject} condition {cond.value} ({row['ecg_file']}, {row['eda_file']})"
        try:
            part = pipeline.window_recording(
                rec,
                cfg.windowing,
                trim_head_s=cfg.trim_head_s,
                trim_tail_s=cfg.trim_tail_s,
                cvx_params=cfg.cvxeda,
            )
        except ValueError as exc:  # a signal the chain cannot use, e.g. a flat ECG
            raise DataError(f"{where}: {exc}") from exc
        except NumericalError as exc:
            raise NumericalError(f"{where}: {exc}") from exc
        by_subject.setdefault(subject, []).append(part)
    outputs = {}
    for subject in sorted(by_subject):
        ds = pipeline.concat_datasets(by_subject[subject])
        path = out_dir / f"windows_{subject}.csv"
        storage.write_windows_csv(path, ds)
        outputs[f"windows/{path.name}"] = cfgmod.sha256_file(path)
        print(f"{subject}: {len(ds)} windows")
    cfgmod.write_manifest(Path(cfg.output_root), "preprocess", cfg, inputs, outputs, started)
    return 0


def cmd_evaluate(cfg: cfgmod.PipelineConfig) -> int:
    started = cfgmod.now_iso()
    windows_dir = Path(cfg.output_root) / "windows"
    results_dir = Path(cfg.output_root) / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    inputs = {
        f"windows/{p.name}": cfgmod.sha256_file(p) for p in sorted(windows_dir.glob("windows_*.csv"))
    }
    dataset = storage.read_windows_dir(windows_dir)
    folds = run_loso(
        dataset,
        cfg.effective_arch(),
        cfg.effective_train(),
        normalization_mode=cfg.normalization_mode,
        scheme=cfg.label_scheme(),
        parallel_folds=cfg.parallel_folds,
    )
    outputs = {}
    for fold in folds:
        fpath = results_dir / f"fold_{fold.subject_id}.csv"
        storage.write_fold_csv(fpath, fold)
        outputs[f"results/{fpath.name}"] = cfgmod.sha256_file(fpath)
        hpath = results_dir / f"history_{fold.subject_id}.csv"
        fold.history.to_csv(hpath)
        outputs[f"results/{hpath.name}"] = cfgmod.sha256_file(hpath)
    rows = repmod.per_subject_rows(folds)
    storage.write_summary_csv(results_dir / "summary.csv", rows)
    outputs["results/summary.csv"] = cfgmod.sha256_file(results_dir / "summary.csv")
    stats = {
        "summary": repmod.summary_table(folds),
        "aggregate_classification": repmod.aggregate_classification(folds),
        **repmod.build_stats_report(folds),
    }
    (results_dir / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    outputs["results/stats.json"] = cfgmod.sha256_file(results_dir / "stats.json")
    cfgmod.write_manifest(Path(cfg.output_root), "evaluate", cfg, inputs, outputs, started)
    for row in rows:
        print(
            f"{row['subject']}: stress BA {row['stress_ba']:.3f} effort BA {row['effort_ba']:.3f}"
        )
    means = stats["summary"]
    print(
        f"mean stress BA {means['stress']['mean']:.3f}, mean effort BA {means['effort']['mean']:.3f}"
    )
    return 0


def cmd_report(cfg: cfgmod.PipelineConfig, results_dir: str | None) -> int:
    started = cfgmod.now_iso()
    rdir = Path(results_dir) if results_dir else Path(cfg.output_root) / "results"
    folds = storage.read_folds_dir(rdir)
    inputs = {p.name: cfgmod.sha256_file(p) for p in sorted(rdir.glob("fold_*.csv"))}

    summary = repmod.summary_table(folds)
    rows = repmod.per_subject_rows(folds)
    agg = repmod.aggregate_classification(folds)
    stats = repmod.build_stats_report(folds)

    out_dir = rdir / "report"
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_table2(out_dir / "table2_summary.csv", summary)
    storage.write_summary_csv(out_dir / "table3_per_subject.csv", rows)
    _write_table4(out_dir / "table4_classification.csv", agg)
    _write_trajectories(out_dir / "trajectory_distribution.csv", stats["trajectory_patterns"])
    (out_dir / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    text = _render_text_report(summary, rows, agg, stats)
    (out_dir / "report.txt").write_text(text)
    print(text)

    outputs = {f"report/{p.name}": cfgmod.sha256_file(p) for p in sorted(out_dir.iterdir())}
    cfgmod.write_manifest(rdir, "report", cfg, inputs, outputs, started)
    return 0


def _fmt(v, digits=3):
    if v is None:
        return "n/a"
    if isinstance(v, float) and not np.isfinite(v):
        return "n/a"
    return f"{v:.{digits}f}"


def _write_table2(path, summary):
    with open(path, "w") as fh:
        fh.write("output,n,mean_ba,sd,median_ba,range_lo,range_hi\n")
        for key, label in (("stress", "stress"), ("effort", "effort"), ("joint_average", "joint_average")):
            s = summary[key]
            rng = s["range"] or [None, None]
            fh.write(
                f"{label},{s['n']},{_fmt(s['mean'])},{_fmt(s['sd'])},{_fmt(s['median'])},"
                f"{_fmt(rng[0])},{_fmt(rng[1])}\n"
            )


def _write_table4(path, agg):
    with open(path, "w") as fh:
        fh.write("axis,precision,recall,f1,recall_low,recall_high,ba,n_total\n")
        for head in ("stress", "effort"):
            a = agg[head]
            if a.get("undefined"):
                fh.write(f"{head},n/a,n/a,n/a,n/a,n/a,n/a,{a['n_total']}\n")
            else:
                fh.write(
                    f"{head},{_fmt(a['precision'])},{_fmt(a['recall'])},{_fmt(a['macro_f1'])},"
                    f"{_fmt(a['recall_low'], 2)},{_fmt(a['recall_high'], 2)},{_fmt(a['ba'])},{a['n_total']}\n"
                )


def _write_trajectories(path, patterns):
    counts = patterns["counts"]
    n_classified = sum(counts.values())
    with open(path, "w") as fh:
        fh.write("pattern,count,share_of_classified\n")
        for name in ("monotonic", "rising", "peak_c2", "flat_ceiling", "inverted"):
            c = counts.get(name, 0)
            share = c / n_classified if n_classified else 0.0
            fh.write(f"{name},{c},{_fmt(share)}\n")
        fh.write(f"unclassified,{len(patterns['subjects_without_pattern'])},n/a\n")


def _render_text_report(summary, rows, agg, stats) -> str:
    lines = []
    lines.append("== Group summary (balanced accuracy) ==")
    for key in ("stress", "effort", "joint_average"):
        s = summary[key]
        rng = s["range"] or [None, None]
        lines.append(
            f"  {key:14s} n={s['n']:2d} mean={_fmt(s['mean'])} sd={_fmt(s['sd'])} "
            f"median={_fmt(s['median'])} range=[{_fmt(rng[0])}, {_fmt(rng[1])}]"
        )
    for head in ("stress", "effort"):
        t = stats.get(f"one_sample_vs_chance_{head}")
        if t:
            lines.append(
                f"  {head} vs chance: t({t['df']})={t['t']:.2f}, p={t['p']:.2g}, d={t['cohens_d']:.2f}"
            )
    lines.append("")
    lines.append("== Per-subject (sorted by average BA) ==")
    lines.append("  subject  stress_ba  effort_ba  avg_ba  stress_f1  effort_f1  n_eff")
    for r in rows:
        lines.append(
            f"  {r['subject']:8s} {_fmt(r['stress_ba']):>8s} {_fmt(r['effort_ba']):>9s} "
            f"{_fmt(r['avg_ba']):>7s} {_fmt(r['stress_f1']):>9s} {_fmt(r['effort_f1']):>9s} {r['n_eff']:5d}"
        )
    lines.append("")
    lines.append("== Aggregated per-class structure ==")
    for head in ("stress", "effort"):
        a = agg[head]
        if a.get("undefined"):
            lines.append(f"  {head}: undefined (no complete folds)")
        else:
            lines.append(
                f"  {head}: precision={_fmt(a['precision'])} recall={_fmt(a['recall'])} "
                f"F1={_fmt(a['macro_f1'])} recall_low={_fmt(a['recall_low'], 2)} "
                f"recall_high={_fmt(a['recall_high'], 2)} n={a['n_total']}"
            )
    lines.append("")
    lines.append("== Trajectory patterns ==")
    counts = stats["trajectory_patterns"]["counts"]
    n_classified = sum(counts.values())
    for name in ("monotonic", "rising", "peak_c2", "flat_ceiling", "inverted"):
        c = counts.get(name, 0)
        lines.append(f"  {name:13s} {c:3d}" + (f"  ({100.0 * c / n_classified:.0f}%)" if n_classified else ""))
    missing = stats["trajectory_patterns"]["subjects_without_pattern"]
    if missing:
        lines.append(f"  no pattern (incomplete conditions): {', '.join(missing)}")
    theory = counts.get("monotonic", 0) + counts.get("rising", 0)
    if n_classified:
        lines.append(f"  theory-consistent (monotonic+rising): {theory}/{n_classified} "
                     f"({100.0 * theory / n_classified:.0f}%)")
    lines.append("")
    for axis in ("U", "O"):
        eff = stats.get(f"condition_effects_{axis}", {})
        anova = eff.get("rm_anova")
        if anova:
            lines.append(
                f"== Condition effect on {axis} (RM-ANOVA, n={eff['n_complete_subjects']}) == "
                f"F({anova['df1']},{anova['df2']})={anova['F']:.2f}, p={anova['p']:.3g}, "
                f"eta_p^2={anova['partial_eta_sq']:.2f}"
            )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "preprocess":
            return cmd_preprocess(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "report":
            return cmd_report(cfg, args.results_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
