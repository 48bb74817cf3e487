"""Operator CLI: synth, preprocess, evaluate, report.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Every stage writes a RunManifest with the resolved config hash and
sha256 digests of its inputs and outputs.

``preprocess`` keeps each input CSV's parsed samples in
``<output_root>/parsed/<sha256>.npy``, keyed by the digest its manifest
records, so a rerun on unchanged files reads the entry instead of parsing the
CSV. Each run deletes every entry it did not use, and no other file there;
the directory is safe to delete.
"""

import argparse
import sys
from pathlib import Path

from . import config as cfgmod
from . import ingest, pipeline, storage
from .errors import ConfigError, DataError, NumericalError
from .evaluation.loso import run_loso
from .evaluation.report import write_report
from .heap import keep_heap
from .ingest import LabelScheme


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
    return parser


def _resolve_config(args) -> cfgmod.PipelineConfig:
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.PipelineConfig()
    return cfgmod.apply_overrides(cfg, args.overrides)


def cmd_synth(cfg: cfgmod.PipelineConfig) -> int:
    shortest = pipeline.min_synthetic_duration_s(cfg.windowing)
    if cfg.synth.duration_s < shortest:
        raise ConfigError(f"synth.duration_s must be >= {shortest:g}, the shortest synthetic recording "
                          f"that preprocesses into one {cfg.windowing.window_len_samples}-sample window")
    started = cfgmod.now_iso()
    root = cfgmod.make_stage_dir(cfg.data_root, "data_root")
    recs = pipeline.make_synthetic_recordings(
        cfg.synth.n_subjects,
        duration_s=cfg.synth.duration_s,
        seed=cfg.seed,
        ecg_rate_hz=cfg.synth.ecg_rate_hz,
    )
    with cfgmod.stage_outputs("data_root"):
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
    sessions = ingest.read_sessions(root)
    out_dir = cfgmod.make_stage_dir(Path(cfg.output_root) / "windows", "output_root")
    parsed_dir = cfgmod.make_stage_dir(Path(cfg.output_root) / "parsed", "output_root")
    inputs = {"sessions.csv": cfgmod.sha256_file(root / "sessions.csv")}
    parsed = {}  # CSV path -> the entry keeping its parsed samples
    by_subject: dict[str, list] = {}
    for session in sessions:
        for rel in (session.ecg_file, session.eda_file):
            path = root / rel
            if path.is_file():  # else load_recording names the missing file
                inputs[rel] = cfgmod.sha256_file(path)
                parsed[path] = ingest.parsed_entry(parsed_dir, inputs[rel])
        # an OSError here is a parsed entry's write: each input it opens was read whole by its digest above
        with cfgmod.stage_outputs("output_root"):
            rec = ingest.load_recording(session, cfg.ecg_nominal_hz, cfg.eda_nominal_hz, parsed)
        where = (f"subject {session.subject_id} condition {session.condition.value} "
                 f"({session.ecg_file}, {session.eda_file})")
        try:
            part = pipeline.window_recording(rec, cfg.windowing, cfg.cvxeda)
        except ValueError as exc:  # a signal the chain cannot use, e.g. a flat ECG
            raise DataError(f"{where}: {exc}") from exc
        except NumericalError as exc:
            raise NumericalError(f"{where}: {exc}") from exc
        by_subject.setdefault(session.subject_id, []).append(part)
    ingest.prune_parsed(parsed_dir, set(parsed.values()))  # entries of files since edited or dropped
    with cfgmod.stage_outputs("output_root"):
        for stale in out_dir.glob("windows_*.csv"):
            stale.unlink()  # evaluate trains on every windows_*.csv it finds
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
    results_dir = cfgmod.make_stage_dir(Path(cfg.output_root) / "results", "output_root")
    dataset = storage.read_windows_dir(windows_dir)  # checks each file before it is digested
    inputs = {f"windows/{p.name}": cfgmod.sha256_file(p) for p in sorted(windows_dir.glob("windows_*.csv"))}
    folds = run_loso(
        dataset,
        cfg.arch,
        cfg.train,
        normalization_mode=cfg.normalization_mode,
        scheme=LabelScheme(cfg.sensitivity_scheme),
        parallel_folds=cfg.parallel_folds,
        seed=cfg.seed,
    )
    with cfgmod.stage_outputs("output_root"):
        for stale in [*results_dir.glob("fold_*.csv"), *results_dir.glob("history_*.csv")]:
            stale.unlink()  # report aggregates every fold_*.csv it finds
        outputs = {}
        for fold in folds:
            fpath = results_dir / f"fold_{fold.subject_id}.csv"
            storage.write_fold_csv(fpath, fold)
            outputs[f"results/{fpath.name}"] = cfgmod.sha256_file(fpath)
            hpath = results_dir / f"history_{fold.subject_id}.csv"
            storage.write_history_csv(hpath, fold.history)
            outputs[f"results/{hpath.name}"] = cfgmod.sha256_file(hpath)
            print(f"{fold.subject_id}: stress BA {fold.ba('stress'):.3f} effort BA {fold.ba('effort'):.3f}")
        cfgmod.write_manifest(Path(cfg.output_root), "evaluate", cfg, inputs, outputs, started)
    return 0


def cmd_report(cfg: cfgmod.PipelineConfig) -> int:
    started = cfgmod.now_iso()
    rdir = Path(cfg.output_root) / "results"
    folds = storage.read_folds_dir(rdir)
    inputs = {p.name: cfgmod.sha256_file(p) for p in sorted(rdir.glob("fold_*.csv"))}
    cfgmod.make_stage_dir(rdir / "report", "output_root")
    with cfgmod.stage_outputs("output_root"):
        paths = write_report(folds, rdir)
        outputs = {name: cfgmod.sha256_file(path) for name, path in sorted(paths.items())}
        cfgmod.write_manifest(rdir, "report", cfg, inputs, outputs, started)
    print(paths["report/report.txt"].read_text())
    return 0


def main(argv=None) -> int:
    keep_heap()  # for the whole process, so callers of main in it keep the policy too
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
            return cmd_report(cfg)
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
