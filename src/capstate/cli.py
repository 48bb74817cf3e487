"""Operator CLI: synth, preprocess, evaluate, report.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Every file a stage reads goes through ``errors.read_input``, so a
``--config`` path that is missing, not a regular file, unreadable or holds
NUL exits 2, and such a data file exits 3, naming the path. Every stage
writes a RunManifest with the resolved config hash and sha256 digests of its
inputs and outputs. Each stage reads each input once and digests the bytes it
parses, so a file rewritten during a run is recorded by the bytes used.

Each command is straight-line calls on one ``config.Stage``, the one place
that knows where its manifest goes, which config key an output fault names
(exit 2) and the stale-file rule: outputs an earlier run left, which the
next stage would read, are deleted before the new ones are written.

``preprocess`` keeps each input CSV's parsed samples in
``<output_root>/parsed/<sha256>.npy``, keyed by the digest its manifest
records, so a rerun on unchanged files reads the entry instead of parsing the
CSV. Each run deletes every entry it did not use, and no other file there;
the directory is safe to delete.

Each channel CSV belongs to one session (``sessions.csv`` names it once,
compared by the path a name resolves to), so ``preprocess`` reads one
session's two files at a time. It reads and hashes the next session's files
on one helper thread while the main thread windows the current recording
(the read and the hash release the GIL), and the main thread checks and
parses those same bytes. Those reads start once the current session's bytes
are dropped, so at most one session's bytes are held. It takes a session's
bytes when it reaches that session, so a fault in a file is reported after
any earlier recording's fault, and the thread is gone when the stage returns
or fails. Every other call of the stage runs on the main thread.
"""

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import config as cfgmod
from . import ingest, pipeline, storage
from .errors import ConfigError, DataError, NumericalError, read_input
from .evaluation.loso import run_loso
from .evaluation.report import render_report
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
    stage = cfgmod.Stage("synth", cfg, cfg.data_root, key="data_root")
    root = stage.dir()
    recs = pipeline.make_synthetic_recordings(
        cfg.synth.n_subjects,
        duration_s=cfg.synth.duration_s,
        seed=cfg.seed,
        ecg_rate_hz=cfg.synth.ecg_rate_hz,
    )
    with stage.writing():
        rows = [ingest.write_recording_csvs(root, r.subject_id, r.condition, r) for r in recs]
        ingest.write_sessions_csv(root, rows)
        for rel in ["sessions.csv", *(row[key] for row in rows for key in ("ecg_file", "eda_file"))]:
            stage.outputs[rel] = cfgmod.sha256_file(root / rel)
    stage.finish()
    print(f"wrote {len(rows)} recordings for {cfg.synth.n_subjects} subjects under {root}")
    return 0


def cmd_preprocess(cfg: cfgmod.PipelineConfig) -> int:
    stage = cfgmod.Stage("preprocess", cfg, cfg.output_root)
    root = Path(cfg.data_root)
    sessions, stage.inputs["sessions.csv"] = ingest.read_sessions(root)
    stage.dir("windows")
    parsed_dir = stage.dir("parsed")
    by_subject: dict[str, list] = {}
    with ThreadPoolExecutor(max_workers=1) as reader:
        ahead = [reader.submit(read_input, root / rel) for rel in (sessions[0].ecg_file, sessions[0].eda_file)]
        for session, after in zip(sessions, [*sessions[1:], None]):
            files = [read.result() for read in ahead]  # a read's DataError, in session order
            stage.inputs[session.ecg_file], stage.inputs[session.eda_file] = (digest for _, digest in files)
            # an OSError here is a parsed entry's write: the inputs were read above
            with stage.writing():
                rec = ingest.load_recording(session, cfg.ecg_nominal_hz, cfg.eda_nominal_hz, files, parsed_dir)
            del files, ahead  # this session's bytes go before the next session's are read
            if after:  # read while this recording is windowed
                ahead = [reader.submit(read_input, root / rel) for rel in (after.ecg_file, after.eda_file)]
            where = (f"subject {session.subject_id} condition {session.condition.value} "
                     f"({session.ecg_file}, {session.eda_file})")
            try:
                part = pipeline.window_recording(rec, cfg.windowing, cfg.cvxeda)
            except ValueError as exc:  # a signal the chain cannot use, e.g. a flat ECG
                raise DataError(f"{where}: {exc}") from exc
            except NumericalError as exc:
                raise NumericalError(f"{where}: {exc}") from exc
            by_subject.setdefault(session.subject_id, []).append(part)
    with stage.writing():  # drop the entries of files since edited or dropped
        ingest.prune_parsed(parsed_dir, (stage.inputs[rel] for s in sessions for rel in (s.ecg_file, s.eda_file)))
    stage.clear("windows", "windows_*.csv")  # evaluate trains on every windows_*.csv it finds
    for subject in sorted(by_subject):
        ds = pipeline.concat_datasets(by_subject[subject])
        stage.write(f"windows/windows_{subject}.csv", storage.write_windows_csv, ds)
        print(f"{subject}: {len(ds)} windows")
    stage.finish()
    return 0


def cmd_evaluate(cfg: cfgmod.PipelineConfig) -> int:
    stage = cfgmod.Stage("evaluate", cfg, cfg.output_root)
    dataset, digests = storage.read_windows_dir(stage.root / "windows")
    stage.inputs = {f"windows/{name}": digest for name, digest in digests.items()}
    stage.dir("results")
    folds = run_loso(
        dataset,
        cfg.arch,
        cfg.train,
        normalization_mode=cfg.normalization_mode,
        scheme=LabelScheme(cfg.sensitivity_scheme),
        parallel_folds=cfg.parallel_folds,
        seed=cfg.seed,
    )
    stage.clear("results", "fold_*.csv", "history_*.csv")  # report aggregates every fold_*.csv it finds
    for fold in folds:
        stage.write(f"results/fold_{fold.subject_id}.csv", storage.write_fold_csv, fold)
        stage.write(f"results/history_{fold.subject_id}.csv", storage.write_history_csv, fold.history)
        print(f"{fold.subject_id}: stress BA {fold.ba('stress'):.3f} effort BA {fold.ba('effort'):.3f}")
    stage.finish()
    return 0


def cmd_report(cfg: cfgmod.PipelineConfig) -> int:
    stage = cfgmod.Stage("report", cfg, Path(cfg.output_root) / "results")
    folds, stage.inputs = storage.read_folds_dir(stage.root)
    stage.dir("report")
    texts = render_report(folds)
    for name, text in texts.items():
        stage.write(name, storage.write_text, text)
    stage.finish()
    print(texts["report/report.txt"])
    return 0


# each error a stage raises: its exit code and the start of its line on stderr
_EXITS = {ConfigError: (2, "config error"), DataError: (3, "data error"), NumericalError: (4, "numerical failure")}


def main(argv=None) -> int:
    keep_heap()  # for the whole process, so callers of main in it keep the policy too
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        command = {"synth": cmd_synth, "preprocess": cmd_preprocess, "evaluate": cmd_evaluate, "report": cmd_report}
        return command[args.command](cfg)  # argparse has rejected any other name
    except tuple(_EXITS) as exc:
        code, prefix = _EXITS[type(exc)]
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
