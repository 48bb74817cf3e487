"""CLI surface: config handling, command round-trips, digests, exit codes."""

import builtins
import collections
import errno
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import threading
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import capstate
from capstate.cli import main
from capstate.config import (
    PipelineConfig,
    apply_overrides,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
)
from capstate.dsp import WindowingPlan
from capstate.errors import ConfigError, DataError
from capstate.model import ArchConfig
from capstate.model.network import MAX_PARAMETERS
from capstate.model.train import TrainHistory
from capstate.pipeline import min_synthetic_duration_s
from capstate.storage import (
    HISTORY_COLUMNS,
    format_table,
    read_fold_csv,
    read_table,
    read_windows_csv,
    read_windows_dir,
    write_fold_csv,
    write_history_csv,
    write_text,
    write_windows_csv,
)
from conftest import make_feature_dataset, make_fold

FAST_OVERRIDES = [
    "--set", "synth.n_subjects=3",
    "--set", "synth.duration_s=150",
    "--set", "ecg_nominal_hz=512",
    "--set", "train.max_epochs=4",
    "--set", "train.lr=0.002",
    "--set", "train.batch_size=32",
    "--set", "train.val_subjects=1",
    "--set", "train.early_stop_warmup=2",
    "--set", "train.early_stop_patience=2",
    "--set", "arch.conv_channels=4",
    "--set", "arch.lstm_hidden=6",
    "--set", "arch.feat_hidden=6",
    "--set", "arch.fusion_hidden=12",
    "--set", "arch.fusion_out=6",
    "--set", "arch.head_hidden=4",
]


def _denying(real_open, path):
    """``real_open``, but opening ``path`` raises PermissionError as it does
    for a file without read permission."""
    def open_(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(file))
        return real_open(file, *args, **kwargs)
    return open_


def _counting(real_open, opened):
    """``real_open``, noting in ``opened`` the path of each file it opens."""
    def open_(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)
    return open_


def _snapshot(root) -> dict:
    """Each path under ``root`` by name relative to it: a file's bytes, or None for a directory."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


def _cli_args(tmp_path, command, *extra):
    return [command, "--set", f"data_root={json.dumps(str(tmp_path / 'data'))}",
            "--set", f"output_root={json.dumps(str(tmp_path / 'out'))}", *FAST_OVERRIDES, *extra]


def run_cli(tmp_path, command, *extra):
    return main(_cli_args(tmp_path, command, *extra))


def run_cli_in_child(tmp_path, command, *extra, timeout_s=120):
    """``run_cli`` in a fresh interpreter that is killed after ``timeout_s``:
    (exit code, stderr). A stage that blocks, say on a FIFO it opened, then
    fails its test instead of stalling the suite."""
    src = str(Path(capstate.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "capstate.cli", *_cli_args(tmp_path, command, *extra)],
                         capture_output=True, text=True, timeout=timeout_s, env=dict(os.environ, PYTHONPATH=src))
    return out.returncode, out.stderr


class TestConfig:
    def test_round_trip(self):
        cfg = PipelineConfig(seed=7, normalization_mode="train_fold_stats")
        data = config_to_dict(cfg)
        back = config_from_dict(json.loads(json.dumps(data)))
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    def test_overrides(self):
        cfg = PipelineConfig()
        out = apply_overrides(cfg, ["train.lr=0.01", "arch.backbone=\"tcn\"", "seed=3"])
        assert out.train.lr == 0.01
        assert out.arch.backbone == "tcn"
        assert out.seed == 3

    def test_bare_string_override_is_a_json_string(self):
        """A value that is not a JSON literal is taken as the string it spells."""
        cfg = apply_overrides(PipelineConfig(), ["output_root=out"])
        assert cfg.output_root == "out"
        assert cfg == apply_overrides(PipelineConfig(), ['output_root="out"'])

    def test_override_of_the_wrong_type_names_the_union(self, tmp_path, capsys):
        assert main(["evaluate", "--set", f"output_root={json.dumps(str(tmp_path / 'out'))}",
                     "--set", "ablation.backbone=5"]) == 2
        err = capsys.readouterr().err
        assert "config error: ablation.backbone must be str or null, got 5" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(PipelineConfig(), ["nope.key=1"])
        with pytest.raises(ConfigError):
            config_from_dict({"bogus": 1})

    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/definitely/not/here.json")

    def test_effective_arch_applies_ablation(self):
        """A set ablation.backbone is folded into ``cfg.arch`` at load; the
        modality and feature ablations are spelled only as arch.* keys."""
        cfg = apply_overrides(
            PipelineConfig(),
            ["arch.modalities=[\"ibi\"]", "ablation.backbone=\"tcn\"", "arch.use_handcrafted_features=false"],
        )
        assert cfg.arch.modalities == ("ibi",)
        assert cfg.arch.backbone == "tcn"
        assert not cfg.arch.use_handcrafted_features
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_default_leaf_override_is_identity(self):
        """Every leaf key of the config, set to its own default, loads back
        to an equal config: each section and tuple field goes through the
        one loader without a hand-kept list."""
        default = PipelineConfig()

        def leaves(node, prefix=""):
            for key, value in node.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield f"{prefix}{key}", value

        keys = dict(leaves(config_to_dict(default)))
        assert {"arch.tcn_dilations", "arch.modalities", "synth.duration_s", "train.plateau_factor"} <= set(keys)
        for key, value in keys.items():
            assert apply_overrides(default, [f"{key}={json.dumps(value)}"]) == default, key

    @pytest.mark.parametrize("key, arch_value, ablation_value", [
        ("backbone", "tcn", "lstm"),
        ("modalities", ("ibi",), ("eda",)),
        ("use_handcrafted_features", False, True),
    ])
    def test_arch_key_reaches_effective_arch(self, key, arch_value, ablation_value):
        """``cfg.arch`` is the architecture a run trains: arch.* reaches it,
        ablation.backbone wins when set, and no other ablation.* key exists."""
        assert PipelineConfig().arch == ArchConfig()

        def literal(value):
            return json.dumps(list(value) if isinstance(value, tuple) else value)

        cfg = apply_overrides(PipelineConfig(), [f"arch.{key}={literal(arch_value)}"])
        assert getattr(cfg.arch, key) == arch_value
        if key != "backbone":
            with pytest.raises(ConfigError, match=f"unknown config key 'ablation.{key}'"):
                apply_overrides(cfg, [f"ablation.{key}={literal(ablation_value)}"])
            return
        cfg = apply_overrides(cfg, [f"ablation.{key}={literal(ablation_value)}"])
        assert getattr(cfg.arch, key) == ablation_value


@pytest.mark.parametrize("first", ["capstate.model", "capstate.evaluation", "capstate.storage",
                                   "capstate.pipeline", "capstate.cli", "capstate.ingest", "capstate.dsp"])
def test_numpy_is_the_only_runtime_dependency(first):
    """Every installed distribution that importing the package loads is numpy.

    Runs in a fresh interpreter, importing ``first`` before the rest: other
    tests import scipy into this one, and an import cycle fails only for
    some import orders."""
    code = "\n".join([
        "import sys, importlib.metadata as md",
        "before = set(sys.modules)",
        f"import {first}",
        "import capstate.cli, capstate.model, capstate.evaluation, capstate.storage, capstate.pipeline",
        "dists = md.packages_distributions()",
        "loaded = {d for m in set(sys.modules) - before for d in dists.get(m.split('.')[0], [])}",
        "print(sorted(loaded - {'numpy', 'capstate'}))",
    ])
    src = str(Path(capstate.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_perfbench_targets_resolve():
    """Every function the benchmark's traced run wraps still exists."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.targets()
    assert targets
    for module, attr, _, _ in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"


def test_readme_library_entry_points_import():
    """The python block under README's "Library entry points" runs in a
    fresh interpreter: every name it documents still exists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library entry points\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in code
    src = str(Path(capstate.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr


def _history() -> TrainHistory:
    history = TrainHistory()
    history.append(1, 0.6931471805599453, 0.5, float("nan"), 2e-4)
    history.append(2, 1 / 3, 0.625, 0.75, 1e-4)
    return history


class TestWindowsCsv:
    @pytest.mark.parametrize("table", ["windows", "fold", "history"])
    def test_round_trip(self, tmp_path, table):
        """Write, read and write again: the values read back equal the ones
        written, the two files are byte-identical, each write returns the
        sha256 of the bytes it wrote, and the read the sha256 of the bytes it
        parsed."""
        make, write, read, write_again, values = {
            "windows": (lambda: make_feature_dataset(n_subjects=2, per_cond=3, seed=1),
                        write_windows_csv, read_windows_csv, write_windows_csv,
                        lambda ds: [ds.x_ibi, ds.x_eda, ds.f_hrv, ds.f_eda, ds.stress, ds.effort, ds.mask,
                                    ds.window_start_s, ds.subject, ds.condition]),
            "fold": (lambda: make_fold("s07", {"c1": (0.1, 0.7), "c2": (1 / 3, 2 / 3), "c3": (0.1 + 0.2, 1.0)}),
                     write_fold_csv, read_fold_csv, write_fold_csv,
                     lambda f: [[f.subject_id], f.condition, f.window_start_s, f.u, f.o, f.stress, f.effort, f.mask]),
            "history": (_history, write_history_csv, lambda p: read_table(p, HISTORY_COLUMNS),
                        lambda p, columns: write_text(p, format_table(columns)),
                        lambda h: [[r[k] for r in h.rows] for k in HISTORY_COLUMNS] if isinstance(h, TrainHistory)
                        else list(h.values())),
        }[table]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        original = make()
        written = write(first, original)
        assert written == hashlib.sha256(first.read_bytes()).hexdigest()
        back, parsed = read(first)
        assert parsed == written
        for want, got in zip(values(original), values(back), strict=True):
            np.testing.assert_array_equal(got, want)
        write_again(second, back)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("content, expect", [
        (None, "missing file"),
        (b"epoch,lr\n1,0.1\n", "unexpected header"),
        (b"epoch,train_loss,val_ba_stress,val_ba_effort,lr\n", "no rows"),
        (b"epoch,train_loss,val_ba_stress,val_ba_effort,lr\n1,0.5,0.5,0.5\n", "line 2: 4 cells"),
        (b"epoch,train_loss,val_ba_stress,val_ba_effort,lr\n1.5,0.5,0.5,0.5,0.1\n", "column epoch"),
        (b"epoch,train_loss,val_ba_stress,val_ba_effort,lr\n99999999999999999999,0.5,0.5,0.5,0.1\n", "column epoch"),
        (b"\xff\xfe\n", "not a text file"),
    ], ids=["missing", "header", "no-rows", "width", "cell", "int-overflow", "binary"])
    def test_read_table_rejects(self, tmp_path, content, expect):
        path = tmp_path / "history_x.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match=expect) as err:
            read_table(path, HISTORY_COLUMNS)
        assert str(path) in str(err.value)


@pytest.mark.slow
class TestCommandChain:
    def test_full_chain_and_determinism(self, tmp_path, capsys):
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        out_dir = tmp_path / "out"
        manifest1 = json.loads((out_dir / "manifest_preprocess.json").read_text())
        # identical rerun -> identical digests
        assert run_cli(tmp_path, "preprocess") == 0
        manifest2 = json.loads((out_dir / "manifest_preprocess.json").read_text())
        assert manifest1["outputs"] == manifest2["outputs"]
        assert manifest1["inputs"] == manifest2["inputs"]
        assert manifest1["config_hash"] == manifest2["config_hash"]
        # the rerun kept one parsed-samples entry per recording CSV, named by its digest, and nothing else
        digests = [d for name, d in manifest2["inputs"].items() if name != "sessions.csv"]
        assert len(digests) == 18
        assert sorted(p.name for p in (out_dir / "parsed").iterdir()) == sorted(f"{d}.npy" for d in digests)

        ds, _ = read_windows_dir(out_dir / "windows")
        assert len(ds.subjects()) == 3

        results = out_dir / "results"
        results.mkdir()
        # folds left by an earlier run on another cohort must not reach the report
        write_fold_csv(results / "fold_ghost.csv", make_fold("ghost", {c: (0.5, 0.5) for c in ("c1", "c2", "c3")}))
        (results / "history_ghost.csv").write_text("epoch\n")
        assert run_cli(tmp_path, "evaluate") == 0
        assert not (results / "fold_ghost.csv").exists() and not (results / "history_ghost.csv").exists()
        folds = sorted(results.glob("fold_*.csv"))
        assert len(folds) == 3
        evaluated = json.loads((out_dir / "manifest_evaluate.json").read_text())["outputs"]
        assert sorted(evaluated) == sorted(f"results/{p.name}" for p in results.glob("*_*.csv"))
        assert not (results / "stats.json").exists()  # evaluate trains; report aggregates

        fold, _ = read_fold_csv(folds[0])
        assert np.all((fold.u >= 0) & (fold.u <= 1))

        assert run_cli(tmp_path, "report") == 0
        stats = json.loads((results / "stats.json").read_text())
        assert stats["n_folds"] == 3
        assert {"summary", "aggregate_classification", "trajectory_patterns"} <= set(stats)
        report_dir = results / "report"
        for name in (
            "report.txt",
            "table2_summary.csv",
            "table3_per_subject.csv",
            "table4_classification.csv",
            "trajectory_distribution.csv",
        ):
            assert (report_dir / name).exists(), name
        assert not (results / "summary.csv").exists()
        assert not (report_dir / "stats.json").exists()
        text = (report_dir / "report.txt").read_text()
        assert "Group summary" in text and "Trajectory patterns" in text
        reported = json.loads((results / "manifest_report.json").read_text())["outputs"]
        assert sorted(reported) == sorted(["stats.json", *(f"report/{p.name}" for p in report_dir.iterdir())])
        assert run_cli(tmp_path, "report") == 0
        assert json.loads((results / "manifest_report.json").read_text())["outputs"] == reported
        # every stage's manifest has one schema
        for stage, where in (("synth", tmp_path / "data"), ("preprocess", out_dir), ("evaluate", out_dir),
                             ("report", results)):
            manifest = json.loads((where / f"manifest_{stage}.json").read_text())
            assert set(manifest) == {"stage", "config_hash", "config", "seed", "started_at", "finished_at",
                                     "inputs", "outputs"}, stage
            assert manifest["stage"] == stage
            assert (datetime.fromisoformat(manifest["started_at"])
                    <= datetime.fromisoformat(manifest["finished_at"])), stage

    def test_warm_preprocess_parses_no_csv(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        first = json.loads((tmp_path / "out" / "manifest_preprocess.json").read_text())

        def no_parse(*args, **kwargs):
            raise AssertionError("a CSV was parsed on a warm run")

        monkeypatch.setattr(np, "loadtxt", no_parse)
        assert run_cli(tmp_path, "preprocess") == 0
        second = json.loads((tmp_path / "out" / "manifest_preprocess.json").read_text())
        assert second["inputs"] == first["inputs"]
        assert second["outputs"] == first["outputs"]

    def test_byte_order_mark_reads_as_without(self, tmp_path):
        """A tree whose sessions.csv and channel CSVs start with a UTF-8
        byte-order mark, as spreadsheet programs save them, gives the same
        window files as the tree without the mark."""
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        plain = json.loads((tmp_path / "out" / "manifest_preprocess.json").read_text())
        for name in plain["inputs"]:
            path = tmp_path / "data" / name
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run_cli(tmp_path, "preprocess") == 0
        marked = json.loads((tmp_path / "out" / "manifest_preprocess.json").read_text())
        assert marked["outputs"] == plain["outputs"]
        assert set(marked["inputs"]) == set(plain["inputs"])
        assert all(marked["inputs"][name] != digest for name, digest in plain["inputs"].items())

    def test_sensitivity_scheme_changes_fold_labels(self, tmp_path):
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        assert run_cli(tmp_path, "evaluate") == 0
        base, _ = read_fold_csv(next((tmp_path / "out" / "results").glob("fold_*.csv")))
        assert run_cli(tmp_path, "evaluate", "--set", 'sensitivity_scheme="c2_stress_low"') == 0
        flipped, _ = read_fold_csv(next((tmp_path / "out" / "results").glob("fold_*.csv")))
        c2 = flipped.condition == "c2"
        assert np.all(flipped.stress[c2] == 0)
        assert np.any(base.stress[base.condition == "c2"] == 1)
        assert np.array_equal(flipped.mask, base.mask)

    def test_modality_ablation_probe(self, tmp_path):
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        assert run_cli(tmp_path, "evaluate", "--set", 'arch.modalities=["ibi"]') == 0
        base = {p.name: read_fold_csv(p)[0] for p in (tmp_path / "out" / "results").glob("fold_*.csv")}
        # corrupt every EDA channel in the windows, re-evaluate: identical predictions
        windows_dir = tmp_path / "out" / "windows"
        for p in windows_dir.glob("windows_*.csv"):
            ds, _ = read_windows_csv(p)
            ds.x_eda = ds.x_eda + 25.0
            ds.f_eda = np.abs(ds.f_eda * 3.0 + 1.0)
            write_windows_csv(p, ds)
        assert run_cli(tmp_path, "evaluate", "--set", 'arch.modalities=["ibi"]') == 0
        for p in (tmp_path / "out" / "results").glob("fold_*.csv"):
            again, _ = read_fold_csv(p)
            assert np.allclose(again.u, base[p.name].u, atol=1e-12)
            assert np.allclose(again.o, base[p.name].o, atol=1e-12)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestStageInputs:
    """A stage's manifest lists exactly the files it read, each under the
    digest of the bytes it parsed, though the directory changes after the
    read and before the manifest is written."""

    def test_evaluate_records_the_windows_it_trained_on(self, tmp_path, monkeypatch):
        TestExitCodes._stage_inputs(tmp_path, "evaluate")
        windows = tmp_path / "out" / "windows"
        read = {f"windows/{p.name}": _sha256(p) for p in windows.glob("windows_*.csv")}
        real = capstate.config.make_stage_dir
        rewritten = windows / "windows_s01.csv"

        def make_stage_dir(path, key):  # evaluate makes results/ after reading the windows
            if Path(path).name == "results":
                (windows / "windows_zz.csv").write_bytes((windows / "windows_s00.csv").read_bytes())
                ds, _ = read_windows_csv(rewritten)
                ds.x_eda = ds.x_eda + 1.0
                write_windows_csv(rewritten, ds)
            return real(path, key)

        monkeypatch.setattr(capstate.config, "make_stage_dir", make_stage_dir)
        assert run_cli(tmp_path, "evaluate") == 0
        inputs = json.loads((tmp_path / "out" / "manifest_evaluate.json").read_text())["inputs"]
        assert "windows/windows_zz.csv" not in inputs
        assert _sha256(rewritten) != read["windows/windows_s01.csv"]
        assert inputs == read

    def test_report_records_the_folds_it_read(self, tmp_path, monkeypatch):
        TestExitCodes._stage_inputs(tmp_path, "report")
        results = tmp_path / "out" / "results"
        read = {p.name: _sha256(p) for p in results.glob("fold_*.csv")}
        real = capstate.storage.read_folds_dir

        def read_folds_dir(results_dir):
            out = real(results_dir)
            write_fold_csv(results / "fold_ghost.csv", make_fold("ghost", {c: (0.5, 0.5) for c in ("c1", "c2", "c3")}))
            write_fold_csv(results / "fold_s01.csv", make_fold("s01", {c: (0.9, 0.1) for c in ("c1", "c2", "c3")}))
            return out

        monkeypatch.setattr(capstate.storage, "read_folds_dir", read_folds_dir)
        assert run_cli(tmp_path, "report") == 0
        inputs = json.loads((results / "manifest_report.json").read_text())["inputs"]
        assert "fold_ghost.csv" not in inputs
        assert _sha256(results / "fold_s01.csv") != read["fold_s01.csv"]
        assert inputs == read


    def test_preprocess_records_the_bytes_it_windowed(self, tmp_path, monkeypatch):
        """An EDA CSV rewritten after the stage starts and before that file is
        parsed is recorded under the digest of the bytes whose samples are in
        the windows (told apart by clean runs on the old and the new bytes),
        and once the old bytes are back, a warm rerun gives a clean run's
        outputs."""
        assert run_cli(tmp_path, "synth") == 0
        rel = (tmp_path / "data" / "sessions.csv").read_text().splitlines()[1].split(",")[3]
        path = tmp_path / "data" / rel
        old = path.read_bytes()
        header, *rows = old.decode().splitlines()
        new = "".join(f"{line}\n" for line in [header, *(f"{t},{float(v) + 0.5!r}"
                                                         for t, v in (row.split(",") for row in rows))]).encode()

        def preprocess(out):
            assert run_cli(tmp_path, "preprocess", "--set", f"output_root={json.dumps(str(tmp_path / out))}") == 0
            return json.loads((tmp_path / out / "manifest_preprocess.json").read_text())

        path.write_bytes(new)
        clean_new = preprocess("clean_new")["outputs"]
        path.write_bytes(old)
        clean_old = preprocess("clean_old")["outputs"]
        assert clean_new != clean_old
        real = capstate.ingest.load_recording

        def load_recording(session, *args, **kwargs):
            if session.eda_file == rel:
                path.write_bytes(new)
            return real(session, *args, **kwargs)

        monkeypatch.setattr(capstate.ingest, "load_recording", load_recording)
        hooked = preprocess("out")
        monkeypatch.undo()
        assert hooked["outputs"] in (clean_old, clean_new)
        windowed = old if hooked["outputs"] == clean_old else new
        assert hooked["inputs"][rel] == hashlib.sha256(windowed).hexdigest()
        path.write_bytes(old)
        assert preprocess("out")["outputs"] == clean_old

    @staticmethod
    def _preprocess_opening(tmp_path, monkeypatch):
        """Run preprocess: its manifest's inputs, and how often it opened each
        file under ``data/``, by name relative to it."""
        opened, data = [], tmp_path / "data"
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", _counting(builtins.open, opened))
            patch.setattr(io, "open", _counting(io.open, opened))  # what pathlib opens with
            assert run_cli(tmp_path, "preprocess") == 0
        inputs = json.loads((tmp_path / "out" / "manifest_preprocess.json").read_text())["inputs"]
        return inputs, collections.Counter(Path(p).relative_to(data).as_posix() for p in opened
                                           if Path(p).is_relative_to(data))

    def test_preprocess_opens_each_input_once(self, tmp_path, monkeypatch):
        """Cold and warm, preprocess opens sessions.csv and each channel CSV
        exactly once."""
        assert run_cli(tmp_path, "synth") == 0
        for run in ("cold", "warm"):
            inputs, opened = self._preprocess_opening(tmp_path, monkeypatch)
            assert len(inputs) == 19 and opened == dict.fromkeys(inputs, 1), run


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        assert main(["evaluate", "--set", "not.a.key=1"]) == 2
        assert main(["synth", "--set", "synth.eda_rate_hz=64"]) == 2  # synthetic EDA is always 32 Hz
        assert main(["preprocess", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("command, override, key", [
        ("synth", "synth.duration_s=20", "duration_s"),
        ("evaluate", "train.batch_size=0", "batch_size"),
        ("evaluate", "train.max_epochs=0", "max_epochs"),
        ("evaluate", "arch.tcn_kernel=0", "tcn_kernel"),
        ("evaluate", 'normalization_mode="zz"', "normalization_mode"),
        ("evaluate", "arch.dropout_fusion=1.5", "dropout_fusion"),
        ("evaluate", "train.plateau_factor=2", "train.plateau_factor"),
        ("preprocess", "ecg_nominal_hz=0", "ecg_nominal_hz"),
        ("preprocess", "eda_nominal_hz=0", "eda_nominal_hz"),
        ("evaluate", "parallel_folds=0", "parallel_folds"),
        ("evaluate", f"parallel_folds={len(os.sched_getaffinity(0)) + 1}", "parallel_folds"),
        ("synth", "synth.duration_s=61", "synth.duration_s"),
        ("evaluate", 'ablation.backbone="gru"', "ablation.backbone"),
        ("evaluate", 'arch.modalities=["ecg"]', "arch.modalities"),
        # the modality and feature ablations have one spelling, arch.*
        ("evaluate", 'ablation.modalities=["ibi"]', "unknown config key 'ablation.modalities'"),
        ("evaluate", "ablation.use_handcrafted_features=false",
         "unknown config key 'ablation.use_handcrafted_features'"),
        ("preprocess", 'sensitivity_scheme="bogus"', "sensitivity_scheme"),
        # a value of the wrong JSON type
        ("synth", "data_root=5", "data_root must be str"),
        ("synth", "synth.n_subjects=1.5", "synth.n_subjects must be int"),
        ("evaluate", 'train.max_epochs="10"', "train.max_epochs must be int"),
        ("evaluate", "arch.use_handcrafted_features=1", "arch.use_handcrafted_features must be bool"),
        # solver, synthetic and training settings outside the range the code can run
        ("preprocess", "cvxeda.tonic_knot_spacing_s=0", "cvxeda.tonic_knot_spacing_s must be > 0"),
        ("preprocess", "cvxeda.tonic_knot_spacing_s=-5", "cvxeda.tonic_knot_spacing_s must be > 0"),
        ("preprocess", "cvxeda.tonic_knot_spacing_s=5e-324", "cvxeda.tonic_knot_spacing_s must be >= 1 s"),
        ("preprocess", "cvxeda.tonic_knot_spacing_s=0.01", "cvxeda.tonic_knot_spacing_s must be >= 1 s"),
        ("preprocess", "cvxeda.max_iters=-1", "cvxeda.max_iters must be >= 1"),
        ("synth", "synth.ecg_rate_hz=0", "synth.ecg_rate_hz must be > 0"),
        ("evaluate", "train.val_subjects=0", "train.val_subjects must be >= 1"),
        # architectures that would build a network with no TCN block or a negative conv stack
        ("evaluate", "arch.tcn_dilations=[]", "arch.tcn_dilations must be non-empty"),
        ("evaluate", "arch.conv_layers=-3", "arch.conv_layers must be >= 0"),
        # a modality run twice with one set of weights, and a dilation that is a bool
        ("evaluate", 'arch.modalities=["ibi", "ibi"]', "arch.modalities must not repeat"),
        ("evaluate", 'arch.modalities=["eda", "eda"]', "arch.modalities must not repeat"),
        ("evaluate", "arch.tcn_dilations=[true, 2]", "arch.tcn_dilations must be integers"),
        # a window too short for the features, and networks past MAX_PARAMETERS, refused at load on
        # an empty tree: arch.* is checked as given, then with the table's TCN ablation folded in
        ("preprocess", "windowing.window_len_samples=1", "windowing.window_len_samples must be >= 2"),
        ("evaluate", "arch.lstm_hidden=1000000",
         f"arch.* sizes imply 10,000,068,000,774 parameters, more than the bound of {MAX_PARAMETERS:,}"),
        # the ablation's fold-in names the arch section too; the id is the one the row had without it
        pytest.param("evaluate", "arch.tcn_channels=100000",
                     f"config error: arch.* sizes imply 540,007,800,774 parameters, more than the bound of "
                     f"{MAX_PARAMETERS:,}", id="evaluate-arch.tcn_channels=100000-sizes imply 540,007,800,774 "
                     f"parameters, more than the bound of {MAX_PARAMETERS:,}"),
        # training and solver settings with no meaning below their bound
        ("evaluate", "train.weight_decay=-1", "train.weight_decay must be >= 0"),
        ("evaluate", "train.lambda_effort=-2", "train.lambda_effort must be >= 0"),
        ("evaluate", "train.early_stop_warmup=-3", "train.early_stop_warmup must be >= 0"),
        ("evaluate", "train.early_stop_patience=-5", "train.early_stop_patience must be >= 1"),
        ("evaluate", "train.plateau_patience=-1", "train.plateau_patience must be >= 1"),
        ("preprocess", "cvxeda.tol_kkt=-1", "cvxeda.tol_kkt must be > 0"),
        ("preprocess", "cvxeda.tol_objective=-1", "cvxeda.tol_objective must be > 0"),
        # numbers that are not finite: json reads NaN and Infinity, 1e400 overflows to inf, and so
        # would a 401-digit integer once used as a float
        ("synth", "synth.duration_s=NaN", "synth.duration_s must be finite float, got nan"),
        ("evaluate", "train.lr=NaN", "train.lr must be finite float, got nan"),
        ("evaluate", "train.gamma=Infinity", "train.gamma must be finite float, got inf"),
        ("preprocess", "cvxeda.alpha=NaN", "cvxeda.alpha must be finite float, got nan"),
        ("preprocess", "ecg_nominal_hz=NaN", "ecg_nominal_hz must be finite float, got nan"),
        ("evaluate", "train.lr=1e400", "train.lr must be finite float, got inf"),
        pytest.param("synth", f"synth.duration_s=1{'0' * 400}", "synth.duration_s must be finite float, got 1000",
                     id="synth-synth.duration_s=1e400-as-int"),
    ])
    def test_out_of_range_config_is_2(self, tmp_path, capsys, command, override, key):
        assert run_cli(tmp_path, command, "--set", 'ablation.backbone="tcn"', "--set", override) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "data").exists() and not (tmp_path / "out").exists()  # checked before any stage

    @pytest.mark.parametrize("command", ["synth", "preprocess", "evaluate", "report"])
    def test_stage_dir_that_cannot_be_made_is_2(self, tmp_path, capsys, command):
        """A stage directory whose place a regular file holds exits 2, naming
        the config key and the directory, without a traceback."""
        blocker = tmp_path / "afile"
        blocker.write_text("")
        results = tmp_path / "out" / "results"
        if command == "synth":
            key, target = "data_root", blocker / "d"
            extra = ["--set", f"data_root={json.dumps(str(target))}"]
        elif command == "preprocess":
            assert run_cli(tmp_path, "synth") == 0
            key, target = "output_root", blocker / "windows"
            extra = ["--set", f"output_root={json.dumps(str(blocker))}"]
        else:  # the stage's inputs, and a file where its directory goes: it makes none before they check out
            self._stage_inputs(tmp_path, command)
            key, target, extra = "output_root", results if command == "evaluate" else results / "report", []
            target.write_text("")
        capsys.readouterr()
        assert run_cli(tmp_path, command, *extra) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: cannot create directory {target}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("command, target", [
        ("synth", "data/sessions.csv"),
        ("preprocess", "out/windows/windows_zz.csv"),
        ("evaluate", "out/results/fold_zz.csv"),
        ("report", "out/results/report/report.txt"),
        ("synth", "data/manifest_synth.json"),
        ("preprocess", "out/manifest_preprocess.json"),
        ("evaluate", "out/manifest_evaluate.json"),
        ("report", "out/results/manifest_report.json"),
    ])
    def test_directory_where_an_output_file_goes_is_2(self, tmp_path, capsys, command, target):
        """A directory where a stage deletes or writes an output file (a
        stale name, or the file itself) exits 2, naming the config key and
        the path, without a traceback."""
        self._stage_inputs(tmp_path, command)
        (tmp_path / target).mkdir(parents=True)
        capsys.readouterr()
        assert run_cli(tmp_path, command) == 2
        err = capsys.readouterr().err
        key = "data_root" if command == "synth" else "output_root"
        assert f"config error: {key}: cannot write {tmp_path / target}: " in err and "Traceback" not in err

    @staticmethod
    def _stage_inputs(tmp_path, command):
        """What ``command`` reads: a synthetic tree for preprocess, three
        subjects' window files for evaluate, their fold files for report."""
        ds = make_feature_dataset(n_subjects=3, per_cond=3)
        if command == "preprocess":
            assert run_cli(tmp_path, "synth") == 0
        elif command == "evaluate":
            windows = tmp_path / "out" / "windows"
            windows.mkdir(parents=True)
            for subject in ds.subjects():
                write_windows_csv(windows / f"windows_{subject}.csv", ds.select(np.nonzero(ds.subject == subject)[0]))
        elif command == "report":
            results = tmp_path / "out" / "results"
            results.mkdir(parents=True)
            for subject in ds.subjects():
                fold = make_fold(subject, {"c1": (0.2, 0.2), "c2": (0.4, 0.4), "c3": (0.6, 0.6)})
                write_fold_csv(results / f"fold_{subject}.csv", fold)

    @pytest.mark.parametrize("command, target", [
        ("evaluate", "out/windows/windows_zz.csv"),
        ("report", "out/results/fold_zz.csv"),
    ])
    def test_directory_among_the_input_files_is_3(self, tmp_path, capsys, command, target):
        """A directory named like a stage's input files exits 3, naming the
        path as not a regular file, without a traceback: the files are
        checked before they are digested."""
        self._stage_inputs(tmp_path, command)
        (tmp_path / target).mkdir()
        capsys.readouterr()
        assert run_cli(tmp_path, command) == 3
        err = capsys.readouterr().err
        assert f"data error: {tmp_path / target}: not a regular file" in err and "Traceback" not in err

    def test_directory_at_a_parsed_entry_is_2(self, tmp_path, capsys):
        """A directory where preprocess keeps a CSV's parsed samples exits 2,
        naming output_root and the entry, without a traceback."""
        self._stage_inputs(tmp_path, "preprocess")
        assert run_cli(tmp_path, "preprocess") == 0
        entry = sorted((tmp_path / "out" / "parsed").glob("*.npy"))[0]
        entry.unlink()
        entry.mkdir()
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess") == 2
        err = capsys.readouterr().err
        assert f"config error: output_root: cannot write {entry}: " in err and "Traceback" not in err

    def test_parsed_entry_that_cannot_be_deleted_is_2(self, tmp_path, capsys, monkeypatch):
        """A stale parsed entry that preprocess cannot delete exits 2, naming
        output_root and the entry, without a traceback. A root process is
        never denied, so the denial is simulated."""
        self._stage_inputs(tmp_path, "preprocess")
        assert run_cli(tmp_path, "preprocess") == 0
        stale = tmp_path / "out" / "parsed" / f"{'0' * 64}.npy"
        stale.write_bytes(b"")
        real_unlink = Path.unlink

        def unlink(path, *args, **kwargs):
            if path == stale:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", unlink)
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess") == 2
        err = capsys.readouterr().err
        assert f"config error: output_root: cannot write {stale}: Permission denied" in err and "Traceback" not in err

    @pytest.mark.parametrize("target, kind", [
        ("config", "directory"), ("config", "binary"), ("sessions", "directory"), ("sessions", "binary"),
        ("recording", "directory"),
    ])
    def test_unreadable_input_names_the_file(self, tmp_path, capsys, target, kind):
        """An input path that is a directory, or a file that is not UTF-8
        text, exits 2 (the config) or 3 (data), naming the path, without a
        traceback."""
        extra = []
        if target == "config":
            path, want = tmp_path / "run.json", 2
            extra = ["--config", str(path)]
        else:
            assert run_cli(tmp_path, "synth") == 0
            rel = "sessions.csv"
            if target == "recording":
                rel = (tmp_path / "data" / "sessions.csv").read_text().splitlines()[1].split(",")[2]
            path, want = tmp_path / "data" / rel, 3
            path.unlink()
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"subject_id,condition\n\xff\xfe\n")
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess", *extra) == want
        err = capsys.readouterr().err
        assert f"{path}" in err and "Traceback" not in err

    @pytest.mark.parametrize("fault", ["missing", "directory", "fifo", "long-name", "no-permission"])
    @pytest.mark.parametrize("kind", ["config", "sessions", "channel", "window", "fold"])
    def test_input_file_fault_names_the_file(self, tmp_path, capsys, monkeypatch, kind, fault):
        """Each kind of file a stage reads, under each fault that keeps it
        from being read, exits 2 (``--config``) or 3 (data), naming the path,
        without a traceback. The window and fold files are found by name
        pattern, so there a missing file and a name too long are links to
        nothing and to a 300-character name; no permission is simulated, as
        a root process is never denied."""
        command, path = self._input_of_kind(tmp_path, kind)
        extra = ["--config", str(path)] if kind == "config" else []
        if fault == "no-permission":
            monkeypatch.setattr(builtins, "open", _denying(builtins.open, path))
            monkeypatch.setattr(io, "open", _denying(io.open, path))  # what pathlib opens with
        else:
            path.unlink()
            if fault == "missing" and kind in ("window", "fold"):
                path.symlink_to(tmp_path / "gone.csv")
            elif fault == "directory":
                path.mkdir()
            elif fault == "fifo":
                os.mkfifo(path)
            elif fault == "long-name":
                path.symlink_to(tmp_path / ("n" * 300))
        if fault == "fifo":  # a stage that opened it would block
            rc, err = run_cli_in_child(tmp_path, command, *extra)
        else:
            capsys.readouterr()
            rc, err = run_cli(tmp_path, command, *extra), capsys.readouterr().err
        assert rc == (2 if kind == "config" else 3)
        says = {"missing": f"missing file: {path}", "directory": f"{path}: not a regular file",
                "fifo": f"{path}: not a regular file", "long-name": f"{path}: File name too long",
                "no-permission": f"{path}: Permission denied"}[fault]
        prefix = "config error: " if kind == "config" else "data error: "
        assert prefix + says in err and "Traceback" not in err

    @pytest.mark.parametrize("fault", ["missing", "directory", "fifo"])
    def test_input_file_fault_in_a_later_recording_is_3(self, tmp_path, fault):
        """The last session's ECG, hashed while earlier recordings are
        windowed, exits 3 under each fault with the message it has as the
        first session's file, without a traceback or a hang."""
        assert run_cli(tmp_path, "synth") == 0
        rel = (tmp_path / "data" / "sessions.csv").read_text().splitlines()[-1].split(",")[2]
        path = tmp_path / "data" / rel
        path.unlink()
        if fault == "directory":
            path.mkdir()
        elif fault == "fifo":
            os.mkfifo(path)
        rc, err = run_cli_in_child(tmp_path, "preprocess")
        says = f"missing file: {path}" if fault == "missing" else f"{path}: not a regular file"
        assert rc == 3 and f"data error: {says}" in err and "Traceback" not in err

    def test_earlier_recording_fault_is_reported_first(self, tmp_path, capsys):
        """A flat ECG in the first session is reported, not the second
        session's missing ECG, which the reading thread would reach next:
        faults surface in session order."""
        assert run_cli(tmp_path, "synth") == 0
        data = tmp_path / "data"
        first, second = [line.split(",")[2] for line in (data / "sessions.csv").read_text().splitlines()[1:3]]
        lines = (data / first).read_text().splitlines()
        (data / first).write_text("\n".join(lines[:1] + [line.split(",")[0] + ",0.0" for line in lines[1:]]) + "\n")
        (data / second).unlink()
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess") == 3
        err = capsys.readouterr().err
        assert f"data error: {data / first}: flat channel, every sample is 0.0" in err
        assert second not in err and "Traceback" not in err

    def test_preprocess_leaves_no_thread_running(self, tmp_path):
        """No thread outlives preprocess: not after a clean run, and not
        after the first file fails while the others are still being hashed."""
        assert run_cli(tmp_path, "synth") == 0
        before = threading.enumerate()
        assert run_cli(tmp_path, "preprocess") == 0
        assert [t for t in threading.enumerate() if t not in before] == []
        data = tmp_path / "data"
        (data / (data / "sessions.csv").read_text().splitlines()[1].split(",")[2]).unlink()
        assert run_cli(tmp_path, "preprocess") == 3
        assert [t for t in threading.enumerate() if t not in before] == []

    def test_input_path_with_a_long_name_is_named(self, tmp_path, capsys):
        """A 300-character name given directly, not through a link: a
        ``--config`` path, a data_root and an ``ecg_file`` in sessions.csv."""
        long = "n" * 300
        assert run_cli(tmp_path, "report", "--config", str(tmp_path / long)) == 2
        assert f"config error: {tmp_path / long}: File name too long" in capsys.readouterr().err
        assert run_cli(tmp_path, "preprocess", "--set", f"data_root={json.dumps(str(tmp_path / long))}") == 3
        assert f"data error: {tmp_path / long / 'sessions.csv'}: File name too long" in capsys.readouterr().err
        self._stage_inputs(tmp_path, "preprocess")
        sessions = tmp_path / "data" / "sessions.csv"
        rel = sessions.read_text().splitlines()[1].split(",")[2]
        sessions.write_text(sessions.read_text().replace(rel, long))
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess") == 3
        err = capsys.readouterr().err
        assert f"data error: {tmp_path / 'data' / long}: File name too long" in err and "Traceback" not in err

    def _input_of_kind(self, tmp_path, kind):
        """The command that reads a file of ``kind``, and that file's path,
        set up to hold valid contents."""
        if kind == "config":
            path = tmp_path / "run.json"
            path.write_text("{}\n")
            return "report", path
        if kind in ("sessions", "channel"):
            self._stage_inputs(tmp_path, "preprocess")
            rel = "sessions.csv"
            if kind == "channel":
                rel = (tmp_path / "data" / "sessions.csv").read_text().splitlines()[1].split(",")[2]
            return "preprocess", tmp_path / "data" / rel
        command = "evaluate" if kind == "window" else "report"
        self._stage_inputs(tmp_path, command)
        name = "windows/windows_s00.csv" if kind == "window" else "results/fold_s00.csv"
        return command, tmp_path / "out" / name

    def test_synth_at_shortest_duration_preprocesses(self, tmp_path):
        shortest = min_synthetic_duration_s(WindowingPlan())
        assert run_cli(tmp_path, "synth", "--set", f"synth.duration_s={shortest}") == 0
        assert run_cli(tmp_path, "preprocess") == 0  # every recording holds a window
        assert len(read_windows_dir(tmp_path / "out" / "windows")[0].subjects()) == 3

    def test_preprocess_removes_stale_windows(self, tmp_path):
        assert run_cli(tmp_path, "synth", "--set", "synth.n_subjects=4") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        sessions = tmp_path / "data" / "sessions.csv"
        sessions.write_text("".join(line for line in sessions.read_text().splitlines(keepends=True)
                                    if not line.startswith("sim04,")))
        assert run_cli(tmp_path, "preprocess") == 0
        manifest = json.loads((tmp_path / "out" / "manifest_preprocess.json").read_text())
        written = sorted(f"windows/{p.name}" for p in (tmp_path / "out" / "windows").glob("windows_*.csv"))
        assert written == sorted(manifest["outputs"]) == [f"windows/windows_sim0{i}.csv" for i in (1, 2, 3)]

    @pytest.mark.parametrize("text", ["subject_id,condition,ecg_file,eda_file\n", ""], ids=["header-only", "empty"])
    def test_sessions_without_rows_is_3(self, tmp_path, capsys, text):
        """A sessions.csv that lists no session exits 3, naming it, without a
        traceback, and leaves an earlier run's outputs as they were."""
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        out = tmp_path / "out"
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        sessions = tmp_path / "data" / "sessions.csv"
        sessions.write_text(text)
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess") == 3
        err = capsys.readouterr().err
        assert f"data error: {sessions}: no rows" in err and "Traceback" not in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_data_error_is_3(self, tmp_path):
        assert run_cli(tmp_path, "preprocess") == 3  # no synth tree yet
        assert not (tmp_path / "out").exists()  # no output directory before the inputs check out

    @pytest.mark.parametrize("case", ["invalid-json", "section-not-object", "override-without-equals",
                                      "config-name-with-nul", "sessions-row-without-eda-file",
                                      "report-without-folds", "evaluate-without-windows"])
    def test_documented_exit_names_the_key_or_file(self, tmp_path, capsys, case):
        """Each documented exit names the key or the file, without a
        traceback, and leaves ``output_root`` as empty as it found it: no
        stage makes an output directory before its inputs check out."""
        out, config = tmp_path / "out", tmp_path / "run.json"
        sessions = tmp_path / "data" / "sessions.csv"
        command, extra = "evaluate", []
        if case == "invalid-json":
            config.write_text('{"seed": ')
            extra, want, says = ["--config", str(config)], 2, f"config error: {config}: invalid JSON"
        elif case == "section-not-object":
            config.write_text('{"train": 3}')
            extra, want, says = ["--config", str(config)], 2, "config error: config section 'train' must be an object"
        elif case == "override-without-equals":
            extra, want, says = ["--set", "seed"], 2, "config error: override 'seed' must look like key=value"
        elif case == "config-name-with-nul":
            name = f"{config}\0b"
            extra, want, says = ["--config", name], 2, f"config error: {name}: embedded null byte"
        elif case == "sessions-row-without-eda-file":
            assert run_cli(tmp_path, "synth") == 0
            header, first, *rest = sessions.read_text().splitlines()
            sessions.write_text("\n".join([header, first.rsplit(",", 1)[0], *rest]) + "\n")
            command, want, says = "preprocess", 3, f"data error: {sessions}: malformed row 2"
        elif case == "report-without-folds":
            command, want, says = "report", 3, f"data error: no fold_*.csv files under {out / 'results'}"
        else:
            want, says = 3, f"data error: no windows_*.csv files under {out / 'windows'}"
        out.mkdir()
        capsys.readouterr()
        assert run_cli(tmp_path, command, *extra) == want
        err = capsys.readouterr().err
        assert says in err and "Traceback" not in err
        assert not any(out.iterdir())

    def test_corrupted_tree_is_3(self, tmp_path, capsys):
        assert run_cli(tmp_path, "synth") == 0
        self._assert_corruptions_are_3(tmp_path, capsys)

    def test_corrupted_tree_is_3_on_warm_cache(self, tmp_path, capsys):
        """The same faults, and a rate off nominal, give the same messages
        once a clean run has kept every CSV's parsed samples."""
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        self._assert_corruptions_are_3(tmp_path, capsys)
        ecg = (tmp_path / "data" / "sessions.csv").read_text().splitlines()[1].split(",")[2]
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess", "--set", "ecg_nominal_hz=1000") == 3
        assert f"{ecg}: rate mismatch, measured 512.00 Hz vs nominal 1000.00 Hz" in capsys.readouterr().err

    @staticmethod
    def _assert_corruptions_are_3(tmp_path, capsys):
        first = (tmp_path / "data" / "sessions.csv").read_text().splitlines()[1].split(",")
        subject, cond, ecg, eda = first
        (tmp_path / "data" / "link").symlink_to(subject, target_is_directory=True)
        for rel, corrupt, expect in (
            (eda, lambda lines: lines[:5] + [lines[5].split(",")[0] + ",nan"] + lines[6:],
             f"{eda}: non-finite sample on line 6"),
            (ecg, lambda lines: lines[:3] + [lines[3] + ",0.0"] + lines[4:], f"{ecg}: malformed line 4"),
            (ecg, lambda lines: lines[:1] + [line.split(",")[0] + ",0.0" for line in lines[1:]],
             f"{ecg}: flat channel, every sample is 0.0"),
            (eda, lambda lines: lines[:1] + [line.split(",")[0] + ",5.0" for line in lines[1:]],
             f"{eda}: flat channel, every sample is 5.0"),
            ("sessions.csv", lambda lines: lines[:1] + [lines[1].replace(f",{cond},", ",c9,")] + lines[2:],
             "sessions.csv: row 2: unknown condition 'c9'"),
            ("sessions.csv", lambda lines: lines[:1] + ['"sim,01"' + lines[1][len(subject):]] + lines[2:],
             "sessions.csv: row 2: subject id 'sim,01' holds a comma"),
            ("sessions.csv", lambda lines: lines[:1] + ['"sim""01"' + lines[1][len(subject):]] + lines[2:],
             "sessions.csv: row 2: subject id 'sim\"01' holds a comma, a double quote"),
            *(("sessions.csv", lambda lines, bad=bad: lines[:1] + [bad + lines[1][len(subject):]] + lines[2:],
               f"sessions.csv: row 2: subject id {bad!r} holds a comma, a double quote, a slash")
              for bad in ("sim/01", "sim\x0c01", "sim\u202801")),
            ("sessions.csv", lambda lines: lines + [f"{subject},{cond},{subject}/ecg_c2.csv,{subject}/eda_c2.csv"],
             f"sessions.csv: rows 2 and 11 both list subject '{subject}' condition {cond}"),
            ("sessions.csv", lambda lines: lines + [f"new01,{cond},{ecg},new01/eda_{cond}.csv"],
             f"sessions.csv: rows 2 and 11 both list file '{ecg}'"),
            ("sessions.csv", lambda lines: lines + [f"new01,{cond},new01/{cond}.csv,new01/{cond}.csv"],
             f"sessions.csv: row 11 lists file 'new01/{cond}.csv' as both ECG and EDA"),
            # no path can hold NUL: refused as a name, before any path is resolved
            ("sessions.csv", lambda lines: lines + [f"new01,{cond},new01/ecg\0.csv,new01/eda_{cond}.csv"],
             f"sessions.csv: row 11: file name {'new01/ecg' + chr(0) + '.csv'!r} holds a NUL character"),
            # two spellings of row 2's EDA file: a name is compared by the path it resolves to
            ("sessions.csv", lambda lines: lines + [f"new01,{cond},new01/ecg_{cond}.csv,./{eda}"],
             f"sessions.csv: rows 2 and 11 both list file '{eda}' (as './{eda}')"),
            ("sessions.csv", lambda lines: lines + [f"new01,{cond},new01/ecg_{cond}.csv,link{eda[len(subject):]}"],
             f"sessions.csv: rows 2 and 11 both list file '{eda}' (as 'link{eda[len(subject):]}')"),
        ):
            path = tmp_path / "data" / rel
            original = path.read_text()
            path.write_text("\n".join(corrupt(original.splitlines())) + "\n")
            before = _snapshot(tmp_path / "out")
            capsys.readouterr()
            assert run_cli(tmp_path, "preprocess") == 3
            assert expect in capsys.readouterr().err
            if rel == "sessions.csv":  # refused before any output is touched
                assert _snapshot(tmp_path / "out") == before
            path.write_text(original)

    def test_timestamps_whose_difference_overflows_are_3(self, tmp_path):
        """An ECG file whose two timestamps lie further apart than the largest
        float exits 3 naming it, and its error is the one line on stderr: run
        in a child, without pytest's warning filters, no numpy warning shows."""
        assert run_cli(tmp_path, "synth") == 0
        ecg = tmp_path / "data" / (tmp_path / "data" / "sessions.csv").read_text().splitlines()[1].split(",")[2]
        ecg.write_text("t_s,mv\n-2.9937604643020797e+292,0.0\n1.7976931348623155e+308,1.0\n")
        code, err = run_cli_in_child(tmp_path, "preprocess")
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith(f"data error: {ecg}: rate mismatch")

    def test_recording_without_a_window_is_3(self, tmp_path, capsys):
        assert run_cli(tmp_path, "synth") == 0
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess", "--set", "windowing.window_len_samples=1000") == 3
        err = capsys.readouterr().err
        assert "subject sim01 condition c1 (sim01/ecg_c1.csv, sim01/eda_c1.csv): " in err
        assert "fewer than one 1000-sample window" in err and "Traceback" not in err
        assert not list((tmp_path / "out" / "windows").glob("windows_*.csv"))

    def test_evaluate_unusable_cohort_is_3(self, tmp_path, capsys):
        windows = tmp_path / "out" / "windows"
        windows.mkdir(parents=True)
        ds = make_feature_dataset(n_subjects=3, per_cond=3)
        one_condition = ~((ds.subject == "s02") & (ds.condition != "c1"))
        everyone = np.ones(len(ds), dtype=bool)
        for rows, window_len, expect in (
            (ds.subject != "s02", {}, "LOSO needs at least 3 subjects, got 2: ['s00', 's01']"),
            (one_condition, {}, "subject 's02' has windows from fewer than 2 conditions: ['c1']"),
            # window files of two lengths, and window files with no series columns
            (everyone, {"s00": 8, "s01": 8, "s02": 6},
             f"{windows / 'windows_s02.csv'}: 6-sample windows, but {windows / 'windows_s00.csv'} "
             "has 8-sample windows"),
            (everyone, dict.fromkeys(ds.subjects(), 0), f"{windows / 'windows_s00.csv'}: no x_ibi_* series columns"),
        ):
            part = ds.select(np.nonzero(rows)[0])
            for p in windows.glob("windows_*.csv"):
                p.unlink()
            for subject in part.subjects():
                table = part.select(np.nonzero(part.subject == subject)[0])
                if subject in window_len:
                    table.x_ibi = table.x_ibi[:, : window_len[subject]]
                    table.x_eda = table.x_eda[:, : window_len[subject]]
                write_windows_csv(windows / f"windows_{subject}.csv", table)
            capsys.readouterr()
            assert run_cli(tmp_path, "evaluate") == 3
            err = capsys.readouterr().err
            assert expect in err and "Traceback" not in err

    @pytest.mark.parametrize("command, table, edits", [
        ("report", "fold", {"U": "1.5"}),
        ("report", "fold", {"U": "abc"}),
        ("evaluate", "windows", {"x_ibi_005": "nan"}),
        ("evaluate", "windows", {"stress": "7"}),
        ("evaluate", "windows", None),  # the row loses its last cell
        ("report", "fold", {"subject": "s09"}),
        ("evaluate", "windows", {"condition": "c9"}),
        ("evaluate", "windows", {"mask": "0"}),  # effort stays 0
        ("evaluate", "windows", {"mask": "2", "effort": "-1"}),
        ("report", "fold", {"stress_label": "7"}),
        ("report", "fold", {"mask": "5"}),
        ("report", "fold", {"mask": "0"}),  # effort_label stays 0
        ("report", "fold", {"condition": "c9"}),
        ("evaluate", "windows", {"hrv_mean_ibi_ms": "1e308"}),  # finite, but its fold SD overflows
    ], ids=["fold-U-1.5", "fold-U-abc", "windows-nan-series", "windows-stress-7", "windows-short-row",
            "fold-two-subjects", "windows-condition-c9", "windows-effort-without-mask", "windows-mask-2",
            "fold-stress-7", "fold-mask-5", "fold-effort-without-mask", "fold-condition-c9",
            "windows-feature-1e308"])
    def test_bad_table_is_3(self, tmp_path, capsys, command, table, edits):
        """One row of one subject's table is edited; the command exits 3,
        naming the file, without a traceback."""
        ds = make_feature_dataset(n_subjects=3, per_cond=3)
        directory = tmp_path / "out" / ("results" if table == "fold" else "windows")
        directory.mkdir(parents=True)
        for subject in ds.subjects():
            if table == "fold":
                write_fold_csv(directory / f"fold_{subject}.csv",
                               make_fold(subject, {"c1": (0.2, 0.2), "c2": (0.4, 0.4), "c3": (0.6, 0.6)}))
            else:
                write_windows_csv(directory / f"windows_{subject}.csv",
                                  ds.select(np.nonzero(ds.subject == subject)[0]))
        path = directory / f"{table}_s01.csv"
        header, *rows = path.read_text().splitlines()
        cells = rows[1].split(",")
        if edits is None:
            cells.pop()
        for column, value in (edits or {}).items():
            cells[header.split(",").index(column)] = value
        rows[1] = ",".join(cells)
        path.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert run_cli(tmp_path, command) == 3
        err = capsys.readouterr().err
        assert f"{path}: " in err and "Traceback" not in err

    def test_two_fold_files_of_one_subject_are_3(self, tmp_path, capsys):
        """A copy of a fold file, say a backup, would count its subject twice in
        the BA summary: report exits 3 naming both files and writes nothing."""
        self._stage_inputs(tmp_path, "report")
        results = tmp_path / "out" / "results"
        (results / "fold_s00_copy.csv").write_bytes((results / "fold_s00.csv").read_bytes())
        before = _snapshot(tmp_path / "out")
        capsys.readouterr()
        assert run_cli(tmp_path, "report") == 3
        err = capsys.readouterr().err
        assert (f"data error: {results / 'fold_s00.csv'} and {results / 'fold_s00_copy.csv'} "
                "both hold subject 's00'") in err and "Traceback" not in err
        assert _snapshot(tmp_path / "out") == before

    @pytest.mark.parametrize("case", ["backup-copy", "rows-of-other-subjects"])
    def test_two_window_files_of_one_subject_are_3(self, tmp_path, capsys, case):
        """A subject's windows come from one file: a backup copy, or a file
        that also holds rows of subjects other files hold, would count those
        windows twice, held out and in every other fold's training set.
        evaluate exits 3 naming both files and the first such subject in
        sorted order, and writes nothing."""
        self._stage_inputs(tmp_path, "evaluate")
        windows = tmp_path / "out" / "windows"
        if case == "backup-copy":
            second = windows / "windows_s00_copy.csv"
            second.write_bytes((windows / "windows_s00.csv").read_bytes())
        else:  # rows of s02, then of s01 and s00, which windows_s00.csv and windows_s01.csv hold
            ds = make_feature_dataset(n_subjects=3, per_cond=3)
            rows = np.concatenate([np.nonzero(ds.subject == s)[0] for s in ("s02", "s01", "s00")])
            second = windows / "windows_s02.csv"
            write_windows_csv(second, ds.select(rows))
        before = _snapshot(tmp_path / "out")
        capsys.readouterr()
        assert run_cli(tmp_path, "evaluate") == 3
        err = capsys.readouterr().err
        assert (f"data error: {windows / 'windows_s00.csv'} and {second} "
                "both hold subject 's00'") in err and "Traceback" not in err
        assert _snapshot(tmp_path / "out") == before

    def test_preprocess_reads_sessions_once(self, tmp_path, monkeypatch):
        import capstate.cli as cli_mod

        assert run_cli(tmp_path, "synth") == 0
        calls = []

        def counting(name):
            real = getattr(cli_mod.ingest, name)

            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                calls.append((name, type(out).__name__))
                return out

            return wrapper

        for name in ("read_sessions", "load_recording"):
            monkeypatch.setattr(cli_mod.ingest, name, counting(name))
        assert run_cli(tmp_path, "preprocess") == 0
        # 3 subjects x 3 conditions, each loaded through the module, one sessions.csv read
        assert sorted(calls) == [("load_recording", "RawRecording")] * 9 + [("read_sessions", "tuple")]

    def test_numerical_error_is_4(self, tmp_path, capsys):
        assert run_cli(tmp_path, "synth") == 0
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess", "--set", "cvxeda.max_iters=2") == 4
        err = capsys.readouterr().err
        assert ("subject sim01 condition c1 (sim01/ecg_c1.csv, sim01/eda_c1.csv): "
                "cvxeda_decompose: no convergence in 2 iterations") in err
        assert "Traceback" not in err
