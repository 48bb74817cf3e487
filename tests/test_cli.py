"""CLI surface: config handling, command round-trips, digests, exit codes."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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
    read_fold_csv,
    read_table,
    read_windows_csv,
    read_windows_dir,
    write_fold_csv,
    write_history_csv,
    write_table,
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


def run_cli(tmp_path, command, *extra):
    args = [command, "--set", f"data_root={json.dumps(str(tmp_path / 'data'))}",
            "--set", f"output_root={json.dumps(str(tmp_path / 'out'))}", *FAST_OVERRIDES, *extra]
    return main(args)


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

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(PipelineConfig(), ["nope.key=1"])
        with pytest.raises(ConfigError):
            config_from_dict({"bogus": 1})

    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/definitely/not/here.json")

    def test_effective_arch_applies_ablation(self):
        """The ablation.* values set are folded into ``cfg.arch`` at load."""
        cfg = apply_overrides(
            PipelineConfig(),
            ["ablation.modalities=[\"ibi\"]", "ablation.backbone=\"tcn\"",
             "ablation.use_handcrafted_features=false"],
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
        and ablation.* wins when set."""
        assert PipelineConfig().arch == ArchConfig()

        def literal(value):
            return json.dumps(list(value) if isinstance(value, tuple) else value)

        cfg = apply_overrides(PipelineConfig(), [f"arch.{key}={literal(arch_value)}"])
        assert getattr(cfg.arch, key) == arch_value
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


def _history() -> TrainHistory:
    history = TrainHistory()
    history.append(1, 0.6931471805599453, 0.5, float("nan"), 2e-4)
    history.append(2, 1 / 3, 0.625, 0.75, 1e-4)
    return history


class TestWindowsCsv:
    @pytest.mark.parametrize("table", ["windows", "fold", "history"])
    def test_round_trip(self, tmp_path, table):
        """Write, read and write again: the values read back equal the ones
        written, and the two files are byte-identical."""
        make, write, read, write_again, values = {
            "windows": (lambda: make_feature_dataset(n_subjects=2, per_cond=3, seed=1),
                        write_windows_csv, read_windows_csv, write_windows_csv,
                        lambda ds: [ds.x_ibi, ds.x_eda, ds.f_hrv, ds.f_eda, ds.stress, ds.effort, ds.mask,
                                    ds.window_start_s, ds.subject, ds.condition]),
            "fold": (lambda: make_fold("s07", {"c1": (0.1, 0.7), "c2": (1 / 3, 2 / 3), "c3": (0.1 + 0.2, 1.0)}),
                     write_fold_csv, read_fold_csv, write_fold_csv,
                     lambda f: [[f.subject_id], f.condition, f.window_start_s, f.u, f.o, f.stress, f.effort, f.mask]),
            "history": (_history, write_history_csv, lambda p: read_table(p, HISTORY_COLUMNS), write_table,
                        lambda h: [[r[k] for r in h.rows] for k in HISTORY_COLUMNS] if isinstance(h, TrainHistory)
                        else list(h.values())),
        }[table]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        original = make()
        write(first, original)
        back = read(first)
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

        ds = read_windows_dir(out_dir / "windows")
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

        fold = read_fold_csv(folds[0])
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

    def test_sensitivity_scheme_changes_fold_labels(self, tmp_path):
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        assert run_cli(tmp_path, "evaluate") == 0
        base = read_fold_csv(next((tmp_path / "out" / "results").glob("fold_*.csv")))
        assert run_cli(tmp_path, "evaluate", "--set", 'sensitivity_scheme="c2_stress_low"') == 0
        flipped = read_fold_csv(next((tmp_path / "out" / "results").glob("fold_*.csv")))
        c2 = flipped.condition == "c2"
        assert np.all(flipped.stress[c2] == 0)
        assert np.any(base.stress[base.condition == "c2"] == 1)
        assert np.array_equal(flipped.mask, base.mask)

    def test_modality_ablation_probe(self, tmp_path):
        assert run_cli(tmp_path, "synth") == 0
        assert run_cli(tmp_path, "preprocess") == 0
        assert run_cli(tmp_path, "evaluate", "--set", 'ablation.modalities=["ibi"]') == 0
        base = {p.name: read_fold_csv(p) for p in (tmp_path / "out" / "results").glob("fold_*.csv")}
        # corrupt every EDA channel in the windows, re-evaluate: identical predictions
        windows_dir = tmp_path / "out" / "windows"
        for p in windows_dir.glob("windows_*.csv"):
            ds = read_windows_csv(p)
            ds.x_eda = ds.x_eda + 25.0
            ds.f_eda = np.abs(ds.f_eda * 3.0 + 1.0)
            write_windows_csv(p, ds)
        assert run_cli(tmp_path, "evaluate", "--set", 'ablation.modalities=["ibi"]') == 0
        for p in (tmp_path / "out" / "results").glob("fold_*.csv"):
            again = read_fold_csv(p)
            assert np.allclose(again.u, base[p.name].u, atol=1e-12)
            assert np.allclose(again.o, base[p.name].o, atol=1e-12)


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
        ("evaluate", 'ablation.modalities=["ecg"]', "ablation.modalities"),
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
        ("evaluate", 'ablation.modalities=["eda", "eda"]', "ablation.modalities must not repeat"),
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
        elif command == "report":  # folds to report on, and a file where report/ goes
            results.mkdir(parents=True)
            fold = make_fold("s00", {"c1": (0.2, 0.2), "c2": (0.4, 0.4), "c3": (0.6, 0.6)})
            write_fold_csv(results / "fold_s00.csv", fold)
            (results / "report").write_text("")
            key, target, extra = "output_root", results / "report", []
        else:
            if command == "preprocess":
                assert run_cli(tmp_path, "synth") == 0
            subdir = "windows" if command == "preprocess" else "results"
            key, target = "output_root", blocker / subdir
            extra = ["--set", f"output_root={json.dumps(str(blocker))}"]
        capsys.readouterr()
        assert run_cli(tmp_path, command, *extra) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: cannot create directory {target}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("command, target", [
        ("synth", "data/sessions.csv"),
        ("preprocess", "out/windows/windows_zz.csv"),
        ("evaluate", "out/results/fold_zz.csv"),
        ("report", "out/results/report/report.txt"),
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

    def test_synth_at_shortest_duration_preprocesses(self, tmp_path):
        shortest = min_synthetic_duration_s(WindowingPlan())
        assert run_cli(tmp_path, "synth", "--set", f"synth.duration_s={shortest}") == 0
        assert run_cli(tmp_path, "preprocess") == 0  # every recording holds a window
        assert len(read_windows_dir(tmp_path / "out" / "windows").subjects()) == 3

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

    def test_data_error_is_3(self, tmp_path):
        assert run_cli(tmp_path, "preprocess") == 3  # no synth tree yet
        assert not (tmp_path / "out").exists()  # no output directory before the inputs check out

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
        ):
            path = tmp_path / "data" / rel
            original = path.read_text()
            path.write_text("\n".join(corrupt(original.splitlines())) + "\n")
            capsys.readouterr()
            assert run_cli(tmp_path, "preprocess") == 3
            assert expect in capsys.readouterr().err
            path.write_text(original)

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
        assert sorted(calls) == [("load_recording", "RawRecording")] * 9 + [("read_sessions", "list")]

    def test_numerical_error_is_4(self, tmp_path, capsys):
        assert run_cli(tmp_path, "synth") == 0
        capsys.readouterr()
        assert run_cli(tmp_path, "preprocess", "--set", "cvxeda.max_iters=2") == 4
        err = capsys.readouterr().err
        assert ("subject sim01 condition c1 (sim01/ecg_c1.csv, sim01/eda_c1.csv): "
                "cvxeda_decompose: no convergence in 2 iterations") in err
        assert "Traceback" not in err
