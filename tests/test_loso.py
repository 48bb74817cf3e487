"""LOSO protocol: fold structure, leakage isolation, sensitivity harness, and
the pipeline integration from raw synthetic recordings."""

import numpy as np
import pytest

from capstate.cardiac import build_ibi, detect_r_peaks, ibi_to_uniform
from capstate.dsp import UniformSeries, WindowingPlan
from capstate.eda import preprocess_eda
from capstate.errors import DataError
from capstate.evaluation import run_loso
from capstate.evaluation.report import build_stats_report, per_subject_rows, summary_table
from capstate.ingest import Condition, LabelScheme, generate_synthetic_recording, relabel_stress
from capstate.metrics import head_metrics
from capstate.model import ArchConfig, TrainConfig
from capstate.pipeline import (
    WindowedDataset,
    apply_fold_transform,
    build_dataset,
    fit_fold_transform,
    make_synthetic_recordings,
    synthetic_condition_spec,
    window_recording,
)
from conftest import TINY_ARCH, make_feature_dataset, make_fold

FAST_ARCH = ArchConfig(**TINY_ARCH)
FAST_CFG = TrainConfig(
    max_epochs=6, lr=2e-3, batch_size=32, early_stop_warmup=3, early_stop_patience=3,
    val_subjects=1,
)
FAST_SEED = 5


class TestRunLoso:
    def test_one_fold_per_subject(self):
        ds = make_feature_dataset(n_subjects=4, per_cond=6, seed=1)
        folds = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED)
        assert [f.subject_id for f in folds] == ds.subjects()
        for f in folds:
            assert f.subject_id not in f.audit["train_subjects"]
            assert f.subject_id not in f.audit["val_subjects"]
            assert len(f.u) == (ds.subject == f.subject_id).sum()
            assert f.n_eff == int(ds.mask[ds.subject == f.subject_id].sum())

    def test_too_few_subjects_rejected(self):
        ds = make_feature_dataset(n_subjects=2, per_cond=4)
        with pytest.raises(DataError, match="at least 3 subjects, got 2"):
            run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED)

    def test_single_condition_subject_rejected(self):
        ds = make_feature_dataset(n_subjects=3, per_cond=4)
        keep = ~((ds.subject == "s00") & (ds.condition != "c1"))
        with pytest.raises(DataError, match="subject 's00' has windows from fewer than 2 conditions"):
            run_loso(ds.select(np.nonzero(keep)[0]), FAST_ARCH, FAST_CFG, seed=FAST_SEED)

    def test_no_viable_validation_split_names_fold(self):
        # c2 and c3 windows only: stress is always high and effort always high once
        # masked, so no inner validation subject has two classes on either head
        ds = make_feature_dataset(n_subjects=3, per_cond=4)
        keep = np.nonzero(ds.condition != "c1")[0]
        with pytest.raises(DataError, match="no viable inner validation split for fold 's00'"):
            run_loso(ds.select(keep), FAST_ARCH, FAST_CFG, seed=FAST_SEED)

    def test_deterministic(self):
        ds = make_feature_dataset(n_subjects=3, per_cond=5, seed=3)
        f1 = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED)
        f2 = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED)
        for a, b in zip(f1, f2):
            assert np.array_equal(a.u, b.u)
            assert a.audit["params_digest"] == b.audit["params_digest"]

    def test_parallel_folds_match_sequential(self):
        ds = make_feature_dataset(n_subjects=3, per_cond=5, seed=3)
        seq = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED, parallel_folds=1)
        par = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED, parallel_folds=2)
        for a, b in zip(seq, par):
            assert a.subject_id == b.subject_id
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.o, b.o)


class TestLeakage:
    def test_heldout_perturbation_affects_exactly_one_fold(self):
        ds = make_feature_dataset(n_subjects=4, per_cond=6, seed=2)
        target = ds.subjects()[1]

        def corrupt(held: WindowedDataset) -> WindowedDataset:
            out = held.select(np.arange(len(held)))
            out.x_ibi = out.x_ibi + 3.0
            out.f_hrv = out.f_hrv * 1.7 + 0.5
            return out

        def corrupt_if_target(held):
            return corrupt(held) if held.subject[0] == target else held

        base = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED)
        pert = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED, heldout_perturbation=corrupt_if_target)
        for b, p in zip(base, pert):
            # training never sees the eval copy: parameters identical everywhere
            assert b.audit["params_digest"] == p.audit["params_digest"], b.subject_id
            assert b.audit["log_flags"].tolist() == p.audit["log_flags"].tolist()
            if b.subject_id == target:
                assert not np.array_equal(b.u, p.u)
            else:
                assert np.array_equal(b.u, p.u)
                assert np.array_equal(b.o, p.o)

    def test_log_flags_exclude_heldout(self):
        ds = make_feature_dataset(n_subjects=4, per_cond=6, seed=7)
        held = ds.subjects()[0]
        train = ds.for_subjects([s for s in ds.subjects() if s != held])
        flags_train_only = fit_fold_transform(train).log_transform.flags
        # fitting on train data is unaffected by whatever the held-out rows contain
        ds2 = ds.select(np.arange(len(ds)))
        ds2.f_eda = ds2.f_eda.copy()
        ds2.f_eda[ds2.subject == held] *= 100.0
        train2 = ds2.for_subjects([s for s in ds2.subjects() if s != held])
        assert fit_fold_transform(train2).log_transform.flags.tolist() == flags_train_only.tolist()

    def test_pooled_stats_exclude_heldout(self):
        ds = make_feature_dataset(n_subjects=4, per_cond=6, seed=8)
        held = ds.subjects()[0]
        train = ds.for_subjects([s for s in ds.subjects() if s != held])
        tr = fit_fold_transform(train, "train_fold_stats")
        mu, sd = tr.pooled_stats["f_hrv"]
        mu2 = train.f_hrv.mean(axis=0)
        assert np.allclose(mu, mu2)
        held_ds = ds.for_subjects([held])
        out = apply_fold_transform(held_ds, tr)
        assert np.allclose(out.f_hrv, (held_ds.f_hrv - mu) / sd)


class TestFoldTransform:
    def test_self_per_subject_zscores_features_and_series(self):
        ds = make_feature_dataset(n_subjects=3, per_cond=5, seed=9)
        ds.f_hrv[:, 3] = 7.0  # a constant column maps to 0
        out = apply_fold_transform(ds, fit_fold_transform(ds, "self_per_subject"))
        for subj in ds.subjects():
            rows = ds.subject == subj
            for name in ("f_hrv", "f_eda"):
                block = getattr(out, name)[rows]
                const = getattr(ds, name)[rows].std(axis=0) == 0
                assert np.allclose(block.mean(axis=0), 0.0, atol=1e-12)
                assert np.allclose(block.std(axis=0)[~const], 1.0, atol=1e-12)
                assert np.all(block[:, const] == 0.0)
            assert np.all(out.f_hrv[rows, 3] == 0.0)
            for name in ("x_ibi", "x_eda"):
                # one scalar mean/SD per subject over every sample of every window
                series = getattr(out, name)[rows]
                assert series.shape == getattr(ds, name)[rows].shape
                assert abs(series.mean()) < 1e-12
                assert series.std() == pytest.approx(1.0, abs=1e-12)
                assert not np.allclose(series.mean(axis=0), 0.0)


class TestSensitivity:
    def test_relabel_changes_only_stress_metrics(self):
        ds = make_feature_dataset(n_subjects=3, per_cond=6, seed=4)
        folds = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED)
        for f in folds:
            stress = relabel_stress(f.stress, f.condition, LabelScheme.C2_STRESS_LOW)
            re = head_metrics(f.u, f.o, stress, f.effort, f.mask)
            base_eff = f.metrics["effort"]
            assert (re["effort"] is None) == (base_eff is None)
            if base_eff is not None:
                assert re["effort"].ba == base_eff.ba
                assert np.array_equal(re["effort"].confusion, base_eff.confusion)
            # stress metrics generally move (labels flipped for a third of windows)
            if f.metrics["stress"] is not None and re["stress"] is not None:
                assert not np.array_equal(re["stress"].confusion, f.metrics["stress"].confusion)

    def test_scheme_applied_to_dataset_labels(self):
        # run_loso trains and scores on relabel_stress(...); the fold labels show it
        ds = make_feature_dataset(n_subjects=3, per_cond=4, seed=4)
        folds = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED, scheme=LabelScheme.C2_STRESS_LOW)
        for f in folds:
            rows = ds.subject == f.subject_id
            c2 = f.condition == "c2"
            assert np.all(f.stress[c2] == 0)
            assert np.array_equal(f.stress[~c2], ds.stress[rows][~c2])
            assert np.array_equal(f.mask, ds.mask[rows])
            assert np.array_equal(f.effort, ds.effort[rows])
        assert np.all(ds.stress[ds.condition == "c2"] == 1)  # the caller's table is not relabeled


class TestReportAggregation:
    def test_summary_and_rows(self):
        ds = make_feature_dataset(n_subjects=3, per_cond=6, seed=6)
        folds = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED)
        rows = per_subject_rows(folds)
        assert len(rows) == 3
        avg = [r["avg_ba"] for r in rows]
        assert avg == sorted(avg, reverse=True)
        summary = summary_table(folds)
        assert summary["stress"]["n"] == 3
        report = build_stats_report(folds)
        assert report["n_folds"] == 3
        assert set(report["quadrant_occupancy_by_condition"]) == {"c1", "c2", "c3"}
        total = sum(report["trajectory_patterns"]["counts"].values()) + len(
            report["trajectory_patterns"]["subjects_without_pattern"]
        )
        assert total == 3


class TestWindowRecording:
    def test_every_stream_on_one_grid(self):
        rec, _ = generate_synthetic_recording(synthetic_condition_spec(0, Condition.C2, 300.0, seed=4))
        plan = WindowingPlan()
        ds = window_recording(rec, plan)
        # 75% overlap: each row continues the previous one by one 30-sample step
        for x in (ds.x_ibi, ds.x_eda):
            assert np.array_equal(x[1:, :90], x[:-1, 30:])
        assert np.all(np.diff(ds.window_start_s) == 15.0)
        # as many rows as the plan fits in the common span of the IBI and EDA grids
        # (the crop to each grid can shorten it by one sample)
        ibi = ibi_to_uniform(build_ibi(detect_r_peaks(UniformSeries(rec.ecg, rec.ecg_rate_hz))))
        eda = preprocess_eda(UniformSeries(rec.eda, rec.eda_rate_hz))
        n = int((min(ibi.end_s, eda.end_s) - max(ibi.start_s, eda.start_s)) * 2.0) + 1
        assert len(ds) in {len(plan.starts(n - 1)), len(plan.starts(n))}
        assert len(ds) > 10


@pytest.mark.slow
class TestRawPipelineIntegration:
    def test_small_raw_loso_beats_chance(self):
        recs = make_synthetic_recordings(3, duration_s=240.0, seed=9)
        ds = build_dataset(recs)
        assert len(ds.subjects()) == 3
        arch = ArchConfig(
            conv_channels=6, lstm_hidden=8, feat_hidden=8, fusion_hidden=16,
            fusion_out=8, head_hidden=6,
        )
        cfg = TrainConfig(
            max_epochs=15, lr=2e-3, batch_size=32, early_stop_warmup=6,
            early_stop_patience=5, val_subjects=1,
        )
        folds = run_loso(ds, arch, cfg, seed=13)
        summary = summary_table(folds)
        assert summary["effort"]["mean"] >= 0.7
        assert summary["stress"]["mean"] >= 0.55


class TestEdgeCases:
    def test_single_class_head_marked_undefined(self):
        ds = make_feature_dataset(n_subjects=4, per_cond=6, seed=11)
        # strip subject s00's c1 windows: stress labels become single-class (high)
        drop = (ds.subject == "s00") & (ds.condition == "c1")
        ds2 = ds.select(np.nonzero(~drop)[0])
        folds = run_loso(ds2, FAST_ARCH, FAST_CFG, seed=FAST_SEED)
        fold0 = next(f for f in folds if f.subject_id == "s00")
        assert fold0.metrics["stress"] is None
        assert fold0.metrics["effort"] is None  # only c3 windows carry effort labels
        rows = per_subject_rows(folds)
        row0 = next(r for r in rows if r["subject"] == "s00")
        assert not np.isfinite(row0["stress_ba"])

    def test_single_fold_summary_sd_is_none(self):
        ds = make_feature_dataset(n_subjects=3, per_cond=5, seed=12)
        folds = run_loso(ds, FAST_ARCH, FAST_CFG, seed=FAST_SEED)
        summary = summary_table(folds[:1])
        assert summary["stress"]["n"] == 1
        assert summary["stress"]["sd"] is None

    def test_trajectory_distribution_counts_with_missing_subject(self):
        shapes = {
            "monotonic": {"c1": (0.2, 0.2), "c2": (0.4, 0.4), "c3": (0.6, 0.6)},
            "rising": {"c1": (0.3, 0.3), "c2": (0.25, 0.35), "c3": (0.6, 0.6)},
            "peak_c2": {"c1": (0.3, 0.3), "c2": (0.7, 0.7), "c3": (0.5, 0.5)},
            "flat_ceiling": {"c1": (0.9, 0.9), "c2": (0.91, 0.9), "c3": (0.92, 0.91)},
            "inverted": {"c1": (0.7, 0.7), "c2": (0.5, 0.5), "c3": (0.3, 0.3)},
        }
        folds = [make_fold(f"t{i}_{name}", c) for i, (name, c) in enumerate(shapes.items())]
        folds.append(make_fold("t_missing", shapes["monotonic"], conditions=("c1", "c3")))
        report = build_stats_report(folds)
        counts = report["trajectory_patterns"]["counts"]
        assert counts == {k: 1 for k in shapes}
        assert report["trajectory_patterns"]["subjects_without_pattern"] == ["t_missing"]
