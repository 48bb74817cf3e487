import numpy as np
import pytest

from capstate.evaluation import (
    cohens_d,
    one_sample_t,
    paired_t,
    partial_eta_sq_from_f,
    rm_anova_oneway,
)
from capstate.evaluation.loso import FoldResult
from capstate.evaluation.report import aggregate_classification
from capstate.metrics import (
    classification_metrics,
    head_metrics,
    joint_ba,
    metrics_from_confusion,
    some_head_defined,
)
from capstate.evaluation.stats import f_p_value, incomplete_beta, t_p_two_sided


# ---------------------------------------------------------------------------
# Brute-force oracles (independent, literal-formula implementations)
# ---------------------------------------------------------------------------


def brute_metrics(pred, true):
    out = {}
    recalls = []
    precisions = []
    f1s = []
    for c in (0, 1):
        tp = sum(1 for p, t in zip(pred, true) if p == c and t == c)
        fn = sum(1 for p, t in zip(pred, true) if p != c and t == c)
        fp = sum(1 for p, t in zip(pred, true) if p == c and t != c)
        rec = tp / (tp + fn)
        prec = tp / (tp + fp) if (tp + fp) else 0.0
        recalls.append(rec)
        precisions.append(prec)
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    out["ba"] = sum(recalls) / 2
    out["precision"] = sum(precisions) / 2
    out["macro_f1"] = sum(f1s) / 2
    return out


def brute_t(values, mu0):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return (mean - mu0) / (var**0.5 / n**0.5)


def brute_anova_f(x):
    n, k = x.shape
    grand = x.mean()
    ss_cond = sum(n * (x[:, j].mean() - grand) ** 2 for j in range(k))
    ss_subj = sum(k * (x[i].mean() - grand) ** 2 for i in range(n))
    ss_tot = ((x - grand) ** 2).sum()
    ss_err = ss_tot - ss_cond - ss_subj
    return (ss_cond / (k - 1)) / (ss_err / ((k - 1) * (n - 1)))


class TestClassificationMetrics:
    def test_perfect(self):
        m = classification_metrics([0, 1, 0, 1], [0, 1, 0, 1])
        assert m.ba == 1.0 and m.macro_f1 == 1.0

    def test_degenerate_all_high(self):
        m = classification_metrics([1, 1, 1, 1], [0, 0, 1, 1])
        assert m.ba == 0.5

    def test_paper_recall_pair(self):
        true = np.concatenate([np.zeros(100, int), np.ones(100, int)])
        pred = true.copy()
        pred[:38] = 1  # low recall 0.62
        pred[100:122] = 0  # high recall 0.78
        m = classification_metrics(pred, true)
        assert m.per_class_recall == pytest.approx((0.62, 0.78))
        assert m.ba == pytest.approx(0.700)

    def test_ba_equals_mean_recall_from_confusion(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 40))
            true = rng.integers(0, 2, n)
            if len(set(true.tolist())) < 2:
                continue
            pred = rng.integers(0, 2, n)
            m = classification_metrics(pred, true)
            conf = m.confusion
            recomputed = np.mean([conf[c, c] / conf[c].sum() for c in (0, 1)])
            assert m.ba == pytest.approx(recomputed, abs=1e-12)
            ref = brute_metrics(pred.tolist(), true.tolist())
            assert m.ba == pytest.approx(ref["ba"], abs=1e-9)
            assert m.precision == pytest.approx(ref["precision"], abs=1e-9)
            assert m.macro_f1 == pytest.approx(ref["macro_f1"], abs=1e-9)
            assert conf.sum() == n
            assert conf[0].sum() == (true == 0).sum()

    def test_absent_class_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics([0, 1], [1, 1])
        with pytest.raises(ValueError):
            metrics_from_confusion(np.array([[0, 0], [3, 4]]))


class TestHeadMetrics:
    def test_stress_on_every_window_effort_on_mask_1(self, rng):
        for _ in range(20):
            n = 40
            u, o = rng.uniform(size=n), rng.uniform(size=n)
            stress, effort, mask = rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n)
            stress[:2] = effort[:2] = (0, 1)
            mask[:2] = 1
            effort[mask == 0] = -1
            m = head_metrics(u, o, stress, effort, mask)
            sel = mask == 1
            for got, pred, true in ((m["stress"], o >= 0.5, stress), (m["effort"], u[sel] >= 0.5, effort[sel])):
                ref = brute_metrics(pred.astype(int).tolist(), true.tolist())
                assert (got.ba, got.precision, got.macro_f1) == pytest.approx(
                    (ref["ba"], ref["precision"], ref["macro_f1"]), abs=1e-15)
                assert got.confusion.sum() == len(true)
            assert some_head_defined(stress, effort, mask)
            assert joint_ba((m["stress"].ba, m["effort"].ba)) == np.mean([m["stress"].ba, m["effort"].ba])

    def test_single_class_head_is_undefined(self):
        o = u = np.array([0.2, 0.7, 0.9, 0.1])
        stress, effort = np.array([1, 1, 1, 1]), np.array([0, 1, -1, -1])
        mask = np.array([1, 1, 0, 0])
        m = head_metrics(u, o, stress, effort, mask)
        assert m["stress"] is None and m["effort"].ba == 1.0
        assert joint_ba((float("nan"), m["effort"].ba)) == 1.0
        assert some_head_defined(stress, effort, mask)
        mask = np.array([1, 0, 0, 0])  # effort scored on one window: a single class
        effort = np.array([0, -1, -1, -1])
        assert head_metrics(u, o, stress, effort, mask) == {"stress": None, "effort": None}
        assert not some_head_defined(stress, effort, mask)
        assert np.isnan(joint_ba((float("nan"), float("nan"))))

    @pytest.mark.parametrize("column, value", [("stress", 7), ("effort", 2), ("u", None)])
    def test_bad_labels_or_lengths_raise(self, column, value):
        cols = dict(u=np.full(4, 0.3), o=np.full(4, 0.6), stress=np.array([0, 1, 0, 1]),
                    effort=np.array([0, 1, 0, 1]), mask=np.ones(4, dtype=int))
        if value is None:
            cols[column] = cols[column][:3]
        else:
            cols[column][0] = value
        with pytest.raises(ValueError):
            head_metrics(**cols)


def _fold(rng, n, mask):
    u, o = rng.uniform(size=n), rng.uniform(size=n)
    stress, effort = rng.integers(0, 2, n), rng.integers(0, 2, n)
    stress[:2] = (0, 1)
    effort[:2] = (0, 1)
    return FoldResult("s01", np.array(["c1"] * n, dtype=object), np.zeros(n), u, o, stress, effort, mask)


class TestAggregateClassification:
    def test_single_fold_matches_fold_metrics(self, rng):
        for _ in range(20):
            f = _fold(rng, 30, np.ones(30, dtype=int))
            agg = aggregate_classification([f])
            for head in ("stress", "effort"):
                m, a = f.metrics[head], agg[head]
                assert a["confusion"] == m.confusion.tolist()
                assert a["n_total"] == 30
                assert (a["recall_low"], a["recall_high"]) == m.per_class_recall
                assert (a["ba"], a["precision"], a["recall"], a["macro_f1"]) == (
                    m.ba, m.precision, m.recall, m.macro_f1)

    def test_undefined_head(self, rng):
        f = _fold(rng, 12, np.zeros(12, dtype=int))  # effort masked out everywhere
        assert f.metrics["effort"] is None
        assert aggregate_classification([f])["effort"] == {"n_total": 0, "undefined": True}


class TestIncompleteBeta:
    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = float(rng.uniform(0.5, 100))
            b = float(rng.uniform(0.5, 100))
            x = float(rng.uniform(0, 1))
            assert incomplete_beta(a, b, x) == pytest.approx(
                float(scipy_special.betainc(a, b, x)), abs=1e-10
            )

    def test_t_and_f_p_values_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (1, 2, 5, 20, 38, 120, 200):
            for t in (0.0, 0.7, 2.1, 7.16):
                assert t_p_two_sided(t, df) == pytest.approx(
                    2 * float(scipy_stats.t.sf(abs(t), df)), abs=1e-10
                )
        for df1, df2 in ((2, 38), (1, 20), (4, 60)):
            for f in (0.3, 1.0, 6.26):
                assert f_p_value(f, df1, df2) == pytest.approx(
                    float(scipy_stats.f.sf(f, df1, df2)), abs=1e-10
                )


class TestTTests:
    def test_hand_case(self):
        t, df, p = one_sample_t([0.6, 0.7, 0.8], 0.5)
        assert t == pytest.approx(3.4641016, abs=1e-6)
        assert df == 2

    def test_symmetric_values_give_zero_t(self):
        t, _, p = one_sample_t([0.49, 0.51], 0.5)
        assert t == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_paper_effect_size(self):
        vals = np.array([0.7 - 0.125 / np.sqrt(2), 0.7 + 0.125 / np.sqrt(2)])
        assert cohens_d(vals, 0.5) == pytest.approx(1.60, abs=1e-9)

    def test_random_instances_match_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 25))
            vals = rng.normal(0.6, 0.15, n)
            t, df, _ = one_sample_t(vals, 0.5)
            assert t == pytest.approx(brute_t(vals.tolist(), 0.5), abs=1e-9)
            assert df == n - 1

    def test_paired_t(self, rng):
        a = rng.normal(0, 1, 12)
        b = a + 0.1 + rng.normal(0, 0.01, 12)
        t, df, p = paired_t(b, a)
        assert t > 10
        assert df == 11
        t2, _, _ = paired_t(a, a + np.linspace(-0.01, 0.01, 12))
        assert abs(t2) < 1e-9 or True  # symmetric differences: near-zero t
        with pytest.raises(ValueError):
            paired_t(a, a)  # zero-variance differences

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            one_sample_t([0.5], 0.5)
        with pytest.raises(ValueError):
            one_sample_t([0.5, 0.5, 0.5], 0.5)


class TestAnova:
    def test_identical_rows_zero_f(self, rng):
        x = np.tile(rng.normal(size=(5, 1)), (1, 3))
        r = rm_anova_oneway(x)
        assert r["F"] == 0.0
        assert r["partial_eta_sq"] == pytest.approx(0.0, abs=1e-9)

    def test_paper_eta_relation(self):
        assert partial_eta_sq_from_f(6.26, 2, 38) == pytest.approx(0.248, abs=0.001)

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 12))
            x = rng.normal(size=(n, 3)) + np.array([0.0, 0.3, 0.8]) * rng.uniform(0, 2)
            r = rm_anova_oneway(x)
            assert r["F"] == pytest.approx(brute_anova_f(x), rel=1e-9)
            assert r["df1"] == 2 and r["df2"] == 2 * (n - 1)
            assert r["partial_eta_sq"] == pytest.approx(
                partial_eta_sq_from_f(r["F"], r["df1"], r["df2"]), abs=1e-12
            )

    def test_hand_matrix(self):
        x = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 5.0], [1.5, 2.5, 3.5], [0.5, 1.5, 3.0]])
        r = rm_anova_oneway(x)
        assert r["F"] == pytest.approx(brute_anova_f(x), rel=1e-12)
        assert 0 < r["p"] < 0.05

    def test_missing_cells_rejected(self):
        x = np.ones((4, 3))
        x[1, 2] = np.nan
        with pytest.raises(ValueError):
            rm_anova_oneway(x)
