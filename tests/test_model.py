"""Network forward contracts, losses, optimizer, and the training loop."""

import tracemalloc

import numpy as np
import pytest

from capstate.errors import DataError, NumericalError
from capstate.model import (
    AdamW,
    ArchConfig,
    Batch,
    TrainConfig,
    clip_global_norm,
    focal_loss,
    forward,
    init_params,
    train_fold,
)
from capstate.model.losses import focal_loss_vector, masked_multitask_loss
from capstate.model import autograd as ag
from capstate.model.autograd import Tensor
from capstate.model.network import build_graph, collect_activations, wrap_params
from capstate.model import network
from capstate.model import train as train_module
from capstate.model.train import loss_and_grads
from conftest import TINY_ARCH, digests_by_blas_threads, make_feature_dataset, tcn_reference


# the benchmark's LOSO architecture (LOSO_ARCH in perfbench/workloads.py)
LOSO_ARCH = dict(conv_channels=8, lstm_hidden=16, feat_hidden=16, fusion_hidden=32,
                 fusion_out=16, head_hidden=8)


def tiny_arch(**kw):
    return ArchConfig(**{**TINY_ARCH, **kw})


def rand_batch(rng, n=5, t=16):
    return Batch(
        x_ibi=rng.normal(size=(n, t)),
        x_eda=rng.normal(size=(n, t)),
        f_hrv=rng.normal(size=(n, 14)),
        f_eda=rng.normal(size=(n, 12)),
        stress=rng.integers(0, 2, n),
        effort=rng.integers(0, 2, n),
        mask=rng.integers(0, 2, n),
    )


class TestForward:
    def test_softmax_rows_sum_to_one(self, rng):
        for backbone in ("lstm", "tcn"):
            arch = tiny_arch(backbone=backbone)
            params = init_params(arch, 0)
            batch = rand_batch(rng)
            for p in build_graph(wrap_params(params), arch, batch):
                assert np.abs(p.data.sum(axis=1) - 1.0).max() < 1e-6
            u, o = forward(params, arch, batch)
            assert np.all((u >= 0) & (u <= 1))
            assert np.all((o >= 0) & (o <= 1))

    def test_batch_permutation_equivariance(self, rng):
        arch = tiny_arch()
        params = init_params(arch, 1)
        batch = rand_batch(rng, n=7)
        perm = rng.permutation(7)
        u1, o1 = forward(params, arch, batch)
        permuted = Batch(
            x_ibi=batch.x_ibi[perm], x_eda=batch.x_eda[perm],
            f_hrv=batch.f_hrv[perm], f_eda=batch.f_eda[perm],
            stress=batch.stress[perm], effort=batch.effort[perm], mask=batch.mask[perm],
        )
        u2, o2 = forward(params, arch, permuted)
        assert np.allclose(o2, o1[perm], atol=1e-12)
        assert np.allclose(u2, u1[perm], atol=1e-12)

    def _time_probe(self, backbone, t_perturb):
        """Activations before and after perturbing IBI step ``t_perturb`` of
        sequence 1 of 3 (T = 20), and the time of each step on axis 1: conv
        front-end and LSTM activations cover all 20 steps, TCN block i's output
        only the next block's grid t = 19 - k d_{i+1}, and the last block's
        only t = 19. With B = 3 the shape check pins axis 1 as time."""
        arch = tiny_arch(backbone=backbone)
        params = init_params(arch, 2)
        batch = rand_batch(rng=np.random.default_rng(9), n=3, t=20)
        acts = collect_activations(params, arch, batch)
        batch.x_ibi = batch.x_ibi.copy()
        batch.x_ibi[1, t_perturb] += 3.0
        acts2 = collect_activations(params, arch, batch)
        times = {}
        for name, a in acts.items():
            block = name.split(".")[1]
            d = 1
            if block.startswith("tcn"):
                nxt = arch.tcn_dilations[int(block[3:]) + 1 :]
                d = nxt[0] if nxt else 20
            times[name] = np.arange(19 % d, 20, d)
            assert a.shape[:2] == (3, len(times[name])), name
        return acts, acts2, times

    def test_tcn_causality_probe(self):
        t_perturb = 11
        acts, acts2, times = self._time_probe("tcn", t_perturb)
        # TINY_ARCH dilations (1, 2): block 0 writes block 1's grid, block 1 only step 19
        assert list(times["ibi.tcn0"]) == list(range(1, 20, 2))
        assert list(times["ibi.tcn1"]) == [19]
        for name in acts:
            before = times[name] < t_perturb
            if name.startswith("ibi."):
                assert np.array_equal(acts[name][:, before], acts2[name][:, before]), name
                assert np.array_equal(acts[name][[0, 2]], acts2[name][[0, 2]]), name
                assert not np.array_equal(acts[name][1, ~before], acts2[name][1, ~before]), name
            if name.startswith("eda."):
                assert np.array_equal(acts[name], acts2[name]), name

    def test_lstm_cannot_see_future_either(self):
        acts, acts2, _ = self._time_probe("lstm", 15)
        seq, seq2 = acts["ibi.lstm_seq"], acts2["ibi.lstm_seq"]
        assert np.array_equal(seq[:, :15], seq2[:, :15])
        assert not np.array_equal(seq[1, 15:], seq2[1, 15:])

    def test_modality_ablation_excludes_input(self, rng):
        arch = tiny_arch(modalities=("ibi",))
        params = init_params(arch, 3)
        assert not any(k.startswith("eda.") for k in params)
        batch = rand_batch(rng)
        u1, o1 = forward(params, arch, batch)
        batch.x_eda = batch.x_eda + 100.0
        batch.f_eda = batch.f_eda - 50.0
        u2, o2 = forward(params, arch, batch)
        assert np.array_equal(o1, o2)
        assert np.array_equal(u1, u2)

    def test_feature_ablation_excludes_features(self, rng):
        arch = tiny_arch(use_handcrafted_features=False)
        params = init_params(arch, 3)
        assert not any(".feat." in k for k in params)
        batch = rand_batch(rng)
        _, o1 = forward(params, arch, batch)
        batch.f_hrv = batch.f_hrv + 10.0
        _, o2 = forward(params, arch, batch)
        assert np.array_equal(o1, o2)

    def test_backbones_share_io_contract(self, rng):
        batch = rand_batch(rng)
        shapes = []
        for backbone in ("lstm", "tcn"):
            arch = tiny_arch(backbone=backbone)
            u, o = forward(init_params(arch, 4), arch, batch)
            shapes.append((o.shape, u.shape))
        assert shapes[0] == shapes[1]

    def test_nonfinite_input_rejected(self, rng):
        arch = tiny_arch()
        params = init_params(arch, 0)
        batch = rand_batch(rng)
        batch.x_ibi[0, 0] = np.nan
        with pytest.raises(ValueError):
            forward(params, arch, batch)

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            ArchConfig(backbone="gru")
        with pytest.raises(ValueError):
            ArchConfig(tcn_dilations=(1, 3))
        with pytest.raises(ValueError):
            ArchConfig(modalities=())
        with pytest.raises(ValueError, match="tcn_dilations must be non-empty"):
            ArchConfig(tcn_dilations=())
        with pytest.raises(ValueError, match="conv_layers must be >= 0"):
            ArchConfig(conv_layers=-3)


class TestTcnGrid:
    """``network._tcn`` runs each block only on the time grid last-step pooling
    reads; ``conftest.tcn_reference`` runs every block over all T steps. The
    probabilities and every parameter gradient agree to 1e-12 of the largest
    value. T = 7 is shorter than the receptive field and T = 121 is not a
    multiple of any stride; T = 120 runs at the benchmark's batch size, where
    BLAS may sum the weight gradients' rows in another order."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("t", [7, 20, 33, 120, 121])
    @pytest.mark.parametrize("dilations", [(1, 2, 4, 8, 16), (1, 4, 16), (2, 8), (1, 2), (1,), (4,), (1, 256)])
    def test_matches_full_length_reference(self, dilations, t, activation, monkeypatch):
        # conv_channels != tcn_channels, so block 0 has a 1x1 residual conv
        arch = ArchConfig(**LOSO_ARCH, backbone="tcn", tcn_dilations=dilations)
        if activation == "tanh":  # the network and the reference look ag.relu up at call time
            monkeypatch.setattr(ag, "relu", ag.tanh)
        params = init_params(arch, 4)
        batch = rand_batch(np.random.default_rng(t), n=64 if t == 120 else 6, t=t)

        def run():
            out = [p.data for p in build_graph(wrap_params(params), arch, batch)]  # (p_stress, p_effort)
            _, _, _, grads = loss_and_grads(params, arch, TrainConfig(), batch, dropout_seed=6)
            return out, grads

        out, grads = run()
        monkeypatch.setattr(network, "_tcn", tcn_reference)
        ref, ref_grads = run()
        for p, q in zip(out, ref):
            assert np.abs(p - q).max() <= 1e-12 * np.abs(q).max()
        assert grads.keys() == ref_grads.keys()
        for key, g in grads.items():
            assert np.abs(g - ref_grads[key]).max() <= 1e-12 * np.abs(ref_grads[key]).max(), key


class TestFocalLoss:
    def test_reduces_to_cross_entropy(self):
        assert focal_loss([0.5, 0.5], 0, gamma=0.0, epsilon=0.0) == pytest.approx(np.log(2), abs=1e-9)

    def test_confident_correct_is_zero(self):
        for gamma in (0.0, 1.0, 1.5, 2.0):
            assert abs(focal_loss([1.0, 0.0], 0, gamma=gamma, epsilon=0.0)) < 1e-9

    def test_matches_independent_formula(self):
        p = np.array([0.7, 0.3])
        gamma, eps = 1.5, 0.05
        y = 0
        q = np.array([1 - eps / 2, eps / 2])
        expected = -(q * (1 - p) ** gamma * np.log(p)).sum()
        assert focal_loss(p, y, gamma, eps) == pytest.approx(expected, rel=1e-12)

    def test_vector_version_matches_scalar(self, rng):
        p = rng.dirichlet([2.0, 2.0], size=6)
        y = rng.integers(0, 2, 6)
        vec = focal_loss_vector(Tensor(p), y, 1.5, 0.05).data
        for i in range(6):
            assert vec[i] == pytest.approx(focal_loss(p[i], int(y[i]), 1.5, 0.05), rel=1e-12)


class TestMaskedLoss:
    def _probs(self, rng, n):
        return Tensor(rng.dirichlet([2.0, 2.0], size=n))

    def test_all_masks_zero(self, rng):
        n = 4
        p_s, p_e = self._probs(rng, n), self._probs(rng, n)
        total, stress, effort = masked_multitask_loss(
            p_s, p_e, np.array([0, 1, 0, 1]), np.full(4, -1), np.zeros(4, dtype=int),
            1.5, 0.05, 1.0,
        )
        assert effort == 0.0
        assert float(total.data) == pytest.approx(stress)

    def test_lambda_zero_collapses_to_stress(self, rng):
        n = 4
        p_s, p_e = self._probs(rng, n), self._probs(rng, n)
        y = np.array([0, 1, 1, 0])
        total, stress, _ = masked_multitask_loss(p_s, p_e, y, y, np.ones(4, dtype=int), 1.5, 0.05, 0.0)
        assert float(total.data) == pytest.approx(stress, rel=1e-12)

    def test_matches_brute_force_sum(self, rng):
        n = 6
        ps = rng.dirichlet([2.0, 2.0], size=n)
        pe = rng.dirichlet([2.0, 2.0], size=n)
        ys = rng.integers(0, 2, n)
        ye = rng.integers(0, 2, n)
        mask = np.array([1, 0, 1, 1, 0, 1])
        total, stress, effort = masked_multitask_loss(
            Tensor(ps), Tensor(pe), ys, ye, mask, 1.5, 0.05, 1.0
        )
        stress_ref = np.mean([focal_loss(ps[i], int(ys[i]), 1.5, 0.05) for i in range(n)])
        eff_ref = sum(mask[i] * focal_loss(pe[i], int(ye[i]), 1.5, 0.05) for i in range(n)) / mask.sum()
        assert stress == pytest.approx(stress_ref, abs=1e-9)
        assert effort == pytest.approx(eff_ref, abs=1e-9)
        assert float(total.data) == pytest.approx(stress_ref + eff_ref, abs=1e-9)

    def test_masked_batch_zero_effort_gradients(self, rng):
        arch = tiny_arch()
        params = init_params(arch, 5)
        batch = rand_batch(rng)
        batch.mask = np.zeros(len(batch), dtype=int)
        batch.effort = np.full(len(batch), -1)
        _, _, _, grads = loss_and_grads(params, arch, TrainConfig(), batch)
        for key, g in grads.items():
            if key.startswith("head_effort."):
                assert np.all(g == 0.0), key
            if key.startswith("head_stress.fc1.W"):
                assert np.any(g != 0.0)

    def test_duplicated_batch_same_gradients(self, rng):
        arch = tiny_arch()
        params = init_params(arch, 6)
        batch = rand_batch(rng, n=4)
        batch.mask = np.array([1, 1, 0, 1])
        dup = Batch(
            x_ibi=np.tile(batch.x_ibi, (2, 1)), x_eda=np.tile(batch.x_eda, (2, 1)),
            f_hrv=np.tile(batch.f_hrv, (2, 1)), f_eda=np.tile(batch.f_eda, (2, 1)),
            stress=np.tile(batch.stress, 2), effort=np.tile(batch.effort, 2),
            mask=np.tile(batch.mask, 2),
        )
        _, _, _, g1 = loss_and_grads(params, arch, TrainConfig(), batch)
        _, _, _, g2 = loss_and_grads(params, arch, TrainConfig(), dup)
        for key in g1:
            assert np.allclose(g1[key], g2[key], atol=1e-12), key

    @pytest.mark.parametrize("backbone", ["lstm", "tcn"])
    def test_loss_and_grads_digest_independent_of_blas_threads(self, backbone):
        script = (
            "import hashlib, numpy as np\n"
            "from capstate.model import ArchConfig, Batch, TrainConfig, init_params\n"
            "from capstate.model.train import loss_and_grads\n"
            "rng = np.random.default_rng(3)\n"
            "n, t = 64, 120\n"
            "batch = Batch(x_ibi=rng.normal(size=(n, t)), x_eda=rng.normal(size=(n, t)),\n"
            "              f_hrv=rng.normal(size=(n, 14)), f_eda=rng.normal(size=(n, 12)),\n"
            "              stress=rng.integers(0, 2, n), effort=rng.integers(0, 2, n),\n"
            "              mask=rng.integers(0, 2, n))\n"
            f"arch = ArchConfig(backbone={backbone!r})\n"
            "total, _, _, grads = loss_and_grads(init_params(arch, 4), arch, TrainConfig(), batch,\n"
            "                                    dropout_seed=6)\n"
            "h = hashlib.sha256(np.float64(total).tobytes())\n"
            "for key in sorted(grads):\n"
            "    h.update(grads[key].tobytes())\n"
            "print(h.hexdigest())\n"
        )
        one, two = digests_by_blas_threads(script)
        assert len(one) == 64 and one == two

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the 1e308 weights overflow on purpose
    def test_nonfinite_gradient_names_parameter(self, rng):
        arch = tiny_arch()
        params = init_params(arch, 7)
        params["fusion.fc1.W"][:] = 1e308
        batch = rand_batch(rng)
        with pytest.raises((NumericalError, ValueError)):
            loss_and_grads(params, arch, TrainConfig(), batch)


class TestTapeMemory:
    @pytest.mark.parametrize("backbone, bound_mib", [("tcn", 36), ("lstm", 32)])
    def test_backward_frees_the_tape(self, backbone, bound_mib, monkeypatch):
        """Peak traced memory of one training step at the benchmark's shape
        (B = 64, T = 120). numpy reports its buffers to tracemalloc, so the peak
        is deterministic: 31.8 / 27.2 MiB (TCN / LSTM) when backward frees each
        interior gradient and closure once used; the LSTM's is 37.7 MiB when
        every interior gradient lives until backward returns, the TCN's 43.9
        MiB when each block writes its whole dilation grid. TCN block i keeps its
        input and conv1 output on its dilation grid, about T / d_i steps, and
        its conv2, residual and output only on the next block's grid, about
        T / d_{i+1} steps. Each LSTM node caches six (T, B, H)-sized arrays:
        the four gate blocks, the cell states and the output."""
        roots = []

        def keep_root(*args):
            out = masked_multitask_loss(*args)
            roots.append(out[0])
            return out

        monkeypatch.setattr(train_module, "masked_multitask_loss", keep_root)
        arch = ArchConfig(**LOSO_ARCH, backbone=backbone)
        params = init_params(arch, 4)
        batch = rand_batch(np.random.default_rng(3), n=64, t=120)
        tracemalloc.start()
        try:
            _, _, _, grads = loss_and_grads(params, arch, TrainConfig(), batch, dropout_seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, f"{peak / 2**20:.1f} MiB"
        assert all(np.any(g != 0.0) for g in grads.values())
        stack, seen, interior = [roots[0]], set(), 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.parents:
                interior += 1
                assert node.grad is None and node._backward_fn is None
            stack.extend(node.parents)
        assert interior > 20


class TestAdamW:
    def test_lr_zero_keeps_parameters(self, rng):
        opt = AdamW(lr=0.0, weight_decay=1e-3)
        params = {"w": rng.normal(size=(3, 3))}
        grads = {"w": rng.normal(size=(3, 3))}
        out = opt.step(params, grads)
        assert np.array_equal(out["w"], params["w"])

    def test_zero_grad_pure_decay(self, rng):
        opt = AdamW(lr=2e-4, weight_decay=1e-3, grad_clip_norm=0.0)
        theta = rng.normal(size=(4,))
        out = opt.step({"w": theta}, {"w": np.zeros(4)})
        expected = theta - 2e-4 * (1e-3 * theta)
        assert np.array_equal(out["w"], expected)
        assert np.allclose(out["w"], theta * (1 - 2e-7), rtol=1e-12)

    def test_first_step_is_signed_lr(self):
        opt = AdamW(lr=1e-3, weight_decay=0.0, grad_clip_norm=0.0)
        g = np.array([0.37])
        out = opt.step({"w": np.array([1.0])}, {"w": g})
        expected = 1.0 - 1e-3 * g / (np.abs(g) + 1e-8)
        assert out["w"][0] == pytest.approx(expected[0], rel=1e-12)

    def test_global_clipping(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped = clip_global_norm(grads, 1.0)
        norm = np.sqrt(sum((g**2).sum() for g in clipped.values()))
        assert norm == pytest.approx(1.0)
        small = {"a": np.array([0.3])}
        assert clip_global_norm(small, 1.0)["a"][0] == 0.3


class TestTrainFold:
    def _sets(self, seed=0, n_subjects=3, per_cond=8):
        ds = make_feature_dataset(n_subjects=n_subjects, per_cond=per_cond, seed=seed)
        subjects = ds.subjects()
        train = ds.for_subjects(subjects[:-1])
        val = ds.for_subjects(subjects[-1:])
        return train, val

    def test_deterministic_history(self):
        train, val = self._sets()
        arch = tiny_arch()
        cfg = TrainConfig(max_epochs=4, lr=1e-3, batch_size=16, val_subjects=1)
        p1, h1 = train_fold(train, val, arch, cfg, seed=11)
        p2, h2 = train_fold(train, val, arch, cfg, seed=11)
        assert h1.rows == h2.rows
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_constant_metric_stops_at_warmup_plus_patience(self, monkeypatch):
        import capstate.model.train as train_mod

        train, val = self._sets()
        calls = {"n": 0}

        def fake_eval(params, arch, batch):
            calls["n"] += 1
            return 0.7, 0.7

        monkeypatch.setattr(train_mod, "evaluate_balanced_accuracy", fake_eval)
        cfg = TrainConfig(max_epochs=200, lr=1e-3, batch_size=32,
                          early_stop_warmup=5, early_stop_patience=7)
        params, history = train_fold(train, val, tiny_arch(), cfg, seed=1)
        assert history.stopped_epoch == 12  # warmup + patience
        assert history.best_epoch == 1

    def test_strictly_improving_runs_to_max(self, monkeypatch):
        import capstate.model.train as train_mod

        train, val = self._sets()
        state = {"m": 0.5}

        def fake_eval(params, arch, batch):
            state["m"] += 0.001
            return state["m"], state["m"]

        monkeypatch.setattr(train_mod, "evaluate_balanced_accuracy", fake_eval)
        cfg = TrainConfig(max_epochs=9, lr=1e-3, batch_size=32,
                          early_stop_warmup=3, early_stop_patience=2)
        params, history = train_fold(train, val, tiny_arch(), cfg, seed=1)
        assert history.stopped_epoch == 9
        assert history.best_epoch == 9

    def test_plateau_halves_lr(self, monkeypatch):
        import capstate.model.train as train_mod

        train, val = self._sets()
        monkeypatch.setattr(train_mod, "evaluate_balanced_accuracy", lambda *a: (0.6, 0.6))
        cfg = TrainConfig(max_epochs=10, lr=8e-4, batch_size=32,
                          early_stop_warmup=50, early_stop_patience=50,
                          plateau_patience=3, plateau_factor=0.5)
        _, history = train_fold(train, val, tiny_arch(), cfg, seed=1)
        lrs = [r["lr"] for r in history.rows]
        assert lrs[0] == 8e-4
        assert min(lrs) < 8e-4  # at least one halving fired
        assert lrs[4] == 4e-4  # best at epoch 1; wait hits 3 at epoch 4 -> epoch 5 runs halved

    def test_plateau_wait_resets_only_on_a_new_best(self, monkeypatch):
        import capstate.model.train as train_mod

        train, val = self._sets()
        metrics = iter([0.6, 0.7, 0.65, 0.68, 0.66, 0.72, 0.71, 0.70, 0.69, 0.73])
        monkeypatch.setattr(train_mod, "evaluate_balanced_accuracy", lambda *a: (m := next(metrics), m))
        cfg = TrainConfig(max_epochs=10, lr=8e-4, batch_size=32,
                          early_stop_warmup=50, early_stop_patience=50,
                          plateau_patience=2, plateau_factor=0.5)
        _, history = train_fold(train, val, tiny_arch(), cfg, seed=1)
        # epoch 4 rises (0.65 -> 0.68) but stays below the best 0.7: the wait
        # reaches 2 and epoch 5 runs halved; the new best at epoch 6 resets the
        # wait, so the next halving follows epoch 8, not epoch 6
        assert [r["lr"] for r in history.rows] == [8e-4] * 4 + [4e-4] * 4 + [2e-4] * 2
        assert history.best_epoch == 10

    def test_empty_or_single_class_val_rejected(self):
        train, val = self._sets()
        arch = tiny_arch()
        cfg = TrainConfig(max_epochs=2)
        empty = Batch(
            x_ibi=np.zeros((0, 120)), x_eda=np.zeros((0, 120)),
            f_hrv=np.zeros((0, 14)), f_eda=np.zeros((0, 12)),
            stress=np.zeros(0, dtype=int), effort=np.zeros(0, dtype=int), mask=np.zeros(0, dtype=int),
        )
        with pytest.raises(DataError, match="validation set is empty"):
            train_fold(train, empty, arch, cfg)
        single = self._sets()[1]
        single.stress[:] = 1
        single.effort[:] = 1
        with pytest.raises(DataError, match="single class on both heads"):
            train_fold(train, single, arch, cfg)

    def test_loss_decreases_on_separable_set(self):
        ds = make_feature_dataset(n_subjects=3, per_cond=10, seed=4, separation=2.0)
        subs = ds.subjects()
        train = ds.for_subjects(subs[:2])
        val = ds.for_subjects(subs[2:])
        cfg = TrainConfig(max_epochs=200, lr=3e-3, batch_size=30, early_stop_warmup=200,
                          early_stop_patience=200, plateau_patience=1000)
        _, history = train_fold(train, val, tiny_arch(), cfg, seed=2)
        losses = [r["train_loss"] for r in history.rows]
        assert losses[-1] <= 0.1 * losses[0]
