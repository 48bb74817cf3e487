"""Training: masked multi-task objective, AdamW, plateau LR, early stopping.

All randomness (init, shuffling, dropout) is derived from ``train_fold``'s
``seed`` through named substreams, so two runs with the same seed and data
produce bit-identical histories.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, NumericalError
from ..metrics import head_metrics, joint_ba, some_head_defined
from .losses import masked_multitask_loss
from .network import ArchConfig, Batch, build_graph, forward, init_params, substream_seed, wrap_params
from .optim import AdamW


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 1.5
    label_smoothing: float = 0.05
    lambda_effort: float = 1.0
    lr: float = 2e-4
    weight_decay: float = 1e-3
    batch_size: int = 64
    grad_clip_norm: float = 1.0
    max_epochs: int = 200
    early_stop_warmup: int = 15
    early_stop_patience: int = 25
    plateau_factor: float = 0.5
    plateau_patience: int = 8
    val_subjects: int = 3  # inner validation subjects held out of each LOSO training fold

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not (0.0 <= self.label_smoothing < 0.5):
            raise ValueError("label_smoothing must lie in [0, 0.5)")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 < self.plateau_factor <= 1.0):
            raise ValueError("plateau_factor must lie in (0, 1]")
        for name in ("weight_decay", "lambda_effort", "early_stop_warmup"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("batch_size", "max_epochs", "val_subjects", "early_stop_patience", "plateau_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class TrainHistory:
    rows: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    def append(self, epoch, train_loss, val_ba_stress, val_ba_effort, lr):
        self.rows.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_ba_stress": val_ba_stress,
                "val_ba_effort": val_ba_effort,
                "lr": lr,
            }
        )


def loss_and_grads(
    params: dict[str, np.ndarray],
    arch: ArchConfig,
    cfg: TrainConfig,
    batch: Batch,
    dropout_seed: int | None = None,
):
    """Forward + reverse pass. Returns (total, stress, effort, grads); the
    gradient map covers every parameter (zeros where the loss does not reach,
    e.g. the effort head when all masks are 0). Dropout runs, with masks drawn
    from ``dropout_seed``, when a seed is given."""
    params_t = wrap_params(params)
    dropout_rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    p_s, p_e = build_graph(params_t, arch, batch, dropout_rng=dropout_rng)
    total_t, stress_val, effort_val = masked_multitask_loss(
        p_s, p_e, batch.stress, batch.effort, batch.mask,
        cfg.gamma, cfg.label_smoothing, cfg.lambda_effort,
    )
    total_t.backward()
    grads = {}
    for key, tensor in params_t.items():
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for parameter {key!r}")
        grads[key] = g
    return float(total_t.data), stress_val, effort_val, grads


def evaluate_balanced_accuracy(params, arch, val: Batch) -> tuple[float, float]:
    """(stress BA, effort BA) on a validation batch, scored by
    ``capstate.metrics.head_metrics``. NaN marks an undefined head."""
    metrics = head_metrics(*forward(params, arch, val), val.stress, val.effort, val.mask)
    return tuple(float("nan") if m is None else m.ba for m in metrics.values())


def train_fold(
    train: Batch,
    val: Batch,
    arch: ArchConfig,
    cfg: TrainConfig,
    seed: int = 42,
) -> tuple[dict[str, np.ndarray], TrainHistory]:
    """Mini-batch training with early stopping on mean validation BA
    (warmup + patience) and reduce-on-plateau LR; returns the parameters from
    the best epoch. An empty or single-class validation set raises
    ``DataError``."""
    if len(val) == 0:
        raise DataError("validation set is empty")
    if not some_head_defined(val.stress, val.effort, val.mask):
        raise DataError("validation set has a single class on both heads; BA undefined")

    params = init_params(arch, seed)
    opt = AdamW(
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        grad_clip_norm=cfg.grad_clip_norm,
    )
    history = TrainHistory()
    best_metric = -np.inf
    best_epoch = 0
    best_params = {k: v.copy() for k, v in params.items()}
    plateau_wait = 0
    lr = cfg.lr
    n = len(train)

    for epoch in range(1, cfg.max_epochs + 1):
        order = np.random.default_rng(substream_seed(seed, "shuffle", epoch)).permutation(n)
        loss_sum = 0.0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            total, _, _, grads = loss_and_grads(
                params, arch, cfg, train.select(idx),
                dropout_seed=substream_seed(seed, "dropout", epoch, bi),
            )
            opt.lr = lr
            params = opt.step(params, grads)
            loss_sum += total * len(idx)
        train_loss = loss_sum / n

        ba_s, ba_e = evaluate_balanced_accuracy(params, arch, val)
        metric = joint_ba((ba_s, ba_e))
        history.append(epoch, train_loss, ba_s, ba_e, lr)

        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
            plateau_wait = 0
        else:
            plateau_wait += 1
            if plateau_wait >= cfg.plateau_patience:
                lr *= cfg.plateau_factor
                plateau_wait = 0

        if epoch >= cfg.early_stop_warmup and (
            epoch - max(best_epoch, cfg.early_stop_warmup) >= cfg.early_stop_patience
        ):
            break

    history.best_epoch = best_epoch
    history.stopped_epoch = history.rows[-1]["epoch"]
    return best_params, history
