from .network import ArchConfig, Batch, forward, init_params
from .losses import masked_multitask_loss
from .optim import AdamW, clip_global_norm
from .train import TrainConfig, TrainHistory, train_fold

__all__ = [
    "ArchConfig",
    "Batch",
    "forward",
    "init_params",
    "masked_multitask_loss",
    "AdamW",
    "clip_global_norm",
    "TrainConfig",
    "TrainHistory",
    "train_fold",
]
