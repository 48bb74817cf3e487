"""Leave-one-subject-out cross-validation.

Per fold, the held-out subject contributes nothing to training, inner
validation, the CV-gated log-transform flags, or training-side normalization
statistics. For leakage probes, ``heldout_perturbation`` corrupts only the
copy of the held-out subject used for evaluation: the fold's trained
parameters must be unchanged, and no other fold may move at all.
"""

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import DataError
from ..heap import keep_heap
from ..ingest import LabelScheme, relabel_stress
from ..metrics import effort_scored, head_metrics, some_head_defined
from ..model.network import ArchConfig, forward, substream_seed
from ..model.train import TrainConfig, TrainHistory, train_fold
from ..pipeline import WindowedDataset, apply_fold_transform, fit_fold_transform


@dataclass
class FoldResult:
    subject_id: str
    condition: np.ndarray
    window_start_s: np.ndarray
    u: np.ndarray
    o: np.ndarray
    stress: np.ndarray
    effort: np.ndarray
    mask: np.ndarray
    history: TrainHistory = field(default_factory=TrainHistory)
    audit: dict = field(default_factory=dict)
    metrics: dict = field(init=False)  # {"stress": Metrics|None, "effort": Metrics|None}, from the columns
    n_eff: int = field(init=False)  # windows the effort head is scored on

    def __post_init__(self):
        self.metrics = head_metrics(self.u, self.o, self.stress, self.effort, self.mask)
        self.n_eff = int(effort_scored(self.mask).sum())

    def ba(self, head: str) -> float:
        m = self.metrics.get(head)
        return m.ba if m is not None else float("nan")


def _params_digest(params: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(np.ascontiguousarray(params[key]).tobytes())
    return h.hexdigest()


def _run_single_fold(args) -> FoldResult:
    dataset, held, arch, cfg, normalization_mode, perturb, seed = args
    subjects = dataset.subjects()
    train_subjects = [s for s in subjects if s != held]

    held_ds = dataset.for_subjects([held])
    if perturb is not None:
        held_ds = perturb(held_ds)
    train_ds = dataset.for_subjects(train_subjects)

    # seeded inner validation split (subject-grouped, leak-free); redraw when a
    # pathological pick leaves balanced accuracy undefined on both heads
    n_val = min(cfg.val_subjects, len(train_subjects) - 1)  # >= 1: three subjects or more, val_subjects >= 1
    rng = np.random.default_rng(substream_seed(seed, "val-split", held))
    val_subjects = None
    for _ in range(64):
        candidate = sorted(rng.choice(train_subjects, size=n_val, replace=False).tolist())
        cand_ds = train_ds.for_subjects(candidate)
        if some_head_defined(cand_ds.stress, cand_ds.effort, cand_ds.mask):
            val_subjects = candidate
            break
    if val_subjects is None:
        raise DataError(f"no viable inner validation split for fold {held!r} (training subjects {train_subjects})")
    inner_train = [s for s in train_subjects if s not in val_subjects]

    transform = fit_fold_transform(train_ds, normalization_mode)
    train_norm = apply_fold_transform(train_ds, transform)
    held_norm = apply_fold_transform(held_ds, transform)

    params, history = train_fold(
        train_norm.for_subjects(inner_train),
        train_norm.for_subjects(val_subjects),
        arch,
        cfg,
        seed=substream_seed(seed, "fold", held),
    )

    u, o = forward(params, arch, held_norm)
    return FoldResult(
        subject_id=held,
        condition=held_norm.condition.copy(),
        window_start_s=held_norm.window_start_s.copy(),
        u=u.copy(),
        o=o.copy(),
        stress=held_norm.stress.copy(),
        effort=held_norm.effort.copy(),
        mask=held_norm.mask.copy(),
        history=history,
        audit={
            "log_flags": transform.log_transform.flags,
            "normalization_mode": normalization_mode,
            "train_subjects": inner_train,
            "val_subjects": val_subjects,
            "params_digest": _params_digest(params),
        },
    )


def run_loso(
    dataset: WindowedDataset,
    arch: ArchConfig,
    cfg: TrainConfig,
    normalization_mode: str = "self_per_subject",
    scheme: LabelScheme = LabelScheme.PRIMARY,
    parallel_folds: int = 1,
    heldout_perturbation=None,
    seed: int = 42,
) -> list[FoldResult]:
    """One fold per subject, ordered by subject id; each fold draws its
    validation split and training randomness from substreams of ``seed``.

    With ``parallel_folds > 1`` folds run in up to that many processes (never
    more than one per subject), so the dataset, configs, and any
    ``heldout_perturbation`` must be picklable (module-level functions, not
    closures). Fewer than 3 subjects, a subject with windows from fewer than
    2 conditions, or a fold without a usable validation split raise
    ``DataError`` naming the subject or fold."""
    subjects = dataset.subjects()
    if len(subjects) < 3:
        raise DataError(f"LOSO needs at least 3 subjects, got {len(subjects)}: {subjects}")
    for s in subjects:
        conds = sorted(set(dataset.condition[dataset.subject == s].tolist()))
        if len(conds) < 2:
            raise DataError(f"subject {s!r} has windows from fewer than 2 conditions: {conds}")
    dataset = replace(dataset, stress=relabel_stress(dataset.stress, dataset.condition, scheme))

    jobs = [(dataset, held, arch, cfg, normalization_mode, heldout_perturbation, seed) for held in subjects]
    workers = min(parallel_folds, len(subjects))
    if workers > 1:
        # workers started by forkserver or spawn do not inherit the parent's allocator policy
        with ProcessPoolExecutor(max_workers=workers, initializer=keep_heap) as pool:
            results = list(pool.map(_run_single_fold, jobs))
    else:
        results = [_run_single_fold(job) for job in jobs]
    return results
