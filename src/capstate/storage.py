"""CSV round-trips for windowed datasets and fold results.

Floats are written with ``repr`` (shortest round-trip form), so identical
runs produce byte-identical files and manifest digests.
"""

import csv
from pathlib import Path

import numpy as np

from .cardiac import HRV_FEATURE_NAMES
from .eda import EDA_FEATURE_NAMES
from .errors import DataError
from .evaluation.loso import FoldResult, fold_metrics
from .model.train import TrainHistory
from .pipeline import WindowedDataset, _empty_dataset, concat_datasets


def _window_header(window_len: int) -> list[str]:
    cols = ["subject", "condition", "window_start_s", "stress", "effort", "mask"]
    cols += [f"x_ibi_{i:03d}" for i in range(window_len)]
    cols += [f"x_eda_{i:03d}" for i in range(window_len)]
    cols += [f"hrv_{n}" for n in HRV_FEATURE_NAMES]
    cols += [f"eda_{n}" for n in EDA_FEATURE_NAMES]
    return cols


def write_windows_csv(path, ds: WindowedDataset) -> None:
    window_len = ds.x_ibi.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_window_header(window_len)) + "\n")
        for i in range(len(ds)):
            row = [
                str(ds.subject[i]),
                str(ds.condition[i]),
                repr(float(ds.window_start_s[i])),
                str(int(ds.stress[i])),
                str(int(ds.effort[i])),
                str(int(ds.mask[i])),
            ]
            row += [repr(float(v)) for v in ds.x_ibi[i]]
            row += [repr(float(v)) for v in ds.x_eda[i]]
            row += [repr(float(v)) for v in ds.f_hrv[i]]
            row += [repr(float(v)) for v in ds.f_eda[i]]
            fh.write(",".join(row) + "\n")


def read_windows_csv(path) -> WindowedDataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: no windows")
    window_len = sum(1 for h in header if h.startswith("x_ibi_"))
    expected = _window_header(window_len)
    if header != expected:
        raise DataError(f"{path}: unexpected window CSV header")
    ds = _empty_dataset(len(rows), window_len)
    for i, row in enumerate(rows):
        try:
            ds.subject[i] = row[0]
            ds.condition[i] = row[1]
            ds.window_start_s[i] = float(row[2])
            ds.stress[i] = int(row[3])
            ds.effort[i] = int(row[4])
            ds.mask[i] = int(row[5])
            k = 6
            ds.x_ibi[i] = [float(v) for v in row[k : k + window_len]]
            k += window_len
            ds.x_eda[i] = [float(v) for v in row[k : k + window_len]]
            k += window_len
            ds.f_hrv[i] = [float(v) for v in row[k : k + len(HRV_FEATURE_NAMES)]]
            k += len(HRV_FEATURE_NAMES)
            ds.f_eda[i] = [float(v) for v in row[k : k + len(EDA_FEATURE_NAMES)]]
        except (ValueError, IndexError):
            raise DataError(f"{path}: malformed row {i + 2}") from None
    return ds


def read_windows_dir(windows_dir) -> WindowedDataset:
    paths = sorted(Path(windows_dir).glob("windows_*.csv"))
    if not paths:
        raise DataError(f"no windows_*.csv files under {windows_dir}")
    return concat_datasets([read_windows_csv(p) for p in paths])


# ---------------------------------------------------------------------------
# Fold results
# ---------------------------------------------------------------------------

FOLD_HEADER = ["subject", "condition", "window_start_s", "U", "O", "stress_label", "effort_label", "mask"]


def write_fold_csv(path, fold: FoldResult) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(FOLD_HEADER) + "\n")
        for i in range(len(fold.u)):
            fh.write(
                f"{fold.subject_id},{fold.condition[i]},{float(fold.window_start_s[i])!r},"
                f"{float(fold.u[i])!r},{float(fold.o[i])!r},"
                f"{int(fold.stress[i])},{int(fold.effort[i])},{int(fold.mask[i])}\n"
            )


def read_fold_csv(path) -> FoldResult:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FOLD_HEADER:
            raise DataError(f"{path}: unexpected fold CSV header")
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty fold file")
    subject = rows[0][0]
    condition = np.array([r[1] for r in rows], dtype=object)
    start = np.array([float(r[2]) for r in rows])
    u = np.array([float(r[3]) for r in rows])
    o = np.array([float(r[4]) for r in rows])
    stress = np.array([int(r[5]) for r in rows])
    effort = np.array([int(r[6]) for r in rows])
    mask = np.array([int(r[7]) for r in rows])
    metrics, n_eff = fold_metrics(u, o, stress, effort, mask)
    return FoldResult(
        subject_id=subject,
        condition=condition,
        window_start_s=start,
        u=u,
        o=o,
        stress=stress,
        effort=effort,
        mask=mask,
        metrics=metrics,
        n_eff=n_eff,
        history=TrainHistory(),
        audit={},
    )


def read_folds_dir(results_dir) -> list[FoldResult]:
    paths = sorted(Path(results_dir).glob("fold_*.csv"))
    if not paths:
        raise DataError(f"no fold_*.csv files under {results_dir}")
    return [read_fold_csv(p) for p in paths]

