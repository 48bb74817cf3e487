"""The one table format: CSV files of windows, fold results and training
histories, written by ``format_table`` and read back by ``read_table``.

A table is a header line and one unquoted line per row. Each column's cells
are formatted by its dtype: floats with ``repr`` (the shortest form that
reads back to the same float), everything else with ``str``, so identical
runs produce byte-identical files and manifest digests.
"""

from itertools import groupby
from pathlib import Path

import numpy as np

from .cardiac import HRV_FEATURE_NAMES
from .eda import EDA_FEATURE_NAMES
from .errors import DataError
from .evaluation.loso import FoldResult
from .ingest import Condition
from .model.train import TrainHistory
from .pipeline import WindowedDataset, concat_datasets


def format_table(columns: dict[str, np.ndarray]) -> str:
    """Header line plus one line per row of equal-length 1-D columns."""
    runs = []  # each run of adjacent float or non-float columns, formatted row by row
    for is_float, run in groupby(map(np.asarray, columns.values()), key=lambda c: c.dtype.kind == "f"):
        fmt = repr if is_float else str
        runs.append([",".join(map(fmt, row)) for row in np.array(list(run)).T.tolist()])
    return "".join(",".join(line) + "\n" for line in [list(columns), *zip(*runs)])


def write_table(path, columns: dict[str, np.ndarray]) -> None:
    Path(path).write_text(format_table(columns))


def read_table(path, expected_header) -> dict[str, np.ndarray]:
    """The columns of a table file by name. ``expected_header`` maps each
    column name to the type its cells parse as (``float``, ``int`` or
    ``object`` for text); for a table whose width the file sets, it is a
    function of the file's header row returning that map. A missing file,
    another header, no rows, a row of the wrong width or a cell that does
    not parse raises ``DataError`` naming the file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing file: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc}") from None
    header, *rows = [line.split(",") for line in text.splitlines()] or [[]]
    if callable(expected_header):
        expected_header = expected_header(header)
    if header != list(expected_header):
        raise DataError(f"{path}: unexpected header")
    if not rows:
        raise DataError(f"{path}: no rows")
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: line {line}: {len(row)} cells, the header has {len(header)}")
    columns = {}
    for (name, kind), cells in zip(expected_header.items(), zip(*rows)):
        try:
            columns[name] = np.array(cells, dtype=kind)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}: column {name}: {exc}") from None
    return columns


def _reject_rows(path, bad: np.ndarray, what: str) -> None:
    if bad.any():
        raise DataError(f"{path}: line {int(np.argmax(bad)) + 2}: {what}")


def _check_labels(path, condition, stress, effort, mask) -> None:
    """The label rules of window and fold files: condition c1, c2 or c3,
    stress 0 or 1, and effort 0 or 1 where mask is 1 and -1 where mask is 0."""
    _reject_rows(path, ~np.isin(condition, [c.value for c in Condition]), "condition is not c1, c2 or c3")
    _reject_rows(path, ~np.isin(stress, (0, 1)), "stress is not 0 or 1")
    effort_ok = np.where(mask == 1, np.isin(effort, (0, 1)), (mask == 0) & (effort == -1))
    _reject_rows(path, ~effort_ok, "mask is not 0 or 1, or effort is not 0 or 1 with mask 1 and -1 with mask 0")


_WINDOW_LABELS = dict(subject=object, condition=object, window_start_s=float, stress=int, effort=int, mask=int)


def _window_header(window_len: int) -> dict:
    """The labels, then the float columns of the IBI and EDA series and of
    the HRV and EDA features."""
    series = [f"{i:03d}" for i in range(window_len)]
    values = ([f"x_ibi_{s}" for s in series] + [f"x_eda_{s}" for s in series]
              + [f"hrv_{n}" for n in HRV_FEATURE_NAMES] + [f"eda_{n}" for n in EDA_FEATURE_NAMES])
    return {**_WINDOW_LABELS, **dict.fromkeys(values, float)}


def write_windows_csv(path, ds: WindowedDataset) -> None:
    columns = {name: getattr(ds, name) for name in _WINDOW_LABELS}
    value_names = list(_window_header(ds.x_ibi.shape[1]))[len(columns):]
    columns.update(zip(value_names, np.hstack([ds.x_ibi, ds.x_eda, ds.f_hrv, ds.f_eda]).T))
    write_table(path, columns)


def read_windows_csv(path) -> WindowedDataset:
    """One window table. Every series and feature value must be finite, and
    the labels must keep the rules of ``_check_labels``."""
    columns = read_table(path, lambda header: _window_header(sum(n.startswith("x_ibi_") for n in header)))
    labels = {name: columns.pop(name) for name in _WINDOW_LABELS}
    values = np.column_stack(list(columns.values()))
    n_hrv, n_eda = len(HRV_FEATURE_NAMES), len(EDA_FEATURE_NAMES)
    window_len = (values.shape[1] - n_hrv - n_eda) // 2
    x_ibi, x_eda, f_hrv, f_eda = np.split(values, np.cumsum([window_len, window_len, n_hrv]), axis=1)
    ds = WindowedDataset(x_ibi=x_ibi, x_eda=x_eda, f_hrv=f_hrv, f_eda=f_eda, **labels)
    _reject_rows(path, ~np.isfinite(values).all(axis=1), "non-finite series or feature value")
    _check_labels(path, ds.condition, ds.stress, ds.effort, ds.mask)
    return ds


def read_windows_dir(windows_dir) -> WindowedDataset:
    paths = sorted(Path(windows_dir).glob("windows_*.csv"))
    if not paths:
        raise DataError(f"no windows_*.csv files under {windows_dir}")
    return concat_datasets([read_windows_csv(p) for p in paths])


FOLD_COLUMNS = dict(subject=object, condition=object, window_start_s=float, U=float, O=float,
                    stress_label=int, effort_label=int, mask=int)
HISTORY_COLUMNS = dict(epoch=int, train_loss=float, val_ba_stress=float, val_ba_effort=float, lr=float)


def write_fold_csv(path, fold: FoldResult) -> None:
    values = (np.full(len(fold.u), fold.subject_id, dtype=object), fold.condition, fold.window_start_s,
              fold.u, fold.o, fold.stress, fold.effort, fold.mask)
    write_table(path, {name: np.asarray(v, dtype=kind) for (name, kind), v in zip(FOLD_COLUMNS.items(), values)})


def read_fold_csv(path) -> FoldResult:
    """One fold table. U and O must lie in [0, 1], every row must name the
    same subject, and the labels must keep the rules of ``_check_labels``."""
    subject, condition, start, u, o, stress, effort, mask = read_table(path, FOLD_COLUMNS).values()
    _reject_rows(path, ~((u >= 0) & (u <= 1) & (o >= 0) & (o <= 1)), "U or O outside [0, 1]")
    _reject_rows(path, subject != subject[0], f"subject differs from {subject[0]!r} on line 2")
    _check_labels(path, condition, stress, effort, mask)
    return FoldResult(subject[0], condition, start, u, o, stress, effort, mask)


def read_folds_dir(results_dir) -> list[FoldResult]:
    paths = sorted(Path(results_dir).glob("fold_*.csv"))
    if not paths:
        raise DataError(f"no fold_*.csv files under {results_dir}")
    return [read_fold_csv(p) for p in paths]


def write_history_csv(path, history: TrainHistory) -> None:
    """One row per epoch: training loss, validation BA per head, learning rate."""
    write_table(path, {name: np.array([r[name] for r in history.rows], dtype=kind)
                       for name, kind in HISTORY_COLUMNS.items()})
