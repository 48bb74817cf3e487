"""Recording ingest: canonical CSV loading, condition labels, synthetic generator.

A :class:`Session` is one row of ``sessions.csv``: one subject under one
condition, with its ECG and EDA files. :func:`read_sessions` returns them in
file order, with the sha256 of the bytes it parsed, and :func:`load_recording`
loads one into a :class:`RawRecording` from the bytes of its two files.

On-disk layout (one directory per subject under the dataset root):

    <root>/sessions.csv                 header: subject_id,condition,ecg_file,eda_file
    <root>/<subject>/ecg_<cond>.csv     header: t_s,mv   (uniform step, nominally 2048 Hz)
    <root>/<subject>/eda_<cond>.csv     header: t_s,us   (uniform step, nominally 32 Hz)

Each channel file belongs to one session: ``sessions.csv`` names it once,
by whatever spelling, since a name is identified by the path it resolves to.

Each channel keeps its own time axis: a file's first timestamp is its
series' ``start_s`` and its timestamps' span gives its ``rate_hz``, so two
channels that start at different times stay aligned by their timestamps.
"""

import csv
import enum
import io
import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .dsp import UniformSeries
from .errors import DataError, read_input


class Condition(enum.Enum):
    C1 = "c1"
    C2 = "c2"
    C3 = "c3"


# Theory-driven labels (stress, effort, mask) of every window of a condition:
# c1 low/low, c2 high stress with effort undefined (-1) and masked out, c3 high/high
CONDITION_LABELS = {Condition.C1: (0, 0, 1), Condition.C2: (1, -1, 0), Condition.C3: (1, 1, 1)}


@dataclass(frozen=True)
class RawRecording:
    subject_id: str
    condition: Condition
    ecg: UniformSeries
    eda: UniformSeries

    @property
    def duration_s(self) -> float:
        """Seconds the longer of the two channels spans."""
        return max(self.ecg.duration_s, self.eda.duration_s)


class LabelScheme(enum.Enum):
    PRIMARY = "primary"
    C2_STRESS_LOW = "c2_stress_low"


def relabel_stress(stress: np.ndarray, condition: np.ndarray, scheme: LabelScheme) -> np.ndarray:
    """Sensitivity relabeling of per-window stress labels (a new array): under
    C2_STRESS_LOW every c2 window's stress label becomes low; everything else,
    effort and mask included, is untouched."""
    stress = np.array(stress, copy=True)
    if scheme is LabelScheme.C2_STRESS_LOW:
        stress[np.asarray(condition) == Condition.C2.value] = 0
    return stress


# ---------------------------------------------------------------------------
# Canonical CSV loading
# ---------------------------------------------------------------------------


def _is_sample_table(data) -> bool:
    """True for finite float64 ``(t, v)`` rows, at least two, with strictly
    increasing timestamps: what a parse must give and what an entry must hold."""
    return (
        isinstance(data, np.ndarray)
        and data.dtype == np.float64
        and data.ndim == 2
        and data.shape[1] == 2
        and len(data) >= 2
        and bool(np.isfinite(data).all())
        and bool(np.all(data[1:, 0] > data[:-1, 0]))  # compared, not subtracted: a difference can overflow
    )


def _read_entry(entry: Path):
    """The samples kept at ``entry``, or None when it is absent, unreadable
    or does not hold a sample table."""
    try:
        with open(entry, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    return data if _is_sample_table(data) else None


def _write_entry(entry: Path, data: np.ndarray) -> None:
    """Keep ``data`` at ``entry``; written under a temporary name and renamed,
    so a reader sees the old entry, the new one or none, never a part."""
    tmp = entry.with_name(entry.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, data, allow_pickle=False)
    os.replace(tmp, entry)


_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.npy(\.tmp)?")  # what parsed_entry and _write_entry name


def parsed_entry(parsed_dir: Path, digest: str) -> Path:
    """The entry under ``parsed_dir`` that keeps the parsed samples of the
    CSV whose sha256 hex digest is ``digest``."""
    return parsed_dir / f"{digest}.npy"


def prune_parsed(parsed_dir: Path, digests) -> None:
    """Delete every entry under ``parsed_dir`` that keeps no CSV of the sha256
    hex ``digests``, and any temporary file a write left; files of other
    names are left alone."""
    kept = {parsed_entry(parsed_dir, digest) for digest in digests}
    for path in parsed_dir.iterdir():
        if path not in kept and _ENTRY_NAME.fullmatch(path.name) and not path.is_dir():
            path.unlink()


def _read_two_column_csv(path: Path, value_header: str, data: bytes, entry: Path):
    """``(t, v)`` from ``data``, the bytes of the ``t_s,<value_header>`` CSV
    at ``path``, which must hold at least two rows of finite samples with
    strictly increasing timestamps; anything else raises :class:`DataError`
    naming the file (and its first bad line).

    Once the header checks out, ``entry``, where these bytes' parsed samples
    are kept, stands in for the parse if it loads and holds a sample table;
    otherwise ``data`` is parsed and, once the samples pass, written there.

    ``v`` is a copy of the value column, which the recording keeps; ``t``
    is a view of the parsed table, of which :func:`_load_channel` keeps only
    the first and last timestamps, as its series' origin and rate."""
    # utf-8-sig drops a byte-order mark; bad bytes fail as a bad field
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", errors="replace")
    header = fh.readline().rstrip("\n").split(",")
    if [h.strip() for h in header] != ["t_s", value_header]:
        raise DataError(f"{path}: expected header 't_s,{value_header}', got {header}")
    table = _read_entry(entry)
    if table is None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "no data": reported below
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            table = np.empty((0, 0))
        if not _is_sample_table(table):
            _raise_first_bad_line(path, fh)
        _write_entry(entry, table)
    return table[:, 0], table[:, 1].copy()


def _raise_first_bad_line(path: Path, fh) -> NoReturn:
    """Re-read, one line at a time, the text of a file the vectorised parse
    rejected, and raise :class:`DataError` for the first line at fault."""
    fh.seek(0)
    next(fh)
    prev_t = -math.inf
    rows = 0
    for lineno, line in enumerate(fh, start=2):
        text = line.rstrip("\n")
        if not text:
            continue  # blank lines are skipped by the parse as well
        fields = text.split(",")
        try:
            # float() takes "1_0" and non-ASCII digits such as "١٢" or "１"; the parse takes neither
            if len(fields) != 2 or "_" in text or not all(f.strip().isascii() for f in fields):
                raise ValueError
            t, v = float(fields[0]), float(fields[1])
        except ValueError:
            raise DataError(f"{path}: malformed line {lineno}: {text[:80]!r} (want 2 numeric fields)") from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise DataError(f"{path}: non-finite sample on line {lineno}: {text[:80]!r}")
        if t <= prev_t:
            raise DataError(f"{path}: non-monotonic timestamps on line {lineno}")
        prev_t = t
        rows += 1
    if rows < 2:
        raise DataError(f"{path}: fewer than 2 samples")
    raise DataError(f"{path}: unparseable data")


@dataclass(frozen=True)
class Session:
    """One row of ``<root>/sessions.csv``: a subject's recording under one
    condition, its two files named relative to ``root`` as listed."""

    root: Path
    subject_id: str
    condition: Condition
    ecg_file: str
    eda_file: str


def read_sessions(root_path) -> tuple[list[Session], str]:
    """The sessions ``<root>/sessions.csv`` lists, in file order, and the
    sha256 of the bytes parsed. There must be at least one; every row must
    name a subject, a known condition and both files, the subject id must
    hold no comma, double quote, slash or non-printable character (it becomes
    a cell of the unquoted output tables, which are split into lines by
    ``str.splitlines``, and part of a file name), no subject/condition pair
    may appear twice, no file name may hold NUL, and no file may be named
    twice, by two rows or as both channels of one, else :class:`DataError`
    names the file and the rows (and both spellings when they differ). So
    each channel file belongs to one session, and a held-out subject's
    samples cannot reach another subject's windows.

    A file is identified by the path its name resolves to (``os.path.realpath``
    under ``root``), so ``a/x.csv``, ``./a/x.csv`` and a name through a
    symlinked directory are one file; the sessions keep the names as listed.
    Nothing is opened or stat-ed here, so a missing file fails when its
    session is read, and two hard links to one file, or two names that differ
    only in case on a case-insensitive file system, are not detected."""
    root = Path(root_path)
    manifest = root / "sessions.csv"
    # utf-8-sig drops the byte-order mark spreadsheet programs write
    text, digest = read_input(manifest, "utf-8-sig")
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    if not rows:
        raise DataError(f"{manifest}: no rows")
    needed = {"subject_id", "condition", "ecg_file", "eda_file"}
    sessions, seen, listed = [], {}, {}
    for i, row in enumerate(rows, start=2):
        if not needed.issubset(row.keys()) or any(row[k] in (None, "") for k in needed):
            raise DataError(f"{manifest}: malformed row {i}: {row}")
        subject = row["subject_id"]
        if any(c in ',"/' or not c.isprintable() for c in subject):
            raise DataError(f"{manifest}: row {i}: subject id {subject!r} holds a comma, a double quote, "
                            "a slash or a non-printable character")
        try:
            condition = Condition(row["condition"].strip().lower())
        except ValueError:
            raise DataError(f"{manifest}: row {i}: unknown condition {row['condition']!r} "
                            "(expected c1/c2/c3)") from None
        if (subject, condition) in seen:
            raise DataError(f"{manifest}: rows {seen[subject, condition]} and {i} both list subject {subject!r} "
                            f"condition {condition.value}")
        seen[subject, condition] = i
        for channel, rel in enumerate((row["ecg_file"], row["eda_file"])):
            if "\0" in rel:  # no path can hold one, and os.path.realpath raises ValueError on it
                raise DataError(f"{manifest}: row {i}: file name {rel!r} holds a NUL character")
            # the row, channel and name that first list the path this name resolves to
            j, first_channel, first = listed.setdefault(os.path.realpath(root / rel), (i, channel, rel))
            if (j, first_channel) != (i, channel):
                named = repr(first) if rel == first else f"{first!r} (as {rel!r})"
                raise DataError(f"{manifest}: row {i} lists file {named} as both ECG and EDA" if j == i
                                else f"{manifest}: rows {j} and {i} both list file {named}")
        sessions.append(Session(root, subject, condition, row["ecg_file"], row["eda_file"]))
    return sessions, digest


def load_recording(session: Session, ecg_nominal_hz: float, eda_nominal_hz: float,
                   files, parsed_dir: Path) -> RawRecording:
    """Load the recording of one ``session`` (see :func:`read_sessions`) from
    ``files``, the bytes and sha256 of its ECG file, then of its EDA file, as
    :func:`capstate.errors.read_input` returns them; no file is read here.

    Raises :class:`DataError` naming the offending file for a bad header or
    line, non-monotonic timestamps, a channel whose samples all hold one
    value, or a sampling rate off nominal by more than 5%.

    Each channel becomes a series on its file's own time axis (see
    :func:`_load_channel`), so the two keep their timestamps' offset and
    ``window_recording`` cuts windows on their common span. The recording's
    ``duration_s`` is the longer channel's.

    Each file's parsed samples are kept under ``parsed_dir``, named by the
    sha256 of its bytes, so an entry is only ever read for the bytes it was
    parsed from. An entry that fails to load or to pass the parse checks is
    rewritten from the bytes; the header, flatness and rate checks run on
    every load.
    """
    ecg = _load_channel(session.root / session.ecg_file, "mv", ecg_nominal_hz, files[0], parsed_dir)
    eda = _load_channel(session.root / session.eda_file, "us", eda_nominal_hz, files[1], parsed_dir)
    return RawRecording(session.subject_id, session.condition, ecg, eda)


def _load_channel(path: Path, value_header: str, nominal_hz: float, file, parsed_dir: Path) -> UniformSeries:
    """The checked channel CSV at ``path`` from ``file``, its bytes and their
    sha256, as one series: its first timestamp is the series' ``start_s``,
    and its number of sample steps over the seconds its timestamps span is the
    measured ``rate_hz``, which must lie within 5% of ``nominal_hz``; a span
    past the largest float gives no rate and is refused. A channel whose
    samples all hold one value carries no signal (a disconnected lead or a
    stuck logger) and is refused as well, naming the file."""
    data, digest = file
    t, v = _read_two_column_csv(path, value_header, data, parsed_entry(parsed_dir, digest))
    if v.min() == v.max():
        raise DataError(f"{path}: flat channel, every sample is {float(v[0])!r}")
    first, last = float(t[0]), float(t[-1])
    span = last - first  # Python floats overflow to inf without a warning
    if not math.isfinite(span):
        raise DataError(f"{path}: timestamps {first!r} to {last!r}: their span is not finite")
    rate = (len(t) - 1) / span
    if abs(rate - nominal_hz) > 0.05 * nominal_hz:
        raise DataError(f"{path}: rate mismatch, measured {rate:.2f} Hz vs nominal {nominal_hz:.2f} Hz (>5%)")
    return UniformSeries(v, rate, first)


# ---------------------------------------------------------------------------
# Synthetic generation with ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic recording; fully determined by ``seed``."""

    duration_s: float
    heart_rate_profile: tuple = ((0.0, 1000.0),)  # (start_s, mean IBI ms) segments
    ibi_jitter_ms: float = 0.0
    scr_events: tuple = ()  # (onset_s, amplitude_uS)
    tonic_level_us: float = 2.0
    tonic_drift_slope: float = 0.0  # uS per second
    noise_sd: float = 0.0  # EDA additive noise, uS
    ecg_noise_sd: float = 0.0  # ECG additive noise, mV
    seed: int = 0
    ecg_rate_hz: float = 2048.0
    eda_rate_hz: float = 32.0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        for onset, amp in self.scr_events:
            if amp < 0:
                raise ValueError("SCR amplitudes must be >= 0")
            if not (0.0 <= onset < self.duration_s):
                raise ValueError("SCR onsets must lie within the recording")
        if not self.heart_rate_profile:
            raise ValueError("heart_rate_profile must have at least one segment")


@dataclass(frozen=True)
class GroundTruth:
    r_peak_times_s: np.ndarray
    true_ibis_ms: np.ndarray
    tonic_trace: np.ndarray

    def __post_init__(self):
        if len(self.r_peak_times_s) > 1 and np.any(np.diff(self.r_peak_times_s) <= 0):
            raise ValueError("ground-truth peak times must be strictly increasing")


def _mean_ibi_at(profile, t: float) -> float:
    ibi = profile[0][1]
    for start, value in profile:
        if t >= start:
            ibi = value
        else:
            break
    return ibi


def _qrs_template(rate_hz: float) -> tuple[np.ndarray, int]:
    """Asymmetric QRS-like pulse (~100 ms support) whose maximum sits at a
    known sample so detector timing can be scored against ground truth."""
    half_ms = 60.0
    n_half = int(round(half_ms / 1000.0 * rate_hz))
    t = np.arange(-n_half, n_half + 1) / rate_hz * 1000.0  # ms
    r = np.exp(-0.5 * (t / 9.0) ** 2)
    q = -0.12 * np.exp(-0.5 * ((t + 26.0) / 7.0) ** 2)
    s = -0.22 * np.exp(-0.5 * ((t - 22.0) / 8.0) ** 2)
    tpl = r + q + s
    return tpl, int(np.argmax(tpl))


def bateman_kernel(t: np.ndarray, tau_fast_s: float, tau_slow_s: float) -> np.ndarray:
    """Difference-of-exponentials SCR impulse response, zero for t < 0."""
    if not (tau_slow_s > tau_fast_s > 0):
        raise ValueError("need tau_slow > tau_fast > 0")
    h = (np.exp(-t / tau_slow_s) - np.exp(-t / tau_fast_s)) / (tau_slow_s - tau_fast_s)
    h[t < 0] = 0.0
    return h


def generate_synthetic_recording(spec: SyntheticSpec) -> tuple[RawRecording, GroundTruth]:
    """Build a deterministic ECG + EDA pair with exact ground truth.

    ECG: QRS templates at cumulative-IBI times (jittered by the seeded RNG).
    EDA: tonic level + linear drift + peak-normalized Bateman pulses + noise.
    """
    rng = np.random.default_rng(spec.seed)

    # beat times by accumulating the (jittered) piecewise IBI schedule
    peak_times = []
    t = 0.5  # first beat off the edge so templates are not clipped
    while t <= spec.duration_s - 0.1:
        peak_times.append(t)
        ibi = _mean_ibi_at(spec.heart_rate_profile, t)
        if spec.ibi_jitter_ms > 0:
            ibi = ibi + rng.normal(0.0, spec.ibi_jitter_ms)
        t = t + max(ibi, 250.0) / 1000.0
    peak_times = np.asarray(peak_times)
    true_ibis = np.diff(peak_times) * 1000.0

    n_ecg = int(round(spec.duration_s * spec.ecg_rate_hz))
    ecg = np.zeros(n_ecg)
    tpl, tpl_peak = _qrs_template(spec.ecg_rate_hz)
    for pt in peak_times:
        center = int(round(pt * spec.ecg_rate_hz))
        start = center - tpl_peak
        stop = start + len(tpl)
        lo, hi = max(start, 0), min(stop, n_ecg)
        if lo < hi:
            ecg[lo:hi] += tpl[lo - start : hi - start]
    if spec.ecg_noise_sd > 0:
        ecg = ecg + rng.normal(0.0, spec.ecg_noise_sd, n_ecg)

    n_eda = int(round(spec.duration_s * spec.eda_rate_hz))
    t_eda = np.arange(n_eda) / spec.eda_rate_hz
    tonic = spec.tonic_level_us + spec.tonic_drift_slope * t_eda
    eda = tonic.copy()
    if spec.scr_events:
        kernel_t = np.arange(0.0, 40.0, 1.0 / spec.eda_rate_hz)
        kernel = bateman_kernel(kernel_t, 0.7, 2.0)
        kernel = kernel / kernel.max()  # amplitude parameter = pulse peak height
        for onset, amp in spec.scr_events:
            i0 = int(round(onset * spec.eda_rate_hz))
            seg = min(len(kernel), n_eda - i0)
            if seg > 0:
                eda[i0 : i0 + seg] += amp * kernel[:seg]
    if spec.noise_sd > 0:
        eda = eda + rng.normal(0.0, spec.noise_sd, n_eda)

    rec = RawRecording(
        subject_id="synthetic",
        condition=Condition.C1,
        ecg=UniformSeries(ecg, spec.ecg_rate_hz),
        eda=UniformSeries(eda, spec.eda_rate_hz),
    )
    truth = GroundTruth(peak_times, true_ibis, tonic)
    return rec, truth


# ---------------------------------------------------------------------------
# Canonical tree writer (used by the `synth` CLI command and test fixtures)
# ---------------------------------------------------------------------------


def write_recording_csvs(root_path, subject_id: str, condition: Condition, rec: RawRecording) -> dict:
    """Write ecg_<cond>.csv / eda_<cond>.csv for one recording; returns the
    sessions.csv row."""
    root = Path(root_path)
    subdir = root / subject_id
    subdir.mkdir(parents=True, exist_ok=True)
    ecg_rel = f"{subject_id}/ecg_{condition.value}.csv"
    eda_rel = f"{subject_id}/eda_{condition.value}.csv"
    for rel, header, series in ((ecg_rel, "mv", rec.ecg), (eda_rel, "us", rec.eda)):
        rate = series.rate_hz  # read once: the loop below runs once per sample
        with open(root / rel, "w", newline="") as fh:
            fh.write(f"t_s,{header}\n")
            for i, v in enumerate(series.values):
                fh.write(f"{i / rate!r},{float(v)!r}\n")
    return {
        "subject_id": subject_id,
        "condition": condition.value,
        "ecg_file": ecg_rel,
        "eda_file": eda_rel,
    }


def write_sessions_csv(root_path, rows: list[dict]) -> None:
    root = Path(root_path)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "sessions.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["subject_id", "condition", "ecg_file", "eda_file"])
        writer.writeheader()
        writer.writerows(rows)
