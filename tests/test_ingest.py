import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capstate.cli as cli_mod
from capstate.config import sha256_file
from capstate.errors import DataError
from capstate.ingest import (
    _read_entry,
    _read_two_column_csv,
    CONDITION_LABELS,
    Condition,
    LabelScheme,
    Session,
    SyntheticSpec,
    generate_synthetic_recording,
    load_recording,
    parsed_entry,
    read_sessions,
    relabel_stress,
    write_recording_csvs,
    write_sessions_csv,
)


class TestLabels:
    def test_assignment_exhaustive(self):
        assert CONDITION_LABELS == {Condition.C1: (0, 0, 1), Condition.C2: (1, -1, 0), Condition.C3: (1, 1, 1)}

    def test_table_keeps_the_label_rules(self):
        """Every condition has labels; stress is 0 or 1, the mask is 0
        exactly when effort is undefined (-1), and effort is otherwise 0 or 1."""
        assert set(CONDITION_LABELS) == set(Condition)
        for stress, effort, mask in CONDITION_LABELS.values():
            assert stress in (0, 1) and mask in (0, 1) and effort in (-1, 0, 1)
            assert (mask == 0) == (effort == -1)

    CONDITIONS = np.array(["c1", "c2", "c3", "c2", "c1", "c3"], dtype=object)

    def _stress(self):
        return np.array([CONDITION_LABELS[Condition(c)][0] for c in self.CONDITIONS])

    def test_relabel_c2_stress_low(self):
        out = relabel_stress(self._stress(), self.CONDITIONS, LabelScheme.C2_STRESS_LOW)
        assert out.tolist() == [0, 0, 1, 0, 0, 1]

    def test_relabel_identity_cases(self):
        stress = self._stress()
        out = relabel_stress(stress, self.CONDITIONS, LabelScheme.PRIMARY)
        assert np.array_equal(out, stress)
        out = relabel_stress(stress, self.CONDITIONS, LabelScheme.C2_STRESS_LOW)
        keep = self.CONDITIONS != "c2"
        assert np.array_equal(out[keep], stress[keep])

    def test_relabel_touches_only_c2_stress_fields(self, rng):
        # arbitrary stress values: only c2 rows change, and the input is not mutated
        stress = rng.integers(0, 2, len(self.CONDITIONS))
        before = stress.copy()
        out = relabel_stress(stress, self.CONDITIONS, LabelScheme.C2_STRESS_LOW)
        assert np.array_equal(stress, before)
        assert out is not stress
        assert np.all(out[self.CONDITIONS == "c2"] == 0)
        assert np.array_equal(out[self.CONDITIONS != "c2"], before[self.CONDITIONS != "c2"])


class TestSyntheticGeneration:
    def test_constant_ibi_peak_count_and_intervals(self):
        spec = SyntheticSpec(duration_s=60.0, heart_rate_profile=((0.0, 1000.0),), seed=3)
        _, truth = generate_synthetic_recording(spec)
        assert len(truth.r_peak_times_s) in (60, 61)
        assert np.allclose(truth.true_ibis_ms, 1000.0)

    def test_no_events_no_noise_gives_exact_tonic(self):
        spec = SyntheticSpec(
            duration_s=30.0, tonic_level_us=2.5, tonic_drift_slope=0.01, seed=0
        )
        rec, truth = generate_synthetic_recording(spec)
        t = np.arange(len(rec.eda)) / rec.eda.rate_hz
        assert np.abs(rec.eda.values - (2.5 + 0.01 * t)).max() < 1e-12
        assert np.array_equal(truth.tonic_trace, rec.eda.values)

    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(
            duration_s=20.0,
            ibi_jitter_ms=25.0,
            scr_events=((5.0, 0.4), (12.0, 0.7)),
            noise_sd=0.01,
            ecg_noise_sd=0.05,
            seed=99,
        )
        rec1, truth1 = generate_synthetic_recording(spec)
        rec2, truth2 = generate_synthetic_recording(spec)
        assert np.array_equal(rec1.ecg.values, rec2.ecg.values)
        assert np.array_equal(rec1.eda.values, rec2.eda.values)
        assert np.array_equal(truth1.r_peak_times_s, truth2.r_peak_times_s)

    def test_peak_count_covers_duration(self):
        spec = SyntheticSpec(duration_s=45.0, heart_rate_profile=((0.0, 750.0),), seed=1)
        _, truth = generate_synthetic_recording(spec)
        # beats accumulate from 0.5 s at 0.75 s spacing until duration - 0.1 s
        expected = int(np.floor((45.0 - 0.1 - 0.5) / 0.75)) + 1
        assert abs(len(truth.r_peak_times_s) - expected) <= 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(duration_s=10.0, scr_events=((5.0, -0.1),))
        with pytest.raises(ValueError):
            SyntheticSpec(duration_s=10.0, scr_events=((50.0, 0.1),))
        with pytest.raises(ValueError):
            SyntheticSpec(duration_s=-1.0)


@pytest.fixture
def tree(tmp_path):
    spec = SyntheticSpec(duration_s=12.0, noise_sd=0.01, seed=5, ecg_rate_hz=256.0, eda_rate_hz=32.0)
    rec, _ = generate_synthetic_recording(spec)
    row = write_recording_csvs(tmp_path, "pp01", Condition.C1, rec)
    write_sessions_csv(tmp_path, [row])
    return tmp_path


class TestReadSessions:
    def test_one_record_per_row_in_file_order(self, tmp_path):
        rows = [{"subject_id": s, "condition": c, "ecg_file": f"{s}/ecg_{i}.csv", "eda_file": f"{s}/eda_{i}.csv"}
                for i, (s, c) in enumerate([("pp02", "c3"), ("pp01", " C2 "), ("pp02", "c1")])]
        write_sessions_csv(tmp_path, rows)
        sessions = read_sessions(tmp_path)
        assert sessions == [
            Session(tmp_path, "pp02", Condition.C3, "pp02/ecg_0.csv", "pp02/eda_0.csv"),
            Session(tmp_path, "pp01", Condition.C2, "pp01/ecg_1.csv", "pp01/eda_1.csv"),
            Session(tmp_path, "pp02", Condition.C1, "pp02/ecg_2.csv", "pp02/eda_2.csv"),
        ]
        assert pickle.loads(pickle.dumps(sessions)) == sessions


def _load(tree, ecg_nominal_hz=256.0, eda_nominal_hz=32.0, parsed=None):
    """The tree's one recording, pp01 under c1."""
    return load_recording(read_sessions(tree)[0], ecg_nominal_hz, eda_nominal_hz, parsed)


class TestLoadRecording:
    def test_round_trip(self, tree):
        rec = _load(tree)
        assert rec.subject_id == "pp01"
        assert rec.condition is Condition.C1
        assert rec.ecg.rate_hz == pytest.approx(256.0, rel=1e-6)
        assert rec.eda.rate_hz == pytest.approx(32.0, rel=1e-6)
        assert len(rec.ecg) == 12 * 256

    def test_missing_file_reported_with_name(self, tree):
        path = tree / "pp01" / "eda_c1.csv"
        path.unlink()
        with pytest.raises(DataError, match=f"missing file: {re.escape(str(path))}"):
            _load(tree)

    def test_non_monotonic_timestamps_rejected(self, tree):
        path = tree / "pp01" / "ecg_c1.csv"
        lines = path.read_text().splitlines()
        lines[5], lines[6] = lines[6], lines[5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-monotonic"):
            _load(tree)

    def test_rate_mismatch_rejected(self, tree):
        with pytest.raises(DataError, match="rate mismatch"):
            _load(tree, ecg_nominal_hz=2048.0)

    def test_bad_header_rejected(self, tree):
        path = tree / "pp01" / "eda_c1.csv"
        body = path.read_text().splitlines()[1:]
        path.write_text("time,value\n" + "\n".join(body) + "\n")
        with pytest.raises(DataError, match="header"):
            _load(tree)


def _same_recording(a, b) -> bool:
    """Bit-identical samples, rates and duration."""
    return (a.ecg.values.tobytes() == b.ecg.values.tobytes() and a.eda.values.tobytes() == b.eda.values.tobytes()
            and (a.ecg.rate_hz, a.eda.rate_hz, a.duration_s) == (b.ecg.rate_hz, b.eda.rate_hz, b.duration_s))


def _cold_table(path, header) -> np.ndarray:
    return np.column_stack(_read_two_column_csv(path, header))


def _bad_entries(good: np.ndarray, entry):
    """Entries a load must refuse, written over ``entry``; ``good`` is what
    the entry should hold."""
    nan = good.copy()
    nan[len(nan) // 2, 1] = np.nan
    return {
        "truncated": lambda: entry.write_bytes(entry.read_bytes()[: len(entry.read_bytes()) // 2]),
        "three-rows": lambda: np.save(entry, np.vstack([good[:, 0], good[:, 1], good[:, 1]])),
        "int64": lambda: np.save(entry, good.astype(np.int64)),
        "object": lambda: np.save(entry, good.astype(object), allow_pickle=True),
        "nan": lambda: np.save(entry, nan),
    }


class TestParsedEntries:
    """A parsed-samples entry stands in for its CSV's parse only when it loads
    and holds a sample table; anything else is parsed again and rewritten."""

    FILES = (("pp01/ecg_c1.csv", "mv"), ("pp01/eda_c1.csv", "us"))

    def _parsed(self, tree):
        entries = tree / "parsed"
        entries.mkdir(exist_ok=True)
        return {tree / rel: parsed_entry(entries, sha256_file(tree / rel)) for rel, _ in self.FILES}

    def test_entry_written_then_read(self, tree, monkeypatch):
        cold = _load(tree)
        parsed = self._parsed(tree)
        assert _same_recording(_load(tree, parsed=parsed), cold)
        for rel, header in self.FILES:
            kept = np.load(parsed[tree / rel], allow_pickle=False)
            assert kept.tobytes() == _cold_table(tree / rel, header).tobytes()
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: pytest.fail("parsed a CSV with its entry kept"))
        assert _same_recording(_load(tree, parsed=parsed), cold)

    @pytest.mark.parametrize("kind", ["truncated", "three-rows", "int64", "object", "nan"])
    def test_bad_entry_is_a_miss_and_rewritten(self, tree, kind):
        cold = _load(tree)
        parsed = self._parsed(tree)
        _load(tree, parsed=parsed)
        for rel, header in self.FILES:
            entry = parsed[tree / rel]
            _bad_entries(_cold_table(tree / rel, header), entry)[kind]()
            assert _read_entry(entry) is None
        assert _same_recording(_load(tree, parsed=parsed), cold)
        for rel, header in self.FILES:
            assert np.load(parsed[tree / rel], allow_pickle=False).tobytes() == \
                _cold_table(tree / rel, header).tobytes()
        assert sorted(p.name for p in (tree / "parsed").iterdir()) == sorted(p.name for p in parsed.values())

    def test_bad_csv_gets_no_entry(self, tree):
        path = tree / "pp01" / "ecg_c1.csv"
        lines = path.read_text().splitlines()
        lines[5], lines[6] = lines[6], lines[5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-monotonic"):
            _load(tree, parsed=self._parsed(tree))
        assert not list((tree / "parsed").iterdir())

    def test_stale_entry_pruned_after_an_edit(self, tmp_path, monkeypatch):
        """Preprocess, edit one sample of one CSV, preprocess again: the edited
        file misses (its digest moved), its loaded samples match a cold load,
        its new entry holds them, and the old entry is gone, as is a stray
        temporary file; a file of another name in ``parsed/`` is kept."""
        args = ["--set", f"data_root={json.dumps(str(tmp_path / 'data'))}",
                "--set", f"output_root={json.dumps(str(tmp_path / 'out'))}",
                "--set", "synth.n_subjects=1", "--set", "synth.duration_s=150", "--set", "ecg_nominal_hz=512"]
        assert cli_mod.main(["synth", *args]) == 0
        assert cli_mod.main(["preprocess", *args]) == 0
        entries = tmp_path / "out" / "parsed"
        before = {p.name for p in entries.iterdir()}
        (entries / "notes.txt").write_text("not an entry")
        (entries / f"{'0' * 64}.npy.tmp").write_bytes(b"left by a write that stopped")
        path = tmp_path / "data" / "sim01" / "ecg_c1.csv"
        stale = f"{sha256_file(path)}.npy"
        lines = path.read_text().splitlines()
        t, v = lines[10].split(",")
        lines[10] = f"{t},{float(v) + 0.5!r}"
        path.write_text("\n".join(lines) + "\n")

        loaded = []
        real = cli_mod.ingest.load_recording

        def keep(session, *args, **kwargs):
            loaded.append((session, real(session, *args, **kwargs)))
            return loaded[-1][1]

        monkeypatch.setattr(cli_mod.ingest, "load_recording", keep)
        assert cli_mod.main(["preprocess", *args]) == 0
        fresh = f"{sha256_file(path)}.npy"
        after = {p.name for p in entries.iterdir()}
        assert stale in before and stale not in after
        assert after == before - {stale} | {fresh, "notes.txt"}
        assert (entries / "notes.txt").read_text() == "not an entry"
        assert np.load(entries / fresh, allow_pickle=False).tobytes() == _cold_table(path, "mv").tobytes()
        for session, rec in loaded:
            assert _same_recording(rec, real(session, 512.0, 32.0))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# increasing timestamps written with repr stay increasing after the round trip
TIMES = st.lists(FINITE, min_size=2, max_size=40, unique=True).map(sorted)
FORMATS = ("{!r}", "{:.6g}", "{:.3e}", " {!r}", "{!r} ")


def _write(path, rows, header="t_s,mv"):
    path.write_text(header + "\n" + "".join(line + "\n" for line in rows))
    return path


# Each corruption rewrites data row i (1 <= i < n) given its and the previous row's timestamp.
CORRUPTIONS = {
    "truncated": (lambda t, prev: f"{t!r}", "malformed"),
    "truncated_after_comma": (lambda t, prev: f"{t!r},", "malformed"),
    "extra_field": (lambda t, prev: f"{t!r},1.0,2.0", "malformed"),
    "non_numeric": (lambda t, prev: f"{t!r},abc", "malformed"),
    "digit_groups": (lambda t, prev: f"{t!r},1_000", "malformed"),
    "nan_value": (lambda t, prev: f"{t!r},nan", "non-finite"),
    "inf_value": (lambda t, prev: f"{t!r},-inf", "non-finite"),
    "inf_time": (lambda t, prev: "inf,1.0", "non-finite"),
    "duplicate_time": (lambda t, prev: f"{prev!r},1.0", "non-monotonic"),
    "decreasing_time": (lambda t, prev: f"{prev - 1.0!r},1.0", "non-monotonic"),
}


class TestCsvReader:
    """The vectorised two-column reader, and the line it names when it refuses a file."""

    @given(times=TIMES, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_valid_file_parses_like_float(self, tmp_path_factory, times, data):
        # bounded so that no format rounds a value past the largest float
        values = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=len(times), max_size=len(times)))
        fmt = data.draw(st.sampled_from(FORMATS))
        fields = [(repr(t), fmt.format(v)) for t, v in zip(times, values)]
        path = _write(tmp_path_factory.mktemp("csv") / "x.csv", [f"{a},{b}" for a, b in fields])
        t, v = _read_two_column_csv(path, "mv")
        assert t.tobytes() == np.array([float(a) for a, _ in fields]).tobytes()
        assert v.tobytes() == np.array([float(b) for _, b in fields]).tobytes()

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    @given(times=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40, unique=True).map(sorted),
           data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_corrupt_row_names_path_and_line(self, tmp_path_factory, kind, times, data):
        make, reason = CORRUPTIONS[kind]
        i = data.draw(st.integers(1, len(times) - 1))
        rows = [f"{t!r},0.5" for t in times]
        rows[i] = make(times[i], times[i - 1])
        path = _write(tmp_path_factory.mktemp("csv") / "x.csv", rows)
        with pytest.raises(DataError, match=re.escape(str(path))) as err:
            _read_two_column_csv(path, "mv")
        assert f"{reason}" in str(err.value) and f"line {i + 2}" in str(err.value)

    def test_extra_field_on_every_row_rejected(self, tmp_path):
        path = _write(tmp_path / "x.csv", ["0.0,1.0,9", "0.5,1.0,9", "1.0,1.0,9"])
        with pytest.raises(DataError, match="malformed line 2"):
            _read_two_column_csv(path, "mv")

    def test_undecodable_bytes_name_the_line(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"t_s,mv\n0.0,1.0\n0.5,\xff\xfe\n1.0,1.0\n")
        with pytest.raises(DataError, match="malformed line 3"):
            _read_two_column_csv(path, "mv")

    def test_wrong_header_rejected(self, tmp_path):
        path = _write(tmp_path / "x.csv", ["0.0,1.0", "0.5,1.0"], header="t_s,us")
        with pytest.raises(DataError, match=re.escape(str(path)) + ".*header"):
            _read_two_column_csv(path, "mv")

    @pytest.mark.parametrize("rows", [[], ["0.0,1.0"]])
    def test_fewer_than_two_rows_rejected(self, tmp_path, rows):
        path = _write(tmp_path / "x.csv", rows)
        with pytest.raises(DataError, match=re.escape(str(path)) + ".*fewer than 2 samples"):
            _read_two_column_csv(path, "mv")
