"""Run configuration: a single JSON file plus dotted-key command-line overrides.

:class:`PipelineConfig` is the one resolved and checked description of a
run. One loader builds it from JSON, section by section, from the dataclass
fields themselves; every ``__post_init__`` check runs while it is built, so
a bad value exits 2 naming its key before any stage reads data. Every stage
embeds the full config in its RunManifest, and all randomness flows from
``seed`` through named substreams, so identical config + data reruns produce
identical output digests.
"""

import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import types
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .dsp import WindowingPlan
from .eda import CvxEdaParams
from .errors import ConfigError
from .ingest import LabelScheme
from .model.network import ArchConfig
from .model.train import TrainConfig
from .pipeline import NORMALIZATION_MODES


@dataclass(frozen=True)
class AblationConfig:
    """Each field overrides the same ``arch`` field when set; None keeps it."""

    backbone: str | None = None
    modalities: tuple | None = None
    use_handcrafted_features: bool | None = None

    def __post_init__(self):
        ArchConfig(**self.overrides())  # each value set must be one ``arch`` accepts

    def overrides(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = 10
    duration_s: float = 360.0  # checked against ``windowing`` by the synth stage, the only one that reads it
    ecg_rate_hz: float = 512.0

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ValueError("n_subjects must be >= 1")
        if self.ecg_rate_hz <= 0:
            raise ValueError("ecg_rate_hz must be > 0")


@dataclass(frozen=True)
class PipelineConfig:
    data_root: str = "data"
    output_root: str = "out"
    seed: int = 42
    parallel_folds: int = 1
    ecg_nominal_hz: float = 2048.0
    eda_nominal_hz: float = 32.0
    normalization_mode: str = "self_per_subject"
    sensitivity_scheme: str = "primary"
    windowing: WindowingPlan = field(default_factory=WindowingPlan)
    arch: ArchConfig = field(default_factory=ArchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    cvxeda: CvxEdaParams = field(default_factory=CvxEdaParams)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def __post_init__(self):
        # ablation.* wins over arch.*: fold it in once, so every stage reads cfg.arch
        try:
            arch = dataclasses.replace(self.arch, **self.ablation.overrides())
        except ValueError as exc:  # the folded-in arch fails a check: name its section, as _build does
            raise ValueError(f"arch.{exc}") from None
        object.__setattr__(self, "arch", arch)
        if self.normalization_mode not in NORMALIZATION_MODES:
            raise ValueError(f"normalization_mode must be one of {NORMALIZATION_MODES}, "
                             f"got {self.normalization_mode!r}")
        schemes = tuple(s.value for s in LabelScheme)
        if self.sensitivity_scheme not in schemes:
            raise ValueError(f"sensitivity_scheme must be one of {schemes}, got {self.sensitivity_scheme!r}")
        for name in ("ecg_nominal_hz", "eda_nominal_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        usable = len(os.sched_getaffinity(0))
        if not 1 <= self.parallel_folds <= usable:
            raise ValueError(f"parallel_folds must lie in [1, {usable}] (the usable CPUs), got {self.parallel_folds}")


def config_to_dict(cfg: PipelineConfig) -> dict:
    def convert(obj):
        if dataclasses.is_dataclass(obj):
            return {
                f.name: convert(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.init
            }
        if isinstance(obj, tuple):
            return [convert(v) for v in obj]
        return obj

    return convert(cfg)


def config_from_dict(data: dict) -> PipelineConfig:
    return _build(PipelineConfig, data, "")


def _build(cls, data, path: str):
    """``cls`` from a JSON object: a field whose type is a dataclass is a
    section, built the same way; every JSON array becomes a tuple, and every
    other value must fit its field's annotation (:func:`_fits`). A
    ``__post_init__`` message starts with the field it names, so a
    ``ValueError`` becomes a ConfigError naming ``section.key``."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path!r} must be an object" if path else
                          "config root must be a JSON object")
    prefix = f"{path}." if path else ""
    fields = {f.name: f.type for f in dataclasses.fields(cls) if f.init}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        annotation = fields[key]
        if dataclasses.is_dataclass(annotation):
            kwargs[key] = _build(annotation, value, prefix + key)
            continue
        kwargs[key] = _tuples(value)
        if not _fits(kwargs[key], annotation):
            raise ConfigError(f"{prefix + key} must be {_type_name(annotation)}, got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc
    except TypeError as exc:  # e.g. a string where a number is compared
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def _fits(value, annotation) -> bool:
    """Whether ``value`` is of the field type ``annotation``. An int is a
    float, and a float must be finite: ``json`` reads NaN, Infinity and 1e400
    (as inf), and an int past the float range would become inf. A bool is
    neither an int nor a float."""
    if isinstance(annotation, types.UnionType):
        return any(_fits(value, a) for a in annotation.__args__)
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max  # False for NaN
    return isinstance(value, annotation)


def _type_name(annotation) -> str:
    if isinstance(annotation, types.UnionType):
        return " or ".join(_type_name(a) for a in annotation.__args__)
    return {type(None): "null", tuple: "array", float: "finite float"}.get(annotation, annotation.__name__)


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def load_config(path) -> PipelineConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not a text file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def apply_overrides(cfg: PipelineConfig, overrides: list[str]) -> PipelineConfig:
    """--set key=value with dotted keys; values parse as JSON literals with a
    bare-string fallback."""
    data = config_to_dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key {key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key {key!r}")
        node[parts[-1]] = value
    return config_from_dict(data)


def config_hash(cfg: PipelineConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def make_stage_dir(path, key: str) -> Path:
    """Create the stage directory ``path`` that config key ``key`` places, or
    raise ConfigError naming both (a regular file on the path, no permission)."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{key}: cannot create directory {path}: {exc.strerror or exc}") from None
    return path


@contextlib.contextmanager
def stage_outputs(key: str):
    """Turn an OSError while a stage deletes, writes or digests its output
    files under the directory that config key ``key`` places (a directory
    where a file goes, no permission) into a ConfigError naming the key and
    the path (a rename's target), as :func:`make_stage_dir` does."""
    try:
        yield
    except OSError as exc:
        path = exc.filename2 or exc.filename or "an output"
        raise ConfigError(f"{key}: cannot write {path}: {exc.strerror or exc}") from None


def write_manifest(out_dir, stage: str, cfg: PipelineConfig, inputs: dict, outputs: dict,
                   started_at: str) -> Path:
    """``manifest_<stage>.json`` in ``out_dir``, a directory the stage made."""
    manifest = {
        "stage": stage,
        "config_hash": config_hash(cfg),
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "started_at": started_at,
        "finished_at": now_iso(),
        "inputs": dict(sorted(inputs.items())),
        "outputs": dict(sorted(outputs.items())),
    }
    path = Path(out_dir) / f"manifest_{stage}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()
