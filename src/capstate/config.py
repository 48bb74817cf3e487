"""Run configuration: a single JSON file plus dotted-key command-line overrides.

Every stage embeds the full resolved config in its RunManifest, and all
randomness flows from ``seed`` through named substreams, so identical
config + data reruns produce identical output digests.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .dsp import WindowingPlan
from .eda import CvxEdaParams
from .errors import ConfigError
from .ingest import LabelScheme
from .model.network import ArchConfig
from .model.train import TrainConfig


@dataclass(frozen=True)
class AblationConfig:
    """Each field overrides the same ``arch`` field when set; None keeps it."""

    backbone: str | None = None
    modalities: tuple | None = None
    use_handcrafted_features: bool | None = None

    def __post_init__(self):
        if self.modalities is not None and not self.modalities:
            raise ConfigError("ablation.modalities must be non-empty")


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = 10
    duration_s: float = 360.0
    ecg_rate_hz: float = 512.0


@dataclass(frozen=True)
class PipelineConfig:
    data_root: str = "data"
    output_root: str = "out"
    seed: int = 42
    parallel_folds: int = 1
    ecg_nominal_hz: float = 2048.0
    eda_nominal_hz: float = 32.0
    trim_head_s: float = 0.0
    trim_tail_s: float = 0.0
    normalization_mode: str = "self_per_subject"
    sensitivity_scheme: str = "primary"
    windowing: WindowingPlan = field(default_factory=WindowingPlan)
    arch: ArchConfig = field(default_factory=ArchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    cvxeda: CvxEdaParams = field(default_factory=CvxEdaParams)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def effective_arch(self) -> ArchConfig:
        return self.arch.with_ablation(
            backbone=self.ablation.backbone,
            modalities=self.ablation.modalities,
            use_handcrafted_features=self.ablation.use_handcrafted_features,
        )

    def effective_train(self) -> TrainConfig:
        return dataclasses.replace(self.train, seed=self.seed)

    def label_scheme(self) -> LabelScheme:
        try:
            return LabelScheme(self.sensitivity_scheme)
        except ValueError:
            raise ConfigError(f"unknown sensitivity_scheme {self.sensitivity_scheme!r}") from None


_SECTIONS = {
    "windowing": WindowingPlan,
    "arch": ArchConfig,
    "train": TrainConfig,
    "ablation": AblationConfig,
    "cvxeda": CvxEdaParams,
    "synth": SynthConfig,
}

_TUPLE_FIELDS = {"modalities", "tcn_dilations", "heart_rate_profile", "scr_events"}


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
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    kwargs = {}
    valid = {f.name for f in dataclasses.fields(PipelineConfig) if f.init}
    for key, value in data.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _SECTIONS:
            kwargs[key] = _section_from_dict(_SECTIONS[key], value, key)
        else:
            kwargs[key] = value
    try:
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _section_from_dict(cls, value, section):
    if not isinstance(value, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    valid = {f.name for f in dataclasses.fields(cls) if f.init}
    kwargs = {}
    for key, v in value.items():
        if key not in valid:
            raise ConfigError(f"unknown key {section}.{key!r}")
        if key in _TUPLE_FIELDS and isinstance(v, list):
            v = tuple(tuple(e) if isinstance(e, list) else e for e in v)
        kwargs[key] = v
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"in section {section!r}: {exc}") from exc


def load_config(path) -> PipelineConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
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


def write_manifest(out_dir, stage: str, cfg: PipelineConfig, inputs: dict, outputs: dict,
                   started_at: str, finished_at: str | None = None) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "stage": stage,
        "config_hash": config_hash(cfg),
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "started_at": started_at,
        "finished_at": finished_at or now_iso(),
        "inputs": dict(sorted(inputs.items())),
        "outputs": dict(sorted(outputs.items())),
    }
    path = out_dir / f"manifest_{stage}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()
