"""Dual-stream dual-head network.

Each modality runs a small causal conv front-end into a temporal backbone
(LSTM + additive attention, or a dilated causal TCN), is concatenated with an
MLP projection of its handcrafted features, fused through a dropout-regularized
MLP, and decoded by two independent softmax heads. The effort probability U
and stress probability O are the "high" class probabilities.

The TCN is pooled by its last step, so it is computed only where that step
reads it: block i, of dilation d_i, runs on the time grid t = T - 1 - k d_i
(k >= 0) at dilation 1 over (T - 1) // d_i + 1 steps, which gives the same
output at T - 1 as the full-length dilated stack (Paine et al., "Fast
Wavenet Generation Algorithm", arXiv:1611.09482). The dilations are strictly
increasing powers of two, so d_i divides d_{i+1} and each block's grid is a
subgrid of the one before. A block writes its output only on the next
block's grid, and the last block only at T - 1: its first conv covers its
own grid, whose neighbouring steps the second conv's taps read, and the
second conv and the residual run at an output stride of d_{i+1} / d_i.
"""

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from ..cardiac import HRV_FEATURE_NAMES
from ..eda import EDA_FEATURE_NAMES
from . import autograd as ag
from .autograd import Tensor


# The most learnable values an architecture may have: 16 MB per float64 copy,
# about 40 times the default TCN network (README states why)
MAX_PARAMETERS = 2_000_000


def substream_seed(root_seed: int, *labels) -> int:
    """Stable named RNG substream derived from the single top-level seed."""
    text = f"{root_seed}|" + "|".join(str(x) for x in labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


@dataclass(frozen=True)
class ArchConfig:
    backbone: str = "lstm"  # "lstm" or "tcn"
    ibi_conv_kernel: int = 5
    eda_conv_kernel: int = 9
    conv_channels: int = 16
    conv_layers: int = 2
    tcn_dilations: tuple = (1, 2, 4, 8, 16)
    tcn_channels: int = 24
    tcn_kernel: int = 3
    lstm_hidden: int = 32
    feat_hidden: int = 32  # phi (HRV) and psi (EDA) projection width
    fusion_hidden: int = 64
    fusion_out: int = 32
    head_hidden: int = 16
    dropout_fusion: float = 0.4
    dropout_head: float = 0.3
    modalities: tuple = ("ibi", "eda")
    use_handcrafted_features: bool = True

    def __post_init__(self):
        if self.backbone not in ("lstm", "tcn"):
            raise ValueError(f"backbone must be 'lstm' or 'tcn', got {self.backbone!r}")
        if not self.modalities or any(m not in ("ibi", "eda") for m in self.modalities):
            raise ValueError("modalities must be a non-empty subset of {'ibi', 'eda'}")
        if len(set(self.modalities)) != len(self.modalities):
            raise ValueError(f"modalities must not repeat a modality, got {list(self.modalities)}")
        dil = self.tcn_dilations
        if not dil:
            raise ValueError("tcn_dilations must be non-empty")
        if any(not isinstance(d, int) or isinstance(d, bool) for d in dil):
            raise ValueError(f"tcn_dilations must be integers, got {list(dil)}")
        if any(d <= 0 or (d & (d - 1)) != 0 for d in dil) or any(
            b <= a for a, b in zip(dil, dil[1:])
        ):
            raise ValueError("tcn_dilations must be strictly increasing powers of two")
        for name in ("ibi_conv_kernel", "eda_conv_kernel", "tcn_kernel", "conv_channels", "tcn_channels",
                     "lstm_hidden", "feat_hidden", "fusion_hidden", "fusion_out", "head_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.conv_layers < 0:
            raise ValueError("conv_layers must be >= 0")
        for name in ("dropout_fusion", "dropout_head"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie in [0, 1)")
        n_params = sum(math.prod(shape) for _, shape, _ in _param_specs(self))
        if n_params > MAX_PARAMETERS:
            raise ValueError(f"* sizes imply {n_params:,} parameters, more than the bound of {MAX_PARAMETERS:,}")


@dataclass
class Batch:
    x_ibi: np.ndarray  # (B, T) ms
    x_eda: np.ndarray  # (B, T) uS (detrended scale)
    f_hrv: np.ndarray  # (B, 14)
    f_eda: np.ndarray  # (B, 12)
    stress: np.ndarray | None = None  # int in {0, 1}
    effort: np.ndarray | None = None  # int in {0, 1}, -1 when undefined
    mask: np.ndarray | None = None  # int in {0, 1}

    def __len__(self):
        return self.x_ibi.shape[0]

    def select(self, rows: np.ndarray):
        """The same table restricted to ``rows``; absent label fields stay None."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return type(self)(**{k: v if v is None else v[rows] for k, v in values.items()})


N_HRV = len(HRV_FEATURE_NAMES)
N_EDA = len(EDA_FEATURE_NAMES)


def _param_specs(arch: ArchConfig):
    """(path, shape, init_kind) for every learnable tensor implied by arch."""
    specs = []

    def linear(prefix, n_in, n_out, kind="he"):
        specs.append((f"{prefix}.W", (n_in, n_out), kind))
        specs.append((f"{prefix}.b", (n_out,), "zeros"))

    for mod in arch.modalities:
        kernel = arch.ibi_conv_kernel if mod == "ibi" else arch.eda_conv_kernel
        c_in = 1
        for layer in range(arch.conv_layers):
            specs.append((f"{mod}.conv{layer}.W", (kernel, c_in, arch.conv_channels), "he_conv"))
            specs.append((f"{mod}.conv{layer}.b", (arch.conv_channels,), "zeros"))
            c_in = arch.conv_channels
        if arch.backbone == "lstm":
            h = arch.lstm_hidden
            specs.append((f"{mod}.lstm.Wx", (c_in, 4 * h), "glorot"))
            specs.append((f"{mod}.lstm.Wh", (h, 4 * h), "glorot"))
            specs.append((f"{mod}.lstm.b", (4 * h,), "lstm_bias"))
            linear(f"{mod}.attn", h, h, kind="glorot")
            specs.append((f"{mod}.attn.v", (h, 1), "glorot"))
        else:
            ch_in = c_in
            for i, d in enumerate(arch.tcn_dilations):
                specs.append((f"{mod}.tcn{i}.conv1.W", (arch.tcn_kernel, ch_in, arch.tcn_channels), "he_conv"))
                specs.append((f"{mod}.tcn{i}.conv1.b", (arch.tcn_channels,), "zeros"))
                specs.append((f"{mod}.tcn{i}.conv2.W", (arch.tcn_kernel, arch.tcn_channels, arch.tcn_channels), "he_conv"))
                specs.append((f"{mod}.tcn{i}.conv2.b", (arch.tcn_channels,), "zeros"))
                if ch_in != arch.tcn_channels:
                    specs.append((f"{mod}.tcn{i}.res.W", (1, ch_in, arch.tcn_channels), "he_conv"))
                    specs.append((f"{mod}.tcn{i}.res.b", (arch.tcn_channels,), "zeros"))
                ch_in = arch.tcn_channels
        if arch.use_handcrafted_features:
            n_feat = N_HRV if mod == "ibi" else N_EDA
            linear(f"{mod}.feat", n_feat, arch.feat_hidden)

    backbone_out = arch.lstm_hidden if arch.backbone == "lstm" else arch.tcn_channels
    stream = backbone_out + (arch.feat_hidden if arch.use_handcrafted_features else 0)
    fused_in = stream * len(arch.modalities)
    linear("fusion.fc1", fused_in, arch.fusion_hidden)
    linear("fusion.fc2", arch.fusion_hidden, arch.fusion_out)
    for head in ("head_stress", "head_effort"):
        linear(f"{head}.fc1", arch.fusion_out, arch.head_hidden)
        linear(f"{head}.fc2", arch.head_hidden, 2, kind="glorot")
    return specs


def init_params(arch: ArchConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded initialization; each tensor draws from its own named substream so
    the values do not depend on creation order."""
    params = {}
    for path, shape, kind in _param_specs(arch):
        rng = np.random.default_rng(substream_seed(seed, "init", path))
        if kind == "zeros":
            value = np.zeros(shape)
        elif kind == "lstm_bias":
            value = np.zeros(shape)
            h = shape[0] // 4
            value[h : 2 * h] = 1.0  # forget-gate bias
        elif kind == "he":
            value = rng.normal(0.0, np.sqrt(2.0 / shape[0]), shape)
        elif kind == "he_conv":
            fan_in = shape[0] * shape[1]
            value = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
        else:  # glorot
            fan_in = shape[0]
            fan_out = shape[-1]
            value = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), shape)
        params[path] = value
    return params


def _linear(p, prefix, x):
    return ag.add(ag.matmul(x, p[f"{prefix}.W"]), p[f"{prefix}.b"])


def _conv_stack(p, arch, mod, x, collect):
    h = x
    for layer in range(arch.conv_layers):
        h = ag.relu(ag.conv1d_causal(h, p[f"{mod}.conv{layer}.W"], p[f"{mod}.conv{layer}.b"]))
        if collect is not None:
            collect[f"{mod}.conv{layer}"] = h
    return h


def _lstm_attention(p, arch, mod, h, collect):
    seq = ag.lstm(h, p[f"{mod}.lstm.Wx"], p[f"{mod}.lstm.Wh"], p[f"{mod}.lstm.b"])
    if collect is not None:
        collect[f"{mod}.lstm_seq"] = seq
    scores = ag.matmul(ag.tanh(_linear(p, f"{mod}.attn", seq)), p[f"{mod}.attn.v"])  # (T,B,1)
    alpha = ag.softmax(scores, axis=0)
    return ag.tsum(ag.mul(alpha, seq), axis=0)


def _tcn(p, arch, mod, h, collect):
    # Block i runs on its dilation grid (module docstring): there its taps
    # t - j d_i are neighbours, so its convs take dilation 1, and the causal
    # zero padding falls where it did at full length. conv2 and the residual
    # write only the next grid; the last block's stride, its grid length,
    # leaves only step T - 1.
    dil = arch.tcn_dilations
    h = ag.time_stride(h, dil[0])
    for i, d in enumerate(dil):
        stride = dil[i + 1] // d if i + 1 < len(dil) else h.shape[0]
        u = ag.relu(ag.conv1d_causal(h, p[f"{mod}.tcn{i}.conv1.W"], p[f"{mod}.tcn{i}.conv1.b"]))
        u = ag.conv1d_causal(u, p[f"{mod}.tcn{i}.conv2.W"], p[f"{mod}.tcn{i}.conv2.b"], stride=stride)
        if f"{mod}.tcn{i}.res.W" in p:
            res = ag.conv1d_causal(h, p[f"{mod}.tcn{i}.res.W"], p[f"{mod}.tcn{i}.res.b"], stride=stride)
        else:
            res = ag.time_stride(h, stride)
        h = ag.relu(ag.add(u, res))
        if collect is not None:
            collect[f"{mod}.tcn{i}"] = h
    return ag.last_step(h)  # causal pooling: the last step sees the whole window


def build_graph(
    params_t: dict[str, Tensor],
    arch: ArchConfig,
    batch: Batch,
    dropout_rng: np.random.Generator | None = None,
    collect: dict | None = None,
) -> tuple[Tensor, Tensor]:
    """Autograd graph; returns (p_stress, p_effort) probability Tensors.
    Dropout runs when ``dropout_rng`` is given; None is inference."""
    streams = []
    for mod in arch.modalities:
        raw = batch.x_ibi if mod == "ibi" else batch.x_eda
        if not np.all(np.isfinite(raw)):
            raise ValueError(f"non-finite values in {mod} time series")
        x = Tensor(np.ascontiguousarray(raw.T)[:, :, None])  # (T, B, 1): sequences are time-major
        h = _conv_stack(params_t, arch, mod, x, collect)
        if arch.backbone == "lstm":
            pooled = _lstm_attention(params_t, arch, mod, h, collect)
        else:
            pooled = _tcn(params_t, arch, mod, h, collect)
        if arch.use_handcrafted_features:
            feats = batch.f_hrv if mod == "ibi" else batch.f_eda
            if not np.all(np.isfinite(feats)):
                raise ValueError(f"non-finite values in {mod} features")
            z = ag.relu(_linear(params_t, f"{mod}.feat", Tensor(feats)))
            streams.append(ag.concat([pooled, z], axis=1))
        else:
            streams.append(pooled)

    fused = streams[0] if len(streams) == 1 else ag.concat(streams, axis=1)
    f1 = ag.relu(_linear(params_t, "fusion.fc1", fused))
    if dropout_rng is not None:
        f1 = ag.dropout(f1, arch.dropout_fusion, dropout_rng)
    f2 = ag.relu(_linear(params_t, "fusion.fc2", f1))
    if dropout_rng is not None:
        f2 = ag.dropout(f2, arch.dropout_fusion, dropout_rng)

    probs = []
    for head in ("head_stress", "head_effort"):
        hh = ag.relu(_linear(params_t, f"{head}.fc1", f2))
        if dropout_rng is not None:
            hh = ag.dropout(hh, arch.dropout_head, dropout_rng)
        probs.append(ag.softmax(_linear(params_t, f"{head}.fc2", hh), axis=1))
    return probs[0], probs[1]


def wrap_params(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v) for k, v in params.items()}


def forward(params: dict[str, np.ndarray], arch: ArchConfig, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Numpy-level inference pass (no dropout): (U, O), each window's
    probability of high effort and of high stress."""
    expected = {"x_ibi": batch.x_ibi, "x_eda": batch.x_eda, "f_hrv": batch.f_hrv, "f_eda": batch.f_eda}
    n = len(batch)
    for name, arr in expected.items():
        if arr is None or arr.shape[0] != n:
            raise ValueError(f"batch field {name} missing or batch-size mismatch")
    p_s, p_e = build_graph(wrap_params(params), arch, batch)
    return p_e.data[:, 1], p_s.data[:, 1]
