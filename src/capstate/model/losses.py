"""Focal loss with label smoothing and the masked multi-task objective."""

import numpy as np

from . import autograd as ag
from .autograd import Tensor

PROB_FLOOR = 1e-12  # probabilities are clamped here before the log


def _smoothed_targets(y: np.ndarray, epsilon: float) -> np.ndarray:
    q = np.full((len(y), 2), epsilon / 2.0)
    q[np.arange(len(y)), y] = 1.0 - epsilon / 2.0
    return q


def focal_loss(p, y: int, gamma: float, epsilon: float) -> float:
    """Scalar focal loss for one probability pair:
    -sum_c q_c (1 - p_c)^gamma ln p_c with q the smoothed one-hot target."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_FLOOR, 1.0)
    q = _smoothed_targets(np.array([y]), epsilon)[0]
    return float(-(q * (1.0 - p) ** gamma * np.log(p)).sum())


def focal_loss_vector(p: Tensor, y: np.ndarray, gamma: float, epsilon: float) -> Tensor:
    """Per-sample focal losses as an autograd vector; p is (B, 2) softmax rows."""
    q = Tensor(_smoothed_targets(y, epsilon))
    pc = ag.clip_low(p, PROB_FLOOR)
    weight = ag.pow_const(ag.add(Tensor(1.0), ag.neg(pc)), gamma)
    return ag.neg(ag.tsum(ag.mul(ag.mul(q, weight), ag.log(pc)), axis=1))


def masked_multitask_loss(
    p_stress: Tensor,
    p_effort: Tensor,
    stress_y: np.ndarray,
    effort_y: np.ndarray,
    mask: np.ndarray,
    gamma: float,
    epsilon: float,
    lambda_effort: float,
) -> tuple[Tensor, float, float]:
    """total = mean stress focal + lambda * mask-weighted effort focal.

    The effort term is sum(m_i * loss_i) / sum(m_i), defined as exactly 0 when
    no mask bit is set (masked samples then contribute nothing to any
    effort-head gradient). Returns (total tensor, stress value, effort value).
    """
    if not (len(stress_y) == len(effort_y) == len(mask)):
        raise ValueError("label/mask lengths disagree")
    stress_term = ag.tmean(focal_loss_vector(p_stress, stress_y, gamma, epsilon))
    m_total = float(np.sum(mask))
    if m_total > 0:
        safe_effort = np.where(mask > 0, effort_y, 0)
        per_sample = focal_loss_vector(p_effort, safe_effort, gamma, epsilon)
        weights = Tensor(np.asarray(mask, dtype=np.float64) / m_total)
        effort_term = ag.tsum(ag.mul(weights, per_sample))
    else:
        effort_term = Tensor(0.0)
    total = ag.add(stress_term, ag.mul(Tensor(lambda_effort), effort_term))
    return total, float(stress_term.data), float(effort_term.data)
