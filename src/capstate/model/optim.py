"""AdamW with decoupled weight decay and global gradient-norm clipping.

The moment decay rates and the denominator guard are the constants
``BETA1``, ``BETA2`` and ``EPS`` (the usual Adam defaults).
"""

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale the whole gradient map so its global L2 norm is at most max_norm
    (a max_norm <= 0 turns clipping off)."""
    if max_norm <= 0:
        return grads
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= max_norm:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


class AdamW:
    """theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta).

    The three settings have no defaults here; ``TrainConfig`` holds them."""

    def __init__(self, lr: float, weight_decay: float, grad_clip_norm: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self.grad_clip_norm = grad_clip_norm
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One update over the full parameter map; returns new parameters."""
        grads = clip_global_norm(grads, self.grad_clip_norm)
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        out = {}
        for key, theta in params.items():
            g = grads[key]
            m = self.m.get(key)
            if m is None:
                m = np.zeros_like(theta)
                self.v[key] = np.zeros_like(theta)
            v = self.v[key]
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * (g * g)
            self.m[key] = m
            self.v[key] = v
            m_hat = m / bc1
            v_hat = v / bc2
            out[key] = theta - self.lr * (m_hat / (np.sqrt(v_hat) + EPS) + self.weight_decay * theta)
        return out
