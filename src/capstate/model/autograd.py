"""Minimal reverse-mode autodiff over float64 numpy arrays.

A :class:`Tensor` records its parents and a closure that scatters the incoming
gradient; ``backward`` walks the tape in reverse topological order. Sequential
hot paths (LSTM recurrence, dilated causal convolution) are fused single-node
ops over vectorized numpy kernels.

A graph is single-use. As ``backward`` runs each interior node's closure it
drops that node's ``grad`` and the closure itself, and with the closure the
arrays it saved (LSTM gate caches, relu masks), so the backward pass frees
memory as it goes instead of doubling the forward tape. Leaves (parameters
and inputs) keep their grads. A second ``backward`` on the same graph raises
``ValueError``; build a new graph with a new forward pass.

Ownership: an op hands :func:`_accum` an array that nothing else holds, and
``_accum`` keeps it as the tensor's grad without a copy (later contributions
are added to it in place). Every op builds a fresh array for each parent,
except ``add``, which copies when both parents would get the same unsummed
incoming gradient, and ``concat``, which copies its ``np.split`` views.

Sequences are time-major, ``(T, B, C)``: one time step ``x[t]`` is a
contiguous ``(B, C)`` block, so the LSTM reads and writes whole blocks per
step, and a conv tap shifted by ``s`` steps is the view ``x[: T - s]`` with
no copy; at an output stride it is the strided view ``x[lo : T - s :
stride]``, still a stack of whole ``(B, C)`` blocks. One kernel works
channel-major inside: the conv forward of a single-channel input (the
front-end's first layer) computes ``(C_out, T, B)`` and returns it
time-major.

Inside the LSTM kernel each step's gates are one contiguous feature-major
``(4H, B)`` block in the order ``[i, f, o, g]``: on entry the kernel permutes
the columns of ``Wx``, ``Wh`` and ``b`` (stored ``[i, f, g, o]``), so the
three sigmoid gates are the first ``3H`` rows and take one sigmoid per step.
The backward pass keeps only the recurrence in its time loop and writes each
step's gate gradient over the gate block it has consumed, which the
single-use graph allows; the weight and input gradients are batched
products over that stack after the loop.
"""

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "parents", "_backward_fn")

    def __init__(self, data, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() expects a scalar loss")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.parents and node._backward_fn is None:
                raise ValueError("backward() already ran through this graph and freed it; "
                                 "a graph is single-use, so run the forward pass again")
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad = None
            node._backward_fn = None


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t.grad``; the first ``g`` becomes ``t.grad`` itself, so
    the caller must hand over an array nothing else holds."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        ga = _unbroadcast(g, a.data.shape)
        gb = _unbroadcast(g, b.data.shape)
        _accum(a, ga)
        _accum(b, gb.copy() if np.may_share_memory(ga, gb) else gb)

    return Tensor(a.data + b.data, (a, b), bwd)


def neg(a) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _accum(a, -g)

    return Tensor(-a.data, (a,), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, (a, b), bwd)


def matmul(a, b) -> Tensor:
    """a: (..., m, k) @ b: (k, n); covers dense layers and time-distributed maps."""
    a, b = _wrap(a), _wrap(b)
    if b.data.ndim != 2:
        raise ValueError("matmul right operand must be 2-D")

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return Tensor(a.data @ b.data, (a, b), bwd)


def relu(a) -> Tensor:
    return clip_low(a, 0.0)


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = np.tanh(a.data)

    def bwd(g):
        _accum(a, g * (1.0 - out * out))

    return Tensor(out, (a,), bwd)


def log(a) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _accum(a, g / a.data)

    return Tensor(np.log(a.data), (a,), bwd)


def pow_const(a, exponent: float) -> Tensor:
    """a ** p for constant p; gradient at a == 0 is defined as 0 (covers the
    (1 - p)^gamma factor of the focal loss at confident predictions)."""
    a = _wrap(a)

    def bwd(g):
        base = np.where(a.data == 0.0, 0.0, exponent * np.power(np.where(a.data == 0.0, 1.0, a.data), exponent - 1.0))
        _accum(a, g * base)

    return Tensor(np.power(a.data, exponent), (a,), bwd)


def clip_low(a, lo: float) -> Tensor:
    """max(a, lo), with NaN mapped to ``lo`` and -0.0 to +0.0 (the values of
    ``np.where(a > lo, a, lo)``); gradient passes only where a > lo."""
    a = _wrap(a)
    keep = a.data > lo
    # fmax takes lo over NaN but may keep a -0.0 against lo = 0.0; adding
    # +0.0 makes that +0.0 and leaves every other value as it is
    out = np.fmax(a.data, lo)
    out += 0.0

    def bwd(g):
        _accum(a, g * keep)

    return Tensor(out, (a,), bwd)


def _reduce_bwd(a, g, axis, keepdims) -> None:
    """Spread a reduction's gradient ``g`` back over ``a``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    _accum(a, np.broadcast_to(g, a.data.shape).copy())


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)

    def bwd(g):
        _reduce_bwd(a, g, axis, keepdims)

    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    count = a.data.size if axis is None else a.data.shape[axis]

    def bwd(g):
        _reduce_bwd(a, g / count, axis, keepdims)

    return Tensor(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


def concat(tensors, axis=-1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece.copy())

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def softmax(a, axis=-1) -> Tensor:
    a = _wrap(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(a, out * (g - dot))

    return Tensor(out, (a,), bwd)


def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a mask drawn from ``rng``; identity when rate == 0."""
    a = _wrap(a)
    if rate <= 0.0:
        return a
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)

    def bwd(g):
        _accum(a, g * mask)

    return Tensor(a.data * mask, (a,), bwd)


def last_step(a) -> Tensor:
    """Select the final time step of a (T, B, C) sequence; returns (B, C)."""
    a = _wrap(a)

    def bwd(g):
        full = np.zeros_like(a.data)
        full[-1] = g
        _accum(a, full)

    return Tensor(a.data[-1], (a,), bwd)


def time_stride(a, stride: int) -> Tensor:
    """Every ``stride``-th step of a (T, B, C) sequence, ending at the last:
    steps (T - 1) % stride, ..., T - 1 as a contiguous sequence; ``a`` itself
    when ``stride == 1``."""
    a = _wrap(a)
    if stride == 1:
        return a
    start = (a.data.shape[0] - 1) % stride

    def bwd(g):
        full = np.zeros_like(a.data)
        full[start::stride] = g
        _accum(a, full)

    return Tensor(np.ascontiguousarray(a.data[start::stride]), (a,), bwd)


# ---------------------------------------------------------------------------
# Fused causal dilated conv1d
# ---------------------------------------------------------------------------


def _conv1d_taps(t, k, dilation, stride):
    """``(tap, m0, rows)`` for each tap that sees input, for an output written
    at every ``stride``-th of ``t`` steps, ending at the last: output rows m0,
    m0 + 1, ... read, through that tap, the input steps ``rows``, one slice
    with step ``stride``. At stride 1, m0 is the tap's shift and ``rows`` the
    contiguous head of the sequence."""
    start = (t - 1) % stride
    taps = []
    for tap in range(k):
        s = dilation * tap
        if s >= t:
            break
        m0 = max(0, -((start - s) // stride))
        taps.append((tap, m0, slice(start + m0 * stride - s, t - s, stride)))
    return taps


def _conv1d_fwd(x, w, b, dilation, stride):
    (_, _, rows), *taps = _conv1d_taps(x.shape[0], w.shape[0], dilation, stride)
    if x.shape[2] == 1:
        # one input channel: matmul would make each step's product a K = 1
        # GEMM, a degenerate BLAS call per step and tap. Channel-major
        # (C_out, T', B) broadcasts each tap as one multiply-add over the
        # whole sequence, with the same products added in the same order
        yt = w[0, 0, :, None, None] * x[rows, :, 0]
        yt += b[:, None, None]
        part = np.empty_like(yt)
        for tap, m0, rows in taps:
            yt[:, m0:] += np.multiply(w[tap, 0, :, None, None], x[rows, :, 0], out=part[:, m0:])
        return np.ascontiguousarray(yt.transpose(1, 2, 0))
    # x[rows] is a view, strided when stride > 1; matmul runs one GEMM per
    # (B, C_in) step on it, so no tap copies its input (a copy into one flat
    # GEMM was slower)
    y = np.matmul(x[rows], w[0])
    y += b
    # one buffer for every tap's product: a fresh (T, B, C_out) temporary per
    # tap, freed at once, had the allocator return its pages and fault them in again
    part = np.empty_like(y)
    for tap, m0, rows in taps:
        y[m0:] += np.matmul(x[rows], w[tap], out=part[m0:])
    return y


def _conv1d_bwd(g, x, w, dilation, stride):
    t, bsz, ci = x.shape
    gf = g.reshape(-1, w.shape[2])
    (_, _, rows), *taps = _conv1d_taps(t, w.shape[0], dilation, stride)
    d0 = gf @ w[0].T
    if stride == 1:
        dx = d0.reshape(x.shape)
    else:  # only the rows the strided output read get a gradient
        dx = np.zeros_like(x)
        dx[rows] = d0.reshape(-1, bsz, ci)
    dw = np.zeros_like(w)
    # the weight gradient sums every row in one GEMM; at stride > 1 the
    # reshape copies the tap's strided rows into one block
    dw[0] = x[rows].reshape(-1, ci).T @ gf
    part = np.empty_like(d0)
    for tap, m0, rows in taps:
        gs = gf[m0 * bsz :]
        dx[rows] += np.matmul(gs, w[tap].T, out=part[: len(gs)]).reshape(-1, bsz, ci)
        dw[tap] = x[rows].reshape(-1, ci).T @ gs
    db = gf.sum(axis=0)
    return dx, dw, db


def conv1d_causal(x, w, b, dilation: int = 1, stride: int = 1) -> Tensor:
    """Causal dilated convolution over a (T, B, C_in) sequence with w of shape
    (K, C_in, C_out): y[t] = b + sum_k x[t - d k] @ w[k], written only at the
    steps t = (T - 1) % stride, ..., T - 1 (the steps ``time_stride`` keeps);
    returns ((T - 1) // stride + 1, B, C_out)."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    xd = np.ascontiguousarray(x.data)
    wd = np.ascontiguousarray(w.data)
    out = _conv1d_fwd(xd, wd, b.data, dilation, stride)

    def bwd(g):
        dx, dw, db = _conv1d_bwd(np.ascontiguousarray(g), xd, wd, dilation, stride)
        _accum(x, dx)
        _accum(w, dw)
        _accum(b, db)

    return Tensor(out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# Fused LSTM (full sequence, BPTT in one node)
# ---------------------------------------------------------------------------


def _ifog(a):
    """Reorder the last axis from the parameter gate order ``[i, f, g, o]`` to
    the kernel's ``[i, f, o, g]``; swapping the last two blocks is its own
    inverse, so the same call maps kernel-order gradients back."""
    h = a.shape[-1] // 4
    return np.concatenate((a[..., : 2 * h], a[..., 3 * h :], a[..., 2 * h : 3 * h]), axis=-1)


def _lstm_fwd(x, wx, wh, b):
    """Forward over a (T, B, C) sequence. Returns the (T, B, H) hidden sequence
    and the caches for BPTT: the activated gates ``gates[t]``, one contiguous
    feature-major (4H, B) block per step in the order [i, f, o, g], and the
    cell states ``cs[t]`` (H, B)."""
    t, bsz, _ = x.shape
    hdim = wh.shape[0]
    s3 = 3 * hdim
    wxt = _ifog(wx).T
    wht = _ifog(wh).T
    bias = _ifog(b)[:, None]
    hs = np.empty((t, bsz, hdim))
    gates = np.empty((t, 4 * hdim, bsz))
    cs = np.empty((t, hdim, bsz))
    rec = np.empty((4 * hdim, bsz))
    tmp = np.empty((hdim, bsz))
    for step in range(t):
        z = gates[step]
        np.matmul(wxt, x[step].T, out=z)
        if step:
            z += np.matmul(wht, hs[step - 1].T, out=rec)
        z += bias
        sig = z[:s3]  # i, f, o: one sigmoid over the contiguous 3H rows
        np.negative(sig, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        i, f, o, g = z[:hdim], z[hdim : 2 * hdim], z[2 * hdim : s3], z[s3:]
        np.tanh(g, out=g)
        c = np.multiply(i, g, out=cs[step])
        if step:
            c += np.multiply(f, cs[step - 1], out=tmp)
        np.multiply(o, np.tanh(c, out=tmp), out=hs[step].T)
    return hs, gates, cs


def _lstm_bwd(grad_hs, x, wx, wh, hs, gates, cs):
    """BPTT of ``grad_hs`` (T, B, H) through the caches of :func:`_lstm_fwd`;
    returns (dx, dWx, dWh, db) in the parameter layout. Only the recurrence
    runs in the time loop, and each step's gate gradient ``dz`` (4H, B)
    overwrites the gate block it has just consumed, so ``gates`` leaves the
    loop holding every step's ``dz``; the weight, bias and input gradients are
    batched products over that stack."""
    t, bsz, _ = x.shape
    hdim = wh.shape[0]
    s3 = 3 * hdim
    wxp = _ifog(wx)
    whp = _ifog(wh)
    dh = np.empty((hdim, bsz))
    dc = np.empty((hdim, bsz))
    tc = np.empty((hdim, bsz))
    tmp = np.empty((hdim, bsz))
    up = np.empty((s3, bsz))  # dL/d(i, f, o): [dc g, dc c_prev, dh tanh(c)]
    dh_carry = np.zeros((hdim, bsz))
    dc_carry = np.zeros((hdim, bsz))
    for step in range(t - 1, -1, -1):
        z = gates[step]
        i, f, o, g = z[:hdim], z[hdim : 2 * hdim], z[2 * hdim : s3], z[s3:]
        np.add(grad_hs[step].T, dh_carry, out=dh)
        np.tanh(cs[step], out=tc)
        np.multiply(dh, o, out=dc)  # dc = dh o (1 - tanh(c)^2) + dc_carry
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dc *= tmp
        dc += dc_carry
        np.multiply(dc, g, out=up[:hdim])
        if step:
            np.multiply(dc, cs[step - 1], out=up[hdim : 2 * hdim])
        else:
            up[hdim : 2 * hdim] = 0.0
        np.multiply(dh, tc, out=up[2 * hdim :])
        # i and f are read here, before their rows are overwritten below
        np.multiply(dc, i, out=tmp)
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
        g *= tmp  # dz_g = dc i (1 - g^2)
        np.multiply(dc, f, out=dc_carry)
        sig = z[:s3]
        up *= sig
        np.subtract(1.0, sig, out=sig)
        sig *= up  # dz_{i,f,o} = up s (1 - s)
        np.matmul(whp, z, out=dh_carry)
    dz = gates
    dx = np.matmul(dz.transpose(0, 2, 1), wxp.T)
    dwx = _ifog(np.matmul(dz, x).sum(axis=0).T)
    dwh = _ifog(np.matmul(dz[1:], hs[:-1]).sum(axis=0).T)
    db = _ifog(dz.sum(axis=(0, 2)))
    return dx, dwx, dwh, db


def lstm(x, wx, wh, b) -> Tensor:
    """Full LSTM pass over a (T, B, C) sequence; returns the (T, B, H) hidden
    sequence. Parameters keep the gate order [i, f, g, o] (``Wx`` (C, 4H),
    ``Wh`` (H, 4H), ``b`` (4H,)); each kernel permutes their columns once per
    call to [i, f, o, g], so the three sigmoid gates are one contiguous block.
    The node caches the activated gates, one feature-major (4H, B) block per
    step, and the cell states for one-shot BPTT; backward writes each step's
    gate gradient over the gate block it consumed, which the single-use graph
    allows."""
    x, wx, wh, b = _wrap(x), _wrap(wx), _wrap(wh), _wrap(b)
    xd = np.ascontiguousarray(x.data)
    hs, gates, cs = _lstm_fwd(xd, wx.data, wh.data, b.data)

    def bwd(g):
        dx, dwx, dwh, db = _lstm_bwd(np.ascontiguousarray(g), xd, wx.data, wh.data, hs, gates, cs)
        _accum(x, dx)
        _accum(wx, dwx)
        _accum(wh, dwh)
        _accum(b, db)

    return Tensor(hs, (x, wx, wh, b), bwd)
