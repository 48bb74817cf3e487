"""Engine-level checks for the reverse-mode tape and its fused kernels."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import capstate.model.autograd as ag
from capstate.model.autograd import Tensor
from capstate.model.losses import PROB_FLOOR
from conftest import clip_low_reference, conv1d_fwd_reference, digests_by_blas_threads, lstm_reference


def fd_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = x[ix]
        x[ix] = orig + h
        fp = fn()
        x[ix] = orig - h
        fm = fn()
        x[ix] = orig
        g[ix] = (fp - fm) / (2 * h)
    return g


def check_op(build, *arrays, h=1e-6, tol=1e-6):
    tensors = [Tensor(a) for a in arrays]
    out = build(*tensors)
    loss = ag.tsum(ag.mul(out, out))
    loss.backward()
    for a, t in zip(arrays, tensors):
        def scalar():
            ts = [Tensor(arr) for arr in arrays]
            o = build(*ts)
            return float(ag.tsum(ag.mul(o, o)).data)

        fd = fd_grad(scalar, a, h=h)
        assert np.abs(t.grad - fd).max() < tol * max(1.0, np.abs(fd).max())


# the values where max(a, lo) forms differ: signed zeros, NaN, infinities,
# subnormals, the loss floor itself, and ordinary floats
_RELU_EDGES = st.sampled_from(
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-308,
     -2.2250738585072e-308, PROB_FLOOR, -PROB_FLOOR, np.nextafter(PROB_FLOOR, 1.0), 1.0, -1.0]
) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


class TestElementwiseOps:
    def test_add_mul_broadcast(self, rng):
        check_op(lambda a, b: ag.add(a, b), rng.normal(size=(3, 4)), rng.normal(size=(4,)))
        check_op(lambda a, b: ag.mul(a, b), rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 4)))

    def test_matmul_2d_and_3d(self, rng):
        check_op(lambda a, b: ag.matmul(a, b), rng.normal(size=(5, 3)), rng.normal(size=(3, 2)))
        check_op(lambda a, b: ag.matmul(a, b), rng.normal(size=(2, 6, 3)), rng.normal(size=(3, 4)))

    def test_nonlinearities(self, rng):
        x = rng.normal(size=(4, 5)) + 0.3
        check_op(ag.tanh, x.copy())
        check_op(lambda a: ag.log(a), np.abs(x) + 0.5)
        check_op(lambda a: ag.pow_const(a, 1.5), np.abs(x) + 0.5)
        # relu away from the kink
        safe = x.copy()
        safe[np.abs(safe) < 0.1] = 0.5
        check_op(ag.relu, safe)

    def test_pow_const_zero_base_zero_grad(self):
        t = Tensor(np.array([0.0, 1.0]))
        out = ag.tsum(ag.pow_const(t, 1.5))
        out.backward()
        assert t.grad[0] == 0.0
        assert t.grad[1] == pytest.approx(1.5)

    def test_reductions_and_concat(self, rng):
        check_op(lambda a: ag.tsum(a, axis=1), rng.normal(size=(3, 4)))
        check_op(lambda a: ag.tmean(a, axis=0), rng.normal(size=(3, 4)))
        check_op(lambda a, b: ag.concat([a, b], axis=1), rng.normal(size=(2, 3)), rng.normal(size=(2, 2)))

    def test_softmax_rows_and_grad(self, rng):
        x = rng.normal(size=(4, 3))
        out = ag.softmax(Tensor(x), axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        check_op(lambda a: ag.softmax(a, axis=1), x)

    def test_clip_low_gradient_mask(self):
        t = Tensor(np.array([0.5, 2.0]))
        out = ag.tsum(ag.clip_low(t, 1.0))
        out.backward()
        assert np.array_equal(t.grad, [0.0, 1.0])

    @given(
        a=arrays(np.float64, st.integers(1, 80) | st.just(4097), elements=_RELU_EDGES, fill=_RELU_EDGES),
        view=st.sampled_from([np.s_[:], np.s_[::2], np.s_[::-1]]),
        lo=st.sampled_from([0.0, PROB_FLOOR]),
    )
    @settings(max_examples=200, deadline=None)
    def test_clip_low_matches_select_bits(self, a, view, lo):
        # NaN maps to lo and -0.0 to +0.0, as the select does; 4097 runs past
        # numpy's SIMD blocks into a tail
        t = Tensor(a[view])
        out = ag.clip_low(t, lo)
        assert out.data.tobytes() == clip_low_reference(t.data, lo).tobytes()
        out._backward_fn(np.ones(out.shape))  # a sum over these values could overflow
        assert t.grad.tobytes() == (t.data > lo).astype(np.float64).tobytes()

    def test_last_step(self, rng):
        x = rng.normal(size=(5, 2, 3))  # (T, B, C)
        assert np.array_equal(ag.last_step(Tensor(x)).data, x[4])
        check_op(ag.last_step, x)

    @pytest.mark.parametrize("stride", [1, 2, 3, 7])
    def test_time_stride(self, rng, stride):
        x = rng.normal(size=(5, 2, 3))  # (T, B, C); stride 7 > T keeps only the last step
        out = ag.time_stride(Tensor(x), stride)
        assert np.array_equal(out.data, x[(5 - 1) % stride :: stride])  # starts at (T - 1) % stride
        check_op(lambda a: ag.time_stride(a, stride), x)

    def test_time_stride_identity_and_single_use(self, rng):
        a = Tensor(rng.normal(size=(6, 2, 3)))
        assert ag.time_stride(a, 1) is a
        strided = ag.time_stride(a, 2)
        loss = ag.tsum(ag.mul(strided, strided))
        loss.backward()
        assert strided.grad is None and strided._backward_fn is None
        assert np.array_equal(a.grad[0::2], np.zeros((3, 2, 3)))  # (T - 1) % 2 = 1: odd steps only
        assert np.array_equal(a.grad[1::2], 2.0 * a.data[1::2])
        with pytest.raises(ValueError, match="single-use"):
            loss.backward()

    def test_grad_accumulates_on_reuse(self):
        t = Tensor(np.array([2.0]))
        out = ag.add(ag.mul(t, t), t)  # x^2 + x -> grad 2x + 1
        out.backward()
        assert t.grad[0] == pytest.approx(5.0)


class TestTape:
    """Backward frees the graph as it goes, and each op hands ``_accum`` an
    array it owns: a tensor that feeds several consumers must still get the
    finite-difference gradient."""

    def test_shared_input_feeds_both_operands(self, rng):
        check_op(lambda a: ag.add(a, a), rng.normal(size=(3, 4)))
        check_op(lambda a: ag.mul(a, a), rng.normal(size=(3, 4)))
        check_op(lambda a: ag.concat([a, a], axis=1), rng.normal(size=(3, 4)))

    def test_same_shape_add_operand_used_again(self, rng):
        # add hands one unsummed gradient to u and v; u's other consumer adds to
        # u's grad before or after, depending on operand order, and v's must not move
        def build(add_first, out_op):
            def f(a, b):
                u = ag.tanh(a)
                s, m = ag.add(u, b), ag.mul(u, u)
                return out_op(s, m) if add_first else out_op(m, s)
            return f

        for add_first in (True, False):
            for out_op in (ag.add, ag.mul):
                check_op(build(add_first, out_op), rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_broadcast_add_of_shared_input(self, rng):
        check_op(lambda a: ag.add(a, ag.tmean(a, axis=0)), rng.normal(size=(3, 4)))
        check_op(lambda a, b: ag.mul(ag.add(a, b), b), rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_reductions_of_shared_input(self, rng):
        check_op(lambda a: ag.add(ag.tsum(a, axis=0), ag.tmean(a, axis=0)), rng.normal(size=(3, 4)))
        check_op(lambda a: ag.mul(ag.tsum(a), ag.tmean(a)), rng.normal(size=(3, 4)))

    def test_second_backward_raises(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        loss = ag.tsum(ag.mul(a, a))
        loss.backward()
        first = a.grad.copy()
        with pytest.raises(ValueError, match="single-use"):
            loss.backward()
        assert np.array_equal(a.grad, first)


class TestFusedKernels:
    def test_conv1d_gradients(self, rng):
        for dilation in (1, 2, 4):
            x = rng.normal(size=(10, 2, 3))
            w = rng.normal(size=(3, 3, 2))
            b = rng.normal(size=(2,))
            check_op(lambda xx, ww, bb: ag.conv1d_causal(xx, ww, bb, dilation), x, w, b)

    def test_conv1d_causality(self, rng):
        # time is axis 0: perturbing step 7 of one sequence leaves steps 0-6 and the
        # other sequences exactly as they were, and changes that sequence from step 7 on
        x = rng.normal(size=(12, 3, 1))
        w = rng.normal(size=(3, 1, 1))
        b = np.zeros(1)
        base = ag.conv1d_causal(Tensor(x), Tensor(w), Tensor(b), dilation=2).data
        x2 = x.copy()
        x2[7, 1, 0] += 5.0
        pert = ag.conv1d_causal(Tensor(x2), Tensor(w), Tensor(b), dilation=2).data
        assert np.array_equal(base[:7], pert[:7])
        assert np.array_equal(base[:, [0, 2]], pert[:, [0, 2]])
        assert not np.array_equal(base[7:, 1], pert[7:, 1])

    def test_conv1d_matches_direct_sum(self, rng):
        # C_in = 1 is the front-end's first layer, which the kernel runs channel-major
        for c_in in (2, 1):
            x = rng.normal(size=(9, 3, c_in))  # (T, B, C)
            w = rng.normal(size=(3, c_in, 4))
            b = rng.normal(size=(4,))
            for dilation in (1, 2, 4):
                want = np.zeros((9, 3, 4))
                for n in range(3):
                    for t in range(9):
                        acc = b.copy()
                        for k in range(3):
                            if t - dilation * k >= 0:
                                acc = acc + x[t - dilation * k, n] @ w[k]
                        want[t, n] = acc
                got = ag.conv1d_causal(Tensor(x), Tensor(w), Tensor(b), dilation).data
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_conv1d_backward_matches_direct_sum(self, rng):
        # dilation 5 puts the last tap at 10 >= T = 9: it sees no input, so its dw is exactly 0
        for c_in in (2, 1):
            x = rng.normal(size=(9, 3, c_in))  # (T, B, C)
            w = rng.normal(size=(3, c_in, 4))
            b = rng.normal(size=(4,))
            g = rng.normal(size=(9, 3, 4))
            for dilation in (1, 2, 4, 5):
                want_dx, want_dw, want_db = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
                for n in range(3):
                    for t in range(9):
                        want_db += g[t, n]
                        for k in range(3):
                            if t - dilation * k >= 0:
                                want_dx[t - dilation * k, n] += w[k] @ g[t, n]
                                want_dw[k] += np.outer(x[t - dilation * k, n], g[t, n])
                xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
                ag.tsum(ag.mul(ag.conv1d_causal(xt, wt, bt, dilation), Tensor(g))).backward()
                for got, want in ((xt.grad, want_dx), (wt.grad, want_dw), (bt.grad, want_db)):
                    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
                if dilation == 5:
                    assert not wt.grad[2].any()

    @pytest.mark.parametrize("stride", [2, 3])
    def test_conv1d_strided_gradients(self, rng, stride):
        for dilation in (1, 2):
            x = rng.normal(size=(10, 2, 3))
            w = rng.normal(size=(3, 3, 2))
            b = rng.normal(size=(2,))
            check_op(lambda xx, ww, bb: ag.conv1d_causal(xx, ww, bb, dilation, stride), x, w, b)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_conv1d_strided_causality(self, rng, stride):
        # output row m is step 11 % stride + m stride; perturbing input step 7 of
        # sequence 1 changes exactly the rows whose taps t, t - 2, t - 4 meet step 7
        x = rng.normal(size=(12, 3, 1))
        w = rng.normal(size=(3, 1, 1))
        b = np.zeros(1)
        base = ag.conv1d_causal(Tensor(x), Tensor(w), Tensor(b), dilation=2, stride=stride).data
        x2 = x.copy()
        x2[7, 1, 0] += 5.0
        pert = ag.conv1d_causal(Tensor(x2), Tensor(w), Tensor(b), dilation=2, stride=stride).data
        steps = np.arange(11 % stride, 12, stride)
        assert base.shape == (len(steps), 3, 1)
        changed = np.any(base != pert, axis=2)
        assert not changed[:, [0, 2]].any()
        assert list(changed[:, 1]) == [t - 7 in (0, 2, 4) for t in steps]

    @pytest.mark.parametrize("stride", [2, 3, 9, 12])
    def test_conv1d_strided_matches_direct_sum(self, rng, stride):
        # the output rows are steps 8 % stride, ..., 8 of T = 9; strides 9 and 12 keep only step 8
        steps = range(8 % stride, 9, stride)
        for c_in in (2, 1):
            x = rng.normal(size=(9, 3, c_in))  # (T, B, C)
            w = rng.normal(size=(3, c_in, 4))
            b = rng.normal(size=(4,))
            g = rng.normal(size=(len(steps), 3, 4))
            for dilation in (1, 2):
                want_y = np.zeros_like(g)
                want_dx, want_dw, want_db = np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)
                for m, t in enumerate(steps):
                    want_y[m] = b
                    want_db += g[m].sum(axis=0)
                    for k in range(3):
                        src = t - dilation * k
                        if src >= 0:
                            want_y[m] += x[src] @ w[k]
                            want_dx[src] += g[m] @ w[k].T
                            want_dw[k] += x[src].T @ g[m]
                xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
                y = ag.conv1d_causal(xt, wt, bt, dilation, stride)
                assert y.shape == g.shape
                ag.tsum(ag.mul(y, Tensor(g))).backward()
                for got, want in ((y.data, want_y), (xt.grad, want_dx), (wt.grad, want_dw), (bt.grad, want_db)):
                    assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("c_out", [1, 4, 8])
    def test_conv1d_single_channel_forward_matches_matmul_bits(self, rng, c_out):
        # the channel-major C_in = 1 forward adds the same single products in
        # the same order as one matmul per tap, so every bit holds, signed zeros
        # too; a nonzero bias pins where the bias joins the sum
        for k, dilation, stride, t in itertools.product((1, 3, 5, 9), (1, 2, 4), (1, 2, 3), (1, 2, 7, 120)):
            x = rng.normal(size=(t, 5, 1))
            x[rng.random(x.shape) < 0.2] = 0.0
            x[rng.random(x.shape) < 0.2] = -0.0
            w = rng.normal(size=(k, 1, c_out))
            for b in (np.zeros(c_out), rng.normal(size=c_out)):
                got = ag.conv1d_causal(Tensor(x), Tensor(w), Tensor(b), dilation, stride).data
                want = conv1d_fwd_reference(x, w, b, dilation, stride)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (k, dilation, stride, t)

    def test_conv1d_forward_digest_independent_of_blas_threads(self):
        # the front-end's first layer (C_in = 1, k = 9) and a stride-2 block conv
        script = (
            "import hashlib, numpy as np\n"
            "from capstate.model.autograd import _conv1d_fwd\n"
            "rng = np.random.default_rng(5)\n"
            "x1, w1, b1 = rng.normal(size=(120, 64, 1)), rng.normal(size=(9, 1, 8)), rng.normal(size=8)\n"
            "x, w, b = rng.normal(size=(120, 64, 24)), rng.normal(size=(3, 24, 24)), rng.normal(size=24)\n"
            "parts = (_conv1d_fwd(x1, w1, b1, 1, 1), _conv1d_fwd(x, w, b, 1, 2))\n"
            "print(hashlib.sha256(b''.join(p.tobytes() for p in parts)).hexdigest())\n"
        )
        one, two = digests_by_blas_threads(script)
        assert len(one) == 64 and one == two

    def test_conv1d_backward_digest_independent_of_blas_threads(self):
        # a stride-1 call at dilation 16 and a stride-2 call, whose gradient has
        # the strided output's (T - 1) // 2 + 1 = 60 rows
        script = (
            "import hashlib, numpy as np\n"
            "from capstate.model.autograd import _conv1d_bwd\n"
            "rng = np.random.default_rng(5)\n"
            "x, g = rng.normal(size=(2, 120, 64, 24))\n"
            "w = rng.normal(size=(3, 24, 24))\n"
            "parts = _conv1d_bwd(g, x, w, 16, 1) + _conv1d_bwd(g[:60], x, w, 1, 2)\n"
            "print(hashlib.sha256(b''.join(p.tobytes() for p in parts)).hexdigest())\n"
        )
        one, two = digests_by_blas_threads(script)
        assert len(one) == 64 and one == two

    def test_lstm_gradients(self, rng):
        x = rng.normal(size=(6, 2, 3)) * 0.5
        h = 4
        wx = rng.normal(size=(3, 4 * h)) * 0.4
        wh = rng.normal(size=(h, 4 * h)) * 0.4
        b = rng.normal(size=(4 * h,)) * 0.2
        check_op(lambda a, c, d, e: ag.lstm(a, c, d, e), x, wx, wh, b, tol=5e-6)

    def test_lstm_matches_scalar_reference(self, rng):
        x = rng.normal(size=(8, 3, 2))  # (T, B, C)
        hdim = 5
        wx = rng.normal(size=(2, 4 * hdim)) * 0.5
        wh = rng.normal(size=(hdim, 4 * hdim)) * 0.5
        b = rng.normal(size=(4 * hdim,)) * 0.3

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        want = np.zeros((8, 3, hdim))
        for n in range(3):
            h = [0.0] * hdim
            c = [0.0] * hdim
            for t in range(8):
                z = [b[j] + sum(x[t, n, k] * wx[k, j] for k in range(2))
                     + sum(h[m] * wh[m, j] for m in range(hdim)) for j in range(4 * hdim)]
                for j in range(hdim):
                    i, f = sig(z[j]), sig(z[hdim + j])
                    g, o = math.tanh(z[2 * hdim + j]), sig(z[3 * hdim + j])
                    c[j] = f * c[j] + i * g
                    h[j] = o * math.tanh(c[j])
                want[t, n] = h
        got = ag.lstm(Tensor(x), Tensor(wx), Tensor(wh), Tensor(b)).data
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bsz", [1, 5, 51, 64])
    @pytest.mark.parametrize("t", [1, 11, 120])
    def test_lstm_matches_batch_major_reference(self, bsz, t):
        # The kernel reorders the gates, stores them feature-major and lifts the
        # weight and input gradients out of the time loop, so sums run in another
        # order than the reference's: allow 1e-13 of the largest reference value
        # (measured: at most 1.1e-15). B = 1 is the last minibatch when n % 64 == 1.
        rng = np.random.default_rng(1000 * bsz + t)
        c, hdim = 8, 16
        x = rng.normal(size=(bsz, t, c))
        wx = rng.normal(size=(c, 4 * hdim)) * 0.5
        wh = rng.normal(size=(hdim, 4 * hdim)) * 0.5
        b = rng.normal(size=(4 * hdim,)) * 0.3
        grad_hs = rng.normal(size=(bsz, t, hdim))
        (want_hs, *_), want_grads = lstm_reference(x, wx, wh, b, grad_hs)
        xt, wxt, wht, bt = Tensor(x.transpose(1, 0, 2).copy()), Tensor(wx), Tensor(wh), Tensor(b)
        out = ag.lstm(xt, wxt, wht, bt)
        ag.tsum(ag.mul(out, Tensor(grad_hs.transpose(1, 0, 2).copy()))).backward()
        got = (out.data.transpose(1, 0, 2), xt.grad.transpose(1, 0, 2), wxt.grad, wht.grad, bt.grad)
        for name, g, want in zip(("hs", "dx", "dWx", "dWh", "db"), got, (want_hs, *want_grads), strict=True):
            assert g.shape == want.shape, name
            assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max(), name

    def test_dropout_inverted_scaling(self, rng):
        x = np.ones((200, 50))
        out = ag.dropout(Tensor(x), 0.4, np.random.default_rng(0))
        kept = out.data != 0
        assert out.data[kept][0] == pytest.approx(1.0 / 0.6)
        assert abs(out.data.mean() - 1.0) < 0.05
        assert ag.dropout(Tensor(x), 0.0, np.random.default_rng(0)).data is not None
