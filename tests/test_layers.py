import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from vulncascade.errors import (
    BatchTooSmallError,
    IdOutOfRangeError,
    InputTooShortError,
    ShapeMismatchError,
)
from vulncascade import layers as layers_module
from vulncascade.layers import (
    MIN_GEMM_ROWS,
    Activation,
    BatchNorm1D,
    Conv1D,
    Dense,
    Embedding,
    EmbeddingConv1D,
    Flatten,
    LSTM,
    MaxPool1D,
    glorot_uniform,
    sigmoid,
    softmax,
)

from conftest import gradient_check, layer_grad_error


# Reference copies of the sliding-window pool, the tensordot convolution
# forward, the tensordot/shifted-loop convolution backward and the masked
# sigmoid; the layers must match them.

def reference_pool_forward(x, window, stride):
    windows = sliding_window_view(x, window, axis=1)[:, ::stride]
    return windows.max(axis=-1), windows.argmax(axis=-1)


def reference_pool_backward(arg, upstream, in_shape, stride):
    b, l_out, c = upstream.shape
    dx = np.zeros(in_shape)
    bi, ti, ci = np.indices((b, l_out, c))
    np.add.at(dx, (bi, ti * stride + arg, ci), upstream)
    return dx


def reference_conv_forward(x, weights, bias):
    """A valid stride-1 convolution contracting (C, k) patches with the
    (F, C, k) weights."""
    patches = sliding_window_view(x, weights.shape[2], axis=1)
    out = np.empty((x.shape[0], patches.shape[1], weights.shape[0]))
    for i, sample in enumerate(patches):
        out[i] = np.tensordot(sample, weights, axes=([1, 2], [1, 2]))
    return out + bias


def reference_conv_backward(x, weights, upstream):
    """(dW, dx) of a valid stride-1 convolution."""
    k = weights.shape[2]
    l_out = x.shape[1] - k + 1
    patches = sliding_window_view(x, k, axis=1)
    dw = np.tensordot(upstream, patches, axes=([0, 1], [0, 1]))
    dx = np.zeros_like(x)
    for j in range(k):
        dx[:, j:j + l_out, :] += upstream @ weights[:, :, j]
    return dw, dx


def reference_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def two_divide_sigmoid(x):
    """The sigmoid as 1 / (1 + e) for x >= 0 and e / (1 + e) below, with
    e = exp(-|x|): two divides, where layers.sigmoid takes one."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def hand_lstm(layer, x):
    """(B, L, H) hidden sequence of an LSTM, one sample and one step at a
    time, with the gate blocks in the file's [i, f, g, o] row order."""
    h_dim = layer.units
    out = np.zeros(x.shape[:2] + (h_dim,))
    for b in range(x.shape[0]):
        h = np.zeros(h_dim)
        c = np.zeros(h_dim)
        for t in range(x.shape[1]):
            z = layer.w_in @ x[b, t] + layer.w_rec @ h + layer.bias
            gi = two_divide_sigmoid(z[:h_dim])
            gf = two_divide_sigmoid(z[h_dim:2 * h_dim])
            gg = np.tanh(z[2 * h_dim:3 * h_dim])
            go = two_divide_sigmoid(z[3 * h_dim:])
            c = gf * c + gi * gg
            h = go * np.tanh(c)
            out[b, t] = h
    return out


def textbook_batchnorm(layer, x, upstream):
    """Training forward and backward of BatchNorm1D as the textbook formulas
    read, one temporary per operation: y, xhat, running mean and variance,
    dx, dgamma, dbeta.  Reads the layer's gamma, beta, momentum and eps, and
    its running statistics before the step."""
    flat = x.reshape(-1, x.shape[-1])
    mean, var = flat.mean(axis=0), flat.var(axis=0)
    m = layer.momentum
    running_mean = layer.running_mean * m + (1.0 - m) * mean
    running_var = layer.running_var * m + (1.0 - m) * var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = (flat - mean) * inv_std
    y = (layer.gamma * xhat + layer.beta).reshape(x.shape)
    dy = upstream.reshape(flat.shape)
    dx = layer.gamma * inv_std * (
        dy - dy.mean(axis=0) - xhat * (dy * xhat).mean(axis=0))
    return (y, xhat, running_mean, running_var, dx.reshape(x.shape),
            (dy * xhat).sum(axis=0), dy.sum(axis=0))


def naive_conv1d(x, weights, bias):
    """Reference convolution: explicit loops, valid padding, stride 1."""
    b, length, channels = x.shape
    filters, _, k = weights.shape
    out = np.zeros((b, length - k + 1, filters))
    for bi in range(b):
        for t in range(length - k + 1):
            for f in range(filters):
                acc = 0.0
                for c in range(channels):
                    for j in range(k):
                        acc += x[bi, t + j, c] * weights[f, c, j]
                out[bi, t, f] = acc + bias[f]
    return out


class TestConv1D:
    def test_matches_naive_oracle(self, rng):
        for _ in range(10):
            b, length, c, f, k = (int(rng.integers(1, 4)),
                                  int(rng.integers(3, 9)),
                                  int(rng.integers(1, 4)),
                                  int(rng.integers(1, 5)),
                                  int(rng.integers(1, 4)))
            length = max(length, k)
            layer = Conv1D(c, f, k, rng)
            layer.weights[:] = rng.standard_normal(layer.weights.shape)
            layer.bias[:] = rng.standard_normal(f)
            x = rng.standard_normal((b, length, c))
            got = layer.forward(x)
            want = naive_conv1d(x, layer.weights, layer.bias)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_output_length(self, rng):
        layer = Conv1D(2, 3, 4, rng)
        assert layer.forward(np.zeros((1, 10, 2))).shape == (1, 7, 3)

    def test_input_shorter_than_kernel(self, rng):
        layer = Conv1D(2, 3, 5, rng)
        with pytest.raises(InputTooShortError):
            layer.forward(np.zeros((1, 4, 2)))

    def test_gradients(self, rng):
        for i in range(3):
            layer = Conv1D(2, 3, 3, rng)
            x = rng.standard_normal((2, 8, 2))
            assert layer_grad_error(layer, x, seed=i) < 1e-4

    # the four production shapes (C, F, k, L).  dx_exact is False on
    # stage-2 conv1: OpenBLAS computes the last 4 of the reference GEMM's
    # 300 columns in an edge kernel that sums in another order
    PRODUCTION = {
        "stage1_conv1": (13, 256, 7, 500, True),
        "stage1_conv2": (256, 128, 7, 247, True),
        "stage2_conv1": (300, 64, 3, 400, False),
        "stage2_conv2": (64, 128, 3, 199, True),
    }

    @pytest.mark.parametrize("shape", list(PRODUCTION))
    def test_forward_matches_reference(self, shape):
        c, f, k, length, _ = self.PRODUCTION[shape]
        rng = np.random.default_rng(c)
        for b in (2, 3, 4):
            layer = Conv1D(c, f, k, rng)
            layer.bias[:] = rng.standard_normal(f)
            x = rng.standard_normal((b, length, c))
            want = reference_conv_forward(x, layer.weights, layer.bias)
            # relative to the output's scale: sums that cancel to near zero
            # differ by a few ulps of their terms, not of their result
            err = np.max(np.abs(layer.forward(x) - want))
            assert err <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", list(PRODUCTION))
    def test_backward_matches_reference(self, shape):
        c, f, k, length, dx_exact = self.PRODUCTION[shape]
        rng = np.random.default_rng(c)
        for b in (2, 3, 4):
            layer = Conv1D(c, f, k, rng)
            x = rng.standard_normal((b, length, c))
            upstream = rng.standard_normal(layer.forward(x, training=True).shape)
            dx = layer.backward(upstream)
            want_dw, want_dx = reference_conv_backward(x, layer.weights, upstream)
            if dx_exact:
                np.testing.assert_array_equal(dx, want_dx)
            else:
                assert np.max(np.abs(dx - want_dx)) <= 1e-12 * np.max(np.abs(want_dx))
            err = np.max(np.abs(layer.grad["weights"] - want_dw))
            assert err <= 1e-12 * np.max(np.abs(want_dw))
            np.testing.assert_array_equal(layer.grad["bias"],
                                          upstream.sum(axis=(0, 1)))

    @pytest.mark.parametrize("shape", ["stage1_conv1", "stage1_conv2", "stage2_conv2"])
    def test_tails_skip_only_repeated_outputs(self, shape):
        # rows whose input repeats one vector from its tail start on: the
        # forward is the full one bit for bit, the parameter gradients equal
        # up to summation order, and dx keeps each row's live part and the
        # sum over its tail
        c, f, k, length, _ = self.PRODUCTION[shape]
        rng = np.random.default_rng(k)
        layer = Conv1D(c, f, k, rng)
        layer.bias[:] = rng.standard_normal(f)
        tails = np.array([length, 0, 40, length - k, 3])
        x = rng.standard_normal((len(tails), length, c))
        for row, start in enumerate(tails):
            x[row, start:] = rng.standard_normal(c)
        upstream = rng.standard_normal((len(tails), length - k + 1, f))
        want = layer.forward(x, training=True)
        want_dx = layer.backward(upstream)
        want_grads = [g.copy() for _, g in layer.grads()]
        layer.tails = tails
        got = layer.forward(x, training=True)
        assert layer.tails is None  # read once
        dx = layer.backward(upstream)
        np.testing.assert_array_equal(got, want)
        for (_, got_grad), want_grad in zip(layer.grads(), want_grads):
            assert relative_error(got_grad, want_grad) <= 1e-12
        scale = np.max(np.abs(want_dx))
        for row, start in enumerate(tails):
            assert np.max(np.abs(dx[row, :start] - want_dx[row, :start]),
                          initial=0.0) <= 1e-12 * scale
            assert np.max(np.abs(dx[row, start:].sum(axis=0)
                                 - want_dx[row, start:].sum(axis=0)),
                          initial=0.0) <= 1e-12 * scale


def same_bits(got, want):
    """Equal bit for bit: signed zeros and NaN payloads included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def relu_pool_pair(c, f, k, rng):
    """Two convolutions with equal parameters: the first runs its block's
    relu and 2x2 pool itself (relu_pool), the second does not."""
    fused, plain = Conv1D(c, f, k, rng), Conv1D(c, f, k, None)
    fused.bias[:] = rng.standard_normal(f)
    plain.weights[...], plain.bias[...] = fused.weights, fused.bias
    fused.relu_pool = True
    return fused, plain


def block_step(layers, x, tails, upstream):
    """Output, dx, dW and db of one training step through layers (a fused
    convolution, or a convolution, a relu and a 2x2 pool), the convolution
    handed tails."""
    layers[0].tails = tails
    h = x
    for layer in layers:
        h = layer.forward(h, training=True)
    dx = upstream
    for layer in reversed(layers):
        dx = layer.backward(dx)
    return h, dx, layers[0].grad["weights"].copy(), layers[0].grad["bias"].copy()


class TestReluPool:
    """A Conv1D with relu_pool set is Conv1D -> relu -> MaxPool1D(2, 2) run
    in turn with the same tails, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_three_layers(self, data):
        l_out = data.draw(st.one_of(st.sampled_from([2, 3, 17, 241]),
                                    st.integers(2, 40)))
        c, f, k = (data.draw(st.integers(1, 5)), data.draw(st.integers(2, 9)),
                   data.draw(st.integers(1, 4)))
        batch = data.draw(st.integers(1, 4))
        length = l_out + k - 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fused, plain = relu_pool_pair(c, f, k, rng)
        # each row repeats one vector from its tail start on; 0 is all PAD
        tails = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([0, length]), st.integers(0, length)),
            min_size=batch, max_size=batch)))
        x = rng.standard_normal((batch, length, c))
        x[np.arange(length) >= tails[:, None]] = rng.standard_normal(c)
        # signed zeros: a filter of zero weights, its bias -0 or +0, gives
        # outputs of either sign; then NaN in the convolution's output
        fused.weights[0] = plain.weights[0] = 0.0
        fused.bias[0] = plain.bias[0] = data.draw(st.sampled_from([-0.0, 0.0]))
        nan = data.draw(st.sampled_from(["none", "bias", "input"]))
        if nan == "bias":
            fused.bias[-1] = plain.bias[-1] = np.nan
        elif nan == "input":  # in a row's multiplied part
            row = rng.integers(batch)
            x[row, rng.integers(max(tails[row], 1)), rng.integers(c)] = np.nan
        upstream = rng.standard_normal((batch, l_out // 2, f))
        upstream[rng.random(upstream.shape) < 0.2] = -0.0
        upstream[rng.random(upstream.shape) < 0.1] = 0.0
        floor = data.draw(st.sampled_from([1, MIN_GEMM_ROWS]))
        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
            mp.setattr(layers_module, "MIN_GEMM_ROWS", floor)
            got = block_step([fused], x, tails, upstream)
            want = block_step([plain, Activation("relu"), MaxPool1D(2, 2)],
                              x, tails, upstream)
        for got_part, want_part in zip(got, want):
            same_bits(got_part, want_part)

    def test_nan_pairs_route_as_relu_then_pool(self):
        # k = 1 and weights +1, -1: the convolution's output is x and -x.
        # Pairs holding NaN: relu then pool sends the gradient on to a
        # positive second element and leaves -0 where that is <= 0
        fused, plain = relu_pool_pair(1, 2, 1, np.random.default_rng(0))
        for conv in (fused, plain):
            conv.weights[:, 0, 0] = [1.0, -1.0]
            conv.bias[:] = 0.0
        x = np.array([np.nan, 2.0, np.nan, -2.0, 1.0, np.nan, -1.0, np.nan,
                      np.nan, np.nan])[None, :, None]
        upstream = np.full((1, 5, 2), -1.5)
        with np.errstate(invalid="ignore"):
            got = block_step([fused], x, None, upstream)
            want = block_step([plain, Activation("relu"), MaxPool1D(2, 2)],
                              x, None, upstream)
        for got_part, want_part in zip(got, want):
            same_bits(got_part, want_part)
        assert got[1][0, :4, 0].tolist() == [0.0, -1.5, 0.0, 1.5]

    def test_eval_forward_matches_and_caches_nothing(self, rng):
        fused, plain = relu_pool_pair(13, 256, 7, rng)
        x = rng.standard_normal((3, 500, 13))
        want = MaxPool1D(2, 2).forward(Activation("relu").forward(plain.forward(x)))
        got = fused.forward(x)
        assert got.shape == (3, 247, 256)
        same_bits(got, want)
        assert fused._x is None and fused._masks is None

    def test_gradients(self, rng):
        for i in range(3):
            fused, _ = relu_pool_pair(3, 4, 3, rng)
            # spread values to keep finite differences off relu's kink and
            # the pool's ties
            x = rng.standard_normal((2, 12, 3)) * 10.0
            assert layer_grad_error(fused, x, seed=i) < 1e-4

    def test_one_output_is_too_short_to_pool(self, rng):
        fused, _ = relu_pool_pair(2, 3, 3, rng)
        with pytest.raises(InputTooShortError):
            fused.forward(rng.standard_normal((1, 3, 2)))


class TestMaxPool:
    def test_forward_values(self):
        layer = MaxPool1D(2, 2)
        x = np.array([[[1.0], [4.0], [2.0], [3.0], [9.0]]])
        assert layer.forward(x).ravel().tolist() == [4.0, 3.0]

    def test_tail_shorter_than_window_dropped(self):
        layer = MaxPool1D(2, 2)
        out = layer.forward(np.zeros((1, 5, 2)))
        assert out.shape == (1, 2, 2)

    def test_tie_takes_first_index(self):
        layer = MaxPool1D(2, 2)
        x = np.array([[[7.0], [7.0]]])
        layer.forward(x, training=True)
        dx = layer.backward(np.array([[[1.0]]]))
        assert dx.ravel().tolist() == [1.0, 0.0]

    def test_gradient_mass_conserved_exactly(self, rng):
        layer = MaxPool1D(2, 2)
        x = rng.standard_normal((3, 10, 4))
        layer.forward(x, training=True)
        upstream = rng.integers(-5, 6, size=(3, 5, 4)).astype(np.float64)
        dx = layer.backward(upstream)
        # integer masses sum without rounding, so equality is exact
        assert dx.sum() == upstream.sum()

    def test_upstream_values_placed_unchanged(self, rng):
        layer = MaxPool1D(2, 2)
        x = rng.standard_normal((2, 8, 3))
        y = layer.forward(x, training=True)
        upstream = rng.standard_normal(y.shape)
        dx = layer.backward(upstream)
        nz = dx[dx != 0.0]
        assert sorted(nz.tolist()) == sorted(upstream.ravel().tolist())

    @pytest.mark.parametrize("shape", [(1, 2, 1), (3, 9, 4), (2, 10, 3),
                                       (4, 7, 5)])
    def test_pair_view_matches_sliding_window(self, shape):
        rng = np.random.default_rng(sum(shape))
        # few distinct values, so many windows tie; the first window always
        x = rng.integers(-2, 3, size=shape).astype(np.float64)
        x[:, 1] = x[:, 0]
        layer = MaxPool1D(2, 2)
        want, arg = reference_pool_forward(x, 2, 2)
        np.testing.assert_array_equal(layer.forward(x), want)
        np.testing.assert_array_equal(layer.forward(x, training=True), want)
        # the mask says "first element wins" exactly where argmax is 0
        np.testing.assert_array_equal(layer._arg, arg == 0)
        upstream = rng.standard_normal(want.shape)
        np.testing.assert_array_equal(
            layer.backward(upstream),
            reference_pool_backward(arg, upstream, x.shape, 2))

    @pytest.mark.parametrize("window,stride", [(3, 1), (2, 1), (3, 2), (3, 3)])
    def test_general_windows_match_reference(self, rng, window, stride):
        x = rng.integers(-2, 3, size=(2, 11, 3)).astype(np.float64)
        layer = MaxPool1D(window, stride)
        want, arg = reference_pool_forward(x, window, stride)
        np.testing.assert_array_equal(layer.forward(x, training=True), want)
        upstream = rng.standard_normal(want.shape)
        np.testing.assert_array_equal(
            layer.backward(upstream),
            reference_pool_backward(arg, upstream, x.shape, stride))

    def test_gradients(self, rng):
        for i in range(3):
            layer = MaxPool1D(2, 2)
            # spread values to keep finite differences off argmax boundaries
            x = rng.standard_normal((2, 9, 3)) * 10.0
            assert layer_grad_error(layer, x, seed=i) < 1e-4


class TestLSTM:
    def test_one_step_matches_hand_equations(self, rng):
        d, h = 3, 2
        layer = LSTM(d, h, rng, return_sequences=False)
        x = rng.standard_normal((1, 1, d))
        got = layer.forward(x)[0]

        z = layer.w_in @ x[0, 0] + layer.bias  # initial h is zero
        gi = sigmoid(z[0 * h:1 * h])
        gf = sigmoid(z[1 * h:2 * h])
        gg = np.tanh(z[2 * h:3 * h])
        go = sigmoid(z[3 * h:4 * h])
        c = gi * gg
        want = go * np.tanh(c)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_two_steps_recurrence(self, rng):
        d, h = 2, 3
        layer = LSTM(d, h, rng, return_sequences=True)
        x = rng.standard_normal((1, 2, d))
        out = layer.forward(x)

        hh = np.zeros(h)
        cc = np.zeros(h)
        for t in range(2):
            z = layer.w_in @ x[0, t] + layer.w_rec @ hh + layer.bias
            gi = sigmoid(z[:h])
            gf = sigmoid(z[h:2 * h])
            gg = np.tanh(z[2 * h:3 * h])
            go = sigmoid(z[3 * h:])
            cc = gf * cc + gi * gg
            hh = go * np.tanh(cc)
            assert np.max(np.abs(out[0, t] - hh)) < 1e-12

    @pytest.mark.parametrize("batch", [1, 2, 5, 8, 32])
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_matches_hand_equations_in_file_gate_order(self, batch,
                                                       return_sequences):
        # the forward reorders the gate columns inside the call; a bias that
        # differs per gate block catches a block read in the wrong order
        rng = np.random.default_rng(batch)
        layer = LSTM(12, 7, rng, return_sequences=return_sequences)
        layer.bias[:] = rng.uniform(-1.0, 1.0, layer.bias.shape)
        x = rng.standard_normal((batch, 6, 12))
        want = hand_lstm(layer, x)
        if not return_sequences:
            want = want[:, -1]
        for training in (False, True):
            got = layer.forward(x, training=training)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12

    def test_forward_leaves_parameters_unchanged(self, rng):
        layer = LSTM(6, 5, rng, return_sequences=True)
        layer.bias[:] = rng.uniform(-1.0, 1.0, layer.bias.shape)
        before = {name: arr.tobytes() for name, arr in layer.params()}
        x = rng.standard_normal((3, 4, 6))
        layer.forward(x)
        layer.forward(x, training=True)
        after = {name: arr.tobytes() for name, arr in layer.params()}
        assert after == before

    def test_return_sequences_shapes(self, rng):
        x = np.zeros((4, 6, 3))
        assert LSTM(3, 5, rng, return_sequences=True).forward(x).shape == (4, 6, 5)
        assert LSTM(3, 5, rng, return_sequences=False).forward(x).shape == (4, 5)

    def test_rejects_wrong_feature_width(self, rng):
        with pytest.raises(ShapeMismatchError):
            LSTM(3, 5, rng).forward(np.zeros((1, 4, 2)))

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_gradients(self, rng, return_sequences):
        for i in range(3):
            layer = LSTM(3, 4, rng, return_sequences=return_sequences)
            x = rng.standard_normal((2, 5, 3))
            assert layer_grad_error(layer, x, seed=i) < 1e-4


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        layer = BatchNorm1D(4)
        x = rng.standard_normal((32, 4)) * 3.0 + 7.0
        y = layer.forward(x, training=True)
        assert np.max(np.abs(y.mean(axis=0))) < 1e-9
        # biased variance, so the normalized batch has variance 1 up to eps
        assert np.max(np.abs(y.var(axis=0) - 1.0)) < 1e-3

    def test_running_stats_update(self, rng):
        layer = BatchNorm1D(2, momentum=0.9)
        x = rng.standard_normal((16, 2)) + 5.0
        layer.forward(x, training=True)
        want_mean = 0.1 * x.mean(axis=0)
        want_var = 0.9 * 1.0 + 0.1 * x.var(axis=0)
        assert np.allclose(layer.running_mean, want_mean, atol=1e-12)
        assert np.allclose(layer.running_var, want_var, atol=1e-12)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm1D(3)
        for _ in range(200):
            layer.forward(rng.standard_normal((64, 3)) * 2.0 + 1.0, training=True)
        y = layer.forward(np.ones((1, 3)), training=False)
        want = (1.0 - layer.running_mean) / np.sqrt(layer.running_var + layer.eps)
        assert np.allclose(y[0], want, atol=1e-12)

    def test_sequence_input_flattened(self, rng):
        layer = BatchNorm1D(4)
        x = rng.standard_normal((3, 5, 4))
        y = layer.forward(x, training=True)
        assert y.shape == x.shape
        flat = y.reshape(-1, 4)
        assert np.max(np.abs(flat.mean(axis=0))) < 1e-9

    @pytest.mark.parametrize("shape", [(6, 3), (4, 9, 5), (32, 197, 128)])
    def test_training_step_is_the_textbook_formulas_bit_for_bit(self, rng, shape):
        layer = BatchNorm1D(shape[-1])
        layer.gamma[:] = rng.uniform(0.5, 2.0, size=shape[-1])
        layer.beta[:] = rng.standard_normal(shape[-1])
        layer.running_mean[:] = rng.standard_normal(shape[-1])
        x = rng.standard_normal(shape) * 3.0 + 1.0
        upstream = rng.standard_normal(shape)
        want = textbook_batchnorm(layer, x, upstream)
        y = layer.forward(x, training=True)
        xhat = layer._cache[0].copy()
        dx = layer.backward(upstream)
        got = (y, xhat, layer.running_mean, layer.running_var, dx,
               layer.grad["gamma"], layer.grad["beta"])
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        # eval: the running statistics in place of the batch's
        inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
        flat = x.reshape(-1, shape[-1])
        want_eval = layer.gamma * ((flat - layer.running_mean) * inv_std) + layer.beta
        assert layer.forward(x).tobytes() == want_eval.reshape(shape).tobytes()

    def test_batch_of_one_rejected_in_training(self):
        layer = BatchNorm1D(2)
        with pytest.raises(BatchTooSmallError):
            layer.forward(np.zeros((1, 2)), training=True)
        # eval mode is fine with a single row
        layer.forward(np.zeros((1, 2)), training=False)

    def test_gradients(self, rng):
        for i in range(3):
            layer = BatchNorm1D(3)
            layer.gamma[:] = rng.uniform(0.5, 2.0, size=3)
            layer.beta[:] = rng.standard_normal(3)
            x = rng.standard_normal((6, 3))
            assert layer_grad_error(layer, x, seed=i) < 1e-4


class TestEmbedding:
    def test_lookup_rows(self, rng):
        layer = Embedding(5, 3, rng)
        ids = np.array([[0, 4], [2, 2]])
        out = layer.forward(ids)
        assert np.array_equal(out[0, 1], layer.table[4])
        assert np.array_equal(out[1, 0], out[1, 1])

    def test_out_of_range_id(self, rng):
        layer = Embedding(5, 3, rng)
        with pytest.raises(IdOutOfRangeError):
            layer.forward(np.array([[5]]))
        with pytest.raises(IdOutOfRangeError):
            layer.forward(np.array([[-1]]))

    def test_repeated_ids_accumulate_gradient(self, rng):
        layer = Embedding(4, 2, rng)
        layer.forward(np.array([[1, 1, 1]]), training=True)
        layer.backward(np.ones((1, 3, 2)))
        assert np.allclose(layer.grad["table"][1], [3.0, 3.0])
        assert np.allclose(layer.grad["table"][0], 0.0)

    def test_init_range(self, rng):
        layer = Embedding(50, 20, rng)
        assert np.max(np.abs(layer.table)) <= 0.05

    def test_backward_equals_add_at_into_zeroed_buffer(self):
        # the stage-1 shape: one bincount sums in np.add.at's order
        rng = np.random.default_rng(13)
        layer = Embedding(69, 13, rng)
        ids = rng.integers(0, 69, size=(64, 500))
        upstream = rng.standard_normal((64, 500, 13))
        layer.forward(ids, training=True)
        layer.backward(upstream)
        want = np.zeros((69, 13))
        np.add.at(want, ids.ravel(), upstream.reshape(-1, 13))
        np.testing.assert_array_equal(layer.grad["table"], want)

    def test_gradients(self, rng):
        for i in range(3):
            layer = Embedding(6, 3, rng)
            ids = rng.integers(0, 6, size=(2, 4))
            assert layer_grad_error(layer, ids, seed=i, check_input=False) < 1e-4


def folded_pair(vocab, dim, filters, k, seed=0):
    rng = np.random.default_rng(seed)
    emb, conv = Embedding(vocab, dim, rng), Conv1D(dim, filters, k, rng)
    conv.bias[:] = rng.standard_normal(filters)
    return emb, conv, EmbeddingConv1D(emb, conv)


def pair_grads(emb, conv):
    return [emb.grad["table"], conv.grad["weights"], conv.grad["bias"]]


def relative_error(got, want):
    """Largest difference relative to the largest reference magnitude."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestEmbeddingConv1D:
    """The folded pair against the Embedding -> Conv1D pair it stands for."""

    def test_gradients(self):
        emb, conv, fold = folded_pair(5, 64, 3, 3)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 5, size=(2, 8))
        assert fold.wins(*ids.shape)
        emb.table *= 20.0
        w = rng.standard_normal((2, 6, 3))

        def loss_fn():
            return float(np.sum(fold.forward(ids, training=True) * w))

        fold.forward(ids, training=True)
        assert fold.backward(w) is None
        params = [emb.table, conv.weights, conv.bias]
        assert gradient_check(loss_fn, params, pair_grads(emb, conv), rng=rng) < 1e-4

    # stage 2's first pair in a training step of criterion 6 (V 108) and in
    # the stage-2 rows of one scanned file (V 33)
    @pytest.mark.parametrize("batch, vocab", [(32, 108), (5, 33)])
    def test_matches_the_pair_at_production_shapes(self, batch, vocab):
        emb, conv, fold = folded_pair(vocab, 300, 64, 3, seed=batch)
        rng = np.random.default_rng(vocab)
        ids = rng.integers(0, vocab, size=(batch, 400))
        upstream = rng.standard_normal((batch, 398, 64))
        assert fold.wins(*ids.shape)
        want = conv.forward(emb.forward(ids, training=True), training=True)
        emb.backward(conv.backward(upstream))
        want_grads = [g.copy() for g in pair_grads(emb, conv)]
        got = fold.forward(ids, training=True)
        fold.backward(upstream)
        assert relative_error(got, want) <= 1e-12
        for got_grad, want_grad in zip(pair_grads(emb, conv), want_grads):
            assert relative_error(got_grad, want_grad) <= 1e-12

    def test_rule(self):
        # a narrow embedding never folds; a wide one folds while the tap
        # products (V rows) cost less than the windows they replace (B * L')
        _, _, narrow = folded_pair(5, 13, 4, 3)
        assert not narrow.wins(1000, 400)
        _, _, wide = folded_pair(200, 300, 4, 3)
        assert wide.wins(1, 400)
        assert not wide.wins(1, 202)


class TestDense:
    def test_affine_map(self, rng):
        layer = Dense(2, 2, rng)
        layer.weights[:] = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias[:] = np.array([10.0, 20.0])
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert out.tolist() == [[13.0, 27.0]]

    def test_gradients(self, rng):
        for i in range(3):
            layer = Dense(4, 3, rng)
            x = rng.standard_normal((5, 4))
            assert layer_grad_error(layer, x, seed=i) < 1e-4


class TestFlatten:
    def test_round_trip(self, rng):
        layer = Flatten()
        x = rng.standard_normal((2, 3, 4))
        y = layer.forward(x, training=True)
        assert y.shape == (2, 12)
        assert layer.backward(y).shape == (2, 3, 4)
        assert np.array_equal(layer.backward(y), x)


class TestActivation:
    def test_relu(self):
        a = Activation("relu")
        assert a.forward(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_extremes_finite(self):
        a = Activation("sigmoid")
        y = a.forward(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))
        assert y[0] < 1e-300 or y[0] >= 0.0
        assert y[1] == pytest.approx(1.0)

    def test_sigmoid_matches_masked_reference(self, rng):
        special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1.0,
                            1000.0, -1000.0])
        dense = rng.standard_normal((32, 100)) * 20.0
        for x in (special, dense):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = sigmoid(x)
            want = reference_sigmoid(x)
            np.testing.assert_array_equal(got, want)

    def test_sigmoid_is_the_two_divide_formula_bit_for_bit(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0,
                            1000.0, -1000.0, tiny, -tiny, 1e-310, -1e-310,
                            2.2e-308, -2.2e-308])
        dense = np.random.default_rng(5).standard_normal(10 ** 6) * 30.0
        for x in (special, dense):
            assert sigmoid(x).tobytes() == two_divide_sigmoid(x).tobytes()

    def test_softmax_rows_sum_to_one(self, rng):
        a = Activation("softmax")
        y = a.forward(rng.standard_normal((5, 7)) * 50.0)
        assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(y >= 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("gelu")

    def test_training_forward_keeps_only_the_output(self):
        # relu's mask is read from its output, so once the caller drops the
        # input the layer holds one input-sized array, not two
        a = Activation("relu")
        draw = lambda: np.random.default_rng(3).standard_normal((8, 494, 256))
        tracemalloc.start()
        try:
            x = draw()
            nbytes = x.nbytes
            y = a.forward(x, training=True)
            del x, y
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nbytes <= kept < 1.5 * nbytes
        x = draw()
        np.testing.assert_array_equal(a.backward(np.ones_like(x)), x > 0)

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "softmax"])
    def test_gradients(self, rng, kind):
        a = Activation(kind)
        # keep relu inputs away from the kink at zero
        x = rng.standard_normal((3, 6))
        x[np.abs(x) < 1e-3] = 0.5
        assert layer_grad_error(a, x) < 1e-4


def test_glorot_bounds(rng):
    w = glorot_uniform(rng, (40, 30), fan_in=30, fan_out=40)
    limit = np.sqrt(6.0 / 70.0)
    assert np.max(np.abs(w)) <= limit
    assert np.std(w) > limit / 4  # actually spread out, not collapsed


def test_softmax_invariant_to_shift(rng):
    x = rng.standard_normal((2, 5))
    assert np.allclose(softmax(x), softmax(x + 1000.0), atol=1e-12)
