"""Layer forward/backward math for the two network architectures.

Everything runs on float64 numpy arrays.  In training mode each layer caches
what its backward pass needs.  Backward drops the cached arrays as it reads
them (a shape tuple may stay), writes its batch's parameter gradients into
the gradient buffers, and returns the gradient with respect to its input, so
a network is just an ordered list of layers.  An eval-mode forward caches
nothing, so inference holds one layer's activations at a time; backward
needs a training forward.  Gradient buffers exist only after training use:
they are allocated the first time grads or backward touches them, so a model
that only infers never holds them.  Forward and backward are pure given
(input, parameters); only the optimizer mutates parameters.

EmbeddingConv1D runs an Embedding that feeds a Conv1D as one lookup per tap
of the (V, F) product of the table with that tap's weights; it never builds
the (B, L, D) embedding output.  It pays where V*D < B*L'*(D - GATHER_COST),
GATHER_COST = 30 by measurement (the numbers are at its definition), never
at D <= GATHER_COST: stage 2 (D 300) has a fold, stage 1 (D 13) none.

A Conv1D with relu_pool set runs a Conv1D -> relu -> 2x2 MaxPool1D block
per sample in cache, pool before relu, bit for bit the three layers.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BatchTooSmallError,
    IdOutOfRangeError,
    InputTooShortError,
    ShapeMismatchError,
)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the row max for stability."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def _uniform(rng: np.random.Generator | None, limit: float, shape) -> np.ndarray:
    """Draws from U(-limit, limit), or an uninitialized array when rng is None
    (the caller fills it, as a model load does)."""
    if rng is None:
        return np.empty(shape)
    return rng.uniform(-limit, limit, size=shape)


def glorot_uniform(rng: np.random.Generator | None, shape, fan_in: int,
                   fan_out: int) -> np.ndarray:
    return _uniform(rng, np.sqrt(6.0 / (fan_in + fan_out)), shape)


class Layer:
    """Base: a layer names its trainable arrays in PARAMS and the arrays that
    persist without training (running statistics) in STATE; the gradient
    buffers are derived from PARAMS."""

    PARAMS: tuple[str, ...] = ()
    STATE: tuple[str, ...] = ()

    def params(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in self.PARAMS]

    def state(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in self.STATE]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return self.params() + self.state()

    @cached_property
    def grad(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.params()}

    def grads(self) -> list[tuple[str, np.ndarray]]:
        return list(self.grad.items())

    def forward(self, x, training: bool = False):
        raise NotImplementedError

    def backward(self, upstream):
        raise NotImplementedError


class Embedding(Layer):
    """Lookup table mapping token ids to dense vectors.

    Rows are drawn uniformly from +-0.05.  The padding id 0 is an ordinary row.
    """

    PARAMS = ("table",)

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator | None):
        self.vocab_size = vocab_size
        self.dim = dim
        self.table = _uniform(rng, 0.05, (vocab_size, dim))
        self._ids = None

    def check_ids(self, ids) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IdOutOfRangeError(
                f"token id outside embedding table of {self.vocab_size} rows"
            )
        return ids

    def forward(self, ids, training: bool = False):
        ids = self.check_ids(ids)
        self._ids = ids if training else None
        return self.table[ids]

    def backward(self, upstream):
        """Repeated ids accumulate; there is no gradient for the ids.

        The rows are summed by one flat bincount, which equals np.add.at
        into a zeroed buffer bit for bit.
        """
        ids, self._ids = self._ids, None
        self.grad["table"][...] = sum_rows_by_id(ids, upstream, self.vocab_size)
        return None


def sum_rows_by_id(ids: np.ndarray, upstream: np.ndarray, rows: int) -> np.ndarray:
    """(rows, W): row v sums upstream[..., :] over the positions whose id is v,
    for ids of upstream's leading shape, in one flat bincount over
    id * W + column, in position order."""
    width = upstream.shape[-1]
    flat = np.asarray(ids, dtype=np.intp)[..., None] * width + np.arange(width)
    return np.bincount(flat.ravel(), weights=upstream.ravel(),
                       minlength=rows * width).reshape(rows, width)


# The fewest im2col rows a Conv1D multiplies per sample.  A product of fewer
# rows takes other kernels (a GEMV for one row), whose sums run in another
# order: with OpenBLAS 0.3.31 (SkylakeX, one thread) the first m rows differ
# from the full-length GEMM's up to m = 4 at stage 1 and m = 9 at stage 2.
MIN_GEMM_ROWS = 16


class Conv1D(Layer):
    """Valid (no padding), stride-1 temporal convolution: (B,L,C) -> (B,L-k+1,F).

    Weights are stored (F, C, k).  Both directions read each sample as
    im2col rows in (k, C) order, a view of x: row t is x[b, t:t + k]
    flattened.  Against the weights as one (F, k*C) matrix, the forward and
    dW are one GEMM per sample each, and dx is one (L', F) @ (F, k*C) GEMM
    per sample added back into k shifted slices.

    tails, when set, holds per row the position s_b from which every input
    vector is the same (a padding tail); the next forward reads and clears
    it.  Outputs from s_b on then equal output s_b, so row b multiplies its
    first m_b = min(max(s_b + 1, MIN_GEMM_ROWS), L') rows and copies row
    m_b - 1 into the rest.  Those outputs are one function of the
    parameters, so backward sums their upstream into row m_b - 1 and
    multiplies m_b rows too: the parameter gradients move only by summation
    order, and dx only among the tail's positions.

    relu_pool, when set (Model sets it where a relu and a 2x2 pool follow),
    makes the layer the block Conv1D -> relu -> MaxPool1D(2, 2), bit for
    bit: (B,L,C) -> (B,(L-k+1)//2,F).  Each sample's output lands in one
    reused (L', F) buffer that _relu_pool_forward pools and rectifies in
    cache.  Backward rebuilds each sample's convolution gradient in such a
    buffer and adds its rows to the bias gradient after a row holding the
    sum so far, in the order the full array's sum(axis=(0, 1)) takes.  With
    one filter that sum is pairwise, so Model fuses only two or more.
    """

    PARAMS = ("weights", "bias")

    def __init__(self, in_channels: int, filters: int, kernel_size: int,
                 rng: np.random.Generator | None):
        self.in_channels = in_channels
        self.filters = filters
        self.kernel_size = kernel_size
        fan_in = in_channels * kernel_size
        fan_out = filters * kernel_size
        self.weights = glorot_uniform(rng, (filters, in_channels, kernel_size),
                                      fan_in, fan_out)
        self.bias = np.zeros(filters)
        self.relu_pool = False
        self.tails = None
        self._x = None
        self._rows = None
        self._masks = None

    def _im2col(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B, L', k*C) im2col rows of a C-contiguous x and (F, k*C) weights."""
        k, c = self.kernel_size, self.in_channels
        windows = sliding_window_view(x, k, axis=1).transpose(0, 1, 3, 2)
        cols = windows.reshape(x.shape[0], -1, k * c)
        w_cols = self.weights.transpose(0, 2, 1).reshape(self.filters, k * c)
        return cols, w_cols

    def forward(self, x, training: bool = False):
        tails, self.tails = self.tails, None
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeMismatchError(
                f"conv1d expects (B, L, {self.in_channels}), got {x.shape}"
            )
        if x.shape[1] < self.kernel_size:
            raise InputTooShortError(
                f"sequence length {x.shape[1]} < kernel size {self.kernel_size}"
            )
        cols, w_cols = self._im2col(x)
        batch, l_out = cols.shape[:2]
        rows = ([l_out] * batch if tails is None
                else np.minimum(np.maximum(tails + 1, MIN_GEMM_ROWS), l_out).tolist())
        masks = None
        if self.relu_pool:
            if l_out < 2:
                raise InputTooShortError(f"sequence length {l_out} < pool window 2")
            conv = np.empty((l_out, self.filters))  # one sample's output
            out = np.empty((batch, l_out // 2, self.filters))
            if training:
                masks = np.empty((2, *out.shape), dtype=bool)
        else:
            out = np.empty((batch, l_out, self.filters))
        for b, m in enumerate(rows):
            y = conv if self.relu_pool else out[b]
            np.matmul(cols[b, :m], w_cols.T, out=y[:m])
            y[:m] += self.bias
            y[m:] = y[m - 1]
            if self.relu_pool:
                _relu_pool_forward(y, out[b], None if masks is None else masks[:, b])
        self._x = x if training else None
        self._rows = rows if training else None
        self._masks = masks
        return out

    def backward(self, upstream):
        x, self._x = self._x, None
        rows, self._rows = self._rows, None
        masks, self._masks = self._masks, None
        k, c, f = self.kernel_size, self.in_channels, self.filters
        cols, w_cols = self._im2col(x)
        l_out = cols.shape[1]
        if masks is None:
            self.grad["bias"][...] = upstream.sum(axis=(0, 1))
        else:
            # row 0: the bias gradient so far; rows 1..: one sample's
            # convolution gradient (an odd L' leaves the last one zero)
            acc = np.zeros((l_out + 1, f))
        dw = np.zeros((f, k * c))
        dx = np.zeros_like(x)
        for b, m in enumerate(rows):
            if masks is None:
                d = upstream[b]
            else:
                d = acc[1:]
                _relu_pool_backward(upstream[b], masks[:, b], d)
                acc[0] = np.add.reduce(acc[1:] if b == 0 else acc, axis=0)
            up = d[:m]
            if m < l_out:
                up = up.copy()
                up[-1] += d[m:].sum(axis=0)
            dw += up.T @ cols[b, :m]
            dcols = (up @ w_cols).reshape(m, k, c)
            for j in range(k):
                dx[b, j:j + m] += dcols[:, j]
        if masks is not None:
            self.grad["bias"][...] = acc[0]
        self.grad["weights"][...] = dw.reshape(f, k, c).transpose(0, 2, 1)
        return dx


# Cost, in GEMM multiply-adds, of gathering and adding one element of a
# folded tap (see EmbeddingConv1D.wins).  Measured crossovers, forward +
# backward in ms, pair -> fold, best of 5, one BLAS thread, numpy 2.4.6, a
# shared 2-vCPU x86_64 box (L 400, F 64, k 3 unless named):
#   D at B 32, V 69:   D 16: 11.2 -> 13.0   D 32: 16.3 -> 13.1   (rule: D > 30)
#   V at B 5, D 300:   V 1500: 28.5 -> 18.1   V 2500: 23.4 -> 33.5  (rule: 1791)
#   V at B 32, D 300:  V 10000: 199 -> 158    V 15000: 237 -> 282  (rule: 11462)
#   V at B 1, D 300:   V 200: 5.7 -> 2.8      V 400: 5.4 -> 5.2   (rule: 358)
#   stage 1, B 64, V 69, D 13, F 256, k 7: 192 -> 543  (rule: never)
GATHER_COST = 30


class EmbeddingConv1D:
    """An Embedding feeding a Conv1D, run as k table lookups where that wins.

    It stands first in the stack a Model runs, in place of the pair, and
    picks its path per call: a forward runs folded where wins() says so and
    the two layers in turn otherwise; its backward takes the same path.  Its
    convolution is never fused (Conv1D): a relu and pool after it are layers.
    Folded, with ids (B, L), the (V, D) table and (F, D, k) weights, each
    tap j has the (V, F) product P_j = table @ W[:, :, j].T, and
        out[b, t] = bias + sum_j P_j[ids[b, t + j]].
    Backward sums the upstream by the id at offset j into dP_j (the
    Embedding's bincount), then dW[:, :, j] = dP_j.T @ table and
    dtable = sum_j dP_j @ W[:, :, j].  A training forward caches the ids
    alone: neither the (B, L, D) embedding output nor the convolution's dx
    is ever built.  Gradients go to the two layers' own buffers, so the
    model's tensors, their names and the file format are those of the pair.
    """

    def __init__(self, embedding: Embedding, conv: Conv1D):
        self.embedding = embedding
        self.conv = conv
        self.tails = None
        self._ids = None
        self._folded = False

    def wins(self, batch: int, length: int) -> bool:
        """Whether the fold is cheaper than the pair at this batch shape.

        Both forwards are dominated by k*F times: V*D multiply-adds for the
        tap products plus GATHER_COST per gathered element (B*L') for the
        fold, B*L'*D multiply-adds for the convolution.  So the fold wins
        when V*D < B*L'*(D - GATHER_COST): never at D <= GATHER_COST, and
        never when V >= B*L'.
        """
        rows = batch * (length - self.conv.kernel_size + 1)
        d = self.embedding.dim
        return self.embedding.vocab_size * d < rows * (d - GATHER_COST)

    def forward(self, ids, training: bool = False):
        """tails, when set, is read and cleared as Conv1D's is: the pair
        path hands it to the convolution, the folded path drops it."""
        tails, self.tails = self.tails, None
        self._folded = self.wins(*np.shape(ids))
        if not self._folded:
            x = self.embedding.forward(ids, training)
            self.conv.tails = tails
            return self.conv.forward(x, training)
        ids = self.embedding.check_ids(ids)
        k = self.conv.kernel_size
        l_out = ids.shape[1] - k + 1
        # (k, V, F): one GEMM per tap
        taps = self.embedding.table @ self.conv.weights.transpose(2, 1, 0)
        out = taps[0][ids[:, :l_out]]
        for j in range(1, k):
            out += taps[j][ids[:, j:j + l_out]]
        out += self.conv.bias
        self._ids = ids if training else None
        return out

    def backward(self, upstream):
        if not self._folded:
            return self.embedding.backward(self.conv.backward(upstream))
        ids, self._ids = self._ids, None
        emb, conv = self.embedding, self.conv
        k, l_out = conv.kernel_size, ids.shape[1] - conv.kernel_size + 1
        conv.grad["bias"][...] = upstream.sum(axis=(0, 1))
        # (k, V, F): the upstream summed by the id at each tap's offset
        d_taps = np.stack([sum_rows_by_id(ids[:, j:j + l_out], upstream,
                                          emb.vocab_size) for j in range(k)])
        conv.grad["weights"][...] = (d_taps.transpose(0, 2, 1) @ emb.table).transpose(1, 2, 0)
        emb.grad["table"][...] = (d_taps @ conv.weights.transpose(2, 0, 1)).sum(axis=0)
        return None


def _pairs(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the first and second element of each of the n windows of a
    window == stride == 2 pool over axis -2 (time)."""
    return a[..., 0:2 * n:2, :], a[..., 1:2 * n:2, :]


def _scatter_pairs(upstream, first_wins, dx) -> tuple[np.ndarray, np.ndarray]:
    """A 2x2 pool's backward: each upstream value goes to the first element
    of its pair where first_wins, else to the second, in dx's pair views
    (returned); dx's other entries are left as they are.  u * 1 == u,
    u * 0 == +-0 and u - u == 0 exactly for finite u, so this places each
    upstream value unchanged, as a masked copy would, at a third of its cost.
    """
    first, second = _pairs(dx, upstream.shape[-2])
    np.multiply(upstream, first_wins, out=first)
    np.subtract(upstream, first, out=second)
    return first, second


def _relu_pool_forward(a, out, masks) -> None:
    """out = relu of a 2x2 max pool over axis -2 of a, which is
    max(relu(first), relu(second)) bit for bit since relu is monotone.

    masks is None in eval, and in training a (2, *out.shape) bool array to
    fill for _relu_pool_backward: whether relu then pool routes the pair's
    gradient to its first element (first >= second on rectified values),
    and relu's derivative at the element it routes to.  That derivative is
    not out > 0 where a pair holds NaN and a positive element.
    """
    first, second = _pairs(a, out.shape[-2])
    np.maximum(first, second, out=out)
    if masks is not None:
        first_wins, live = masks
        np.greater_equal(first, second, out=first_wins)
        first_wins |= out <= 0
        np.greater(np.fmax(out, second), 0.0, out=live)
    np.maximum(out, 0.0, out=out)


def _relu_pool_backward(upstream, masks, da) -> None:
    """Writes into da the gradient at the input of _relu_pool_forward: the
    pool's scatter, then relu's derivative at each pair, in the order the
    two layers' backward passes take, so the bits are theirs.  An odd last
    row of da is left as it is."""
    first_wins, live = masks
    first, second = _scatter_pairs(upstream, first_wins, da)
    first *= live
    second *= live


class MaxPool1D(Layer):
    """Max over sliding windows along the time axis; (B,L,C) -> (B,L',C).

    Backward routes each upstream value to the first argmax position of its
    window, so total gradient mass is conserved.  The 2x2 pool (window ==
    stride == 2, both shipped architectures) reads x[:, :2L'] as L' pairs:
    the output is the larger of each pair, and a training forward keeps the
    mask "first >= second" in place of an argmax, so ties still go to the
    first index.  Other windows and strides take the sliding-window path.
    """

    def __init__(self, window: int = 2, stride: int = 2):
        self.window = window
        self.stride = stride
        self._arg = None  # argmax per window, or the 2x2 pool's first-wins mask
        self._in_shape = None

    def forward(self, x, training: bool = False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ShapeMismatchError(f"maxpool1d expects (B, L, C), got {x.shape}")
        if x.shape[1] < self.window:
            raise InputTooShortError(
                f"sequence length {x.shape[1]} < pool window {self.window}"
            )
        self._in_shape = x.shape if training else None
        if self.window == self.stride == 2:
            first, second = _pairs(x, x.shape[1] // 2)
            self._arg = first >= second if training else None
            return np.maximum(first, second)
        windows = sliding_window_view(x, self.window, axis=1)[:, ::self.stride]
        self._arg = windows.argmax(axis=-1) if training else None
        return windows.max(axis=-1)

    def backward(self, upstream):
        b, l_out, c = upstream.shape
        arg, self._arg = self._arg, None
        dx = np.zeros(self._in_shape)
        if self.window == self.stride == 2:
            _scatter_pairs(upstream, arg, dx)
            return dx
        bi, ti, ci = np.indices((b, l_out, c))
        np.add.at(dx, (bi, ti * self.stride + arg, ci), upstream)
        return dx


class LSTM(Layer):
    """Standard LSTM over (B, L, D) input with H cells.

    Gate blocks inside the packed 4H weight rows are ordered [input, forget,
    candidate, output]; that ordering is part of the serialized format.
    Initial hidden and cell state are zero.  Returns the full hidden sequence
    (B, L, H) or only the last step (B, H).

    A forward multiplies by C-contiguous (D, 4H) and (H, 4H) copies of the
    transposed weights, with the gate columns in [input, forget, output,
    candidate] order, so one sigmoid covers three gates.  At a few rows
    OpenBLAS multiplies by a transposed view 2-3x slower than by a
    contiguous operand.  The copies live only inside the call: the
    parameters, their file order and the training cache are unchanged.
    """

    PARAMS = ("w_in", "w_rec", "bias")

    def __init__(self, input_dim: int, units: int, rng: np.random.Generator | None,
                 return_sequences: bool = False):
        self.input_dim = input_dim
        self.units = units
        self.return_sequences = return_sequences
        h = units
        self.w_in = glorot_uniform(rng, (4 * h, input_dim), input_dim, 4 * h)
        self.w_rec = glorot_uniform(rng, (4 * h, h), h, 4 * h)
        self.bias = np.zeros(4 * h)
        self._cache = None

    def forward(self, x, training: bool = False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ShapeMismatchError(
                f"lstm expects (B, L, {self.input_dim}), got {x.shape}"
            )
        b, length, _ = x.shape
        h_dim = self.units
        order = np.r_[:2 * h_dim, 3 * h_dim:4 * h_dim, 2 * h_dim:3 * h_dim]
        w_in = np.take(self.w_in.T, order, axis=1)  # one C-contiguous copy
        w_rec = np.take(self.w_rec.T, order, axis=1)
        bias = self.bias[order]
        h = np.zeros((b, h_dim))
        c = np.zeros((b, h_dim))
        steps = []
        outputs = np.zeros((b, length, h_dim))
        for t in range(length):
            z = x[:, t] @ w_in + h @ w_rec + bias
            gates = sigmoid(z[:, :3 * h_dim])
            gi, gf, go = gates[:, :h_dim], gates[:, h_dim:2 * h_dim], gates[:, 2 * h_dim:]
            gg = np.tanh(z[:, 3 * h_dim:])
            c_new = gf * c + gi * gg
            tc = np.tanh(c_new)
            h_new = go * tc
            if training:
                steps.append((x[:, t], h, c, gi, gf, gg, go, tc))
            h, c = h_new, c_new
            outputs[:, t] = h_new
        self._cache = (steps, x.shape) if training else None
        return outputs if self.return_sequences else outputs[:, -1]

    def backward(self, upstream):
        (steps, (b, length, _)), self._cache = self._cache, None
        h_dim = self.units
        if not self.return_sequences:
            # only the last step's output was returned
            last, upstream = upstream, np.zeros((b, length, h_dim))
            upstream[:, -1] = last
        for g in self.grad.values():
            g.fill(0.0)  # the time loop sums each step's share into them
        dx = np.zeros((b, length, self.input_dim))
        dh_next = np.zeros((b, h_dim))
        dc_next = np.zeros((b, h_dim))
        for t in reversed(range(length)):
            x_t, h_prev, c_prev, gi, gf, gg, go, tc = steps[t]
            dh = upstream[:, t] + dh_next
            do = dh * tc
            dc = dc_next + dh * go * (1.0 - tc * tc)
            di = dc * gg
            df = dc * c_prev
            dg = dc * gi
            dz = np.concatenate(
                [di * gi * (1.0 - gi),
                 df * gf * (1.0 - gf),
                 dg * (1.0 - gg * gg),
                 do * go * (1.0 - go)],
                axis=1,
            )
            self.grad["w_in"] += dz.T @ x_t
            self.grad["w_rec"] += dz.T @ h_prev
            self.grad["bias"] += dz.sum(axis=0)
            dx[:, t] = dz @ self.w_in
            dh_next = dz @ self.w_rec
            dc_next = dc * gf
        return dx


class BatchNorm1D(Layer):
    """Per-feature batch normalization with running statistics.

    Accepts (B, F) or (B, L, F); sequence input is normalized per channel over
    batch and time jointly.  Training mode uses batch statistics (biased
    variance) and updates the running estimates; eval mode uses the running
    estimates only.  Both directions reuse their temporaries in place but
    keep the operation order of the textbook formulas, so their results
    equal those formulas' bit for bit.
    """

    PARAMS = ("gamma", "beta")
    STATE = ("running_mean", "running_var")

    def __init__(self, features: int, momentum: float = 0.9, eps: float = 1e-5):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.features = features
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(features)
        self.beta = np.zeros(features)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)
        self._cache = None

    def forward(self, x, training: bool = False):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.features:
            raise ShapeMismatchError(
                f"batchnorm expects trailing dim {self.features}, got {x.shape}"
            )
        shape = x.shape
        flat = x.reshape(-1, self.features)
        if training:
            if flat.shape[0] < 2:
                raise BatchTooSmallError(
                    "batch statistics need at least 2 rows in training mode"
                )
            mean = flat.mean(axis=0)
            xhat = flat - mean
            var = (xhat * xhat).sum(axis=0) / flat.shape[0]  # flat.var(axis=0)
            self.running_mean *= self.momentum
            self.running_mean += (1.0 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1.0 - self.momentum) * var
        else:
            xhat = flat - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std
        if training:
            self._cache = (xhat, inv_std, shape)
            out = self.gamma * xhat
        else:
            self._cache = None
            out = np.multiply(xhat, self.gamma, out=xhat)
        out += self.beta
        return out.reshape(shape)

    def backward(self, upstream):
        """dx = gamma * inv_std * (dy - mean(dy) - xhat * mean(dy * xhat))."""
        (xhat, inv_std, shape), self._cache = self._cache, None
        dy = upstream.reshape(-1, self.features)
        n = dy.shape[0]
        sum_dy_xhat = (dy * xhat).sum(axis=0)
        sum_dy = dy.sum(axis=0)
        self.grad["gamma"][...] = sum_dy_xhat
        self.grad["beta"][...] = sum_dy
        dx = dy - sum_dy / n
        xhat *= sum_dy_xhat / n  # the cache is spent: scale it in place
        dx -= xhat
        dx *= self.gamma * inv_std
        return dx.reshape(shape)


class Dense(Layer):
    """Affine map (B, I) -> (B, O) with weights stored as (O, I)."""

    PARAMS = ("weights", "bias")

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None):
        self.in_features = in_features
        self.out_features = out_features
        self.weights = glorot_uniform(rng, (out_features, in_features),
                                      in_features, out_features)
        self.bias = np.zeros(out_features)
        self._x = None

    def forward(self, x, training: bool = False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeMismatchError(
                f"dense expects (B, {self.in_features}), got {x.shape}"
            )
        self._x = x if training else None
        return x @ self.weights.T + self.bias

    def backward(self, upstream):
        x, self._x = self._x, None
        self.grad["weights"][...] = upstream.T @ x
        self.grad["bias"][...] = upstream.sum(axis=0)
        return upstream @ self.weights


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x, training: bool = False):
        self._shape = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, upstream):
        return upstream.reshape(self._shape)


def _softmax_backward(upstream, y):
    # jacobian-vector product, rows independent
    inner = np.sum(upstream * y, axis=-1, keepdims=True)
    return y * (upstream - inner)


# kind -> (forward, backward from upstream and the forward's output y);
# relu's mask y > 0 equals x > 0 for every x, NaN and signed zeros included
_ACTIVATIONS = {
    "relu": (relu, lambda upstream, y: upstream * (y > 0)),
    "sigmoid": (sigmoid, lambda upstream, y: upstream * y * (1.0 - y)),
    "softmax": (softmax, _softmax_backward),
}
ACTIVATION_KINDS = tuple(_ACTIVATIONS)


class Activation(Layer):
    """Elementwise nonlinearity; softmax acts over the last axis.

    Every derivative is written from the output, so a training forward
    caches the output alone and the input is freed once the caller drops it.
    """

    def __init__(self, kind: str):
        if kind not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")
        self.kind = kind
        self._y = None

    def forward(self, x, training: bool = False):
        y = _ACTIVATIONS[self.kind][0](np.asarray(x, dtype=np.float64))
        self._y = y if training else None
        return y

    def backward(self, upstream):
        y, self._y = self._y, None
        return _ACTIVATIONS[self.kind][1](upstream, y)
