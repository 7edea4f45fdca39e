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
of the (U, F) product of the batch's U distinct table rows with that tap's
weights; it never builds the (B, L, D) embedding output.  It pays at
D > GATHER_COST = 30, by measurement (the numbers are at its definition):
stage 2 (D 300) has a fold, stage 1 (D 13) none.

A Conv1D with relu_pool set runs a Conv1D -> relu -> 2x2 MaxPool1D block
per sample in cache, pool before relu, bit for bit the three layers.

Import sets OpenBLAS, whose thread count moves bits, to one thread per call
process-wide.  A Conv1D call runs instead on as many threads as the CPUs the
process may use, or its samples if fewer, on a pool started at the first
call that runs on two (numpy's matmul and ufuncs release the GIL).  One
path runs at every count, one thread included, each on its share: the same
bits at any count.
"""

from __future__ import annotations

import ctypes
import math
import os
from functools import cache, cached_property

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

def _openblas(name: str):
    """The loaded OpenBLAS's function name, or None (another BLAS, or no /proc)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not a loadable path, such as "(deleted)"
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


_set_blas_threads = _openblas("set_num_threads")
if _set_blas_threads is not None:
    _set_blas_threads.argtypes, _set_blas_threads.restype = [ctypes.c_int], None
    _set_blas_threads(1)


@cache
def _worker_count() -> int:
    """Threads a Conv1D runs on: the CPUs this process may use; 1 where no
    OpenBLAS was set to one thread, as another BLAS may run its own."""
    if _set_blas_threads is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@cache
def _executor(threads: int):
    # imported at the first pool call: the import takes some 6 ms, which a
    # process on one CPU, or with one sample per call, need not pay
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, thread_name_prefix="vulncascade-conv")


def _balance(costs: list[int], n: int) -> list[list[int]]:
    """The indices of costs in n shares, some maybe empty: costliest first,
    dealt round-robin.  Costs each listed twice split evenly between two."""
    order = sorted(range(len(costs)), key=costs.__getitem__, reverse=True)
    return [order[w::n] for w in range(n)]


def _staged(rows: np.ndarray, stage: np.ndarray) -> np.ndarray:
    """rows copied into the head of stage, which the calling thread
    allocated.  numpy multiplies a view whose rows overlap, as im2col rows
    do, by first copying it into memory of the running thread's malloc
    arena, which a pool thread would then keep."""
    head = stage[:len(rows)]
    np.copyto(head, rows)
    return head


def _parallel(task, n: int) -> None:
    """Runs task(0) on the calling thread and task(1) .. task(n - 1) on the
    process's one pool, of _worker_count() - 1 threads, and returns, or
    raises the first exception, once all n are done.

    Tasks run numpy on arrays the caller allocated and write disjoint parts
    of them.  Each thread that allocates gets its own malloc arena, which
    keeps what it freed, so a task allocates nothing large itself.
    """
    futures = [_executor(_worker_count() - 1).submit(task, w) for w in range(1, n)]
    try:
        task(0)
    finally:
        for future in futures:
            future.exception()  # waits for it
    for future in futures:
        future.result()


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
    buffer.  Fused or not, it adds each sample's gradient rows to the bias
    gradient after a row holding the sum so far.

    A call runs on max(1, min(CPUs, samples)) threads (_worker_count), and
    one path runs at any count, one included, on im2col rows and dx
    products staged in the calling thread's buffers (_staged).
    A forward deals the samples to the threads (_balance).  A backward takes
    one sample per thread at a time.  The calling thread does every ordered
    sum: it rebuilds each sample's gradient, extends the bias sum and adds
    the tail rows; the threads run the samples' dW terms and dx products,
    each one whole GEMM on one thread; then the calling thread adds the
    terms to dW in sample order.  No product is split, since OpenBLAS can
    round a part of a product apart from the same rows of the whole.
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
        cols = windows.reshape(x.shape[0], x.shape[1] - k + 1, k * c)
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
        workers = max(1, min(_worker_count(), batch))
        shares = _balance(rows, workers)
        # per thread, one sample's im2col rows (see _staged)
        stage = np.empty((workers, *cols.shape[1:]))
        masks = convs = None
        if self.relu_pool:
            if l_out < 2:
                raise InputTooShortError(f"sequence length {l_out} < pool window 2")
            # per thread, one sample's convolution output
            convs = np.empty((workers, l_out, self.filters))
            out = np.empty((batch, l_out // 2, self.filters))
            if training:
                masks = np.empty((2, *out.shape), dtype=bool)
        else:
            out = np.empty((batch, l_out, self.filters))

        def samples(w):
            for b in shares[w]:
                m = rows[b]
                y = out[b] if convs is None else convs[w]
                np.matmul(_staged(cols[b, :m], stage[w]), w_cols.T, out=y[:m])
                y[:m] += self.bias
                y[m:] = y[m - 1]
                if convs is not None:
                    _relu_pool_forward(y, out[b], None if masks is None else masks[:, b])

        _parallel(samples, workers)
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
        batch, l_out = cols.shape[:2]
        workers = max(1, min(_worker_count(), batch))
        # the backward takes one sample per thread at a time (a chunk):
        # grads holds, per sample, row 0: the bias gradient before it; rows
        # 1..: its convolution gradient (an odd fused L' leaves the last zero)
        grads = np.zeros((workers, l_out + 1, f))
        bias = np.zeros(f)  # the bias gradient so far
        terms = np.empty((workers, f, k * c))  # each sample's dW term
        # per thread, one sample's im2col rows or dx columns (see _staged)
        stage = np.empty((workers, l_out, k * c))
        dw = np.zeros((f, k * c))
        dx = np.zeros_like(x)

        def products(w):
            """Share w of the chunk's products: of its n samples, item i < n
            is sample i's dW term and item n + i its dx."""
            for item in shares[w]:
                i = item % len(part)
                b, m = part[i], rows[part[i]]
                up = grads[i, 1:m + 1]
                if item < len(part):
                    np.matmul(up.T, _staged(cols[b, :m], stage[w]), out=terms[i])
                    continue
                dc = np.matmul(up, w_cols, out=stage[w][:m]).reshape(m, k, c)
                for j in range(k):
                    dx[b, j:j + m] += dc[:, j]

        for start in range(0, batch, workers):
            part = range(start, min(start + workers, batch))
            for i, b in enumerate(part):
                g = grads[i]
                d = g[1:]
                if masks is None:
                    d[...] = upstream[b]
                else:
                    _relu_pool_backward(upstream[b], masks[:, b], d)
                g[0] = bias
                np.add.reduce(g if b else d, axis=0, out=bias)
                m = rows[b]
                if m < l_out:
                    d[m - 1] += d[m:].sum(axis=0)
            shares = _balance([rows[b] for b in part] * 2, workers)
            _parallel(products, workers)
            for i in range(len(part)):
                dw += terms[i]
        self.grad["bias"][...] = bias
        self.grad["weights"][...] = dw.reshape(f, k, c).transpose(0, 2, 1)
        return dx


# Cost, in GEMM multiply-adds, of gathering and adding one element of a
# folded tap, in place of the D multiply-adds of a convolution: _assemble
# folds only where D > GATHER_COST.  Measured crossovers, forward + backward
# in ms, pair -> fold, best of 5, one BLAS thread, numpy 2.4.6, a shared
# 2-vCPU x86_64 box (L 400, F 64, k 3 unless named):
#   D at B 32, V 69:   D 16: 11.2 -> 13.0   D 32: 16.3 -> 13.1   (rule: D > 30)
#   stage 1, B 64, V 69, D 13, F 256, k 7: 192 -> 543  (rule: never)
GATHER_COST = 30


class EmbeddingConv1D:
    """An Embedding feeding a Conv1D, run as k table lookups.

    It stands first in the stack a Model runs, in place of the pair; its
    convolution is never fused (Conv1D).  With ids (B, L), the rows table[u]
    of the U distinct ids u the batch holds, r the ids remapped onto u, and
    (F, D, k) weights, tap j has the (U, F) product
    P_j = table[u] @ W[:, :, j].T, and out[b, t] = bias + sum_j P_j[r[b, t + j]].
    Backward sums the upstream by r at offset j into dP_j (the Embedding's
    bincount), then dW[:, :, j] = dP_j.T @ table[u] and dtable[u] =
    sum_j dP_j @ W[:, :, j], zero on the other rows.  Each product is one
    GEMM over every tap, so the cost follows the batch's ids, not V.  A
    training forward caches the ids alone: the (B, L, D) embedding output
    and the convolution's dx are never built.  Gradients go to the two
    layers' own buffers, so the model's tensors, names and file are the pair's.
    """

    def __init__(self, embedding: Embedding, conv: Conv1D):
        self.embedding = embedding
        self.conv = conv
        self._ids = None

    def forward(self, ids, training: bool = False):
        ids = self.embedding.check_ids(ids)
        k, f = self.conv.kernel_size, self.conv.filters
        if ids.ndim != 2:
            raise ShapeMismatchError(f"embedding-conv1d expects (B, L) ids, got {ids.shape}")
        if ids.shape[1] < k:
            raise InputTooShortError(f"sequence length {ids.shape[1]} < kernel size {k}")
        l_out = ids.shape[1] - k + 1
        # the distinct ids, u, and the ids remapped onto them, r
        present = np.bincount(ids.ravel(), minlength=self.embedding.vocab_size) > 0
        uniq = np.flatnonzero(present)
        remapped = (np.cumsum(present) - 1)[ids]
        # (U, k, F): every tap's product in one GEMM
        w = self.conv.weights.transpose(1, 2, 0).reshape(-1, k * f)
        taps = (self.embedding.table[uniq] @ w).reshape(-1, k, f)
        out = taps[remapped[:, :l_out], 0]
        for j in range(1, k):
            out += taps[remapped[:, j:j + l_out], j]
        out += self.conv.bias
        self._ids = (uniq, remapped) if training else None
        return out

    def backward(self, upstream):
        (uniq, remapped), self._ids = self._ids, None
        emb, conv = self.embedding, self.conv
        k, f, d = conv.kernel_size, conv.filters, emb.dim
        l_out = remapped.shape[1] - k + 1
        conv.grad["bias"][...] = upstream.sum(axis=(0, 1))
        # (U, k * F): the upstream summed by the remapped id at each tap's offset
        d_taps = np.stack([sum_rows_by_id(remapped[:, j:j + l_out], upstream, len(uniq))
                           for j in range(k)], axis=1).reshape(len(uniq), k * f)
        rows = emb.table[uniq]
        conv.grad["weights"][...] = (d_taps.T @ rows).reshape(k, f, d).transpose(1, 2, 0)
        dtable = emb.grad["table"]
        dtable.fill(0.0)
        dtable[uniq] = d_taps @ conv.weights.transpose(2, 0, 1).reshape(k * f, d)
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
    max(relu(first), relu(second)) bit for bit since relu is monotone; a
    training call leaves a's first elements changed.

    masks is None in eval, and in training a (2, *out.shape) bool array to
    fill for _relu_pool_backward: whether relu then pool routes the pair's
    gradient to its first element (first >= second on rectified values),
    and relu's derivative at the element it routes to.  That derivative is
    not out > 0 where a pair holds NaN and a positive element.
    """
    first, second = _pairs(a, out.shape[-2])
    np.maximum(first, second, out=out)
    if masks is not None:  # a's first elements serve as scratch once read
        first_wins, live = masks
        np.greater_equal(first, second, out=first_wins)
        first_wins |= np.less_equal(out, 0.0, out=live)
        np.greater(np.fmax(out, second, out=first), 0.0, out=live)
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
        self.check(eps, momentum)
        self.features = features
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(features)
        self.beta = np.zeros(features)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)
        self._cache = None

    @staticmethod
    def check(eps, momentum) -> None:
        """Refuses an eps that is not a finite number > 0 (a NaN eps makes
        every output NaN) and a momentum that is not a number in [0, 1]."""
        for name, value, ok, what in (
                ("eps", eps, lambda v: 0 < v < math.inf, "finite and > 0"),
                ("momentum", momentum, lambda v: 0 <= v <= 1, "in [0, 1]")):
            if type(value) not in (int, float) or not ok(value):
                raise ValueError(f"{name} {value!r} is not a number {what}")

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
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

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
