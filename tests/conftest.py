import hashlib
import json
import os
import struct
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: default threading oversubscribes a
# small box and slows the suite several-fold when another job shares it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from vulncascade.errors import ShapeMismatchError  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def blas_env(threads):
    """os.environ for a child process, with src/ on its path and
    OPENBLAS_NUM_THREADS set to threads, or unset where threads is None.
    OMP_NUM_THREADS, which OpenBLAS reads in its place, is unset too, since
    this session sets it."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def gradient_check(loss_fn, params, analytic_grads, step=1e-5, max_coords=50,
                   rng=None):
    """Compare analytic gradients against central finite differences.

    loss_fn takes no arguments and evaluates the scalar loss at the current
    parameter values; it must be deterministic.  For tensors larger than
    max_coords a random subset of coordinates is probed.  Returns the maximum
    relative error |a - n| / max(|a|, |n|, 1e-12) across probed coordinates.
    A loss that is not finite at a probe raises FloatingPointError.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p, a in zip(params, analytic_grads):
        if p.shape != a.shape:
            raise ShapeMismatchError(
                f"parameter shape {p.shape} != gradient shape {a.shape}"
            )
        flat = p.ravel()
        n = flat.size
        if n > max_coords:
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = np.arange(n)
        a_flat = a.ravel()
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + step
            f_plus = float(loss_fn())
            flat[idx] = original - step
            f_minus = float(loss_fn())
            flat[idx] = original
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError(
                    f"loss not finite near coordinate {idx} of shape {p.shape}"
                )
            numeric = (f_plus - f_minus) / (2.0 * step)
            analytic = float(a_flat[idx])
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst


def layer_grad_error(layer, x, seed=0, training=True, check_input=True,
                     step=1e-5):
    """Max relative error between a layer's analytic gradients and central
    finite differences, for both parameters and (optionally) the input.

    The scalar loss is a fixed random linear functional of the output, which
    exercises every output coordinate without hiding sign errors.
    """
    x = np.asarray(x)
    if x.dtype.kind == "f":
        x = x.astype(np.float64)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(np.asarray(layer.forward(x, training=training)).shape)

    def loss_fn():
        return float(np.sum(layer.forward(x, training=training) * w))

    layer.forward(x, training=training)
    dx = layer.backward(w)
    params = [arr for _, arr in layer.params()]
    grads = [arr for _, arr in layer.grads()]
    if check_input:
        params.append(x)
        grads.append(np.asarray(dx))
    return gradient_check(loss_fn, params, grads, step=step, rng=rng)


def growth_ratio(run, small, large, repeats=3):
    """run's best-of-repeats time on large over its time on small.  For
    inputs k times apart, linear work reads about k and quadratic about k*k,
    whatever the host's speed; asserting a ratio rather than a budget keeps
    the check from failing on a slow host."""
    def best(arg):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run(arg)
            times.append(time.perf_counter() - start)
        return min(times)

    return best(large) / best(small)


def reseal(body):
    """A sealed file body (everything before the digest) with a matching
    digest, so that a deliberate edit reaches the check behind the digest."""
    body = bytes(body)
    return body + hashlib.sha256(body).digest()


def edit_header(blob, edit):
    """The sealed file with its header JSON passed through edit, the old
    digest kept."""
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + header_len].decode())
    edit(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    return blob[:4] + struct.pack("<I", len(new_header)) + new_header + blob[8 + header_len:]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
