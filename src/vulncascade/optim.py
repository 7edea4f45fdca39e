"""The Adam update rule (Kingma and Ba 2015).

Both stages train with Adam, the one optimizer class.  It mutates parameter
arrays in place; its moment tensors are allocated at the first step, one per
array it is given, and every later step must pass the same number of arrays.
Optimizer names the same class, for the benchmark's tracer (see below).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


# Adam's moment decay rates and denominator guard: the defaults of Kingma
# and Ba, which both stages train with
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ShapeMismatchError("parameter and gradient lists differ in length")
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ShapeMismatchError(
                    f"parameter shape {p.shape} != gradient shape {g.shape}"
                )
        # moments are keyed by list position, so the list is fixed at the
        # first step; a refused step changes no state
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        elif len(params) != len(self.m):
            raise ShapeMismatchError(
                f"Adam holds moments for {len(self.m)} arrays, got {len(params)}"
            )
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


# another name for Adam: the benchmark's tracer wraps optim.Optimizer.step
Optimizer = Adam
