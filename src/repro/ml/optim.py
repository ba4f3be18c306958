"""The Adam optimizer over autograd tensors."""

from __future__ import annotations

import numpy as np

from repro.ml.autograd import Tensor

#: Moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction."""

    def __init__(
        self,
        parameters: list[Tensor],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._step = 0

    def step(self) -> None:
        self._step += 1
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            self._m[index] = BETA1 * self._m[index] + (1 - BETA1) * grad
            self._v[index] = BETA2 * self._v[index] + (1 - BETA2) * grad * grad
            m_hat = self._m[index] / (1 - BETA1**self._step)
            v_hat = self._v[index] / (1 - BETA2**self._step)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

