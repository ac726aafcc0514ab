"""Adam (Kingma & Ba, 2014) with a SparseAdam-style row path.

The sparse path mirrors ``torch.optim.SparseAdam``: only the rows present
in the (coalesced) gradient have their first/second-moment rows advanced
and their parameters updated.  The bias-correction exponent is the
per-parameter scalar ``step`` — the state that makes naive two-part
application non-equivalent (see :class:`repro.optim.EmbraceAdam`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter
from repro.optim.base import Optimizer
from repro.tensors import SparseRows
from repro.utils.validation import check_probability


class Adam(Optimizer):
    """Standard Adam for dense parameters; SparseAdam for sparse ones."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        """``weight_decay`` applies AdamW-style decoupled decay to *dense*
        parameters only (sparse embedding rows are conventionally left
        undecayed, and decaying untouched rows would also break the
        touched-rows-only contract of SparseAdam)."""
        super().__init__(params, lr)
        check_probability("beta1", betas[0])
        check_probability("beta2", betas[1])
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def _init_state(self, param: Parameter) -> dict:
        return {
            "step": 0,
            "exp_avg": np.zeros_like(param.data),
            "exp_avg_sq": np.zeros_like(param.data),
        }

    # ------------------------------------------------------------------ #
    def _update_dense(self, param: Parameter, grad: np.ndarray) -> None:
        st = self.state_for(param)
        st["step"] += 1
        st["exp_avg"] = self.beta1 * st["exp_avg"] + (1 - self.beta1) * grad
        st["exp_avg_sq"] = self.beta2 * st["exp_avg_sq"] + (1 - self.beta2) * grad**2
        bc1 = 1 - self.beta1 ** st["step"]
        bc2 = 1 - self.beta2 ** st["step"]
        denom = np.sqrt(st["exp_avg_sq"] / bc2) + self.eps
        if self.weight_decay:
            param.data -= self.lr * self.weight_decay * param.data
        param.data -= self.lr * (st["exp_avg"] / bc1) / denom

    # ------------------------------------------------------------------ #
    def _apply_sparse_rows(
        self, param: Parameter, grad: SparseRows, step_for_bias: int
    ) -> None:
        """Row-wise Adam update using ``step_for_bias`` as the correction step.

        A coalesced gradient holding every row of ``param`` updates
        through whole-array slices instead of fancy-index gathers and
        scatters; the per-element arithmetic, and so every bit, is the
        same.
        """
        st = self.state_for(param)
        rows, vals = grad.indices, grad.values
        if len(rows) == 0:
            return
        if grad.coalesced and len(rows) == len(param.data):
            rows = slice(None)  # sorted-unique and full length: every row
        m = st["exp_avg"][rows] * self.beta1 + (1 - self.beta1) * vals
        v = st["exp_avg_sq"][rows] * self.beta2 + (1 - self.beta2) * vals**2
        st["exp_avg"][rows] = m
        st["exp_avg_sq"][rows] = v
        bc1 = 1 - self.beta1**step_for_bias
        bc2 = 1 - self.beta2**step_for_bias
        denom = np.sqrt(v / bc2) + self.eps
        param.data[rows] -= self.lr * (m / bc1) / denom

    def _update_sparse(self, param: Parameter, grad: SparseRows) -> None:
        st = self.state_for(param)
        st["step"] += 1
        self._apply_sparse_rows(param, grad, st["step"])
