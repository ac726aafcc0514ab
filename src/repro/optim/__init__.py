"""Optimizers with dense and row-sparse update paths.

``SGD`` is fully element-wise, so (as the paper notes in §5.7 for SGD
and Adagrad) splitting a sparse gradient into prior/delayed parts and
applying them sequentially is automatically equivalent to one fused
update.
``Adam`` is *not*: its scalar ``step`` state advances on every call, so a
two-part application would bias-correct the two parts differently.
:class:`EmbraceAdam` implements the paper's fix — the ``step`` state is
incremented only when the **delayed** part is applied.
"""

from repro.optim.base import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.embrace_adam import EmbraceAdam

__all__ = ["Optimizer", "SGD", "Adam", "EmbraceAdam"]
