"""A small numpy DL framework with explicit forward/backward passes.

This replaces PyTorch as the substrate the paper builds on.  It implements
exactly what EmbRace's mechanisms need:

* modules with named parameters and per-module gradient hooks,
* dense gradients for ordinary layers,
* **row-sparse COO gradients** for :class:`Embedding` (as produced by
  ``torch.nn.Embedding(sparse=True)``),
* a block decomposition (``Module.blocks``) that mirrors the paper's
  Encoder-Embedding / Encoder-Blocks / Decoder-Embedding / Decoder-Blocks
  structure used by Block-level Horizontal Scheduling.

Gradients are computed by closures captured during ``forward`` — no tape,
fully deterministic, easy to verify with finite differences (see
``tests/test_nn_grads.py``).
"""

from repro.nn.parameter import Parameter
from repro.nn.module import Module, Sequential
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.layernorm import LayerNorm
from repro.nn.attention import MultiHeadAttention
from repro.nn.bahdanau import BahdanauAttention
from repro.nn.feedforward import FeedForward
from repro.nn.transformer import TransformerLayer
from repro.nn.rnn import LSTM, LSTMCell
from repro.nn.loss import CrossEntropyLoss
from repro.nn import functional, init

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Embedding",
    "Linear",
    "LayerNorm",
    "MultiHeadAttention",
    "BahdanauAttention",
    "FeedForward",
    "TransformerLayer",
    "LSTM",
    "LSTMCell",
    "CrossEntropyLoss",
    "functional",
    "init",
]
