"""Gradient compression (related-work extension, §6).

The paper lists gradient compression ("reducing messages size with
gradient compression", QSGD / Deep Gradient Compression) as orthogonal
and complementary to EmbRace.  :mod:`topk` implements DGC-style top-k
sparsification with error feedback, which the real trainer composes
with every sparse-communication strategy (``RealTrainer(dgc_ratio=)``).
"""

from repro.compression.topk import TopKCompressor

__all__ = ["TopKCompressor"]
