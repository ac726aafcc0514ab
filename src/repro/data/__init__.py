"""Synthetic NLP data with the statistics the paper's mechanisms exploit.

The real datasets (LM1B, WMT-16/14, SQuAD) are unavailable offline; what
EmbRace actually depends on is four statistical properties of batches:

1. a large vocabulary of which each batch touches a small subset
   (embedding-gradient *sparsity*, Fig. 4's x-axis),
2. Zipfian token frequency (duplicates inside a batch -> coalescing
   gains, Table 3 column 2; row-wise-partition imbalance, §4.1.1),
3. padding to rectangular batches (more duplicates of ``pad``),
4. overlap between consecutive batches' token sets (the prior/delayed
   split of Algorithm 1, Table 3 column 3).

:class:`ZipfSampler`, :class:`SyntheticCorpus` and the batch iterators
reproduce all four knobs, and :class:`Prefetcher` provides the
"data of the next iteration is already in memory" property §4.2.2 needs.
"""

from repro.data.vocab import Vocab
from repro.data.zipf import ZipfSampler
from repro.data.corpus import SyntheticCorpus, SyntheticPairCorpus
from repro.data.tokenizer import pad_batch
from repro.data.batching import (
    Batch,
    BatchIterator,
    DLRMBatchIterator,
    PairBatchIterator,
    TokenBudgetBatcher,
)
from repro.data.prefetch import Prefetcher

__all__ = [
    "Vocab",
    "ZipfSampler",
    "SyntheticCorpus",
    "SyntheticPairCorpus",
    "pad_batch",
    "Batch",
    "BatchIterator",
    "DLRMBatchIterator",
    "PairBatchIterator",
    "TokenBudgetBatcher",
    "Prefetcher",
]
