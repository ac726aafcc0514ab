"""Vertical Sparse Scheduling — Algorithm 1 of the paper.

Given a sparse embedding gradient ``G``, the tokens of the current local
batch and the (prefetched) tokens of the next global batch:

1. ``G_coalesced <- COALESCE(G)``           (sum duplicate rows)
2. ``D_u <- UNIQUE(D_cur[n])``              (this rank's unique tokens)
3. ``i_prior <- D_u  intersect  D_next``    (rows the next FP needs)
4. ``i_delayed <- D_u \\ i_prior``
5. ``G_p <- INDEX_SELECT(G_coalesced, i_prior)``
6. ``G_d <- INDEX_SELECT(G_coalesced, i_delayed)``

``G_p`` gets the highest communication priority (it blocks the next
embedding FP); ``G_d`` the lowest (it can trail into the next step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.batching import Batch
from repro.tensors import SparseRows, rows_intersect, unique_rows
from repro.utils.validation import check_positive


def vertical_split(
    grad: SparseRows,
    current_ids: np.ndarray,
    next_ids: np.ndarray,
) -> tuple[SparseRows, SparseRows]:
    """Algorithm 1: return ``(G_prior, G_delayed)``.

    ``current_ids`` are this rank's tokens for the just-finished step
    (``D_cur[n]``); ``next_ids`` the prefetched tokens of the upcoming
    step (``D_next``).  Both may contain duplicates; a ``current_ids``
    entry outside the table raises :class:`ValueError`.

    The set algebra runs as one membership pass over the coalesced
    gradient's rows (row-indexed masks of ``D_u`` and ``D_next``)
    instead of sorting the id sets: a row is prior when it is in both,
    delayed when it is in ``D_u`` only, and dropped when it is in
    neither — the same parts, bit for bit, as ``INDEX_SELECT`` with
    ``D_u ∩ D_next`` and ``D_u \\ D_next``.  When every row is prior
    (a full-softmax table's gradient) the coalesced gradient itself is
    returned, uncopied.
    """
    coalesced = grad.coalesce()
    num_rows = coalesced.num_rows
    current = np.asarray(current_ids, dtype=np.int64).ravel()
    if len(current) and (current.min() < 0 or current.max() >= num_rows):
        raise ValueError(f"current ids out of range [0, {num_rows})")
    upcoming = np.asarray(next_ids, dtype=np.int64).ravel()
    if len(upcoming) and (upcoming.min() < 0 or upcoming.max() >= num_rows):
        # Ids outside the table cannot meet a current id.
        upcoming = upcoming[(upcoming >= 0) & (upcoming < num_rows)]
    in_current = np.zeros(num_rows, dtype=np.bool_)
    in_current[current] = True
    in_next = np.zeros(num_rows, dtype=np.bool_)
    in_next[upcoming] = True
    rows = coalesced.indices
    kept = in_current[rows]
    prior = kept & in_next[rows]
    if prior.all():
        return coalesced, SparseRows.empty(num_rows, coalesced.dim, coalesced.values.dtype)
    delayed = kept & ~prior
    return (
        SparseRows(rows[prior], coalesced.values[prior], num_rows, coalesced=True),
        SparseRows(rows[delayed], coalesced.values[delayed], num_rows, coalesced=True),
    )


# ---------------------------------------------------------------------- #
# Empirical gradient-size statistics (Table 3)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class EmbeddingGradStats:
    """Average per-step sparse-gradient row counts for one table.

    ``original_rows`` counts every looked-up position (duplicates and
    padding included — the uncoalesced COO gradient); ``coalesced_rows``
    the distinct ids; ``prior_rows`` the distinct ids also appearing in
    the next iteration's (global) batch.
    """

    table: str
    vocab_size: int
    dim: int
    original_rows: float
    coalesced_rows: float
    prior_rows: float

    def __post_init__(self) -> None:
        if not 0 <= self.prior_rows <= self.coalesced_rows <= self.original_rows:
            raise ValueError(
                f"{self.table}: need prior <= coalesced <= original, got "
                f"{self.prior_rows}, {self.coalesced_rows}, {self.original_rows}"
            )

    @property
    def delayed_rows(self) -> float:
        return self.coalesced_rows - self.prior_rows

    @property
    def row_nbytes(self) -> int:
        """Wire bytes per sparse row (float32 values + int64 index)."""
        return self.dim * 4 + 8

    @property
    def original_bytes(self) -> float:
        return self.original_rows * self.row_nbytes

    @property
    def coalesced_bytes(self) -> float:
        return self.coalesced_rows * self.row_nbytes

    @property
    def prior_bytes(self) -> float:
        return self.prior_rows * self.row_nbytes

    @property
    def delayed_bytes(self) -> float:
        return self.delayed_rows * self.row_nbytes

    @property
    def density(self) -> float:
        """Average gradient density alpha (distinct rows / vocab)."""
        return self.coalesced_rows / self.vocab_size


def _table_ids(batch: Batch, table: str, pad_id: int = 0) -> np.ndarray:
    """Raw (duplicate- and padding-containing) id stream for a table."""
    streams = getattr(batch, "streams", None)
    if streams and table in streams:
        return streams[table].ravel()
    if table in ("embedding", "encoder_embedding"):
        return batch.inputs.ravel()
    if table in ("softmax_embedding", "decoder_embedding"):
        return batch.targets.ravel()
    raise KeyError(f"unknown table {table!r}")


def measure_grad_stats(
    batches: list[Batch],
    table: str,
    vocab_size: int,
    dim: int,
    world_size: int = 1,
    pad_id: int = 0,
    count_padding: bool = True,
) -> EmbeddingGradStats:
    """Measure Table 3-style statistics over a sampled batch stream.

    ``batches`` is a flat stream; consecutive groups of ``world_size``
    batches form one global step (rank 0's batch is the measured local
    batch; the union of the *following* group is ``D_next``).
    """
    check_positive("world_size", world_size)
    if len(batches) < 2 * world_size:
        raise ValueError(
            f"need at least {2 * world_size} batches, got {len(batches)}"
        )
    n_steps = len(batches) // world_size - 1
    orig, coal, prior = [], [], []
    for step in range(n_steps):
        local = batches[step * world_size]
        ids = _table_ids(local, table, pad_id)
        if not count_padding:
            ids = ids[ids != pad_id]
        next_group = batches[(step + 1) * world_size : (step + 2) * world_size]
        next_ids = np.concatenate(
            [_table_ids(b, table, pad_id) for b in next_group]
        )
        uniq = unique_rows(ids)
        orig.append(len(ids))
        coal.append(len(uniq))
        prior.append(len(rows_intersect(uniq, next_ids)))
    return EmbeddingGradStats(
        table=table,
        vocab_size=vocab_size,
        dim=dim,
        original_rows=float(np.mean(orig)),
        coalesced_rows=float(np.mean(coal)),
        prior_rows=float(np.mean(prior)),
    )
