"""Vectorized row-set operations used throughout the scheduling layer.

Algorithm 1 of the paper is a sequence of set operations over token-id
arrays (UNIQUE, intersection, difference) plus scatter-adds; these helpers
implement them with numpy set routines so they stay O(n log n).
"""

from __future__ import annotations

import numpy as np


def unique_rows(ids: np.ndarray) -> np.ndarray:
    """Sorted unique int64 ids (UNIQUE in Algorithm 1)."""
    return np.unique(np.asarray(ids, dtype=np.int64).ravel())


def rows_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted intersection of two id sets (``i_prior`` in Algorithm 1)."""
    return np.intersect1d(
        np.asarray(a, dtype=np.int64).ravel(),
        np.asarray(b, dtype=np.int64).ravel(),
        assume_unique=False,
    )


def rows_setdiff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted ``a \\ b`` (``i_delayed`` in Algorithm 1)."""
    return np.setdiff1d(
        np.asarray(a, dtype=np.int64).ravel(),
        np.asarray(b, dtype=np.int64).ravel(),
        assume_unique=False,
    )


def covers_all_rows(ids: np.ndarray, num_rows: int) -> bool:
    """True when ``ids`` (any order, duplicates allowed) name every row
    of ``[0, num_rows)`` and nothing outside it."""
    ids = np.asarray(ids).ravel()
    if len(ids) < num_rows or ids.min() < 0 or ids.max() >= num_rows:
        return False
    seen = np.zeros(num_rows, dtype=np.bool_)
    seen[ids] = True
    return bool(seen.all())


def scatter_add_rows(
    table: np.ndarray, indices: np.ndarray, rows: np.ndarray, scale: float = 1.0
) -> None:
    """In-place ``table[indices] += scale * rows`` with duplicate accumulation."""
    indices = np.asarray(indices, dtype=np.int64)
    rows = np.asarray(rows)
    if rows.shape[0] != indices.shape[0]:
        raise ValueError(
            f"{indices.shape[0]} indices vs {rows.shape[0]} value rows"
        )
    np.add.at(table, indices, scale * rows)
