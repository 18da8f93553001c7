"""Per-block gradient bookkeeping.

A gradient set maps block name -> (row_indices | None, array).  ``None``
indices mark a dense full-block gradient; otherwise ``array`` holds one
gradient row per index, indices may repeat, and contributions scatter-add.
The accumulator collects such parts per block and merges them into one
canonical set, keeping row-sparsity whenever no dense contribution was
seen.  A training batch is merged once, and ``finalize`` is the only
merge: each row part of the loss (``models.backward_all_tails``: the
tail table dense, head and relation rows) and every penalty add their
parts, already scaled by their coefficients, to an accumulator of their
own, and ``training.batch_objective`` appends them in a fixed order,
the loss parts' first (``extend``), before it merges them.

Rows sharing an index are summed by ``merge_rows``, one part at a
time: the part's indices are sorted (``data.sorted_runs``), and scipy's
compiled CSR kernel ``csr_matvecs`` adds each run of equal indices,
row by row in the part's order, into a fresh block of the part's
distinct rows, which is then added into its rows of the output.  The
kernel is loaded on its own (``lanes.scipy_function``), so training
imports no ``scipy.sparse``.  No part is copied: besides its output
the merge holds one part's sums at a time, and the rows of the output
they are added to.  The result equals a row-by-row scatter-add
(numpy's ``ufunc.at``) up to the grouping of the sums: each part's rows
are summed before they are added to the running total.
"""

from __future__ import annotations

import math

import numpy as np

from . import lanes
from .data import run_ids, sorted_runs

GradSet = dict[str, tuple[np.ndarray | None, np.ndarray]]


def merge_rows(parts, out: np.ndarray | None = None):
    """Sum the rows of sparse ``(idx, arr)`` parts that share an index.

    Returns ``(sorted unique indices, summed rows)``.  Given ``out``, the
    sums are added into those rows of ``out`` instead, and ``(None, out)``
    comes back.  Each part is summed on its own into a zero block of its
    distinct rows, then added in part order, so every output row is
    ``(out or +0.0) + part 0's sum + part 1's sum + ...`` over the parts
    that hold it.
    """
    csr_matvecs = lanes.scipy_function("sparse._sparsetools", "csr_matvecs")
    runs = [sorted_runs([idx]) for idx, _ in parts]
    rows = [idx[order[starts]] for (idx, _), (order, starts) in zip(parts, runs)]
    uniq, places = None, rows  # each part's distinct rows, as rows of ``out``
    if out is None:
        index = np.concatenate(rows)
        order, starts = sorted_runs([index])
        uniq = index[order[starts]]
        out = np.zeros((len(uniq),) + parts[0][1].shape[1:])
        places = np.split(run_ids(order, starts), np.cumsum([len(r) for r in rows])[:-1])
    for (idx, arr), (order, starts), at in zip(parts, runs, places):
        n, width = len(idx), math.prod(arr.shape[1:])
        sums = np.zeros((len(at),) + arr.shape[1:])
        csr_matvecs(len(at), n, width, np.append(starts, n), order, np.ones(n), arr, sums)
        out[at] += sums
    return uniq, out


class GradAccumulator:
    def __init__(self):
        self._parts: dict[str, list[tuple[np.ndarray | None, np.ndarray]]] = {}

    def add(self, name: str, idx: np.ndarray | None, arr: np.ndarray) -> None:
        self._parts.setdefault(name, []).append((idx, arr))

    def extend(self, other: "GradAccumulator") -> None:
        """Append ``other``'s parts after this accumulator's, block by block."""
        for name, parts in other._parts.items():
            self._parts.setdefault(name, []).extend(parts)

    def finalize(self) -> GradSet:
        """Merge each block's parts: row-sparse (``merge_rows``) unless one is
        dense, then zeros of its shape plus the dense parts, then the rows."""
        out: GradSet = {}
        for name, parts in self._parts.items():
            sparse = [(idx, arr) for idx, arr in parts if idx is not None]
            dense = [arr for idx, arr in parts if idx is None]
            if not dense:
                out[name] = merge_rows(sparse)
                continue
            total = np.zeros(dense[0].shape)
            for arr in dense:
                total += arr
            out[name] = merge_rows(sparse, total) if sparse else (None, total)
        return out


def all_finite(grads: GradSet) -> bool:
    return all(np.all(np.isfinite(arr)) for _, arr in grads.values())
