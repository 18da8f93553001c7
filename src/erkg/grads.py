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

Rows sharing an index are summed by ``merge_rows``: it sorts the
indices of all sparse parts once (``data.sorted_runs``), then adds each
part with one sparse product, an (unique rows x part rows) 0/1 matrix in
CSR form, read off the sort's order, times the part's rows flattened to
2-D.  No part is copied into a combined matrix, so the merge needs
memory for its output only.  The result equals a row-by-row
scatter-add (numpy's ``ufunc.at``) up to the grouping of the sums: each
part's rows are summed before they are added to the running total.
"""

from __future__ import annotations

import numpy as np

from .data import sorted_runs

GradSet = dict[str, tuple[np.ndarray | None, np.ndarray]]


def merge_rows(parts, out: np.ndarray | None = None):
    """Sum the rows of sparse ``(idx, arr)`` parts that share an index.

    Returns ``(sorted unique indices, summed rows)``.  Given ``out``, the
    sums are added into those rows of ``out`` instead, and ``(None, out)``
    comes back.
    """
    import scipy.sparse  # loaded on the first merge, not by ``import erkg``
    lens = [len(idx) for idx, _ in parts]
    index = np.concatenate([idx for idx, _ in parts])
    order, starts = sorted_runs([index])
    uniq = index[order[starts]]
    # Per sorted row: its part and its unique row.
    part = np.repeat(np.arange(len(parts)), lens)[order]
    run = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(order))))
    if out is None:
        rows = np.zeros((len(uniq),) + parts[0][1].shape[1:])
    else:
        rows = out[uniq]
    pos = 0
    for p, (idx, arr) in enumerate(parts):
        n = lens[p]
        if n:
            mine = part == p
            indptr = np.searchsorted(run[mine], np.arange(len(uniq) + 1))
            select = scipy.sparse.csr_matrix(
                (np.ones(n), order[mine] - pos, indptr), shape=(len(uniq), n)
            )
            rows += (select @ arr.reshape(n, -1)).reshape(rows.shape)
        pos += n
    if out is None:
        return uniq, rows
    out[uniq] = rows
    return None, out


class GradAccumulator:
    def __init__(self):
        self._parts: dict[str, list[tuple[np.ndarray | None, np.ndarray]]] = {}

    def add(self, name: str, idx: np.ndarray | None, arr: np.ndarray) -> None:
        self._parts.setdefault(name, []).append((idx, arr))

    def extend(self, other: "GradAccumulator") -> None:
        """Append ``other``'s parts after this accumulator's, block by block."""
        for name, parts in other._parts.items():
            self._parts.setdefault(name, []).extend(parts)

    def finalize(self, shapes: dict[str, tuple[int, ...]]) -> GradSet:
        """Collapse contributions; densify a block only if one part is dense."""
        out: GradSet = {}
        for name, parts in self._parts.items():
            sparse = [(idx, arr) for idx, arr in parts if idx is not None]
            if len(sparse) == len(parts):
                out[name] = merge_rows(sparse)
                continue
            dense = np.zeros(shapes[name])
            for idx, arr in parts:
                if idx is None:
                    dense += arr
            out[name] = merge_rows(sparse, dense) if sparse else (None, dense)
        return out


def all_finite(grads: GradSet) -> bool:
    return all(np.all(np.isfinite(arr)) for _, arr in grads.values())
