"""Reference gradient merges, and ``densify``.

``np.add.at`` adds every row in turn into the running total, so the
``add_at`` merges fix the order of the additions; ``erkg.grads`` sums
each part's rows first and must agree with them up to that regrouping.

``finalize_csr`` is the merge ``GradAccumulator.finalize`` made before
it called scipy's CSR kernel directly: one sort of all sparse parts'
indices, and per part a ``scipy.sparse`` product of a (unique rows x
part rows) 0/1 matrix with the part's rows, added to the running total
of every unique row, held or not.  It adds the same numbers in the same
order, so ``finalize`` must equal it byte for byte.
"""

import numpy as np
import scipy.sparse

from erkg.data import sorted_runs
from erkg.grads import merge_rows


def grad_shapes(params) -> dict:
    """Shapes of every gradient block of ``params``: its parameter blocks
    plus the per-relation thresholds ``"eps"``."""
    return {**{name: arr.shape for name, arr in params.blocks().items()},
            "eps": (params.n_relations,)}


def densify(grads: dict, shapes: dict) -> dict:
    """Expand a gradient set to full dense arrays with ``merge_rows``."""
    out = {name: np.zeros(shape) for name, shape in shapes.items()}
    for name, (idx, arr) in grads.items():
        if idx is None:
            out[name] += arr
        else:
            merge_rows([(idx, arr)], out[name])
    return out


def finalize_add_at(parts_by_block: dict, shapes: dict) -> dict:
    """Merge ``{block: [(idx | None, arr), ...]}`` as one gradient set."""
    out = {}
    for name, parts in parts_by_block.items():
        if any(idx is None for idx, _ in parts):
            dense = np.zeros(shapes[name])
            for idx, arr in parts:
                if idx is None:
                    dense += arr
                else:
                    np.add.at(dense, idx, arr)
            out[name] = (None, dense)
        else:
            all_idx = np.concatenate([idx for idx, _ in parts])
            uniq, inverse = np.unique(all_idx, return_inverse=True)
            rows = np.zeros((len(uniq),) + parts[0][1].shape[1:])
            pos = 0
            for idx, arr in parts:
                np.add.at(rows, inverse[pos : pos + len(idx)], arr)
                pos += len(idx)
            out[name] = (uniq, rows)
    return out


def densify_add_at(grads: dict, shapes: dict) -> dict:
    """Expand a gradient set to full dense arrays, row by row."""
    out = {name: np.zeros(shape) for name, shape in shapes.items()}
    for name, (idx, arr) in grads.items():
        np.add.at(out[name], slice(None) if idx is None else idx, arr)
    return out


def merge_rows_csr(parts, out=None):
    """``merge_rows`` by one sparse product per part over the union of rows."""
    lens = [len(idx) for idx, _ in parts]
    index = np.concatenate([idx for idx, _ in parts])
    order, starts = sorted_runs([index])
    uniq = index[order[starts]]
    # Per sorted row: its part and its unique row.
    part = np.repeat(np.arange(len(parts)), lens)[order]
    run = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(order))))
    rows = np.zeros((len(uniq),) + parts[0][1].shape[1:]) if out is None else out[uniq]
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


def finalize_csr(parts_by_block: dict, shapes: dict) -> dict:
    """Merge ``{block: [(idx | None, arr), ...]}`` as ``finalize`` does,
    with ``merge_rows_csr``."""
    out = {}
    for name, parts in parts_by_block.items():
        sparse = [(idx, arr) for idx, arr in parts if idx is not None]
        if len(sparse) == len(parts):
            out[name] = merge_rows_csr(sparse)
            continue
        dense = np.zeros(shapes[name])
        for idx, arr in parts:
            if idx is None:
                dense += arr
        out[name] = merge_rows_csr(sparse, dense) if sparse else (None, dense)
    return out
