"""Reference gradient merges built on ``np.add.at``, and ``densify``.

``np.add.at`` adds every row in turn into the running total, so these
merges fix the order of the additions; ``erkg.grads`` sums each part's
rows first and must agree with them up to that regrouping.
"""

import numpy as np

from erkg.grads import merge_rows


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
