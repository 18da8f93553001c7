"""Enumerating reference samplers for same-relation and path pairs.

They list every eligible pair of a group before keeping ``budget`` of
them, in O(n^2) time and memory, and draw from the RNG in the same order
as ``erkg.regularizers``; the fast samplers must equal them bitwise.
"""

import numpy as np

from erkg.regularizers import PairSet, PathPairSet


def budget_pairs_enum(groups: dict, budget: int, seed: int):
    """``groups`` maps a key to parallel (members, heads) lists in
    first-appearance order; returns parallel lists (keys, members_a,
    members_b)."""
    rng = np.random.default_rng(seed)
    keys, ma, mb = [], [], []
    for key, (members, heads) in groups.items():
        n = len(members)
        eligible = [
            (members[i], members[j])
            for i in range(n)
            for j in range(i + 1, n)
            if heads[i] != heads[j]
        ]
        if len(eligible) > budget:
            chosen = np.sort(rng.choice(len(eligible), size=budget, replace=False))
            eligible = [eligible[c] for c in chosen]
        for a, b in eligible:
            keys.append(key)
            ma.append(a)
            mb.append(b)
    return keys, ma, mb


def select_pairs_enum(batch: np.ndarray, budget: int, seed: int) -> PairSet:
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for pos, (h, rel) in enumerate(batch[:, :2].tolist()):
        positions, heads = groups.setdefault(rel, ([], []))
        positions.append(pos)
        heads.append(h)
    rels, idx_a, idx_b = budget_pairs_enum(groups, budget, seed)
    return PairSet(
        idx_a=np.array(idx_a, dtype=np.int64),
        idx_b=np.array(idx_b, dtype=np.int64),
        rel=np.array(rels, dtype=np.int64),
    )


def sample_path_pairs_enum(store, batch: np.ndarray, budget: int, seed: int) -> PathPairSet:
    adj: dict[int, list[tuple[int, int]]] = {}
    for h, r, t in store.train.tolist():
        adj.setdefault(h, []).append((r, t))
    groups: dict[tuple[int, int], list[int]] = {}
    for h, r1, m in batch.tolist():
        for r2, _e in adj.get(m, ()):
            groups.setdefault((r1, r2), []).append(h)
    keys, ha, hb = budget_pairs_enum({k: (v, v) for k, v in groups.items()}, budget, seed)
    rel1, rel2 = np.array(keys, dtype=np.int64).reshape(-1, 2).T.copy()
    return PathPairSet(
        head_a=np.array(ha, dtype=np.int64),
        head_b=np.array(hb, dtype=np.int64),
        rel1=rel1,
        rel2=rel2,
    )
