"""Line-by-line reference readers for the data files, and the triple
indexes built by sorting whole rows.

``parse_triple_file`` and ``category_rows`` are the per-line loops that
``erkg.data`` used before one row reader served both kinds of file,
strict mode included.  The vocabulary is a pair of plain name -> id
dicts that grow in first-appearance order unless ``strict`` is set.
``duplicate_count`` and ``build_filter_index`` sort the rows on their
three columns, as ``erkg.data`` did before ``sorted_runs``.
``sorted_runs`` is ``erkg.data.sorted_runs`` before it packed each row
into one int64: ``np.lexsort`` and one comparison per key.
"""

from __future__ import annotations

import numpy as np

from erkg.data import KeyedCSR, pair_key
from erkg.errors import ConfigError, ErkgError, ParseError


class VocabError(ErkgError):
    """A name is missing from a fixed (strict) vocabulary."""


def _lookup(index: dict[str, int], name: str, create: bool, what: str) -> int:
    idx = index.get(name)
    if idx is None:
        if not create:
            raise VocabError(f"unknown {what} {name!r}")
        idx = len(index)
        index[name] = idx
    return idx


def parse_triple_file(path, entities, relations, strict=False):
    """``(triples, n_duplicates)`` of one triple file over the given dicts."""
    triples = []
    seen = set()
    n_dup = 0
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read triple file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            h, r, t = fields
            try:
                trip = (
                    _lookup(entities, h, not strict, "entity"),
                    _lookup(relations, r, not strict, "relation"),
                    _lookup(entities, t, not strict, "entity"),
                )
            except VocabError as exc:
                raise VocabError(f"{path}:{lineno}: {exc}") from exc
            if trip in seen:
                n_dup += 1
            else:
                seen.add(trip)
            triples.append(trip)
    arr = np.array(triples, dtype=np.int64) if triples else np.empty((0, 3), dtype=np.int64)
    return arr, n_dup


def load_dataset(*paths):
    """``(splits, entities, relations, duplicates)`` of the three split files."""
    entities, relations = {}, {}
    splits, dups = [], []
    for path in paths:
        arr, n_dup = parse_triple_file(path, entities, relations)
        splits.append(arr)
        dups.append(n_dup)
    return splits, entities, relations, dups


def category_rows(path, entity_index):
    """``(category_of, n_categories, n_skipped, n_relabeled)`` of a category file."""
    category_ids = {}
    category_of = {}
    n_skipped = 0
    n_relabeled = 0
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read category file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(
                    f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}"
                )
            ent, cat = fields
            eid = entity_index.get(ent)
            if eid is None:
                n_skipped += 1
                continue
            cid = category_ids.setdefault(cat, len(category_ids))
            if eid in category_of and category_of[eid] != cid:
                n_relabeled += 1
            category_of[eid] = cid
    return category_of, len(category_ids), n_skipped, n_relabeled


def sorted_runs(keys) -> tuple[np.ndarray, np.ndarray]:
    """The stable ``np.lexsort`` order of the key tuples (last key
    primary) and where each run of equal tuples starts in it."""
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    return order, np.flatnonzero(new)


def sorted_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` sorted, and a mask of each distinct row's first copy."""
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows, first


def duplicate_count(rows: np.ndarray) -> int:
    """How many rows repeat an earlier one."""
    return int(len(rows) - sorted_rows(rows)[1].sum())


def build_filter_index(store) -> KeyedCSR:
    """The known-true tails of each ``pair_key(head, relation)`` over all
    three splits, sorted and unique."""
    rows = np.concatenate([arr.reshape(-1, 3) for _, arr in store.splits()])
    rows, first = sorted_rows(rows.astype(np.int64, copy=False))
    rows = rows[first]
    keys, starts = np.unique(pair_key(rows[:, 0], rows[:, 1]), return_index=True)
    return KeyedCSR(keys, np.append(starts, len(rows)), rows[:, 2])
