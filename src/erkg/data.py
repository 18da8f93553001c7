"""Loading, indexing, augmentation, and synthesis of knowledge graphs.

Triples live in UTF-8 TSV files, one ``head<TAB>relation<TAB>tail`` per
line (LF endings, exactly two tabs).  Entity categories come from an
optional sidecar TSV of ``entity<TAB>category`` lines.  Ids are dense
integers assigned in first-appearance order, so serializing a store and
reloading it reproduces the exact id sequences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParseError, VocabError

logger = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "valid", "test")


class Vocab:
    """Bijective name <-> dense id maps for entities and relations."""

    def __init__(self, entity_index=None, relation_index=None):
        self.entity_index: dict[str, int] = dict(entity_index or {})
        self.relation_index: dict[str, int] = dict(relation_index or {})
        self._entity_names: list[str] | None = None
        self._relation_names: list[str] | None = None

    @property
    def n_entities(self) -> int:
        return len(self.entity_index)

    @property
    def n_relations(self) -> int:
        return len(self.relation_index)

    def entity_id(self, name: str, create: bool = False) -> int:
        idx = self.entity_index.get(name)
        if idx is None:
            if not create:
                raise VocabError(f"unknown entity {name!r}")
            idx = len(self.entity_index)
            self.entity_index[name] = idx
            self._entity_names = None
        return idx

    def relation_id(self, name: str, create: bool = False) -> int:
        idx = self.relation_index.get(name)
        if idx is None:
            if not create:
                raise VocabError(f"unknown relation {name!r}")
            idx = len(self.relation_index)
            self.relation_index[name] = idx
            self._relation_names = None
        return idx

    def entity_name(self, idx: int) -> str:
        if self._entity_names is None:
            names = [""] * len(self.entity_index)
            for name, i in self.entity_index.items():
                names[i] = name
            self._entity_names = names
        return self._entity_names[idx]

    def relation_name(self, idx: int) -> str:
        if self._relation_names is None:
            names = [""] * len(self.relation_index)
            for name, i in self.relation_index.items():
                names[i] = name
            self._relation_names = names
        return self._relation_names[idx]

    def copy(self) -> "Vocab":
        return Vocab(self.entity_index, self.relation_index)


def _empty_triples() -> np.ndarray:
    return np.empty((0, 3), dtype=np.int64)


class Adjacency(NamedTuple):
    """Training edges grouped by head (CSR).

    The edges leaving entity ``h`` have relation ids
    ``rel[offsets[h]:offsets[h + 1]]``, in training order.
    """

    offsets: np.ndarray
    rel: np.ndarray

    def edges_from(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every edge leaving each of ``nodes`` in turn: the index into
        ``nodes`` it leaves from and its relation id.  Ids without
        training edges (or outside the table) have none."""
        known = (nodes >= 0) & (nodes < len(self.offsets) - 1)
        start = np.zeros(len(nodes), dtype=np.int64)
        deg = np.zeros(len(nodes), dtype=np.int64)
        start[known] = self.offsets[nodes[known]]
        deg[known] = self.offsets[nodes[known] + 1] - start[known]
        src = np.repeat(np.arange(len(nodes)), deg)
        edge = np.arange(len(src)) - np.repeat(np.cumsum(deg) - deg, deg) + start[src]
        return src, self.rel[edge]


@dataclass
class TripleStore:
    """Train/valid/test triple splits over a shared vocabulary.

    Immutable after construction; safe to share read-only across threads.
    ``duplicates`` counts exact duplicate lines kept (not dropped) per
    split.  ``adjacency`` (an :class:`Adjacency` of the training edges by
    head) is a cache, built from ``train`` on first use and kept.
    """

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    vocab: Vocab
    reciprocal: bool = False
    duplicates: dict[str, int] = field(default_factory=dict)

    def split(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def splits(self):
        for name in SPLIT_NAMES:
            yield name, getattr(self, name)

    @cached_property
    def adjacency(self) -> Adjacency:
        heads = self.train[:, 0]
        n = max(self.vocab.n_entities, int(heads.max()) + 1 if len(heads) else 0)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=offsets[1:])
        order = np.argsort(heads, kind="stable")
        return Adjacency(offsets, self.train[order, 1])

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test], axis=0)

    def check_ids(self) -> None:
        ne, nr = self.vocab.n_entities, self.vocab.n_relations
        for name, arr in self.splits():
            if arr.size == 0:
                continue
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= ne:
                raise ValueError(f"{name}: head id out of range")
            if arr[:, 2].min() < 0 or arr[:, 2].max() >= ne:
                raise ValueError(f"{name}: tail id out of range")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= nr:
                raise ValueError(f"{name}: relation id out of range")


def _parse_triple_file(path, vocab: Vocab, strict: bool) -> tuple[np.ndarray, int]:
    triples = []
    seen: set[tuple[int, int, int]] = set()
    n_dup = 0
    with open(path, encoding="utf-8") as fh:
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
                    vocab.entity_id(h, create=not strict),
                    vocab.relation_id(r, create=not strict),
                    vocab.entity_id(t, create=not strict),
                )
            except VocabError as exc:
                raise VocabError(f"{path}:{lineno}: {exc}") from exc
            if trip in seen:
                n_dup += 1
            else:
                seen.add(trip)
            triples.append(trip)
    if n_dup:
        logger.warning("%s: kept %d duplicate triples", path, n_dup)
    arr = np.array(triples, dtype=np.int64) if triples else _empty_triples()
    return arr, n_dup


def load_triples(path, existing_vocab: Vocab | None = None, strict: bool = False):
    """Load one triple TSV into the train split of a fresh store.

    Returns ``(store, vocab)``.  With ``existing_vocab`` the ids extend
    (or, in strict mode, must already exist in) the given vocabulary.
    """
    vocab = existing_vocab if existing_vocab is not None else Vocab()
    if strict and existing_vocab is None:
        raise ConfigError("strict loading requires an existing vocabulary")
    arr, n_dup = _parse_triple_file(path, vocab, strict)
    store = TripleStore(
        train=arr,
        valid=_empty_triples(),
        test=_empty_triples(),
        vocab=vocab,
        duplicates={"train": n_dup},
    )
    return store, vocab


def load_dataset(train_path, valid_path, test_path) -> TripleStore:
    """Load the three standard splits with one shared, growing vocabulary."""
    vocab = Vocab()
    arrays = {}
    dups = {}
    for name, path in zip(SPLIT_NAMES, (train_path, valid_path, test_path)):
        arrays[name], dups[name] = _parse_triple_file(path, vocab, strict=False)
    return TripleStore(
        train=arrays["train"],
        valid=arrays["valid"],
        test=arrays["test"],
        vocab=vocab,
        duplicates=dups,
    )


def save_triples(store: TripleStore, out_dir) -> None:
    """Write the store back to ``train.txt`` / ``valid.txt`` / ``test.txt``.

    Intended for raw (non-augmented) stores; the reciprocal flag itself is
    not serialized.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, arr in store.splits():
        with open(out_dir / f"{name}.txt", "w", encoding="utf-8") as fh:
            for h, r, t in arr:
                fh.write(
                    f"{store.vocab.entity_name(h)}\t"
                    f"{store.vocab.relation_name(r)}\t"
                    f"{store.vocab.entity_name(t)}\n"
                )


INVERSE_SUFFIX = "__inv"


def add_reciprocals(store: TripleStore) -> TripleStore:
    """Add the inverse triple ``(t, r + |R|, h)`` for every ``(h, r, t)``.

    Doubles the relation vocabulary (inverse names get ``__inv``) and every
    split.  Applying it twice is an error.
    """
    if store.reciprocal:
        raise ConfigError("store is already reciprocal-augmented")
    n_rel = store.vocab.n_relations
    vocab = store.vocab.copy()
    for i in range(n_rel):
        vocab.relation_id(store.vocab.relation_name(i) + INVERSE_SUFFIX, create=True)
    out = {}
    for name, arr in store.splits():
        if arr.size == 0:
            out[name] = arr.copy()
            continue
        inv = np.empty_like(arr)
        inv[:, 0] = arr[:, 2]
        inv[:, 1] = arr[:, 1] + n_rel
        inv[:, 2] = arr[:, 0]
        out[name] = np.concatenate([arr, inv], axis=0)
    return TripleStore(
        train=out["train"],
        valid=out["valid"],
        test=out["test"],
        vocab=vocab,
        reciprocal=True,
        duplicates=dict(store.duplicates),
    )


class FilterIndex:
    """Map ``(head, relation) -> set of known-true tails`` over all splits."""

    def __init__(self, tails: dict[tuple[int, int], np.ndarray]):
        self._tails = tails
        self._empty = np.empty(0, dtype=np.int64)

    def true_tails(self, h: int, r: int) -> np.ndarray:
        return self._tails.get((int(h), int(r)), self._empty)

    def __len__(self) -> int:
        return len(self._tails)


def build_filter_index(store: TripleStore) -> FilterIndex:
    """Index the union of all three splits for filtered ranking."""
    buckets: dict[tuple[int, int], set[int]] = {}
    for _, arr in store.splits():
        for h, r, t in arr:
            buckets.setdefault((int(h), int(r)), set()).add(int(t))
    tails = {
        key: np.array(sorted(vals), dtype=np.int64) for key, vals in buckets.items()
    }
    return FilterIndex(tails)


@dataclass
class CategoryMap:
    """Partial entity -> category labeling with dense category ids.

    Lookups for unlabeled entities return ``None``; there is no default
    category.
    """

    category_of: dict[int, int]
    n_categories: int
    coverage: float
    n_skipped: int = 0
    n_relabeled: int = 0

    def get(self, entity_id: int) -> int | None:
        return self.category_of.get(int(entity_id))

    def labels_for(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized lookup; unlabeled entities map to -1."""
        return np.array(
            [self.category_of.get(int(e), -1) for e in ids], dtype=np.int64
        )


def load_categories(path, vocab: Vocab) -> CategoryMap:
    """Load an ``entity<TAB>category`` sidecar file.

    Unknown entities are skipped with a warning; an entity labeled twice
    keeps the last label (also warned).
    """
    category_ids: dict[str, int] = {}
    category_of: dict[int, int] = {}
    n_skipped = 0
    n_relabeled = 0
    with open(path, encoding="utf-8") as fh:
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
            eid = vocab.entity_index.get(ent)
            if eid is None:
                n_skipped += 1
                continue
            cid = category_ids.setdefault(cat, len(category_ids))
            if eid in category_of and category_of[eid] != cid:
                n_relabeled += 1
            category_of[eid] = cid
    if n_skipped:
        logger.warning("%s: skipped %d labels for unknown entities", path, n_skipped)
    if n_relabeled:
        logger.warning("%s: %d entities relabeled (last label wins)", path, n_relabeled)
    coverage = len(category_of) / vocab.n_entities if vocab.n_entities else 0.0
    return CategoryMap(
        category_of=category_of,
        n_categories=len(category_ids),
        coverage=coverage,
        n_skipped=n_skipped,
        n_relabeled=n_relabeled,
    )


def save_categories(cmap: CategoryMap, vocab: Vocab, path) -> None:
    """Write ``entity<TAB>c<id>`` lines for every labeled entity."""
    with open(path, "w", encoding="utf-8") as fh:
        for eid in sorted(cmap.category_of):
            fh.write(f"{vocab.entity_name(eid)}\tc{cmap.category_of[eid]}\n")


def generate_synthetic(
    n_entities: int,
    n_categories: int,
    n_relations: int,
    triples_per_relation: int,
    noise_rate: float,
    seed: int,
) -> tuple[TripleStore, CategoryMap]:
    """Build a category-patterned random KG for desk-scale experiments.

    Entity ``e_i`` gets category ``i mod n_categories``.  Each relation is
    assigned a (source, target) category; a ``1 - noise_rate`` fraction of
    its triples link a source-category head to a target-category tail and
    the rest are uniform random.  All (head, tail) pairs are distinct per
    relation.  Triples are shuffled and split 80/10/10.  Fully
    deterministic given the seed.
    """
    if n_categories < 2:
        raise ConfigError("need at least 2 categories")
    if not 0.0 <= noise_rate < 1.0:
        raise ConfigError("noise_rate must be in [0, 1)")
    if n_entities < n_categories:
        raise ConfigError("need at least one entity per category")
    if n_relations < 1 or triples_per_relation < 1:
        raise ConfigError("counts must be positive")

    rng = np.random.default_rng(seed)
    cats = np.arange(n_entities, dtype=np.int64) % n_categories
    members = [np.where(cats == c)[0] for c in range(n_categories)]

    n_clean = int(round((1.0 - noise_rate) * triples_per_relation))
    n_noise = triples_per_relation - n_clean
    if triples_per_relation > n_entities * n_entities:
        raise ConfigError("more triples per relation than distinct entity pairs")

    triples = []
    for r in range(n_relations):
        src = int(rng.integers(n_categories))
        tgt = int(rng.integers(n_categories))
        src_m, tgt_m = members[src], members[tgt]
        if n_clean > len(src_m) * len(tgt_m):
            raise ConfigError(
                f"relation {r}: {n_clean} clean triples exceed "
                f"{len(src_m) * len(tgt_m)} distinct source/target pairs"
            )
        codes = rng.choice(len(src_m) * len(tgt_m), size=n_clean, replace=False)
        used = set()
        for code in codes:
            h = int(src_m[code // len(tgt_m)])
            t = int(tgt_m[code % len(tgt_m)])
            used.add((h, t))
            triples.append((h, r, t))
        while len(used) < triples_per_relation:
            h = int(rng.integers(n_entities))
            t = int(rng.integers(n_entities))
            if (h, t) in used:
                continue
            used.add((h, t))
            triples.append((h, r, t))

    arr = np.array(triples, dtype=np.int64)
    perm = rng.permutation(len(arr))
    arr = arr[perm]
    n_train = int(len(arr) * 0.8)
    n_valid = int(len(arr) * 0.1)

    vocab = Vocab()
    for i in range(n_entities):
        vocab.entity_id(f"e{i}", create=True)
    for r in range(n_relations):
        vocab.relation_id(f"r{r}", create=True)

    store = TripleStore(
        train=arr[:n_train],
        valid=arr[n_train : n_train + n_valid],
        test=arr[n_train + n_valid :],
        vocab=vocab,
    )
    cmap = CategoryMap(
        category_of={int(e): int(c) for e, c in enumerate(cats)},
        n_categories=n_categories,
        coverage=1.0,
    )
    return store, cmap
