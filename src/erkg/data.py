"""Loading, indexing, augmentation, and synthesis of knowledge graphs.

Triples live in UTF-8 TSV files, one ``head<TAB>relation<TAB>tail`` per
line (LF endings, exactly two tabs).  Entity categories come from an
optional sidecar TSV of ``entity<TAB>category`` lines.  Ids are dense
integers assigned in first-appearance order, so serializing a store and
reloading it reproduces the exact id sequences.

Triples are indexed by one type, :class:`KeyedCSR`: values grouped by an
int64 key with one vectorized ``lookup``.  The training edges keyed by
head (``TripleStore.adjacency``) serve path sampling; the known-true
tails keyed by ``pair_key(head, relation)`` (``build_filter_index``)
serve filtered ranking.
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


def pair_key(a, b) -> np.ndarray:
    """One int64 key per id pair: ``a << 32 | b``.

    For ids in ``[0, 2**31)`` the keys order like the pairs
    (lexicographically) and need no vocabulary size.
    """
    return np.left_shift(np.asarray(a, dtype=np.int64), 32) | np.asarray(b, dtype=np.int64)


class KeyedCSR(NamedTuple):
    """Values grouped by an int64 key (CSR).

    ``keys`` are sorted and unique; the values of ``keys[i]`` are
    ``values[offsets[i]:offsets[i + 1]]``.
    """

    keys: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    @classmethod
    def group(cls, keys, values) -> "KeyedCSR":
        """Group ``values`` by ``keys``, keeping their order within a key."""
        keys = np.asarray(keys, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
        return cls(keys[starts], np.append(starts, len(keys)), np.asarray(values)[order])

    def lookup(self, query) -> tuple[np.ndarray, np.ndarray]:
        """Every value of each query key in turn: the index into ``query``
        it belongs to and the value.  Absent keys have none."""
        query = np.asarray(query, dtype=np.int64)
        pos = np.searchsorted(self.keys, query)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == query[hit]
        start = self.offsets[pos]
        deg = self.offsets[pos + hit] - start
        src = np.repeat(np.arange(len(query)), deg)
        item = np.arange(len(src)) - np.repeat(np.cumsum(deg) - deg, deg) + start[src]
        return src, self.values[item]


@dataclass
class TripleStore:
    """Train/valid/test triple splits over a shared vocabulary.

    Immutable after construction; safe to share read-only across threads.
    ``duplicates`` counts exact duplicate lines kept (not dropped) per
    split.  ``adjacency`` (a :class:`KeyedCSR` of the training edges'
    relation ids keyed by head, in training order) is a cache, built from
    ``train`` on first use and kept.
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
    def adjacency(self) -> KeyedCSR:
        return KeyedCSR.group(self.train[:, 0], self.train[:, 1])

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test], axis=0)


def _parse_triple_file(path, vocab: Vocab, strict: bool) -> tuple[np.ndarray, int]:
    triples = []
    seen: set[tuple[int, int, int]] = set()
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, arr in store.splits():
            with open(out_dir / f"{name}.txt", "w", encoding="utf-8") as fh:
                for h, r, t in arr:
                    fh.write(
                        f"{store.vocab.entity_name(h)}\t"
                        f"{store.vocab.relation_name(r)}\t"
                        f"{store.vocab.entity_name(t)}\n"
                    )
    except OSError as exc:
        raise ConfigError(f"cannot write triple files: {exc}") from exc


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


def build_filter_index(store: TripleStore) -> KeyedCSR:
    """Index the union of all three splits for filtered ranking: the
    known-true tails of each ``pair_key(head, relation)``, sorted and
    unique."""
    rows = np.concatenate([arr.reshape(-1, 3) for _, arr in store.splits()])
    rows = rows[np.lexsort(rows.T[::-1])].astype(np.int64, copy=False)
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rows = rows[first]
    return KeyedCSR.group(pair_key(rows[:, 0], rows[:, 1]), rows[:, 2])


@dataclass
class CategoryMap:
    """Partial entity -> category labeling with dense category ids.

    Lookups for unlabeled entities return ``None``; there is no default
    category.  ``labels_for`` reads a dense label table built from
    ``category_of`` on its first call and kept, so ``category_of`` must
    not change after the first lookup.
    """

    category_of: dict[int, int]
    n_categories: int
    coverage: float
    n_skipped: int = 0
    n_relabeled: int = 0

    def get(self, entity_id: int) -> int | None:
        return self.category_of.get(int(entity_id))

    @cached_property
    def _label_table(self) -> np.ndarray:
        table = np.full(max(self.category_of, default=-1) + 1, -1, dtype=np.int64)
        table[list(self.category_of)] = list(self.category_of.values())
        return table

    def labels_for(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized lookup; unlabeled entities and ids outside the
        table map to -1."""
        ids = np.asarray(ids, dtype=np.int64)
        table = self._label_table
        known = (ids >= 0) & (ids < len(table))
        labels = np.full(ids.shape, -1, dtype=np.int64)
        labels[known] = table[ids[known]]
        return labels


def load_categories(path, vocab: Vocab) -> CategoryMap:
    """Load an ``entity<TAB>category`` sidecar file.

    Unknown entities are skipped with a warning; an entity labeled twice
    keeps the last label (also warned).
    """
    category_ids: dict[str, int] = {}
    category_of: dict[int, int] = {}
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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for eid in sorted(cmap.category_of):
                fh.write(f"{vocab.entity_name(eid)}\tc{cmap.category_of[eid]}\n")
    except OSError as exc:
        raise ConfigError(f"cannot write category file: {exc}") from exc


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
