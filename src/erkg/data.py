"""Loading, indexing, augmentation, and synthesis of knowledge graphs.

Triples live in UTF-8 TSV files of ``head<TAB>relation<TAB>tail`` rows,
one per split; entity categories in an optional sidecar TSV of
``entity<TAB>category`` rows.  Both are read by one contract:

- One row per line, with exactly n - 1 tabs for n fields.  A line ends
  at LF (a CRLF or lone CR also ends one, as in any text-mode read), and
  nothing but the line end is stripped: spaces belong to the names.
- Blank lines are skipped.  A wrong field count, or a line that is not
  UTF-8, is a ``ParseError`` naming ``path:line``.
- Duplicate triples are kept, and counted per split.
- Ids are dense, in first-appearance order over train, valid, then test
  (head, relation, tail within a row), so a saved and reloaded store
  keeps its ids.
- In a category file, entities outside the vocabulary are skipped and an
  entity's last label wins; both are counted and logged.

Rows are sorted and grouped by key in one place, :func:`sorted_runs`:
the duplicate counts, the filter index, RESCAL's relation groups and
ER's distinct pair keys all use it.

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

from .errors import ConfigError, ParseError, check_seed

logger = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "valid", "test")


@dataclass
class Vocab:
    """Name -> dense id maps for entities and relations.

    Each map holds its names in id order, so ``list(entity_index)[i]``
    names entity ``i``; maps in any other order are rejected.
    """

    entity_index: dict[str, int] = field(default_factory=dict)
    relation_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for what, index in (("entity", self.entity_index), ("relation", self.relation_index)):
            if list(index.values()) != list(range(len(index))):
                raise ConfigError(f"{what} ids must be 0, 1, 2, ... in the order of the names")

    @property
    def n_entities(self) -> int:
        return len(self.entity_index)

    @property
    def n_relations(self) -> int:
        return len(self.relation_index)


def pair_key(a, b) -> np.ndarray:
    """One int64 key per id pair: ``a << 32 | b``.

    For ids in ``[0, 2**31)`` the keys order like the pairs
    (lexicographically) and need no vocabulary size.
    """
    return np.left_shift(np.asarray(a, dtype=np.int64), 32) | np.asarray(b, dtype=np.int64)


def sorted_runs(keys) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of the key tuples (equal-length integer
    arrays, last key primary, as ``np.lexsort`` takes them), and where in
    it each run of equal tuples starts: ``order[starts]`` is the first row
    of each distinct tuple, ascending, and ``np.diff(np.append(starts,
    len(order)))`` how often each occurs."""
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        k = key[order]
        new[1:] |= k[1:] != k[:-1]
    return order, np.flatnonzero(new)


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
        order, starts = sorted_runs([keys])
        return cls(keys[order[starts]], np.append(starts, len(keys)), np.asarray(values)[order])

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
    relation ids keyed by head, in training order) and ``filter_index``
    (:func:`build_filter_index` of the store) are caches, built on first
    use and kept.
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

    @cached_property
    def filter_index(self) -> KeyedCSR:
        return build_filter_index(self)

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test], axis=0)


def _rows(path, n_fields: int, what: str):
    """The fields of each nonblank line of the ``what`` file ``path``,
    read by the contract in the module docstring."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != n_fields:
                    raise ParseError(
                        f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                        f"got {len(fields)}"
                    )
                yield fields
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{_undecodable_line(path)}: not UTF-8: {exc.reason}") from None


def _undecodable_line(path) -> int:
    """The number of the first line of ``path`` that is not UTF-8, counted
    as a text-mode read counts lines (``bytes.splitlines`` also ends them
    at LF, CRLF and CR)."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return 0


def load_dataset(train_path, valid_path, test_path) -> TripleStore:
    """Load the three splits over one vocabulary."""
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    ent, rel = entities.setdefault, relations.setdefault
    splits, dups = {}, {}
    for name, path in zip(SPLIT_NAMES, (train_path, valid_path, test_path)):
        ids: list[int] = []
        for h, r, t in _rows(path, 3, "triple"):
            ids.extend((ent(h, len(entities)), rel(r, len(relations)), ent(t, len(entities))))
        arr = splits[name] = np.array(ids, dtype=np.int64).reshape(-1, 3)
        _, starts = sorted_runs((arr[:, 2], pair_key(arr[:, 0], arr[:, 1])))
        dups[name] = len(arr) - len(starts)
        if dups[name]:
            logger.warning("%s: kept %d duplicate triples", path, dups[name])
    return TripleStore(**splits, vocab=Vocab(entities, relations), duplicates=dups)


def save_triples(store: TripleStore, out_dir) -> None:
    """Write the store back to ``train.txt`` / ``valid.txt`` / ``test.txt``.

    Intended for raw (non-augmented) stores; the reciprocal flag itself is
    not serialized.
    """
    out_dir = Path(out_dir)
    ents, rels = list(store.vocab.entity_index), list(store.vocab.relation_index)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, arr in store.splits():
            with open(out_dir / f"{name}.txt", "w", encoding="utf-8") as fh:
                fh.writelines(f"{ents[h]}\t{rels[r]}\t{ents[t]}\n" for h, r, t in arr.tolist())
    except OSError as exc:
        raise ConfigError(f"cannot write triple files: {exc}") from exc


INVERSE_SUFFIX = "__inv"


def add_reciprocals(store: TripleStore) -> TripleStore:
    """Add the inverse triple ``(t, r + |R|, h)`` for every ``(h, r, t)``.

    Doubles the relation vocabulary (inverse names get ``__inv``) and every
    split.  Applying it twice, or to a vocabulary that already holds an
    inverse name, is an error.
    """
    if store.reciprocal:
        raise ConfigError("store is already reciprocal-augmented")
    n_rel = store.vocab.n_relations
    relations = dict(store.vocab.relation_index)
    for name in store.vocab.relation_index:
        inverse = name + INVERSE_SUFFIX
        if inverse in store.vocab.relation_index:
            raise ConfigError(
                f"cannot add reciprocals: the inverse of relation {name!r}, "
                f"{inverse!r}, is already a relation"
            )
        relations[inverse] = len(relations)
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
    return TripleStore(**out, vocab=Vocab(store.vocab.entity_index, relations),
                       reciprocal=True, duplicates=dict(store.duplicates))


def build_filter_index(store: TripleStore) -> KeyedCSR:
    """Index the union of all three splits for filtered ranking: the
    known-true tails of each ``pair_key(head, relation)``, sorted and
    unique."""
    rows = np.concatenate([arr.reshape(-1, 3) for _, arr in store.splits()])
    keys, tails = pair_key(rows[:, 0], rows[:, 1]), rows[:, 2].astype(np.int64)
    order, starts = sorted_runs((tails, keys))
    first = order[starts]
    return KeyedCSR.group(keys[first], tails[first])


@dataclass
class CategoryMap:
    """Partial entity -> category labeling with dense category ids.

    Unlabeled entities are absent from ``category_of``; there is no
    default category.  ``labels_for`` reads a dense label table built from
    ``category_of`` on its first call and kept, so ``category_of`` must
    not change after the first lookup.
    """

    category_of: dict[int, int]
    n_categories: int
    coverage: float
    n_skipped: int = 0
    n_relabeled: int = 0

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
    """Load an ``entity<TAB>category`` sidecar file over ``vocab``'s
    entities."""
    category_ids: dict[str, int] = {}
    category_of: dict[int, int] = {}
    n_skipped = 0
    n_relabeled = 0
    for ent, cat in _rows(path, 2, "category"):
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
    names = list(vocab.entity_index)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for eid in sorted(cmap.category_of):
                fh.write(f"{names[eid]}\tc{cmap.category_of[eid]}\n")
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
        raise ConfigError(f"n_categories must be >= 2, got {n_categories}")
    if not 0.0 <= noise_rate < 1.0:
        raise ConfigError("noise_rate must be in [0, 1)")
    if n_entities < n_categories:
        raise ConfigError(f"n_entities must be >= n_categories, got {n_entities} < {n_categories}")
    if n_relations < 1 or triples_per_relation < 1:
        raise ConfigError("n_relations and triples_per_relation must be >= 1")

    rng = np.random.default_rng(check_seed(seed))
    cats = np.arange(n_entities, dtype=np.int64) % n_categories
    members = [np.where(cats == c)[0] for c in range(n_categories)]

    n_clean = int(round((1.0 - noise_rate) * triples_per_relation))
    n_noise = triples_per_relation - n_clean
    if triples_per_relation > n_entities * n_entities:
        raise ConfigError("triples_per_relation exceeds the distinct entity pairs")

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

    store = TripleStore(
        train=arr[:n_train],
        valid=arr[n_train : n_train + n_valid],
        test=arr[n_train + n_valid :],
        vocab=Vocab({f"e{i}": i for i in range(n_entities)},
                    {f"r{r}": r for r in range(n_relations)}),
    )
    cmap = CategoryMap(
        category_of={int(e): int(c) for e, c in enumerate(cats)},
        n_categories=n_categories,
        coverage=1.0,
    )
    return store, cmap
