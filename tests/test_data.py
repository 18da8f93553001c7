import numpy as np
import pytest

import data_oracle
from erkg.data import (
    CategoryMap,
    KeyedCSR,
    TripleStore,
    Vocab,
    add_reciprocals,
    build_filter_index,
    generate_synthetic,
    load_categories,
    load_dataset,
    pair_key,
    save_categories,
    save_triples,
    sorted_runs,
)
from erkg.errors import ConfigError, ParseError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def load_train(path):
    """``path`` loaded as the train split, with empty valid and test splits."""
    empty = write(path.parent / "empty.txt", "")
    return load_dataset(path, empty, empty)


def filter_index_loop(store):
    """Reference filter index: one set insertion per triple of every split."""
    buckets = {}
    for _, arr in store.splits():
        for h, r, t in arr:
            buckets.setdefault((int(h), int(r)), set()).add(int(t))
    return {key: np.array(sorted(vals), dtype=np.int64) for key, vals in buckets.items()}


def true_tails(index, h, r):
    """The indexed tails of one (head, relation), through ``lookup``."""
    return index.lookup(pair_key([h], [r]))[1]


class TestLoadTriples:
    def test_hand_counted_file(self, tmp_path):
        p = write(tmp_path / "t.txt", "a\tr\tb\na\tr\tb\nc\tr\tb\na\ts\tc\n")
        store = load_train(p)
        vocab = store.vocab
        assert len(store.train) == 4
        assert store.duplicates["train"] == 1
        assert vocab.n_entities == 3
        assert vocab.n_relations == 2

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "t.txt", "")
        store = load_train(p)
        vocab = store.vocab
        assert len(store.train) == 0
        assert vocab.n_entities == 0
        assert store.duplicates["train"] == 0

    def test_first_appearance_ids(self, tmp_path):
        p = write(tmp_path / "t.txt", "x\tr\ty\nz\ts\tx\n")
        vocab = load_train(p).vocab
        assert vocab.entity_index == {"x": 0, "y": 1, "z": 2}
        assert vocab.relation_index == {"r": 0, "s": 1}

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path / "t.txt", "a\tr\tb\nbad line\n")
        with pytest.raises(ParseError, match=":2:"):
            load_train(p)

    def test_strict_unknown_entity(self, tmp_path):
        p1 = write(tmp_path / "t1.txt", "a\tr\tb\n")
        entities, relations = {}, {}
        data_oracle.parse_triple_file(p1, entities, relations)
        p2 = write(tmp_path / "t2.txt", "a\tr\tzzz\n")
        with pytest.raises(data_oracle.VocabError, match="zzz"):
            data_oracle.parse_triple_file(p2, entities, relations, strict=True)

    def test_round_trip_ids(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(50):
            lines.append(
                f"e{rng.integers(10)}\tr{rng.integers(3)}\te{rng.integers(10)}"
            )
        n = len(lines)
        write(tmp_path / "train.txt", "\n".join(lines[: n - 20]) + "\n")
        write(tmp_path / "valid.txt", "\n".join(lines[n - 20 : n - 10]) + "\n")
        write(tmp_path / "test.txt", "\n".join(lines[n - 10 :]) + "\n")
        store = load_dataset(
            tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt"
        )
        out = tmp_path / "round"
        save_triples(store, out)
        store2 = load_dataset(out / "train.txt", out / "valid.txt", out / "test.txt")
        for name, arr in store.splits():
            assert np.array_equal(arr, store2.split(name))


class TestRowReader:
    """``load_dataset`` and ``load_categories`` against the line-by-line
    readers of ``data_oracle``, on files with blank lines, CRLF and CR line
    ends, a last line without LF, duplicates and names that are not ASCII
    or hold spaces."""

    SPLITS = {
        "train": "a\tr\tb\n\nb\tr\tc\na\tr\tb\r\nc d\tr s\tÉmile\n\n",
        "valid": "\r\nÉmile\tr\ta\nx\tr\tb\nx\tr\tb",
        "test": "\n\nc d\tr\tb\r\nc d\tr\tb\r\nc d\tr\tb\ry\tr\tz\r",
    }
    # unknown entities (zzz, nope), one relabel (a), a repeated label (a)
    CATEGORIES = "a\tk1\nzzz\tk1\n\nÉmile\tk 2\r\na\tk 2\nc d\tk1\na\tk 2\nnope\tk3"

    def _write(self, tmp_path, **extra):
        return [write(tmp_path / f"{name}.txt", text + extra.get(name, ""))
                for name, text in self.SPLITS.items()]

    def test_matches_oracle(self, tmp_path):
        paths = self._write(tmp_path)
        store = load_dataset(*paths)
        splits, entities, relations, dups = data_oracle.load_dataset(*paths)
        for (name, arr), ref in zip(store.splits(), splits):
            assert arr.dtype == ref.dtype and np.array_equal(arr, ref), name
        assert list(store.vocab.entity_index.items()) == list(entities.items())
        assert list(store.vocab.relation_index.items()) == list(relations.items())
        assert [store.duplicates[name] for name in ("train", "valid", "test")] == dups
        assert dups == [1, 1, 2]
        assert {"c d", "Émile", "z"} <= set(entities) and "r s" in relations

        cats = write(tmp_path / "cats.txt", self.CATEGORIES)
        cmap = load_categories(cats, store.vocab)
        category_of, n_categories, n_skipped, n_relabeled = data_oracle.category_rows(
            cats, store.vocab.entity_index)
        assert list(cmap.category_of.items()) == list(category_of.items())
        assert (cmap.n_categories, cmap.n_skipped, cmap.n_relabeled) == (
            n_categories, n_skipped, n_relabeled) == (2, 2, 1)
        assert cmap.coverage == len(category_of) / len(entities)

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_field_count_error_matches_oracle(self, tmp_path, split):
        paths = self._write(tmp_path, **{split: "\nonly\tone\n"})
        with pytest.raises(ParseError) as ref:
            data_oracle.load_dataset(*paths)
        with pytest.raises(ParseError) as got:
            load_dataset(*paths)
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith(f"{tmp_path / split}.txt:")
        assert str(got.value).endswith("expected 3 tab-separated fields, got 2")

    def test_category_field_count_error_matches_oracle(self, tmp_path):
        store = load_train(write(tmp_path / "t.txt", "a\tr\tb\n"))
        cats = write(tmp_path / "cats.txt", "a\tx\r\n\nb\n")
        with pytest.raises(ParseError) as ref:
            data_oracle.category_rows(cats, store.vocab.entity_index)
        with pytest.raises(ParseError) as got:
            load_categories(cats, store.vocab)
        assert str(got.value) == str(ref.value)
        assert str(got.value) == f"{cats}:3: expected 2 tab-separated fields, got 1"

    @pytest.mark.parametrize("line", [1, 3, 4, 3004])
    def test_non_utf8_triple_file_names_its_line(self, tmp_path, line):
        lines = ["a\tr\tb\r\n", "b\tr\tÉmile\r", "c\tr\ta\n"] + ["d\tr\ta\n"] * 3001
        lines[line - 1] = lines[line - 1].replace("\tr\t", "\tr@\t")
        path = tmp_path / "t.txt"
        path.write_bytes("".join(lines).encode().replace(b"@", b"\xff"))
        with pytest.raises(ParseError, match=f"^{path}:{line}: not UTF-8"):
            load_train(path)

    def test_non_utf8_category_file_names_its_line(self, tmp_path):
        vocab = load_train(write(tmp_path / "t.txt", "a\tr\tb\n")).vocab
        path = tmp_path / "c.txt"
        path.write_bytes(b"a\tx\n\nb\t\xc3\n")
        with pytest.raises(ParseError, match=f"^{path}:3: not UTF-8"):
            load_categories(path, vocab)


class TestReciprocals:
    def _toy(self, tmp_path):
        p = write(tmp_path / "t.txt", "a\tr\tb\nb\ts\tc\na\ts\tc\n")
        return load_train(p)

    def test_doubling(self, tmp_path):
        store = self._toy(tmp_path)
        aug = add_reciprocals(store)
        assert len(aug.train) == 2 * len(store.train)
        assert aug.vocab.n_relations == 2 * store.vocab.n_relations
        assert aug.reciprocal

    def test_double_application_rejected(self, tmp_path):
        aug = add_reciprocals(self._toy(tmp_path))
        with pytest.raises(ConfigError):
            add_reciprocals(aug)

    def test_involution_under_index_shift(self, tmp_path):
        store = self._toy(tmp_path)
        n_rel = store.vocab.n_relations
        aug = add_reciprocals(store)
        inv = aug.train[len(store.train) :]
        back = np.stack([inv[:, 2], inv[:, 1] - n_rel, inv[:, 0]], axis=1)
        assert np.array_equal(back, store.train)

    @pytest.mark.parametrize("entities, relations", [
        ({"b": 1, "a": 0}, {"r": 0}),
        ({"a": 0}, {"r": 1}),
    ])
    def test_vocab_out_of_id_order_rejected(self, entities, relations):
        with pytest.raises(ConfigError, match="ids must be"):
            Vocab(entities, relations)

    def test_inverse_name_collision_rejected(self, tmp_path):
        store = load_train(write(tmp_path / "t.txt", "a\tr\tb\nb\tr__inv\ta\n"))
        with pytest.raises(ConfigError, match="'r'.*'r__inv'"):
            add_reciprocals(store)

    def test_undirected_incidences_preserved(self, tmp_path):
        store = self._toy(tmp_path)
        n_rel = store.vocab.n_relations
        aug = add_reciprocals(store)

        def incidences(arr, rel_mod):
            out = {}
            for h, r, t in arr:
                key = (int(r) % rel_mod, frozenset((int(h), int(t))))
                out[key] = out.get(key, 0) + 1
            return out

        base = incidences(store.train, n_rel)
        doubled = incidences(aug.train, n_rel)
        assert doubled == {k: 2 * v for k, v in base.items()}


class TestFilterIndex:
    def test_enumeration(self, tmp_path):
        p = write(tmp_path / "t.txt", "a\tr\tb\na\tr\tc\n")
        store = load_train(p)
        vocab = store.vocab
        idx = build_filter_index(store)
        a, r = vocab.entity_index["a"], vocab.relation_index["r"]
        got = set(true_tails(idx, a, r))
        assert got == {vocab.entity_index["b"], vocab.entity_index["c"]}

    def test_absent_key_empty(self, tmp_path):
        p = write(tmp_path / "t.txt", "a\tr\tb\n")
        store = load_train(p)
        idx = build_filter_index(store)
        assert len(true_tails(idx, 99, 99)) == 0

    def test_union_over_splits(self, tmp_path):
        write(tmp_path / "train.txt", "a\tr\tb\n")
        write(tmp_path / "valid.txt", "a\tr\tc\n")
        write(tmp_path / "test.txt", "a\tr\td\n")
        store = load_dataset(
            tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt"
        )
        idx = build_filter_index(store)
        assert len(true_tails(idx, 0, 0)) == 3

    def test_reciprocal_head_queries(self, tmp_path):
        p = write(tmp_path / "t.txt", "a\tr\tb\nc\tr\tb\n")
        store = load_train(p)
        vocab = store.vocab
        aug = add_reciprocals(store)
        idx = build_filter_index(aug)
        b = vocab.entity_index["b"]
        r_inv = vocab.relation_index["r"] + store.vocab.n_relations
        heads = set(true_tails(idx, b, r_inv))
        assert heads == {vocab.entity_index["a"], vocab.entity_index["c"]}


    @pytest.mark.parametrize("empty_split", ["train", "valid", "test"])
    def test_matches_loop(self, empty_split):
        rng = np.random.default_rng(5)
        base = rng.integers(0, 12, size=(300, 3))
        base[:, 1] %= 4
        splits = {
            "train": base[:200],
            "valid": np.concatenate([base[150:250], base[:20]]),
            "test": np.concatenate([base[240:], base[100:130], base[240:260]]),
        }
        splits[empty_split] = np.empty((0, 3), dtype=np.int64)
        vocab = Vocab({f"e{i}": i for i in range(12)}, {f"r{i}": i for i in range(4)})
        store = add_reciprocals(TripleStore(vocab=vocab, **splits))
        idx = build_filter_index(store)
        heads, rels = (idx.keys >> 32).tolist(), (idx.keys & (2**32 - 1)).tolist()
        got = dict(zip(zip(heads, rels), np.split(idx.values, idx.offsets[1:-1])))
        ref = filter_index_loop(store)
        assert set(got) == set(ref)
        for key, tails in ref.items():
            assert all(type(k) is int for k in key)
            assert got[key].dtype == tails.dtype and np.array_equal(got[key], tails)

    def test_no_triples(self):
        empty = np.empty((0, 3), dtype=np.int64)
        store = TripleStore(empty, empty, empty, Vocab())
        assert len(build_filter_index(store).keys) == 0


class TestKeyedCSR:
    def test_lookup_matches_loop(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(-5, 40, size=300)
        values = np.arange(300)
        index = KeyedCSR.group(keys, values)
        assert np.all(np.diff(index.keys) > 0)
        query = np.concatenate([rng.integers(-8, 45, size=100), [-1, 10**6]])
        src, got = index.lookup(query)
        ref_src = [i for i, q in enumerate(query) for k in keys if k == q]
        ref = [v for q in query for k, v in zip(keys, values) if k == q]
        assert np.array_equal(src, ref_src)
        assert np.array_equal(got, ref)

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        src, got = KeyedCSR.group(empty, empty).lookup(np.array([0, -1, 7]))
        assert len(src) == 0 and len(got) == 0

    def test_pair_key_orders_like_pairs(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2**31, size=200)
        b = rng.integers(0, 2**31, size=200)
        a[:50] = a[50:100]
        b[:25] = b[50:75]
        assert np.array_equal(np.argsort(pair_key(a, b), kind="stable"),
                              np.lexsort((b, a)))
        n_pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
        assert n_pairs == 175 and len(np.unique(pair_key(a, b))) == n_pairs


def _random_keys(seed, n):
    rng = np.random.default_rng(seed)
    return [rng.integers(-3, 4, size=n), rng.integers(0, 3, size=n), rng.integers(0, 2, size=n)]


class TestSortedRuns:
    @pytest.mark.parametrize("keys", [
        _random_keys(6, 400),
        _random_keys(7, 0),
        _random_keys(8, 1),
        [np.full(9, 4), np.zeros(9, dtype=np.int64)],
        [np.random.default_rng(9).integers(0, 5, size=50)],
    ], ids=["random", "no-rows", "one-row", "all-equal", "one-key"])
    def test_matches_np_unique(self, keys):
        order, starts = sorted_runs(keys)
        rows = np.stack(keys[::-1], axis=1)  # primary key first
        uniq, first, counts = np.unique(rows, axis=0, return_index=True, return_counts=True)
        np.testing.assert_array_equal(rows[order[starts]], uniq)
        np.testing.assert_array_equal(order[starts], first)
        np.testing.assert_array_equal(np.diff(np.append(starts, len(order))), counts)
        # stable: within a run the rows keep their input order
        run = np.repeat(np.arange(len(starts)), counts)
        assert np.all(np.diff(order)[run[1:] == run[:-1]] > 0)

    def test_filter_index_and_duplicates_match_oracle(self, tmp_path):
        rng = np.random.default_rng(10)
        base = rng.integers(0, 9, size=(240, 3))
        base[:, 1] %= 3
        splits = {"train": base[:150], "valid": np.concatenate([base[100:190], base[:15]]),
                  "test": np.concatenate([base[190:], base[190:200]])}
        vocab = Vocab({f"e{i}": i for i in range(9)}, {f"r{i}": i for i in range(3)})
        save_triples(TripleStore(vocab=vocab, **splits), tmp_path)
        store = load_dataset(*(tmp_path / f"{name}.txt" for name in ("train", "valid", "test")))
        assert store.duplicates == {
            name: data_oracle.duplicate_count(arr) for name, arr in store.splits()}
        assert min(store.duplicates.values()) > 0
        store = add_reciprocals(store)
        got, ref = build_filter_index(store), data_oracle.build_filter_index(store)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestCategories:
    @pytest.mark.parametrize(
        "category_of",
        [{}, {0: 2, 3: 0, 7: 1}, {int(e): int(e) % 3 for e in range(50)}],
    )
    def test_labels_for_matches_dict_lookup(self, category_of):
        cmap = CategoryMap(category_of=category_of, n_categories=3, coverage=0.5)
        for ids in (
            np.array([0, 3, 7, 1, 2, 3, 0, 49]),
            np.array([8, 50, 1000, -1, 7]),
            np.empty(0, dtype=np.int64),
        ):
            ref = np.array([category_of.get(int(e), -1) for e in ids], dtype=np.int64)
            got = cmap.labels_for(ids)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref)

    def test_coverage(self, tmp_path):
        t = write(tmp_path / "t.txt", "a\tr\tb\nc\tr\td\ne\tr\ta\n")
        vocab = load_train(t).vocab
        assert vocab.n_entities == 5
        c = write(tmp_path / "c.txt", "a\tx\nb\tx\nc\ty\n")
        cmap = load_categories(c, vocab)
        assert cmap.coverage == pytest.approx(0.6)
        cat = cmap.category_of
        assert cat.get(vocab.entity_index["a"]) == cat.get(vocab.entity_index["b"])
        assert cat.get(vocab.entity_index["e"]) is None

    def test_empty_file(self, tmp_path):
        t = write(tmp_path / "t.txt", "a\tr\tb\n")
        vocab = load_train(t).vocab
        c = write(tmp_path / "c.txt", "")
        cmap = load_categories(c, vocab)
        assert cmap.coverage == 0.0
        assert cmap.category_of.get(0) is None

    def test_duplicate_label_last_wins(self, tmp_path):
        t = write(tmp_path / "t.txt", "a\tr\tb\n")
        vocab = load_train(t).vocab
        c = write(tmp_path / "c.txt", "a\tx\nb\ty\na\ty\n")
        cmap = load_categories(c, vocab)
        assert cmap.n_relabeled == 1
        cat = cmap.category_of
        assert cat.get(vocab.entity_index["a"]) == cat.get(vocab.entity_index["b"])

    def test_unknown_entities_skipped(self, tmp_path):
        t = write(tmp_path / "t.txt", "a\tr\tb\n")
        vocab = load_train(t).vocab
        c = write(tmp_path / "c.txt", "zzz\tx\na\tx\n")
        cmap = load_categories(c, vocab)
        assert cmap.n_skipped == 1
        assert cmap.coverage == pytest.approx(0.5)

    @pytest.mark.parametrize("name", ["missing.txt", "."])
    def test_unreadable_file_is_config_error(self, tmp_path, name):
        vocab = load_train(write(tmp_path / "t.txt", "a\tr\tb\n")).vocab
        with pytest.raises(ConfigError, match="category file"):
            load_categories(tmp_path / name, vocab)


class TestSynthetic:
    def test_documented_counts(self):
        store, cmap = generate_synthetic(200, 4, 6, 300, 0.05, seed=7)
        assert len(store.train) == 1440
        assert len(store.valid) == 180
        assert len(store.test) == 180
        assert store.vocab.n_entities == 200
        assert store.vocab.n_relations == 6
        assert cmap.coverage == 1.0

    def test_determinism(self, tmp_path):
        a, _ = generate_synthetic(50, 3, 4, 40, 0.1, seed=3)
        b, _ = generate_synthetic(50, 3, 4, 40, 0.1, seed=3)
        for name, arr in a.splits():
            assert np.array_equal(arr, b.split(name))
        save_triples(a, tmp_path / "a")
        save_triples(b, tmp_path / "b")
        for name in ("train", "valid", "test"):
            assert (tmp_path / "a" / f"{name}.txt").read_bytes() == (
                tmp_path / "b" / f"{name}.txt"
            ).read_bytes()

    def test_noise_zero_respects_category_pattern(self):
        store, cmap = generate_synthetic(60, 3, 5, 50, 0.0, seed=11)
        # all triples of a relation share head category and tail category:
        # the data-level equivariance statement
        for r in range(5):
            triples = [t for t in store.all_triples() if t[1] == r]
            head_cats = {cmap.category_of.get(int(t[0])) for t in triples}
            tail_cats = {cmap.category_of.get(int(t[2])) for t in triples}
            assert len(head_cats) == 1
            assert len(tail_cats) == 1

    def test_same_relation_equal_head_cats_give_equal_tail_cats(self):
        store, cmap = generate_synthetic(40, 4, 4, 30, 0.0, seed=5)
        arr = store.all_triples()
        for r in range(4):
            rows = arr[arr[:, 1] == r]
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    if cmap.category_of.get(rows[i, 0]) == cmap.category_of.get(rows[j, 0]):
                        assert cmap.category_of.get(rows[i, 2]) == cmap.category_of.get(rows[j, 2])

    def test_infeasible_counts_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(4, 2, 1, 100, 0.0, seed=0)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(20, 2, 2, 5, 1.5, seed=0)

    def test_category_round_trip(self, tmp_path):
        store, cmap = generate_synthetic(30, 3, 3, 20, 0.1, seed=2)
        path = tmp_path / "cats.txt"
        save_categories(cmap, store.vocab, path)
        cmap2 = load_categories(path, store.vocab)
        assert cmap2.coverage == 1.0
        # same partition into categories even if ids are relabeled
        for e1 in range(30):
            for e2 in range(e1 + 1, 30):
                assert (cmap.category_of.get(e1) == cmap.category_of.get(e2)) == (
                    cmap2.category_of.get(e1) == cmap2.category_of.get(e2)
                )
