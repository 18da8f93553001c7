import ast
from pathlib import Path

import numpy as np
import pytest

from erkg import models
from erkg.errors import ConfigError
from erkg.grads import GradAccumulator
from erkg.models import (
    OPERATORS,
    ModelKind,
    ModelParams,
    backward_all_tails,
    block_shapes,
    cview,
    forward_all_tails,
    init_params,
    project_constraints,
)
from erkg.regularizers import EpsilonState
from erkg.training import load_checkpoint, save_checkpoint
from grads_oracle import densify
from oracles import init_field_params, relational_transform, score

ALL_KINDS = list(ModelKind)


def score_all_tails(params, h, r):
    """The batched scores of every tail for the one query (h, r)."""
    return forward_all_tails(params, np.array([h]), np.array([r]))[0][0]


def make_params(kind, n_ent=5, n_rel=3, dim=4, seed=0):
    return init_params(kind, n_ent, n_rel, dim, seed)


def manual_distmult(h, r, t):
    return ModelParams(
        ModelKind.DISTMULT,
        {"ent": np.array([h, t], dtype=float), "rel": np.array([r], dtype=float)},
    )


class TestInit:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic(self, kind):
        a = make_params(kind, seed=1)
        b = make_params(kind, seed=1)
        for (n1, x), (_, y) in zip(a.blocks().items(), b.blocks().items()):
            assert np.array_equal(x, y), n1

    def test_rotate_unit_modulus(self):
        p = make_params(ModelKind.ROTATE, dim=8, seed=2)
        mods = np.abs(cview(p.relation))
        assert np.max(np.abs(mods - 1.0)) < 1e-12

    def test_cp_entries_within_bound(self):
        p = init_params(ModelKind.CP, 100, 5, 16, seed=3)
        for arr in p.blocks().values():
            assert np.all(np.abs(arr) <= 0.25)

    def test_odd_dim_rejected_for_complex_kinds(self):
        for kind in (ModelKind.COMPLEX, ModelKind.ROTATE):
            with pytest.raises(ConfigError):
                init_params(kind, 4, 2, 5, seed=0)

    @pytest.mark.parametrize("args, match", [
        (("complex", 4, 2, 0), "^dim must be an integer >= 1, got 0$"),
        (("complex", 4, 2, -2), "^dim must be an integer >= 1, got -2$"),
        (("cp", 4, 2, 4.0), "^dim must be an integer, got 4.0$"),
        (("foo", 4, 2, 4), "^unknown model kind 'foo'$"),
        (("cp", -1, 2, 4), "^n_entities must be an integer >= 1, got -1$"),
        (("cp", 4, 0, 4), "^n_relations must be an integer >= 1, got 0$"),
        (("cp", 4, "2", 4), "^n_relations must be an integer, got '2'$"),
    ], ids=["dim 0", "dim -2", "dim float", "kind", "n_entities", "n_relations 0",
            "n_relations str"])
    def test_bad_arguments_are_named(self, args, match):
        with pytest.raises(ConfigError, match=match):
            init_params(*args, seed=0)


# (n_entities, n_relations, dim): odd and even sizes; odd dims only for
# the kinds that store real coordinates.
LAYOUT_CASES = [
    (kind, sizes)
    for kind in ALL_KINDS
    for sizes in [(5, 3, 4), (8, 2, 6), (1, 1, 2), (7, 4, 5), (6, 1, 3)]
    if not (OPERATORS[kind].complex_coords and sizes[2] % 2)
]


class TestLayout:
    @pytest.mark.parametrize("kind, sizes", LAYOUT_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_blocks_match_the_field_oracle(self, kind, sizes, seed):
        p = init_params(kind, *sizes, seed)
        want = init_field_params(kind, *sizes, seed)
        got = p.blocks()
        assert list(got) == list(want.blocks())
        for name, arr in want.blocks().items():
            assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), name
        assert (p.n_entities, p.n_relations, p.dim) == (
            want.n_entities, want.n_relations, want.dim)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sizes_follow_the_tables(self, kind, tmp_path):
        p = init_params(kind, 7, 3, 4, seed=5)
        assert (p.n_entities, p.n_relations, p.dim) == (7, 3, 4)
        assert list(p.blocks()) == list(block_shapes(kind, 7, 3, 4))
        assert p.copy().blocks().keys() == p.blocks().keys()
        save_checkpoint(p, EpsilonState.create(3), tmp_path / "c.erkg")
        loaded, _eps = load_checkpoint(tmp_path / "c.erkg")
        assert (loaded.n_entities, loaded.n_relations, loaded.dim) == (7, 3, 4)
        assert loaded.head_table.shape == loaded.tail_table.shape == (7, 4)
        smaller = ModelParams(kind, {name: arr[:2] for name, arr in p.blocks().items()})
        assert (smaller.n_entities, smaller.n_relations, smaller.dim) == (2, 2, 4)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_blocks_outside_the_declared_layout_rejected(self, kind):
        blocks = init_params(kind, 5, 3, 4, seed=0).blocks()
        names = list(blocks)
        bad = [
            dict(reversed(blocks.items())),
            {**blocks, "extra": np.zeros((5, 4))},
            {**blocks, "rel": blocks["rel"][..., :2]},
            {**blocks, names[0]: blocks[names[0]][:, :2]},
        ]
        if kind == ModelKind.CP:
            bad.append({**blocks, "ent_t": blocks["ent_t"][:3]})
        for case in bad:
            with pytest.raises(ConfigError, match="block_shapes"):
                ModelParams(kind, case)


class TestScore:
    def test_distmult_hand_value(self):
        p = manual_distmult([1.0, 2.0], [1.0, 1.0], [3.0, 4.0])
        assert score(p, 0, 0, 1) == pytest.approx(11.0)

    def test_transe_exact_translation(self):
        p = make_params(ModelKind.TRANSE, dim=4, seed=4)
        p.entity[1] = p.entity[0] + p.relation[2]
        assert score(p, 0, 2, 1) == pytest.approx(0.0, abs=1e-12)
        assert all(score(p, 0, 2, t) <= 0 for t in range(p.n_entities))

    def test_complex_reduces_to_distmult_on_reals(self):
        rng = np.random.default_rng(5)
        dim = 6
        p = make_params(ModelKind.COMPLEX, dim=dim, seed=5)
        p.entity[:, 1::2] = 0.0
        p.relation[:, 1::2] = 0.0
        for h, r, t in [(0, 0, 1), (2, 1, 3), (4, 2, 0)]:
            expect = float(
                np.sum(p.entity[h, 0::2] * p.relation[r, 0::2] * p.entity[t, 0::2])
            )
            assert score(p, h, r, t) == pytest.approx(expect)

    def test_out_of_range_ids(self):
        p = make_params(ModelKind.DISTMULT)
        with pytest.raises(IndexError):
            score(p, 0, 0, 99)
        with pytest.raises(IndexError):
            score(p, 0, 99, 0)


class TestScoreAllTails:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_scalar_path(self, kind):
        p = make_params(kind, n_ent=7, n_rel=3, dim=6, seed=6)
        for h in range(3):
            for r in range(3):
                vec = score_all_tails(p, h, r)
                for t in range(7):
                    s = score(p, h, r, t)
                    assert abs(vec[t] - s) <= 1e-10 * max(1.0, abs(s))

    def test_zero_entity_table_bilinear(self):
        for kind in (ModelKind.CP, ModelKind.DISTMULT, ModelKind.COMPLEX, ModelKind.RESCAL):
            p = make_params(kind, seed=7)
            p.entity[:] = 0.0
            p.tail_table[:] = 0.0
            assert np.all(score_all_tails(p, 0, 0) == 0.0)

    def test_transe_all_zero_params(self):
        p = make_params(ModelKind.TRANSE, seed=8)
        p.entity[:] = 0.0
        p.relation[:] = 0.0
        assert np.all(score_all_tails(p, 0, 0) == 0.0)


class TestRelationalTransform:
    def test_rescal_identity(self):
        p = make_params(ModelKind.RESCAL, dim=4, seed=9)
        p.relation[1] = np.eye(4)
        x = np.arange(4.0)
        assert np.allclose(relational_transform(p, x, 1), x)

    def test_rotate_zero_phase(self):
        p = make_params(ModelKind.ROTATE, dim=6, seed=10)
        p.relation[0, 0::2] = 1.0
        p.relation[0, 1::2] = 0.0
        x = np.arange(6.0)
        assert np.allclose(relational_transform(p, x, 0), x)

    def test_transe_zero_vector(self):
        p = make_params(ModelKind.TRANSE, dim=4, seed=11)
        out = relational_transform(p, np.zeros(4), 2)
        assert np.allclose(out, p.relation[2])

    def test_shape_mismatch(self):
        p = make_params(ModelKind.DISTMULT, dim=4)
        with pytest.raises(ValueError):
            relational_transform(p, np.zeros(5), 0)


class TestOperators:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_apply_matches_relational_transform(self, kind):
        p = make_params(kind, dim=4, seed=13)
        rels = np.array([0, 2, 1])
        X = np.random.default_rng(13).normal(size=(3, 4))
        out = OPERATORS[kind].apply(X, rels, p.relation)
        for i, r in enumerate(rels):
            assert np.allclose(out[i], relational_transform(p, X[i], int(r)))

    @pytest.mark.parametrize(
        "kind", [k for k in ModelKind if hasattr(OPERATORS[k], "adjoint")], ids=lambda k: k.value
    )
    def test_adjoint_identity(self, kind):
        # <T_r x, y> = <x, T_r* y> under the real inner product of the storage
        p = make_params(kind, dim=4, seed=14)
        op = OPERATORS[kind]
        rels = np.array([1, 0])
        X, Y = np.random.default_rng(14).normal(size=(2, 2, 4))
        lhs = np.sum(op.apply(X, rels, p.relation) * Y, axis=1)
        rhs = np.sum(X * op.adjoint(Y, rels, p.relation), axis=1)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_vjp_is_transpose_of_directional_derivative(self, kind):
        # <G, d/dt T(X + t dX, table + t dR)> = <GX, dX> + <GR, dR[rel_ids]>
        p = make_params(kind, dim=4, seed=15)
        op = OPERATORS[kind]
        rng = np.random.default_rng(15)
        rels, table = np.array([2, 0]), p.relation
        X, dX, G = rng.normal(size=(3, 2, 4))
        dR = rng.normal(size=table.shape)
        h = 1e-6
        fd = (op.apply(X + h * dX, rels, table + h * dR)
              - op.apply(X - h * dX, rels, table - h * dR)) / (2 * h)
        GX, rel_ids, GR = op.vjp(X, rels, table, G)
        assert np.sum(G * fd) == pytest.approx(
            np.sum(GX * dX) + np.sum(GR * dR[rel_ids]), rel=1e-7)


class TestProjectConstraints:
    def test_normalizes_3_4_5(self):
        p = make_params(ModelKind.ROTATE, dim=4, seed=12)
        p.relation[0, :2] = [3.0, 4.0]
        project_constraints(p)
        assert p.relation[0, 0] == pytest.approx(0.6)
        assert p.relation[0, 1] == pytest.approx(0.8)

    def test_idempotent_on_unit(self):
        p = make_params(ModelKind.ROTATE, dim=8, seed=13)
        before = p.relation.copy()
        project_constraints(p)
        assert np.max(np.abs(p.relation - before)) < 1e-15

    def test_zero_coordinate_reset(self):
        p = make_params(ModelKind.ROTATE, dim=4, seed=14)
        p.relation[1, 2:4] = 0.0
        project_constraints(p)
        assert p.relation[1, 2] == 1.0
        assert p.relation[1, 3] == 0.0

    def test_noop_for_other_kinds(self):
        p = make_params(ModelKind.DISTMULT, seed=15)
        before = p.relation.copy()
        project_constraints(p)
        assert np.array_equal(p.relation, before)


class TestScoreProperties:
    def test_bilinear_linear_in_head(self):
        rng = np.random.default_rng(16)
        for kind in (ModelKind.CP, ModelKind.DISTMULT, ModelKind.COMPLEX, ModelKind.RESCAL):
            p = make_params(kind, n_ent=6, dim=6, seed=17)
            for _ in range(10):
                h1, h2, t = rng.choice(6, size=3, replace=False)
                r = rng.integers(0, 3)
                p2 = p.copy()
                p2.entity[h1] = p.entity[h1] + p.entity[h2]
                s12 = score(p2, h1, int(r), int(t))
                s1 = score(p, int(h1), int(r), int(t))
                # scoring h2's embedding under h1's slot
                p3 = p.copy()
                p3.entity[h1] = p.entity[h2]
                s2 = score(p3, int(h1), int(r), int(t))
                assert s12 == pytest.approx(s1 + s2, rel=1e-9, abs=1e-12)

    def test_complex_symmetric_under_real_relation(self):
        p = make_params(ModelKind.COMPLEX, n_ent=6, dim=6, seed=18)
        p.relation[:, 1::2] = 0.0  # purely real relation vectors
        for h, r, t in [(0, 0, 1), (2, 1, 3), (4, 2, 5)]:
            assert score(p, h, r, t) == pytest.approx(score(p, t, r, h))

    def test_rotate_global_phase_invariance(self):
        rng = np.random.default_rng(19)
        p = make_params(ModelKind.ROTATE, n_ent=5, dim=6, seed=20)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        p2 = p.copy()
        ec = cview(p2.entity)
        ec *= phase
        for h, r, t in [(0, 0, 1), (2, 1, 3), (4, 2, 0)]:
            assert score(p2, h, r, t) == pytest.approx(score(p, h, r, t), abs=1e-10)


class TestScoreGradients:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_match_central_differences(self, kind):
        rng = np.random.default_rng(21)
        p = make_params(kind, n_ent=5, n_rel=3, dim=4, seed=22)
        shapes = {n: a.shape for n, a in p.blocks().items()}
        step = 1e-5
        for _ in range(5):
            h, t = rng.integers(0, 5, size=2)
            r = int(rng.integers(0, 3))
            _, ctx = forward_all_tails(p, np.array([h]), np.array([r]))
            acc = GradAccumulator()
            backward_all_tails(p, ctx, np.eye(p.n_entities)[[t]], acc)
            grads = densify(acc.finalize(), shapes)
            for name, arr in p.blocks().items():
                direction = rng.normal(size=arr.shape)
                pp, pm = p.copy(), p.copy()
                pp.blocks()[name] += step * direction
                pm.blocks()[name] -= step * direction
                fd = (score(pp, int(h), r, int(t)) - score(pm, int(h), r, int(t))) / (
                    2 * step
                )
                an = float(np.sum(grads[name] * direction))
                assert abs(an - fd) <= 1e-4 * max(abs(fd), abs(an), 1e-6), (kind, name)


def _raised_from(phrase):
    """(module, function) of every function of ``erkg`` that raises a
    string holding ``phrase``."""
    found = set()
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Raise) and any(
                        isinstance(c, ast.Constant) and isinstance(c.value, str)
                        and phrase in c.value for c in ast.walk(node)):
                    found.add((path.name, fn.name))
    return found


@pytest.mark.parametrize("phrase, home", [
    ("penalty does not support", ("regularizers.py", "check_penalty")),
    ("requires an even dim", ("models.py", "check_dim")),
    ("(n, 3) array of ids", ("models.py", "triple_ids")),
    ("must be an integer >= 1", ("errors.py", "check_count")),
])
def test_each_input_rule_is_raised_from_one_function(phrase, home):
    """The kind x penalty rule, the even-dim rule, the (n, 3) integer-id
    rule and the integer >= 1 rule each have one home; every other caller
    calls it."""
    assert _raised_from(phrase) == {home}


def test_no_module_defines_or_calls_validate():
    """Configs check themselves once, when built: no module of ``erkg``
    defines a ``validate`` method or calls one, so no second path checks
    them again or leaves them unchecked."""
    found = set()
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "validate" in {getattr(node, key, None) for key in ("name", "attr", "id")}:
                found.add((path.name, node.lineno))
    assert found == set()


def test_models_knows_no_penalty():
    """``models`` declares the parameter layout alone: the n3 kind set and
    ER's ``"eps"`` gradient block belong to ``regularizers``."""
    tree = ast.parse(Path(models.__file__).read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert "N3_KINDS" not in names and "eps" not in strings
