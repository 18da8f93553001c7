"""The relation operators of ``models.OPERATORS`` take relation ids and the
table; ``oracles.ROW_OPERATORS`` takes the gathered rows ``table[rels]``.
The two agree bit for bit for every kind but RESCAL, whose grouped GEMMs
sum in another order and whose relation gradient comes one summed block
per distinct relation."""

import numpy as np
import pytest

from erkg.data import KeyedCSR
from erkg.grads import merge_rows
from erkg.models import OPERATORS, ModelKind, init_params
from oracles import ROW_OPERATORS, relation_groups

N_REL, DIM = 6, 8
RELS = {
    # unsorted, relation 4 three times, relation 0 on a single row, and
    # relations 2, 3 and 5 of the table absent from the batch
    "mixed": np.array([4, 1, 4, 0, 1, 4]),
    "all-distinct": np.array([5, 3, 0, 2, 1, 4]),
    "one-relation": np.full(6, 2),
}
RTOL = 1e-12


def methods(kind):
    names = ["apply", "vjp"]
    if hasattr(OPERATORS[kind], "adjoint"):
        names += ["adjoint", "adjoint_vjp"]
    return [(kind, name) for name in names]


CASES = [case for kind in ModelKind for case in methods(kind)]


def assert_rel_close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=RTOL * np.abs(ref).max())


@pytest.mark.parametrize("rels_name", list(RELS))
@pytest.mark.parametrize("kind, name", CASES, ids=lambda c: getattr(c, "value", c))
def test_operator_matches_row_oracle(kind, name, rels_name):
    rels = RELS[rels_name]
    table = init_params(kind, 10, N_REL, DIM, seed=21).relation
    X, G = np.random.default_rng(22).normal(size=(2, len(rels), DIM))
    op, row = getattr(OPERATORS[kind], name), getattr(ROW_OPERATORS[kind], name)
    R = table[rels]
    if not name.endswith("vjp"):
        got, ref = op(X, rels, table), row(X, R)
        if kind == ModelKind.RESCAL:
            assert_rel_close(got, ref)
        else:
            assert got.tobytes() == ref.tobytes()
        return
    GX, rel_ids, GR = op(X, rels, table, G)
    ref_GX, ref_GR = row(X, R, G)
    if kind == ModelKind.RESCAL:
        assert_rel_close(GX, ref_GX)
        assert np.all(np.diff(rel_ids) > 0), "rel_ids sorted and distinct"
        ref_ids, ref_rows = merge_rows([(rels, ref_GR)])
        np.testing.assert_array_equal(rel_ids, ref_ids)
        assert_rel_close(GR, ref_rows)
    else:
        assert GX.tobytes() == ref_GX.tobytes()
        np.testing.assert_array_equal(rel_ids, rels)
        assert GR.tobytes() == ref_GR.tobytes()


@pytest.mark.parametrize("rels_name", list(RELS))
def test_relation_groups_match_oracle(rels_name):
    """RESCAL's grouping, ``KeyedCSR.group`` of the row indices by
    relation, is the stable argsort grouping of ``oracles``."""
    rels = RELS[rels_name]
    ids, bounds, order = KeyedCSR.group(rels, np.arange(len(rels)))
    ref_order, ref_ids, starts, stops = relation_groups(rels)
    np.testing.assert_array_equal(order, ref_order)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(bounds, np.append(starts, stops[-1]))
