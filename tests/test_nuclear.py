import numpy as np
import pytest

from erkg.errors import ConfigError
from erkg.nuclear import (
    VARIANTS,
    check_instance,
    make_instance,
    nuclear_estimate,
    objective_min,
)

# frozen outputs of the 50-restart optimization oracle on the seed-0
# (3, 2, 3, D=2, t=2, bilinear) instance
PINNED_NUCLEAR_SEED0 = 2.2879580407246425
PINNED_THM1_SEED0 = 24.168141034546654


def test_scipy_is_a_declared_dependency():
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert any(d.split(">")[0].split("=")[0].strip() == "scipy" for d in deps)


class TestMakeInstance:
    def test_deterministic(self):
        a = make_instance(3, 2, 3, 2, 2, "bilinear", seed=1)
        b = make_instance(3, 2, 3, 2, 2, "bilinear", seed=1)
        assert np.array_equal(a.target, b.target)

    def test_rank_one_target(self):
        inst = make_instance(4, 3, 4, 1, 2, "bilinear", seed=2)
        mat = inst.target.reshape(4, -1)
        s = np.linalg.svd(mat, compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            make_instance(0, 2, 3, 2, 2, "bilinear", 0)
        with pytest.raises(ConfigError):
            make_instance(3, 2, 3, 2, 4, "bilinear", 0)
        with pytest.raises(ConfigError):
            make_instance(3, 2, 3, 2, 2, "spiral", 0)


class TestNuclearEstimate:
    def test_rank_one_is_norm_product(self):
        inst = make_instance(3, 2, 3, 1, 2, "bilinear", seed=9)
        rng = np.random.default_rng(9)
        P = rng.uniform(-1, 1, (3, 1))
        R = rng.uniform(-1, 1, (2, 1))
        Q = rng.uniform(-1, 1, (3, 1))
        exact = float(np.linalg.norm(P) * np.linalg.norm(R) * np.linalg.norm(Q))
        est = nuclear_estimate(inst, restarts=10)
        assert est == pytest.approx(exact, rel=0.01)

    def test_zero_tensor(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=0)
        inst.target = np.zeros_like(inst.target)
        assert nuclear_estimate(inst, restarts=3) == pytest.approx(0.0, abs=1e-10)

    def test_pinned_regression_value(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=0)
        est = nuclear_estimate(inst, restarts=50)
        assert est == pytest.approx(PINNED_NUCLEAR_SEED0, rel=1e-3)

    def test_scaling_covariance(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=3)
        n1 = nuclear_estimate(inst, restarts=10)
        inst.target = 3.0 * inst.target
        n3 = nuclear_estimate(inst, restarts=10)
        assert n3 == pytest.approx(3.0 * n1, rel=0.02)


class TestObjectiveMin:
    def test_zero_tensor_all_variants(self):
        for variant, var in VARIANTS.items():
            inst = make_instance(3, 2, 3, 2, var.norm_order, var.mechanism, seed=0)
            inst.target = np.zeros_like(inst.target)
            assert objective_min(inst, variant, restarts=2) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_amgm_rank_one_equals_nuclear(self):
        inst = make_instance(3, 2, 3, 1, 2, "bilinear", seed=11)
        nuc = nuclear_estimate(inst, restarts=10)
        amg = objective_min(inst, "amgm4", restarts=10)
        assert amg == pytest.approx(nuc, rel=0.01)

    def test_pinned_thm1_regression_value(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=0)
        value = objective_min(inst, "thm1", restarts=50)
        assert value == pytest.approx(PINNED_THM1_SEED0, rel=1e-3)

    def test_mechanism_pairing_enforced(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=0)
        with pytest.raises(ConfigError):
            objective_min(inst, "thm2", restarts=2)
        inst_d = make_instance(3, 2, 3, 2, 2, "distance", seed=0)
        with pytest.raises(ConfigError):
            objective_min(inst_d, "thm1", restarts=2)

    def test_norm_order_pairing_enforced(self):
        inst = make_instance(3, 2, 3, 2, 3, "bilinear", seed=0)
        with pytest.raises(ConfigError):
            objective_min(inst, "thm1", restarts=2)


class TestCheckInstance:
    def test_amgm_identity_on_seeds(self):
        # restart-cheap version of the acceptance run
        for seed in range(2):
            inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed)
            rep = check_instance(inst, "amgm4", restarts=15)
            assert 0.95 <= rep.ratio <= 1.05
            assert rep.equality_residual < 0.05
            assert rep.reconstruction_residual < 1e-8
            assert not rep.flagged

    def test_rank_one_bilinear_balanced(self):
        inst = make_instance(3, 2, 3, 1, 2, "bilinear", seed=21)
        rep = check_instance(inst, "amgm4", restarts=10)
        assert rep.equality_residual < 0.05

    def test_thm_ratio_reported_and_flagged(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=0)
        rep = check_instance(inst, "thm1", restarts=6)
        assert rep.reconstruction_residual < 1e-8
        assert rep.ratio == pytest.approx(
            rep.lhs_value / rep.nuclear_value, rel=1e-12
        )
        # the literal per-triple statement overshoots at these sizes: the
        # report flags it instead of asserting equality
        if not 0.90 <= rep.ratio <= 1.10:
            assert rep.flagged

    def test_feasible_restart_counts(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=1)
        rep = check_instance(inst, "amgm4", restarts=3)
        assert 1 <= rep.lhs_feasible <= rep.restarts
        assert 1 <= rep.nuclear_feasible <= rep.restarts
        assert rep.to_json_dict()["lhs_feasible"] == rep.lhs_feasible

    def test_upper_bound_sanity(self):
        # any feasible factorization scores at least the nuclear minimum
        from erkg.nuclear import _multi_restart, _nuclear_grads, _variant_grads

        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=4)
        nuc = nuclear_estimate(inst, restarts=12)
        res = _multi_restart(
            inst,
            lambda P, R, Q: _variant_grads(P, R, Q, "thm1"),
            restarts=4,
            salt=1,
        )
        plugged = _nuclear_grads(res.P, res.R, res.Q, 2)[0]
        assert plugged >= nuc - 1e-6

    def test_balancedness_improves_with_restarts(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=6)
        r1 = check_instance(inst, "amgm4", restarts=2)
        r2 = check_instance(inst, "amgm4", restarts=25)
        assert r2.lhs_value <= r1.lhs_value + 1e-9
        assert r2.equality_residual <= max(r1.equality_residual, 0.05)
