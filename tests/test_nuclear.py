import re
from dataclasses import asdict

import numpy as np
import pytest

from erkg import lanes, nuclear
from erkg.errors import ConfigError, InfeasibleError
from erkg.nuclear import VARIANTS, check_instance, make_instance

# frozen outputs of the 50-restart optimization oracle on the seed-0
# (3, 2, 3, D=2, t=2, bilinear) instance
PINNED_NUCLEAR_SEED0 = 2.2879580407246425
PINNED_THM1_SEED0 = 24.168141034546654


def _nuclear_opt(instance, restarts):
    return _variant_opt(instance, "nuclear", restarts)


def _variant_opt(instance, variant, restarts):
    """One set of restarts, with BLAS pinned as ``check_instance`` pins it:
    at default threading a busy second core slows these tiny calls up to
    100-fold."""
    with lanes.pinned("numpy", "scipy"):
        return nuclear._optimize(instance, [variant], restarts)[0]


def test_scipy_is_a_declared_dependency():
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert any(d.split(">")[0].split("=")[0].strip() == "scipy" for d in deps)
    # nuclear._lbfgsb calls the 17-argument setulb of scipy's C port of
    # L-BFGS-B, first released in scipy 1.15
    floors = dict(re.fullmatch(r"([\w.-]+)\s*>=\s*([\d.]+)", d).groups() for d in deps)
    assert tuple(map(int, floors["scipy"].split("."))) >= (1, 15)
    import scipy

    assert tuple(map(int, scipy.__version__.split(".")[:2])) >= (1, 15)


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


@pytest.mark.parametrize("call, match", [
    (lambda: make_instance(3.0, 2, 3, 2, 2, "bilinear", 0), "^I must be an integer, got 3.0$"),
    (lambda: make_instance(3, 2, 3, "2", 2, "bilinear", 0), "^D must be an integer, got '2'$"),
    (lambda: make_instance(3, 2, 3, 2, 2.0, "bilinear", 0),
     "^norm order t must be an integer, got 2.0$"),
    (lambda: check_instance(make_instance(3, 2, 3, 2, 2, "bilinear", 0), "amgm4", "2"),
     "^restarts must be an integer, got '2'$"),
    (lambda: check_instance(make_instance(3, 2, 3, 2, 2, "bilinear", 0), "amgm4", 2.0),
     "^restarts must be an integer, got 2.0$"),
], ids=["I", "D", "t", "restarts str", "restarts float"])
def test_arguments_that_are_not_integers_are_named(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


class TestNuclearEstimate:
    def test_rank_one_is_norm_product(self):
        inst = make_instance(3, 2, 3, 1, 2, "bilinear", seed=9)
        rng = np.random.default_rng(9)
        P = rng.uniform(-1, 1, (3, 1))
        R = rng.uniform(-1, 1, (2, 1))
        Q = rng.uniform(-1, 1, (3, 1))
        exact = float(np.linalg.norm(P) * np.linalg.norm(R) * np.linalg.norm(Q))
        est = _nuclear_opt(inst, 10).value
        assert est == pytest.approx(exact, rel=0.01)

    def test_zero_tensor(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=0)
        inst.target = np.zeros_like(inst.target)
        assert _nuclear_opt(inst, 3).value == pytest.approx(0.0, abs=1e-10)

    def test_pinned_regression_value(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=0)
        est = _nuclear_opt(inst, 50).value
        assert est == pytest.approx(PINNED_NUCLEAR_SEED0, rel=1e-3)

    def test_scaling_covariance(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=3)
        n1 = _nuclear_opt(inst, 10).value
        inst.target = 3.0 * inst.target
        n3 = _nuclear_opt(inst, 10).value
        assert n3 == pytest.approx(3.0 * n1, rel=0.02)


class TestObjectiveMin:
    def test_zero_tensor_all_variants(self):
        for variant, var in VARIANTS.items():
            inst = make_instance(3, 2, 3, 2, var.norm_order, var.mechanism, seed=0)
            inst.target = np.zeros_like(inst.target)
            assert _variant_opt(inst, variant, 2).value == pytest.approx(0.0, abs=1e-10)

    def test_amgm_rank_one_equals_nuclear(self):
        inst = make_instance(3, 2, 3, 1, 2, "bilinear", seed=11)
        nuc = _nuclear_opt(inst, 10).value
        amg = _variant_opt(inst, "amgm4", 10).value
        assert amg == pytest.approx(nuc, rel=0.01)

    def test_pinned_thm1_regression_value(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=0)
        value = _variant_opt(inst, "thm1", 50).value
        assert value == pytest.approx(PINNED_THM1_SEED0, rel=1e-3)

    def test_mechanism_pairing_enforced(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=0)
        with pytest.raises(ConfigError):
            _variant_opt(inst, "thm2", 2)
        inst_d = make_instance(3, 2, 3, 2, 2, "distance", seed=0)
        with pytest.raises(ConfigError):
            _variant_opt(inst_d, "thm1", 2)

    def test_norm_order_pairing_enforced(self):
        inst = make_instance(3, 2, 3, 2, 3, "bilinear", seed=0)
        with pytest.raises(ConfigError):
            _variant_opt(inst, "thm1", 2)


    def test_infeasible_restarts_raise(self, monkeypatch):
        monkeypatch.setattr(nuclear, "FEASIBILITY_TARGET", 0.0)
        inst = make_instance(2, 1, 2, 1, 2, "bilinear", seed=0)
        with pytest.raises(InfeasibleError, match=r"over 2 restarts") as info:
            _nuclear_opt(inst, 2)
        best = re.search(r"\(best (\S+) over", str(info.value)).group(1)
        assert 0.0 <= float(best) < 1e-8


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
        assert asdict(rep)["lhs_feasible"] == rep.lhs_feasible

    def test_upper_bound_sanity(self):
        # any feasible factorization scores at least the nuclear minimum
        from erkg.nuclear import _nuclear_grads

        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=4)
        nuc = _nuclear_opt(inst, 12).value
        res = _variant_opt(inst, "thm1", 4)
        plugged = _nuclear_grads(res.P, res.R, res.Q, 2)[0]
        assert plugged >= nuc - 1e-6

    def test_balancedness_improves_with_restarts(self):
        inst = make_instance(3, 2, 3, 2, 2, "bilinear", seed=6)
        r1 = check_instance(inst, "amgm4", restarts=2)
        r2 = check_instance(inst, "amgm4", restarts=25)
        assert r2.lhs_value <= r1.lhs_value + 1e-9
        assert r2.equality_residual <= max(r1.equality_residual, 0.05)
