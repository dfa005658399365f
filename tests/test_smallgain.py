import numpy as np
import pytest

from sglab import (
    MAX,
    SUM,
    SamplerConfig,
    as_operator,
    build_network,
    cycle_gain_check,
    decayset_coercivity,
    delta_chain,
    graph_diameter,
    identity,
    linear,
    max_mbi_probe,
    neighborhood,
    nji_probe,
    spectral_condition,
    uniform_nji_probe,
)
from conftest import contracting_sum_network, random_network


def small_budget(n=500):
    return SamplerConfig(budget=n)


class TestNjiProbe:
    def test_expanding_fails_at_ones(self, two_node_double):
        v = nji_probe(two_node_double)
        assert v.failed and v.counterexample["s"] == [256.0, 256.0] and v.witness["step"] == 1

    def test_unit_slope_fails_at_ones(self):
        net = build_network(2, [(1, 0, linear(1.0)), (0, 1, linear(1.0))], MAX)
        v = nji_probe(net)
        assert v.failed and v.counterexample["s"] == [256.0, 256.0]

    def test_contracting_passes(self, two_node_half):
        v = nji_probe(two_node_half)
        assert v.status == "pass" and v.witness == {"r": 256.0, "eps": 2.0**-8, "step": 17, "norm": 2.0**-9}

    def test_fail_reverifies(self, two_node_double):
        v = nji_probe(two_node_double)
        s = np.asarray(v.counterexample["s"])
        replay = as_operator(two_node_double)(s)
        np.testing.assert_array_equal(replay, v.counterexample["image"])
        assert np.all(replay >= s)

    def test_expanding_cycle_found(self):
        # expansion only along a 3-cycle with asymmetric gains: the descent
        # from the top of the grid stays above the cycle's joint increases
        net = build_network(
            3,
            [(0, 1, linear(3.0)), (1, 2, linear(1.1)), (2, 0, linear(0.5))],
            MAX,
        )
        v = nji_probe(net)
        assert v.failed
        assert np.all(as_operator(net)(np.asarray(v.counterexample["s"])) >= v.counterexample["s"])


class TestUniformNjiProbe:
    def test_witness_level(self, two_node_half):
        v = uniform_nji_probe(two_node_half, r=1.0, eps=0.5, sampler=small_budget(2000))
        assert v.status == "evidence"
        assert v.witness["n"] == 1 and v.witness["delta"] == 0.5

    def test_expanding_fails(self, two_node_double):
        v = uniform_nji_probe(two_node_double, r=1.0, eps=0.5, sampler=small_budget(200))
        assert v.failed
        s = np.asarray(v.counterexample["s"])
        i = v.counterexample["i"]
        assert s[i] >= 0.5
        # no in-neighborhood coordinate of i decays at this sample
        op = as_operator(two_node_double)
        t = op(s)
        js = sorted(neighborhood(two_node_double.graph, i, v.counterexample["n"]))
        assert not np.any((s[js] >= v.counterexample["delta"]) & (t[js] < s[js]))

    def test_agrees_with_nji_on_random_nets(self):
        # the level eps sits well above the delta-grid floor so decaying
        # witnesses of moderate samples cannot slip below the grid
        rng = np.random.default_rng(77)
        for _ in range(20):
            expanding = rng.random() < 0.5
            slope_range = (1.2, 2.0) if expanding else (0.1, 0.7)
            net = random_network(rng, n_max=4, slope_range=slope_range, p_edge=0.6)
            plain = nji_probe(net)
            uniform = uniform_nji_probe(net, r=1.0, eps=0.25, sampler=SamplerConfig(budget=2000))
            assert plain.failed == uniform.failed


class TestMaxMbiProbe:
    def test_identity_fit(self, two_node_half):
        v = max_mbi_probe(two_node_half, r_grid=[0.25, 1.0, 4.0])
        assert v.status == "evidence"
        fit = v.witness["phi_fit"]
        assert fit["final_slope"] == pytest.approx(1.0)

    def test_divergence_fails(self, two_node_double):
        v = max_mbi_probe(two_node_double, r_grid=[1.0])
        assert v.failed and v.counterexample["r"] == 1.0

    def test_fail_reverifies(self, two_node_double):
        from sglab import StopReason, min_fixed_point

        v = max_mbi_probe(two_node_double, r_grid=[1.0])
        replay = min_fixed_point(two_node_double, v.counterexample["r"] * np.ones(2))
        assert replay.status is StopReason.DIVERGED

    def test_chain3_neumann_bound(self, chain3):
        v = max_mbi_probe(chain3, r_grid=[0.5, 1.0, 2.0])
        fit = v.witness["phi_fit"]
        from sglab import KFun

        phi = KFun(fit["xs"], fit["ys"], fit["final_slope"])
        for r in (0.5, 1.0, 2.0):
            assert phi(r) <= 2.0 * r + 1e-9


class TestCycleGainCheck:
    def test_pass_with_margin(self, two_node_half):
        v = cycle_gain_check(two_node_half, rho=linear(0.1))
        assert v.status == "pass" and v.witness["cycles_checked"] == 1

    def test_fail_slope(self):
        net = build_network(2, [(1, 0, linear(1.5)), (0, 1, linear(1.5))], MAX)
        v = cycle_gain_check(net)
        assert v.failed
        # the reported point really violates: chained gain meets or exceeds r
        assert v.counterexample["value"] >= v.counterexample["r"]

    def test_pass_implies_no_nji_counterexample(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            net = random_network(rng, n_max=4, maf=MAX, slope_range=(0.1, 0.8), p_edge=0.6)
            if cycle_gain_check(net).status == "pass":
                assert not nji_probe(net).failed

    def test_non_max_rejected(self, chain3):
        with pytest.raises(ValueError):
            cycle_gain_check(chain3)


class TestSpectralCondition:
    def test_contracting(self, two_node_half):
        v = spectral_condition(two_node_half)
        assert v.status == "pass" and v.witness["n"] == 1 and v.witness["norm"] == 0.5

    def test_sum_matrix(self):
        net = build_network(2, [(1, 0, linear(0.6)), (0, 1, linear(0.6))], SUM)
        v = spectral_condition(net)
        assert v.status == "pass" and v.witness["n"] == 1 and v.witness["norm"] == 0.6

    def test_supercritical_growth_ratio(self):
        net = build_network(2, [(1, 0, linear(1.1)), (0, 1, linear(1.1))], MAX)
        v = spectral_condition(net)
        assert v.status == "inconclusive" and not v.failed and v.counterexample is None
        assert v.witness["growth_ratio"] == pytest.approx(1.1, abs=1e-9)

    def test_nonlinear_rejected(self):
        from sglab import KFun

        net = build_network(2, [(1, 0, KFun([0, 1], [0, 0.5], 2.0)), (0, 1, linear(0.5))], MAX)
        with pytest.raises(ValueError):
            spectral_condition(net)


class TestDeltaChain:
    def test_identity_two_levels(self):
        ch = delta_chain(identity(), 2, 1.0)
        assert ch.levels == ((0.5, 0.5), (1.0, 1.0))
        assert ch.delta == 0.5

    def test_single_level(self):
        assert delta_chain(identity(), 1, 0.7).delta == 0.7

    def test_double_modulus(self):
        ch = delta_chain(linear(2.0), 2, 1.0)
        assert ch.levels[1] == (1.0, 1.0)
        assert ch.levels[0][0] == 0.5 and ch.delta == 0.25

    def test_soundness_on_random_nets(self):
        # the chain's head slack must force the multi-step decay bound
        rng = np.random.default_rng(89)
        checked = 0
        for _ in range(25):
            net = random_network(rng, n_max=4, slope_range=(0.1, 1.5), p_edge=0.6)
            op = as_operator(net)
            modulus = net.lipschitz_modulus()
            n = int(rng.integers(1, 4))
            eps = float(rng.uniform(0.1, 1.0))
            delta = delta_chain(modulus, n, eps).delta
            candidates = [rng.uniform(0, 2, net.n) for _ in range(40)]
            candidates += [r * np.ones(net.n) for r in (0.25, 0.5, 1.0, 2.0)]
            for s in candidates:
                t1 = op(s)
                tn = s.copy()
                for _ in range(n):
                    tn = op(tn)
                for i in range(net.n):
                    js = sorted(neighborhood(net.graph, i, n - 1))
                    if np.all(t1[js] >= s[js] - delta):
                        checked += 1
                        assert tn[i] >= s[i] - eps - 1e-9
        assert checked > 100


class TestDecaysetCoercivity:
    def test_pair(self, two_node_half):
        assert decayset_coercivity(two_node_half)(1.0) == 0.5

    def test_ring_of_three(self):
        g = linear(0.5)
        ring = build_network(3, [(0, 1, g), (1, 2, g), (2, 0, g)], MAX)
        assert graph_diameter(ring.graph) == 2
        assert decayset_coercivity(ring, n_diam=3)(1.0) == 0.125

    def test_unit_gain_pair(self):
        net = build_network(2, [(1, 0, linear(1.0)), (0, 1, linear(1.0))], MAX)
        phi = decayset_coercivity(net)
        assert phi(1.0) == 1.0

    def test_not_strongly_connected_rejected(self):
        net = build_network(3, [(0, 1, linear(0.5)), (1, 2, linear(0.5))], MAX)
        with pytest.raises(ValueError):
            decayset_coercivity(net)

    def test_below_diameter_rejected(self):
        g = linear(0.5)
        ring = build_network(3, [(0, 1, g), (1, 2, g), (2, 0, g)], MAX)
        with pytest.raises(ValueError):
            decayset_coercivity(ring, n_diam=1)

    def test_sampled_decay_points_pass(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            net = contracting_sum_network(rng, n_max=4)
            from sglab import is_strongly_connected

            if is_strongly_connected(net.graph):
                decayset_coercivity(net)  # raises on violation


@pytest.mark.parametrize("grid", [[], (), np.empty(0)], ids=["list", "tuple", "array"])
def test_empty_grid_refused_by_every_ray_reader(two_node_half, grid):
    from sglab import combined_path, minimal_path, stability_battery

    for run in (stability_battery, max_mbi_probe, cycle_gain_check, minimal_path, combined_path):
        with pytest.raises(ValueError, match="nonempty"):
            run(two_node_half, None, grid)
