import numpy as np
import pytest

from sglab import (
    MAX,
    SUM,
    MafSpec,
    NetworkError,
    build_network,
    chain_template,
    gain_from_descriptor,
    graph_diameter,
    identity,
    is_strongly_connected,
    linear,
    neighborhood,
    network_from_dict,
    pointwise_min,
    subnetwork,
)
from conftest import random_network


class TestBuild:
    def test_two_node_max(self, two_node_half):
        net = two_node_half
        assert net.n == 2 and len(net.edges) == 2
        assert net.eta(1.0) == 0.5
        assert net.xi(1.0) == 1.0

    def test_unstable_gains_still_build(self, two_node_double):
        # instability is a dynamics property, not a build error
        assert two_node_double.eta(1.0) == 2.0

    def test_chain_template(self, chain10):
        assert len(chain10.edges) == 18
        assert max(len(nb) for nb in chain10.graph.in_neighbors) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(NetworkError):
            build_network(2, [(0, 0, linear(0.5))], MAX)

    def test_missing_gain_rejected(self):
        with pytest.raises(NetworkError):
            build_network(2, [(1, 0, 0.5)], MAX)

    def test_custom_maf_monotonicity_falsified(self):
        bad = MafSpec("custom", func=lambda v: float(np.max(v)) * (-1.0), modulus=linear(2.0), xi=identity())
        with pytest.raises(NetworkError):
            build_network(2, [(1, 0, linear(0.5))], (bad, MAX))

    def test_custom_maf_modulus_falsified(self):
        # a slope-10 rule cannot satisfy a slope-1 declared modulus
        steep = MafSpec("custom", func=lambda v: 10.0 * float(np.max(v)), modulus=identity(), xi=identity())
        with pytest.raises(NetworkError):
            build_network(2, [(1, 0, linear(0.5))], (steep, MAX))

    def test_custom_maf_with_convex_positivity_bound(self):
        from sglab import MonotoneSamples, Side, envelope

        # no PL function minorizes r^2 near zero, so the declared bound is a
        # below-envelope of squared samples (tiny first slope); its chords sit
        # slightly above r^2 between knots, within the build-time slack
        rs = np.concatenate(([0.0], np.geomspace(1e-5, 4.0, 200)))
        xi_decl = envelope(MonotoneSamples(rs, rs**2), Side.BELOW)
        sq = MafSpec("custom", func=lambda v: float(np.max(v)) ** 2, modulus=linear(8.0), xi=xi_decl)
        net = build_network(2, [(1, 0, linear(0.5)), (0, 1, linear(0.5))], (sq, sq))
        grid = np.concatenate(([0.0], np.geomspace(0.01, 2.0, 24)))
        np.testing.assert_allclose(net.xi(grid), xi_decl(grid), rtol=1e-12)
        assert np.all(net.xi(grid[1:]) > 0)

    def test_eta_below_every_gain(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            net = random_network(rng)
            r = rng.uniform(0, 10, 100)
            floor = net.eta(r)
            for _, _, g in net.edges:
                assert np.all(floor <= g(r) + 1e-12)

    def test_eta_is_lazy_pointwise_min_of_all_edge_gains(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            base = random_network(rng)
            pool = [g for _, _, g in base.edges]
            net = build_network(base.n, [(j, i, pool[int(rng.integers(len(pool)))]) for j, i, _ in base.edges], base.mafs)
            assert "eta" not in vars(net) and "xi" not in vars(net)
            ref = pointwise_min([g for _, _, g in net.edges])
            assert net.eta.xs.tobytes() == ref.xs.tobytes() and net.eta.ys.tobytes() == ref.ys.tobytes()
            assert net.eta.final_slope == ref.final_slope


class TestNeighborhood:
    def test_depth_zero(self, two_node_half):
        assert neighborhood(two_node_half.graph, 0, 0) == {0}

    def test_depth_one_is_self_plus_inputs(self, two_node_half):
        assert neighborhood(two_node_half.graph, 0, 1) == {0, 1}

    def test_chain_ball(self, chain10):
        assert neighborhood(chain10.graph, 5, 2) == {3, 4, 5, 6, 7}


class TestSubnetwork:
    def test_single_node_drops_edges(self, two_node_half):
        sub = subnetwork(two_node_half, [0])
        assert sub.n == 1 and len(sub.edges) == 0

    def test_chain_prefix(self, chain10):
        sub = subnetwork(chain10, range(5))
        ref = chain_template(linear(0.25), SUM).instantiate(5)
        assert sub.graph.in_neighbors == ref.graph.in_neighbors

    def test_full_restriction_is_identity(self, chain10):
        sub = subnetwork(chain10, range(10))
        assert sub.graph.in_neighbors == chain10.graph.in_neighbors
        assert len(sub.edges) == len(chain10.edges)

    def test_empty_rejected(self, chain10):
        with pytest.raises(NetworkError):
            subnetwork(chain10, [])


class TestConnectivity:
    def test_examples(self, two_node_half, chain10):
        assert is_strongly_connected(two_node_half.graph)
        assert graph_diameter(two_node_half.graph) == 1
        assert is_strongly_connected(chain10.graph)

    def test_directed_chain_not_strong(self):
        net = build_network(3, [(0, 1, linear(0.5)), (1, 2, linear(0.5))], MAX)
        assert not is_strongly_connected(net.graph)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            edges = [(j, i, linear(0.5)) for i in range(n) for j in range(n) if i != j and rng.random() < 0.3]
            if not edges:
                edges = [(1, 0, linear(0.5))]
            net = build_network(n, edges, MAX)
            # brute-force reachability closure
            adj = np.zeros((n, n), dtype=bool)
            for j, i, _ in edges:
                adj[j, i] = True
            reach = adj | np.eye(n, dtype=bool)
            for _ in range(n):
                reach = reach | (reach @ reach)
            assert is_strongly_connected(net.graph) == bool(np.all(reach))


class TestTruncation:
    def test_boundary_degrees(self):
        tpl = chain_template(linear(0.25), SUM)
        for n in (2, 5, 17):
            net = tpl.instantiate(n)
            degs = [len(nb) for nb in net.graph.in_neighbors]
            assert degs[0] == 1 and degs[-1] == 1
            assert all(d == 2 for d in degs[1:-1])
            for i, nbrs in enumerate(net.graph.in_neighbors):
                assert i not in nbrs

    def test_zero_offset_rejected(self):
        from sglab import TruncationTemplate

        with pytest.raises(NetworkError):
            TruncationTemplate(((0, linear(0.5)),), SUM)


class TestParsing:
    def test_round_trip(self):
        data = {
            "nodes": 2,
            "edges": [
                {"from": 1, "to": 0, "gain": {"type": "linear", "k": 0.5}},
                {"from": 0, "to": 1, "gain": {"type": "pl", "points": [[0, 0], [1, 2]], "final_slope": 2}},
            ],
            "maf": "max",
        }
        net, notes = network_from_dict(data)
        assert net.n == 2 and notes == []
        assert net.edge_gain[(0, 1)](0.5) == 1.0

    def test_power_note(self):
        data = {"nodes": 2, "edges": [{"from": 1, "to": 0, "gain": {"type": "power", "c": 1.0, "p": 2.0}}], "maf": "sum"}
        net, notes = network_from_dict(data)
        assert len(notes) == 1 and "discretized" in notes[0]

    def test_template_file(self):
        data = {
            "nodes": 6,
            "template": {"offsets": [{"offset": -1, "gain": {"type": "linear", "k": 0.25}}]},
            "maf": "sum",
        }
        net, _ = network_from_dict(data)
        assert len(net.edges) == 5

    def test_bad_edge_position_reported(self):
        data = {"nodes": 2, "edges": [{"from": 1, "to": 0, "gain": {"type": "nope"}}], "maf": "max"}
        with pytest.raises(NetworkError, match="position 0"):
            network_from_dict(data)

    @pytest.mark.parametrize(
        "desc",
        [
            {"type": "linear"},
            {"type": "linear", "k": "steep"},
            {"type": "power", "c": 1.0},
            {"type": "power", "c": 1.0, "p": 2.0, "range": [1.0]},
            {"type": "pl", "points": [0, 1], "final_slope": 1.0},
            {"type": "pl", "points": [[0, 0], [1, 2]]},
            {"type": "pl", "points": [[0, 0], [1, 2]], "final_slope": -1.0},
            {"type": "nope"},
            None,
            [1, 2],
        ],
    )
    def test_malformed_descriptor_is_network_error(self, desc):
        with pytest.raises(NetworkError):
            gain_from_descriptor(desc)

    def test_bad_template_offset_position_reported(self):
        data = {"nodes": 3, "template": {"offsets": [{"offset": 1, "gain": {"type": "linear", "k": 0.5}}, {"offset": -1}]}}
        with pytest.raises(NetworkError, match="position 1"):
            network_from_dict(data)
