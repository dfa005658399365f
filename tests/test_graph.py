"""sglab's own graph code: simple cycles, strong connectivity, diameter,
and the cycle-gain check that composes along the enumerated cycles."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sglab import MAX, KFun, NetworkError, build_network, graph_diameter, id_plus, identity, is_strongly_connected, linear, network_from_dict
from sglab.network import Digraph, _components
from sglab.smallgain import SgcVerdict, _cycles, cycle_gain_check
from conftest import random_kfun, random_network

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def random_digraph(rng, n: int) -> Digraph:
    p = rng.uniform(0.15, 0.7)
    return Digraph(n, tuple(tuple(j for j in range(n) if j != i and rng.random() < p) for i in range(n)))


def net_of(graph: Digraph):
    edges = [(j, i, linear(0.5)) for i, nbrs in enumerate(graph.in_neighbors) for j in nbrs]
    return build_network(graph.n, edges, MAX)


def brute_force_cycles(graph: Digraph) -> list[list[int]]:
    """Every simple cycle as the node list from its least node, in lexicographic order."""
    edges = {(j, i) for i, nbrs in enumerate(graph.in_neighbors) for j in nbrs}
    found = []
    for s in range(graph.n):
        rest = range(s + 1, graph.n)
        for k in range(len(rest) + 1):
            for tail in itertools.permutations(rest, k):
                loop = (s,) + tail + (s,)
                if all(e in edges for e in zip(loop, loop[1:])):
                    found.append(list(loop[:-1]))
    return sorted(found)


class TestCycles:
    def test_against_brute_force(self):
        rng = np.random.default_rng(2024)
        sizes = [1, 2, 3] + [int(rng.integers(2, 8)) for _ in range(150)]
        for n in sizes:
            graph = random_digraph(rng, n)
            expected = brute_force_cycles(graph)
            k = len(expected)
            cycles, truncated = _cycles(net_of(graph), k + 5)
            assert cycles == expected and not truncated
            for limit in sorted({1, max(k - 1, 1), k, k + 1}):
                cycles, truncated = _cycles(net_of(graph), limit)
                assert cycles == expected[:limit]
                assert truncated == (k > limit)

    def test_golden_networks(self):
        expected = {
            "cross3_max": [[0, 1, 2]],
            "ring3_max": [[0, 1, 2]],
            "sum4_linear": [[0, 1], [0, 1, 2, 3], [0, 3], [0, 3, 2, 1], [1, 2], [2, 3]],
            "sum5_pl_power": [[0, 1], [0, 1, 2, 3, 4], [0, 4], [0, 4, 3, 2, 1], [1, 2], [2, 3], [3, 4]],
        }
        for name, cycles in expected.items():
            net, _ = network_from_dict(json.loads((GOLDEN / f"{name}.json").read_text()))
            assert _cycles(net, 64) == (cycles, False)

    def test_acyclic_chain_has_no_cycles(self):
        n = 3000
        graph = Digraph(n, ((),) + tuple((i - 1,) for i in range(1, n)))
        assert _cycles(net_of(graph), 64) == ([], False)

    def test_bidirected_chain_cycles_are_neighbor_pairs(self):
        n = 1000
        graph = Digraph(n, tuple(tuple(j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n)))
        cycles, truncated = _cycles(net_of(graph), 64)
        assert cycles == [[i, i + 1] for i in range(64)] and truncated


def distance_oracle(graph: Digraph) -> np.ndarray:
    """Hop counts d[j, i] from j to i by repeated boolean matrix products (inf where unreached)."""
    n = graph.n
    adj = np.zeros((n, n), dtype=bool)
    for i, nbrs in enumerate(graph.in_neighbors):
        adj[list(nbrs), i] = True
    dist = np.full((n, n), np.inf)
    reach = np.eye(n, dtype=bool)
    for k in range(n):
        dist[reach & np.isinf(dist)] = k
        reach = (reach.astype(int) @ adj.astype(int)) > 0
    return dist


class TestConnectivity:
    def test_against_matrix_oracle(self):
        rng = np.random.default_rng(77)
        graphs = [Digraph(1, ((),)), Digraph(2, ((), ())), Digraph(3, ((1,), (0,), ()))]
        graphs += [random_digraph(rng, int(rng.integers(1, 9))) for _ in range(200)]
        strong = 0
        for graph in graphs:
            dist = distance_oracle(graph)
            connected = bool(np.all(np.isfinite(dist)))
            assert is_strongly_connected(graph) == connected
            comp = np.asarray(_components(graph.out_neighbors))
            assert np.array_equal(comp[:, None] == comp[None, :], np.isfinite(dist) & np.isfinite(dist.T))
            if connected:
                strong += 1
                assert graph_diameter(graph) == int(dist.max())
            else:
                with pytest.raises(NetworkError):
                    graph_diameter(graph)
        assert 20 < strong < len(graphs) - 20

    def test_single_node(self):
        graph = Digraph(1, ((),))
        assert is_strongly_connected(graph) and graph_diameter(graph) == 0


def frozen_cycle_gain_check(net, rho=None, test_grid=None) -> SgcVerdict:
    """The cycle-gain check as it composed every cycle from scratch, kept to
    pin that shared prefixes and per-edge enlarged gains give the same bits."""
    if test_grid is None:
        test_grid = [2.0**k for k in range(-8, 9)]
    grid = np.asarray(sorted(float(g) for g in test_grid))
    r_top = float(grid[-1])
    cycles, truncated = _cycles(net, 10_000)
    checked = 0
    for cyc in cycles:
        f = identity()
        loop = list(cyc) + [cyc[0]]
        for a, b in zip(loop, loop[1:]):
            step = net.edge_gain[(a, b)]
            if rho is not None:
                step = id_plus(rho).compose(step)
            f = step.compose(f)
        checked += 1
        if f._out_slopes[0] >= 1.0:
            r_bad = min(f.xs[1] if len(f.xs) > 1 else r_top, r_top) / 2.0
            return SgcVerdict("cycle_gain", "fail", counterexample={"cycle": list(cyc), "r": float(r_bad), "value": float(f(r_bad))}, samples=checked)
        probes = np.concatenate([f.xs[1:][f.xs[1:] <= r_top], grid])
        vals = f(probes)
        bad = vals >= probes
        if np.any(bad):
            k = int(np.argmax(bad))
            return SgcVerdict("cycle_gain", "fail", counterexample={"cycle": list(cyc), "r": float(probes[k]), "value": float(vals[k])}, samples=checked)
    assert not truncated
    return SgcVerdict("cycle_gain", "pass", witness={"cycles_checked": checked, "r_max": r_top}, samples=checked)


def test_cycle_gain_check_matches_composition_from_scratch():
    rng = np.random.default_rng(515)
    statuses = set()
    for _ in range(60):
        net = random_network(rng, n_max=7, maf=MAX, slope_range=(0.2, 1.3), p_edge=0.6)
        for rho in (None, linear(0.05), random_kfun(rng, slope_range=(0.01, 0.2))):
            got, want = cycle_gain_check(net, rho).to_dict(), frozen_cycle_gain_check(net, rho).to_dict()
            assert got == want
            statuses.add(got["status"])
    assert statuses == {"pass", "fail"}


def test_cycle_gain_check_composes_each_prefix_once(monkeypatch):
    n = 12
    nbrs = [(i - 2, i - 1, i + 1, i + 2) for i in range(n)]
    edges = [(j, i, KFun(np.array([0.0, 1.0]), np.array([0.0, 0.5]), 0.6)) for i in range(n) for j in nbrs[i] if 0 <= j < n]
    net = build_network(n, edges, MAX)
    calls = []
    real = KFun.compose
    monkeypatch.setattr(KFun, "compose", lambda f, g: calls.append(1) or real(f, g))
    assert cycle_gain_check(net).status == "pass"
    ours = len(calls)
    calls.clear()
    assert frozen_cycle_gain_check(net).status == "pass"
    assert ours < 0.7 * len(calls)


def test_cli_check_does_not_import_networkx(tmp_path):
    argv = ["check", str(GOLDEN / "ring3_max.json"), "--out", str(tmp_path / "cert.json")]
    code = f"import sys, sglab.cli; code = sglab.cli.main({argv!r}); print(code, 'networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120, env=env)
    assert done.stdout.split() == ["0", "False"]
