"""Tests of the benchmark's own code: the reference evaluator and the generator.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import filecmp
import json

import numpy as np
import pytest

import checks
import gen
from ref import PL, RefNet, crossing_level, max_cycle_mean, spectral_radius
from sglab.dynamics import as_operator
from sglab.network import network_from_dict


def random_gain(rng) -> dict:
    kind = rng.integers(3)
    if kind == 0:
        return gen.linear(rng.uniform(0.05, 3.0))
    if kind == 1:
        return gen.pl(rng, (0.05, 3.0), n_seg=int(rng.integers(1, 6)))
    return gen.power(rng, rng.uniform(0.1, 2.0))


def random_net(rng, maf: str) -> dict:
    n = int(rng.integers(2, 9))
    pairs = [(j, i) for i in range(n) for j in range(n) if i != j and rng.random() < 0.5] or [(1, 0)]
    return gen.edge_net(n, maf, [(j, i, random_gain(rng)) for j, i in pairs])


def columns(rng, n: int) -> np.ndarray:
    """Random columns spanning several decades, with exact zeros and knot hits mixed in."""
    s = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), size=(n, 64)))
    s[:, :4] = 0.0
    s[rng.random(s.shape) < 0.1] = 0.0
    s[:, 4] = 1.0
    return s


@pytest.mark.parametrize("maf", ["max", "sum"])
def test_reference_matches_gain_operator(maf):
    rng = np.random.default_rng(2024)
    for _ in range(40):
        data = random_net(rng, maf)
        op = as_operator(network_from_dict(data)[0])
        ref = RefNet(data)
        s = columns(rng, ref.n)
        got, want = op(s), ref.apply(s)
        if maf == "max":
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert np.array_equal(op(s[:, 5]), got[:, 5])


def test_pl_evaluation_at_knots_and_past_the_last_one():
    g = PL([0.0, 1.0, 3.0], [0.0, 2.0, 3.0], 4.0)
    assert list(g(np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]))) == [0.0, 1.0, 2.0, 2.5, 3.0, 11.0]


def test_linear_class_rates():
    a = np.array([[0.0, 0.5], [2.0, 0.0]])
    assert spectral_radius(a) == pytest.approx(1.0)
    assert max_cycle_mean(a) == pytest.approx(1.0)
    assert max_cycle_mean(np.array([[0.0, 0.25, 0.0], [0.0, 0.0, 0.5], [4.0, 0.0, 0.0]])) == pytest.approx(0.5 ** (1 / 3))


def test_crossing_level_of_a_kinked_gain():
    # slope 1/2 up to x = 2, then slope 3: crosses the identity where 1 + 3 (x - 2) = x, at x = 2.5
    g = {"type": "pl", "points": [[0.0, 0.0], [2.0, 1.0]], "final_slope": 3.0}
    assert crossing_level(RefNet(gen.edge_net(2, "max", [(0, 1, g), (1, 0, gen.linear(0.5))]))) == 2.5
    assert crossing_level(RefNet(gen.edge_net(2, "sum", [(0, 1, g), (1, 0, g)]))) == 2.5
    assert crossing_level(RefNet(gen.edge_net(2, "max", [(0, 1, gen.linear(0.5)), (1, 0, gen.linear(0.5))]))) == np.inf


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a = gen.write(workload, 11, tmp_path / "a")
    b = gen.write(workload, 11, tmp_path / "b")
    c = gen.write(workload, 12, tmp_path / "c")
    names = [f"{it['name']}.json" for it in a]
    assert names == [f"{it['name']}.json" for it in b] == [f"{it['name']}.json" for it in c]
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert match == names and not mismatch and not errors
    assert [it["paths"] for it in a] == [it["paths"] for it in b]
    _, differ, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", names, shallow=False)
    assert differ  # another seed, other gains


def test_fleet_and_lattice_contract_with_margin():
    for workload in ("fleet", "lattice"):
        for it in gen.generate(workload, 3):
            if it["name"] == "nearcrit":
                continue
            net = RefNet(it["net"])
            a = net.matrix()
            rate = a.max() if net.maf == "max" else a.sum(axis=1).max()
            assert rate * gen.MARGIN < 1.0, it["name"]


@pytest.mark.parametrize("knot, failed", [(2.0**-10, 1), (0.125, 0)])
def test_refutation_below_the_crossing_level_is_a_failed_operation(tmp_path, knot, failed):
    g = {"type": "pl", "points": [[0.0, 0.0], [1.0 / 15.0, 0.5 / 15.0]], "final_slope": 2.0}
    net = gen.edge_net(2, "max", [(0, 1, g), (1, 0, g)])
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"verdicts": [{"status": "fail", "counterexample": {"knot": knot}}]}))
    it = gen.item("x", net, expect=1)
    it["crossing"] = crossing_level(RefNet(net))
    op = {"item": it, "kind": "path", "argv": ["path", "x.json", "--method", "combined"], "files": [str(cert)], "expect": 1}
    report = checks.Report()
    checks.check_path(report, op)
    assert (report.failed, report.correct) == (failed, True)
