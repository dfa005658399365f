"""The verdict and exit-code contract of the command line on valid input.

Seeded random networks (max and sum aggregation, PL gains of slopes 0.1 to
1.5) go through ``sglab check`` and ``sglab path`` with each method.  Every
run must end in exit 0 or 1 with no exception, every verdict must carry
one of the four statuses, exit 1 must come exactly with a ``fail``
verdict, and an ``nji`` fail must replay ``T(s) >= s`` through one
application of the operator.  Draw 2 of the sweep once made ``check`` exit
2 (a stability envelope built from norms that dipped), and draw 54 made
``path --method combined`` end in a traceback (an exhausted cap
escalation in ``max_fixed_point``), then in ``inconclusive`` while the
descent's slack did not cover the tolerance of the top it starts from.
Draw 91 still exhausts the escalation at one knot.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

from sglab import as_operator
from sglab.cli import main
from conftest import random_network

STATUSES = {"pass", "fail", "evidence", "inconclusive"}
COMMANDS = {
    "check": ["check", "--budget", "500"],
    "minimal": ["path", "--method", "minimal"],
    "combined": ["path", "--method", "combined"],
    "orbit": ["path", "--method", "orbit", "--start", "ray:1"],
}


def network_dict(net) -> dict:
    """The network file of a PL-gain network with uniform aggregation, edges in file order."""

    def pl(g):
        return {"type": "pl", "points": list(zip(g.xs.tolist(), g.ys.tolist())), "final_slope": g.final_slope}

    return {"nodes": net.n, "maf": net.uniform_maf, "edges": [{"from": j, "to": i, "gain": pl(g)} for j, i, g in net.edges]}


@lru_cache(maxsize=2)
def sweep_networks(count: int = 60) -> list:
    rng = np.random.default_rng(11)
    return [random_network(rng, n_max=5, slope_range=(0.1, 1.5), p_edge=0.6) for _ in range(count)]


def run(net, command: str, tmp_path) -> tuple[int, list[dict]]:
    """Exit code and verdicts of one command on ``net``, written as a network file."""
    src, out = tmp_path / "net.json", tmp_path / "cert.json"
    src.write_text(json.dumps(network_dict(net)))
    argv = COMMANDS[command]
    code = main([argv[0], str(src)] + argv[1:] + ["--out", str(out)])
    return code, json.loads(out.read_text())["verdicts"] if code in (0, 1) else []


@pytest.mark.parametrize("command", list(COMMANDS))
def test_valid_networks_meet_the_contract(command, tmp_path):
    nets = sweep_networks()
    for d, net in enumerate(nets):
        code, verdicts = run(net, command, tmp_path)
        assert code in (0, 1), f"draw {d}: exit {code}"
        assert {v["status"] for v in verdicts} <= STATUSES, f"draw {d}"
        assert code == int(any(v["status"] == "fail" for v in verdicts)), f"draw {d}"
        for v in verdicts:
            if v["condition"] == "nji" and v["status"] == "fail":
                s = np.asarray(v["counterexample"]["s"])
                assert np.any(s > 0) and np.all(as_operator(net)(s) >= s), f"draw {d}"


def test_check_on_draw_2_fails_with_a_verdict(tmp_path):
    code, verdicts = run(sweep_networks()[2], "check", tmp_path)
    assert code == 1 and any(v["status"] == "fail" for v in verdicts)


def test_combined_on_draw_54_builds_a_path(tmp_path):
    code, verdicts = run(sweep_networks()[54], "combined", tmp_path)
    assert code == 0
    (verdict,) = verdicts
    assert verdict["status"] == "evidence" and verdict["counterexample"] is None
    assert verdict["witness"]["n_knots"] > 21


def test_combined_on_draw_91_is_inconclusive(tmp_path):
    code, verdicts = run(sweep_networks(92)[91], "combined", tmp_path)
    assert code == 0
    (verdict,) = verdicts
    assert verdict["status"] == "inconclusive" and verdict["counterexample"] is None
    assert verdict["witness"]["knot"] == 4.0
