"""Golden certificates: ``sglab check``, ``path`` and ``simulate`` must write
the committed bytes and exit with the committed code, with the
``wall_seconds`` value masked.  ``cross3_max`` fails above its crossing
level 0.3, so its bytes also pin which ray or knot is reported first.

The fixture networks and the expected outputs live in ``tests/golden/``.
A change that alters output bytes on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each expected file whose bytes it rewrote, and
says why in CHANGES.md; a performance change must leave them as they are.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from sglab import as_operator, network_from_json
from sglab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    "check": (["check", "--seed", "3", "--grid", "geometric:-3:3"], ["cert.json"]),
    "minimal": (["path", "--method", "minimal"], ["cert.json", "path.json", "path.csv"]),
    "combined": (
        ["path", "--method", "combined", "--knots", "geometric:-2:2", "--rho", "linear:0.2", "--target-rho", "linear:0.01"],
        ["cert.json", "path.json", "path.csv"],
    ),
    "orbit": (["path", "--method", "orbit", "--start", "ray:2"], ["cert.json", "path.json", "path.csv"]),
    "simulate": (["simulate", "--start", "ray:1", "--steps", "30"], ["sim.csv"]),
}
# (network, case) -> expected exit code
RUNS = {(net, case): 0 for net in ("ring3_max", "sum4_linear", "sum5_pl_power") for case in CASES}
RUNS.update({("cross3_max", "check"): 1, ("cross3_max", "minimal"): 1})
_WALL = re.compile(r'"wall_seconds": [^\s,}]+')


def run_case(net: str, case: str, workdir: Path) -> tuple[int, dict[str, str]]:
    """Run one command on one fixture; returns the exit code and the masked text of each file written."""
    argv, files = CASES[case]
    out = {name: workdir / f"{net}.{case}.{name}" for name in files}
    argv = [argv[0], str(GOLDEN / f"{net}.json")] + argv[1:]
    if "sim.csv" in out:
        argv += ["--out", str(out["sim.csv"])]
    else:
        argv += ["--out", str(out["cert.json"])]
    if "path.json" in out:
        argv += ["--path-out", str(workdir / f"{net}.{case}.path")]
    code = main(argv)
    return code, {name: _WALL.sub('"wall_seconds": null', p.read_text()) for name, p in out.items() if p.exists()}


@pytest.mark.parametrize("net,case", list(RUNS))
def test_golden_bytes(net, case, tmp_path):
    code, texts = run_case(net, case, tmp_path)
    assert code == RUNS[(net, case)]
    expected = {p.name[len(f"{net}.{case}.") :]: p for p in (GOLDEN / "expected").glob(f"{net}.{case}.*")}
    assert sorted(texts) == sorted(expected)
    for name, text in texts.items():
        assert text == expected[name].read_text(), name


@pytest.mark.parametrize("net", sorted({net for net, case in RUNS if case == "check"}))
def test_uniform_nji_fails_replay_in_their_annulus(net):
    """A committed ``uniform_nji`` fail is ``s`` with ``T(s) >= s`` and ``eps <= ||s|| <= r``."""
    cert = json.loads((GOLDEN / "expected" / f"{net}.check.cert.json").read_text())
    for v in cert["verdicts"]:
        if v["condition"] == "uniform_nji" and v["status"] == "fail":
            s = np.asarray(v["counterexample"]["s"])
            image = as_operator(network_from_json(str(GOLDEN / f"{net}.json"))[0])(s)
            assert image.tolist() == v["counterexample"]["image"] and np.all(image >= s)
            assert v["witness"]["eps"] <= s.max() <= v["witness"]["r"]


def regenerate() -> None:
    """Rewrite the expected outputs and print the name of each file whose bytes changed."""
    expected = GOLDEN / "expected"
    expected.mkdir(exist_ok=True)
    for (net, case), want in RUNS.items():
        before = {p.name: p.read_bytes() for p in expected.glob(f"{net}.{case}.*")}
        for name in before:
            (expected / name).unlink()
        code, texts = run_case(net, case, expected)
        if code != want:
            raise SystemExit(f"{net} {case}: exit {code}, expected {want}")
        after = {}
        for name, text in texts.items():
            path = expected / f"{net}.{case}.{name}"
            path.write_text(text)
            after[path.name] = path.read_bytes()
        for name in sorted(before.keys() | after.keys()):
            if before.get(name) != after.get(name):
                print(name)


if __name__ == "__main__":
    regenerate()
