"""Golden certificates: ``sglab check``, ``path`` and ``simulate`` must write
the committed bytes, with the ``wall_seconds`` value masked.

The fixture networks and the expected outputs live in ``tests/golden/``.
A change that alters output bytes on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md; a performance change must leave them as they are.
"""

import re
from pathlib import Path

import pytest

from sglab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
NETS = ("ring3_max", "sum4_linear", "sum5_pl_power")
CASES = {
    "check": (["check", "--budget", "200", "--seed", "3", "--grid", "geometric:-3:3"], ["cert.json"]),
    "minimal": (["path", "--method", "minimal"], ["cert.json", "path.json", "path.csv"]),
    "combined": (
        ["path", "--method", "combined", "--knots", "geometric:-2:2", "--rho", "linear:0.2", "--target-rho", "linear:0.01"],
        ["cert.json", "path.json", "path.csv"],
    ),
    "orbit": (["path", "--method", "orbit", "--start", "ray:2"], ["cert.json", "path.json", "path.csv"]),
    "simulate": (["simulate", "--start", "ray:1", "--steps", "30"], ["sim.csv"]),
}
_WALL = re.compile(r'"wall_seconds": [^\s,}]+')


def run_case(net: str, case: str, workdir: Path) -> tuple[int, dict[str, str]]:
    """Run one command on one fixture; returns the exit code and each output file's masked text."""
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
    return code, {name: _WALL.sub('"wall_seconds": null', p.read_text()) for name, p in out.items()}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("net", NETS)
def test_golden_bytes(net, case, tmp_path):
    code, texts = run_case(net, case, tmp_path)
    assert code == 0
    for name, text in texts.items():
        assert text == (GOLDEN / "expected" / f"{net}.{case}.{name}").read_text(), name


def regenerate() -> None:
    expected = GOLDEN / "expected"
    expected.mkdir(exist_ok=True)
    for net in NETS:
        for case in CASES:
            code, texts = run_case(net, case, expected)
            if code != 0:
                raise SystemExit(f"{net} {case}: exit {code}")
            for name, text in texts.items():
                (expected / f"{net}.{case}.{name}").write_text(text)


if __name__ == "__main__":
    regenerate()
