"""Smoke tests of ``tools/same_bytes.py``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import same_bytes  # noqa: E402


def test_the_repository_against_itself():
    cmd = [sys.executable, str(ROOT / "tools" / "same_bytes.py"), str(ROOT), str(ROOT), "--workload", "fleet", "--seed", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "fleet seed 1: no differences"
    kinds = {line.split()[0] for line in lines[2:]}
    assert kinds == {"check", "path", "simulate"} and all("(+0)" in line for line in lines[2:])


def write_round(root, cert, rc, log):
    (root / "work").mkdir(parents=True)
    (root / "work" / "cert.json").write_text(cert)
    ops = [{"argv": ["check", "OUT/work/net.json"], "rc": rc, "log": log}]
    (root / "summary.json").write_text(json.dumps({"ops": ops, "work": {"check": [3, 7]}}))


def test_differences_mask_only_the_wall_time(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    write_round(a, '{"timing": {"wall_seconds": 0.25}, "x": 1}', 0, "")
    write_round(b, '{"timing": {"wall_seconds": 1.5e-3}, "x": 1}', 0, "")
    write_round(c, '{"timing": {"wall_seconds": 0.25}, "x": 2}', 1, "input error: x\n")
    assert same_bytes.differences(a, b) == []
    assert same_bytes.differences(a, c) == [
        "file cert.json",
        "exit code 0 -> 1: check OUT/work/net.json",
        "log: check OUT/work/net.json",
    ]


def test_every_workload_at_every_seed(monkeypatch, capsys):
    pairs = []

    def compare(parent, change, workload, seed):
        pairs.append((workload, seed))
        print(f"{workload} seed {seed}")
        return {("refute", 2): 1}.get((workload, seed), 0)

    monkeypatch.setattr(same_bytes, "compare", compare)
    argv = ["P", "C", "--workload", "fleet", "--workload", "refute", "--workload", "lattice", "--seed", "1", "--seed", "2"]
    assert same_bytes.main(argv) == 1
    assert pairs == [(w, s) for w in ("fleet", "refute", "lattice") for s in (1, 2)]
    assert capsys.readouterr().out.splitlines() == [f"{w} seed {s}" for w, s in pairs]
    pairs.clear()
    assert same_bytes.main(["P", "C", "--workload", "fleet", "--seed", "3"]) == 0 and pairs == [("fleet", 3)]
