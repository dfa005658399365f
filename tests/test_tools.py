"""Smoke tests of ``tools/same_bytes.py``."""

import json
import re
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
    total = same_bytes.src_lines(str(ROOT))
    assert lines[-1] == f"src/sglab/*.py lines, parent -> change: {total} -> {total} (+0)"
    kinds = {line.split()[0] for line in lines[2:-1]}
    assert kinds == {"check", "path", "simulate"}
    for line in lines[2:-1]:
        calls, columns, peak = (re.search(rf"{word} +([\d.]+) -> +([\d.]+) ", line).groups() for word in ("applications", "columns", "heap peak"))
        assert calls[0] == calls[1] and columns[0] == columns[1] and float(peak[0]) > 0 and float(peak[1]) > 0


def test_work_table_shows_the_heap_peak(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, work, peak in ((a, {"check": [3, 7]}, {"check": 2_500_000, "path": 1_000}), (b, {"check": [2, 5]}, {"check": 750_000})):
        root.mkdir()
        (root / "summary.json").write_text(json.dumps({"ops": [], "work": work, "peak": peak}))
    assert same_bytes.work_table(a, b)[1:] == [
        "  check     applications        3 ->        2 (-1)   columns          7 ->          5 (-2)   heap peak    2.500 ->    0.750 MB (-1.750)",
        "  path      applications        0 ->        0 (+0)   columns          0 ->          0 (+0)   heap peak    0.001 ->    0.000 MB (-0.001)",
    ]


def write_round(root, cert, rc, log):
    (root / "work").mkdir(parents=True)
    (root / "work" / "cert.json").write_text(cert)
    ops = [{"argv": ["check", "OUT/work/net.json"], "rc": rc, "log": log}]
    (root / "summary.json").write_text(json.dumps({"ops": ops, "work": {"check": [3, 7]}, "peak": {"check": 1_000}}))


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
    totals = "src/sglab/*.py lines, parent -> change: 0 -> 0 (+0)"  # P and C hold no sources
    assert capsys.readouterr().out.splitlines() == [f"{w} seed {s}" for w, s in pairs] + [totals]
    pairs.clear()
    assert same_bytes.main(["P", "C", "--workload", "fleet", "--seed", "3"]) == 0 and pairs == [("fleet", 3)]


def test_line_totals_of_both_checkouts(tmp_path, monkeypatch, capsys):
    for name, texts in (("parent", ["a\nb\n", "c\n"]), ("change", ["a\n", "no newline"])):
        (tmp_path / name / "src" / "sglab").mkdir(parents=True)
        for k, text in enumerate(texts):
            (tmp_path / name / "src" / "sglab" / f"m{k}.py").write_text(text)
    (tmp_path / "change" / "src" / "sglab" / "notes.txt").write_text("not\ncounted\n")
    assert same_bytes.src_lines(str(tmp_path / "parent")) == 3 and same_bytes.src_lines(str(tmp_path / "change")) == 1
    monkeypatch.setattr(same_bytes, "compare", lambda *args: 0)
    assert same_bytes.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "fleet", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "src/sglab/*.py lines, parent -> change: 3 -> 1 (-2)\n"
