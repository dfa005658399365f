"""Compare one benchmark round of two checkouts: output bytes and operator work.

    python3 tools/same_bytes.py PARENT CHANGE --workload fleet --seed 1
    python3 tools/same_bytes.py PARENT CHANGE --workload fleet --workload refute --seed 1 --seed 2

PARENT and CHANGE are checkouts of the repository (a ``git archive`` or
``git clone`` copy, or the working tree).  ``--workload`` and ``--seed``
repeat; every workload is compared at every seed.  For each pair and
checkout, a fresh interpreter imports that checkout's ``perfbench/gen.py``
and ``perfbench/run.py`` unchanged, writes the workload's network files
for the seed and runs one round of the workload's commands through
``run.run_round``, with sglab imported from the checkout's ``src/``.
While the round runs, every ``GainOperator.__call__`` is counted, with
its columns, per command kind.

For each pair the tool then lists every file of the two rounds (network
files and outputs) whose bytes differ, with certificates'
``wall_seconds`` masked, and every command whose exit code or log (its
standard output and error) differs, and prints the applications and
columns per command kind.  It exits 2 when some round fails to run, else
1 when some pair differs, else 0; a difference in operator work alone is
reported, not counted as a difference.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
WALL = re.compile(rb'"wall_seconds": [^\s,}]+')
WORKER = "import sys; sys.path.insert(0, {tools!r}); import same_bytes; same_bytes.one_round(*sys.argv[1:])"


def one_round(checkout: str, workload: str, seed: str, out: str) -> None:
    """Run one round of ``workload`` at ``seed`` from ``checkout`` into ``out/work``
    and write its commands, exit codes, logs and operator work to ``out/summary.json``."""
    root, out = Path(checkout).resolve(), Path(out).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import gen  # the checkout's own benchmark modules, unchanged
    import run
    import sglab.cli
    from sglab.dynamics import GainOperator

    if Path(sglab.cli.__file__).resolve().parent != root / "src" / "sglab":
        raise SystemExit(f"imported sglab from {sglab.cli.__file__}, not from {root / 'src'}")
    work: dict[str, list[int]] = {}
    kind = [""]
    apply = GainOperator.__call__

    def counted(self, s):
        tally = work.setdefault(kind[0], [0, 0])
        tally[0] += 1
        tally[1] += s.shape[1] if getattr(s, "ndim", 1) == 2 else 1
        return apply(self, s)

    def main(argv):
        kind[0] = argv[0]
        return sglab.cli.main(argv)

    GainOperator.__call__ = counted
    items = gen.write(workload, int(seed), out / "work" / "nets")
    ops = run.run_round(types.SimpleNamespace(main=main), items, out / "work" / "round")["ops"]
    here = lambda text: text.replace(str(out), "OUT")  # noqa: E731
    summary = {
        "ops": [{"argv": [here(a) for a in op["argv"]], "rc": op["rc"], "log": here(op["log"])} for op in ops],
        "work": work,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")


def tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, ``wall_seconds`` masked."""
    return {p.relative_to(root).as_posix(): WALL.sub(b"", p.read_bytes()) for p in sorted(root.rglob("*")) if p.is_file()}


def differences(a: Path, b: Path) -> list[str]:
    """What differs between the rounds written under ``a`` and ``b``."""
    fa, fb = tree(a / "work"), tree(b / "work")
    out = [f"file {name}" for name in sorted(fa.keys() | fb.keys()) if fa.get(name) != fb.get(name)]
    ops_a, ops_b = (json.loads((d / "summary.json").read_text())["ops"] for d in (a, b))
    if [op["argv"] for op in ops_a] != [op["argv"] for op in ops_b]:
        return out + ["the two rounds run different commands"]
    for op_a, op_b in zip(ops_a, ops_b):
        command = " ".join(op_a["argv"])
        if op_a["rc"] != op_b["rc"]:
            out.append(f"exit code {op_a['rc']!r} -> {op_b['rc']!r}: {command}")
        if op_a["log"] != op_b["log"]:
            out.append(f"log: {command}")
    return out


def work_table(a: Path, b: Path) -> list[str]:
    wa, wb = (json.loads((d / "summary.json").read_text())["work"] for d in (a, b))
    lines = ["GainOperator.__call__ per command kind, parent -> change:"]
    for kind in sorted(wa.keys() | wb.keys()):
        (ca, ka), (cb, kb) = wa.get(kind, [0, 0]), wb.get(kind, [0, 0])
        lines.append(f"  {kind:<9} applications {ca:>8} -> {cb:>8} ({cb - ca:+d})   columns {ka:>10} -> {kb:>10} ({kb - ka:+d})")
    return lines


def compare(parent: str, change: str, workload: str, seed: int) -> int:
    """Run and compare one round of ``workload`` at ``seed`` from both checkouts,
    print the report and return 0 (no differences), 1 (differences) or 2 (a
    round failed to run)."""
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for checkout, out in zip((parent, change), dirs):
            cmd = [sys.executable, "-c", WORKER.format(tools=str(TOOLS)), checkout, workload, str(seed), str(out)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode:
                print(f"the {workload} seed {seed} round from {checkout} failed:\n{done.stderr}", file=sys.stderr)
                return 2
        diffs = differences(*dirs)
        print(f"{workload} seed {seed}: " + (f"{len(diffs)} differences" if diffs else "no differences"))
        for line in diffs + work_table(*dirs):
            print(line)
    return 1 if diffs else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", action="append", required=True, help="repeatable")
    p.add_argument("--seed", type=int, action="append", required=True, help="repeatable")
    args = p.parse_args(argv)
    return max([compare(args.parent, args.change, w, seed) for w in args.workload for seed in args.seed])


if __name__ == "__main__":
    sys.exit(main())
