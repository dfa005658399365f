"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py --runs 10 --log perfbench/_work/steady.jsonl
    python3 perfbench/steady.py --runs 5 --same-seed --log perfbench/_work/same-seed.jsonl
    python3 perfbench/steady.py --report perfbench/results/steady.jsonl

Each set runs every workload ``--runs`` times, one seed per run (set A
seeds 1.., set B seeds 101..), with ``run_seconds`` from BENCHMARK.json.
With ``--same-seed`` every run of set A uses seed 1 and every run of set
B seed 101, so the spread is the machine's alone.  For each end-to-end
metric and set it prints the median and quartiles, the spread (quartile
distance over median) and the drift of set B's median against set A's,
and whether both stay within the metric's ``bound``.  The share of
failed operations must be the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED_BASE = {"A": 1, "B": 101}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def collect(runs: int, workloads: list[str], log: Path, same_seed: bool) -> list[dict]:
    log.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    with log.open("a") as fh:
        for set_name, base in SEED_BASE.items():
            for workload in workloads:
                for k in range(runs):
                    seed = base if same_seed else base + k
                    res = run_once(workload, seed, SPEC["run_seconds"])
                    row = {"set": set_name, "workload": workload, "seed": seed, "result": res}
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    rows.append(row)
                    print(f"set {set_name} {workload} seed {seed}: {json.dumps(res['metrics'])}", flush=True)
    return rows


def summarize(rows: list[dict]) -> bool:
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in rows):
        sets = {s: [r["result"] for r in rows if r["workload"] == workload and r["set"] == s] for s in SEED_BASE}
        if any(len(v) < 2 for v in sets.values()):
            print(f"{workload}: needs at least two runs in each set")
            ok = False
            continue
        shares = {s: {r["failed"] / r["attempted"] for r in v} for s, v in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        correct = all(r["correct"] for v in sets.values() for r in v)
        print(f"\n{workload}: runs {len(sets['A'])}+{len(sets['B'])}, failed share {sorted(shares['A'] | shares['B'])}, "
              f"{'same' if same_share else 'DIFFERENT'} in both sets, correct {correct}")
        print(f"  {'metric':<12} {'set':<3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}   drift  bound  ok")
        ok &= same_share and correct
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {}
            for s, results in sets.items():
                q1, q2, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in results], n=4)
                stats[s] = (q2, q1, q3, (q3 - q1) / q2)
            worse = (stats["B"][0] - stats["A"][0]) / stats["A"][0] * (1 if m["better"] == "lower" else -1)
            spread = max(stats["A"][3], stats["B"][3])
            good = worse <= bound and spread <= bound
            ok &= good
            for s, (q2, q1, q3, sp) in stats.items():
                line = f"  {name:<12} {s:<3} {q2:>11.5g} {q1:>11.5g} {q3:>11.5g} {sp:>7.3f}"
                if s == "B":
                    line += f" {worse:+7.3f} {bound:6.2f}  {'yes' if good else 'NO'}"
                print(line)
    return ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--same-seed", action="store_true", help="one seed for every run of a set")
    p.add_argument("--log", type=Path, default=ROOT / "perfbench" / "_work" / "steady.jsonl")
    p.add_argument("--report", type=Path, help="summarize an existing log instead of running")
    args = p.parse_args()
    if args.report:
        rows = [json.loads(line) for line in args.report.read_text().splitlines() if line.strip()]
    else:
        rows = collect(args.runs, args.workloads, args.log, args.same_seed)
    ok = summarize(rows)
    print("\nsets agree within the bounds" if ok else "\nsets DO NOT agree within the bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
