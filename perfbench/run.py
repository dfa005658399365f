"""sglab benchmark: one workload, one process, ``sglab.cli.main`` in-process.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run generates the workload's network
files from ``--seed``, then takes every network through its command set
(one round) again and again until ``--seconds`` would be overrun, with at
least two rounds.  Afterwards it checks the outputs of the first round
against the reference evaluator in ``ref.py``, and the outputs of every
later round against the first round's bytes.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics (see README.md).  ``--trace 1``
alternates untraced rounds with rounds that have the wrappers of
``spans.py`` installed, at least four rounds in all, prints the tracing
overhead (median traced round against median untraced round), and
reports the per-layer metrics of one round (the median over the traced
rounds).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
CHECK_SEED = 7
SETUP_FIRST = 3  # fresh imports timed before the first round
SETUP_PER_ROUND = 2  # and after every round
MIN_ROUNDS = 2

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
from spans import METRICS, Tracer  # noqa: E402


def setup_seconds(count: int) -> list[float]:
    """Fresh interpreters, each timed from launch until ``import sglab.cli`` is done."""
    code = f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import sglab.cli; print(repr(time.time()))"
    samples = []
    for _ in range(count):
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def build_ops(items: list[dict], out: Path) -> list[dict]:
    """The commands of one round; each op names the output files it writes."""
    ops = []
    for it in items:
        stem, net = out / it["name"], it["file"]
        if it["check"] is not None:
            cert = f"{stem}.check.json"
            argv = ["check", net, "--seed", str(CHECK_SEED), "--out", cert] + it["check"]
            ops.append({"item": it, "kind": "check", "argv": argv, "files": [cert], "expect": it["expect"]})
        for k, extra in enumerate(it["paths"]):
            cert, prefix = f"{stem}.path{k}.cert.json", f"{stem}.path{k}"
            argv = ["path", net] + extra + ["--out", cert, "--path-out", prefix]
            files = [cert, prefix + ".json", prefix + ".csv"]
            ops.append({"item": it, "kind": "path", "argv": argv, "files": files, "expect": it["expect"]})
        for k, extra in enumerate(it["sims"]):
            csv = f"{stem}.sim{k}.csv"
            ops.append({"item": it, "kind": "simulate", "argv": ["simulate", net] + extra + ["--out", csv], "files": [csv], "expect": 0})
    return ops


def run_round(cli, items: list[dict], out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    ops = build_ops(items, out)
    t_round = time.perf_counter()
    for op in ops:
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                op["rc"] = cli.main(op["argv"])
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            op["rc"] = f"{type(exc).__name__}: {exc}"
        op["seconds"] = time.perf_counter() - t0
        op["log"] = sink.getvalue()
    return {"ops": ops, "seconds": time.perf_counter() - t_round, "dir": out}


def per_item_mean(rounds: list[dict], kind: str) -> list[float]:
    """For each item with commands of ``kind``: the mean over rounds of its per-round total."""
    totals: dict[str, float] = {}
    for rnd in rounds:
        for op in rnd["ops"]:
            if op["kind"] == kind:
                totals[op["item"]["name"]] = totals.get(op["item"]["name"], 0.0) + op["seconds"]
    return [t / len(rounds) for t in totals.values()]


def end_to_end(rounds, n_items, setup, peak_mb) -> dict:
    metric = lambda value, unit: {"value": value, "unit": unit}  # noqa: E731
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "check_s": metric(statistics.fmean(per_item_mean(rounds, "check")), "s"),
        "path_s": metric(statistics.fmean(per_item_mean(rounds, "path")), "s"),
        "simulate_s": metric(statistics.fmean(per_item_mean(rounds, "simulate")), "s"),
        "nets_per_s": metric(n_items * len(rounds) / sum(r["seconds"] for r in rounds), "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "sglab" / "cli.py").is_file():
        print(f"no sglab sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sglab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "sglab":
        print(f"imported sglab from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    items = gen.write(args.workload, args.seed, work / "nets")

    # Set-up is timed before the first round and again after every round, so its
    # median samples the machine across the whole run, not in one moment.
    setup = [] if args.trace else setup_seconds(SETUP_FIRST)
    tracer = Tracer() if args.trace else None
    layer_rounds: list[dict] = []
    rounds: list[dict] = []
    min_rounds = MIN_ROUNDS if tracer is None else 2 * MIN_ROUNDS
    t_loop = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1  # traced run: untraced and traced rounds alternate
        if traced:
            tracer.install()
            tracer.new_round()
        rounds.append(run_round(cli, items, work / f"round{len(rounds)}"))
        rounds[-1]["traced"] = traced
        if traced:
            tracer.uninstall()
            layer_rounds.append(tracer.round_metrics())
            tracer.keep_spans = False
        if tracer is None:
            setup += setup_seconds(SETUP_PER_ROUND)
        elapsed = time.perf_counter() - t_loop
        mean_round = elapsed / len(rounds)
        if len(rounds) >= min_rounds and elapsed + mean_round > args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks add their own

    report = checks.Report()
    for rnd in rounds:
        for op in rnd["ops"]:
            report.attempted += 1
            if op["rc"] != op["expect"]:
                report.fail(op, f"exit {op['rc']!r}, expected {op['expect']}")
    checks.check_round(report, rounds[0]["ops"])
    for rnd in rounds[1:]:
        checks.same_outputs(report, rounds[0]["ops"], rnd["ops"])

    if tracer is None:
        metrics = end_to_end(rounds, len(items), setup, peak_mb)
    else:
        counts = [{k: v for k, v in r.items() if METRICS[k][0] != "s"} for r in layer_rounds]
        if any(c != counts[0] for c in counts[1:]):
            report.problem("per-layer counts differ between traced rounds")
        metrics = {
            name: {"value": statistics.median(r[name] for r in layer_rounds), "unit": unit}
            for name, (unit, _) in METRICS.items()
        }
        on = statistics.median(r["seconds"] for r in rounds if r["traced"])
        off = statistics.median(r["seconds"] for r in rounds if not r["traced"])
        print(
            f"tracing overhead: {100.0 * (on / off - 1.0):+.1f}% (median of {len(layer_rounds)} traced rounds "
            f"{on:.3f} s, of {len(rounds) - len(layer_rounds)} untraced rounds {off:.3f} s)"
        )
        tracer.dump(work.with_name(work.name + "-spans.json"))

    for line in report.lines[:20]:
        print(line, file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds in {time.perf_counter() - t_loop:.1f} s")
    result = {"correct": report.correct, "attempted": report.attempted, "failed": report.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
