"""Checks of sglab's outputs against computations made apart from sglab.

Tolerances:
- max networks: operator images must match the reference bit for bit;
- sum networks: relative ``ref.SUM_RTOL`` (1e-12), since the reference adds
  in another order;
- path knots: ``p >= (id + rho)(T(p))`` up to ``KNOT_TOL * max(1, |p|)``,
  the slack sglab's own path validation allows, because fixed points are
  iterated only to a step of ``1e-10``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ref import PL, SUM_RTOL, RefNet, max_cycle_mean, spectral_radius

KNOT_TOL = 1e-9


class Report:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []
        self.correct = True

    def fail(self, op: dict, why: str) -> None:
        """An operation that did not do its job: a wrong exit code, a crash, or a
        refutation at a knot where the small-gain condition holds."""
        self.failed += 1
        op["failed"] = True
        self.lines.append(f"FAILED {op['item']['name']} {op['kind']}: {why}")

    def problem(self, why: str) -> None:
        """An output of an operation that did its job is wrong."""
        self.correct = False
        self.lines.append(f"WRONG {why}")


def _ref(item: dict) -> RefNet:
    if "_ref" not in item:
        item["_ref"] = RefNet(item["net"])
    return item["_ref"]


def _kfun_flag(text: str) -> PL:
    kind, _, k = text.partition(":")
    if kind != "linear":
        raise ValueError(f"only linear margins are used here, got {text!r}")
    return PL([0.0], [0.0], float(k))


def _flag(argv: list[str], name: str):
    return argv[argv.index(name) + 1] if name in argv else None


def _start(text: str, n: int) -> np.ndarray:
    return float(text[4:]) * np.ones(n) if text.startswith("ray:") else np.asarray(json.loads(text), dtype=float)


def _close(net: RefNet, got: np.ndarray, want: np.ndarray) -> bool:
    if net.maf == "max":
        return bool(np.array_equal(got, want))
    return bool(np.all(np.abs(got - want) <= SUM_RTOL * np.abs(want)))


def _at_least(net: RefNet, got: np.ndarray, floor: np.ndarray) -> bool:
    """``got >= floor``, exactly for max and up to the summation tolerance for sum."""
    if net.maf == "max":
        return bool(np.all(got >= floor))
    return bool(np.all(got >= floor * (1.0 - SUM_RTOL)))


def _cert(path: str) -> dict:
    return json.loads(Path(path).read_text())


# -- per command ---------------------------------------------------------------


def check_check(report: Report, op: dict) -> None:
    item, net = op["item"], _ref(op["item"])
    name = item["name"]
    verdicts = {v["condition"]: v for v in _cert(op["files"][0])["verdicts"]}
    linear = all(len(g.xs) == 1 for g in net.gains)
    a = net.matrix()
    linear_rate = (spectral_radius(a) if net.maf == "sum" else max_cycle_mean(a)) if linear else None
    if op["expect"] == 0:
        bad = [c for c, v in verdicts.items() if v["status"] == "fail"]
        if bad:
            report.problem(f"{name}: check exits 0 with failing verdicts {bad}")
        for cond in ("spectral", "cycle_gain"):
            if cond in verdicts and verdicts[cond]["status"] != "pass":
                report.problem(f"{name}: {cond} is {verdicts[cond]['status']}, expected pass")
        if "spectral" in verdicts and not (linear and linear_rate < 1.0):
            report.problem(f"{name}: spectral passes but the reference rate is {linear_rate}")
        if "cycle_gain" in verdicts and not max_cycle_mean(a) < 1.0:
            report.problem(f"{name}: cycle_gain passes but the max cycle mean of the slopes is {max_cycle_mean(a)}")
        return
    if not any(v["status"] == "fail" for v in verdicts.values()):
        report.problem(f"{name}: check exits 1 without a failing verdict")
    nji = verdicts.get("nji")
    if nji and nji["status"] == "fail":
        s = np.asarray(nji["counterexample"]["s"])
        if not (np.any(s > 0) and _at_least(net, net.apply(s), s)):
            report.problem(f"{name}: nji counterexample does not replay T(s) >= s, s != 0")
    cyc = verdicts.get("cycle_gain")
    if cyc and cyc["status"] == "fail":
        cx = cyc["counterexample"]
        gains = {(j, i): g for j, i, g in net.edge_list()}
        loop = list(cx["cycle"]) + [cx["cycle"][0]]
        x = np.float64(cx["r"])
        for a_, b_ in zip(loop, loop[1:]):
            x = gains[(a_, b_)](x)
        if not x >= cx["r"] * (1.0 - SUM_RTOL):
            report.problem(f"{name}: cycle {cx['cycle']} composes to {float(x)} < r = {cx['r']}")
    spec = verdicts.get("spectral")
    if spec and spec["status"] == "fail" and linear_rate is not None and not linear_rate >= 1.0:
        report.problem(f"{name}: spectral fails but the reference rate is {linear_rate} < 1")


def check_path(report: Report, op: dict) -> None:
    item, net = op["item"], _ref(op["item"])
    name = f"{item['name']} path {_flag(op['argv'], '--method')}"
    verdicts = _cert(op["files"][0])["verdicts"]
    if op["expect"] == 1:
        bad = [v for v in verdicts if v["status"] == "fail"]
        if not bad:
            report.problem(f"{name}: exits 1 without a failing verdict")
        level = item["crossing"]
        for v in bad:
            knot = (v.get("counterexample") or {}).get("knot")
            if knot is not None and knot < level * (1.0 - 1e-9):
                # below the crossing level every ball is mapped into itself: a wrong refutation
                report.fail(op, f"fails at knot {knot}, below the crossing level {level}")
                break
        return
    data = json.loads(Path(op["files"][1]).read_text())
    r, pts = np.asarray(data["r_grid"]), np.asarray(data["points"])
    if r[0] != 0.0 or np.any(pts[0] != 0.0):
        report.problem(f"{name}: path does not start at the origin")
    if np.any(np.diff(pts, axis=0) < 0.0):
        report.problem(f"{name}: path is not entrywise nondecreasing")
    rho = data["rho"]
    t = net.apply(pts.T)
    if rho is not None:
        t = t + PL(rho["xs"], rho["ys"], rho["final_slope"])(t)
    slack = KNOT_TOL * np.maximum(1.0, pts.max(axis=1))
    worst = np.min(pts.T - t + slack[None, :], axis=0)
    if np.any(worst < 0.0):
        k = int(np.argmin(worst))
        report.problem(f"{name}: knot {k} (r = {r[k]}) is not a decay point: margin {worst[k] - slack[k]:.3e}")


def check_simulate(report: Report, op: dict) -> None:
    item, net, argv = op["item"], _ref(op["item"]), op["argv"]
    variant = _flag(argv, "--variant") or "base"
    name = f"{item['name']} simulate {variant}"
    rows = Path(op["files"][0]).read_text().splitlines()
    header = rows[0].split(",")
    if header != ["step"] + [f"x{i}" for i in range(net.n)] + ["norm"]:
        report.problem(f"{name}: unexpected CSV header")
        return
    table = np.array([[float(c) for c in row.split(",")] for row in rows[1:]])
    steps = int(_flag(argv, "--steps") or 50)
    if not 1 <= len(table) <= steps + 1 or np.any(table[:, 0] != np.arange(len(table))):
        report.problem(f"{name}: {len(table)} rows for {steps} steps")
        return
    states = table[:, 1:-1]
    if not np.array_equal(states[0], _start(_flag(argv, "--start"), net.n)):
        report.problem(f"{name}: first row is not the start vector")
    if not np.array_equal(table[:, -1], states.max(axis=1)):
        report.problem(f"{name}: norm column is not the row maximum")
    kind = variant.split(":")[0]
    rho = _kfun_flag(_flag(argv, "--rho")) if kind == "rho" else None
    floor = _start(variant[5:], net.n) if kind == "proj" else None
    step = net.variant(kind, rho=rho, floor=floor)
    want = step(states[:-1].T).T
    if not _close(net, states[1:], want):
        k = int(np.argmax(np.any(states[1:] != want, axis=1)))
        report.problem(f"{name}: row {k + 1} does not follow x(k+1) = T(x(k))")


CHECKERS = {"check": check_check, "path": check_path, "simulate": check_simulate}


def check_round(report: Report, ops: list[dict]) -> None:
    """Reference checks on every operation of a round that did its job."""
    for op in ops:
        if op.get("failed"):
            continue
        try:
            CHECKERS[op["kind"]](report, op)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            report.problem(f"{op['item']['name']} {op['kind']}: output unreadable ({type(exc).__name__}: {exc})")


def _canonical(path: str) -> str:
    """File bytes, with a certificate's ``timing`` block left out."""
    text = Path(path).read_text()
    if path.endswith(".json") and '"timing"' in text:
        data = json.loads(text)
        data.pop("timing")
        return json.dumps(data, sort_keys=True, indent=2)
    return text


def same_outputs(report: Report, first: list[dict], later: list[dict]) -> None:
    """A later round must write the first round's bytes (timing aside).

    An operation of the first round that the reference checks failed fails
    again in the later round, whose output is the same.
    """
    for a, b in zip(first, later):
        for fa, fb in zip(a["files"], b["files"]):
            exists = Path(fa).exists(), Path(fb).exists()
            if exists[0] != exists[1] or (exists[0] and _canonical(fa) != _canonical(fb)):
                report.problem(f"{a['item']['name']} {a['kind']}: {Path(fb).name} differs from the first round")
        if a.get("failed") and not b.get("failed"):
            report.fail(b, "same output as in the first round")
