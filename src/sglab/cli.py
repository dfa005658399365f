"""Command-line front end: ``sglab check|path|simulate <file> [flags]``.

Exit codes: 0 no failing verdict, 1 some check failed or a construction
broke, 2 unusable input.  All floating CSV output is printed with 17
significant digits; certificates serialize canonically so identical
inputs and seeds reproduce identical bytes (timing aside).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .certificate import Certificate
from .dynamics import StopRule, as_operator, iterate, stability_battery
from .kfun import KFun
from .network import NetworkError, gain_from_descriptor, network_from_dict, network_from_json, subnetwork
from .paths import (
    PathConstructionError,
    combined_path,
    default_knots,
    minimal_path,
    orbit_path,
    regularize,
    reparametrize_min_id,
    restrict_path,
    validate,
)
from .smallgain import (
    SamplerConfig,
    cycle_gain_check,
    max_mbi_probe,
    nji_probe,
    spectral_condition,
    uniform_nji_probe,
)

_FMT = "%.17g"
_CSV_CHUNK_CELLS = 1 << 12  # cells formatted by one % operation
_MAX_SAMPLE_CELLS = 1 << 27  # float64 cells of check's sample matrix (1 GiB)


class InputError(ValueError):
    pass


def _gain_flag(text: str) -> KFun:
    """A ``linear:K`` or ``power:C:P`` shorthand or a JSON gain descriptor."""
    return gain_from_descriptor(json.loads(text) if text.startswith("{") else text)[0]


def _parse_grid_flag(text: str) -> np.ndarray:
    """``geometric:kmin:kmax`` gives the grid 2**k, k in [kmin, kmax]."""
    parts = text.split(":")
    if parts[0] == "geometric" and len(parts) == 3 and int(parts[1]) <= int(parts[2]):
        return default_knots(int(parts[1]), int(parts[2]))
    raise InputError(f"cannot parse grid {text!r}: need geometric:kmin:kmax with kmin <= kmax")


def _parse_start(text: str, n: int) -> np.ndarray:
    """``ray:R`` or a JSON vector of ``n`` finite, nonnegative entries."""
    if text.startswith("ray:"):
        vec = float(text[4:]) * np.ones(n)
    else:
        vec = np.asarray(json.loads(text), dtype=float)
        if vec.shape != (n,):
            raise InputError(f"start vector needs {n} entries")
    if not np.all(np.isfinite(vec) & (vec >= 0)):
        raise InputError(f"start vector {text!r} must have finite, nonnegative entries")
    return vec


def _write_csv(header: list[str], out, n_rows: int, rows) -> None:
    """Write ``header`` and the ``n_rows`` rows of a float table, ``rows(lo, hi)``
    giving rows ``lo:hi`` as a 2-D array, with one ``%`` format per chunk of
    at most ``_CSV_CHUNK_CELLS`` cells.  Every cell is printed as ``%.17g``,
    which prints a whole number below 10**17, such as a step count, as
    ``str`` prints the int."""
    out.write(",".join(header) + "\n")
    line = ",".join([_FMT] * len(header)) + "\n"
    chunk = max(1, _CSV_CHUNK_CELLS // len(header))
    for lo in range(0, n_rows, chunk):
        block = rows(lo, min(lo + chunk, n_rows))
        out.write(line * len(block) % tuple(block.ravel().tolist()))


def _load(path: str):
    try:
        return network_from_json(path)
    except FileNotFoundError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except NetworkError as exc:
        raise InputError(str(exc)) from exc


def _emit(cert: Certificate, out_path: str | None) -> None:
    text = cert.to_json()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_check(args) -> int:
    net, notes, digest = _load(args.network)
    cert = Certificate("check", digest, args.seed, notes=list(notes))
    rho = _gain_flag(args.rho) if args.rho else None
    grid = _parse_grid_flag(args.grid) if args.grid else None
    sampler = SamplerConfig(seed=args.seed, budget=args.budget)
    if net.n * args.budget > _MAX_SAMPLE_CELLS:
        raise InputError(f"{net.n} nodes x budget {args.budget} exceeds {_MAX_SAMPLE_CELLS} sample cells; lower --budget")

    cert.verdicts.append(nji_probe(net, rho, sampler).to_dict())
    cert.verdicts.append(uniform_nji_probe(net, r=1.0, eps=0.25, rho=rho, sampler=sampler).to_dict())
    cert.verdicts.append(max_mbi_probe(net, rho, grid).to_dict())
    if net.uniform_maf == "max":
        cert.verdicts.append(cycle_gain_check(net, rho, grid).to_dict())
    if net.all_gains_linear and net.uniform_maf in ("max", "sum") and (rho is None or rho.is_linear):
        cert.verdicts.append(spectral_condition(net, rho=rho).to_dict())
    report = stability_battery(net, rho, grid)
    cert.stability = report.to_dict()
    if not report.ugas_evidence and report.inconclusive_r:
        cert.notes.append("stability battery inconclusive on some rays (iteration cap)")
    if args.N:
        rows = []
        with open(args.network) as fh:
            data = json.load(fh)
        if "template" not in data:
            raise InputError("--N sweeps need a network file with a template")
        for n_trunc in args.N:
            data_n = dict(data)
            data_n["nodes"] = n_trunc
            net_n, _ = network_from_dict(data_n)
            rep = stability_battery(net_n, rho, grid, n_max=64)
            mbi = max_mbi_probe(net_n, rho, grid)
            rows.append(
                {
                    "N": n_trunc,
                    "ugas_evidence": rep.ugas_evidence,
                    "mbi_status": mbi.status,
                    "beta_1_16": float(rep.kl_table[np.searchsorted(rep.r_grid, 1.0), min(16, rep.n_max)]),
                }
            )
        cert.extras["truncation_sweep"] = rows
    _emit(cert, args.out)
    return 1 if cert.has_fail else 0


def cmd_path(args) -> int:
    net, notes, digest = _load(args.network)
    cert = Certificate("path", digest, args.seed, notes=list(notes))
    rho = _gain_flag(args.rho) if args.rho else None
    knots = _parse_grid_flag(args.knots) if args.knots else None
    stop = StopRule()
    try:
        if args.method == "minimal":
            path = minimal_path(net, rho, knots, stop)
        elif args.method == "combined":
            path = combined_path(net, rho, knots, stop=stop)
        else:
            if not args.start:
                raise InputError("--method orbit needs --start")
            path = orbit_path(net, _parse_start(args.start, net.n), stop, rho)
        if args.target_rho:
            path = regularize(path, net, _gain_flag(args.target_rho))
        if args.min_id:
            path = reparametrize_min_id(path)
    except PathConstructionError as exc:
        cert.verdicts.append(
            {
                "condition": f"path:{args.method}",
                "status": "fail",
                "counterexample": {"knot": exc.knot, "reason": str(exc)},
            }
        )
        _emit(cert, args.out)
        return 1
    report = validate(path, net)
    cert.paths.append({"method": args.method, "report": report.to_dict(), "n_knots": len(path.r_grid)})
    cert.verdicts.append(
        {
            "condition": f"path:{args.method}",
            "status": "evidence" if report.passed else "fail",
            "witness": {"n_knots": len(path.r_grid)},
            "counterexample": None if report.passed else report.to_dict(),
        }
    )
    if args.restrict:
        nodes = [int(v) for v in args.restrict.split(",")]
        sub_report = validate(restrict_path(path, nodes), subnetwork(net, nodes))
        cert.paths.append({"method": f"{args.method}|restricted", "report": sub_report.to_dict()})
    if args.path_out:
        with open(args.path_out + ".json", "w") as fh:
            fh.write(json.dumps(path.to_dict(), sort_keys=True) + "\n")
        with open(args.path_out + ".csv", "w") as fh:
            header = ["r"] + [f"x{i}" for i in range(path.n_nodes)]
            _write_csv(
                header,
                fh,
                len(path.r_grid),
                lambda lo, hi: np.column_stack((path.r_grid[lo:hi], path.points[lo:hi])),
            )
    _emit(cert, args.out)
    return 1 if cert.has_fail else 0


def cmd_simulate(args) -> int:
    net, _, _ = _load(args.network)
    if args.variant == "rho" and not args.rho:
        raise InputError("--variant rho needs --rho")
    op = as_operator(net, _gain_flag(args.rho) if args.variant == "rho" else None)
    if args.variant == "hat":
        op = op.augmented()
    elif args.variant.startswith("proj:"):
        op = op.projected(_parse_start(args.variant[5:], net.n))
    elif args.variant not in ("base", "rho"):
        raise InputError(f"unknown variant {args.variant!r}")
    if args.steps < 0:
        raise InputError(f"--steps must be at least 0, got {args.steps}")
    s0 = _parse_start(args.start, net.n)
    stop = StopRule(max_iter=max(args.steps, 1))
    if args.steps == 0:
        states = [s0]
        reason = "none"
    else:
        traj = iterate(op, s0, stop)
        states = traj.states[: args.steps + 1]
        reason = traj.stop_reason.value
    def rows(lo: int, hi: int) -> np.ndarray:
        block = np.array(states[lo:hi])  # the sup norm of a row is its largest |x_i|, 0.0 for no nodes
        return np.column_stack((np.arange(lo, hi), block, np.abs(block).max(axis=1, initial=0.0)))

    header = ["step"] + [f"x{i}" for i in range(net.n)] + ["norm"]
    if args.out:
        with open(args.out, "w") as fh:
            _write_csv(header, fh, len(states), rows)
    else:
        _write_csv(header, sys.stdout, len(states), rows)
    print(f"stop reason: {reason}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sglab", description="small-gain analysis for interconnected networks")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run the small-gain condition battery")
    c.add_argument("network")
    c.add_argument("--rho", default=None, help="strictness margin, e.g. linear:0.1")
    c.add_argument("--budget", type=int, default=10_000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--grid", default=None, help="ray grid, e.g. geometric:-8:8")
    c.add_argument("--N", type=int, action="append", default=None, help="truncation sweep size (repeatable)")
    c.add_argument("--out", default=None, help="certificate output file (default stdout)")
    c.set_defaults(func=cmd_check)

    t = sub.add_parser("path", help="construct and validate a decay path")
    t.add_argument("network")
    t.add_argument("--method", choices=("minimal", "combined", "orbit"), default="minimal")
    t.add_argument("--rho", default=None)
    t.add_argument("--target-rho", dest="target_rho", default=None)
    t.add_argument("--knots", default=None, help="knot grid, e.g. geometric:-10:10")
    t.add_argument("--start", default=None, help="orbit seed: ray:R or JSON vector")
    t.add_argument("--min-id", dest="min_id", action="store_true", help="reparametrize to identity lower bound")
    t.add_argument("--restrict", default=None, help="also validate the restriction to these nodes (comma list)")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default=None)
    t.add_argument("--path-out", dest="path_out", default=None, help="path file prefix (.json/.csv)")
    t.set_defaults(func=cmd_path)

    s = sub.add_parser("simulate", help="run a trajectory and dump it as CSV")
    s.add_argument("network")
    s.add_argument("--start", required=True, help="ray:R or JSON vector")
    s.add_argument("--steps", type=int, default=50)
    s.add_argument("--variant", default="base", help="base | rho | hat | proj:<ray:R|vector>")
    s.add_argument("--rho", default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # InputError, NetworkError and JSONDecodeError among them
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
