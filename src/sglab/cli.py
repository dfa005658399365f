"""Command-line front end: ``sglab check|path|simulate <file> [flags]``.

Exit codes (``_emit``): 1 exactly when some verdict is ``fail``, 0
otherwise (``inconclusive`` included), and 2 only for unusable input,
usage errors and paths that cannot be read or written included
(``main``, one ``input error:`` line).  All
floating CSV output is printed with 17 significant digits; certificates
serialize canonically so identical inputs and seeds reproduce identical
bytes (timing aside).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .certificate import Certificate
from .dynamics import StopRule, as_operator, iterate, stability_battery
from .kfun import KFun
from .network import _read_json, gain_from_descriptor, network_from_dict, subnetwork
from .network import network_from_json  # noqa: F401  (perfbench/spans.py traces it under this module's name)
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
    SgcVerdict,
    _check_rays,
    cycle_gain_check,
    max_mbi_probe,
    nji_probe,
    spectral_condition,
    uniform_nji_probe,
)

_FMT = "%.17g"
_CSV_CHUNK_CELLS = 1 << 12  # cells formatted by one % operation
_MAX_SAMPLE_CELLS = 1 << 27  # float64 cells of check's sample matrix, and of simulate's trajectory (1 GiB)


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ``InputError``s, so that ``main``
    reports them in one line with exit code 2."""

    def error(self, message):
        raise InputError(message)


def _gain_flag(text: str) -> KFun:
    """A ``linear:K`` or ``power:C:P`` shorthand or a JSON gain descriptor."""
    return gain_from_descriptor(json.loads(text) if text.startswith("{") else text)[0]


def _parse_grid_flag(text: str) -> np.ndarray:
    """``geometric:kmin:kmax`` gives the grid 2**k, k in [kmin, kmax], with
    -1074 <= kmin <= kmax <= 1023: every 2**k a positive finite double."""
    parts = text.split(":")
    if parts[0] == "geometric" and len(parts) == 3 and -1074 <= int(parts[1]) <= int(parts[2]) <= 1023:
        return default_knots(int(parts[1]), int(parts[2]))
    raise InputError(f"cannot parse grid {text!r}: need geometric:kmin:kmax with kmin <= kmax, each in -1074..1023")


def _parse_start(text: str, n: int) -> np.ndarray:
    """``ray:R`` or a JSON vector of ``n`` finite, nonnegative entries whose
    divergence bound (``StopRule.bound_for``) is finite."""
    if text.startswith("ray:"):
        vec = float(text[4:]) * np.ones(n)
    else:
        vec = np.asarray(json.loads(text), dtype=float)
        if vec.shape != (n,):
            raise InputError(f"start vector needs {n} entries")
    if not np.all(np.isfinite(vec) & (vec >= 0)):
        raise InputError(f"start vector {text!r} must have finite, nonnegative entries")
    if not np.isfinite(StopRule().bound_for(vec)):
        raise InputError(f"start vector {text!r} is too large: its divergence bound 1e9 * norm + 1 overflows")
    return vec


def _parse_nodes(text: str, n: int) -> list[int]:
    """A comma list of node indices, each in ``[0, n)``."""
    nodes = [int(v) for v in text.split(",")]
    bad = [v for v in nodes if not 0 <= v < n]
    if bad:
        raise InputError(f"--restrict node {bad[0]} is out of range: the network has nodes 0..{n - 1}")
    return nodes


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
    """The network in the file at ``path``, its parse notes, the sha256 digest
    of the file's bytes and the JSON value parsed from those bytes: the file
    is read once, and a truncation sweep instantiates from that one parse."""
    data, digest = _read_json(path)
    return (*network_from_dict(data), digest, data)


def _emit(cert: Certificate, out_path: str | None) -> int:
    """Write the certificate; returns the exit code, 1 exactly when some verdict is ``fail``."""
    text = cert.to_json()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 1 if cert.has_fail else 0


# -- subcommands -------------------------------------------------------------


def cmd_check(args) -> int:
    net, notes, digest, data = _load(args.network)
    cert = Certificate("check", digest, args.seed, notes=list(notes))
    rho = _gain_flag(args.rho) if args.rho else None
    grid = _parse_grid_flag(args.grid) if args.grid else None
    sampler = SamplerConfig(seed=args.seed, budget=args.budget)
    if net.n * args.budget > _MAX_SAMPLE_CELLS:
        raise InputError(f"{net.n} nodes x budget {args.budget} exceeds {_MAX_SAMPLE_CELLS} sample cells; lower --budget")

    rays = _check_rays(net, rho, grid, 256, descent=True)
    cert.verdicts.append(nji_probe(net, rho, grid, _rays=rays))
    cert.verdicts.append(uniform_nji_probe(net, r=1.0, eps=0.25, rho=rho, sampler=sampler))
    cert.verdicts.append(max_mbi_probe(net, rho, grid, _rays=rays))
    if net.uniform_maf == "max":
        cert.verdicts.append(cycle_gain_check(net, rho, grid))
    if net.all_gains_linear and net.uniform_maf in ("max", "sum") and (rho is None or rho.is_linear):
        cert.verdicts.append(spectral_condition(net, rho=rho))
    report = stability_battery(net, rho, grid, _rays=rays)
    cert.stability = report.to_dict()
    if not report.ugas_evidence and report.inconclusive_r:
        cert.notes.append("stability battery inconclusive on some rays (iteration cap)")
    if args.N:
        rows = []
        if "template" not in data:
            raise InputError("--N sweeps need a network file with a template")
        for n_trunc in args.N:
            data_n = dict(data)
            data_n["nodes"] = n_trunc
            net_n, _ = network_from_dict(data_n)
            rays_n = _check_rays(net_n, rho, grid, 64)
            rep = stability_battery(net_n, rho, grid, n_max=64, _rays=rays_n)
            mbi = max_mbi_probe(net_n, rho, grid, _rays=rays_n)
            unit = np.flatnonzero(rep.r_grid == 1.0)  # the r = 1 row, when 1 is on the grid
            rows.append(
                {
                    "N": n_trunc,
                    "ugas_evidence": rep.ugas_evidence,
                    "mbi_status": mbi.status,
                    "beta_1_16": float(rep.kl_table[unit[0], min(16, rep.n_max)]) if unit.size else None,
                }
            )
        cert.extras["truncation_sweep"] = rows
    return _emit(cert, args.out)


def cmd_path(args) -> int:
    net, notes, digest, _ = _load(args.network)
    cert = Certificate("path", digest, 0, notes=list(notes))  # path draws nothing at random
    rho = _gain_flag(args.rho) if args.rho else None
    knots = _parse_grid_flag(args.knots) if args.knots else None
    nodes = _parse_nodes(args.restrict, net.n) if args.restrict else None
    if args.method == "orbit":
        if not args.start:
            raise InputError("--method orbit needs --start")
        seed = _parse_start(args.start, net.n)
        if not np.all(seed > 0):
            raise InputError(f"orbit seed {args.start!r} must have strictly positive entries")
    condition = f"path:{args.method}"
    stop = StopRule()
    try:
        if args.method == "minimal":
            path = minimal_path(net, rho, knots, stop)
        elif args.method == "combined":
            path = combined_path(net, rho, knots, stop=stop)
        else:
            path = orbit_path(net, seed, stop, rho)
        if args.target_rho:
            path = regularize(path, net, _gain_flag(args.target_rho))
        if args.min_id:
            path = reparametrize_min_id(path)
    except PathConstructionError as exc:
        stopped = {"knot": exc.knot, "reason": str(exc)}
        failed = exc.status == "fail"
        cert.verdicts.append(SgcVerdict(condition, exc.status, None if failed else stopped, stopped if failed else None))
        return _emit(cert, args.out)
    report = validate(path, net).to_dict()
    cert.paths.append({"method": args.method, "report": report, "n_knots": len(path.r_grid)})
    failed = [name for name, part in report.items() if name != "passed" and not part["ok"]]
    verdict = SgcVerdict(condition, "fail" if failed else "evidence", witness={"n_knots": len(path.r_grid)})
    if failed:
        verdict.counterexample = {"failed": failed}
    cert.verdicts.append(verdict)
    if nodes:
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
    return _emit(cert, args.out)


def cmd_simulate(args) -> int:
    net, _, _, _ = _load(args.network)
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
    cells = (args.steps + 1) * (net.n + 2)  # every state is kept: a row is the step, the nodes and the norm
    if cells > _MAX_SAMPLE_CELLS:
        raise InputError(f"--steps {args.steps} keeps {cells} trajectory cells, above {_MAX_SAMPLE_CELLS}; lower --steps")
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
    p = _Parser(prog="sglab", description="small-gain analysis for interconnected networks")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # InputError, NetworkError, JSONDecodeError; a path unfit to read or write
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
