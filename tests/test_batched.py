"""The column-batched iteration driver against one-column-at-a-time loops.

Each reference below is a copy of the loop as it ran before the driver
was batched: ``serial_run`` steps one column, and the battery, ray
fixed points, ``validate`` and ``regularize`` references walk their rays
and knots one at a time; ``serial_minimal_path`` is ``minimal_path`` on
those ray-by-ray fixed points.  ``serial_cofinality`` is the augmented run
that ``cofinality_witness`` made before it became ``min_fixed_point``,
and the ``orbit_path`` and ``combined_path`` references climb their
upward rays and step their gaps one at a time through it and through
``projected`` operators.  ``serial_max_fixed_point`` is the knot-by-knot
cap escalation that ``combined_path``'s main knots ran before they were
batched, with the descent's slack covering the top's tolerance.
``frozen_battery`` and ``frozen_mbi`` are the stability battery (its
ray table and augmented rays as two runs) and ``max_mbi_probe`` (ray by
ray) as they ran before ``check``'s rays became one batch.
``frozen_ray_batch`` is ``_ray_batch`` before it could hold descent
columns, and ``serial_descent`` one descent stepped alone: ``nji_probe``
and ``uniform_nji_probe`` read their columns as it steps.
Batched results must match them bit for bit, including the first
failure a grid scan reports.
"""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sglab import (
    MAX,
    SUM,
    DecayPath,
    KFun,
    MafSpec,
    MonotoneSamples,
    MonotoneStepError,
    PathConstructionError,
    SgcVerdict,
    Side,
    StabilityReport,
    StopReason,
    StopRule,
    as_operator,
    build_network,
    chain_template,
    cofinality_witness,
    combined_path,
    default_knots,
    envelope,
    factor_id_plus,
    id_plus,
    identity,
    iterate,
    linear,
    max_mbi_probe,
    minimal_path,
    neighborhood,
    network_from_dict,
    nji_probe,
    orbit_path,
    regularize,
    stability_battery,
    sub_from_id,
    sup_norm,
    uniform_nji_probe,
    validate,
)
from sglab.dynamics import GainOperator, _max_fixed_points, _ray_batch, _run, _scan
from conftest import random_kfun, random_network

GOLDEN = Path(__file__).resolve().parent / "golden"
WALL = re.compile(rb'"wall_seconds": [^\s,}]+')
L2 = MafSpec("custom", func=lambda v: float(np.sqrt(np.sum(v * v))), modulus=linear(3.0), xi=identity())


def serial_run(op, s, max_iter, tol, bound, direction=0, states=None, slack=0.0):
    """One column, stepped until its stop rule fires (the loop before batching)."""
    scale = max(1.0, sup_norm(s))
    step = np.inf
    for it in range(1, max_iter + 1):
        nxt = op(s)
        drift = nxt - s
        if direction > 0 and np.any(drift < -(1e-12 * scale + slack)):
            raise MonotoneStepError("projected trajectory failed to increase")
        if direction < 0 and np.any(drift > 1e-12 * scale + slack):
            raise MonotoneStepError("projected trajectory failed to decrease")
        if states is not None:
            states.append(nxt)
        step = sup_norm(drift)
        s = nxt
        norm = sup_norm(s)
        scale = max(scale, norm)
        if norm > bound:
            return s, it, norm, StopReason.DIVERGED
        if step <= tol:
            return s, it, step, StopReason.CONVERGED
    return s, max_iter, step, StopReason.MAX_ITER


def serial_min_fixed_point(op, b, stop):
    proj = op.projected(b)
    point, its, res, status = serial_run(proj, b.copy(), stop.max_iter, stop.tol * max(1.0, sup_norm(b)), 1e9 * sup_norm(b) + 1.0, +1)
    if status is StopReason.CONVERGED:
        res = sup_norm(proj(point) - point)
    return point, its, res, status


def floored(op, floor):
    return lambda s: np.maximum(floor, op(s))


def serial_max_fixed_point(op, b, stop):
    """``max_fixed_point`` as it ran before its cap rounds were batched, with
    the descent's slack covering the top's tolerance: (point, iterations,
    status, the stage that decided it)."""

    def least(floor):
        tol = stop.tol * max(1.0, sup_norm(floor))
        return serial_run(floored(op, floor), floor.copy(), stop.max_iter, tol, stop.bound_for(floor), +1)

    cap = 2.0 * max(sup_norm(b), 1.0)
    for _ in range(9):
        top = least(cap * np.ones(len(b)))
        if top[3] is not StopReason.CONVERGED:
            return top[0], top[1], top[3], "top"
        tol, slack = stop.tol * max(1.0, sup_norm(b)), stop.tol * max(1.0, cap)
        try:
            down = serial_run(floored(op, b), top[0], stop.max_iter, tol, stop.bound_for(top[0]), -1, slack=slack)
        except MonotoneStepError:
            cap *= 2.0
            continue
        low = least(b)
        if low[3] is StopReason.CONVERGED and not np.all(down[0] >= low[0] - 1e-8 * max(1.0, sup_norm(down[0]))):
            raise MonotoneStepError("maximal fixed point fell below the minimal one")
        return down[0], down[1], down[3], "descent"
    return top[0], top[1], StopReason.MAX_ITER, "exhausted"


def serial_max_scan(op, b, stop):
    """``serial_max_fixed_point`` for the columns of ``b`` in order, up to the
    first that does not converge; and the message of an error raised on the way."""
    out = []
    for k in range(b.shape[1]):
        try:
            out.append(serial_max_fixed_point(op, b[:, k], stop))
        except MonotoneStepError as exc:
            return out, str(exc)
        if out[-1][2] is not StopReason.CONVERGED:
            break
    return out, None


def serial_ray_fixed_points(op, grid, stop):
    """Lazy, like the loops that called ``min_fixed_point`` ray after ray."""
    from sglab.dynamics import FixedPointResult

    for r in grid:
        yield FixedPointResult(*serial_min_fixed_point(op, r * np.ones(op.n), stop))


def serial_minimal_path(net, rho, grid, stop):
    """``minimal_path`` with its knots climbed ray by ray: the path, or the
    message and knot of the error it raises."""
    op = as_operator(net, rho)
    grid = np.asarray(sorted(float(r) for r in grid))
    pts = [np.zeros(op.n)]
    for r, res in zip(grid, serial_ray_fixed_points(op, grid, stop)):
        if res.status is StopReason.DIVERGED:
            return f"augmented iteration diverged at knot r={r}: bounded invertibility fails there", float(r)
        if res.status is StopReason.MAX_ITER:
            return f"iteration cap hit at knot r={r} (inconclusive)", float(r)
        pts.append(res.point)
    points = np.vstack(pts)
    if np.any(np.diff(points, axis=0) < -1e-9 * max(1.0, float(np.max(points)))):
        return "knot limits failed to be monotone in r", None
    points = np.maximum.accumulate(points, axis=0)
    full = np.concatenate(([0.0], grid))
    phi_max = envelope(MonotoneSamples(full, np.maximum.accumulate([sup_norm(p) for p in points])), Side.ABOVE)
    return DecayPath(full, points, rho, identity(), phi_max)


def serial_battery(op, r_grid, n_max, stop, decay_rtol=1e-8):
    kl = np.zeros((len(r_grid), n_max + 1))
    gatt, ugs, inconclusive, aug_sup = [], [], [], [(0.0, 0.0)]
    aug_stop = StopRule(min(stop.max_iter, 10 * n_max), stop.tol, stop.divergence_bound)
    for k, r in enumerate(r_grid):
        states = [r * np.ones(op.n)]
        serial_run(op, states[0], n_max, 0.0, 1e30, states=states)
        norms = np.abs(np.stack(states)).max(axis=1)
        kl[k, : len(norms)] = norms
        kl[k, len(norms) :] = norms[-1]
        gatt.append(bool(np.any(kl[k, 1:] <= decay_rtol * max(1.0, r))))
        s = r * np.ones(op.n)
        point, _, _, status = serial_run(op.augmented(), s, aug_stop.max_iter, stop.tol * max(1.0, r), aug_stop.bound_for(s))
        if status is StopReason.MAX_ITER:
            inconclusive.append(float(r))
        ugs.append(status is StopReason.CONVERGED)
        if status is StopReason.CONVERGED:
            aug_sup.append((float(r), sup_norm(point)))
    env = envelope(MonotoneSamples(*np.asarray(aug_sup).T), Side.ABOVE) if all(ugs) else None
    return kl, gatt, ugs, inconclusive, env


def serial_validate(path, op, margin_tol=1e-9):
    """``PathReport.to_dict()`` of the knot-by-knot validation."""
    if path.rho is not None:
        op = op.enlarge_left(path.rho)
    worst_margin, worst_knot, decay_ok = np.inf, 0.0, True
    for k, r in enumerate(path.r_grid):
        p = path.points[k]
        margin = float(np.min(p - op(p)))
        if margin < worst_margin:
            worst_margin, worst_knot = margin, float(r)
        if margin < -margin_tol * max(1.0, sup_norm(p)):
            decay_ok = False
    low = high = np.inf
    for k, r in enumerate(path.r_grid):
        p = path.points[k]
        low = min(low, float(np.min(p) - path.phi_min(r)))
        high = min(high, float(path.phi_max(r) - np.max(p)))
    scale = max(1.0, float(np.max(path.points)))
    bounds_ok = low >= -margin_tol * scale and high >= -margin_tol * scale
    diffs = np.diff(path.points, axis=0)
    flat = [int(i) for i in range(path.n_nodes) if np.any(diffs[:, i] <= 0.0)]
    windows, bil_ok = [], True
    for k in range(len(path.r_grid) - 1):
        lo, hi = float(path.r_grid[k]), float(path.r_grid[k + 1])
        seg = diffs[k] / (hi - lo)
        l, L = float(np.min(seg)), float(np.max(seg))
        windows.append([lo, hi, l, L])
        if l <= 0.0 or not np.isfinite(L):
            bil_ok = False
    return {
        "decay": {"ok": decay_ok, "worst_margin": worst_margin, "knot": worst_knot},
        "bounds": {"ok": bounds_ok, "worst_low_slack": low, "worst_high_slack": high},
        "components": {"ok": not flat, "flat": flat},
        "bilipschitz": {"ok": bil_ok, "windows": windows},
        "passed": decay_ok and bounds_ok and not flat and bil_ok,
    }


def serial_regularize(path, op, max_knots=10**6, check_tol=1e-9):
    """Knot points of the knot-by-knot regularization, or the raised error's (message, knot)."""
    rho_t = path.rho
    pull = id_plus(rho_t).inverse()
    sigma0 = np.vstack([pull(p) for p in path.points])
    lifted = np.empty_like(sigma0)
    for k, r in enumerate(path.r_grid):
        lifted[k] = sigma0[k] + (1.0 + r / (1.0 + r)) / 4.0 * rho_t(sigma0[k])
    rho_outer, rho_inner = factor_id_plus(0.25 * rho_t)
    eta_out = sub_from_id(rho_outer)
    phi_min_base = pull.compose(path.phi_min)
    margin_op = op.enlarge_left(rho_inner)
    params, points, total = [0.0], [np.zeros(path.n_nodes)], len(path.r_grid)
    for k in range(1, len(path.r_grid)):
        r_lo, r_hi = path.r_grid[k - 1], path.r_grid[k]
        p_lo, p_hi = lifted[k - 1], lifted[k]
        pieces = 1
        if r_lo > 0.0:
            eps = eta_out(phi_min_base(r_lo))
            pieces = max(int(math.ceil(sup_norm(p_hi - p_lo) / eps)), 1) if eps > 0 else 1
        total += max(pieces - 1, 0)
        if total > max_knots:
            return f"refinement needs more than {max_knots} knots in window [{r_lo}, {r_hi}]", float(r_lo)
        for j in range(1, pieces):
            t = j / pieces
            r_mid = r_lo + t * (r_hi - r_lo)
            p_mid = (1 - t) * p_lo + t * p_hi
            margin = p_mid - margin_op(p_mid)
            if np.min(margin) < -check_tol * max(1.0, sup_norm(p_mid)):
                message = (
                    f"inserted knot at r={r_mid} violates the surviving margin in window [{r_lo}, {r_hi}];"
                    " densify the source grid"
                )
                return message, float(r_mid)
            params.append(float(r_mid))
            points.append(p_mid)
        params.append(float(r_hi))
        points.append(p_hi)
    return np.asarray(params), np.vstack(points)


def serial_cofinality(op, s, stop):
    """The augmented run ``s <- s max T(s)`` from ``s``: (point, iterations, residual, status)."""
    return serial_run(op.augmented(), s.copy(), stop.max_iter, stop.tol * max(1.0, sup_norm(s)), stop.bound_for(s))


WITNESS_WORDS = {StopReason.DIVERGED: "diverged", StopReason.MAX_ITER: "inconclusive"}  # the old status words


def serial_orbit_path(op, s0, stop):
    """``orbit_path`` with its 8 upward rays climbed one augmented run at a time."""
    if np.any(s0 <= 0):
        raise PathConstructionError("the seed must have strictly positive entries")
    if np.any(op(s0) > s0):
        raise PathConstructionError("the seed is not a decay point of the operator")
    traj = iterate(op, s0, stop)
    if traj.stop_reason is not StopReason.CONVERGED:
        raise PathConstructionError("the forward orbit did not converge")
    if sup_norm(traj.final) > 1e-6 * max(1.0, sup_norm(s0)):
        raise PathConstructionError("the forward orbit stalled at a nonzero fixed point (no global attraction)")
    floor = 10.0 * stop.tol * max(1.0, sup_norm(s0))
    orbit = [s for s in traj.states if sup_norm(s) > floor]
    if not orbit:
        raise PathConstructionError("the orbit collapsed immediately; nothing to interpolate")
    ratios = []
    for s in orbit:
        m = float(np.min(s))
        if m <= 0.0:
            raise PathConstructionError(
                f"orbit point with a vanishing component at norm {sup_norm(s):.3e}: orbit is not coercive"
            )
        ratios.append(m / sup_norm(s))
    if ratios[-1] < 1e-3 * ratios[0]:
        raise PathConstructionError(
            f"orbit coercivity ratio collapsed from {ratios[0]:.3e} to {ratios[-1]:.3e}: orbit is not coercive"
        )
    ups = []
    base = sup_norm(s0)
    for k in range(1, 9):
        point, _, _, status = serial_cofinality(op, (2.0**k) * base * np.ones(op.n), stop)
        if status is not StopReason.CONVERGED:
            raise PathConstructionError(
                f"no decay point found above the ray at {2.0 ** k * base}: upward extension failed ({WITNESS_WORDS[status]})"
            )
        ups.append(point)
    params, points, mins = [0.0], [np.zeros(op.n)], []
    for p in list(reversed(orbit)) + ups:
        r = sup_norm(p)
        if r <= params[-1] * (1 + 1e-12):
            continue
        if not np.all(p >= points[-1] - 1e-12 * max(1.0, r)):
            raise PathConstructionError("orbit chain failed entrywise monotonicity")
        params.append(float(r))
        points.append(np.maximum(p, points[-1]))
        mins.append(float(np.min(p)) / r)
    return np.asarray(params), np.vstack(points), min(min(mins), 1.0)


def serial_combined_path(op, grid, m_interp, stop):
    """``combined_path``'s knots, each main knot from ``serial_max_fixed_point``
    and each gap stepped through its own ``projected`` operator."""
    main = []
    for r in grid:
        point, _, status, _ = serial_max_fixed_point(op, r * np.ones(op.n), stop)
        if status is not StopReason.CONVERGED:
            exc = PathConstructionError(f"maximal fixed point failed at knot r={r}", knot=float(r))
            exc.status = "inconclusive" if status is StopReason.MAX_ITER else "fail"
            raise exc
        main.append(point)
    main_arr = np.maximum.accumulate(np.vstack(main), axis=0)
    params, points, floors = [0.0], [np.zeros(op.n)], [0.0]
    for k in range(len(grid)):
        if k > 0:
            lo_r, hi_r = grid[k - 1], grid[k]
            proj = op.projected(lo_r * np.ones(op.n))
            traj = [main_arr[k]]
            for _ in range(max(m_interp, 0)):
                traj.append(proj(traj[-1]))
            inserted = [(lo_r + (hi_r - lo_r) * 2.0 ** (-m), traj[m]) for m in range(1, len(traj))]
            upper = main_arr[k]
            slack = 1e-12 * max(1.0, sup_norm(upper))
            for r_m, p in sorted(inserted, key=lambda t: t[0]):
                if r_m <= params[-1] + 1e-12 * max(1.0, r_m):
                    continue
                if not (np.all(p > points[-1] + slack) and np.all(p < upper - slack)):
                    continue
                params.append(float(r_m))
                points.append(p)
                floors.append(float(lo_r))
        params.append(float(grid[k]))
        points.append(np.maximum(main_arr[k], points[-1]))
        floors.append(float(grid[k]))
    return np.asarray(params), np.vstack(points), np.asarray(floors)


def crossing_network(rng, maf):
    """Gains with slope below one up to a random level and above one after it, so
    ray iterations converge below a crossing level and diverge above it."""
    n = int(rng.integers(2, 6))
    pool = []
    for _ in range(int(rng.integers(1, 4))):
        a, low = float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.2, 0.9))
        pool.append(random_kfun(rng) if rng.random() < 0.3 else KFun([0.0, a], [0.0, low * a], float(rng.uniform(1.2, 3.0))))
    edges = [(j, i, pool[int(rng.integers(len(pool)))]) for i in range(n) for j in range(n) if i != j and rng.random() < 0.6]
    if not edges:
        edges = [(1, 0, pool[0]), (0, 1, pool[0])]
    mafs = maf if maf != "mixed" else [(MAX, SUM, L2)[int(rng.integers(3))] for _ in range(n)]
    return build_network(n, edges, mafs, validation_samples=10)


NETWORK_KINDS = [MAX, SUM, "mixed"]


def random_networks(seed, count):
    rng = np.random.default_rng(seed)
    return [crossing_network(rng, NETWORK_KINDS[k % 3]) for k in range(count)]


def same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestDriver:
    def test_batch_matches_single_columns(self):
        seen = set()
        rng = np.random.default_rng(5)
        for net in random_networks(11, 30):
            op = as_operator(net)
            m = 12
            floor = rng.uniform(0.0, 2.0, size=(net.n, m)) * rng.choice([0.0, 1.0, 3.0], size=m)
            s = floor + rng.uniform(0.0, 1.0, size=(net.n, m)) * rng.choice([0.0, 0.0, 1.0], size=m)
            tol = rng.choice([1e-12, 1e-6, 1e-2], size=m)
            bound = rng.choice([10.0, 1e3, 1e9], size=m)
            for direction in (0, 1, -1):
                for use_floor in (False, True):
                    point, its, res, status = _run(op, s, 40, tol, bound, direction, floor if use_floor else None)
                    for k in range(m):
                        one = op.projected(floor[:, k]) if use_floor else op
                        try:
                            want = serial_run(one, s[:, k].copy(), 40, tol[k], bound[k], direction)
                        except MonotoneStepError as exc:
                            assert isinstance(status[k], MonotoneStepError) and str(status[k]) == str(exc)
                            seen.add("monotone")
                            continue
                        assert same(point[:, k], want[0]) and its[k] == want[1] and same(res[k], want[2])
                        assert status[k] is want[3]
                        seen.add(want[3])
                        # the same column run alone gives the same bits
                        alone = _run(op, s[:, k : k + 1], 40, tol[k], bound[k], direction, floor[:, k : k + 1] if use_floor else None)
                        assert same(alone[0][:, 0], want[0]) and alone[1][0] == want[1] and same(alone[2][0], want[2])
        assert seen == {StopReason.CONVERGED, StopReason.DIVERGED, StopReason.MAX_ITER, "monotone"}

    def test_states_and_norms(self, two_node_half):
        op = as_operator(two_node_half)
        states = []
        s = np.asarray([[1.0], [2.0]])
        _run(op, s, 5, 0.0, 1e30, states=states)
        assert len(states) == 5 and same(states[0], op(s))
        norms = np.zeros((2, 6))
        rays = np.ones((2, 2)) * [1.0, 4.0]
        _run(op, rays, 5, 0.0, 1e30, norms=norms)
        assert same(norms[:, 1:], np.asarray([[0.5**k for k in range(1, 6)], [4 * 0.5**k for k in range(1, 6)]]))

    def test_infinite_ceiling_changes_nothing(self):
        rng = np.random.default_rng(7)
        for net in random_networks(13, 12):
            op, m = as_operator(net), 8
            floor = rng.uniform(0.0, 2.0, size=(net.n, m)) * rng.choice([0.0, 1.0], size=m)
            s = floor + rng.uniform(0.0, 1.0, size=(net.n, m))
            for direction in (0, 1, -1):
                want = _run(op, s, 30, 1e-9, 1e3, direction, floor)
                got = _run(op, s, 30, 1e-9, 1e3, direction, floor, ceiling=np.full((1, m), np.inf))
                assert all(same(a, b) for a, b in zip(got[:3], want[:3]))
                assert [(type(a), str(a)) for a in got[3]] == [(type(b), str(b)) for b in want[3]]

    def test_ceiled_columns_stay_below_their_ceiling(self):
        ceiling = np.asarray([[0.5, 2.0, 8.0, np.inf]])
        for net in random_networks(17, 12):
            op = as_operator(net)
            norms = np.zeros((4, 41))
            point, _, _, _ = _run(op, np.ones((op.n, 4)) * np.minimum(ceiling, 4.0), 40, 0.0, 1e30, norms=norms, ceiling=ceiling)
            assert np.all(norms <= ceiling.T) and np.all(point <= ceiling)

    def test_empty_batch(self, two_node_half):
        point, its, res, status = _run(as_operator(two_node_half), np.zeros((2, 0)), 10, 1e-10, 1.0)
        assert point.shape == (2, 0) and status == []


GRIDS = [np.asarray([2.0**k for k in range(-6, 7)]), np.asarray([0.3, 1.7, 5.0])]


class TestBatchedCallers:
    @pytest.mark.parametrize("rho", [None, linear(0.05)])
    def test_stability_battery(self, rho):
        outcomes = set()
        for net in random_networks(21, 24):
            for grid in GRIDS:
                rep = stability_battery(net, rho, grid, n_max=48)
                op = as_operator(net) if rho is None else as_operator(net).enlarge_left(rho)
                kl, gatt, ugs, inconclusive, env = serial_battery(op, rep.r_grid, 48, StopRule())
                assert rep.kl_table.tobytes() == kl.tobytes()
                assert rep.gatt_per_r == gatt and rep.ugs_per_r == ugs and rep.inconclusive_r == inconclusive
                if env is None:
                    assert rep.ugs_envelope is None
                else:
                    assert same(rep.ugs_envelope.xs, env.xs) and same(rep.ugs_envelope.ys, env.ys)
                    assert rep.ugs_envelope.final_slope == env.final_slope
                outcomes.add((all(ugs), any(ugs)))
        assert outcomes >= {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("rho", [None, linear(0.05)])
    def test_ray_probes_report_the_serial_first_failure(self, rho):
        outcomes = set()
        stop = StopRule(max_iter=25)
        for net in random_networks(31, 30):
            for grid in GRIDS:
                got_mbi = max_mbi_probe(net, rho, grid, stop).to_dict()
                got_path = _path_outcome(net, rho, grid, stop)
                assert got_mbi == frozen_mbi(net, rho, grid, stop).to_dict()
                want_path = serial_minimal_path(net, rho, grid, stop)
                if isinstance(want_path, tuple):
                    assert got_path == want_path
                else:
                    assert same(got_path.r_grid, want_path.r_grid) and same(got_path.points, want_path.points)
                    assert same(got_path.phi_max.xs, want_path.phi_max.xs) and same(got_path.phi_max.ys, want_path.phi_max.ys)
                if got_mbi["status"] == "inconclusive":
                    assert got_mbi["witness"]["r"] in grid and got_mbi["witness"]["iterations"] == stop.max_iter
                outcomes.add(got_mbi["status"])
        assert outcomes == {"evidence", "fail", "inconclusive"}

    def test_monotone_failure_raised_when_the_scan_reaches_it(self):
        class Bouncing:
            """Not monotone: doubles values up to 0.6 and drops larger ones to 0."""

            n = 2

            def __call__(self, s):
                return np.where(s > 0.6, 0.0, 2.0 * s)

        def scan(grid, stop):
            return _scan(*_ray_batch(Bouncing(), (), 0, np.asarray(grid), stop.max_iter, stop).fp)

        # 2.0 is fixed at once; 0.4 climbs to 0.8 and falls back to its floor
        with pytest.raises(MonotoneStepError, match="failed to increase"):
            scan([2.0, 0.4], StopRule())
        # 0.5 diverges past 0.9 before 0.4 falls back, so the scan stops there
        (res,) = scan([0.5, 0.4], StopRule(divergence_bound=0.9))
        assert res.status is StopReason.DIVERGED and res.iterations == 1

    def test_validate(self):
        rng = np.random.default_rng(41)
        verdicts = set()
        for net in random_networks(41, 30):
            for rho in (None, linear(0.05)):
                path = random_path(rng, net.n, rho)
                got = validate(path, net).to_dict()
                assert got == serial_validate(path, as_operator(net))
                verdicts.add(got["decay"]["ok"])
        assert verdicts == {True, False}

    def test_regularize(self):
        rng = np.random.default_rng(51)
        outcomes = set()
        for net in random_networks(51, 30):
            path = random_path(rng, net.n, linear(float(rng.uniform(0.05, 0.5))))
            for max_knots in (10**6, 40):
                want = serial_regularize(path, as_operator(net), max_knots)
                try:
                    got = regularize(path, net, max_knots=max_knots)
                except PathConstructionError as exc:
                    assert (str(exc), exc.knot) == want
                    outcomes.add(str(exc).split()[0])
                    continue
                assert same(got.r_grid, want[0]) and same(got.points, want[1])
                outcomes.add("ok")
        assert outcomes == {"ok", "inserted", "refinement"}

    def test_regularize_raises_before_building_the_window_over_budget(self, two_node_half):
        # the last window needs about 4e5 pieces, 6.8 MB of knots for two nodes
        points = np.asarray([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [100.0, 100.0]])
        path = DecayPath(np.arange(4.0), points, linear(0.1), linear(0.01), linear(200.0))
        tracemalloc.start()
        try:
            with pytest.raises(PathConstructionError, match=r"more than 10000 knots in window \[2.0, 3.0\]"):
                regularize(path, two_node_half, max_knots=10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestOneLeastFixedPoint:
    """``cofinality_witness`` is ``min_fixed_point``; ``orbit_path`` climbs its
    upward rays as one batch and ``combined_path`` steps its gaps as one."""

    @pytest.mark.parametrize("rho", [None, linear(0.1)])
    def test_cofinality_witness_is_the_augmented_run(self, rho):
        rng = np.random.default_rng(61)
        outcomes = set()
        for net in random_networks(61, 30):
            op = as_operator(net, rho)
            for stop in (StopRule(), StopRule(max_iter=25)):
                for scale in (0.01, 0.3, 2.0, 40.0):
                    s = scale * rng.uniform(0.0, 1.0, net.n) * rng.choice([0.0, 1.0], size=net.n, p=[0.25, 0.75])
                    got = cofinality_witness(op, s, stop)
                    point, its, res, status = serial_cofinality(op, s, stop)
                    assert same(got.point, point) and got.iterations == its and got.status is status
                    if status is not StopReason.CONVERGED:
                        assert same(got.residual, res)
                    outcomes.add(status)
        assert outcomes == {StopReason.CONVERGED, StopReason.DIVERGED, StopReason.MAX_ITER}

    @pytest.mark.parametrize("rho", [None, linear(0.1)])
    def test_orbit_path(self, rho):
        rng = np.random.default_rng(71)
        outcomes = set()
        # the loop gain contracts below 1, crosses the identity up to 2 and then
        # creeps toward a large fixed point at slope 0.999 (rho included), so
        # from the seed (0.5, 0.2) the forward orbit converges and the rays
        # from 2 up exhaust a cap of 400 steps
        creep = 0.999 / (1.0 if rho is None else 1.1**2)
        slow = build_network(2, [(0, 1, KFun([0.0, 1.0, 2.0], [0.0, 0.3, 3.3], creep)), (1, 0, linear(1.0))], MAX)
        cases = [(net, StopRule(max_iter=it), None) for net in random_networks(71, 30) for it in (100_000, 400)]
        for net, stop, seed in cases + [(slow, StopRule(max_iter=400), np.asarray([0.5, 0.2]))]:
            op = as_operator(net, rho)
            for scale in (0.02, 0.5, 5.0):
                if seed is None:
                    # a decay point with a random shape, or a ray that need not decay
                    start = scale * rng.uniform(0.2, 1.0, net.n)
                    s0 = cofinality_witness(op, start, stop).point if rng.random() < 0.8 else start
                else:
                    s0 = scale * seed
                try:
                    want = serial_orbit_path(op, s0, stop)
                except PathConstructionError as exc:
                    with pytest.raises(PathConstructionError) as got:
                        orbit_path(net, s0, stop, rho)
                    assert (str(got.value), got.value.knot) == (str(exc), exc.knot)
                    outcomes.add(str(exc).split(":")[-1].strip() if "upward" in str(exc) else "other")
                    continue
                path = orbit_path(net, s0, stop, rho)
                assert same(path.r_grid, want[0]) and same(path.points, want[1])
                assert path.phi_min.final_slope == want[2]
                outcomes.add("ok")
        assert outcomes == {"ok", "other", "upward extension failed (diverged)", "upward extension failed (inconclusive)"}

    @pytest.mark.parametrize("rho", [None, linear(0.1)])
    def test_combined_path(self, rho):
        outcomes = set()
        grids = [default_knots(-6, 4), np.asarray([0.05, 0.3, 0.31, 2.0]), np.asarray([0.7])]
        cases = [(net, StopRule()) for net in random_networks(81, 24)] + [(net, StopRule(max_iter=25)) for net in random_networks(82, 6)]
        if rho is not None:
            cases.append((EXHAUSTING, StopRule()))
        for net, stop in cases:
            op = as_operator(net, rho)
            for grid in grids:
                for m_interp in (0, 1, 3):
                    try:
                        want = serial_combined_path(op, grid, m_interp, stop)
                    except PathConstructionError as exc:
                        with pytest.raises(PathConstructionError) as got:
                            combined_path(net, rho, grid, m_interp, stop)
                        assert (str(got.value), got.value.knot, got.value.status) == (str(exc), exc.knot, exc.status)
                        outcomes.add(exc.status)
                        continue
                    path = combined_path(net, rho, grid, m_interp, stop)
                    assert same(path.r_grid, want[0]) and same(path.points, want[1])
                    phi_min = envelope(MonotoneSamples(want[0], want[2]), Side.BELOW)
                    assert same(path.phi_min.xs, phi_min.xs) and same(path.phi_min.ys, phi_min.ys)
                    outcomes.add("interpolated" if len(path.r_grid) > len(grid) + 1 else "knots only")
        assert outcomes == {"interpolated", "knots only", "fail", "inconclusive"}


class Steps:
    """A non-monotone elementwise operator on two nodes: ``values[k]`` on
    ``[cuts[k - 1], cuts[k])``, and ``slope * s`` from ``cuts[-1]`` on when
    ``slope`` is given."""

    n = 2

    def __init__(self, cuts, values, slope=None):
        self.cuts, self.values, self.slope = np.asarray(cuts), np.asarray(values), slope

    def __call__(self, s):
        out = self.values[np.minimum(np.searchsorted(self.cuts, s, side="right"), len(self.values) - 1)]
        return out if self.slope is None else np.where(s >= self.cuts[-1], self.slope * s, out)


# random_networks(186, 23)[22] with rho 0.1: at knot 2**-6 every descent fails, up to the cap 2**9
EXHAUSTING = random_networks(186, 23)[22]


class TestMaxFixedPoints:
    """The cap rounds of ``_max_fixed_points`` against ``serial_max_fixed_point``
    knot by knot: the same points, iterations and statuses, and the same
    first error."""

    def check(self, op, grid, stop):
        b = np.ones((op.n, len(grid))) * np.asarray(grid, dtype=float)
        want, error = serial_max_scan(op, b, stop)
        try:
            got = _max_fixed_points(op, b, 2.0 * np.maximum(grid, 1.0), stop)
        except MonotoneStepError as exc:
            assert str(exc) == error and error is not None
            return error
        assert error is None and len(got) == len(want)
        for res, (point, its, status, _) in zip(got, want):
            assert same(res.point, point) and res.iterations == its and res.status is status
        return f"{want[-1][3]}: {want[-1][2].value}"

    def test_networks(self):
        outcomes = set()
        grids = [default_knots(-6, 4), np.asarray([0.05, 0.3, 0.31, 2.0])]
        rng = np.random.default_rng(91)
        nets = random_networks(91, 18) + [random_network(rng, n_max=5) for _ in range(6)]
        for net in nets:
            for rho in (None, linear(0.1)):
                for stop in (StopRule(), StopRule(max_iter=25)):
                    for grid in grids:
                        outcomes.add(self.check(as_operator(net, rho), grid, stop))
        outcomes.add(self.check(as_operator(EXHAUSTING, linear(0.1)), default_knots(-6, 4), StopRule()))
        assert outcomes == {"descent: converged", "top: diverged", "top: max_iter", "exhausted: max_iter"}

    def test_errors_in_column_order(self):
        # the top above 2 climbs to 3 and falls back to the cap
        top_falls = Steps([0.55, 0.75, 1.5, 2.5], [0.9, 0.6, 0.9, 3.0, 0.0])
        # from 2 the descent stops at 0.6, but the least fixed point above 0.5 is 0.9
        fell_below = Steps([0.55, 0.75, 1.5], [0.9, 0.6, 0.9, 0.6])
        # the least fixed point above 0.5 climbs to 0.9 and falls back
        low_falls = Steps([0.55, 0.75, 1.5], [0.9, 0.6, 0.0, 0.6])
        # halving from every cap, each descent rises from below 1 to 0.9
        exhausts = Steps([1.0], [0.9, 0.9], slope=0.5)

        expected = {
            top_falls: "projected trajectory failed to increase",
            fell_below: "maximal fixed point fell below the minimal one",
            low_falls: "projected trajectory failed to increase",
        }
        for f, message in expected.items():
            assert self.check(f, [0.5], StopRule()) == message
            assert self.check(f, [4.0, 0.5, 0.7], StopRule()) == message
            # a column that diverges first ends the scan before the error
            assert self.check(f, [4.0, 1e12, 0.5], StopRule(divergence_bound=1e10)) == "top: diverged"
        assert self.check(exhausts, [0.5, 0.5], StopRule()) == "exhausted: max_iter"
        assert self.check(exhausts, [4.0, 0.5, 1e12], StopRule(divergence_bound=1e10)) == "exhausted: max_iter"


def _path_outcome(net, rho, grid, stop):
    try:
        return minimal_path(net, rho, grid, stop)
    except PathConstructionError as exc:
        return str(exc), exc.knot


def random_path(rng, n, rho):
    """An increasing random path from the origin, with loose sandwich bounds."""
    k = int(rng.integers(3, 9))
    r_grid = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 2.0, size=k))))
    steps = rng.uniform(0.0, 1.0, size=(k, n)) * r_grid[1:, None].clip(max=1.0) + 0.01
    points = np.vstack([np.zeros(n), np.cumsum(steps, axis=0) * rng.uniform(0.3, 1.5)])
    return DecayPath(r_grid, points, rho, linear(float(rng.uniform(0.01, 0.5))), linear(float(rng.uniform(1.0, 6.0))))


def frozen_battery(net_or_op, rho=None, r_grid=None, n_max=256, stop=StopRule(), **_):
    """``stability_battery`` as it ran before its rays shared a batch: a ray
    table run, and an augmented run capped at ``10 * n_max`` steps for UGS."""
    op = as_operator(net_or_op, rho)
    r_grid = np.asarray(sorted(float(r) for r in (r_grid if r_grid is not None else [2.0**k for k in range(-8, 9)])))
    m = len(r_grid)
    aug_stop = StopRule(min(stop.max_iter, 10 * n_max), stop.tol, stop.divergence_bound)
    rays = np.ones((op.n, m)) * r_grid
    kl = np.zeros((m, n_max + 1))
    kl[:, 0] = r_grid
    _, its, _, _ = _run(op, rays, n_max, 0.0, 1e30, norms=kl)
    kl = np.where(np.arange(n_max + 1) <= its[:, None], kl, kl[np.arange(m), its][:, None])
    gatt = [bool(g) for g in np.any(kl[:, 1:] <= 1e-8 * np.maximum(1.0, r_grid)[:, None], axis=1)]
    tol = stop.tol * np.maximum(1.0, r_grid)
    point, _, _, status = _run(op.augmented(), rays, aug_stop.max_iter, tol, aug_stop.bound_for(rays))
    ugs = [st is StopReason.CONVERGED for st in status]
    inconclusive = [float(r) for r, st in zip(r_grid, status) if st is StopReason.MAX_ITER]
    env = None
    if all(ugs):
        aug_sup = np.maximum.accumulate(np.abs(point).max(axis=0, initial=0.0))
        env = envelope(MonotoneSamples(np.concatenate(([0.0], r_grid)), np.concatenate(([0.0], aug_sup))), Side.ABOVE)
    return StabilityReport(r_grid, n_max, kl, gatt, ugs, inconclusive, env, all(gatt), all(ugs), all(gatt) and all(ugs))


def frozen_mbi(net, rho=None, r_grid=None, stop=StopRule(), **_):
    """``max_mbi_probe`` with its own rays, grown one ``min_fixed_point`` at a time."""
    r_grid = sorted(float(r) for r in (r_grid if r_grid is not None else [2.0**k for k in range(-10, 11)]))
    op, pairs = as_operator(net, rho), [(0.0, 0.0)]
    for r in r_grid:
        point, its, _, status = serial_min_fixed_point(op, r * np.ones(op.n), stop)
        if status is StopReason.DIVERGED:
            return SgcVerdict(condition="max_mbi", status="fail", counterexample={"r": r, "norm_reached": sup_norm(point), "iterations": its})
        if status is StopReason.MAX_ITER:
            note = "iteration cap hit before convergence or divergence"
            return SgcVerdict(condition="max_mbi", status="inconclusive", witness={"r": r, "iterations": its}, note=note)
        pairs.append((r, sup_norm(point)))
    zs = np.maximum.accumulate(np.asarray([z for _, z in pairs]))
    phi = envelope(MonotoneSamples(np.asarray([p for p, _ in pairs]), zs), Side.ABOVE)
    fit = {"xs": phi.xs.tolist(), "ys": phi.ys.tolist(), "final_slope": phi.final_slope}
    return SgcVerdict(condition="max_mbi", status="evidence", witness={"phi_fit": fit, "r_grid": list(r_grid)}, samples=len(r_grid))


def pl_gain(slope_to_1, final_slope):
    return {"type": "pl", "points": [[0.0, 0.0], [1.0, slope_to_1]], "final_slope": final_slope}


def edge_file(nodes, maf, edges):
    return {"nodes": nodes, "maf": maf, "edges": [{"from": j, "to": i, "gain": g} for j, i, g in edges]}


def rho_sum3(rho=1.06):
    """A linear sum network on a 3-ring with chords whose gain matrix has spectral radius ``rho``."""
    pairs = [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0)]
    weights = np.asarray([0.9, 0.6, 0.8, 0.4, 0.5])
    a = np.zeros((3, 3))
    for (j, i), w in zip(pairs, weights):
        a[i, j] = w
    weights = weights * rho / float(np.max(np.abs(np.linalg.eigvals(a))))
    return edge_file(3, "sum", [(j, i, {"type": "linear", "k": float(w)}) for (j, i), w in zip(pairs, weights)])


# the rays above r = 1 climb through slope 2 on [0, 1] and then creep at slope
# 0.99 to the fixed point 101 (converging after about 5,000 steps), or at
# slope 1.01 past the divergence bound (after about 4,000 steps): either way
# beyond the 2,560 steps of check's battery, and within StopRule's cap
CHECK_NETS = {
    "nearcrit": edge_file(3, "sum", [(0, 1, {"type": "linear", "k": 0.9995}), (1, 0, {"type": "linear", "k": 0.9995}), (0, 2, {"type": "linear", "k": 1000.0})]),
    "rho_sum3": rho_sum3(),
    "creep_converges": edge_file(2, "max", [(0, 1, pl_gain(2.0, 0.99)), (1, 0, {"type": "linear", "k": 1.0})]),
    "creep_diverges": edge_file(2, "max", [(0, 1, pl_gain(2.0, 1.01)), (1, 0, {"type": "linear", "k": 1.0})]),
}
SWEEP = {"nodes": 8, "maf": "sum", "template": {"offsets": [{"offset": -1, "gain": {"type": "linear", "k": 0.55}}, {"offset": 1, "gain": pl_gain(0.4, 0.45)}]}}


class TestCheckRayBatch:
    """``check``'s one ray batch against the battery and ``max_mbi`` as their
    own separate runs made them: the same certificate bytes, and
    ``StabilityReport.to_dict()`` and ``max_mbi`` verdict."""

    def check_bytes(self, tmp_path, monkeypatch, data, flags=()):
        import sglab.cli as cli_mod

        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        certs = []
        for frozen in (False, True):
            with monkeypatch.context() as mp:
                if frozen:
                    mp.setattr(cli_mod, "stability_battery", frozen_battery)
                    mp.setattr(cli_mod, "max_mbi_probe", frozen_mbi)
                out = tmp_path / f"cert-{frozen}.json"
                code = cli_mod.main(["check", str(path), "--out", str(out), *flags])
            certs.append((code, WALL.sub(b"", out.read_bytes())))
        assert certs[0] == certs[1]
        return json.loads(certs[0][1])

    @pytest.mark.parametrize("name", ["nearcrit", "rho_sum3"])
    def test_default_grids(self, name, tmp_path, monkeypatch):
        cert = self.check_bytes(tmp_path, monkeypatch, CHECK_NETS[name])
        mbi = next(v for v in cert["verdicts"] if v["condition"] == "max_mbi")
        assert mbi["status"] == ("evidence" if name == "nearcrit" else "fail")

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
    def test_golden_networks(self, name, tmp_path, monkeypatch):
        data = json.loads((GOLDEN / f"{name}.json").read_text())
        self.check_bytes(tmp_path, monkeypatch, data)
        self.check_bytes(tmp_path, monkeypatch, data, ["--grid", "geometric:-3:3", "--rho", "linear:0.2"])

    @pytest.mark.parametrize("name,mbi_status", [("creep_converges", "evidence"), ("creep_diverges", "fail")])
    def test_rays_decided_after_the_battery_cap(self, name, mbi_status, tmp_path, monkeypatch):
        cert = self.check_bytes(tmp_path, monkeypatch, CHECK_NETS[name], ["--grid", "geometric:0:2"])
        mbi = next(v for v in cert["verdicts"] if v["condition"] == "max_mbi")
        assert mbi["status"] == mbi_status
        # the battery stops at 10 * 256 steps: every ray is undecided there, not a failure
        assert cert["stability"]["inconclusive_r"] == [1.0, 2.0, 4.0] and not any(cert["stability"]["ugs_per_r"])
        if mbi_status == "fail":
            assert mbi["counterexample"]["iterations"] > 2560

    def test_truncation_sweep(self, tmp_path, monkeypatch):
        cert = self.check_bytes(tmp_path, monkeypatch, SWEEP, ["--N", "4", "--N", "30"])
        assert [row["N"] for row in cert["extras"]["truncation_sweep"]] == [4, 30]
        cert = self.check_bytes(tmp_path, monkeypatch, SWEEP, ["--N", "6", "--grid", "geometric:-2:3"])
        assert len(cert["extras"]["truncation_sweep"]) == 1

    @pytest.mark.parametrize("n_max", [64, 256])
    def test_reports_and_verdicts(self, n_max):
        """The shared batch's reports at both of check's table lengths, the UGS
        rays capped at 10 * n_max: a ray that converges or diverges between
        640 and 2,560 steps is decided at 256 and inconclusive at 64."""
        import sglab.cli as cli_mod

        # without rho its rays below 51 converge after 1,800 to 2,300 steps
        slow = network_from_dict(edge_file(2, "max", [(0, 1, pl_gain(2.0, 0.98)), (1, 0, {"type": "linear", "k": 1.0})]))[0]
        # custom (L2) aggregation, one network partly UGS and one with an envelope:
        # T is monotone in floating point, so the asserted increasing step holds
        custom = [crossing_network(np.random.default_rng(seed), L2) for seed in (1, 2)]
        outcomes = {}
        for net in [network_from_dict(CHECK_NETS["nearcrit"])[0], network_from_dict(CHECK_NETS["rho_sum3"])[0], slow, *custom]:
            for rho, grid in [(None, None), (linear(0.05), default_knots(-2, 3))]:
                rays = cli_mod._check_rays(net, rho, grid, n_max)
                got = stability_battery(net, rho, grid, n_max, _rays=rays)
                want = frozen_battery(net, rho, grid, n_max)
                assert got.to_dict() == want.to_dict()
                if want.ugs_envelope is None:
                    assert got.ugs_envelope is None
                else:
                    assert same(got.ugs_envelope.xs, want.ugs_envelope.xs) and same(got.ugs_envelope.ys, want.ugs_envelope.ys)
                assert max_mbi_probe(net, rho, grid, _rays=rays).to_dict() == frozen_mbi(net, rho, grid).to_dict()
                # called alone, the battery gives the same report
                assert stability_battery(net, rho, grid, n_max).to_dict() == got.to_dict()
                outcomes[net is slow, rho is None] = got.inconclusive_r
        assert bool(outcomes[True, True]) == (n_max == 64)

    def test_applications_are_the_slowest_column(self, tmp_path, monkeypatch):
        """On a rho(A) = 1.06 sum network, check's battery and max_mbi stage applies
        T as often as its longest column steps: the 256-step table or the
        slowest least-fixed-point ray, not the sum of three runs."""
        import sglab.cli as cli_mod

        path = tmp_path / "net.json"
        path.write_text(json.dumps(CHECK_NETS["rho_sum3"]))
        calls, inside = [0], [0]
        real_call = GainOperator.__call__

        def counted(self, s):
            calls[0] += inside[0] > 0
            return real_call(self, s)

        def stage(fn):
            def run(*args, **kwargs):
                inside[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside[0] -= 1

            return run

        monkeypatch.setattr(GainOperator, "__call__", counted)
        for name in ("_check_rays", "stability_battery", "max_mbi_probe"):
            monkeypatch.setattr(cli_mod, name, stage(getattr(cli_mod, name)))
        assert cli_mod.main(["check", str(path), "--out", str(tmp_path / "cert.json")]) == 1
        monkeypatch.undo()
        op = as_operator(network_from_dict(CHECK_NETS["rho_sum3"])[0])
        slowest = max(serial_min_fixed_point(op, r * np.ones(3), StopRule())[1] for r in default_knots(-10, 10))
        assert slowest > 256 and calls[0] == slowest


def frozen_ray_batch(op, table_grid, n_max, fp_grid, fp_cap, stop):
    """``_ray_batch`` as it ran before it could hold the descent column:
    the table's norms and the least-fixed-point columns."""
    t, f, grid = len(table_grid), len(fp_grid), np.concatenate((table_grid, fp_grid))
    cols = len(grid)
    kl = np.zeros((cols, n_max + 1))
    kl[:, 0] = grid
    tol = np.concatenate((np.zeros(t), stop.tol * np.maximum(1.0, fp_grid)))
    bound = np.concatenate((np.full(t, 1e30), stop.bound_for(fp_grid[None, :])))
    cap = np.concatenate((np.full(t, n_max), np.full(f, fp_cap)))
    floor = np.concatenate((np.zeros(t), fp_grid))[None, :]
    direction = np.concatenate((np.zeros(t), np.ones(f)))
    point, its, res, status = _run(op, np.ones((op.n, cols)) * grid, cap, tol, bound, direction, floor, norms=kl)
    kl = np.where(np.arange(n_max + 1) <= its[:t, None], kl[:t], kl[np.arange(t), its[:t]][:, None])
    return kl, (point[:, t:], its[t:], res[t:], status[t:])


def serial_descent(op, r, n_max):
    """The clamped descent ``s <- r * ones min T(s)`` from ``r * ones``, one column,
    with its norm after each step: (point, iterations, status, norms)."""
    states = []
    point, its, _, status = serial_run(lambda s: np.minimum(r, op(s)), r * np.ones(op.n), n_max, 0.0, 1e30, -1, states)
    return point, its, status, [r] + [sup_norm(x) for x in states]


class TestDescentColumn:
    """The descent column rides in a ray batch without moving a bit of the
    other columns, and steps as the one-column clamped descent does."""

    def test_other_columns_keep_their_bits(self):
        nets = [as_operator(net) for net in random_networks(23, 18)]
        nets += [as_operator(network_from_dict(CHECK_NETS[name])[0]) for name in ("nearcrit", "rho_sum3")]
        descents = set()
        for op in nets:
            for table, fp_grid, n_max in [(default_knots(-8, 8), default_knots(-10, 10), 256), (default_knots(-2, 3), default_knots(-2, 3), 64)]:
                tops = (float(table[-1]), 1.0)
                rays = _ray_batch(op, table, n_max, fp_grid, StopRule().max_iter, StopRule(), tops)
                kl, fp = frozen_ray_batch(op, table, n_max, fp_grid, StopRule().max_iter, StopRule())
                assert same(rays.kl, kl) and same(rays.fp[0], fp[0]) and same(rays.fp[1], fp[1]) and same(rays.fp[2], fp[2])
                assert [(type(a), str(a)) for a in rays.fp[3]] == [(type(b), str(b)) for b in fp[3]]
                for r in tops:
                    point, its, status, norms = rays.descent(r)
                    want = serial_descent(op, r, n_max)
                    assert same(point, want[0]) and its == want[1] and status is want[2] and same(norms[: its + 1], want[3])
                    descents.add(status)
        assert descents == {StopReason.CONVERGED, StopReason.MAX_ITER}

    def test_without_the_descent_the_batch_is_the_frozen_one(self):
        for net in random_networks(29, 9):
            op = as_operator(net)
            rays = _ray_batch(op, default_knots(-3, 3), 32, default_knots(-4, 4), 500, StopRule())
            kl, fp = frozen_ray_batch(op, default_knots(-3, 3), 32, default_knots(-4, 4), 500, StopRule())
            assert rays.descents == () and same(rays.kl, kl) and same(rays.fp[0], fp[0]) and same(rays.fp[1], fp[1])


def replays(op, verdict):
    """An ``nji`` fail whose counterexample is ``s != 0`` with ``T(s) >= s``, through one application."""
    s = np.asarray(verdict.counterexample["s"])
    image = op(s)
    return verdict.failed and same(image, verdict.counterexample["image"]) and np.any(s > 0) and np.all(image >= s)


def rising_network():
    """A custom aggregation that halves values above 100 and doubles smaller ones,
    capped at 150: from 256 the descent steps 128, 64 and rises to 128."""

    def rule(v):
        m = float(np.max(v))
        return 0.5 * m if m > 100 else min(2.0 * m, 150.0)

    return build_network(2, [(0, 1, identity()), (1, 0, identity())], MafSpec("custom", func=rule, modulus=linear(3.0), xi=identity()))


class TestNjiDescent:
    """``nji_probe`` decided by the clamped descent from the top of the grid."""

    def test_sigma_1_1_chain_fails_at_step_136(self):
        net = chain_template(linear(0.55), SUM).instantiate(50)
        v = nji_probe(net)
        assert v.witness["step"] == 136 and replays(as_operator(net), v)

    def test_rho_sum3_fails(self):
        net = network_from_dict(CHECK_NETS["rho_sum3"])[0]
        assert replays(as_operator(net), nji_probe(net))

    def test_nearcrit_is_inconclusive_at_the_cap(self):
        v = nji_probe(network_from_dict(CHECK_NETS["nearcrit"])[0])
        assert v.status == "inconclusive" and v.witness["step"] == 256 and v.counterexample is None

    def test_a_joint_increase_below_eps_passes_on_the_annulus(self):
        # the gains are the identity up to 0.001 and contract above it: every joint
        # increase lies below 0.001 * ones, under eps = 2**-8, and the descent says so
        # at its first norm below eps, before it stops at 0.001 * ones (step 72)
        g = KFun([0.0, 0.001], [0.0, 0.001], 0.5)
        v = nji_probe(build_network(2, [(0, 1, g), (1, 0, g)], MAX))
        assert v.status == "pass" and v.witness["step"] == 17 and v.witness["norm"] < 2.0**-8

    def test_a_rising_step_is_inconclusive(self):
        v = nji_probe(rising_network())
        assert v.status == "inconclusive" and v.witness["step"] == 3 and "rose" in v.note

    def test_check_reads_the_descent_of_its_ray_batch(self):
        import sglab.cli as cli_mod

        for name in ("nearcrit", "rho_sum3"):
            net = network_from_dict(CHECK_NETS[name])[0]
            for rho, grid in [(None, None), (linear(0.1), default_knots(-3, 3))]:
                rays = cli_mod._check_rays(net, rho, grid, 256, uniform_r=1.0)
                assert nji_probe(net, rho, grid, _rays=rays).to_dict() == nji_probe(net, rho, grid).to_dict()
                assert uniform_nji_probe(net, 1.0, 0.25, rho, _rays=rays).to_dict() == uniform_nji_probe(net, 1.0, 0.25, rho).to_dict()


class TestDistinctTops:
    """``_max_fixed_points`` runs one top per distinct cap and matches the
    knot-by-knot ``serial_max_fixed_point`` wherever that serial loop succeeds."""

    def test_one_top_per_cap(self):
        checked = 0
        for net in random_networks(95, 24):
            op = as_operator(net)
            grid = default_knots(-10, 10)
            b = np.ones((op.n, len(grid))) * grid
            caps = 2.0 * np.maximum(grid, 1.0)
            widths = []

            class Recorded:
                n = op.n

                def __call__(self, s):
                    widths.append(s.shape[1])
                    return op(s)

            try:
                want, error = serial_max_scan(op, b, StopRule())
            except MonotoneStepError:
                continue
            if error is not None:
                continue
            got = _max_fixed_points(Recorded(), b, caps, StopRule())
            assert widths[0] == len(np.unique(caps)) == 11
            assert len(got) == len(want)
            for res, (point, its, status, _) in zip(got, want):
                assert same(res.point, point) and res.iterations == its and res.status is status
            checked += 1
        assert checked >= 10


def hub_network(k):
    """Node 0 listens to ``k`` nodes, contracting and expanding in turn, and each of them to node 0."""
    edges = [(j, 0, linear(0.3 if j % 2 else 1.5)) for j in range(1, k + 1)]
    return build_network(k + 1, edges + [(0, j, linear(0.5 + 0.1 * (j % 7))) for j in range(1, k + 1)], MAX)


def sourced_network():
    """Nodes 0 and 5 have no in-edges; 1..4 pass an expanding gain down a line, and 5 feeds 3."""
    edges = [(i - 1, i, linear(1.6)) for i in range(1, 5)] + [(5, 3, linear(0.4))]
    return build_network(6, edges, SUM)


UNIFORM_NETS = {
    "one_node": build_network(1, [], MAX),
    "sources": sourced_network(),
    "hub22": hub_network(22),
    "nearcrit": network_from_dict(CHECK_NETS["nearcrit"])[0],
    "sigma_1_1_chain50": chain_template(linear(0.55), SUM).instantiate(50),
    **{p.stem: network_from_dict(json.loads(p.read_text()))[0] for p in sorted(GOLDEN.glob("*.json"))},
}
UNIFORM_RHOS = [None, linear(0.05), KFun([0.0, 0.5, 2.0], [0.0, 0.02, 0.2], 0.05)]


def upstream_decay_holds(op, net, s, r, eps):
    """For every column of ``s`` in the ``r``-ball and every node ``i`` with
    ``s_i >= eps``, some node that reaches ``i`` decays: the uniform condition's
    requirement, checked node by node through ``neighborhood``."""
    t = op(s)
    for i in range(net.n):
        js = sorted(neighborhood(net.graph, i, net.n))
        active = (s[i] >= eps) & (s.max(axis=0) <= r)
        if np.any(active & ~np.any(t[js] < s[js], axis=0)):
            return False
    return True


def ball_samples(rng, n, r, count=400):
    """Vectors of norm at most ``r``: rays, unit bumps and random vectors, each scaled to a random norm."""
    s = rng.uniform(0.0, 1.0, size=(n, count)) * rng.choice([0.0, 1.0], size=(n, count), p=[0.3, 0.7])
    s[:, : count // 4] = 1.0
    s[:, count // 4 : count // 2] = np.eye(n)[:, rng.integers(n, size=count // 4)]
    norms = s.max(axis=0)
    s = s[:, norms > 0] / norms[norms > 0]
    return s * rng.uniform(0.0, r, size=s.shape[1])


class TestUniformNjiPropagation:
    """``uniform_nji_probe`` reads its own descent column, which propagates
    decay downstream one hop per step: its verdict is the one-column
    ``serial_descent`` read by the annulus rule, a ``fail`` replays a joint
    increase on ``eps <= ||s|| <= r``, and after a ``pass`` every sampled
    vector of the ``r``-ball has a decaying node upstream of each entry
    ``>= eps`` (checked node by node)."""

    @staticmethod
    def checked(net, r, eps, rho, rng):
        op, got = as_operator(net, rho), uniform_nji_probe(net, r, eps, rho)
        point, its, status, norms = serial_descent(op, r, 256)
        below = [k for k in range(1, its + 1) if norms[k] < eps]
        if got.status == "pass":
            assert got.witness["step"] == below[0]
            assert upstream_decay_holds(op, net, ball_samples(rng, net.n, r), r, eps)
        elif got.status == "fail":
            s = np.asarray(got.counterexample["s"])
            assert not below and status is StopReason.CONVERGED and same(s, point)
            assert replays(op, got) and eps <= sup_norm(s) <= r
        else:
            assert got.status == "inconclusive" and not below and its == 256 or isinstance(status, MonotoneStepError)
        return got.status

    def test_random_networks(self):
        nets = random_networks(101, 9) + [crossing_network(np.random.default_rng(seed), L2) for seed in (3, 4)]
        rng = np.random.default_rng(5)
        seen = set()
        for net in nets:
            for rho in UNIFORM_RHOS:
                for r, eps in [(1.0, 1.0), (4.0, 2.0**-6), (0.5, 0.5), (1.0, 0.25)]:
                    seen.add(self.checked(net, r, eps, rho, rng))
        assert seen == {"pass", "fail"}

    @pytest.mark.parametrize("name", sorted(UNIFORM_NETS))
    def test_special_networks(self, name):
        rng = np.random.default_rng(7)
        for rho in UNIFORM_RHOS:
            for r, eps in [(1.0, 0.25), (1.0, 1.0), (2.0, 2.0**-9)]:
                self.checked(UNIFORM_NETS[name], r, eps, rho, rng)

    def test_one_application_and_no_neighborhood(self, monkeypatch):
        """Read off ``check``'s batch, the probe walks no neighborhood and applies
        T only to replay a ``fail``'s counterexample: once, on one column."""
        import sglab.cli as cli_mod
        import sglab.network as network_mod
        import sglab.smallgain as smallgain_mod

        def refuse(*_):
            raise AssertionError("uniform_nji_probe walked a neighborhood")

        calls = []
        real_call = GainOperator.__call__
        monkeypatch.setattr(network_mod, "neighborhood", refuse)
        monkeypatch.setattr(smallgain_mod, "neighborhood", refuse, raising=False)
        statuses = set()
        for net in (UNIFORM_NETS["sigma_1_1_chain50"], UNIFORM_NETS["hub22"], UNIFORM_NETS["sum4_linear"]):
            rays = cli_mod._check_rays(net, None, None, 256, uniform_r=1.0)
            calls.clear()
            monkeypatch.setattr(GainOperator, "__call__", lambda self, s: calls.append(s.shape) or real_call(self, s))
            v = uniform_nji_probe(net, 1.0, 0.25, _rays=rays)
            monkeypatch.setattr(GainOperator, "__call__", real_call)
            assert calls == ([(net.n,)] if v.failed else [])
            statuses.add(v.status)
        assert statuses == {"fail", "pass"}


class TestUniformNjiBeyondItsGrid:
    """Stable networks that the sampled probe failed only because its depth
    (at most 8 hops) and its δ grid (down to 2**-8) ran out."""

    def test_nearcrit_check_exits_0_with_spectral_pass(self, tmp_path):
        import sglab.cli as cli_mod

        path, out = tmp_path / "net.json", tmp_path / "cert.json"
        path.write_text(json.dumps(CHECK_NETS["nearcrit"]))
        assert cli_mod.main(["check", str(path), "--out", str(out)]) == 0
        verdicts = {v["condition"]: v for v in json.loads(out.read_text())["verdicts"]}
        assert verdicts["spectral"]["status"] == "pass" and verdicts["uniform_nji"]["status"] != "fail"

    def test_linear_half_chain_of_50_is_not_a_fail(self):
        net = chain_template(linear(0.5), SUM).instantiate(50)  # rho(A) = cos(pi / 51)
        assert uniform_nji_probe(net, 1.0, 0.25).status != "fail"

    def test_decay_more_than_8_hops_upstream_is_not_a_fail(self):
        # node 0 reads nothing and so decays; every other node copies its predecessor
        net = build_network(12, [(i - 1, i, linear(1.0)) for i in range(1, 12)], MAX)
        v = uniform_nji_probe(net, 1.0, 0.25)
        assert v.status == "pass" and v.witness["step"] == 12

    def test_check_on_the_2000_node_chain_keeps_a_small_heap(self, tmp_path):
        """No n x 10**4 sample matrix: the heap peak of the whole ``check`` stays
        below 32 MiB on the 2,000-node chain (288 MiB with the sampled probes)."""
        import sglab.cli as cli_mod

        pl = {"type": "pl", "points": [[0, 0], [0.5, 0.2], [1, 0.3], [2, 0.5]], "final_slope": 0.2}
        data = {"nodes": 2000, "maf": "sum", "template": {"offsets": [{"offset": -1, "gain": {"type": "linear", "k": 0.25}}, {"offset": 1, "gain": pl}]}}
        path, out = tmp_path / "chain.json", tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            code = cli_mod.main(["check", str(path), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 32 * 2**20
