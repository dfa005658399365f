"""The column-batched iteration driver against one-column-at-a-time loops.

Each reference below is a copy of the loop as it ran before the driver
was batched: ``serial_run`` steps one column, and the battery, ray
fixed points, ``validate`` and ``regularize`` references walk their rays
and knots one at a time.  ``serial_cofinality`` is the augmented run
that ``cofinality_witness`` made before it became ``min_fixed_point``,
and the ``orbit_path`` and ``combined_path`` references climb their
upward rays and step their gaps one at a time through it and through
``projected`` operators.  ``serial_max_fixed_point`` is the knot-by-knot
cap escalation that ``combined_path``'s main knots ran before they were
batched, with the descent's slack covering the top's tolerance.
Batched results must match them bit for bit, including the first
failure a grid scan reports.
"""

import math
import tracemalloc

import numpy as np
import pytest

import sglab.paths as paths_mod
import sglab.smallgain as smallgain_mod
from sglab import (
    MAX,
    SUM,
    DecayPath,
    KFun,
    MafSpec,
    MonotoneSamples,
    MonotoneStepError,
    PathConstructionError,
    Side,
    StopReason,
    StopRule,
    as_operator,
    build_network,
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
    orbit_path,
    regularize,
    stability_battery,
    sub_from_id,
    sup_norm,
    validate,
)
from sglab.dynamics import _fixed_points, _max_fixed_points, _run
from conftest import random_kfun, random_network

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

    def test_in_order_stops_at_the_first_failure(self):
        g = KFun([0.0, 0.2], [0.0, 0.1], 2.0)  # crosses the identity at 0.3
        op = as_operator(build_network(3, [(0, 1, g), (1, 2, g), (2, 0, g)], MAX))
        grid = np.asarray([0.1, 0.2, 0.5, 0.25, 1.0])
        b = np.ones((3, 5)) * grid
        _, _, _, status = _run(op, b, 1000, 1e-10, 1e9 * grid + 1.0, +1, b, in_order=True)
        assert status == [StopReason.CONVERGED, StopReason.CONVERGED, StopReason.DIVERGED, None, None]

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
    def test_ray_probes_report_the_serial_first_failure(self, rho, monkeypatch):
        outcomes = set()
        stop = StopRule(max_iter=25)
        for net in random_networks(31, 30):
            for grid in GRIDS:
                got_mbi = max_mbi_probe(net, rho, grid, stop).to_dict()
                got_path = _path_outcome(net, rho, grid, stop)
                with monkeypatch.context() as mp:
                    mp.setattr(smallgain_mod, "_ray_fixed_points", serial_ray_fixed_points)
                    mp.setattr(paths_mod, "_ray_fixed_points", serial_ray_fixed_points)
                    assert got_mbi == max_mbi_probe(net, rho, grid, stop).to_dict()
                    want_path = _path_outcome(net, rho, grid, stop)
                if isinstance(want_path, tuple):
                    assert got_path == want_path
                else:
                    assert same(got_path.points, want_path.points) and same(got_path.phi_max.ys, want_path.phi_max.ys)
                if got_mbi["status"] == "inconclusive":
                    assert got_mbi["witness"]["r"] in grid and got_mbi["witness"]["iterations"] == stop.max_iter
                outcomes.add(got_mbi["status"])
        assert outcomes == {"evidence", "fail", "inconclusive"}

    def test_monotone_failure_raised_when_the_scan_reaches_it(self):
        class Bouncing:
            """Not monotone: doubles values up to 0.6 and drops larger ones to 0."""

            def __call__(self, s):
                return np.where(s > 0.6, 0.0, 2.0 * s)

        def scan(grid, stop):
            b = np.ones((2, len(grid))) * grid
            return _fixed_points(Bouncing(), b, b, stop, +1)

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
