"""Construction, regularization and validation of decay paths.

A decay path is a sampled increasing curve in the cone whose knots decay
under a (possibly enlarged) gain operator, sandwiched between scalar
coercivity bounds.  Three constructions are provided: the minimal path
(augmented-iteration limits above rays), the combined method (maximal
fixed points with projected-trajectory interpolation in the gaps) and
the complete-orbit method (forward orbit plus cofinality witnesses).

Paths are piecewise linear between knots.  Decay is certified at knots;
the regularization pass additionally validates the knots it inserts, and
raises when they fail, rather than assuming interpolants inherit decay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cone import sup_norm
# min_fixed_point, max_fixed_point and cofinality_witness stay bound here: perfbench/spans.py traces them under this module's name
from .dynamics import (  # noqa: F401
    StopReason,
    StopRule,
    _grid,
    _max_fixed_points,
    _ray_batch,
    _scan,
    as_operator,
    cofinality_witness,
    default_knots,
    iterate,
    max_fixed_point,
    min_fixed_point,
)
from .kfun import (
    KFun,
    MonotoneSamples,
    Side,
    envelope,
    factor_id_plus,
    id_plus,
    identity,
    linear,
    sub_from_id,
)

__all__ = [
    "DecayPath",
    "PathReport",
    "PathConstructionError",
    "default_knots",
    "minimal_path",
    "combined_path",
    "orbit_path",
    "regularize",
    "reparametrize_min_id",
    "validate",
    "restrict_path",
]

KNOT_MARGIN_TOL = 1e-9


class PathConstructionError(RuntimeError):
    """Path construction failed; carries the offending knot or window, and in
    ``status`` the verdict the failure supports: ``fail``, or ``inconclusive``
    when an iteration behind it hit its cap (see ``_stopped``)."""

    status = "fail"

    def __init__(self, message: str, knot: float | None = None):
        super().__init__(message)
        self.knot = knot


def _stopped(reason: StopReason, message: str, knot: float | None) -> PathConstructionError:
    """The error of an iteration stopped on ``reason``: ``inconclusive`` at its cap, else ``fail``."""
    exc = PathConstructionError(message, knot)
    exc.status = "inconclusive" if reason is StopReason.MAX_ITER else "fail"
    return exc


@dataclass(frozen=True)
class DecayPath:
    """Sampled increasing path with PL interpolation between knots.

    ``rho`` is the strictness margin: knot decay is asserted for the
    ``rho``-enlarged operator (``None`` means decay for the bare one).
    ``phi_min``/``phi_max`` sandwich the knots between scalar rays.
    """

    r_grid: np.ndarray
    points: np.ndarray
    rho: KFun | None
    phi_min: KFun
    phi_max: KFun

    def __post_init__(self):
        r = np.asarray(self.r_grid, dtype=float)
        p = np.asarray(self.points, dtype=float)
        if r.ndim != 1 or p.ndim != 2 or p.shape[0] != len(r):
            raise ValueError("need matching knot grid (K,) and points (K, n)")
        if len(r) < 2 or r[0] != 0.0 or not np.all(np.isfinite(r)) or not np.all(np.diff(r) > 0):
            raise ValueError("knot grid must be finite, start at 0 and be strictly increasing")
        if not np.all(np.isfinite(p)):
            raise ValueError("knot points must be finite")
        if np.any(p[0] != 0.0):
            raise ValueError("the path must start at the origin")
        if np.any(np.diff(p, axis=0) < -1e-9 * max(1.0, np.max(np.abs(p)))):
            raise ValueError("knot points must be entrywise non-decreasing along the grid")
        r.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "points", p)

    @property
    def n_nodes(self) -> int:
        return self.points.shape[1]

    def __call__(self, r) -> np.ndarray:
        """Evaluate by PL interpolation; beyond the last knot the final
        segment slopes continue."""
        r = float(r)
        if r < 0:
            raise ValueError("paths are defined for r >= 0")
        grid = self.r_grid
        if r >= grid[-1]:
            slope = (self.points[-1] - self.points[-2]) / (grid[-1] - grid[-2])
            return self.points[-1] + slope * (r - grid[-1])
        k = int(np.searchsorted(grid, r, side="right") - 1)
        t = (r - grid[k]) / (grid[k + 1] - grid[k])
        return (1 - t) * self.points[k] + t * self.points[k + 1]

    def to_dict(self) -> dict:
        return {
            "r_grid": self.r_grid.tolist(),
            "points": self.points.tolist(),
            "rho": _kfun_dict(self.rho),
            "phi_min": _kfun_dict(self.phi_min),
            "phi_max": _kfun_dict(self.phi_max),
        }


def _kfun_dict(f: KFun | None) -> dict | None:
    if f is None:
        return None
    return {"xs": f.xs.tolist(), "ys": f.ys.tolist(), "final_slope": f.final_slope}


# -- constructions -----------------------------------------------------------


def minimal_path(
    net_or_op,
    rho: KFun | None = None,
    r_grid: Sequence[float] | None = None,
    stop: StopRule = StopRule(),
) -> DecayPath:
    """Minimal decay path: augmented-iteration limits above each grid ray.

    Each knot is the minimal fixed point of the projection above the ray,
    so the path dominates the identity ray exactly and any divergence is
    counter-evidence against bounded invertibility (reported with the
    failing knot).
    """
    op = as_operator(net_or_op, rho)
    grid = _grid(r_grid, 20)
    if grid[0] <= 0:
        raise ValueError("knots must be positive (the origin knot is implicit)")
    pts = [np.zeros(op.n)]
    for r, res in zip(grid, _scan(*_ray_batch(op, (), 0, grid, stop.max_iter, stop).fp)):
        if res.status is StopReason.DIVERGED:
            raise PathConstructionError(
                f"augmented iteration diverged at knot r={r}: bounded invertibility fails there",
                knot=float(r),
            )
        if res.status is StopReason.MAX_ITER:
            raise _stopped(res.status, f"iteration cap hit at knot r={r} (inconclusive)", float(r))
        pts.append(res.point)
    points = np.vstack(pts)
    scale = max(1.0, float(np.max(points)))
    if np.any(np.diff(points, axis=0) < -1e-9 * scale):
        raise PathConstructionError("knot limits failed to be monotone in r")
    points = np.maximum.accumulate(points, axis=0)
    full = np.concatenate(([0.0], grid))
    norms = np.maximum.accumulate([sup_norm(p) for p in points])
    phi_max = envelope(MonotoneSamples(full, np.asarray(norms)), Side.ABOVE)
    return DecayPath(full, points, rho, identity(), phi_max)


def combined_path(
    net_or_op,
    rho: KFun | None = None,
    r_knots: Sequence[float] | None = None,
    m_interp: int = 2,
    stop: StopRule = StopRule(),
) -> DecayPath:
    """Path through maximal fixed points with projected-orbit interpolation.

    Main knots sit at the maximal fixed points above the grid rays, all
    found in one ``_max_fixed_points`` batch; each gap is filled with
    ``m_interp`` points of the trajectory projected above the lower ray,
    which descends from the upper knot toward the lower one and consists
    of decay points throughout.  Interpolants that
    fail strict separation (already converged) are dropped.
    """
    op = as_operator(net_or_op, rho)
    grid = _grid(r_knots, 10)
    if grid[0] <= 0:
        raise ValueError("knots must be positive (the origin knot is implicit)")
    main = _max_fixed_points(op, np.ones((op.n, len(grid))) * grid, 2.0 * np.maximum(grid, 1.0), stop)
    for r, res in zip(grid, main):
        if res.status is not StopReason.CONVERGED:
            raise _stopped(res.status, f"maximal fixed point failed at knot r={r}", float(r))
    main_arr = np.maximum.accumulate(np.vstack([res.point for res in main]), axis=0)
    # every gap's trajectory projected above its lower ray, all gaps as one batch
    traj = [main_arr[1:].T]
    for _ in range(max(m_interp, 0)):
        traj.append(np.maximum(grid[:-1], op(traj[-1])))
    params: list[float] = [0.0]
    points: list[np.ndarray] = [np.zeros(op.n)]
    floors: list[float] = [0.0]
    for k in range(len(grid)):
        if k > 0:
            lo_r, hi_r = grid[k - 1], grid[k]
            inserted = []
            for m in range(1, len(traj)):
                r_m = lo_r + (hi_r - lo_r) * 2.0 ** (-m)
                inserted.append((r_m, traj[m][:, k - 1]))
            upper = main_arr[k]
            scale = max(1.0, sup_norm(upper))
            slack = 1e-12 * scale
            for r_m, p in sorted(inserted, key=lambda t: t[0]):
                # keep only strictly interior interpolants so the sampled
                # path stays componentwise strictly increasing
                prev = points[-1]
                if r_m <= params[-1] + 1e-12 * max(1.0, r_m):
                    continue
                if not (np.all(p > prev + slack) and np.all(p < upper - slack)):
                    continue
                params.append(float(r_m))
                points.append(p)
                floors.append(float(lo_r))
        params.append(float(grid[k]))
        points.append(np.maximum(main_arr[k], points[-1]))
        floors.append(float(grid[k]))
    arr_params = np.asarray(params)
    arr_points = np.vstack(points)
    floor_samples = MonotoneSamples(arr_params, np.asarray(floors))
    phi_min = envelope(floor_samples, Side.BELOW)
    norms = np.maximum.accumulate([sup_norm(p) for p in arr_points])
    phi_max = envelope(MonotoneSamples(arr_params, np.asarray(norms)), Side.ABOVE)
    return DecayPath(arr_params, arr_points, rho, phi_min, phi_max)


def orbit_path(
    net_or_op,
    s0: np.ndarray,
    stop: StopRule = StopRule(),
    rho: KFun | None = None,
) -> DecayPath:
    """Path by linear interpolation along a complete orbit through ``s0``.

    The downward leg is the forward orbit (which must converge to the
    origin); the upward leg extends through decay points found above 8
    doubling ray targets, up to ``2**8 * ||s0||``.  The orbit must stay
    coercive: a vanishing component, or a min/max ratio collapsing by a
    factor of more than 1000, rejects the construction with the offending
    point, since no scalar coercivity bound could cover the full orbit.
    """
    op = as_operator(net_or_op, rho)
    s0 = np.asarray(s0, dtype=float)
    if not np.all(s0 > 0):
        raise PathConstructionError("the seed must have strictly positive entries")
    if np.any(op(s0) > s0):
        raise PathConstructionError("the seed is not a decay point of the operator")
    traj = iterate(op, s0, stop)
    if traj.stop_reason is not StopReason.CONVERGED:
        raise _stopped(traj.stop_reason, "the forward orbit did not converge", None)
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
    targets = 2.0 ** np.arange(1, 9) * sup_norm(s0)
    ups = _scan(*_ray_batch(op, (), 0, targets, stop.max_iter, stop).fp)
    if ups[-1].status is not StopReason.CONVERGED:
        word = "diverged" if ups[-1].status is StopReason.DIVERGED else "inconclusive"
        where = float(targets[len(ups) - 1])
        raise _stopped(ups[-1].status, f"no decay point found above the ray at {where}: upward extension failed ({word})", None)
    chain = list(reversed(orbit)) + [res.point for res in ups]
    params: list[float] = [0.0]
    points: list[np.ndarray] = [np.zeros(op.n)]
    mins: list[float] = []
    for p in chain:
        r = sup_norm(p)
        if r <= params[-1] * (1 + 1e-12):
            continue
        if not np.all(p >= points[-1] - 1e-12 * max(1.0, r)):
            raise PathConstructionError("orbit chain failed entrywise monotonicity")
        params.append(float(r))
        points.append(np.maximum(p, points[-1]))
        mins.append(float(np.min(p)) / r)
    coercivity = min(mins)
    phi_min = linear(min(coercivity, 1.0))
    return DecayPath(np.asarray(params), np.vstack(points), rho, phi_min, identity())


# -- transformations ---------------------------------------------------------


def regularize(
    path: DecayPath,
    net_or_op,
    target_rho: KFun | None = None,
    max_knots: int = 10**6,
) -> DecayPath:
    """Upgrade a path of decay for an enlarged operator to strict decay.

    Two stages.  First the strict-increase lift: the path is pulled back
    through the enlargement (so its knots decay under the right-enlarged
    operator) and pushed forward with a knot-dependent partial
    enlargement ``id + f(r) * rho`` where ``f`` climbs from 1/4 toward
    1/2; this separates flat components strictly and leaves a quarter of
    the margin intact.  Second, the remaining margin is split in two:
    the outer factor funds a knot-spacing rule (adjacent knots within
    each window must differ by less than the window's decay reserve) and
    the inner factor is the surviving strictness margin.  Inserted knots
    are validated against that margin; a failing insertion raises,
    pointing at the window, rather than silently assuming interpolants
    inherit decay.

    ``target_rho``, when given, must sit below the surviving margin and
    is then recorded as the path's margin (a weaker but valid claim).
    """
    if path.rho is None:
        raise PathConstructionError("regularize needs a path with a strict margin to spend")
    rho_t = path.rho
    # stage 1: conjugate through the enlargement, then lift strictly
    pull = id_plus(rho_t).inverse()
    sigma0 = pull(path.points)
    lifted = sigma0 + ((1.0 + path.r_grid / (1.0 + path.r_grid)) / 4.0)[:, None] * rho_t(sigma0)
    quarter = 0.25 * rho_t
    rho_outer, rho_inner = factor_id_plus(quarter)
    eta_out = sub_from_id(rho_outer)
    phi_min_base = pull.compose(path.phi_min)
    margin_op = as_operator(net_or_op, rho_inner)
    # stage 2: spacing-driven knot insertion, every window at once.  A window
    # [r_lo, r_hi] gets ceil(gap / eta_out(phi_min_base(r_lo))) pieces (one
    # when r_lo = 0), and the first window over the knot budget raises
    # before any inserted knot is built.
    grid, n_win = path.r_grid, len(path.r_grid) - 1
    gaps = np.abs(np.diff(lifted, axis=0)).max(axis=1)
    eps = np.concatenate(([0.0], eta_out(phi_min_base(grid[1:-1]))))
    with np.errstate(over="ignore"):
        ratio = np.divide(gaps, eps, out=np.zeros(n_win), where=eps > 0)
    extra = np.maximum(np.ceil(ratio), 1.0) - 1.0
    over = np.flatnonzero(len(grid) + np.cumsum(extra) > max_knots)
    built = over[0] if over.size else n_win
    counts = extra[:built].astype(np.intp)
    win = np.repeat(np.arange(built), counts)
    t = (np.arange(len(win)) - np.repeat(np.cumsum(counts) - counts, counts) + 1) / (counts[win] + 1.0)
    r_mid = grid[win] + t * (grid[win + 1] - grid[win])
    p_mid = (1 - t)[:, None] * lifted[win] + t[:, None] * lifted[win + 1]
    if len(win):
        margin = np.min(p_mid - margin_op(p_mid.T).T, axis=1)
        bad = np.flatnonzero(margin < -KNOT_MARGIN_TOL * np.maximum(1.0, np.abs(p_mid).max(axis=1)))
        if bad.size:
            k = win[bad[0]]
            raise PathConstructionError(
                f"inserted knot at r={r_mid[bad[0]]} violates the surviving margin in window [{grid[k]}, {grid[k + 1]}];"
                " densify the source grid",
                knot=float(r_mid[bad[0]]),
            )
    if over.size:
        raise PathConstructionError(
            f"refinement needs more than {max_knots} knots in window [{grid[built]}, {grid[built + 1]}]",
            knot=float(grid[built]),
        )
    params, points = np.insert(grid, win + 1, r_mid), np.insert(lifted, win + 1, p_mid, axis=0)
    rho_out = rho_inner
    if target_rho is not None:
        probe = np.geomspace(max(path.r_grid[1] * 1e-3, 1e-12), path.r_grid[-1] * 10, 64)
        if np.any(target_rho(probe) > rho_inner(probe) * (1 + 1e-9)):
            raise PathConstructionError("target margin exceeds the margin the construction can certify")
        rho_out = target_rho
    # the partial lift stays below the original path, so its upper bound holds
    return DecayPath(params, points, rho_out, phi_min_base, path.phi_max)


def reparametrize_min_id(path: DecayPath) -> DecayPath:
    """Re-index the knots so the lower coercivity bound becomes the identity.

    The point set is untouched (so knotwise decay margins carry over);
    only the parameter of each knot moves to the value of the old lower
    bound there.
    """
    g = path.phi_min
    new_r = np.concatenate(([0.0], g(path.r_grid[1:])))
    new_max = path.phi_max.compose(g.inverse())
    return DecayPath(new_r, path.points, path.rho, identity(), new_max)


def restrict_path(path: DecayPath, nodes) -> DecayPath:
    """Component restriction onto a node subset (matching ``subnetwork``)."""
    idx = sorted(set(int(v) for v in nodes))
    return DecayPath(path.r_grid, path.points[:, idx], path.rho, path.phi_min, path.phi_max)


# -- validation ---------------------------------------------------------------


@dataclass
class PathReport:
    """Per-property verdicts for a path against a network.

    ``decay`` holds the worst knot margin under the path's margin
    operator; ``bounds`` the worst sandwich slack; ``components`` strict
    monotonicity of each coordinate; ``bilipschitz`` per-window slope
    extremes (positive lower slope is the PL equivalent of the two-sided
    Lipschitz condition on component inverses).
    """

    decay_ok: bool
    worst_margin: float
    worst_margin_knot: float
    bounds_ok: bool
    worst_low_slack: float
    worst_high_slack: float
    components_ok: bool
    flat_components: list[int]
    bilipschitz_ok: bool
    windows: list[list[float]]  # [lo, hi, lowest slope, highest slope] per window

    @property
    def passed(self) -> bool:
        return self.decay_ok and self.bounds_ok and self.components_ok and self.bilipschitz_ok

    def to_dict(self) -> dict:
        return {
            "decay": {"ok": self.decay_ok, "worst_margin": self.worst_margin, "knot": self.worst_margin_knot},
            "bounds": {
                "ok": self.bounds_ok,
                "worst_low_slack": self.worst_low_slack,
                "worst_high_slack": self.worst_high_slack,
            },
            "components": {"ok": self.components_ok, "flat": self.flat_components},
            "bilipschitz": {
                "ok": self.bilipschitz_ok,
                "windows": self.windows,
            },
            "passed": self.passed,
        }


def validate(path: DecayPath, net_or_op) -> PathReport:
    """Check the decay-path properties at every knot.

    Knot decay is measured under the path's own margin operator with a
    scale-relative slack; the sandwich, strict component monotonicity and
    per-window slope extremes are evaluated exactly.  Failures land in
    the report, never raise.
    """
    op = as_operator(net_or_op, path.rho)
    pts, grid = path.points, path.r_grid
    margins = np.min(pts - op(pts.T).T, axis=1)
    k = int(np.argmin(margins))
    worst_margin, worst_knot = float(margins[k]), float(grid[k])
    decay_ok = not np.any(margins < -KNOT_MARGIN_TOL * np.maximum(1.0, np.abs(pts).max(axis=1)))
    low = float(np.min(np.min(pts, axis=1) - path.phi_min(grid)))
    high = float(np.min(path.phi_max(grid) - np.max(pts, axis=1)))
    scale = max(1.0, float(np.max(pts)))
    bounds_ok = low >= -KNOT_MARGIN_TOL * scale and high >= -KNOT_MARGIN_TOL * scale
    diffs = np.diff(pts, axis=0)
    flat = [int(i) for i in np.flatnonzero(np.any(diffs <= 0.0, axis=0))]
    components_ok = not flat
    seg = diffs / np.diff(grid)[:, None]
    lows, highs = np.min(seg, axis=1), np.max(seg, axis=1)
    windows = np.column_stack((grid[:-1], grid[1:], lows, highs)).tolist()
    bil_ok = not np.any((lows <= 0.0) | ~np.isfinite(highs))
    return PathReport(
        decay_ok=decay_ok,
        worst_margin=worst_margin,
        worst_margin_knot=worst_knot,
        bounds_ok=bounds_ok,
        worst_low_slack=low,
        worst_high_slack=high,
        components_ok=components_ok,
        flat_components=flat,
        bilipschitz_ok=bil_ok,
        windows=windows,
    )
