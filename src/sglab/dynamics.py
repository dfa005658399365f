"""Gain operators, their monotone dynamics and stability envelopes.

An operator is a network plus a chain of wrappers (enlargements on either
side, augmentation by the argument, projection above a floor vector),
applied outermost-last; a restriction to a node subset is the operator of
``network.subnetwork``.  Application accepts a single cone vector ``(n,)``
or a batch ``(n, m)`` of columns.

Evaluation is exactly monotone in floating point (inherited from the
clamped PL gain evaluation plus max/sum aggregation), which makes the
augmented/projected iteration identities hold bit for bit, not just up
to tolerance.  In particular the augmented run ``t <- t max T(t)`` from
``s`` and the run ``t <- s max T(t)`` projected above ``s`` take the same
steps: both increase, and ``t_k max T(t_k) = s max T(t_{k-1}) max T(t_k)
= s max T(t_k)``.  So the decay point that the augmented run finds above
``s`` is the least fixed point above ``s``, and ``cofinality_witness`` is
``min_fixed_point``.

Every iteration here (trajectories, fixed points and the stability
battery's rays) goes through the one driver ``_run``, which steps a batch
``(n, m)`` of columns, each with its own stop rule and cap, and applies
only the columns still running.  T acts on each column alone, bit for
bit, so columns of different kinds can share a batch.  ``_ray_batch`` is
the one builder of least fixed points above rays ``r * ones``, optionally
with the battery's ray table and clamped descents ``s <- r * ones min T(s)``
in the same batch: the battery reads its UGS rays (the augmented runs
above) off those fixed points, capped at its own ``10 * n_max`` steps, and
``check`` makes one batch for the battery, ``max_mbi_probe`` and the two
descents that decide ``nji_probe`` and ``uniform_nji_probe``;
``minimal_path``, ``orbit_path``'s upward leg and the tops of
``combined_path``'s maximal fixed points (one ray per distinct cap) are
one batch each.  ``_fixed_point_run`` runs the other fixed points (a
single start, the descents from the tops and their lower bounds), and
both state their columns by the one rule ``_fixed_point_stops``.  Every
column runs to its own stop.  Reading fixed points in grid order, up to
the first ray that does not converge, is ``_scan``'s rule alone, and
every grid of rays is read by ``_grid``.
Every application goes through ``_base_apply``, which evaluates all max
and sum edges at once from one knot table per network (the distinct
gains' knots merged into one grid, with a segment rank per gain).

Input is validated once per application, at ``GainOperator.__call__``,
the entry point of every ``_run`` step too: it refuses a wrong length and
negative or NaN entries.  The wrapper chain and ``_base_apply`` below it
run unchecked, evaluating ``enlarge_left``/``enlarge_right`` margins
through ``KFun._eval`` on the checked input or on the chain's own
nonnegative values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .cone import sup_norm
from .kfun import KFun, MonotoneSamples, Side, _distinct, envelope
from .network import GainNetwork

__all__ = [
    "StopRule",
    "StopReason",
    "Trajectory",
    "FixedPointResult",
    "GainOperator",
    "MonotoneStepError",
    "as_operator",
    "iterate",
    "min_fixed_point",
    "max_fixed_point",
    "decay_margin",
    "cofinality_witness",
    "default_knots",
    "StabilityReport",
    "stability_battery",
]

_CHUNK_ELEMENTS = 1 << 14  # edges x columns per pass over the knot table: bounds the temporaries
_CAP_DOUBLINGS = 8  # max_fixed_point's cap escalations before it gives up


class MonotoneStepError(RuntimeError):
    """A trajectory that must move monotonically stepped the wrong way."""


class StopReason(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class StopRule:
    """Stopping parameters for monotone iterations.

    ``tol`` bounds the sup-norm step; fixed-point drivers scale it by
    ``max(1, ||b||)`` so geometric grids spanning many decades behave
    uniformly.  ``divergence_bound`` defaults to ``1e9 * ||s0|| + 1``.
    """

    max_iter: int = 100_000
    tol: float = 1e-10
    divergence_bound: float | None = None

    def __post_init__(self):
        if self.max_iter <= 0 or self.tol <= 0:
            raise ValueError("stop parameters must be positive")
        if self.divergence_bound is not None and self.divergence_bound <= 0:
            raise ValueError("divergence bound must be positive")

    def bound_for(self, s0: np.ndarray) -> float | np.ndarray:
        """The bound for a start ``(n,)``, or for each column of ``(n, m)`` starts.

        The default bound is infinite, without a warning, for a start whose
        norm is above about 1.8e299; such a run never reads as diverged.
        """
        if self.divergence_bound is not None:
            return self.divergence_bound
        with np.errstate(over="ignore"):
            return 1e9 * np.abs(s0).max(axis=0) + 1.0


@dataclass
class Trajectory:
    states: np.ndarray  # (steps + 1, n): the start, then the state after each step
    stop_reason: StopReason
    residual: float  # last sup-norm step (CONVERGED/MAX_ITER) or norm at divergence

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class FixedPointResult:
    point: np.ndarray
    iterations: int
    residual: float
    status: StopReason


# -- operator -------------------------------------------------------------


@dataclass(frozen=True)
class _Wrapper:
    kind: str  # "enlarge_left" | "enlarge_right" | "augment" | "project"
    rho: KFun | None = None
    floor: np.ndarray | None = None


@dataclass(frozen=True)
class GainOperator:
    """A gain network with a wrapper chain, applied outermost-last."""

    network: GainNetwork
    wrappers: tuple[_Wrapper, ...] = ()

    @property
    def n(self) -> int:
        return self.network.n

    # builders ---------------------------------------------------------

    def enlarge_left(self, rho: KFun) -> "GainOperator":
        """Compose ``id + rho`` after the operator (strictness enlargement)."""
        return GainOperator(self.network, self.wrappers + (_Wrapper("enlarge_left", rho=rho),))

    def enlarge_right(self, rho: KFun) -> "GainOperator":
        """Compose ``id + rho`` before the operator."""
        return GainOperator(self.network, self.wrappers + (_Wrapper("enlarge_right", rho=rho),))

    def augmented(self) -> "GainOperator":
        """``s -> s max T(s)``; its fixed points are exactly the decay set."""
        return GainOperator(self.network, self.wrappers + (_Wrapper("augment"),))

    def projected(self, floor: np.ndarray) -> "GainOperator":
        """``s -> floor max T(s)``."""
        floor = np.asarray(floor, dtype=float)
        if floor.shape != (self.n,):
            raise ValueError("projection floor must live on the operator's index set")
        if not np.all(floor >= 0):
            raise ValueError("projection floor must be nonnegative")
        return GainOperator(self.network, self.wrappers + (_Wrapper("project", floor=floor),))

    # evaluation ---------------------------------------------------------

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """Apply the operator to ``(n,)`` or ``(n, m)``: the one checked entry
        point, which refuses a wrong length and negative or NaN entries."""
        s = np.asarray(s, dtype=float)
        expected = self.n
        if s.shape[0] != expected:
            raise ValueError(f"index set mismatch: operator has {expected} nodes, vector has {s.shape[0]}")
        if np.count_nonzero(s >= 0) != s.size:  # NaN fails this test too
            raise ValueError("gain operators act on nonnegative vectors")
        return self._eval(len(self.wrappers) - 1, s)

    def _eval(self, k: int, s: np.ndarray) -> np.ndarray:
        """Wrappers ``0..k`` over the base map, unchecked: ``s`` is the checked
        input or a nonnegative value the chain made from it."""
        if k < 0:
            return _base_apply(self.network, s)
        w = self.wrappers[k]
        if w.kind == "enlarge_left":
            inner = self._eval(k - 1, s)
            return inner + w.rho._eval(inner)
        if w.kind == "enlarge_right":
            return self._eval(k - 1, s + w.rho._eval(s))
        if w.kind == "augment":
            return np.maximum(s, self._eval(k - 1, s))
        if w.kind == "project":
            floor = w.floor if s.ndim == 1 else w.floor[:, None]
            return np.maximum(floor, self._eval(k - 1, s))
        raise AssertionError(f"unknown wrapper {w.kind}")  # pragma: no cover


def as_operator(net_or_op, rho: KFun | None = None) -> GainOperator:
    """The operator of a network (or the operator itself), enlarged on the
    left by ``id + rho`` when ``rho`` is given."""
    if isinstance(net_or_op, GainNetwork):
        net_or_op = GainOperator(net_or_op)
    elif not isinstance(net_or_op, GainOperator):
        raise TypeError(f"expected GainNetwork or GainOperator, got {type(net_or_op)!r}")
    return net_or_op if rho is None else net_or_op.enlarge_left(rho)


def _base_apply(net: GainNetwork, s: np.ndarray) -> np.ndarray:
    """Raw gain-operator evaluation: per chunk of at most ``_CHUNK_ELEMENTS``
    edge values, one ``searchsorted`` in the knot grid and one rank lookup
    give every max/sum edge its segment, ``KFun.__call__``'s clamped formula
    gains them all (bit for bit), and ``np.maximum.at``/``np.add.at`` scatter
    them in table order; then each custom node aggregates per column."""
    src, dst, n_max, base, rank, grid, xs, ys, slopes, caps = net._knot_table
    s2 = s.reshape(len(s), -1)
    m = s2.shape[1]
    out = np.zeros(s2.shape)
    width = max(1, _CHUNK_ELEMENTS // max(len(src), 1))
    for c in range(0, m, width):
        v = s2[src] if m <= width else s2[src, c : c + width]  # one chunk: no column slice
        k = rank.take(base + grid.searchsorted(v, "right")).astype(np.intp)  # one cast of the int32 ranks, not one per take
        gained = np.minimum(ys.take(k) + slopes.take(k) * (v - xs.take(k)), caps.take(k))
        at = dst if m == 1 else dst * m + np.arange(c, c + v.shape[1])
        if n_max:
            np.maximum.at(out.reshape(-1), at[:n_max].ravel(), gained[:n_max].ravel())
        if n_max < len(src):
            np.add.at(out.reshape(-1), at[n_max:].ravel(), gained[n_max:].ravel())
    for i, srcs, gains, maf in net._custom_in_edges:
        cols = np.stack([g(s2[j]) for g, j in zip(gains, srcs)])
        out[i] = [maf.evaluate(col) for col in cols.T]
    return out.reshape(s.shape)


# -- iteration ------------------------------------------------------------


def _run(op, s, max_iter, tol, bound, direction=0, floor=None, states=None, norms=None, slack=0.0, ceiling=None):
    """The one monotone-iteration driver, over a batch ``(n, m)`` of columns.

    Each column steps ``s <- ceiling min (floor max op(s))`` (each bound
    optional, of shape ``(n, m)`` or ``(1, m)``) until its own stop rule
    fires, and is then frozen; only the active columns are applied.
    ``max_iter``, ``tol``, ``bound``, ``direction`` and ``slack`` are
    scalars or ``(m,)`` arrays.  Divergence (sup norm above ``bound``) is
    tested before convergence (sup-norm step at most ``tol``), and both
    before the column's cap ``max_iter``, which is tested only at the
    steps where some column reaches it.  ``direction`` +1 (-1) asserts
    an increasing (decreasing) column up to ``slack`` plus ``1e-12`` times
    the largest norm it has had; a column failing that stops with a
    ``MonotoneStepError`` as its status.  Once no active column has a
    direction or a nonzero floor, the floor and the monotone test are no
    longer applied.  ``states``, when given, receives every new active
    batch, and ``norms[k, it]`` the norm of column ``k`` after step ``it``
    for every ``it`` below ``norms.shape[1]``.
    Returns per column (point, iterations, residual, status); the status
    is a ``StopReason`` or a ``MonotoneStepError``, and the residual is
    the last step, or the norm at divergence.
    """
    m = s.shape[1]
    point = s.copy()
    its = np.zeros(m, dtype=int)
    res = np.full(m, np.inf)
    status: list = [StopReason.MAX_ITER] * m
    if m == 0:
        return point, its, res, status
    act, cur, fl, cl = np.arange(m), s, floor, ceiling
    cap, tl, bd = np.zeros(m, dtype=int) + max_iter, np.zeros(m) + tol, np.zeros(m) + bound
    dr, sl = np.zeros(m) + direction, np.zeros(m) + slack
    gate = dr != 0 if floor is None else (dr != 0) | np.logical_or.reduce(floor != 0, axis=0)
    gated = bool(gate.any())
    scale = np.maximum(1.0, np.abs(s).max(axis=0)) if gated else None
    recorded = 0 if norms is None else norms.shape[1]
    stops = set(cap.tolist())  # the steps at which some column reaches its cap
    for it in range(1, int(cap.max()) + 1):
        nxt = op(cur)
        if gated and fl is not None:
            nxt = np.maximum(fl, nxt)
        if cl is not None:
            nxt = np.minimum(cl, nxt)
        drift = nxt - cur
        step = np.maximum.reduce(np.abs(drift), axis=0)
        norm = np.maximum.reduce(np.abs(nxt), axis=0)
        if states is not None:
            states.append(nxt)
        if it < recorded:
            norms[act, it] = norm
        diverged = norm > bd
        converged = step <= tl
        if gated:
            # -drift < -lim is drift > lim exactly; a column without a direction never fails
            failed = np.logical_or.reduce(drift * dr < -(1e-12 * scale + sl), axis=0)
            scale = np.maximum(scale, norm)
            diverged |= failed
        done = diverged | converged
        if it in stops:
            done |= it >= cap
        if np.count_nonzero(done):
            for k in done.nonzero()[0]:
                c = act[k]
                point[:, c], its[c], res[c] = nxt[:, k], it, norm[k] if diverged[k] else step[k]
                if gated and failed[k]:
                    word = "increase" if dr[k] > 0 else "decrease"
                    status[c] = MonotoneStepError(f"projected trajectory failed to {word}")
                elif diverged[k]:
                    status[c] = StopReason.DIVERGED
                elif converged[k]:
                    status[c] = StopReason.CONVERGED
            keep = (~done).nonzero()[0]
            if not keep.size:
                break
            act, nxt, cap, tl, bd = act[keep], nxt[:, keep], cap[keep], tl[keep], bd[keep]
            cl = None if cl is None else cl[:, keep]
            if gated:
                gate, dr, sl, scale = gate[keep], dr[keep], sl[keep], scale[keep]
                if fl is not None:
                    fl = fl[:, keep]
                gated = bool(gate.any())
        cur = nxt
    return point, its, res, status


class _Rows:
    """``_run``'s ``states`` for a batch of one column: each new state is
    copied into one array of rows, which doubles when full, up to ``limit``."""

    def __init__(self, first: np.ndarray, limit: int):
        self.rows, self.count, self.limit = np.empty((min(limit, 64), len(first))), 1, limit
        self.rows[0] = first

    def append(self, state: np.ndarray) -> None:
        if self.count == len(self.rows):
            grown = np.empty((min(2 * self.count, self.limit), self.rows.shape[1]))
            grown[: self.count] = self.rows
            self.rows = grown
        self.rows[self.count] = state[:, 0]
        self.count += 1


def iterate(op, s0: np.ndarray, stop: StopRule = StopRule()) -> Trajectory:
    """Run the discrete-time system ``s <- T(s)`` and record the states.

    Stops when the sup-norm step falls to ``stop.tol`` (converged), after
    ``stop.max_iter`` steps, or when the norm passes the divergence bound.
    The states are the rows of one array of at most ``stop.max_iter + 1``
    rows of ``n`` floats.
    """
    s = np.asarray(s0, dtype=float).copy()
    rows = _Rows(s, stop.max_iter + 1)
    _, _, res, status = _run(as_operator(op), s[:, None], stop.max_iter, stop.tol, stop.bound_for(s), states=rows)
    return Trajectory(rows.rows[: rows.count], status[0], float(res[0]))


def _fixed_point_stops(b: np.ndarray, s0: np.ndarray, stop: StopRule):
    """The one stop rule of fixed-point columns ``s <- b max T(s)`` from ``s0``
    (both ``(n, m)`` or ``(1, m)``): tolerance ``stop.tol * max(1, ||b||)``
    and bound ``stop.bound_for(s0)``, per column.  A least fixed point runs
    from ``s0 = b`` with an increasing step asserted, a descent from above
    with a decreasing one."""
    return stop.tol * np.maximum(1.0, np.abs(b).max(axis=0)), stop.bound_for(s0)


def _fixed_point_run(op: GainOperator, b: np.ndarray, s0: np.ndarray, stop: StopRule, direction: int, slack=0.0):
    """``_run`` of ``s <- b max T(s)`` from ``s0`` for every column of the
    ``(n, m)`` floors ``b`` and starts ``s0``, by ``_fixed_point_stops``."""
    return _run(op, s0, stop.max_iter, *_fixed_point_stops(b, s0, stop), direction, b, slack=slack)


def _with_defect(op: GainOperator, b: np.ndarray, res: FixedPointResult) -> FixedPointResult:
    """``res`` with the residual of a converged limit set to its sup-norm
    defect under ``s -> b max T(s)`` (one more application)."""
    if res.status is StopReason.CONVERGED:
        res.residual = sup_norm(np.maximum(b, op(res.point)) - res.point)
    return res


def _scan(point: np.ndarray, its: np.ndarray, res: np.ndarray, status: list) -> list[FixedPointResult]:
    """The one statement of the grid-scan rule: the columns in order up to and
    including the first that does not converge, as one-at-a-time runs report
    them.  The batches behind it run every column to its own stop; a column
    whose status is a ``MonotoneStepError`` raises it when the scan reaches it."""
    out = []
    for k, st in enumerate(status):
        if isinstance(st, MonotoneStepError):
            raise st
        out.append(FixedPointResult(point[:, k], int(its[k]), float(res[k]), st))
        if st is not StopReason.CONVERGED:
            break
    return out


def _max_fixed_points(op: GainOperator, b: np.ndarray, caps: np.ndarray, stop: StopRule) -> list[FixedPointResult]:
    """``max_fixed_point`` for every column of the ``(n, m)`` floors ``b``
    from its cap in ``caps``, run as column batches and read by ``_scan``.

    Each cap round is three batches: the tops (a ``_ray_batch`` of minimal
    fixed points above the cap rays, one per distinct cap), the descents
    from the converged tops and the minimal fixed points above ``b`` that
    bound the descents from below.  An unconverged top is the column's result.  Only a
    column whose descent fails its monotone check goes into the next
    round, with its cap doubled.  The descent's slack covers the top's
    tolerance: a top is a fixed point only up to that tolerance, so the
    first descent step may rise by about as much.
    """
    n, m = b.shape
    point, its, res, status = np.zeros((n, m)), np.zeros(m, dtype=int), np.zeros(m), [None] * m
    caps = np.array(caps, dtype=float)
    todo = np.arange(m)

    def put(cols, run, ks, statuses):
        point[:, cols], its[cols], res[cols] = run[0][:, ks], run[1][ks], run[2][ks]
        for c, st in zip(cols, statuses):
            status[c] = st

    for _ in range(_CAP_DOUBLINGS + 1):
        if not todo.size:
            break
        # one top per distinct cap: every knot r <= 1 of combined_path has cap 2
        tops = _ray_batch(op, (), 0, _distinct(caps[todo]), stop.max_iter, stop).fixed_points(caps[todo])
        up = np.asarray([st is StopReason.CONVERGED for st in tops[3]], dtype=bool)
        put(todo[~up], tops, ~up, [st for st, u in zip(tops[3], up) if not u])
        cols = todo[up]
        down = _fixed_point_run(op, b[:, cols], tops[0][:, up], stop, -1, slack=stop.tol * np.maximum(1.0, caps[cols]))
        failed = np.asarray([isinstance(st, MonotoneStepError) for st in down[3]], dtype=bool)
        # a failed descent leaves its top, inconclusive, unless a later round decides the column
        put(cols[failed], tops, up.nonzero()[0][failed], [StopReason.MAX_ITER] * int(failed.sum()))
        caps[cols[failed]] *= 2.0
        todo, done = cols[failed], cols[~failed]
        put(done, down, ~failed, [st for st, f in zip(down[3], failed) if not f])
        low, _, _, low_status = _fixed_point_run(op, b[:, done], b[:, done], stop, +1)
        p = point[:, done]
        below = ~np.all(p >= low - 1e-8 * np.maximum(1.0, np.abs(p).max(axis=0)), axis=0)
        for j, c in enumerate(done):
            if isinstance(low_status[j], MonotoneStepError):
                status[c] = low_status[j]
            elif low_status[j] is StopReason.CONVERGED and below[j]:
                status[c] = MonotoneStepError("maximal fixed point fell below the minimal one")
    return _scan(point, its, res, status)


def min_fixed_point(net_or_op, b: np.ndarray, stop: StopRule = StopRule()) -> FixedPointResult:
    """Minimal fixed point of ``s -> b max T(s)``, grown from ``s0 = b``.

    The trajectory is increasing (asserted each step); divergence is
    reported as evidence against bounded invertibility rather than raised.
    """
    op, b = as_operator(net_or_op), np.asarray(b, dtype=float)
    return _with_defect(op, b, _scan(*_fixed_point_run(op, b[:, None], b[:, None], stop, +1))[0])


def max_fixed_point(net_or_op, b: np.ndarray, r_cap: float | None = None, stop: StopRule = StopRule()) -> FixedPointResult:
    """Maximal fixed point of ``s -> b max T(s)``.

    Starts from the minimal fixed point above the cap ray ``r_cap * ones``
    and descends.  A failed descent assertion means the cap was too small;
    the cap is doubled up to 8 times, and when every descent fails the
    last top is returned with status ``MAX_ITER``.  A limit below the
    minimal fixed point raises ``MonotoneStepError``.  This is the batch
    of one of ``_max_fixed_points``.
    """
    op = as_operator(net_or_op)
    b = np.asarray(b, dtype=float)
    cap = float(r_cap) if r_cap is not None else 2.0 * max(sup_norm(b), 1.0)
    if cap < sup_norm(b):
        raise ValueError("r_cap must be at least ||b||")
    return _with_defect(op, b, _max_fixed_points(op, b[:, None], np.asarray([cap]), stop)[0])


def decay_margin(op, s: np.ndarray) -> np.ndarray:
    """Entrywise margin ``s - T(s)``; nonnegative exactly on the decay set.

    When the margin is nonnegative, a few interior points of the order
    interval ``[T(s), s]`` are spot-checked for decay as well (a monotone
    operator must map that interval into the decay set; a violation
    signals an aggregation-axiom bug).
    """
    op = as_operator(op)
    s = np.asarray(s, dtype=float)
    ts = op(s)
    margin = s - ts
    if np.all(margin >= 0):
        for alpha in (0.25, 0.5, 0.75):
            t = ts + alpha * margin
            if np.any(op(t) > t + 1e-9 * max(1.0, sup_norm(t))):
                raise MonotoneStepError("order interval left the decay set; aggregation is not monotone")
    return margin


# A decay point above ``s``: the augmented run from ``s`` is the run projected
# above ``s`` (see the module docstring).  CONVERGED gives the witness, DIVERGED
# is evidence against the cofinality of the decay set, MAX_ITER is inconclusive.
cofinality_witness = min_fixed_point


# -- stability battery -----------------------------------------------------


@dataclass
class StabilityReport:
    """Sampled stability evidence on a grid of rays.

    ``kl_table[k, n]`` is the trajectory norm after ``n`` steps from the
    ray at ``r_grid[k]``; by monotonicity that value dominates every
    start with norm at most ``r_grid[k]``, so the ray table is the exact
    worst case.  ``ugs_envelope`` bounds ``sup_n`` of the augmented
    iteration norms; evidence flags combine boundedness and decay.
    """

    r_grid: np.ndarray
    n_max: int
    kl_table: np.ndarray
    gatt_per_r: list[bool]
    ugs_per_r: list[bool]
    inconclusive_r: list[float]
    ugs_envelope: KFun | None
    gatt_evidence: bool
    ugs_evidence: bool
    ugas_evidence: bool

    def to_dict(self) -> dict:
        return {
            "r_grid": self.r_grid.tolist(),
            "n_max": self.n_max,
            "kl_table": self.kl_table.tolist(),
            "gatt_per_r": list(self.gatt_per_r),
            "ugs_per_r": list(self.ugs_per_r),
            "inconclusive_r": list(self.inconclusive_r),
            "gatt_evidence": self.gatt_evidence,
            "ugs_evidence": self.ugs_evidence,
            "ugas_evidence": self.ugas_evidence,
            "note": "rays are exact worst cases: by monotonicity the table row at r dominates every start of norm at most r",
        }


def default_knots(k_min: int = -20, k_max: int = 20) -> np.ndarray:
    """Double-ended geometric grid 2**k (decaying to 0, growing to inf)."""
    return np.asarray([2.0**k for k in range(k_min, k_max + 1)])


def _grid(r_grid: Sequence[float] | None, k: int) -> np.ndarray:
    """The one reading of a grid of rays: ``r_grid`` as sorted floats, by
    default ``default_knots(-k, k)``; an empty grid is refused."""
    grid = default_knots(-k, k) if r_grid is None else np.asarray(sorted(float(r) for r in r_grid), dtype=float)
    if len(grid) == 0:
        raise ValueError("the grid of rays must be nonempty")
    return grid


@dataclass(frozen=True)
class _Rays:
    """A ``_ray_batch``: the table's norms, the least-fixed-point columns ``(point,
    iterations, residual, status)`` on ``fp_grid``, and per radius in ``tops``
    its descent column ``(point, iterations, status, norms)`` in ``descents``."""

    kl: np.ndarray
    fp_grid: np.ndarray
    fp: tuple
    tops: tuple = ()
    descents: tuple = ()

    def fixed_points(self, r_grid: Sequence[float]) -> tuple:
        """The least-fixed-point columns of ``r_grid``, in its order; ``fp_grid``
        must be sorted and hold each of its rays."""
        k = np.searchsorted(self.fp_grid, r_grid)
        point, its, res, status = self.fp
        return point[:, k], its[k], res[k], [status[j] for j in k]

    def descent(self, r: float) -> tuple:
        """The descent column from ``r * ones``; ``tops`` must hold ``r``."""
        return self.descents[self.tops.index(r)]


def _ray_batch(op: GainOperator, table_grid: np.ndarray, n_max: int, fp_grid: np.ndarray, fp_cap: int, stop: StopRule, tops: Sequence[float] = ()) -> _Rays:
    """One ``_run`` batch of rays ``r * ones``: table columns ``T^k(r * ones)``
    for ``table_grid`` (tol 0, bound 1e30, cap ``n_max``, norms recorded),
    least-fixed-point columns ``s <- r * ones max T(s)`` for ``fp_grid``
    (``_fixed_point_stops``, cap ``fp_cap``), and for each ``r`` in ``tops``
    a table column ``s <- r * ones min T(s)`` that must descend; ``table_grid``
    may be empty.  T acts on each column alone, bit for bit, so each column
    ends as a batch of its own kind would end it.  Tol 0 stops a table ray
    only at an exact fixed point and 1e30 at hopeless growth; either way
    its last norm fills the rest of its row.
    """
    tops = tuple(float(r) for r in tops)
    t, f, d = len(table_grid), len(fp_grid), len(tops)
    grid = np.concatenate((table_grid, fp_grid, tops))
    cols = len(grid)
    kl = np.zeros((cols, n_max + 1))
    kl[:, 0] = grid
    fp_tol, fp_bound = _fixed_point_stops(fp_grid[None, :], fp_grid[None, :], stop)
    tol = np.concatenate((np.zeros(t), fp_tol, np.zeros(d)))
    bound = np.concatenate((np.full(t, 1e30), np.zeros(f) + fp_bound, np.full(d, 1e30)))
    cap = np.concatenate((np.full(t, n_max), np.full(f, fp_cap), np.full(d, n_max)))
    floor = np.concatenate((np.zeros(t), fp_grid, np.zeros(d)))[None, :]
    direction = np.concatenate((np.zeros(t), np.ones(f), -np.ones(d)))
    ceiling = np.where(np.arange(cols) < t + f, np.inf, grid)[None, :] if d else None
    point, its, res, status = _run(op, np.ones((op.n, cols)) * grid, cap, tol, bound, direction, floor, norms=kl, ceiling=ceiling)
    fp, descents = slice(t, t + f), tuple((point[:, k], int(its[k]), status[k], kl[k]) for k in range(t + f, cols))
    kl = np.where(np.arange(n_max + 1) <= its[:t, None], kl[:t], kl[np.arange(t), its[:t]][:, None])
    return _Rays(kl, fp_grid, (point[:, fp], its[fp], res[fp], status[fp]), tops, descents)


def stability_battery(
    net_or_op,
    rho: KFun | None = None,
    r_grid: Sequence[float] | None = None,
    n_max: int = 256,
    stop: StopRule = StopRule(),
    *,
    _rays: _Rays | None = None,
) -> StabilityReport:
    """Tabulate ray trajectories and classify UGS/GATT/UGAS evidence.

    Rays decay (GATT at level r) when the trajectory norm falls below
    ``1e-8 * max(1, r)`` within ``n_max`` steps.  UGS asks the augmented
    iteration from each ray to stay bounded; that run is the least-fixed-
    point run above the ray (module docstring), read off one
    ``_ray_batch`` with the table (``check`` passes its shared batch as
    ``_rays``).  A ray is decided only within ``10 * n_max`` steps (or
    ``stop.max_iter``); undecided rays are inconclusive, not failures.
    The two runs agree bit for bit only where T is exactly monotone in
    floating point, as it is for PL gains under max or sum aggregation; a
    custom aggregation whose step falls (the increasing step is asserted)
    leaves that ray inconclusive.
    """
    op = as_operator(net_or_op, rho)
    r_grid = _grid(r_grid, 8)
    ugs_cap = min(stop.max_iter, 10 * n_max)
    if ugs_cap <= 0:
        raise ValueError("stop parameters must be positive")
    rays = _ray_batch(op, r_grid, n_max, r_grid, ugs_cap, stop) if _rays is None else _rays
    kl = rays.kl
    gatt = [bool(g) for g in np.any(kl[:, 1:] <= 1e-8 * np.maximum(1.0, r_grid)[:, None], axis=1)]
    point, its, _, status = rays.fixed_points(r_grid)
    decided = [k <= ugs_cap and st in (StopReason.CONVERGED, StopReason.DIVERGED) for k, st in zip(its, status)]
    ugs = [d and st is StopReason.CONVERGED for d, st in zip(decided, status)]
    inconclusive = [float(r) for r, d in zip(r_grid, decided) if not d]
    env = None
    if all(ugs):
        # the limits converge only to tol, so their norms can dip from one ray to the next
        aug_sup = np.maximum.accumulate(np.abs(point).max(axis=0, initial=0.0))
        env = envelope(MonotoneSamples(np.concatenate(([0.0], r_grid)), np.concatenate(([0.0], aug_sup))), Side.ABOVE)
    gatt_all = all(gatt)
    ugs_all = all(ugs)
    return StabilityReport(
        r_grid=r_grid,
        n_max=n_max,
        kl_table=kl,
        gatt_per_r=gatt,
        ugs_per_r=ugs,
        inconclusive_r=inconclusive,
        ugs_envelope=env,
        gatt_evidence=gatt_all,
        ugs_evidence=ugs_all,
        ugas_evidence=gatt_all and ugs_all,
    )
