"""Gain operators, their monotone dynamics and stability envelopes.

An operator is a network plus a chain of wrappers (enlargements on either
side, augmentation by the argument, projection above a floor vector,
restriction to a node subset), applied outermost-last.  Application
accepts a single cone vector ``(n,)`` or a batch ``(n, m)`` of columns.

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
battery's rays) goes through the one driver ``_run``,
which steps a batch ``(n, m)`` of columns, each with its own stop rule,
and applies only the columns still running: the battery's ray table and
augmented rays are one batch each, as are the ray fixed points behind
``max_mbi_probe``, ``minimal_path`` and ``orbit_path``'s upward leg;
``combined_path``'s maximal fixed points take three batches per cap round
(tops, descents, lower bounds); a single start is a batch of one.
Every application goes through ``_base_apply``, which evaluates all max
and sum edges at once from one knot table per network (the distinct
gains' knots merged into one grid, with a segment rank per gain).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .cone import sup_norm
from .kfun import KFun, MonotoneSamples, Side, envelope
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
        """The bound for a start ``(n,)``, or for each column of ``(n, m)`` starts."""
        if self.divergence_bound is not None:
            return self.divergence_bound
        return 1e9 * np.abs(s0).max(axis=0) + 1.0


@dataclass
class Trajectory:
    states: list[np.ndarray]
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
    kind: str  # "enlarge_left" | "enlarge_right" | "augment" | "project" | "restrict"
    rho: KFun | None = None
    floor: np.ndarray | None = None
    mask: np.ndarray | None = None


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

    def restricted(self, nodes) -> "GainOperator":
        """Embedded sub-network operator: zero outside ``nodes``."""
        mask = np.zeros(self.n)
        idx = np.fromiter((int(v) for v in nodes), dtype=int)
        mask[idx] = 1.0
        return GainOperator(self.network, self.wrappers + (_Wrapper("restrict", mask=mask),))

    # evaluation ---------------------------------------------------------

    def __call__(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        expected = self.n
        if s.shape[0] != expected:
            raise ValueError(f"index set mismatch: operator has {expected} nodes, vector has {s.shape[0]}")
        if np.count_nonzero(s >= 0) != s.size:  # NaN fails this test too
            raise ValueError("gain operators act on nonnegative vectors")
        return self._eval(len(self.wrappers) - 1, s)

    def _eval(self, k: int, s: np.ndarray) -> np.ndarray:
        if k < 0:
            return _base_apply(self.network, s)
        w = self.wrappers[k]
        if w.kind == "enlarge_left":
            inner = self._eval(k - 1, s)
            return inner + w.rho(inner)
        if w.kind == "enlarge_right":
            return self._eval(k - 1, s + w.rho(s))
        if w.kind == "augment":
            return np.maximum(s, self._eval(k - 1, s))
        if w.kind == "project":
            floor = w.floor if s.ndim == 1 else w.floor[:, None]
            return np.maximum(floor, self._eval(k - 1, s))
        if w.kind == "restrict":
            mask = w.mask if s.ndim == 1 else w.mask[:, None]
            return mask * self._eval(k - 1, mask * s)
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
    out = np.zeros(s2.shape)
    width = max(1, _CHUNK_ELEMENTS // max(len(src), 1))
    for c in range(0, s2.shape[1], width):
        v = s2[src, c : c + width]
        k = rank.take(base + grid.searchsorted(v, "right") - 1).astype(np.intp)  # one cast of the int32 ranks, not one per take
        gained = np.minimum(ys.take(k) + slopes.take(k) * (v - xs.take(k)), caps.take(k))
        at = dst * s2.shape[1] + np.arange(c, c + v.shape[1])
        if n_max:
            np.maximum.at(out.reshape(-1), at[:n_max].ravel(), gained[:n_max].ravel())
        if n_max < len(src):
            np.add.at(out.reshape(-1), at[n_max:].ravel(), gained[n_max:].ravel())
    for i, srcs, gains, maf in net._custom_in_edges:
        cols = np.stack([g(s2[j]) for g, j in zip(gains, srcs)])
        out[i] = [maf.evaluate(col) for col in cols.T]
    return out.reshape(s.shape)


# -- iteration ------------------------------------------------------------


def _run(op, s, max_iter, tol, bound, direction=0, floor=None, states=None, norms=None, in_order=False, slack=0.0):
    """The one monotone-iteration driver, over a batch ``(n, m)`` of columns.

    Each column steps ``s <- op(s)`` (``s <- floor max op(s)`` when a floor
    of shape ``(n, m)`` or ``(1, m)`` is given) until its own stop rule
    fires, and is then frozen; only the active columns are applied.
    ``tol``, ``bound`` and ``slack`` are scalars or ``(m,)`` arrays.  Divergence (sup norm above
    ``bound``) is tested before convergence (sup-norm step at most
    ``tol``).  ``direction`` +1 (-1) asserts an increasing (decreasing)
    column up to ``slack`` plus ``1e-12`` times the largest norm it has had; a column
    failing that stops with a ``MonotoneStepError`` as its status.
    ``states``, when given, receives every new active batch, and
    ``norms[k, it]`` the norm of column ``k`` after step ``it``.
    With ``in_order`` the columns are read as a scan that stops at the
    first column that does not converge: once a column fails, the columns
    after it leave the batch, and every column after the first failure
    gets status ``None``.  Returns per column (point, iterations,
    residual, status); the residual is the last step, or the norm at
    divergence.
    """
    m = s.shape[1]
    point = s.copy()
    its = np.zeros(m, dtype=int)
    res = step = np.full(m, np.inf)
    status: list = [StopReason.MAX_ITER] * m
    if m == 0:
        return point, its, res, status
    act, cur, fl = np.arange(m), s, floor
    tl, bd, sl = np.zeros(m) + tol, np.zeros(m) + bound, np.zeros(m) + slack
    scale = np.maximum(1.0, np.abs(s).max(axis=0)) if direction else None
    for it in range(1, max_iter + 1):
        nxt = op(cur)
        if fl is not None:
            nxt = np.maximum(fl, nxt)
        drift = nxt - cur
        if direction:
            lim = 1e-12 * scale + sl
            wrong = (drift < -lim) if direction > 0 else (drift > lim)
            failed = np.logical_or.reduce(wrong, axis=0)
        step = np.maximum.reduce(np.abs(drift), axis=0)
        norm = np.maximum.reduce(np.abs(nxt), axis=0)
        if states is not None:
            states.append(nxt)
        if norms is not None:
            norms[act, it] = norm
        diverged = norm > bd
        done = diverged | (step <= tl)
        if direction:
            scale = np.maximum(scale, norm)
            diverged |= failed
            done |= failed
        if np.count_nonzero(done):
            leave = done
            if in_order and np.count_nonzero(diverged):
                leave = done.copy()
                leave[diverged.nonzero()[0][0] + 1 :] = True  # later columns leave the batch
            for k in leave.nonzero()[0]:
                c = act[k]
                point[:, c], its[c], res[c] = nxt[:, k], it, norm[k] if diverged[k] else step[k]
                if direction and failed[k]:
                    word = "increase" if direction > 0 else "decrease"
                    status[c] = MonotoneStepError(f"projected trajectory failed to {word}")
                elif diverged[k]:
                    status[c] = StopReason.DIVERGED
                else:
                    status[c] = StopReason.CONVERGED if done[k] else None
            keep = (~leave).nonzero()[0]
            if not keep.size:
                break
            act, nxt, step, tl, bd, sl = act[keep], nxt[:, keep], step[keep], tl[keep], bd[keep], sl[keep]
            if direction:
                scale = scale[keep]
            if fl is not None:
                fl = fl[:, keep]
        cur = nxt
    else:
        point[:, act], its[act], res[act] = cur, max_iter, step
    if in_order:
        first = next((k for k, st in enumerate(status) if st is not StopReason.CONVERGED), m)
        for k in range(first + 1, m):
            status[k] = None
    return point, its, res, status


def iterate(op, s0: np.ndarray, stop: StopRule = StopRule()) -> Trajectory:
    """Run the discrete-time system ``s <- T(s)`` and record the states.

    Stops when the sup-norm step falls to ``stop.tol`` (converged), after
    ``stop.max_iter`` steps, or when the norm passes the divergence bound.
    """
    s = np.asarray(s0, dtype=float).copy()
    steps: list[np.ndarray] = []
    _, _, res, status = _run(as_operator(op), s[:, None], stop.max_iter, stop.tol, stop.bound_for(s), states=steps)
    return Trajectory([s] + [x[:, 0] for x in steps], status[0], float(res[0]))


def _fixed_point_run(op: GainOperator, b: np.ndarray, s0: np.ndarray, stop: StopRule, direction: int, in_order=False, slack=0.0):
    """``_run`` of ``s <- b max T(s)`` from ``s0`` for every column of the
    ``(n, m)`` floors ``b`` and starts ``s0``, each to ``stop.tol * max(1, ||b||)``."""
    tol = stop.tol * np.maximum(1.0, np.abs(b).max(axis=0))
    return _run(op, s0, stop.max_iter, tol, stop.bound_for(s0), direction, b, in_order=in_order, slack=slack)


def _with_defect(op: GainOperator, b: np.ndarray, res: FixedPointResult) -> FixedPointResult:
    """``res`` with the residual of a converged limit set to its sup-norm
    defect under ``s -> b max T(s)`` (one more application)."""
    if res.status is StopReason.CONVERGED:
        res.residual = sup_norm(np.maximum(b, op(res.point)) - res.point)
    return res


def _scan(point: np.ndarray, its: np.ndarray, res: np.ndarray, status: list) -> list[FixedPointResult]:
    """The columns in order up to the first that does not converge; a column
    whose status is an error raises it when the scan reaches it."""
    out = []
    for k, st in enumerate(status):
        if isinstance(st, MonotoneStepError):
            raise st
        out.append(FixedPointResult(point[:, k], int(its[k]), float(res[k]), st))
        if st is not StopReason.CONVERGED:
            break
    return out


def _fixed_points(op: GainOperator, b: np.ndarray, s0: np.ndarray, stop: StopRule, direction: int) -> list[FixedPointResult]:
    """Iterate ``s <- b max T(s)`` from ``s0`` for every column of the
    ``(n, m)`` floors ``b`` and starts ``s0``, asserting monotone stepping.

    ``direction`` +1 demands increasing columns, -1 decreasing ones.  The
    columns are scanned in order, as one-at-a-time runs would be: the
    result lists each column up to the first that does not converge, and
    raises the ``MonotoneStepError`` of a failed monotone step when the
    scan reaches it.  A residual is the last step, or the norm at
    divergence.
    """
    return _scan(*_fixed_point_run(op, b, s0, stop, direction, in_order=True))


def _ray_fixed_points(op: GainOperator, r_grid: np.ndarray, stop: StopRule) -> list[FixedPointResult]:
    """``min_fixed_point`` above the ray ``r * ones`` for each ``r`` of the grid,
    run as one batch and scanned in grid order (see ``_fixed_points``)."""
    b = np.ones((op.n, len(r_grid))) * np.asarray(r_grid, dtype=float)
    return _fixed_points(op, b, b, stop, direction=+1)


def _max_fixed_points(op: GainOperator, b: np.ndarray, caps: np.ndarray, stop: StopRule) -> list[FixedPointResult]:
    """``max_fixed_point`` for every column of the ``(n, m)`` floors ``b``
    from its cap in ``caps``, run as column batches and scanned in column
    order (see ``_fixed_points``).

    Each cap round is three batches: the tops (minimal fixed points above
    the cap rays), the descents from them and the minimal fixed points
    above ``b`` that bound the descents from below.  Only a column whose
    descent fails its monotone check goes into the next round, with its
    cap doubled.  Once some column ends unconverged, the columns after it
    leave.  The descent's slack covers the top's tolerance: a top is a
    fixed point only up to that tolerance, so the first descent step may
    rise by about as much.
    """
    n, m = b.shape
    point, its, res, status = np.zeros((n, m)), np.zeros(m, dtype=int), np.zeros(m), [None] * m
    caps = np.array(caps, dtype=float)
    todo, end = np.arange(m), m

    def put(cols, run, ks, statuses):
        point[:, cols], its[cols], res[cols] = run[0][:, ks], run[1][ks], run[2][ks]
        for c, st in zip(cols, statuses):
            status[c] = st

    for _ in range(_CAP_DOUBLINGS + 1):
        todo = todo[todo < end]
        if not todo.size:
            break
        rays = np.ones((n, len(todo))) * caps[todo]
        tops = _fixed_point_run(op, rays, rays, stop, +1, in_order=True)
        up = next((k for k, st in enumerate(tops[3]) if st is not StopReason.CONVERGED), len(todo))
        if up < len(todo):
            put(todo[up : up + 1], tops, [up], tops[3][up : up + 1])
            end = todo[up]
        cols = todo[:up]
        down = _fixed_point_run(op, b[:, cols], tops[0][:, :up], stop, -1, slack=stop.tol * np.maximum(1.0, caps[cols]))
        failed = np.asarray([isinstance(st, MonotoneStepError) for st in down[3]], dtype=bool)
        # a failed descent leaves its top, inconclusive, unless a later round decides the column
        put(cols[failed], tops, failed.nonzero()[0], [StopReason.MAX_ITER] * int(failed.sum()))
        caps[cols[failed]] *= 2.0
        todo, done = cols[failed], cols[~failed]
        put(done, down, (~failed).nonzero()[0], [st for st, f in zip(down[3], failed) if not f])
        low, _, _, low_status = _fixed_point_run(op, b[:, done], b[:, done], stop, +1)
        p = point[:, done]
        below = ~np.all(p >= low - 1e-8 * np.maximum(1.0, np.abs(p).max(axis=0)), axis=0)
        for j, c in enumerate(done):
            if isinstance(low_status[j], MonotoneStepError):
                status[c] = low_status[j]
            elif low_status[j] is StopReason.CONVERGED and below[j]:
                status[c] = MonotoneStepError("maximal fixed point fell below the minimal one")
        end = min([end] + [c for c in done if status[c] is not StopReason.CONVERGED])
    return _scan(point, its, res, status)


def min_fixed_point(net_or_op, b: np.ndarray, stop: StopRule = StopRule()) -> FixedPointResult:
    """Minimal fixed point of ``s -> b max T(s)``, grown from ``s0 = b``.

    The trajectory is increasing (asserted each step); divergence is
    reported as evidence against bounded invertibility rather than raised.
    """
    op, b = as_operator(net_or_op), np.asarray(b, dtype=float)
    return _with_defect(op, b, _fixed_points(op, b[:, None], b[:, None], stop, direction=+1)[0])


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


def stability_battery(
    net_or_op,
    rho: KFun | None = None,
    r_grid: Sequence[float] | None = None,
    n_max: int = 256,
    stop: StopRule = StopRule(),
) -> StabilityReport:
    """Tabulate ray trajectories and classify UGS/GATT/UGAS evidence.

    Rays decay (GATT at level r) when the trajectory norm falls below
    ``1e-8 * max(1, r)`` within ``n_max`` steps; the augmented
    iteration must stay bounded for UGS.  Undecided rays (cap hit without
    divergence) are reported as inconclusive, not as failures.
    """
    op = as_operator(net_or_op, rho)
    if r_grid is None:
        r_grid = np.asarray([2.0**k for k in range(-8, 9)], dtype=float)
    r_grid = np.asarray(sorted(float(r) for r in r_grid))
    if len(r_grid) == 0:
        raise ValueError("r_grid must be nonempty")
    m = len(r_grid)
    aug_stop = StopRule(min(stop.max_iter, 10 * n_max), stop.tol, stop.divergence_bound)
    rays = np.ones((op.n, m)) * r_grid
    # tol 0 stops a ray only at an exact fixed point (its norm then repeats) and
    # 1e30 at hopeless growth; either way its last norm fills the rest of its row
    kl = np.zeros((m, n_max + 1))
    kl[:, 0] = r_grid
    _, its, _, _ = _run(op, rays, n_max, 0.0, 1e30, norms=kl)
    kl = np.where(np.arange(n_max + 1) <= its[:, None], kl, kl[np.arange(m), its][:, None])
    gatt = [bool(g) for g in np.any(kl[:, 1:] <= 1e-8 * np.maximum(1.0, r_grid)[:, None], axis=1)]
    # augmented iteration: increasing, so its limit norm is the running sup
    tol = stop.tol * np.maximum(1.0, r_grid)
    point, _, _, status = _run(op.augmented(), rays, aug_stop.max_iter, tol, aug_stop.bound_for(rays))
    ugs = [st is StopReason.CONVERGED for st in status]
    inconclusive = [float(r) for r, st in zip(r_grid, status) if st is StopReason.MAX_ITER]
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
