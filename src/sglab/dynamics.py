"""Gain operators, their monotone dynamics and stability envelopes.

An operator is a network plus a chain of wrappers (enlargements on either
side, augmentation by the argument, projection above a floor vector,
restriction to a node subset), applied outermost-last.  Application
accepts a single cone vector ``(n,)`` or a batch ``(n, m)`` of columns.

Evaluation is exactly monotone in floating point (inherited from the
clamped PL gain evaluation plus max/sum aggregation), which makes the
augmented/projected iteration identities hold bit for bit, not just up
to tolerance.

Every iteration here (trajectories, fixed points, cofinality witnesses
and the stability battery's rays) goes through the one loop ``_run``.
Every application goes through ``_base_apply``, which evaluates all max
and sum edges at once from one knot table per network (the distinct
gains' knots merged into one grid, with a segment rank per gain).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .cone import ones, sup_norm
from .kfun import KFun, MonotoneSamples, Side, envelope
from .network import GainNetwork

__all__ = [
    "StopRule",
    "StopReason",
    "Trajectory",
    "FixedPointResult",
    "GainOperator",
    "MonotoneStepError",
    "FixedPointError",
    "as_operator",
    "iterate",
    "min_fixed_point",
    "max_fixed_point",
    "decay_margin",
    "cofinality_witness",
    "CofinalityResult",
    "StabilityReport",
    "stability_battery",
]

_CHUNK_ELEMENTS = 1 << 14  # edges x columns per pass over the knot table: bounds the temporaries


class MonotoneStepError(RuntimeError):
    """A trajectory that must move monotonically stepped the wrong way."""


class FixedPointError(RuntimeError):
    """Fixed-point iteration failed (divergence or an exhausted cap)."""


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

    def bound_for(self, s0: np.ndarray) -> float:
        if self.divergence_bound is not None:
            return self.divergence_bound
        return 1e9 * sup_norm(s0) + 1.0


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
        if np.any(floor < 0):
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
        if np.any(s < 0):
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


def as_operator(net_or_op) -> GainOperator:
    if isinstance(net_or_op, GainOperator):
        return net_or_op
    if isinstance(net_or_op, GainNetwork):
        return GainOperator(net_or_op)
    raise TypeError(f"expected GainNetwork or GainOperator, got {type(net_or_op)!r}")


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
        k = rank.take(base + grid.searchsorted(v, "right") - 1)
        gained = np.minimum(ys.take(k) + slopes.take(k) * (v - xs.take(k)), caps.take(k))
        at = dst * s2.shape[1] + np.arange(c, c + v.shape[1])
        np.maximum.at(out.reshape(-1), at[:n_max].ravel(), gained[:n_max].ravel())
        np.add.at(out.reshape(-1), at[n_max:].ravel(), gained[n_max:].ravel())
    for i, srcs, gains, maf in net._custom_in_edges:
        cols = np.stack([g(s2[j]) for g, j in zip(gains, srcs)])
        out[i] = [maf.evaluate(col) for col in cols.T]
    return out.reshape(s.shape)


# -- iteration ------------------------------------------------------------


def _run(op, s: np.ndarray, max_iter: int, tol: float, bound: float, direction: int = 0, states=None):
    """The one monotone-iteration loop: ``s <- op(s)`` until a stop rule fires.

    Divergence (sup norm above ``bound``) is tested before convergence
    (sup-norm step at most ``tol``).  ``direction`` +1 (-1) asserts an
    increasing (decreasing) trajectory up to ``1e-12`` times the largest
    norm seen so far.  ``states``, when given, receives every new state.
    Returns (point, iterations, residual, status); the residual is the
    last step, or the norm at divergence.
    """
    scale = max(1.0, sup_norm(s))
    step = np.inf
    for it in range(1, max_iter + 1):
        nxt = op(s)
        drift = nxt - s
        if direction > 0 and np.any(drift < -1e-12 * scale):
            raise MonotoneStepError("projected trajectory failed to increase")
        if direction < 0 and np.any(drift > 1e-12 * scale):
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


def iterate(op, s0: np.ndarray, stop: StopRule = StopRule()) -> Trajectory:
    """Run the discrete-time system ``s <- T(s)`` and record the states.

    Stops when the sup-norm step falls to ``stop.tol`` (converged), after
    ``stop.max_iter`` steps, or when the norm passes the divergence bound.
    """
    s = np.asarray(s0, dtype=float).copy()
    states = [s]
    _, _, residual, status = _run(as_operator(op), s, stop.max_iter, stop.tol, stop.bound_for(s), states=states)
    return Trajectory(states, status, residual)


def _fixed_point(op: GainOperator, b: np.ndarray, s0: np.ndarray, stop: StopRule, direction: int) -> FixedPointResult:
    """Iterate ``s <- b max T(s)`` from ``s0``, asserting monotone stepping.

    ``direction`` +1 demands an increasing trajectory, -1 a decreasing one.
    On convergence the residual is the sup-norm defect of the limit.
    """
    proj = op.projected(b)
    s = np.asarray(s0, dtype=float).copy()
    tol = stop.tol * max(1.0, sup_norm(b))
    point, its, res, status = _run(proj, s, stop.max_iter, tol, stop.bound_for(s), direction)
    if status is StopReason.CONVERGED:
        res = sup_norm(proj(point) - point)
    return FixedPointResult(point, its, res, status)


def min_fixed_point(net_or_op, b: np.ndarray, stop: StopRule = StopRule()) -> FixedPointResult:
    """Minimal fixed point of ``s -> b max T(s)``, grown from ``s0 = b``.

    The trajectory is increasing (asserted each step); divergence is
    reported as evidence against bounded invertibility rather than raised.
    """
    b = np.asarray(b, dtype=float)
    return _fixed_point(as_operator(net_or_op), b, b, stop, direction=+1)


def max_fixed_point(
    net_or_op,
    b: np.ndarray,
    r_cap: float | None = None,
    stop: StopRule = StopRule(),
    retries: int = 8,
) -> FixedPointResult:
    """Maximal fixed point of ``s -> b max T(s)``.

    Starts from the minimal fixed point above the cap ray ``r_cap * ones``
    and descends.  A failed descent assertion means the cap was too small;
    the cap is doubled up to ``retries`` times before giving up.
    """
    op = as_operator(net_or_op)
    b = np.asarray(b, dtype=float)
    cap = float(r_cap) if r_cap is not None else 2.0 * max(sup_norm(b), 1.0)
    if cap < sup_norm(b):
        raise ValueError("r_cap must be at least ||b||")
    last_exc: Exception | None = None
    for _ in range(retries + 1):
        top = min_fixed_point(op, cap * ones(op.n), stop)
        if top.status is not StopReason.CONVERGED:
            return top
        try:
            res = _fixed_point(op, b, top.point, stop, direction=-1)
        except MonotoneStepError as exc:
            last_exc = exc
            cap *= 2.0
            continue
        lower = min_fixed_point(op, b, stop)
        if lower.status is StopReason.CONVERGED and not np.all(res.point >= lower.point - 1e-8 * max(1.0, sup_norm(res.point))):
            raise FixedPointError("maximal fixed point fell below the minimal one; raise r_cap")
        return res
    raise FixedPointError(f"descent failed after {retries} cap escalations: {last_exc}")


def decay_margin(op, s: np.ndarray, check_interval: bool = True) -> np.ndarray:
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
    if check_interval and np.all(margin >= 0):
        for alpha in (0.25, 0.5, 0.75):
            t = ts + alpha * margin
            if np.any(op(t) > t + 1e-9 * max(1.0, sup_norm(t))):
                raise MonotoneStepError("order interval left the decay set; aggregation is not monotone")
    return margin


@dataclass
class CofinalityResult:
    status: str  # "witness" | "diverged" | "inconclusive"
    point: np.ndarray | None
    n: int


def cofinality_witness(net_or_op, s: np.ndarray, stop: StopRule = StopRule()) -> CofinalityResult:
    """Search a decay point above ``s`` by running the augmented iteration.

    Convergence yields a witness with one decay step; divergence is
    evidence against the cofinality of the decay set; hitting the
    iteration cap is reported as inconclusive.
    """
    s = np.asarray(s, dtype=float).copy()
    tol = stop.tol * max(1.0, sup_norm(s))
    point, _, _, status = _run(as_operator(net_or_op).augmented(), s, stop.max_iter, tol, stop.bound_for(s))
    if status is StopReason.DIVERGED:
        return CofinalityResult("diverged", None, 0)
    if status is StopReason.CONVERGED:
        return CofinalityResult("witness", point, 1)
    return CofinalityResult("inconclusive", point, 0)


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
            "r_grid": [float(r) for r in self.r_grid],
            "n_max": self.n_max,
            "kl_table": [[float(v) for v in row] for row in self.kl_table],
            "gatt_per_r": list(self.gatt_per_r),
            "ugs_per_r": list(self.ugs_per_r),
            "inconclusive_r": [float(r) for r in self.inconclusive_r],
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
    decay_rtol: float = 1e-8,
) -> StabilityReport:
    """Tabulate ray trajectories and classify UGS/GATT/UGAS evidence.

    Rays decay (GATT at level r) when the trajectory norm falls below
    ``decay_rtol * max(1, r)`` within ``n_max`` steps; the augmented
    iteration must stay bounded for UGS.  Undecided rays (cap hit without
    divergence) are reported as inconclusive, not as failures.
    """
    op = as_operator(net_or_op)
    if rho is not None:
        op = op.enlarge_left(rho)
    if r_grid is None:
        r_grid = np.asarray([2.0**k for k in range(-8, 9)], dtype=float)
    r_grid = np.asarray(sorted(float(r) for r in r_grid))
    if len(r_grid) == 0:
        raise ValueError("r_grid must be nonempty")
    kl = np.zeros((len(r_grid), n_max + 1))
    gatt, ugs = [], []
    inconclusive: list[float] = []
    aug_sup: list[tuple[float, float]] = [(0.0, 0.0)]
    aug_stop = StopRule(min(stop.max_iter, 10 * n_max), stop.tol, stop.divergence_bound)
    for k, r in enumerate(r_grid):
        # tol 0 stops only at an exact fixed point (its norm then repeats) and
        # 1e30 at hopeless growth; either way the last norm fills the row
        states = [r * ones(op.n)]
        _run(op, states[0], n_max, 0.0, 1e30, states=states)
        norms = np.abs(np.stack(states)).max(axis=1)
        kl[k, : len(norms)] = norms
        kl[k, len(norms) :] = norms[-1]
        gatt.append(bool(np.any(kl[k, 1:] <= decay_rtol * max(1.0, r))))
        # augmented iteration: increasing, so its limit norm is the running sup
        res = cofinality_witness(op, r * ones(op.n), aug_stop)
        if res.status == "inconclusive":
            inconclusive.append(float(r))
        ugs.append(res.status == "witness")
        if res.status == "witness":
            aug_sup.append((float(r), sup_norm(res.point)))
    env = None
    if all(ugs):
        samples = MonotoneSamples.from_pairs(aug_sup)
        env = envelope(samples, Side.ABOVE)
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
