"""Small-gain condition probes and class-specific decidable checks.

Every check returns an ``SgcVerdict``.  No-joint-increase and its uniform
variant are decided by one rule, each on its own clamped descent, a
column of ``check``'s ray batch: ``pass`` on an annulus of norms, or
``fail`` with a counterexample.  Maximum bounded invertibility is probed
on rays: ``fail`` with a machine-checkable counterexample or ``evidence``.
Otherwise ``pass`` is reserved for the decidable subclasses: cycle-gain
checks on a declared interval for max aggregation, and, for linear gains,
a power iterate ``T^n(1)`` of norm below 1 or, for sum aggregation, the
solution ``x > 0`` of ``(I - A) x = 1`` with ``T(x) < x``.  A run that
stops undecided is ``inconclusive``.  No probe draws at random.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .cone import coercivity_check, sup_norm
# min_fixed_point stays bound here: perfbench/spans.py traces it under this module's name
from .dynamics import MonotoneStepError, StopReason, StopRule, _grid, _ray_batch, _Rays, _scan, as_operator, cofinality_witness, min_fixed_point  # noqa: F401
from .kfun import KFun, MonotoneSamples, Side, _distinct, compose_power, envelope, id_plus, identity
from .network import GainNetwork, _simple_cycles, graph_diameter, is_strongly_connected

nx = None  # perfbench/spans.py patches this binding when it traces a run


def cone_samples(*args, **kwargs):
    """A placeholder, not a sampler: it exists only so that ``perfbench/spans.py``
    can wrap the name ``sglab.smallgain.cone_samples`` when it traces a run."""
    raise NotImplementedError("the cone sampler was removed: no sglab verdict draws cone samples")


__all__ = [
    "SgcVerdict",
    "ModulusChain",
    "nji_probe",
    "uniform_nji_probe",
    "max_mbi_probe",
    "cycle_gain_check",
    "spectral_condition",
    "delta_chain",
    "decayset_coercivity",
]


@dataclass
class SgcVerdict:
    """Outcome of one condition check, the one verdict type of a certificate.

    ``pass``: the condition holds on a decided class.  ``fail``: it is
    violated, and the counterexample replays the violation.  ``evidence``:
    no violation within the recorded budget.  ``inconclusive``: the run
    stopped undecided, at the point its witness names.
    """

    condition: str
    status: str  # "pass" | "fail" | "evidence" | "inconclusive"
    witness: dict | None = None
    counterexample: dict | None = None
    samples: int = 0
    budget: int = 0
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_dict(self) -> dict:
        return asdict(self)


# -- probes ----------------------------------------------------------------


def _descent_verdict(condition: str, op, column: tuple, r: float, eps: float) -> SgcVerdict:
    """The one reading of a clamped descent ``s <- r * ones min T(s)`` from
    ``r * ones``, a ``_Rays.descent`` column, on the annulus ``eps <= ||s|| <= r``.

    The descent decreases and stays above every joint increase (``T(s) >= s``)
    of norm at most ``r``: ``s <= s_k`` gives ``s <= r * ones min T(s) <=
    s_{k+1}``.  So a recorded norm below ``eps`` puts every joint increase of
    the ``r``-ball below ``eps`` (``pass``), and so does a stop at some ``s``
    with ``||s|| < eps``, which is recorded too.  A stop at ``s`` with
    ``||s|| >= eps`` is a joint increase in the annulus (``fail``; ``s`` and
    ``T(s)`` replay it in one application).  A cap reached above ``eps``, or a
    step that rises (T not monotone in floating point), is ``inconclusive``.
    """
    point, its, status, norms = column
    below, note = np.flatnonzero(norms[1 : its + 1] < eps), "decided with the floating-point operator, not with outward-rounded bounds of T"
    if isinstance(status, MonotoneStepError):
        verdict, note = "inconclusive", f"the descent rose at step {its}: T is not monotone in floating point here"
    elif below.size:
        verdict, its = "pass", int(below[0]) + 1
    elif status is StopReason.CONVERGED:
        verdict = "fail"
    else:
        verdict, note = "inconclusive", f"the descent reached its cap of {its} steps above eps"
    counterexample = {"s": point.tolist(), "image": op(point).tolist()} if verdict == "fail" else None
    return SgcVerdict(condition, verdict, {"r": r, "eps": eps, "step": its, "norm": float(norms[its])}, counterexample, note=note)


def _descent(op, r: float, rays: _Rays | None) -> tuple:
    """The descent column from ``r * ones``: ``rays``' own, or a batch of its own capped at 256 steps like the table."""
    return (rays or _ray_batch(op, (), 256, np.empty(0), 0, StopRule(), (r,))).descent(r)


def nji_probe(net: GainNetwork, rho: KFun | None = None, r_grid: Sequence[float] | None = None, *, _rays: _Rays | None = None) -> SgcVerdict:
    """Decide no-joint-increase, no ``s != 0`` with ``T(s) >= s``, on ``eps <= ||s|| <= R``,
    the bottom and the top of the grid, by ``_descent_verdict`` on the descent
    from ``R * ones``: ``check``'s batch column, passed as ``_rays``, or a batch
    of its own."""
    op, grid = as_operator(net, rho), _grid(r_grid, 8)
    r, eps = float(grid[-1]), float(grid[0])
    return _descent_verdict("nji", op, _descent(op, r, _rays), r, eps)


def uniform_nji_probe(net: GainNetwork, r: float, eps: float, rho: KFun | None = None, *, _rays: _Rays | None = None) -> SgcVerdict:
    """Decide the uniform no-joint-increase condition at level ``(r, eps)``.

    The condition asks for a depth ``n`` and a ``delta > 0`` such that for
    every ``s`` of norm at most ``r`` and every node ``i`` with ``s_i >= eps``,
    some node within ``n`` hops upstream of ``i`` carries ``s_j >= delta`` and
    decays, ``T(s)_j < s_j``.  On a finite network that is no-joint-increase
    on the annulus ``eps <= ||s|| <= r``.  A joint increase there, at its
    largest entry ``i``, has no decaying node at all.  Conversely, zero ``s``
    outside the nodes that reach ``i``: that set is closed under in-edges,
    so T keeps its values there, and the result has norm in ``[eps, r]``.
    It is not a joint increase, so some node upstream of ``i`` decays, within
    ``n`` hops.  The largest decay upstream of ``i``, ``max_j (s_j - T(s)_j)``,
    is then positive and continuous on the compact set of such ``s``, so its
    least value is one ``delta > 0`` for them all, and the decaying ``s_j``
    is at least its decay.  The annulus is decided by
    ``_descent_verdict`` on the descent from ``r * ones``: ``check``'s batch
    column, passed as ``_rays``, or a batch of its own.
    """
    if not 0 < eps <= r:
        raise ValueError("need 0 < eps <= r")
    op = as_operator(net, rho)
    return _descent_verdict("uniform_nji", op, _descent(op, float(r), _rays), float(r), float(eps))


def _check_rays(net: GainNetwork, rho: KFun | None, r_grid: Sequence[float] | None, n_max: int, uniform_r: float | None = None) -> _Rays:
    """``check``'s one ray batch: ``stability_battery``'s table on its grid,
    the least fixed points on the union of its grid and ``max_mbi_probe``'s,
    to ``StopRule()``'s cap, and, given ``uniform_r``, the descents of
    ``nji_probe`` from the grid's top and of ``uniform_nji_probe`` from
    ``uniform_r``; each reads it as ``_rays``."""
    table, stop = _grid(r_grid, 8), StopRule()
    tops = () if uniform_r is None else (table[-1], uniform_r)
    return _ray_batch(as_operator(net, rho), table, n_max, _distinct(table, _grid(r_grid, 10)), stop.max_iter, stop, tops)


def max_mbi_probe(
    net: GainNetwork,
    rho: KFun | None = None,
    r_grid: Sequence[float] | None = None,
    stop: StopRule = StopRule(),
    *,
    _rays: _Rays | None = None,
) -> SgcVerdict:
    """Bounded-invertibility probe along the ray directions.

    Ray floors suffice for this property, so the probe grows the minimal
    fixed point above each grid ray; divergence is a counterexample, and
    otherwise the norms are wrapped in an increasing PL majorant (the
    invertibility bound fit).  The rays are one ``_ray_batch`` without
    table columns, or ``check``'s shared batch passed as ``_rays``; the
    verdict is read off them by ``_scan``.
    """
    r_grid = _grid(r_grid, 10).tolist()
    if _rays is None:
        _rays = _ray_batch(as_operator(net, rho), (), 0, _distinct(r_grid), stop.max_iter, stop)
    pairs = [(0.0, 0.0)]
    for r, res in zip(r_grid, _scan(*_rays.fixed_points(r_grid))):
        if res.status is StopReason.DIVERGED:
            return SgcVerdict(
                condition="max_mbi",
                status="fail",
                counterexample={"r": r, "norm_reached": sup_norm(res.point), "iterations": res.iterations},
            )
        if res.status is StopReason.MAX_ITER:
            return SgcVerdict(
                condition="max_mbi",
                status="inconclusive",
                witness={"r": r, "iterations": res.iterations},
                note="iteration cap hit before convergence or divergence",
            )
        pairs.append((r, sup_norm(res.point)))
    zs = np.maximum.accumulate(np.asarray([z for _, z in pairs]))
    phi = envelope(MonotoneSamples(np.asarray([p for p, _ in pairs]), zs), Side.ABOVE)
    return SgcVerdict(
        condition="max_mbi",
        status="evidence",
        witness={
            "phi_fit": {"xs": phi.xs.tolist(), "ys": phi.ys.tolist(), "final_slope": phi.final_slope},
            "r_grid": list(r_grid),
        },
        samples=len(r_grid),
    )


_CYCLE_BUDGET = 10_000  # simple cycles cycle_gain_check composes before it reports partial coverage


def _cycles(net: GainNetwork, limit: int):
    """Up to ``limit`` simple cycles; returns (cycles, truncated flag).

    The order is a contract, since certificate bytes follow it: each
    cycle once, as its node list from its least node, and the lists in
    lexicographic order (``network._simple_cycles``).
    """
    gen = _simple_cycles(net.graph)
    cycles = list(itertools.islice(gen, limit))
    truncated = next(gen, None) is not None
    return cycles, truncated


def cycle_gain_check(
    net: GainNetwork,
    rho: KFun | None = None,
    test_grid: Sequence[float] | None = None,
) -> SgcVerdict:
    """Decidable small-gain check for max aggregation: every simple cycle's
    chained (enlarged) gain must stay strictly below the identity.

    The composed cycle map is PL, so checking its breakpoints plus the
    grid end decides the condition exactly on the covered interval.
    """
    if net.uniform_maf != "max":
        raise ValueError("cycle-gain check applies to max-aggregation networks only")
    grid = _grid(test_grid, 8)
    r_top = float(grid[-1])
    cycles, truncated = _cycles(net, _CYCLE_BUDGET)
    lift = None if rho is None else id_plus(rho)

    @functools.cache
    def step(a: int, b: int) -> KFun:
        gain = net.edge_gain[(a, b)]
        return gain if lift is None else lift.compose(gain)

    chain: list[tuple[int, KFun]] = []  # (node, chained gain from the root to it) along the previous cycle
    checked = 0
    for cyc in cycles:
        k = 0  # consecutive cycles share a prefix of the search path; its chained gains are kept
        while k < min(len(chain), len(cyc)) and chain[k][0] == cyc[k]:
            k += 1
        del chain[k:]
        for b in cyc[k:]:
            chain.append((b, step(chain[-1][0], b).compose(chain[-1][1]) if chain else identity()))
        f = step(cyc[-1], cyc[0]).compose(chain[-1][1])
        checked += 1
        if f._out_slopes[0] >= 1.0:  # f(r) = slope * r >= r on the first segment: probe its midpoint
            probes = np.asarray([min(f.xs[1] if len(f.xs) > 1 else r_top, r_top) / 2.0])
        else:
            probes = np.concatenate([f.xs[1:][f.xs[1:] <= r_top], grid])
        vals = f(probes)
        bad = vals >= probes
        if np.any(bad):
            k = int(np.argmax(bad))
            return SgcVerdict(
                condition="cycle_gain",
                status="fail",
                counterexample={"cycle": list(cyc), "r": float(probes[k]), "value": float(vals[k])},
                samples=checked,
            )
    if truncated:
        return SgcVerdict(
            condition="cycle_gain",
            status="evidence",
            witness={"cycles_checked": checked, "r_max": r_top},
            note="cycle budget exhausted; coverage is partial",
            budget=_CYCLE_BUDGET,
        )
    return SgcVerdict(
        condition="cycle_gain",
        status="pass",
        witness={"cycles_checked": checked, "r_max": r_top},
        samples=checked,
    )


_SOLVE_MAX_NODES = 500  # sum networks up to this size get the linear solve when the power iteration stops undecided


def spectral_condition(net: GainNetwork, n_max: int = 64, rho: KFun | None = None) -> SgcVerdict:
    """Power-iteration test ``||T^n(ones)|| < 1`` for homogeneous operators.

    The operator is homogeneous by construction (linear gains with max/sum
    aggregation, and a linear enlargement if given); the test passes
    when the threshold is reached.  Otherwise, on a sum network of at most
    ``_SOLVE_MAX_NODES`` nodes, T is ``x -> A x`` for the slope matrix ``A``
    (times ``1 + k`` under ``rho = linear(k)``), and ``x`` solving
    ``(I - A) x = 1`` with ``x > 0`` and ``T(x) < x`` in one application
    proves ``rho(A) < 1`` (Collatz-Wielandt: ``rho(A) <= max_i (A x)_i / x_i``);
    ``x`` and ``T(x)`` are the witness.  Else the test is inconclusive, with
    the observed growth ratio and the last norms as its witness.
    """
    if net.uniform_maf not in ("max", "sum"):
        raise ValueError("spectral condition applies to pure max- or sum-aggregation networks")
    if not net.all_gains_linear:
        raise ValueError("spectral condition requires linear gains")
    if rho is not None and not rho.is_linear:
        raise ValueError("enlargement must be linear to preserve homogeneity")
    op = as_operator(net, rho)
    norms = [1.0]
    t = np.ones(net.n)
    for n in range(1, n_max + 1):
        t = op(t)
        norms.append(sup_norm(t))
        if norms[-1] < 1.0:
            return SgcVerdict(
                condition="spectral",
                status="pass",
                witness={"n": n, "norm": norms[-1]},
            )
    if net.uniform_maf == "sum" and net.n <= _SOLVE_MAX_NODES:
        a = np.zeros((net.n, net.n))
        for j, i, g in net.edges:
            a[i, j] += g.final_slope
        a *= 1.0 if rho is None else 1.0 + rho.final_slope
        try:
            x = np.linalg.solve(np.eye(net.n) - a, np.ones(net.n))
        except np.linalg.LinAlgError:  # I - A singular: 1 is an eigenvalue of A
            x = np.zeros(net.n)
        # NaN entries fail x > 0, infinite ones T(x) < x
        if np.all(x > 0) and np.all((image := op(x)) < x):
            note = "Collatz-Wielandt: x > 0 and T(x) < x, with the floating-point operator, give a spectral radius below 1"
            return SgcVerdict("spectral", "pass", {"x": x.tolist(), "image": image.tolist()}, note=note)
    n0 = max(n_max // 2, 1)
    ratio = (norms[-1] / norms[n0]) ** (1.0 / (n_max - n0)) if norms[n0] > 0 else 0.0
    return SgcVerdict(
        condition="spectral",
        status="inconclusive",
        witness={"growth_ratio": float(ratio), "norms_tail": norms[-8:]},
        note=f"threshold not reached within n_max={n_max}",
    )


# -- modulus chains ---------------------------------------------------------


@dataclass(frozen=True)
class ModulusChain:
    """Back-propagated accuracy levels for multi-step decay estimates.

    ``levels[l-1] = (eps_l, delta_l)`` for ``l = 1..n``; the head slack
    ``delta = delta_1`` guarantees that a one-step near-decay of depth-
    ``(n-1)`` ancestors forces an ``n``-step decay up to ``eps``.
    """

    levels: tuple[tuple[float, float], ...]

    @property
    def delta(self) -> float:
        return self.levels[0][1]

    @property
    def eps(self) -> float:
        return self.levels[-1][0]


def delta_chain(modulus: KFun, n: int, eps: float) -> ModulusChain:
    """Compute the per-level ``(eps_l, delta_l)`` recursion.

    The last level is pinned at the target ``eps``; descending levels
    halve the slack and pull it back through the inverse modulus.  The
    head slack additionally stays below every intermediate accuracy.
    """
    if not isinstance(modulus, KFun):
        raise TypeError("the modulus must be an invertible comparison function (KFun)")
    if n < 1 or eps <= 0:
        raise ValueError("need n >= 1 and eps > 0")
    if n == 1:
        return ModulusChain(((float(eps), float(eps)),))
    inv = modulus.inverse()
    eps_l = [0.0] * (n + 1)
    delta_l = [0.0] * (n + 1)
    eps_l[n] = float(eps)
    delta_l[n] = float(eps)
    for l in range(n - 1, 0, -1):
        eps_l[l] = delta_l[l + 1] / 2.0
        delta_l[l] = float(inv(eps_l[l]))
    delta_l[1] = min([delta_l[1]] + eps_l[1:n])
    return ModulusChain(tuple((eps_l[l], delta_l[l]) for l in range(1, n + 1)))


def decayset_coercivity(net: GainNetwork, n_diam: int | None = None, stop: StopRule = StopRule()) -> KFun:
    """Coercivity bound for the decay set of a strongly connected network.

    Every decay point dominates each of its components through gain
    chains of length at most the diameter, which yields the bound
    ``(xi o eta)^n``.  Sampled decay points (augmented-iteration limits
    above the unit ray and 8 seeded random starts) are checked against it.
    """
    if not is_strongly_connected(net.graph):
        raise ValueError("coercivity of the decay set needs a strongly connected graph")
    diam = graph_diameter(net.graph)
    if n_diam is None:
        n_diam = diam
    if n_diam < diam:
        raise ValueError(f"n_diam={n_diam} is below the graph diameter {diam}")
    phi = compose_power(net.xi.compose(net.eta), n_diam)
    rng = np.random.default_rng([0, 0xC0E])
    points = []
    starts = [np.ones(net.n)] + [rng.uniform(0.1, 2.0, size=net.n) for _ in range(8)]
    for s0 in starts:
        res = cofinality_witness(net, s0, stop)
        if res.status is StopReason.CONVERGED:
            points.append(res.point)
    result = coercivity_check(points, phi)
    if not result.ok:
        raise RuntimeError(
            f"sampled decay point violates the coercivity bound (slack {result.slack:.3e}); "
            "the network data contradicts the strong-connectivity hypotheses"
        )
    return phi
