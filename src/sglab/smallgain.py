"""Small-gain condition probes and class-specific decidable checks.

Every check returns an ``SgcVerdict``.  No-joint-increase is decided
between the ends of the ray grid by one clamped descent, a column of
``check``'s ray batch: ``pass``, or ``fail`` with a counterexample.  The
uniform variant (sampled) and maximum bounded invertibility (on rays) are
probed: ``fail`` with a machine-checkable counterexample or ``evidence``;
the uniform variant reads every depth of its neighborhoods off one
max-propagation of the decaying sample values over in-edges.  Otherwise
``pass`` is reserved for the decidable subclasses: cycle-gain checks on
a declared interval for max aggregation, and a power iterate ``T^n(1)``
of norm below 1 for homogeneous operators.  A run that stops undecided
is ``inconclusive``.

Samplers draw a deterministic prefix (rays, unit bumps, cycle profiles)
before any seeded randomness, so canonical counterexamples are found
regardless of seed.
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
from .kfun import KFun, MonotoneSamples, Side, compose_power, envelope, id_plus, identity
from .network import GainNetwork, _simple_cycles, graph_diameter, is_strongly_connected

nx = None  # perfbench/spans.py patches this binding when it traces a run

__all__ = [
    "SgcVerdict",
    "SamplerConfig",
    "ModulusChain",
    "nji_probe",
    "uniform_nji_probe",
    "max_mbi_probe",
    "cycle_gain_check",
    "spectral_condition",
    "delta_chain",
    "decayset_coercivity",
    "cone_samples",
    "cycle_profile",
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


_CYCLE_BUDGET = 10_000  # simple cycles cycle_gain_check composes before it reports partial coverage


@dataclass(frozen=True)
class SamplerConfig:
    """Seed and column budget of ``cone_samples``; sampled norms span [1e-3, 8]."""

    seed: int = 0
    budget: int = 10_000

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"the sampling budget must be at least 1, got {self.budget}")


# -- sampling --------------------------------------------------------------


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


def _sample_cycles(net: GainNetwork):
    """The first 64 simple cycles (and the truncated flag) that sample
    profiles follow, enumerated once per network and kept on it."""
    memo = net.__dict__
    if "_sample_cycles" not in memo:
        memo["_sample_cycles"] = _cycles(net, 64)
    return memo["_sample_cycles"]


def cycle_profile(net: GainNetwork, cycle: Sequence[int], root: float, rho: KFun | None = None) -> np.ndarray:
    """Gain-consistent vector along a cycle: each node carries the chained
    gain of the root value.  Aggregation dominates single in-values, so
    the profile violates no-joint-increase exactly when the cycle map
    does not contract at the root."""
    s = np.zeros(net.n)
    s[cycle[0]] = root
    val = root
    for a, b in zip(cycle, cycle[1:]):
        val = net.edge_gain[(a, b)](val)
        if rho is not None:
            val = val + rho(val)
        s[b] = max(s[b], val)
    return s


_DRAW_CHUNK_ELEMENTS = 1 << 16  # PCG64 words per bulk decode pass of cone_samples: bounds the temporaries


def cone_samples(net: GainNetwork, cfg: SamplerConfig, rho: KFun | None = None, scale_cap: float | None = None) -> np.ndarray:
    """Sample matrix (columns are cone vectors), deterministic prefix first.

    ``scale_cap`` restricts all columns to the closed norm ball of that
    radius (used by the uniform probe).  The random columns after the
    prefix are a compatibility contract: they are the columns
    ``_draw_group`` draws from ``default_rng([seed, 0xC0DE])``, group
    after group, decoded in bulk (``_draw_groups``) to the same bits.
    """
    n = net.n
    lo, hi = 1e-3, 8.0
    if scale_cap is not None:
        hi = min(hi, scale_cap)
        lo = min(lo, hi / 1024.0)
    levels = np.geomspace(lo, hi, 9)
    s = np.zeros((n, cfg.budget))
    k = 0  # next column; prefix columns past the budget are dropped

    def put(value, row=slice(None)) -> None:
        nonlocal k
        if k < cfg.budget:
            s[row, k] = value
        k += 1

    put(min(1.0, hi))  # the canonical all-ones probe leads
    for r in levels:
        put(r)
    ends = (levels[0], levels[len(levels) // 2], levels[-1])
    for i in range(min(n, 32)):
        for r in ends:
            put(r, i)
    cycles, _ = _sample_cycles(net)
    for cyc in cycles:
        for r in ends:
            prof = cycle_profile(net, cyc, r, rho)
            m = sup_norm(prof)
            if m > 0 and scale_cap is not None and m > scale_cap:
                prof = prof * (scale_cap / m)
            put(prof)
    if k < cfg.budget:
        _draw_groups(np.random.default_rng([cfg.seed, 0xC0DE]), s, k, np.log(lo), np.log(hi))
    if scale_cap is not None:
        norms = np.max(s, axis=0)
        over = norms > scale_cap
        if np.any(over):
            s[:, over] *= scale_cap / norms[over]
    return s


def _draw_group(rng: np.random.Generator, s: np.ndarray, j0: int, log_lo: float, log_hi: float) -> None:
    """Columns ``j0, j0 + 1, j0 + 2`` (those inside ``s``), one ``rng`` call at a time: a ray,
    a unit bump at a random row, and a random vector rescaled to a random norm (no norm draw for 0)."""
    n = s.shape[0]
    for j in range(j0, min(j0 + 3, s.shape[1])):
        mode = j - j0
        if mode == 0:
            s[:, j] = np.exp(rng.uniform(log_lo, log_hi))
        elif mode == 1:
            r = np.exp(rng.uniform(log_lo, log_hi))
            s[int(rng.integers(n)), j] = r
        else:
            v = np.exp(rng.uniform(log_lo, log_hi, size=n)) * rng.uniform(0.0, 1.0, size=n)
            m = sup_norm(v)
            if m > 0:
                target = np.exp(rng.uniform(log_lo, log_hi))
                v = v * (target / m)
            s[:, j] = v


def _lemire(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``integers(n)`` on 32-bit halves ``x`` (Lemire): the values, and the halves it rejects."""
    scaled = x * np.uint64(n)
    return scaled >> np.uint64(32), (scaled & np.uint64(0xFFFFFFFF)) < (1 << 32) % n


def _rare_groups(rejected: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Groups off the common word layout: a rejected half draws another, a zero norm no target."""
    return rejected | ~(norms > 0)


def _draw_groups(rng: np.random.Generator, s: np.ndarray, k: int, log_lo: float, log_hi: float) -> None:
    """Columns ``k:`` of ``s`` as ``_draw_group`` fills them, decoded from the PCG64 words.

    A double is ``(w >> 11) * 2**-53`` of a word ``w``.  ``integers(n)`` takes a
    fresh word's low half and buffers its high half for the next draw (no draw
    when ``n == 1``).  So a group is a word, a word and a half-word draw, and
    ``2n + 1`` words.  A rare group is rewound to and drawn by ``_draw_group``.
    """
    bg = rng.bit_generator
    n = s.shape[0]
    span = log_hi - log_lo
    groups = (s.shape[1] - k) // 3  # a trailing part-group is drawn call by call
    g = 0
    while g < groups:
        state = bg.state
        m = min(max(1, _DRAW_CHUNK_ELEMENTS // (2 * n + 4)), groups - g)
        fresh = (np.arange(m + 1) + state["has_uint32"]) % 2 == 0 if n > 1 else np.zeros(m + 1, bool)
        starts = np.concatenate(([0], np.cumsum(2 * n + 3 + fresh[:m])))
        words = bg.random_raw(int(starts[-1]) + 3)  # the slack holds the half word after the chunk
        doubles = (words >> np.uint64(11)) * 2.0**-53
        halves = words[np.where(fresh, starts + 2, np.roll(starts + 2, 1))]
        x = np.where(fresh, halves & np.uint64(0xFFFFFFFF), halves >> np.uint64(32))
        if state["has_uint32"]:
            x[0] = state["uinteger"]
        rows, rejected = _lemire(x[:m], n)
        d = doubles[(starts[:m] + 2 + fresh[:m])[:, None] + np.arange(2 * n + 1)]
        v = np.exp(log_lo + span * d[:, :n]) * d[:, n : 2 * n]
        norms = v.max(axis=1)
        rare = np.flatnonzero(_rare_groups(rejected, norms))
        cut = int(rare[0]) if rare.size else m
        j0 = k + 3 * g
        s[:, j0 : j0 + 3 * cut : 3] = np.exp(log_lo + span * doubles[starts[:cut]])
        s[rows[:cut].astype(np.intp), np.arange(j0 + 1, j0 + 3 * cut, 3)] = np.exp(log_lo + span * doubles[starts[:cut] + 1])
        targets = np.exp(log_lo + span * d[:cut, 2 * n])
        s[:, j0 + 2 : j0 + 3 * cut : 3] = (v[:cut] * (targets / norms[:cut])[:, None]).T
        # the generator goes just after group g + cut, with the half word the next draw would take
        bg.state = state
        bg.advance(int(starts[cut]))
        bg.state = {**bg.state, "has_uint32": int(n > 1 and not fresh[cut]), "uinteger": int(x[cut])}
        g += cut
        if cut < m:
            _draw_group(rng, s, k + 3 * g, log_lo, log_hi)
            g += 1
    if (s.shape[1] - k) % 3:
        _draw_group(rng, s, k + 3 * groups, log_lo, log_hi)


# -- probes ----------------------------------------------------------------


def nji_probe(net: GainNetwork, rho: KFun | None = None, r_grid: Sequence[float] | None = None, *, _rays: _Rays | None = None) -> SgcVerdict:
    """Decide no-joint-increase, no ``s != 0`` with ``T(s) >= s``, on ``eps <= ||s|| <= R``,
    the bottom and the top of the grid.

    The descent ``s <- R * ones min T(s)`` from ``R * ones`` decreases and
    stays above every joint increase of norm at most ``R`` (``s <= s_k``
    gives ``s <= T(s) <= T(s_k)``).  So a descent that stops at ``s != 0``
    is one (``fail``), and a norm below ``eps`` rules them out of the
    annulus (``pass``).  It is ``check``'s batch column, passed as
    ``_rays``, or a batch of its own, capped at 256 steps like the table;
    a cap reached or a step that rises (T not monotone) is ``inconclusive``.
    """
    op, grid = as_operator(net, rho), _grid(r_grid, 8)
    r, eps = float(grid[-1]), float(grid[0])
    point, its, status, norms = (_rays or _ray_batch(op, (), 256, np.empty(0), 0, StopRule(), r)).top
    below, note = np.flatnonzero(norms[1 : its + 1] < eps), "decided with the floating-point operator, not with outward-rounded bounds of T"
    if isinstance(status, MonotoneStepError):
        verdict, note = "inconclusive", f"the descent rose at step {its}: T is not monotone in floating point here"
    elif status is StopReason.CONVERGED and np.any(point > 0):
        verdict = "fail"
    elif below.size:
        verdict, its = "pass", int(below[0]) + 1
    else:
        verdict, note = "inconclusive", f"the descent reached its cap of {its} steps above eps"
    counterexample = {"s": point.tolist(), "image": op(point).tolist()} if verdict == "fail" else None
    return SgcVerdict("nji", verdict, {"r": r, "eps": eps, "step": its, "norm": float(norms[its])}, counterexample, note=note)


def uniform_nji_probe(
    net: GainNetwork,
    r: float,
    eps: float,
    rho: KFun | None = None,
    sampler: SamplerConfig = SamplerConfig(),
) -> SgcVerdict:
    """Probe the uniform no-joint-increase condition at level ``(r, eps)``.

    For each sampled ``s`` in the norm-``r`` ball and each active entry,
    a node ``i`` with ``s_i >= eps``, some node within ``n`` hops upstream
    must carry value at least ``delta`` and strictly decay.  With
    ``M_0 = s * [T(s) < s]`` and ``M_n[i]`` the maximum of ``M_{n-1}`` over
    ``i`` and its in-neighbors, ``M_n[i]`` is the largest decaying value
    within ``n`` hops, so ``(n, delta)`` holds exactly when ``delta`` is at
    most the least ``M_n`` over the active entries: max and comparison
    round nothing, so this is exact in floats.  Each sample is its own
    column, and one without an active entry constrains nothing, so it is
    dropped.  The witness is the smallest depth ``n <= min(net.n, 8)``
    admitting a ``delta`` of the grid ``1, 1/2, ..., 2**-8``, with the
    largest such ``delta``; otherwise the counterexample is the first node
    with an active entry below ``2**-8`` at that depth, at its first sample.
    """
    if not 0 < eps <= r:
        raise ValueError("need 0 < eps <= r")
    op = as_operator(net, rho)
    deltas = [2.0**-k for k in range(0, 9)]
    n_max = min(net.n, 8)  # depth beyond 8 buys nothing on probe budgets
    s = cone_samples(net, sampler, rho, scale_cap=r)
    cols = np.flatnonzero(np.any(s >= eps, axis=0))
    t = op(s[:, cols])  # T acts on each column alone: only the columns read are applied
    nbrs = net.graph.in_neighbors
    deg = np.fromiter(map(len, nbrs), int, net.n)
    order = np.argsort(-deg, kind="stable")  # rows by in-degree: each slot updates a prefix, not a scatter
    row = np.argsort(order)  # the row of each node
    # slot k: the k-th in-neighbor of each node with more than k in-edges
    slots = [row[[nbrs[v][k] for v in order[: np.count_nonzero(deg > k)]]] for k in range(deg.max())]
    m = s[np.ix_(order, cols)]
    active = np.flatnonzero(m >= eps)  # the active entries, as indices into m.ravel()
    m = np.where(t[order] < m, m, 0.0)
    for n in range(1, n_max + 1):
        prev = m.copy()
        for js in slots:
            np.maximum(m[: len(js)], prev[js], out=m[: len(js)])
        least = m.ravel().take(active).min(initial=np.inf)
        if least >= deltas[-1]:
            return SgcVerdict(
                condition="uniform_nji",
                status="evidence",
                witness={"n": n, "delta": next(d for d in deltas if d <= least), "r": r, "eps": eps},
                samples=s.shape[1],
                budget=sampler.budget,
            )
    i, k = divmod(int(np.argmax((s[:, cols] >= eps) & (m[row] < deltas[-1]))), len(cols))
    return SgcVerdict(
        condition="uniform_nji",
        status="fail",
        counterexample={"s": s[:, cols[k]].tolist(), "image": t[:, k].tolist(), "i": i, "n": n_max, "delta": deltas[-1]},
        samples=s.shape[1],
        budget=sampler.budget,
    )


def _check_rays(net: GainNetwork, rho: KFun | None, r_grid: Sequence[float] | None, n_max: int, descent: bool = False) -> _Rays:
    """``check``'s one ray batch: ``stability_battery``'s table on its grid,
    the least fixed points on the union of its grid and ``max_mbi_probe``'s,
    to ``StopRule()``'s cap, and with ``descent`` ``nji_probe``'s descent from
    the grid's top; each reads it as ``_rays``."""
    table, stop = _grid(r_grid, 8), StopRule()
    return _ray_batch(as_operator(net, rho), table, n_max, np.union1d(table, _grid(r_grid, 10)), stop.max_iter, stop, table[-1] if descent else None)


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
        _rays = _ray_batch(as_operator(net, rho), (), 0, np.unique(r_grid), stop.max_iter, stop)
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


def spectral_condition(net: GainNetwork, n_max: int = 64, rho: KFun | None = None) -> SgcVerdict:
    """Power-iteration test ``||T^n(ones)|| < 1`` for homogeneous operators.

    The operator is homogeneous by construction (linear gains with max/sum
    aggregation, and a linear enlargement if given); the test passes
    when the threshold is reached, and otherwise it is inconclusive, with
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
