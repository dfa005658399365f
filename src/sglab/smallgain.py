"""Small-gain condition probes and class-specific decidable checks.

Quantified-over-the-cone conditions (no-joint-increase, its uniform
variant, maximum bounded invertibility) can only be falsified by
sampling, so their verdicts are ``fail`` with a machine-checkable
counterexample or ``evidence`` with the sampling budget.  ``pass`` is
reserved for the decidable subclasses: cycle-gain checks on a declared
interval for max aggregation, and the power-iteration spectral test for
homogeneous operators.

Samplers draw a deterministic prefix (rays, unit bumps, cycle profiles)
before any seeded randomness, so canonical counterexamples are found
regardless of seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import networkx as nx
import numpy as np

from .cone import ones, sup_norm
# min_fixed_point stays bound here: perfbench/spans.py traces it under this module's name
from .dynamics import StopReason, StopRule, _ray_fixed_points, as_operator, cofinality_witness, min_fixed_point  # noqa: F401
from .kfun import KFun, MonotoneSamples, Side, compose_power, envelope, id_plus, identity
from .network import GainNetwork, graph_diameter, is_strongly_connected, neighborhood

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
    """Outcome of one condition check.

    ``fail`` always carries a counterexample payload that reproduces the
    violation through a single operator application; ``evidence`` records
    the exhausted sampling budget.
    """

    condition: str
    status: str  # "pass" | "fail" | "evidence"
    witness: dict | None = None
    counterexample: dict | None = None
    samples: int = 0
    budget: int = 0
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "status": self.status,
            "witness": self.witness,
            "counterexample": self.counterexample,
            "samples": self.samples,
            "budget": self.budget,
            "note": self.note,
        }


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    budget: int = 10_000
    norm_range: tuple[float, float] = (1e-3, 8.0)

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"the sampling budget must be at least 1, got {self.budget}")


# -- sampling --------------------------------------------------------------


def _cycles(net: GainNetwork, limit: int):
    """Up to ``limit`` simple cycles; returns (cycles, truncated flag)."""
    gen = nx.simple_cycles(net.graph.to_networkx())
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


def cone_samples(net: GainNetwork, cfg: SamplerConfig, rho: KFun | None = None, scale_cap: float | None = None) -> np.ndarray:
    """Sample matrix (columns are cone vectors), deterministic prefix first.

    ``scale_cap`` restricts all columns to the closed norm ball of that
    radius (used by the uniform probe).
    """
    n = net.n
    lo, hi = cfg.norm_range
    if scale_cap is not None:
        hi = min(hi, scale_cap)
        lo = min(lo, hi / 1024.0)
    log_lo, log_hi = np.log(lo), np.log(hi)
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
    rng = np.random.default_rng([cfg.seed, 0xC0DE])
    for j in range(k, cfg.budget):
        mode = (j - k) % 3
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
    if scale_cap is not None:
        norms = np.max(s, axis=0)
        over = norms > scale_cap
        if np.any(over):
            s[:, over] *= scale_cap / norms[over]
    return s


# -- probes ----------------------------------------------------------------


def nji_probe(net: GainNetwork, rho: KFun | None = None, sampler: SamplerConfig = SamplerConfig()) -> SgcVerdict:
    """Search for a joint increase: some ``s > 0`` with ``T(s) >= s`` entrywise."""
    op = as_operator(net)
    if rho is not None:
        op = op.enlarge_left(rho)
    s = cone_samples(net, sampler, rho)
    t = op(s)
    nonzero = np.any(s > 0, axis=0)
    hit = np.all(t >= s, axis=0) & nonzero
    if np.any(hit):
        k = int(np.argmax(hit))
        return SgcVerdict(
            condition="nji",
            status="fail",
            counterexample={"s": s[:, k].tolist(), "image": t[:, k].tolist()},
            samples=k + 1,
            budget=sampler.budget,
        )
    return SgcVerdict(condition="nji", status="evidence", samples=s.shape[1], budget=sampler.budget)


def uniform_nji_probe(
    net: GainNetwork,
    r: float,
    eps: float,
    rho: KFun | None = None,
    n_max: int | None = None,
    delta_grid: Sequence[float] | None = None,
    sampler: SamplerConfig = SamplerConfig(),
) -> SgcVerdict:
    """Probe the uniform no-joint-increase condition at level ``(r, eps)``.

    For each sampled ``s`` in the norm-``r`` ball and each node ``i`` with
    ``s_i >= eps``, some node within graph distance ``n`` must carry value
    at least ``delta`` and strictly decay.  The witness is the smallest
    depth ``n`` admitting a grid ``delta``, with the largest such
    ``delta``; a sample violating every grid pair is a counterexample.
    """
    if not 0 < eps <= r:
        raise ValueError("need 0 < eps <= r")
    op = as_operator(net)
    if rho is not None:
        op = op.enlarge_left(rho)
    if delta_grid is None:
        delta_grid = [2.0**-k for k in range(0, 9)]
    deltas = sorted(set(float(d) for d in delta_grid), reverse=True)
    if n_max is None:
        n_max = min(max(net.n, 1), 8)  # depth beyond 8 buys nothing on probe budgets
    s = cone_samples(net, sampler, rho, scale_cap=r)
    t = op(s)
    decays = t < s
    reach: dict[tuple[int, int], np.ndarray] = {}
    violation = None
    for n in range(1, n_max + 1):
        for i in range(net.n):
            reach[(i, n)] = np.fromiter(sorted(neighborhood(net.graph, i, n, "in")), dtype=int)
        for delta in deltas:
            ok = True
            for i in range(net.n):
                active = s[i] >= eps
                if not np.any(active):
                    continue
                js = reach[(i, n)]
                exists = np.any((s[js] >= delta) & decays[js], axis=0)
                bad = active & ~exists
                if np.any(bad):
                    ok = False
                    if n == n_max and delta == deltas[-1]:
                        k = int(np.argmax(bad))
                        violation = {
                            "s": s[:, k].tolist(),
                            "image": t[:, k].tolist(),
                            "i": i,
                            "n": n,
                            "delta": delta,
                        }
                    break
            if ok:
                return SgcVerdict(
                    condition="uniform_nji",
                    status="evidence",
                    witness={"n": n, "delta": delta, "r": r, "eps": eps},
                    samples=s.shape[1],
                    budget=sampler.budget,
                )
    return SgcVerdict(
        condition="uniform_nji",
        status="fail",
        counterexample=violation,
        samples=s.shape[1],
        budget=sampler.budget,
    )


def max_mbi_probe(
    net: GainNetwork,
    rho: KFun | None = None,
    r_grid: Sequence[float] | None = None,
    stop: StopRule = StopRule(),
) -> SgcVerdict:
    """Bounded-invertibility probe along the ray directions.

    Ray floors suffice for this property, so the probe grows the minimal
    fixed point above each grid ray; divergence is a counterexample, and
    otherwise the norms are wrapped in an increasing PL majorant (the
    invertibility bound fit).
    """
    op = as_operator(net)
    if rho is not None:
        op = op.enlarge_left(rho)
    if r_grid is None:
        r_grid = [2.0**k for k in range(-10, 11)]
    r_grid = sorted(float(r) for r in r_grid)
    pairs = [(0.0, 0.0)]
    for r, res in zip(r_grid, _ray_fixed_points(op, r_grid, stop)):
        if res.status is StopReason.DIVERGED:
            return SgcVerdict(
                condition="max_mbi",
                status="fail",
                counterexample={"r": r, "norm_reached": sup_norm(res.point), "iterations": res.iterations},
            )
        if res.status is StopReason.MAX_ITER:
            return SgcVerdict(
                condition="max_mbi",
                status="evidence",
                witness={"inconclusive": True, "r": r, "iterations": res.iterations},
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
    cycle_budget: int = 10_000,
) -> SgcVerdict:
    """Decidable small-gain check for max aggregation: every simple cycle's
    chained (enlarged) gain must stay strictly below the identity.

    The composed cycle map is PL, so checking its breakpoints plus the
    grid end decides the condition exactly on the covered interval.
    """
    if net.uniform_maf != "max":
        raise ValueError("cycle-gain check applies to max-aggregation networks only")
    if test_grid is None:
        test_grid = [2.0**k for k in range(-8, 9)]
    grid = np.asarray(sorted(float(g) for g in test_grid))
    r_top = float(grid[-1])
    cycles, truncated = _cycles(net, cycle_budget)
    checked = 0
    for cyc in cycles:
        f = identity()
        loop = list(cyc) + [cyc[0]]
        for a, b in zip(loop, loop[1:]):
            step = net.edge_gain[(a, b)]
            if rho is not None:
                step = id_plus(rho).compose(step)
            f = step.compose(f)
        checked += 1
        if f._out_slopes[0] >= 1.0:
            r_bad = min(f.xs[1] if len(f.xs) > 1 else r_top, r_top) / 2.0
            return SgcVerdict(
                condition="cycle_gain",
                status="fail",
                counterexample={"cycle": list(cyc), "r": float(r_bad), "value": float(f(r_bad))},
                samples=checked,
            )
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
            budget=cycle_budget,
        )
    return SgcVerdict(
        condition="cycle_gain",
        status="pass",
        witness={"cycles_checked": checked, "r_max": r_top},
        samples=checked,
    )


def spectral_condition(net: GainNetwork, n_max: int = 64, rho: KFun | None = None, seed: int = 0) -> SgcVerdict:
    """Power-iteration test ``||T^n(ones)|| < 1`` for homogeneous operators.

    Homogeneity is verified on random samples before iterating (linear
    gains with max/sum aggregation, and a linear enlargement if given);
    the test is decisive when the threshold is reached, otherwise the
    observed growth ratio is reported as inconclusive.
    """
    if net.uniform_maf not in ("max", "sum"):
        raise ValueError("spectral condition applies to pure max- or sum-aggregation networks")
    if not net.all_gains_linear:
        raise ValueError("spectral condition requires linear gains")
    if rho is not None and not rho.is_linear:
        raise ValueError("enlargement must be linear to preserve homogeneity")
    op = as_operator(net)
    if rho is not None:
        op = op.enlarge_left(rho)
    rng = np.random.default_rng([seed, 0x5BEC])
    for _ in range(100):
        s = rng.uniform(0.0, 2.0, size=net.n)
        a = float(rng.uniform(0.1, 10.0))
        lhs, rhs = op(a * s), a * op(s)
        if sup_norm(lhs - rhs) > 1e-10 * max(1.0, sup_norm(rhs)):
            raise ValueError("operator failed the homogeneity check")
    norms = [1.0]
    t = ones(net.n)
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
        status="fail",
        counterexample={"inconclusive": True, "growth_ratio": float(ratio), "norms_tail": norms[-8:]},
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


def decayset_coercivity(
    net: GainNetwork,
    n_diam: int | None = None,
    validate: bool = True,
    seed: int = 0,
    stop: StopRule = StopRule(),
) -> KFun:
    """Coercivity bound for the decay set of a strongly connected network.

    Every decay point dominates each of its components through gain
    chains of length at most the diameter, which yields the bound
    ``(xi o eta)^n``.  Sampled decay points (augmented-iteration limits)
    are checked against the bound when ``validate`` is set.
    """
    if not is_strongly_connected(net.graph):
        raise ValueError("coercivity of the decay set needs a strongly connected graph")
    diam = graph_diameter(net.graph)
    if n_diam is None:
        n_diam = diam
    if n_diam < diam:
        raise ValueError(f"n_diam={n_diam} is below the graph diameter {diam}")
    phi = compose_power(net.xi.compose(net.eta), n_diam)
    if validate and net.n > 0:
        from .cone import coercivity_check

        rng = np.random.default_rng([seed, 0xC0E])
        points = []
        starts = [ones(net.n)] + [rng.uniform(0.1, 2.0, size=net.n) for _ in range(8)]
        for s0 in starts:
            res = cofinality_witness(net, s0, stop)
            if res.status == "witness":
                points.append(res.point)
        result = coercivity_check(points, phi)
        if not result.ok:
            raise RuntimeError(
                f"sampled decay point violates the coercivity bound (slack {result.slack:.3e}); "
                "the network data contradicts the strong-connectivity hypotheses"
            )
    return phi
