"""The small-gain condition battery on a stable and an unstable loop.

No-joint-increase is decided by one clamped descent from the top of the
ray grid: a ``fail`` ships a replayable counterexample, and a ``pass``
holds on the annulus between the grid's ends.  The uniform variant is
probed by sampling, so its positive outcome is labelled ``evidence``.
The decidable class checks (cycle gains for max aggregation, the
spectral test for linear gains) earn a genuine ``pass``.
"""

import numpy as np

from sglab import (
    MAX,
    SamplerConfig,
    as_operator,
    build_network,
    cycle_gain_check,
    decayset_coercivity,
    delta_chain,
    linear,
    max_mbi_probe,
    nji_probe,
    spectral_condition,
    uniform_nji_probe,
)

stable = build_network(2, [(1, 0, linear(0.5)), (0, 1, linear(0.5))], MAX)
unstable = build_network(2, [(1, 0, linear(2.0)), (0, 1, linear(2.0))], MAX)
cfg = SamplerConfig(budget=2000)

print("== no-joint-increase descent ==")
good = nji_probe(stable)
print("stable  :", good.status, "on", good.witness["eps"], "<= ||s|| <=", good.witness["r"], "after", good.witness["step"], "steps")
bad = nji_probe(unstable)
print("unstable:", bad.status, "counterexample s =", bad.counterexample["s"])
s = np.asarray(bad.counterexample["s"])
print("replay: T(s) =", as_operator(unstable)(s), ">= s entrywise")

print("\n== uniform variant (level and depth witness) ==")
u = uniform_nji_probe(stable, r=1.0, eps=0.5, sampler=cfg)
print("stable witness:", u.witness)

print("\n== bounded invertibility along rays ==")
m = max_mbi_probe(stable, r_grid=[0.25, 1.0, 4.0])
print("stable:", m.status, "| bound fit slope:", m.witness["phi_fit"]["final_slope"])
print("unstable:", max_mbi_probe(unstable, r_grid=[1.0]).status)

print("\n== decidable class checks ==")
print("cycle gains with 10% margin:", cycle_gain_check(stable, rho=linear(0.1)).status)
spec = spectral_condition(stable)
print("spectral test:", spec.status, "at n =", spec.witness["n"])
grow = spectral_condition(unstable)
print("unstable spectral:", grow.status, "growth ratio", grow.witness["growth_ratio"])

print("\n== accuracy chains for multi-step decay ==")
chain = delta_chain(stable.lipschitz_modulus(), n=3, eps=0.5)
print("levels (eps_l, delta_l):", chain.levels)
print("head slack delta =", chain.delta)

print("\n== coercivity of the decay set ==")
phi = decayset_coercivity(stable)
print("every decay point s obeys min(s) >= phi(max(s)); phi(1) =", phi(1.0))
