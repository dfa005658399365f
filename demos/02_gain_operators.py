"""Gain operators and their monotone dynamics on a two-node loop.

Two subsystems feed each other through gain one-half with max
aggregation.  The induced operator contracts, so trajectories die
geometrically, the augmented iteration settles on decay points, and the
projected operators have clean minimal/maximal fixed points.
"""

import numpy as np

from sglab import (
    MAX,
    StopRule,
    as_operator,
    build_network,
    cofinality_witness,
    decay_margin,
    iterate,
    linear,
    max_fixed_point,
    min_fixed_point,
    stability_battery,
)

g = linear(0.5)
net = build_network(2, [(1, 0, g), (0, 1, g)], MAX)
op = as_operator(net)

print("== one application ==")
print("T(1,1) =", op(np.ones(2)))
print("enlarged by 10%:", op.enlarge_left(linear(0.1))(np.ones(2)))
print("augmented keeps the argument:", op.augmented()(np.ones(2)))

print("\n== trajectories ==")
traj = iterate(net, np.ones(2))
print("norms:", [f"{np.max(s):.4f}" for s in traj.states[:6]], "...", traj.stop_reason.value)

print("\n== decay set membership ==")
print("margin at (1,1):", decay_margin(net, np.ones(2)))
print("margin at (1,0.4):", decay_margin(net, np.array([1.0, 0.4])), " (second node violates)")

print("\n== projected fixed points ==")
lo = min_fixed_point(net, np.array([4.0, 0.0]))
print("minimal fixed point above (4,0):", lo.point, f"after {lo.iterations} steps")
hi = max_fixed_point(net, np.ones(2), r_cap=4.0)
print("maximal fixed point above (1,1):", hi.point, " (unique here)")

print("\n== decay point above an arbitrary vector ==")
cw = cofinality_witness(net, np.array([4.0, 0.0]), StopRule())
print("witness:", cw.point, "status:", cw.status.value)

print("\n== stability evidence on rays ==")
rep = stability_battery(net, r_grid=[0.5, 1.0, 2.0], n_max=40)
print("beta(1, n) for n=0..5:", rep.kl_table[1][:6])
print("uniform stability:", rep.ugs_evidence, "| attraction:", rep.gatt_evidence, "| combined:", rep.ugas_evidence)
