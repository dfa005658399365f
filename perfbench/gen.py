"""Seeded generator of the benchmark's network files and command sets.

Every workload is a fixed list of items.  An item is one network file
plus the sglab commands run on it and their expected exit codes.  The
seed only changes gain values inside fixed bands, never the shape of a
network or its command set, so the work per round stays close to the
same from seed to seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ref import PL, RefNet, crossing_level

MARGIN = 1.1  # fleet and lattice: every slope (max) or slope row sum (sum) times this is below 1
RHO = "linear:0.05"
TARGET_RHO = "linear:0.001"
SIM_STEPS = 400
WORKLOADS = ("fleet", "lattice", "refute")


def linear(k: float) -> dict:
    return {"type": "linear", "k": float(k)}


def pl(rng, slope_band: tuple[float, float], n_seg: int = 3, x_scale: float = 1.0) -> dict:
    """PL gain with ``n_seg`` segments before the final one, slopes drawn from the band."""
    dx = rng.uniform(0.2, 2.0, size=n_seg) * x_scale
    slopes = rng.uniform(*slope_band, size=n_seg + 1)
    xs = np.concatenate(([0.0], np.cumsum(dx)))
    ys = np.concatenate(([0.0], np.cumsum(slopes[:-1] * dx)))
    return {"type": "pl", "points": [[float(x), float(y)] for x, y in zip(xs, ys)], "final_slope": float(slopes[-1])}


def power(rng, max_slope: float) -> dict:
    """Power gain ``c * r**p`` on ``[1e-2, 1e2]``, scaled so its largest slope is ``max_slope``."""
    desc = {"type": "power", "c": 1.0, "p": float(rng.uniform(0.9, 1.1)), "range": [1e-2, 1e2]}
    desc["c"] = max_slope / PL.from_descriptor(desc).max_slope
    return desc


def scaled(desc: dict, factor: float) -> dict:
    """The gain ``factor * g`` in the same descriptor type."""
    if desc["type"] == "linear":
        return linear(desc["k"] * factor)
    if desc["type"] == "power":
        return dict(desc, c=desc["c"] * factor)
    return dict(desc, points=[[x, y * factor] for x, y in desc["points"]], final_slope=desc["final_slope"] * factor)


def max_slope(desc: dict) -> float:
    return PL.from_descriptor(desc).max_slope


def edge_net(n: int, maf: str, edges: list[tuple[int, int, dict]]) -> dict:
    return {"nodes": n, "maf": maf, "edges": [{"from": j, "to": i, "gain": g} for j, i, g in edges]}


def in_ring(n: int, shifts: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges ``(i + d) % n -> i``: every node has one in-edge per shift."""
    return [((i + d) % n, i) for i in range(n) for d in shifts]


def sum_rows(rng, n: int, pairs, make_gain, row_band) -> list[tuple[int, int, dict]]:
    """Scale each node's in-gains so their max slopes sum to a draw from ``row_band``."""
    edges = []
    for i in range(n):
        ins = [(j, make_gain(k)) for k, (j, _) in enumerate(p for p in pairs if p[1] == i)]
        total = sum(max_slope(g) for _, g in ins)
        row = rng.uniform(*row_band)
        edges += [(j, i, scaled(g, row / total)) for j, g in ins]
    return edges


def item(name, net, check=None, paths=(), sims=(), expect=0) -> dict:
    return {"name": name, "net": net, "check": check, "paths": list(paths), "sims": list(sims), "expect": expect}


def simulate_set(start: str) -> list[list[str]]:
    """The four `simulate` variants from one start, up to SIM_STEPS steps."""
    common = ["--start", start, "--steps", str(SIM_STEPS)]
    return [
        ["--variant", "base"] + common,
        ["--variant", "rho", "--rho", RHO] + common,
        ["--variant", "hat"] + common,
        ["--variant", "proj:ray:0.5"] + common,
    ]


FLEET_PATHS = [
    ["--method", "minimal", "--rho", RHO],
    ["--method", "combined", "--rho", RHO, "--target-rho", TARGET_RHO, "--knots", "geometric:-4:4"],
    ["--method", "orbit", "--start", "ray:1", "--rho", RHO],
]


# Narrow bands: contraction rates set iteration counts, so a wide band would make the
# work per round, and with it every timing, depend on the seed.
def fleet(rng) -> list[dict]:
    band = (0.70, 0.76)  # below 1 / MARGIN
    row = (0.72, 0.78)
    nets = {
        "ring3-max-lin": edge_net(3, "max", [(j, i, linear(rng.uniform(*band))) for j, i in [(0, 1), (1, 2), (2, 0), (0, 2)]]),
        "sum4-lin": edge_net(4, "sum", sum_rows(rng, 4, in_ring(4, (1, 2)), lambda k: linear(rng.uniform(0.5, 1.0)), row)),
        "sum5-pl-power": edge_net(
            5,
            "sum",
            sum_rows(rng, 5, in_ring(5, (1, 3)), lambda k: pl(rng, (0.5, 1.0)) if k == 0 else power(rng, 1.0), row),
        ),
        "pair2-max-power": edge_net(2, "max", [(j, i, power(rng, rng.uniform(*band))) for j, i in [(0, 1), (1, 0)]]),
    }
    items = [item(k, v, check=[], paths=FLEET_PATHS, sims=simulate_set("ray:1e12")) for k, v in nets.items()]
    # Stable (rho(A) = 0.9995 < 1) but `check` exits 1 today; kept as a known fault.
    nearcrit = edge_net(3, "sum", [(0, 1, linear(0.9995)), (1, 0, linear(0.9995)), (0, 2, linear(1000.0))])
    items.append(item("nearcrit", nearcrit, check=[], sims=simulate_set("ray:1e12")))
    return items


def template(n: int, maf: str, offsets: list[tuple[int, dict]]) -> dict:
    return {"nodes": n, "maf": maf, "template": {"offsets": [{"offset": d, "gain": g} for d, g in offsets]}}


def lattice(rng) -> list[dict]:
    sweep = ["--N", "10", "--N", "100", "--N", "1000"]  # truncations of the same template
    k = rng.uniform(0.36, 0.40)  # 2k * MARGIN < 1
    g_lo = pl(rng, (0.5, 1.0))
    g_hi = pl(rng, (0.5, 1.0))
    row = rng.uniform(0.76, 0.80) / (max_slope(g_lo) + max_slope(g_hi))
    pl_offsets = [(-1, scaled(g_lo, row)), (1, scaled(g_hi, row))]
    m1 = pl(rng, (0.5, 0.8))
    m2 = linear(rng.uniform(0.66, 0.72))
    max_offsets = [(-1, m1), (1, m1), (-2, m2), (2, m2)]
    minimal = [["--method", "minimal"]]
    # path and simulate only where per-node work dominates; on small lattices they
    # would be millisecond commands
    return [
        item("sumchain-lin-48", template(48, "sum", [(-1, linear(k)), (1, linear(k))]), check=sweep),
        item("sumchain-pl-48", template(48, "sum", pl_offsets), check=sweep),
        item("maxlat-pl-lin-14", template(14, "max", max_offsets), check=[]),
        item("sumchain-lin-2000", template(2000, "sum", [(-1, linear(k)), (1, linear(k))]), paths=minimal),
        item("sumchain-pl-2000", template(2000, "sum", pl_offsets), paths=minimal),
        item("sumchain-lin-5000", template(5000, "sum", [(-1, linear(k)), (1, linear(k))]), sims=[["--start", "ray:1", "--steps", "50"]]),
    ]


def crossing_gain(rng, level: float, below: tuple[float, float], above: tuple[float, float], fan_in: int = 1) -> dict:
    """PL gain with slope ``a`` up to a knot and ``S`` after it.

    ``fan_in`` such gains summed (or one, for max) cross the identity at
    ``level`` times a draw from [1, 1.3]: ``fan_in * a < 1 < fan_in * S``.
    """
    a, s = rng.uniform(*below), rng.uniform(*above)
    x1 = level * rng.uniform(1.0, 1.3) * (fan_in * s - 1.0) / (fan_in * (s - a))
    return {"type": "pl", "points": [[0.0, 0.0], [float(x1), float(a * x1)]], "final_slope": float(s)}


def rho_scaled(rng, n: int, shifts: tuple[int, ...], rho: float) -> list[tuple[int, int, dict]]:
    """Linear sum network whose gain matrix has spectral radius exactly ``rho``."""
    pairs = in_ring(n, shifts)
    w = rng.uniform(0.3, 1.0, size=len(pairs))
    a = np.zeros((n, n))
    for (j, i), v in zip(pairs, w):
        a[i, j] = v
    w = w * rho / float(np.max(np.abs(np.linalg.eigvals(a))))
    return [(j, i, linear(v)) for (j, i), v in zip(pairs, w)]


def refute(rng) -> list[dict]:
    out = [
        item("glob-max3", edge_net(3, "max", [(j, i, pl(rng, (1.3, 1.5))) for j, i in [(0, 1), (1, 2), (2, 0), (1, 0)]])),
    ]
    # Crossing levels spread over the knot grid.  Each lies between two knots of the
    # default grid (powers of 2), in [2^(c - 0.4), 2^(c + 0.38)] once crossing_gain's
    # factor is applied, so the knots a minimal path converges at before its
    # divergent one, and so the work, do not move with the seed.
    lv = [2.0 ** rng.uniform(c - 0.4, c) for c in (-3.5, 0.5, 4.5)]
    out.append(item("cross-max3", edge_net(3, "max", [(j, i, crossing_gain(rng, lv[0], (0.5, 0.6), (1.8, 2.2))) for j, i in [(0, 1), (1, 2), (2, 0), (0, 2)]])))
    out.append(item("cross-max4", edge_net(4, "max", [(j, i, crossing_gain(rng, lv[1], (0.5, 0.6), (1.8, 2.2))) for j, i in in_ring(4, (1, 3))])))
    out.append(item("cross-sum4", edge_net(4, "sum", [(j, i, crossing_gain(rng, lv[2], (0.25, 0.3), (0.9, 1.1), fan_in=2)) for j, i in in_ring(4, (1, 2))])))
    # a fixed spectral radius keeps the iterations to divergence, and so the cost, the same for every seed
    out.append(item("rho-sum3", edge_net(3, "sum", rho_scaled(rng, 3, (1, 2), 1.06))))
    out.append(item("rho-sum4", edge_net(4, "sum", rho_scaled(rng, 4, (1, 3), 1.06))))
    for it in out:
        level = crossing_level(RefNet(it["net"]))
        # simulations start above the crossing level (ray:1 where there is none), so every one diverges
        it.update(check=[], sims=simulate_set(f"ray:{4 * level!r}" if level > 0 else "ray:1"), expect=1, crossing=level)
        it["paths"] = [["--method", "minimal"], ["--method", "orbit", "--start", f"ray:{level / 4 if level > 0 else 1.0!r}"]]
        if level == 0:
            # Where there is a crossing level, combined fails below it (seeds 1-20 all do);
            # that fault is counted once, on the fixed `crossfix` below, so that the
            # failed share cannot depend on the seed.
            it["paths"].insert(1, ["--method", "combined"])
    # Fixed, not seeded: gains 0.5 r up to 1/15, slope 2 after, so every node crosses
    # the identity at 0.1.  `path --method combined` fails at the first knot, 2^-10,
    # below that level (its maximal fixed point search starts from the ray at 2); it
    # runs in every round and counts as a failed operation.
    g = {"type": "pl", "points": [[0.0, 0.0], [1.0 / 15.0, 0.5 / 15.0]], "final_slope": 2.0}
    crossfix = edge_net(3, "max", [(j, i, g) for j, i in [(0, 1), (1, 2), (2, 0)]])
    out.append(item("crossfix-max3", crossfix, paths=[["--method", "minimal"], ["--method", "combined"]], expect=1))
    out[-1]["crossing"] = crossing_level(RefNet(crossfix))
    return out


def generate(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"fleet": fleet, "lattice": lattice, "refute": refute}[workload](rng)


def write(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write one ``<item>.json`` per item and return the items with their ``file``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    items = generate(workload, seed)
    for it in items:
        path = out_dir / f"{it['name']}.json"
        path.write_text(json.dumps(it["net"], sort_keys=True) + "\n")
        it["file"] = str(path)
    return items
