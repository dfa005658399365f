"""Reference evaluator for sglab network files, written without sglab.

Gains are read straight from the network file format and evaluated with
``np.interp``.  Past the last knot a gain continues at its final slope,
and inside a segment the value is capped at the segment's right knot.
sglab's gain evaluation uses the same cap, so on max networks this
evaluator agrees with sglab bit for bit, and on sum networks only the
order of summation differs.

Power gains ``c * r**p`` are read the way the file format defines them:
discretized onto 64 log-spaced knots over ``range`` (default
``[1e-4, 1e4]``), with the last segment's slope as final slope.
"""

from __future__ import annotations

import numpy as np

POWER_KNOTS = 64
SUM_RTOL = 1e-12  # relative tolerance for sums taken in another order


class PL:
    """A piecewise-linear gain: knots ``(xs, ys)`` from ``(0, 0)`` and a final slope."""

    def __init__(self, xs, ys, final_slope):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.final_slope = float(final_slope)

    @classmethod
    def from_descriptor(cls, desc: dict) -> "PL":
        kind = desc["type"]
        if kind == "linear":
            return cls([0.0], [0.0], desc["k"])
        if kind == "pl":
            pts = np.asarray(desc["points"], dtype=float)
            return cls(pts[:, 0], pts[:, 1], desc["final_slope"])
        if kind == "power":
            lo, hi = desc.get("range", (1e-4, 1e4))
            grid = np.geomspace(float(lo), float(hi), POWER_KNOTS)
            xs = np.concatenate(([0.0], grid))
            ys = np.concatenate(([0.0], float(desc["c"]) * grid ** float(desc["p"])))
            return cls(xs, ys, (ys[-1] - ys[-2]) / (xs[-1] - xs[-2]))
        raise ValueError(f"unknown gain type {kind!r}")

    @property
    def slopes(self) -> np.ndarray:
        """Segment slopes, final slope last."""
        return np.append(np.diff(self.ys) / np.diff(self.xs), self.final_slope)

    @property
    def max_slope(self) -> float:
        return float(np.max(self.slopes))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if len(self.xs) == 1:
            return self.final_slope * x
        y = np.interp(x, self.xs, self.ys)
        tail = x > self.xs[-1]
        y = np.where(tail, self.ys[-1] + self.final_slope * (x - self.xs[-1]), y)
        j = np.searchsorted(self.xs, x, side="right") - 1
        interior = j < len(self.xs) - 1
        cap = self.ys[np.minimum(j + 1, len(self.xs) - 1)]
        return np.where(interior, np.minimum(y, cap), y)


class RefNet:
    """A network file read into edge arrays grouped by gain."""

    def __init__(self, data: dict):
        self.n = int(data["nodes"])
        self.maf = data.get("maf", "max")
        if self.maf not in ("max", "sum"):
            raise ValueError(f"unsupported aggregation {self.maf!r}")
        edges: list[tuple[int, int, int]] = []  # (src, dst, gain index)
        self.gains: list[PL] = []
        keys: dict[str, int] = {}

        def gain_index(desc) -> int:
            key = repr(sorted(desc.items()))
            if key not in keys:
                keys[key] = len(self.gains)
                self.gains.append(PL.from_descriptor(desc))
            return keys[key]

        if "template" in data:
            offs = [(int(o["offset"]), gain_index(o["gain"])) for o in data["template"]["offsets"]]
            for i in range(self.n):
                for d, g in offs:
                    if 0 <= i + d < self.n:
                        edges.append((i + d, i, g))
        else:
            for e in data["edges"]:
                edges.append((int(e["from"]), int(e["to"]), gain_index(e["gain"])))
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        self.src, self.dst, self.gidx = arr[:, 0], arr[:, 1], arr[:, 2]

    def edge_list(self):
        return [(int(j), int(i), self.gains[g]) for j, i, g in zip(self.src, self.dst, self.gidx)]

    def apply(self, s: np.ndarray) -> np.ndarray:
        """The gain operator on a vector ``(n,)`` or a column batch ``(n, m)``.

        Sum aggregation sorts the edges by destination and adds with
        ``np.add.reduceat``, a different order from sglab's.
        """
        s = np.asarray(s, dtype=float)
        vals = np.empty((len(self.src),) + s.shape[1:])
        for g, gain in enumerate(self.gains):
            sel = self.gidx == g
            vals[sel] = gain(s[self.src[sel]])
        out = np.zeros_like(s)
        if len(vals) == 0:
            return out
        if self.maf == "max":
            np.maximum.at(out, self.dst, vals)
            return out
        order = np.argsort(self.dst, kind="stable")
        dst = self.dst[order]
        starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
        out[dst[starts]] = np.add.reduceat(vals[order], starts, axis=0)
        return out

    def variant(self, name: str, rho: PL | None = None, floor: np.ndarray | None = None):
        """The map a ``sglab simulate --variant`` run iterates."""
        if name == "base":
            return self.apply
        if name == "rho":
            return lambda s: (lambda t: t + rho(t))(self.apply(s))
        if name == "hat":
            return lambda s: np.maximum(s, self.apply(s))
        if name == "proj":
            return lambda s: np.maximum(floor if np.ndim(s) == 1 else floor[:, None], self.apply(s))
        raise ValueError(f"unknown variant {name!r}")

    # -- linear class --------------------------------------------------------

    def matrix(self) -> np.ndarray:
        """``A[i, j]``: the largest slope of the gain on edge ``j -> i``."""
        a = np.zeros((self.n, self.n))
        for j, i, g in self.edge_list():
            a[i, j] = g.max_slope
        return a


def spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a)))) if a.size else 0.0


def max_cycle_mean(a: np.ndarray) -> float:
    """Largest geometric cycle mean of a nonnegative matrix in max-times algebra.

    ``(A^k)_ii`` in max-times algebra is the heaviest closed walk of length
    ``k`` through ``i``; every simple cycle has length at most ``n``.
    """
    n = len(a)
    best = 0.0
    power = a.copy()
    for k in range(1, n + 1):
        best = max(best, float(np.max(np.diag(power))) ** (1.0 / k))
        power = np.max(power[:, :, None] * a[None, :, :], axis=1)
    return best


def crossing_level(net: RefNet) -> float:
    """Smallest ``x > 0`` with ``G_i(x) >= x`` for some node ``i``.

    ``G_i`` is the max (or sum) of node ``i``'s in-gains at the same
    argument.  Below this level every ball ``{||s|| <= r}`` is mapped into
    itself, so no fixed-point iteration from a ray below it can diverge.
    Returns ``inf`` when no node ever crosses the identity.
    """
    best = np.inf
    for i in range(net.n):
        gains = [g for j, k, g in net.edge_list() if k == i]
        if not gains:
            continue
        if net.maf == "max":
            best = min([best] + [_first_root([g]) for g in gains])
        else:
            best = min(best, _first_root(gains))
    return best


def _first_root(gains: list[PL]) -> float:
    """First positive root of ``sum(gains)(x) - x`` (a PL function)."""
    xs = np.unique(np.concatenate([g.xs for g in gains]))
    h = sum(g(xs) for g in gains) - xs
    fs = sum(g.final_slope for g in gains) - 1.0
    for k in range(1, len(xs)):
        if h[k] >= 0.0:
            return float(xs[k - 1] + (xs[k] - xs[k - 1]) * (-h[k - 1]) / (h[k] - h[k - 1])) if h[k - 1] < 0 else float(xs[k - 1])
    if fs > 0.0:
        return float(xs[-1] + (-h[-1]) / fs) if h[-1] < 0 else float(xs[-1])
    return np.inf

