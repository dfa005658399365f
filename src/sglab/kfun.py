"""Strictly increasing piecewise-linear comparison functions.

Every comparison function the library touches (interconnection gains,
strictness margins, coercivity bounds, stability envelopes) lives in one
closed representation: continuous piecewise-linear bijections of the
nonnegative half-line, pinned at the origin, with strictly positive
segment slopes and a strictly positive final slope.  This class is closed
under inversion, composition, pointwise sums, positive scaling and
pointwise minima, so the whole calculus stays exact up to floating-point
rounding and no symbolic machinery is needed.

Evaluation is clamped segment by segment, which makes it *exactly*
monotone in floating point: ``r1 <= r2`` implies ``f(r1) <= f(r2)`` with
no rounding exceptions.  Several operator identities downstream rely on
this.  ``KFun.__call__`` checks its argument (``r >= 0``); gain operators
validate their input once per application and evaluate their
enlargements through the unchecked ``KFun._eval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "KFun",
    "KFunError",
    "MonotoneSamples",
    "Side",
    "SLOPE_FLOOR",
    "identity",
    "linear",
    "power_kfun",
    "id_plus",
    "sub_from_id",
    "factor_id_plus",
    "pointwise_min",
    "pointwise_max",
    "compose_power",
    "envelope",
]

SLOPE_FLOOR = 1e-9
_MERGE_EPS = 1e-14


class KFunError(ValueError):
    """A construction left the strictly increasing piecewise-linear class."""


class Side(Enum):
    BELOW = "below"
    ABOVE = "above"


@dataclass(frozen=True)
class KFun:
    """Piecewise-linear class-K-infinity function.

    Parameters
    ----------
    xs, ys : array_like
        Breakpoint coordinates.  ``(xs[0], ys[0])`` must be ``(0, 0)`` and
        both sequences must be strictly increasing.
    final_slope : float
        Slope extending the graph beyond the last breakpoint; must be
        positive so the function is unbounded.
    """

    xs: np.ndarray
    ys: np.ndarray
    final_slope: float

    def __post_init__(self):
        xs = np.atleast_1d(np.asarray(self.xs, dtype=float)).copy()
        ys = np.atleast_1d(np.asarray(self.ys, dtype=float)).copy()
        fs = float(self.final_slope)
        if xs.ndim != 1 or ys.ndim != 1 or len(xs) != len(ys) or len(xs) == 0:
            raise KFunError("breakpoints must be two equal-length 1-d sequences")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all() and np.isfinite(fs)):
            raise KFunError("breakpoints and final slope must be finite")
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise KFunError("first breakpoint must be (0, 0)")
        if len(xs) > 1 and (np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0)):
            raise KFunError("breakpoints must be strictly increasing in x and y")
        if fs <= 0.0:
            raise KFunError("final slope must be positive")
        seg = np.diff(ys) / np.diff(xs) if len(xs) > 1 else np.empty(0)
        out_slopes = np.append(seg, fs)
        # each segment is capped at its right endpoint's value, so rounding can
        # never produce a local decrease across a breakpoint; the last is uncapped
        caps = np.append(ys[1:], np.inf)
        for arr in (xs, ys, out_slopes, caps):
            arr.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "final_slope", fs)
        object.__setattr__(self, "_out_slopes", out_slopes)
        object.__setattr__(self, "_caps", caps)

    # -- evaluation ----------------------------------------------------

    def __call__(self, r):
        """Evaluate at ``r`` (scalar or array), exactly monotone in floats.

        This is the checked entry point: a negative or NaN ``r`` raises ``ValueError``.
        """
        arr = np.asarray(r, dtype=float)
        if not (arr >= 0).all():  # NaN fails this test too
            raise ValueError("comparison functions are defined for r >= 0 only")
        out = self._eval(arr)
        if np.ndim(r) == 0:
            return float(out)
        return out

    def _eval(self, arr: np.ndarray) -> np.ndarray:
        """Unchecked evaluation of a float array ``arr >= 0``, for callers
        whose input is already validated (``GainOperator``'s wrapper chain)."""
        # xs[0] = 0 <= r, so idx lies in [0, len(xs) - 1]
        idx = self.xs.searchsorted(arr, "right") - 1
        return np.minimum(self.ys[idx] + self._out_slopes[idx] * (arr - self.xs[idx]), self._caps[idx])

    # -- algebra -------------------------------------------------------

    def inverse(self) -> "KFun":
        """Exact inverse, obtained by swapping breakpoint coordinates."""
        return KFun(self.ys, self.xs, 1.0 / self.final_slope)

    def compose(self, inner: "KFun") -> "KFun":
        """Exact representation of ``self o inner``.

        The knot set is the union of ``inner``'s knots with the
        ``inner``-preimages of ``self``'s knots; between those points both
        factors are linear, so the composite is too.
        """
        cuts = inner.inverse()(self.xs[1:]) if len(self.xs) > 1 else np.empty(0)
        xs = _merge_knots(inner.xs, cuts)
        ys = self(inner(xs))
        return _build_strict(xs, ys, self.final_slope * inner.final_slope)

    def __add__(self, other: "KFun") -> "KFun":
        xs = _merge_knots(self.xs, other.xs)
        return _build_strict(xs, self(xs) + other(xs), self.final_slope + other.final_slope)

    def __mul__(self, k) -> "KFun":
        k = float(k)
        if k <= 0:
            raise KFunError("scaling factor must be positive")
        return KFun(self.xs, k * self.ys, k * self.final_slope)

    __rmul__ = __mul__

    # -- queries -------------------------------------------------------

    @property
    def max_slope(self) -> float:
        return float(np.max(self._out_slopes))

    @property
    def is_linear(self) -> bool:
        return len(self.xs) == 1 or bool(np.allclose(self._out_slopes, self.final_slope, rtol=0, atol=0))


def identity() -> KFun:
    return KFun(np.zeros(1), np.zeros(1), 1.0)


def linear(k: float) -> KFun:
    return KFun(np.zeros(1), np.zeros(1), float(k))


def power_kfun(c: float, p: float, lo: float = 1e-4, hi: float = 1e4, n: int = 64):
    """Discretize ``c * r**p`` to a PL function on a log-spaced grid.

    Returns the function together with the worst relative midpoint error of
    the discretization, so callers can report the parsing loss.
    """
    if c <= 0 or p <= 0 or not (0 < lo < hi):
        raise KFunError("power gains need c > 0, p > 0 and 0 < lo < hi")
    xs = np.concatenate(([0.0], np.geomspace(lo, hi, n)))
    ys = np.concatenate(([0.0], c * np.geomspace(lo, hi, n) ** p))
    f = KFun(xs, ys, (ys[-1] - ys[-2]) / (xs[-1] - xs[-2]))
    mids = np.sqrt(xs[1:-1] * xs[2:])
    err = float(np.max(np.abs(f(mids) - c * mids**p) / (c * mids**p))) if len(mids) else 0.0
    return f, err


def id_plus(rho: KFun) -> KFun:
    """The enlargement ``id + rho``."""
    return identity() + rho


def sub_from_id(rho: KFun) -> KFun:
    """The function ``eta`` with ``(id + rho)^(-1) = id - eta``.

    ``eta`` is again strictly increasing because ``id + rho`` has slopes
    above one everywhere.  Raises :class:`KFunError` if rounding degrades
    the reconstruction below the class invariants.
    """
    q = id_plus(rho).inverse()
    try:
        return _build_strict(q.xs, q.xs - q.ys, 1.0 - q.final_slope)
    except KFunError as exc:
        raise KFunError(f"id - (id + rho)^(-1) degenerated numerically: {exc}") from exc


def factor_id_plus(rho: KFun) -> tuple[KFun, KFun]:
    """Split ``id + rho`` as ``(id + rho1) o (id + rho2)`` with ``rho2 = rho/2``.

    The halving choice is the simplest member of the admissible family and
    keeps everything piecewise linear.  Raises :class:`KFunError` when the
    reconstructed outer factor is not strictly increasing within rounding.
    """
    rho2 = 0.5 * rho
    comp = id_plus(rho).compose(id_plus(rho2).inverse())
    try:
        rho1 = _build_strict(comp.xs, comp.ys - comp.xs, comp.final_slope - 1.0)
    except KFunError as exc:
        raise KFunError(f"outer factor degenerated numerically: {exc}") from exc
    return rho1, rho2


def pointwise_min(funcs: Sequence[KFun]) -> KFun:
    """Pointwise minimum of finitely many instances (again in the class)."""
    if not funcs:
        raise KFunError("pointwise_min needs at least one function")
    h = funcs[0]
    for f in funcs[1:]:
        h = _minmax2(h, f, np.minimum)
    return h


def pointwise_max(funcs: Sequence[KFun]) -> KFun:
    """Pointwise maximum of finitely many instances."""
    if not funcs:
        raise KFunError("pointwise_max needs at least one function")
    h = funcs[0]
    for f in funcs[1:]:
        h = _minmax2(h, f, np.maximum)
    return h


def compose_power(f: KFun, n: int) -> KFun:
    """n-fold composition ``f o f o ... o f`` (n >= 0; n = 0 gives id)."""
    if n < 0:
        raise KFunError("composition power must be nonnegative")
    out = identity()
    for _ in range(n):
        out = f.compose(out)
    return out


# -- envelopes ----------------------------------------------------------


@dataclass(frozen=True)
class MonotoneSamples:
    """Sampled graph of a non-decreasing function through the origin."""

    rs: np.ndarray
    zs: np.ndarray

    def __post_init__(self):
        rs = np.atleast_1d(np.asarray(self.rs, dtype=float))
        zs = np.atleast_1d(np.asarray(self.zs, dtype=float))
        if len(rs) != len(zs) or len(rs) < 2:
            raise KFunError("need at least two (r, z) samples")
        if rs[0] != 0.0 or zs[0] != 0.0:
            raise KFunError("first sample must be (0, 0)")
        if np.any(np.diff(rs) <= 0):
            raise KFunError("sample abscissae must be strictly increasing")
        if np.any(np.diff(zs) < 0):
            raise KFunError("sample values must be non-decreasing")
        rs.flags.writeable = False
        zs.flags.writeable = False
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "zs", zs)


def envelope(samples: MonotoneSamples, side: Side) -> KFun:
    """Strictly increasing PL bound through monotone samples.

    ``Side.BELOW`` returns a minorant (``f(r_k) <= z_k`` at every sample),
    ``Side.ABOVE`` a majorant.  Strict increase is enforced with the slope
    floor ``SLOPE_FLOOR`` (1e-9); flat data is tilted by at most
    ``SLOPE_FLOOR * range``.  A below-envelope does not exist when some
    sampled value vanishes at ``r > 0``.
    """
    rs, zs = samples.rs, samples.zs
    ys = zs.astype(float).copy()
    if side is Side.BELOW:
        if np.any(zs[1:] <= 0.0):
            raise KFunError("no class-K-infinity minorant: sampled value is 0 at some r > 0")
        for k in range(len(ys) - 2, 0, -1):
            cap = ys[k + 1] - SLOPE_FLOOR * (rs[k + 1] - rs[k])
            ys[k] = min(ys[k], cap)
        if ys[1] <= 0.0:
            raise KFunError("no class-K-infinity minorant: slope floor exhausts the data")
    elif side is Side.ABOVE:
        for k in range(1, len(ys)):
            ys[k] = max(ys[k], ys[k - 1] + SLOPE_FLOOR * (rs[k] - rs[k - 1]))
    else:  # pragma: no cover
        raise KFunError(f"unknown side {side!r}")
    fs = max((ys[-1] - ys[-2]) / (rs[-1] - rs[-2]), SLOPE_FLOOR)
    return KFun(rs, ys, fs)


# -- internals ----------------------------------------------------------


def _merge_knots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    xs = np.unique(np.concatenate([np.atleast_1d(a), np.atleast_1d(b)]))
    xs = xs[xs >= 0.0]
    if len(xs) == 0 or xs[0] != 0.0:
        xs = np.concatenate(([0.0], xs))
    # collapse knots separated only by rounding noise
    keep = np.ones(len(xs), dtype=bool)
    last = xs[0]
    for k in range(1, len(xs)):
        if xs[k] - last <= _MERGE_EPS * max(1.0, xs[k]):
            keep[k] = False
        else:
            last = xs[k]
    return xs[keep]


def _build_strict(xs: np.ndarray, ys: np.ndarray, final_slope: float) -> KFun:
    """Build a KFun, dropping knots whose ordinates tie after rounding."""
    keep = [0]
    for k in range(1, len(xs)):
        if ys[k] > ys[keep[-1]] and xs[k] > xs[keep[-1]]:
            keep.append(k)
    xs, ys = xs[keep], ys[keep]
    return KFun(xs, ys, final_slope)


def _minmax2(a: KFun, b: KFun, combine) -> KFun:
    xs = _merge_knots(a.xs, b.xs)
    va, vb = a(xs), b(xs)
    cross = []
    for k in range(len(xs) - 1):
        d0, d1 = va[k] - vb[k], va[k + 1] - vb[k + 1]
        if d0 * d1 < 0.0:
            t = d0 / (d0 - d1)
            cross.append(xs[k] + t * (xs[k + 1] - xs[k]))
    d_last = va[-1] - vb[-1]
    ds = a._out_slopes[-1] - b._out_slopes[-1]
    if ds != 0.0:
        t = -d_last / ds
        if t > 0.0:
            cross.append(xs[-1] + t)
    if cross:
        xs = _merge_knots(xs, np.asarray(cross))
    ys = combine(a(xs), b(xs))
    probe = 2.0 * xs[-1] + 1.0
    pa, pb = a(probe), b(probe)
    if pa == pb:
        fs = min(a.final_slope, b.final_slope) if combine is np.minimum else max(a.final_slope, b.final_slope)
    elif combine(pa, pb) == pa:
        fs = a.final_slope
    else:
        fs = b.final_slope
    return _build_strict(xs, ys, fs)
