"""Finite model of the nonnegative sup-norm cone.

Cone vectors are plain ``float64`` numpy arrays over a fixed node index
set; all functions below validate shapes and nonnegativity where it
matters and otherwise stay out of the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kfun import KFun

__all__ = [
    "Rel",
    "OrderRelation",
    "CoercivityResult",
    "ones",
    "unit",
    "oplus",
    "sup_norm",
    "order_compare",
    "leq",
    "coercivity_check",
]


class Rel(Enum):
    EQUAL = "equal"
    LT = "lt"  # <= and not equal
    LL = "ll"  # uniformly below: positive entrywise gap
    GT = "gt"
    GG = "gg"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderRelation:
    """Strongest order relation between two cone vectors.

    ``margin`` is the uniform entrywise gap and is only meaningful for
    ``LL`` / ``GG``; callers impose their own tolerance on it.
    """

    kind: Rel
    margin: float = 0.0

    @property
    def leq(self) -> bool:
        return self.kind in (Rel.EQUAL, Rel.LT, Rel.LL)

    @property
    def geq(self) -> bool:
        return self.kind in (Rel.EQUAL, Rel.GT, Rel.GG)


@dataclass(frozen=True)
class CoercivityResult:
    ok: bool
    index: int | None = None  # offending vector position
    slack: float = np.inf  # min_i s_i - phi(||s||), worst case


def ones(n: int) -> np.ndarray:
    return np.ones(n)


def unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _check_same(s: np.ndarray, t: np.ndarray) -> None:
    if s.shape != t.shape:
        raise ValueError(f"index set mismatch: {s.shape} vs {t.shape}")


def oplus(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Componentwise maximum."""
    _check_same(s, t)
    return np.maximum(s, t)


def sup_norm(s: np.ndarray) -> float:
    return float(np.abs(s).max()) if s.size else 0.0


def order_compare(s: np.ndarray, t: np.ndarray) -> OrderRelation:
    """Strongest cone-order relation between ``s`` and ``t``.

    Comparisons are exact floating comparisons; the uniform-gap margin is
    returned so callers can apply their own tolerances.
    """
    _check_same(s, t)
    d = t - s
    if np.all(d == 0):
        return OrderRelation(Rel.EQUAL)
    if np.all(d >= 0):
        gap = float(np.min(d))
        return OrderRelation(Rel.LL, gap) if gap > 0 else OrderRelation(Rel.LT)
    if np.all(d <= 0):
        gap = float(np.min(-d))
        return OrderRelation(Rel.GG, gap) if gap > 0 else OrderRelation(Rel.GT)
    return OrderRelation(Rel.INCOMPARABLE)


def leq(s: np.ndarray, t: np.ndarray, tol: float = 0.0) -> bool:
    _check_same(s, t)
    return bool(np.all(t - s >= -tol))


def coercivity_check(vectors, phi: KFun) -> CoercivityResult:
    """Check ``min_i s_i >= phi(||s||)`` for every listed vector.

    Returns the first violation (vector position and its slack) or a pass
    with the worst slack observed.
    """
    worst = np.inf
    for k, s in enumerate(vectors):
        s = np.asarray(s, dtype=float)
        slack = float(np.min(s) - phi(sup_norm(s)))
        if slack < 0:
            return CoercivityResult(False, k, slack)
        worst = min(worst, slack)
    return CoercivityResult(True, None, worst)
