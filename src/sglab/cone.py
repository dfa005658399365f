"""Finite model of the nonnegative sup-norm cone.

Cone vectors are plain ``float64`` numpy arrays over a fixed node index
set; the cone order is entrywise and its join is ``np.maximum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kfun import KFun

__all__ = [
    "CoercivityResult",
    "sup_norm",
    "coercivity_check",
]


@dataclass(frozen=True)
class CoercivityResult:
    ok: bool
    index: int | None = None  # offending vector position
    slack: float = np.inf  # min_i s_i - phi(||s||), worst case


def sup_norm(s: np.ndarray) -> float:
    return float(np.abs(s).max()) if s.size else 0.0


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
