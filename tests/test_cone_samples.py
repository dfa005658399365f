"""The seeded draw contract that outlived the cone sampler.

No sglab verdict samples the cone any more, but seeded test data still
come from numpy's bounded integers: the contract sweep's networks
(``default_rng(11)`` through ``conftest.random_network``, whose draw
numbers tests and records name) and perfbench's generated workloads.
``Generator.integers(n)`` is Lemire's decode of the PCG64 stream's
32-bit halves; a numpy that decodes them otherwise redraws those
networks, and this test says so before the recorded draws drift.
"""

import numpy as np
import pytest


def lemire(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``integers(n)`` on 32-bit halves ``x`` (Lemire): the values, and the halves it rejects."""
    scaled = x * np.uint64(n)
    return scaled >> np.uint64(32), (scaled & np.uint64(0xFFFFFFFF)) < (1 << 32) % n


@pytest.mark.parametrize("n", [3, 6, 3 * 2**30, 2**31 + 1, 2**32 - 1])
def test_lemire_decode_matches_integers(n):
    """Halves taken low then high from each word, a rejected half replaced by
    the next one: the same values as ``Generator.integers(n)``."""
    seed = [5, n % 1000]
    words = np.random.default_rng(seed).bit_generator.random_raw(4000)
    halves = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=1).ravel()
    rows, rejected = lemire(halves, n)
    rng = np.random.default_rng(seed)
    got, at = [], 0
    while len(got) < 3000:
        while rejected[at]:
            at += 1
        got.append(int(rows[at]))
        at += 1
    assert got == [int(rng.integers(n)) for _ in range(3000)]
    if n in (3 * 2**30, 2**31 + 1):  # 2**32 mod n is 2**30 and 2**31 - 1: rejections are frequent
        assert rejected.any()
