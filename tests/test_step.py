"""One operator step against a frozen copy of the step as it was before the
checked entry points were split from the evaluation.

``ref_kfun_call``, ``ref_base_apply``, ``ref_eval`` and ``ref_call`` copy
``KFun.__call__``, ``dynamics._base_apply``, ``GainOperator._eval`` and
``GainOperator.__call__`` as they were when every wrapper evaluated its
``rho`` through the checked ``KFun.__call__`` and every ``_base_apply``
call sliced its columns chunk by chunk.  Today each application is
checked once, at ``GainOperator.__call__``, and a batch that fits in one
chunk skips the slicing; results must match the copies bit for bit.
"""

import numpy as np
import pytest

from sglab import MAX, SUM, KFun, MafSpec, as_operator, build_network, identity, linear, power_kfun
from sglab.dynamics import _CHUNK_ELEMENTS
from conftest import random_kfun, random_network

L2 = MafSpec("custom", func=lambda v: float(np.sqrt(np.sum(v * v))), modulus=linear(3.0), xi=identity())


def ref_kfun_call(f: KFun, r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("comparison functions are defined for r >= 0 only")
    idx = np.searchsorted(f.xs, arr, side="right") - 1
    out = np.minimum(f.ys[idx] + f._out_slopes[idx] * (arr - f.xs[idx]), f._caps[idx])
    if np.ndim(r) == 0:
        return float(out)
    return out


def ref_base_apply(net, s):
    src, dst, n_max, base, rank, grid, xs, ys, slopes, caps = net._knot_table
    base = base + 1  # the table held each edge's row offset itself
    s2 = s.reshape(len(s), -1)
    out = np.zeros(s2.shape)
    width = max(1, _CHUNK_ELEMENTS // max(len(src), 1))
    for c in range(0, s2.shape[1], width):
        v = s2[src, c : c + width]
        k = rank.take(base + grid.searchsorted(v, "right") - 1).astype(np.intp)
        gained = np.minimum(ys.take(k) + slopes.take(k) * (v - xs.take(k)), caps.take(k))
        at = dst * s2.shape[1] + np.arange(c, c + v.shape[1])
        if n_max:
            np.maximum.at(out.reshape(-1), at[:n_max].ravel(), gained[:n_max].ravel())
        if n_max < len(src):
            np.add.at(out.reshape(-1), at[n_max:].ravel(), gained[n_max:].ravel())
    for i, srcs, gains, maf in net._custom_in_edges:
        cols = np.stack([ref_kfun_call(g, s2[j]) for g, j in zip(gains, srcs)])
        out[i] = [maf.evaluate(col) for col in cols.T]
    return out.reshape(s.shape)


def ref_eval(op, k, s):
    if k < 0:
        return ref_base_apply(op.network, s)
    w = op.wrappers[k]
    if w.kind == "enlarge_left":
        inner = ref_eval(op, k - 1, s)
        return inner + ref_kfun_call(w.rho, inner)
    if w.kind == "enlarge_right":
        return ref_eval(op, k - 1, s + ref_kfun_call(w.rho, s))
    if w.kind == "augment":
        return np.maximum(s, ref_eval(op, k - 1, s))
    if w.kind == "project":
        floor = w.floor if s.ndim == 1 else w.floor[:, None]
        return np.maximum(floor, ref_eval(op, k - 1, s))
    raise AssertionError(w.kind)


def ref_call(op, s):
    s = np.asarray(s, dtype=float)
    if s.shape[0] != op.n:
        raise ValueError(f"index set mismatch: operator has {op.n} nodes, vector has {s.shape[0]}")
    if np.count_nonzero(s >= 0) != s.size:
        raise ValueError("gain operators act on nonnegative vectors")
    return ref_eval(op, len(op.wrappers) - 1, s)


def mixed_network(rng):
    """Max, sum and custom nodes; PL, linear and power gains, some shared."""
    n = int(rng.integers(2, 7))
    pool = [random_kfun(rng), linear(float(rng.uniform(0.1, 2))), power_kfun(float(rng.uniform(0.2, 2)), 1.3)[0]]
    pool += [random_kfun(rng) for _ in range(int(rng.integers(0, 3)))]
    edges = [(j, i, pool[int(rng.integers(len(pool)))]) for i in range(n) for j in range(n) if i != j and rng.random() < 0.6]
    mafs = [(MAX, SUM, L2)[int(rng.integers(3))] for _ in range(n)]
    return build_network(n, edges, mafs, validation_samples=10)


def networks(rng, count):
    """``count`` networks of each kind: max, sum, mixed max/sum/custom, all custom."""
    for _ in range(count):
        yield random_network(rng, maf=MAX)
        yield random_network(rng, maf=SUM)
        yield mixed_network(rng)
        base = random_network(rng)
        yield build_network(base.n, list(base.edges), L2, validation_samples=10)


WRAPPERS = ("enlarge_left", "enlarge_right", "augment", "project")


def wrapped(rng, net, kinds):
    op = as_operator(net)
    for kind in kinds:
        if kind == "enlarge_left":
            op = op.enlarge_left(random_kfun(rng))
        elif kind == "enlarge_right":
            op = op.enlarge_right(random_kfun(rng))
        elif kind == "augment":
            op = op.augmented()
        else:
            op = op.projected(rng.uniform(0, 2, net.n))
    return op


def operators(rng, count):
    """Each network bare, under each wrapper alone, and under a random chain of two to four."""
    for net in networks(rng, count):
        yield as_operator(net)
        for kind in WRAPPERS:
            yield wrapped(rng, net, [kind])
        yield wrapped(rng, net, rng.choice(WRAPPERS, size=int(rng.integers(2, 5))))


def cone_batch(rng, net, m):
    """Nonnegative columns: uniform values, zeros, exact knots and large values."""
    knots = np.concatenate([g.xs for _, _, g in net.edges] or [np.zeros(1)])
    s = rng.uniform(0, 3, (net.n, m))
    pick = rng.random((net.n, m))
    s[pick < 0.15] = 0.0
    hit = (pick >= 0.15) & (pick < 0.4)
    s[hit] = rng.choice(knots, int(hit.sum()))
    s[pick > 0.95] *= 1e6
    return s


def assert_same_step(op, s):
    got, ref = op(s), ref_call(op, s)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


class TestFrozenStep:
    @pytest.mark.parametrize("m", [1, 17])
    def test_narrow_batches(self, m):
        rng = np.random.default_rng(1400 + m)
        for op in operators(rng, 12):
            s = cone_batch(rng, op.network, m)
            assert_same_step(op, s)
            if m == 1:
                assert_same_step(op, s[:, 0])

    def test_batch_crossing_the_chunk_width(self):
        rng = np.random.default_rng(1417)
        for net in networks(rng, 2):
            table_edges = len(net._knot_table[0])  # custom nodes' edges are not chunked
            if not table_edges:
                continue
            width = _CHUNK_ELEMENTS // table_edges
            for op in (as_operator(net), wrapped(rng, net, rng.permutation(WRAPPERS))):
                for m in (width + 1, 2 * width + 3):
                    assert_same_step(op, cone_batch(rng, net, m))

    def test_one_column_at_the_chunk_width(self):
        # a network with more edges than _CHUNK_ELEMENTS runs one column per chunk
        n = 130
        rng = np.random.default_rng(1418)
        gains = [random_kfun(rng) for _ in range(4)]
        edges = [(j, i, gains[(i + j) % 4]) for i in range(n) for j in range(n) if i != j]
        assert len(edges) > _CHUNK_ELEMENTS
        op = as_operator(build_network(n, edges, [MAX] * (n // 2) + [SUM] * (n - n // 2)))
        for m in (1, 3):
            assert_same_step(op, cone_batch(rng, op.network, m))

    def test_kfun_matches_the_frozen_evaluation(self):
        rng = np.random.default_rng(1419)
        for _ in range(50):
            f = random_kfun(rng)
            for r in (0.0, float(f.xs[-1]), 2.5, np.float64(0.3), f.xs, rng.uniform(0, 5, (3, 4)), np.zeros(0)):
                got, ref = f(r), ref_kfun_call(f, r)
                assert type(got) is type(ref)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


class TestCheckedEntryPoints:
    """Negative and NaN input meets one check at each of the two checked entry points."""

    BAD = [np.array([1.0, -1e-300]), np.array([np.nan, 1.0]), np.array([[1.0, 0.5], [-2.0, 0.0]]), np.array([[1.0, 0.5], [0.0, np.nan]])]

    @pytest.mark.parametrize("s", BAD, ids=["negative", "nan", "negative-batch", "nan-batch"])
    @pytest.mark.parametrize("kinds", [[], ["enlarge_left"], ["enlarge_right"], ["augment", "project"]], ids=str)
    def test_operator_refuses(self, s, kinds):
        rng = np.random.default_rng(1420)
        op = wrapped(rng, random_network(rng, n_max=2), kinds)
        with pytest.raises(ValueError) as new:
            op(s)
        with pytest.raises(ValueError) as old:
            ref_call(op, s)
        assert str(new.value) == str(old.value) == "gain operators act on nonnegative vectors"

    @pytest.mark.parametrize("r", [-1.0, -1e-300, np.array([0.5, -1.0]), np.array([[np.nan, -3.0]])], ids=str)
    def test_kfun_refuses_negative(self, r):
        f = random_kfun(np.random.default_rng(1421))
        with pytest.raises(ValueError) as new:
            f(r)
        with pytest.raises(ValueError) as old:
            ref_kfun_call(f, r)
        assert str(new.value) == str(old.value)

    def test_kfun_refuses_nan(self):
        # the frozen copy passed NaN through as NaN; the checked entry now refuses it
        f = random_kfun(np.random.default_rng(1422))
        for r in (np.nan, np.array([np.nan, 1.0]), np.array([[0.5], [np.nan]])):
            with pytest.raises(ValueError, match="r >= 0 only"):
                f(r)
