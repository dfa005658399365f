import tracemalloc

import numpy as np
import pytest

from sglab import (
    MAX,
    SUM,
    GainOperator,
    KFun,
    MafSpec,
    StopReason,
    StopRule,
    as_operator,
    build_network,
    cofinality_witness,
    decay_margin,
    identity,
    iterate,
    linear,
    max_fixed_point,
    min_fixed_point,
    orbit_path,
    power_kfun,
    stability_battery,
    sup_norm,
)
from sglab.dynamics import _CHUNK_ELEMENTS
from conftest import contracting_sum_network, random_kfun, random_network


L2 = MafSpec("custom", func=lambda v: float(np.sqrt(np.sum(v * v))), modulus=linear(3.0), xi=identity())


def reference_apply(net, s):
    """The gain operator node by node: gain each in-value, then aggregate."""
    out = np.zeros(net.n)
    for i, nbrs in enumerate(net.graph.in_neighbors):
        vals = np.asarray([net.edge_gain[(j, i)](float(s[j])) for j in nbrs])
        out[i] = net.mafs[i].evaluate(vals)
    return out


def random_mixed_network(rng):
    """Max, sum and custom nodes sharing a few gain objects across edges."""
    n = int(rng.integers(2, 7))
    pool = [random_kfun(rng) for _ in range(int(rng.integers(1, 4)))]
    edges = [(j, i, pool[int(rng.integers(len(pool)))]) for i in range(n) for j in range(n) if i != j and rng.random() < 0.6]
    return build_network(n, edges, [(MAX, SUM, L2)[int(rng.integers(3))] for _ in range(n)])


def edge_group_apply(net, s):
    """The operator as evaluated before the knot table: one KFun call per gain
    and aggregation kind, gains in the order of their first edge, then the
    custom nodes one column at a time."""
    aggs = {"max": np.maximum.at, "sum": np.add.at}
    groups = {}
    for j, i, g in net.edges:
        by_kind = groups.setdefault(id(g), (g, {kind: ([], []) for kind in aggs}))[1]
        if net.mafs[i].kind in by_kind:
            by_kind[net.mafs[i].kind][0].append(j)
            by_kind[net.mafs[i].kind][1].append(i)
    out = np.zeros_like(s)
    for g, by_kind in groups.values():
        for kind, (src, dst) in by_kind.items():
            if src:
                aggs[kind](out, np.asarray(dst, dtype=int), g(s[np.asarray(src, dtype=int)]))
    for i, nbrs in enumerate(net.graph.in_neighbors):
        if nbrs and net.mafs[i].kind == "custom":
            cols = np.stack([net.edge_gain[(j, i)](s[j]) for j in nbrs]).reshape(len(nbrs), -1)
            vals = [net.mafs[i].evaluate(c) for c in cols.T]
            out[i] = vals if s.ndim == 2 else vals[0]
    return out


def shared_gain_network(rng, n_max=6):
    """Max, sum and custom nodes; PL, linear and 65-knot power gains shared across edges."""
    n = int(rng.integers(2, n_max + 1))
    pool = [random_kfun(rng), linear(float(rng.uniform(0.1, 2))), power_kfun(float(rng.uniform(0.2, 2)), 1.3)[0]]
    pool = [pool[int(k)] for k in rng.integers(len(pool), size=int(rng.integers(1, 5)))]
    edges = [(j, i, pool[int(rng.integers(len(pool)))]) for i in range(n) for j in range(n) if i != j and rng.random() < 0.7]
    return build_network(n, edges, [(MAX, SUM, L2)[int(rng.integers(3))] for _ in range(n)], validation_samples=10)


def ray_table_reference(op, r_grid, n_max):
    """Ray rows by plain stepping; past 1e30 the last norm fills the row."""
    rows = []
    for r in r_grid:
        s, row = r * np.ones(op.n), [r]
        for _ in range(n_max):
            s = op(s)
            row.append(sup_norm(s))
            if row[-1] > 1e30:
                break
        rows.append(row + [row[-1]] * (n_max + 1 - len(row)))
    return np.asarray(rows)


class TestApply:
    def test_mixed_aggregation_matches_per_node_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            net = random_mixed_network(rng)
            kinds = np.asarray([m.kind for m in net.mafs])
            op = as_operator(net)
            batch = rng.uniform(0, 3, (net.n, 5))
            expected = np.stack([reference_apply(net, batch[:, k]) for k in range(5)], axis=1)
            for got, ref in ((op(batch[:, 0]), expected[:, 0]), (op(batch), expected)):
                exact = kinds != "sum"
                np.testing.assert_array_equal(got[exact], ref[exact])
                np.testing.assert_allclose(got[~exact], ref[~exact], rtol=1e-12, atol=0.0)

    def test_knot_table_matches_edge_group_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            net = shared_gain_network(rng)
            op = as_operator(net)
            knots = np.concatenate([g.xs for _, _, g in net.edges] or [np.zeros(1)])
            vectors = [
                np.zeros(net.n),
                rng.uniform(0, 3, net.n),
                rng.choice(knots, net.n),
                rng.choice(knots, net.n) * 10 + 1e4,
                np.full(net.n, 1e12),
                rng.choice(np.concatenate((knots, rng.uniform(0, 3, 8))), (net.n, 7)),
            ]
            for s in vectors:
                assert op(s).tobytes() == edge_group_apply(net, s).tobytes()

    def test_edgeless_networks_give_zero(self):
        for mafs in (MAX, SUM, [MAX, L2, SUM]):
            op = as_operator(build_network(3, [], mafs))
            assert op(np.ones(3)).tobytes() == np.zeros(3).tobytes()
            assert op(np.ones((3, 4))).tobytes() == np.zeros((3, 4)).tobytes()

    def test_wide_batch_matches_single_columns(self):
        rng = np.random.default_rng(23)
        net = shared_gain_network(rng, n_max=7)
        while len(net.edges) < 20:
            net = shared_gain_network(rng, n_max=7)
        op = as_operator(net)
        m = 3 * (_CHUNK_ELEMENTS // len(net.edges)) + 7
        batch = rng.uniform(0, 4, (net.n, m))
        single = np.stack([op(batch[:, k]) for k in range(m)], axis=1)
        assert op(batch).tobytes() == single.tobytes()

    def test_plain(self, two_node_half):
        np.testing.assert_array_equal(as_operator(two_node_half)(np.ones(2)), [0.5, 0.5])

    def test_augmented(self, two_node_half):
        np.testing.assert_array_equal(as_operator(two_node_half).augmented()(np.ones(2)), [1.0, 1.0])

    def test_enlarged(self, two_node_half):
        op = as_operator(two_node_half).enlarge_left(identity())
        np.testing.assert_array_equal(op(np.ones(2)), [1.0, 1.0])

    def test_empty_in_neighbors_give_zero(self):
        net = build_network(3, [(0, 1, linear(0.5))], MAX)
        out = as_operator(net)(np.ones(3))
        assert out[0] == 0.0 and out[2] == 0.0 and out[1] == 0.5

    def test_index_mismatch(self, two_node_half):
        with pytest.raises(ValueError):
            as_operator(two_node_half)(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, -1.0, -np.inf], ids=["nan", "negative", "minus-inf"])
    def test_entries_that_are_not_nonnegative_are_refused(self, two_node_half, bad):
        op = as_operator(two_node_half)
        for s in (np.array([1.0, bad]), np.array([[1.0, 0.5], [bad, 1.0]])):
            with pytest.raises(ValueError, match="nonnegative"):
                op(s)
        with pytest.raises(ValueError, match="nonnegative"):
            op.projected(np.array([bad, 1.0]))

    def test_batch_columns_match_single(self, chain10):
        rng = np.random.default_rng(1)
        op = as_operator(chain10).enlarge_left(linear(0.1)).augmented()
        batch = rng.uniform(0, 2, (10, 7))
        out = op(batch)
        for k in range(7):
            np.testing.assert_array_equal(out[:, k], op(batch[:, k]))


class TestIterate:
    def test_geometric_decay(self, two_node_half):
        traj = iterate(two_node_half, np.ones(2))
        assert traj.stop_reason is StopReason.CONVERGED
        np.testing.assert_allclose(traj.states[1], [0.5, 0.5])
        np.testing.assert_allclose(traj.states[2], [0.25, 0.25])
        assert sup_norm(traj.final) < 1e-9

    def test_divergence(self, two_node_double):
        traj = iterate(two_node_double, np.ones(2), StopRule(divergence_bound=1e6))
        assert traj.stop_reason is StopReason.DIVERGED

    def test_zero_start(self, two_node_half):
        traj = iterate(two_node_half, np.zeros(2))
        assert traj.stop_reason is StopReason.CONVERGED
        assert sup_norm(traj.final) == 0.0

    def test_states_are_rows_of_one_array(self):
        """10,000 steps of the 2-node period-2 network: the states are one
        (steps + 1, n) array, and the heap peak stays within 64 bytes a step,
        against about 409 when each state was its own array."""
        net = build_network(2, [(1, 0, linear(1.0)), (0, 1, linear(1.0))], MAX)
        s0 = np.array([1.0, 2.0])
        iterate(net, s0, StopRule(max_iter=3))  # the knot table is built once per network, outside the trace
        tracemalloc.start()
        try:
            traj = iterate(net, s0, StopRule(max_iter=10_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.stop_reason is StopReason.MAX_ITER and traj.states.shape == (10_001, 2)
        np.testing.assert_array_equal(traj.states[::2], np.tile([1.0, 2.0], (5_001, 1)))
        np.testing.assert_array_equal(traj.states[1::2], np.tile([2.0, 1.0], (5_000, 1)))
        assert peak < 64 * 10_000

    def test_nan_start_refused_at_the_first_step(self, two_node_half):
        # a NaN state passes neither the divergence nor the convergence test,
        # so the run went on to its iteration cap
        with pytest.raises(ValueError, match="nonnegative"):
            iterate(two_node_half, np.array([np.nan, np.nan]))

    def test_bound_of_a_huge_start_is_infinite_without_warning(self, recwarn):
        # 1e9 * ||s0|| + 1 overflows above about 1.8e299; tier-1 turns the
        # overflow's RuntimeWarning into an error
        assert StopRule().bound_for(np.array([1.0, 1e300])) == np.inf
        np.testing.assert_array_equal(StopRule().bound_for(np.array([[1.0, 1e300], [2.0, 0.0]])), [1e9 * 2.0 + 1.0, np.inf])
        assert StopRule().bound_for(np.array([1e299, 0.0])) == 1e9 * 1e299 + 1.0
        assert not recwarn.list


class TestMinFixedPoint:
    def test_floor_already_fixed(self, two_node_half):
        res = min_fixed_point(two_node_half, np.ones(2))
        assert res.status is StopReason.CONVERGED
        np.testing.assert_array_equal(res.point, [1.0, 1.0])

    def test_hand_example(self, two_node_half):
        res = min_fixed_point(two_node_half, np.array([4.0, 0.0]))
        np.testing.assert_array_equal(res.point, [4.0, 2.0])

    def test_divergence_reported(self, two_node_double):
        res = min_fixed_point(two_node_double, np.ones(2))
        assert res.status is StopReason.DIVERGED

    def test_nan_floor_refused(self, two_node_half):
        with pytest.raises(ValueError, match="nonnegative"):
            min_fixed_point(two_node_half, np.array([1.0, np.nan]))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            net = contracting_sum_network(rng)
            b = rng.uniform(0, 2, net.n)
            res = min_fixed_point(net, b)
            assert res.status is StopReason.CONVERGED
            # independent oracle: iterate the defining map directly
            op = as_operator(net)
            s = b.copy()
            for _ in range(400):
                s = np.maximum(b, op(s))
            assert sup_norm(s - res.point) < 1e-7
            assert res.residual < 1e-8


class TestMaxFixedPoint:
    def test_unique_fp_matches_min(self, two_node_half):
        res = max_fixed_point(two_node_half, np.ones(2), r_cap=4.0)
        np.testing.assert_allclose(res.point, [1.0, 1.0], atol=1e-10)

    def test_zero_floor(self, two_node_half):
        res = max_fixed_point(two_node_half, np.zeros(2), r_cap=1.0)
        assert sup_norm(res.point) < 1e-8

    def test_chain3_unique(self, chain3):
        b = np.ones(3)
        lo = min_fixed_point(chain3, b)
        hi = max_fixed_point(chain3, b, r_cap=4.0)
        assert sup_norm(hi.point - lo.point) < 1e-8
        assert hi.residual < 1e-10

    def test_cap_below_floor_rejected(self, two_node_half):
        with pytest.raises(ValueError):
            max_fixed_point(two_node_half, 2.0 * np.ones(2), r_cap=1.0)

    def test_descent_slack_covers_the_top_tolerance(self):
        # a 3-node sum network whose gains cross slope one; the top above the
        # cap ray 2 converges slowly, to 1e-10 * 2, and the first descent step
        # from it rises by 2.5e-10, more than 1e-12 * ||top|| = 1.1e-10, at
        # every cap doubling alike
        net = build_network(
            3,
            [
                (1, 0, KFun([0.0, 0.9263723055647773], [0.0, 1.092318110425051], 0.8533885560586638)),
                (2, 0, KFun([0.0, 0.27480079411031166], [0.0, 0.09088410945496143], 0.6687796558291033)),
                (0, 2, KFun([0.0, 0.6954610541412255, 0.9388718174847779], [0.0, 0.10038461529050519, 0.13310848697488453], 1.4497394843787161)),
                (
                    1,
                    2,
                    KFun(
                        [0.0, 0.15939781452219084, 0.8525581087846856, 1.2006166075067655, 2.1500052201915003, 2.8474096698584583, 3.7455990333819136],
                        [0.0, 0.16117068522765826, 0.9411866727076859, 1.2006918316944089, 1.860106532505598, 2.692749500205635, 3.012081737855046],
                        0.19213875962527913,
                    ),
                ),
            ],
            SUM,
        )
        b = 2.0**-10 * np.ones(3)
        top = min_fixed_point(net, 2.0 * np.ones(3))
        rise = float(np.max(np.maximum(b, as_operator(net)(top.point)) - top.point))
        assert 1e-12 * sup_norm(top.point) < rise <= StopRule().tol * 2.0 + 1e-12 * sup_norm(top.point)
        res = max_fixed_point(net, b)
        assert res.status is StopReason.CONVERGED
        assert np.all(res.point >= min_fixed_point(net, b).point)


class TestResiduals:
    def test_ray_fixed_points_skip_the_residual(self, two_node_half, monkeypatch):
        # every ray above the gains-0.5 pair is fixed after one step; the
        # upward leg reads no residual, so it needs no second application
        shapes = []
        call = GainOperator.__call__

        def counted(self, s):
            shapes.append(np.shape(s))
            return call(self, s)

        monkeypatch.setattr(GainOperator, "__call__", counted)
        orbit_path(two_node_half, np.ones(2))
        assert shapes.count((2, 8)) == 1

    def test_min_fixed_point_reports_the_defect(self, two_node_half):
        res = min_fixed_point(two_node_half, np.ones(2))
        assert res.status is StopReason.CONVERGED and res.residual == 0.0


class TestDecayMargin:
    def test_inside(self, two_node_half):
        np.testing.assert_array_equal(decay_margin(two_node_half, np.ones(2)), [0.5, 0.5])

    def test_outside(self, two_node_double):
        np.testing.assert_array_equal(decay_margin(two_node_double, np.ones(2)), [-1.0, -1.0])

    def test_mixed(self, two_node_half):
        margin = decay_margin(two_node_half, np.array([1.0, 0.4]))
        np.testing.assert_allclose(margin, [0.8, -0.1])


class TestCofinality:
    def test_already_decaying(self, two_node_half):
        res = cofinality_witness(two_node_half, np.ones(2))
        assert res.status is StopReason.CONVERGED and res.iterations == 1
        np.testing.assert_allclose(res.point, [1.0, 1.0])

    def test_matches_min_fixed_point(self, two_node_half):
        res = cofinality_witness(two_node_half, np.array([4.0, 0.0]))
        np.testing.assert_allclose(res.point, [4.0, 2.0], atol=1e-9)

    def test_divergence(self, two_node_double):
        assert cofinality_witness(two_node_double, np.ones(2)).status is StopReason.DIVERGED


class TestStabilityBattery:
    def test_contracting_pair(self, two_node_half):
        rep = stability_battery(two_node_half, r_grid=[1.0], n_max=30)
        np.testing.assert_allclose(rep.kl_table[0][:6], 0.5 ** np.arange(6))
        assert rep.ugas_evidence

    def test_expanding_pair(self, two_node_double):
        rep = stability_battery(two_node_double, r_grid=[1.0], n_max=20)
        np.testing.assert_allclose(rep.kl_table[0][:6], 2.0 ** np.arange(6))
        assert not rep.gatt_evidence and not rep.ugs_evidence

    def test_chain10_row_sum_bound(self, chain10):
        rep = stability_battery(chain10, r_grid=[1.0], n_max=40)
        assert np.all(rep.kl_table[0] <= 0.5 ** np.arange(41) + 1e-12)
        assert rep.ugas_evidence

    def test_beta_starts_at_r(self, two_node_half):
        rep = stability_battery(two_node_half, r_grid=[0.25, 1.0, 4.0], n_max=10)
        np.testing.assert_array_equal(rep.kl_table[:, 0], [0.25, 1.0, 4.0])

    def test_rows_match_plain_stepping_at_exact_fixed_points(self):
        # acyclic: T^3 = 0 exactly, so the rays stop early at the zero fixed point
        net = build_network(4, [(0, 1, linear(0.5)), (1, 2, linear(3.0)), (0, 3, linear(0.2))], SUM)
        rep = stability_battery(net, r_grid=[0.5, 1.0, 8.0], n_max=12)
        np.testing.assert_array_equal(rep.kl_table, ray_table_reference(as_operator(net), rep.r_grid, 12))
        assert rep.gatt_per_r == [True, True, True] and rep.ugas_evidence
        # unit-gain max ring: every ray is fixed after one step, and its norm fills the row
        ring = build_network(2, [(0, 1, identity()), (1, 0, identity())], MAX)
        rep = stability_battery(ring, r_grid=[0.5, 2.0], n_max=12)
        np.testing.assert_array_equal(rep.kl_table, ray_table_reference(as_operator(ring), rep.r_grid, 12))
        assert rep.gatt_per_r == [False, False] and rep.ugs_evidence

    def test_rows_match_plain_stepping_past_hopeless_growth(self):
        net = build_network(2, [(0, 1, linear(1e10)), (1, 0, linear(1e10))], MAX)
        rep = stability_battery(net, r_grid=[0.5, 1.0, 2.0], n_max=12)
        np.testing.assert_array_equal(rep.kl_table, ray_table_reference(as_operator(net), rep.r_grid, 12))
        assert np.all(rep.kl_table[:, -1] > 1e30)
        assert rep.gatt_per_r == [False, False, False] and not rep.ugs_evidence

    def test_table_monotone_iff_rays_decay(self, two_node_half, two_node_double):
        good = stability_battery(two_node_half, r_grid=[1.0], n_max=12)
        assert np.all(np.diff(good.kl_table[0]) <= 0)
        bad = stability_battery(two_node_double, r_grid=[1.0], n_max=12)
        assert np.any(np.diff(bad.kl_table[0]) > 0)


class TestOperatorIdentities:
    def test_monotonicity_all_variants(self):
        rng = np.random.default_rng(41)
        pairs = 0
        while pairs < 500:
            net = random_network(rng)
            op = as_operator(net)
            rho = random_kfun(rng, slope_range=(0.05, 1.0))
            variants = [
                op,
                op.enlarge_left(rho),
                op.enlarge_right(rho),
                op.augmented(),
                op.projected(rng.uniform(0, 2, net.n)),
            ]
            for _ in range(5):
                s1 = rng.uniform(0, 3, net.n)
                s2 = s1 + rng.uniform(0, 2, net.n)
                for v in variants:
                    assert np.all(v(s1) <= v(s2))
                pairs += 1

    def test_conjugacy(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            net = random_network(rng)
            rho = random_kfun(rng, slope_range=(0.05, 1.0))
            op = as_operator(net)
            left, right = op.enlarge_left(rho), op.enlarge_right(rho)
            s = rng.uniform(0, 3, net.n)
            inner = right(s)
            lhs = inner + rho(inner)
            rhs = left(s + rho(s))
            assert sup_norm(lhs - rhs) <= 1e-10 * max(1.0, sup_norm(rhs))

    def test_augmented_equals_projected_at_start(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            net = random_network(rng)
            op = as_operator(net)
            s = rng.uniform(0, 2, net.n)
            a, b = s.copy(), s.copy()
            aug, proj = op.augmented(), op.projected(s)
            for _ in range(20):
                a, b = aug(a), proj(b)
                np.testing.assert_array_equal(a, b)

    def test_augmented_dominates_argument(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            net = random_network(rng)
            op = as_operator(net)
            s = rng.uniform(0, 2, net.n)
            b = rng.uniform(0, 2, net.n)
            assert np.all(op.augmented()(s) >= s)
            assert np.all(op.projected(b)(s) >= b)

    def test_gain_floor_through_edges(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            net = random_network(rng, p_edge=0.8)
            if not all(net.graph.in_neighbors):
                continue
            op = as_operator(net)
            floor = net.xi.compose(net.eta)
            for _ in range(5):
                s = rng.uniform(0, 3, net.n)
                out = op(s)
                for j, i, _ in net.edges:
                    assert out[i] >= floor(s[j]) - 1e-12

    def test_fixed_point_monotone_in_floor(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            net = contracting_sum_network(rng)
            b1 = rng.uniform(0, 2, net.n)
            b2 = b1 + rng.uniform(0, 1, net.n)
            lo1, lo2 = min_fixed_point(net, b1), min_fixed_point(net, b2)
            hi1 = max_fixed_point(net, b1, r_cap=8.0)
            hi2 = max_fixed_point(net, b2, r_cap=8.0)
            tol = 1e-8
            assert np.all(lo1.point <= lo2.point + tol)
            assert np.all(hi1.point <= hi2.point + tol)
            assert np.all(lo1.point <= hi1.point + tol)

    def test_max_type_closed_form(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            net = random_network(rng, maf=MAX)
            rho = random_kfun(rng, slope_range=(0.05, 0.5))
            en = as_operator(net).enlarge_left(rho)
            s, b = rng.uniform(0, 2, net.n), rng.uniform(0, 2, net.n)
            proj = en.projected(b)
            lhs = s.copy()
            pow_s, pow_b, acc = s.copy(), b.copy(), b.copy()
            for _ in range(20):
                lhs = proj(lhs)
                pow_s = en(pow_s)
                rhs = np.maximum(pow_s, acc)
                scale = max(1.0, sup_norm(rhs))
                assert sup_norm(lhs - rhs) <= 1e-12 * scale
                pow_b = en(pow_b)
                acc = np.maximum(acc, pow_b)

    def test_subadditive_contraction(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            net = contracting_sum_network(rng, row_sum=1.2)
            op = as_operator(net)
            r = float(rng.uniform(0, 2))
            proj = op.projected(r * np.ones(net.n))
            s1 = rng.uniform(0, 2, net.n)
            s2 = s1 + rng.uniform(0, 2, net.n)
            a, b, d = s1.copy(), s2.copy(), s2 - s1
            for _ in range(15):
                a, b, d = proj(a), proj(b), op(d)
                assert np.all(b - a <= d + 1e-12 * max(1.0, sup_norm(d)))
