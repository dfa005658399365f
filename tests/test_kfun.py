import numpy as np
import pytest

from sglab import (
    KFun,
    KFunError,
    MonotoneSamples,
    Side,
    compose_power,
    envelope,
    factor_id_plus,
    id_plus,
    identity,
    linear,
    pointwise_max,
    pointwise_min,
    power_kfun,
    sub_from_id,
)
from conftest import random_kfun


def clamped_eval_reference(f, r):
    """KFun evaluation as first written: clip the segment index, cap interior segments through a mask."""
    arr = np.asarray(r, dtype=float)
    idx = np.clip(np.searchsorted(f.xs, arr, side="right") - 1, 0, len(f.xs) - 1)
    out = f.ys[idx] + f._out_slopes[idx] * (arr - f.xs[idx])
    if len(f.xs) > 1:
        interior = idx < len(f.xs) - 1
        out = np.where(interior, np.minimum(out, f.ys[np.minimum(idx + 1, len(f.xs) - 1)]), out)
    return float(out) if np.ndim(r) == 0 else out


class TestEval:
    def test_capped_formula_matches_reference(self):
        rng = np.random.default_rng(11)
        gains = [linear(0.7), KFun([0, 1.5], [0, 0.4], 2.0), power_kfun(0.3, 1.7)[0]]
        assert [len(f.xs) for f in gains] == [1, 2, 65]
        gains += [random_kfun(rng, x_scale=s) for s in (1e-6, 1.0, 1e6)]
        for f in gains:
            points = np.concatenate(([0.0, 1e12], f.xs, np.nextafter(f.xs, np.inf), rng.uniform(0, 2 * f.xs[-1] + 1, 50)))
            got, ref = f(points), clamped_eval_reference(f, points)
            assert got.tobytes() == ref.tobytes()
            for r in points[::7]:
                got, ref = f(float(r)), clamped_eval_reference(f, float(r))
                assert type(got) is float and got == ref
            assert f(points.reshape(2, -1)).tobytes() == clamped_eval_reference(f, points.reshape(2, -1)).tobytes()

    def test_identity(self):
        assert identity()(3.0) == 3.0

    def test_segment(self):
        f = KFun([0, 1], [0, 2], 2.0)
        assert f(0.5) == 1.0

    def test_extension(self):
        f = KFun([0, 1], [0, 2], 2.0)
        assert f(2.0) == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            identity()(-1.0)

    def test_array_eval(self):
        f = KFun([0, 1], [0, 2], 2.0)
        np.testing.assert_allclose(f(np.array([0.0, 0.5, 1.0, 2.0])), [0.0, 1.0, 2.0, 4.0])

    def test_invariants_rejected(self):
        with pytest.raises(KFunError):
            KFun([0, 1], [0, 0], 1.0)  # flat segment
        with pytest.raises(KFunError):
            KFun([0, 1], [0, 1], 0.0)  # zero final slope
        with pytest.raises(KFunError):
            KFun([1, 2], [1, 2], 1.0)  # not pinned at origin


class TestInverse:
    def test_linear(self):
        assert linear(2.0).inverse()(1.0) == 0.5

    def test_coordinate_swap(self):
        f = KFun([0, 1], [0, 2], 2.0)
        fi = f.inverse()
        np.testing.assert_array_equal(fi.xs, [0, 2])
        np.testing.assert_array_equal(fi.ys, [0, 1])
        assert fi.final_slope == 0.5

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        f = random_kfun(rng)
        r = rng.uniform(0, 50, 100)
        assert np.max(np.abs(f.inverse()(f(r)) - r)) < 1e-12

    def test_double_inverse_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = random_kfun(rng)
            g = f.inverse().inverse()
            np.testing.assert_array_equal(g.xs, f.xs)
            np.testing.assert_array_equal(g.ys, f.ys)
            # the slope reciprocates twice; breakpoints swap exactly
            assert g.final_slope == pytest.approx(f.final_slope, rel=1e-15)


class TestCompose:
    def test_inverse_pair(self):
        assert linear(0.5).compose(linear(2.0))(7.0) == 7.0

    def test_quarter(self):
        h = linear(0.5)
        assert h.compose(h)(8.0) == 2.0

    def test_repeated_composition(self):
        f = linear(0.5)
        assert compose_power(f.compose(f), 2)(1.0) == 0.0625

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            f, g, h = (random_kfun(rng) for _ in range(3))
            lhs = f.compose(g).compose(h)
            r = rng.uniform(0, 20, 64)
            assert np.max(np.abs(lhs(r) - f(g(h(r))))) < 1e-12


class TestSubFromId:
    def test_identity_case(self):
        eta = sub_from_id(identity())
        assert eta(1.0) == 0.5
        assert eta.final_slope == 0.5

    def test_pl_case(self):
        # (id + rho)(x) = 1 at x = 0.5, so eta(1) = 1 - 0.5
        rho = KFun([0, 1], [0, 1], 0.5)
        assert sub_from_id(rho)(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_composition_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = random_kfun(rng)
            eta = sub_from_id(rho)
            p = id_plus(rho)
            grid = np.linspace(0.0, 2.0 * rho.xs[-1] + 3.0, 50)
            assert np.max(np.abs(p(grid - eta(grid)) - grid)) < 1e-10

    def test_breakpoint_roundtrip(self):
        rng = np.random.default_rng(14)
        rho = random_kfun(rng)
        eta = sub_from_id(rho)
        p = id_plus(rho)
        xs = eta.xs
        assert np.max(np.abs(p(xs - eta(xs)) - xs)) < 1e-12


class TestFactorIdPlus:
    def test_identity_closed_form(self):
        rho1, rho2 = factor_id_plus(identity())
        assert rho2(3.0) == 1.5
        assert rho1(3.0) == pytest.approx(1.0, abs=1e-12)

    def test_value_preserved(self):
        rho = KFun([0, 1], [0, 1], 0.5)  # rho(1) = 1
        rho1, rho2 = factor_id_plus(rho)
        comp = id_plus(rho1).compose(id_plus(rho2))
        assert comp(1.0) == pytest.approx(2.0, abs=1e-12)

    def test_recomposition_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho = random_kfun(rng)
            rho1, rho2 = factor_id_plus(rho)
            comp = id_plus(rho1).compose(id_plus(rho2))
            target = id_plus(rho)
            grid = np.concatenate([np.linspace(0.0, 2.0 * rho.xs[-1] + 3.0, 50), rho.xs])
            assert np.max(np.abs(comp(grid) - target(grid))) < 1e-10


class TestEnvelope:
    def test_below_identity_samples(self):
        rs = np.linspace(0, 2, 41)
        s = MonotoneSamples(rs, rs)
        f = envelope(s, Side.BELOW)
        assert np.all(f(rs) <= rs)
        assert np.all(f(rs[1:]) >= 0.99 * rs[1:])

    def test_above_flat_tail(self):
        rs = np.linspace(0, 3, 31)
        s = MonotoneSamples(rs, np.minimum(rs, 1.0))
        f = envelope(s, Side.ABOVE)
        assert np.all(f(rs) >= s.zs)
        assert np.all(np.diff(f(rs)) > 0)

    def test_below_square(self):
        rs = np.linspace(0, 2, 21)
        s = MonotoneSamples(rs, rs**2)
        f = envelope(s, Side.BELOW)
        assert np.all(f(rs) <= rs**2 + 1e-15)

    def test_below_zero_data_fails(self):
        s = MonotoneSamples([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
        with pytest.raises(KFunError):
            envelope(s, Side.BELOW)


class TestAlgebraProperties:
    def test_strict_monotonicity(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            f = random_kfun(rng)
            a = rng.uniform(0, 30, 1000)
            b = a + rng.uniform(1e-6, 10, 1000)
            assert np.all(f(a) < f(b))

    def test_min_max_bracket(self):
        rng = np.random.default_rng(23)
        fs = [random_kfun(rng) for _ in range(4)]
        lo, hi = pointwise_min(fs), pointwise_max(fs)
        r = rng.uniform(0, 20, 200)
        vals = np.stack([f(r) for f in fs])
        assert np.max(np.abs(lo(r) - vals.min(axis=0))) < 1e-10
        assert np.max(np.abs(hi(r) - vals.max(axis=0))) < 1e-10

    def test_add_and_scale(self):
        rng = np.random.default_rng(29)
        f, g = random_kfun(rng), random_kfun(rng)
        r = rng.uniform(0, 10, 100)
        assert np.max(np.abs((f + g)(r) - (f(r) + g(r)))) < 1e-12
        assert np.max(np.abs((2.5 * f)(r) - 2.5 * f(r))) < 1e-12

    def test_power_discretization_exact_at_knots(self):
        f, err = power_kfun(1.0, 2.0, 1e-2, 1e2)
        knots = f.xs[1:]
        assert np.max(np.abs(f(knots) - knots**2)) < 1e-9 * np.max(knots**2)
        assert 0 <= err < 0.2
