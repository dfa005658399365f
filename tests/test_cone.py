import numpy as np
import pytest

from sglab import (
    Rel,
    coercivity_check,
    identity,
    linear,
    oplus,
    order_compare,
    sup_norm,
    unit,
)
from conftest import random_kfun


def vec(*entries):
    return np.asarray(entries, dtype=float)


class TestOrderCompare:
    def test_equal(self):
        assert order_compare(vec(1, 1), vec(1, 1)).kind is Rel.EQUAL

    def test_uniform_gap(self):
        rel = order_compare(vec(1, 2), vec(2, 3))
        assert rel.kind is Rel.LL and rel.margin == 1.0

    def test_incomparable(self):
        assert order_compare(vec(1, 3), vec(2, 2)).kind is Rel.INCOMPARABLE

    def test_lt_without_gap(self):
        assert order_compare(vec(1, 1), vec(1, 2)).kind is Rel.LT

    def test_reverse(self):
        rel = order_compare(vec(3, 3), vec(1, 1))
        assert rel.kind is Rel.GG and rel.margin == 2.0 and rel.geq

    def test_mismatched_index_sets(self):
        with pytest.raises(ValueError):
            order_compare(vec(1, 2), vec(1, 2, 3))

    def test_partial_order_axioms(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (rng.uniform(0, 2, 4) for _ in range(3))
            assert order_compare(a, a).leq  # reflexive
            if order_compare(a, b).leq and order_compare(b, a).leq:
                assert np.array_equal(a, b)  # antisymmetric
            if order_compare(a, b).leq and order_compare(b, c).leq:
                assert order_compare(a, c).leq  # transitive


class TestOplus:
    def test_componentwise_max(self):
        np.testing.assert_array_equal(oplus(vec(1, 3), vec(2, 2)), vec(2, 3))

    def test_zero_identity(self):
        s = vec(0.3, 1.7)
        np.testing.assert_array_equal(oplus(s, np.zeros(2)), s)

    def test_difference_inequality_example(self):
        a, b, c, d = vec(3, 2), vec(2, 4), vec(1, 1), vec(1, 1)
        lhs = oplus(a, b) - oplus(c, d)
        rhs = oplus(a - c, b - d)
        np.testing.assert_array_equal(lhs, vec(2, 3))
        assert np.all(lhs <= rhs)

    def test_difference_inequality_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            c, d = rng.uniform(0, 2, 5), rng.uniform(0, 2, 5)
            a = c + rng.uniform(0, 2, 5)
            b = d + rng.uniform(0, 2, 5)
            assert np.all(oplus(a, b) - oplus(c, d) <= oplus(a - c, b - d) + 1e-15)

    def test_norm_of_max(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s, t = rng.uniform(0, 3, 6), rng.uniform(0, 3, 6)
            assert sup_norm(oplus(s, t)) == max(sup_norm(s), sup_norm(t))


class TestKfunAction:
    def test_commutes_with_max(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f = random_kfun(rng)
            s, t = rng.uniform(0, 5, 4), rng.uniform(0, 5, 4)
            np.testing.assert_array_equal(f(oplus(s, t)), oplus(f(s), f(t)))

    def test_norm_commutes(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            f = random_kfun(rng)
            s = rng.uniform(0, 5, 4)
            assert sup_norm(f(s)) == f(sup_norm(s))


class TestCoercivity:
    def test_rays_pass(self):
        vectors = [r * np.ones(3) for r in np.geomspace(0.01, 10, 12)]
        assert coercivity_check(vectors, identity()).ok

    def test_zero_entry_fails(self):
        result = coercivity_check([vec(1, 0)], linear(0.5))
        assert not result.ok and result.index == 0 and result.slack < 0

    def test_scaled_ray_margin(self):
        vectors = [r * np.ones(2) for r in (0.5, 1.0, 2.0)]
        result = coercivity_check(vectors, linear(0.9))
        assert result.ok and result.slack >= 0

    def test_minimal_path_knots_pass(self):
        # the minimal path of the symmetric half-gain pair is the ray, so
        # its knots pass any sub-identity bound
        from sglab import MAX, build_network, default_knots, minimal_path

        g = linear(0.5)
        net = build_network(2, [(1, 0, g), (0, 1, g)], MAX)
        path = minimal_path(net, linear(0.1), default_knots(-4, 4))
        assert coercivity_check(list(path.points[1:]), linear(0.9)).ok

    def test_unit_vector_fails_any_kfun(self):
        rng = np.random.default_rng(12)
        f = random_kfun(rng)
        assert not coercivity_check([unit(4, 2) * 3.0], f).ok
