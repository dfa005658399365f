import numpy as np

from sglab import coercivity_check, identity, linear, sup_norm
from conftest import random_kfun


def vec(*entries):
    return np.asarray(entries, dtype=float)


class TestOplus:
    """The cone join ``s oplus t`` is the componentwise maximum ``np.maximum(s, t)``."""

    def test_norm_of_max(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s, t = rng.uniform(0, 3, 6), rng.uniform(0, 3, 6)
            assert sup_norm(np.maximum(s, t)) == max(sup_norm(s), sup_norm(t))


class TestKfunAction:
    def test_commutes_with_max(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f = random_kfun(rng)
            s, t = rng.uniform(0, 5, 4), rng.uniform(0, 5, 4)
            np.testing.assert_array_equal(f(np.maximum(s, t)), np.maximum(f(s), f(t)))

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
        bump = np.zeros(4)
        bump[2] = 3.0
        assert not coercivity_check([bump], f).ok
