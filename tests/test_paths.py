import numpy as np
import pytest

from sglab import (
    MAX,
    DecayPath,
    PathConstructionError,
    build_network,
    combined_path,
    default_knots,
    linear,
    max_mbi_probe,
    min_fixed_point,
    minimal_path,
    orbit_path,
    regularize,
    reparametrize_min_id,
    restrict_path,
    stability_battery,
    subnetwork,
    sup_norm,
    validate,
)
from conftest import contracting_sum_network, random_network

RHO = linear(0.1)


class TestMinimalPath:
    def test_ray_on_contracting_pair(self, two_node_half):
        p = minimal_path(two_node_half, RHO, default_knots(-10, 10))
        # enlarged operator maps the ray to 0.55 r, so the ray is minimal
        assert np.max(np.abs(p.points[1:] - p.r_grid[1:, None])) == 0.0
        assert validate(p, two_node_half).passed

    def test_divergence_reports_knot(self, two_node_double):
        with pytest.raises(PathConstructionError) as err:
            minimal_path(two_node_double, RHO, default_knots(-2, 2))
        assert err.value.knot == 0.25

    def test_chain3_ray(self, chain3):
        p = minimal_path(chain3, RHO, default_knots(-8, 8))
        assert np.max(np.abs(p.points[1:] - p.r_grid[1:, None])) == 0.0

    def test_dominates_identity_ray(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            net = contracting_sum_network(rng)
            p = minimal_path(net, RHO, default_knots(-4, 4))
            assert np.all(p.points[1:] >= p.r_grid[1:, None])


class TestCombinedPath:
    def test_collapses_to_minimal_on_unique_fp(self, two_node_half):
        pmin = minimal_path(two_node_half, RHO, default_knots(-5, 5))
        pcomb = combined_path(two_node_half, RHO, default_knots(-5, 5), m_interp=2)
        for r in (0.25, 1.0, 4.0):
            np.testing.assert_allclose(pcomb(r), pmin(r), atol=1e-9)

    def test_chain3_validates(self, chain3):
        p = combined_path(chain3, RHO, default_knots(-10, 10), m_interp=2)
        assert validate(p, chain3).passed

    def test_degenerate_interpolation(self, chain3):
        p = combined_path(chain3, RHO, default_knots(-5, 5), m_interp=0)
        assert validate(p, chain3).passed

    def test_interpolants_are_decay_points(self):
        rng = np.random.default_rng(5)
        net = random_network(rng, n_max=4, maf=MAX, slope_range=(0.2, 0.7), p_edge=0.7)
        p = combined_path(net, RHO, default_knots(-4, 4), m_interp=3)
        rep = validate(p, net)
        assert rep.decay_ok and rep.bounds_ok


class TestOrbitPath:
    def test_ray_orbit(self, two_node_half):
        p = orbit_path(two_node_half, np.ones(2))
        rep = validate(p, two_node_half)
        assert rep.passed
        assert p.phi_min.final_slope == 1.0

    def test_asymmetric_seed_keeps_half_ratio(self, two_node_half):
        p = orbit_path(two_node_half, np.array([1.0, 0.5]))
        assert p.phi_min.final_slope == pytest.approx(0.5)
        rep = validate(p, two_node_half)
        assert rep.decay_ok and rep.bounds_ok

    def test_non_decay_seed_rejected(self, two_node_half):
        with pytest.raises(PathConstructionError):
            orbit_path(two_node_half, np.array([1.0, 0.1]))  # margin negative at node 1

    def test_near_disconnected_rejected(self):
        # a fast and a slow cycle joined only by a slope-floor bridge: the
        # slow part ends up carried at a 1e-9 fraction, so the orbit's
        # min/max ratio collapses and no useful coercivity bound exists
        net = build_network(
            4,
            [
                (0, 1, linear(0.5)),
                (1, 0, linear(0.5)),
                (2, 3, linear(0.1)),
                (3, 2, linear(0.1)),
                (0, 2, linear(1e-9)),
            ],
            MAX,
        )
        with pytest.raises(PathConstructionError, match="coerciv"):
            orbit_path(net, np.ones(4))


class TestRegularize:
    def test_ray_path_lifts_strictly(self, two_node_half):
        p = minimal_path(two_node_half, RHO, default_knots(-6, 6))
        reg = regularize(p, two_node_half)
        rep = validate(reg, two_node_half)
        assert rep.passed
        assert reg.rho(1.0) == pytest.approx(RHO(1.0) / 8.0, rel=1e-6)

    def test_sandwich_bounds(self, two_node_half):
        from sglab import id_plus

        p = minimal_path(two_node_half, RHO, default_knots(-4, 4))
        reg = regularize(p, two_node_half)
        pull = id_plus(RHO).inverse()
        for k, r in enumerate(p.r_grid):
            lifted = reg(r)
            low = pull(p.points[k])
            high = p.points[k]
            assert np.all(lifted >= low - 1e-9)
            assert np.all(lifted <= high + 1e-9)

    def test_fixes_flat_components(self, chain3):
        # combined-path boundary components can tie; the lift separates them
        p = combined_path(chain3, RHO, default_knots(-4, 4), m_interp=1)
        reg = regularize(p, chain3)
        assert validate(reg, chain3).passed

    def test_target_margin_recorded(self, two_node_half):
        p = minimal_path(two_node_half, RHO, default_knots(-4, 4))
        target = linear(0.005)
        reg = regularize(p, two_node_half, target_rho=target)
        assert reg.rho is target
        assert validate(reg, two_node_half).passed

    def test_excessive_target_rejected(self, two_node_half):
        p = minimal_path(two_node_half, RHO, default_knots(-4, 4))
        with pytest.raises(PathConstructionError):
            regularize(p, two_node_half, target_rho=linear(0.09))

    def test_needs_margin(self, two_node_half):
        p = orbit_path(two_node_half, np.ones(2))
        assert p.rho is None
        with pytest.raises(PathConstructionError):
            regularize(p, two_node_half)


class TestReparametrize:
    def test_half_bound_rescales(self, two_node_half):
        p = minimal_path(two_node_half, RHO, default_knots(-4, 4))
        squeezed = DecayPath(p.r_grid, p.points, p.rho, linear(0.5), p.phi_max)
        rp = reparametrize_min_id(squeezed)
        assert rp.phi_min.final_slope == 1.0
        np.testing.assert_allclose(rp.r_grid[1:], 0.5 * p.r_grid[1:])
        np.testing.assert_array_equal(rp.points, p.points)
        assert validate(rp, two_node_half).passed

    def test_identity_is_noop(self, two_node_half):
        p = minimal_path(two_node_half, RHO, default_knots(-4, 4))
        rp = reparametrize_min_id(p)
        np.testing.assert_allclose(rp.r_grid, p.r_grid)

    def test_margins_preserved(self, chain3):
        p = combined_path(chain3, RHO, default_knots(-5, 5))
        before = validate(p, chain3)
        after = validate(reparametrize_min_id(p), chain3)
        assert after.decay_ok == before.decay_ok
        assert after.worst_margin == pytest.approx(before.worst_margin, abs=1e-12)


class TestDecayPathInvariants:
    PTS = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])

    @pytest.mark.parametrize(
        "r",
        [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [0.0, 1.0, np.nan], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]],
        ids=["nan-knot", "inf-last-knot", "nan-last-knot", "decreasing", "repeated"],
    )
    def test_knot_grid_must_be_finite_and_strictly_increasing(self, r):
        with pytest.raises(ValueError, match="knot grid"):
            DecayPath(np.array(r), self.PTS, None, linear(0.5), linear(2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_points_must_be_finite(self, bad):
        pts = self.PTS.copy()
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            DecayPath(np.array([0.0, 1.0, 2.0]), pts, None, linear(0.5), linear(2.0))


class TestValidate:
    def test_flat_segment_flags_strictness(self, two_node_half):
        r = np.array([0.0, 1.0, 2.0])
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 2.0]])  # first component stalls
        path = DecayPath(r, pts, None, linear(0.4), linear(3.0))
        rep = validate(path, two_node_half)
        assert not rep.components_ok and rep.flat_components == [0]
        assert not rep.bilipschitz_ok
        assert any(w[2] == 0.0 for w in rep.windows)

    def test_single_node_subnetwork(self, two_node_half):
        # the induced operator on one node is constant zero, so any coercive
        # increasing ray is a valid strict-decay path for it
        sub = subnetwork(two_node_half, [0])
        p = minimal_path(two_node_half, RHO, default_knots(-3, 3))
        rp = restrict_path(p, [0])
        assert validate(rp, sub).passed


class TestCrossChecks:
    def test_necessary_conditions_after_validation(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 8:
            net = random_network(rng, n_max=4, slope_range=(0.1, 0.7), p_edge=0.6)
            try:
                p = minimal_path(net, RHO, default_knots(-6, 6))
            except PathConstructionError:
                continue
            if not validate(p, net).passed:
                continue
            battery = stability_battery(net, RHO, r_grid=default_knots(-6, 6))
            assert battery.ugas_evidence
            assert max_mbi_probe(net, RHO, default_knots(-6, 6)).status == "evidence"
            done += 1

    def test_fixed_points_below_path(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            net = contracting_sum_network(rng)
            p = minimal_path(net, RHO, default_knots(-4, 4))
            for r in (0.25, 1.0, 4.0):
                fp = min_fixed_point(net, r * np.ones(net.n)).point
                assert np.all(fp <= p(r) + 1e-8)

    def test_homogeneous_paths_are_linear(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            net = contracting_sum_network(rng)
            p = minimal_path(net, RHO, default_knots(-8, 8))
            sigma1 = p(1.0)
            for k, r in enumerate(p.r_grid[1:], start=1):
                assert sup_norm(p.points[k] - r * sigma1) <= 1e-9 * max(1.0, r)

    def test_restriction_closure(self, chain10):
        p = combined_path(chain10, RHO, default_knots(-5, 5))
        assert validate(p, chain10).passed
        sub = subnetwork(chain10, range(5))
        rp = restrict_path(p, range(5))
        assert validate(rp, sub).passed
