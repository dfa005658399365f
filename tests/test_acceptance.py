"""Acceptance battery: one test per criterion, one printed verdict line each.

Verdict lines are echoed in the terminal summary so they show up in any
run mode (see ``pytest_terminal_summary`` in conftest).
"""

import time
from functools import lru_cache

import numpy as np

from sglab import (
    MAX,
    SUM,
    as_operator,
    build_network,
    chain_template,
    combined_path,
    cycle_gain_check,
    default_knots,
    delta_chain,
    factor_id_plus,
    id_plus,
    linear,
    max_fixed_point,
    max_mbi_probe,
    min_fixed_point,
    minimal_path,
    neighborhood,
    nji_probe,
    spectral_condition,
    stability_battery,
    sub_from_id,
    sup_norm,
    uniform_nji_probe,
    validate,
)
from sglab.dynamics import StopReason
from conftest import random_kfun, random_network, record_verdict

RHO = linear(0.1)


def report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    record_verdict(line)
    assert ok, f"{tag}: {detail}"


def test_ac1_kfun_roundtrips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_sub, worst_fac = 0.0, 0.0
    for _ in range(1000):
        f = random_kfun(rng)
        g = f.inverse().inverse()
        assert np.array_equal(g.xs, f.xs) and np.array_equal(g.ys, f.ys)
        rho = random_kfun(rng)
        grid = np.linspace(0.0, 2.0 * rho.xs[-1] + 3.0, 50)
        eta = sub_from_id(rho)
        p = id_plus(rho)
        worst_sub = max(worst_sub, float(np.max(np.abs(p(grid - eta(grid)) - grid))))
        r1, r2 = factor_id_plus(rho)
        comp = id_plus(r1).compose(id_plus(r2))
        worst_fac = max(worst_fac, float(np.max(np.abs(comp(grid) - p(grid)))))
    elapsed = time.perf_counter() - t0
    ok = worst_sub < 1e-10 and worst_fac < 1e-10 and elapsed < 5.0
    report(
        "AC-1",
        ok,
        f"1000 K-infinity round-trips: sub-residual {worst_sub:.2e}, "
        f"factor-residual {worst_fac:.2e}, {elapsed:.2f}s (< 5s)",
    )


def test_ac2_operator_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    pairs = 0
    worst_conj = 0.0
    for _ in range(100):
        net = random_network(rng, n_max=6)
        op = as_operator(net)
        rho = random_kfun(rng, slope_range=(0.05, 1.0))
        left, right = op.enlarge_left(rho), op.enlarge_right(rho)
        for _ in range(5):
            s1 = rng.uniform(0, 3, net.n)
            s2 = s1 + rng.uniform(0, 2, net.n)
            assert np.all(op(s1) <= op(s2))
            pairs += 1
        s = rng.uniform(0, 2, net.n)
        inner = right(s)
        worst_conj = max(worst_conj, sup_norm((inner + rho(inner)) - left(s + rho(s))))
        a, b = s.copy(), s.copy()
        aug, proj = op.augmented(), op.projected(s)
        for _ in range(20):
            a, b = aug(a), proj(b)
            assert np.array_equal(a, b)
    elapsed = time.perf_counter() - t0
    ok = pairs == 500 and worst_conj < 1e-10 and elapsed < 30.0
    report(
        "AC-2",
        ok,
        f"operator identities on 100 nets: {pairs} monotone pairs, conjugacy residual "
        f"{worst_conj:.2e}, augmented identity exact to n=20, {elapsed:.2f}s (< 30s)",
    )


def test_ac3_maxtype_closed_form():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        net = random_network(rng, maf=MAX)
        rho = random_kfun(rng, slope_range=(0.05, 0.5))
        en = as_operator(net).enlarge_left(rho)
        s, b = rng.uniform(0, 2, net.n), rng.uniform(0, 2, net.n)
        proj = en.projected(b)
        lhs, pow_s, pow_b, acc = s.copy(), s.copy(), b.copy(), b.copy()
        for _ in range(20):
            lhs = proj(lhs)
            pow_s = en(pow_s)
            rhs = np.maximum(pow_s, acc)
            worst = max(worst, sup_norm(lhs - rhs) / max(1.0, sup_norm(rhs)))
            pow_b = en(pow_b)
            acc = np.maximum(acc, pow_b)
    ok = worst <= 1e-12
    report("AC-3", ok, f"max-aggregation projected iterate closed form: relative gap {worst:.2e} (<= 1e-12)")


def _random_spectral_net(rng, radius):
    n = 5
    a = rng.uniform(0.2, 1.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    lam = max(abs(np.linalg.eigvals(a)))
    a *= radius / lam
    edges = [(j, i, linear(float(a[i, j]))) for i in range(n) for j in range(n) if i != j]
    return build_network(n, edges, SUM)


_AC4_CASES = []


def test_ac4_spectral_condition():
    rng = np.random.default_rng(404)
    worst_lin = 0.0
    for _ in range(5):
        net = _random_spectral_net(rng, 0.9)
        v = spectral_condition(net, n_max=64)
        assert v.status == "pass" and v.witness["n"] <= 64
        path = minimal_path(net, None, default_knots(-12, 12))
        sigma1 = path(1.0)
        for k, r in enumerate(path.r_grid[1:], start=1):
            worst_lin = max(worst_lin, sup_norm(path.points[k] - r * sigma1) / max(1.0, r))
        _AC4_CASES.append((net, path))
        bad = _random_spectral_net(rng, 1.1)
        v_bad = spectral_condition(bad, n_max=64)
        assert v_bad.status == "inconclusive" and v_bad.counterexample is None
        assert abs(v_bad.witness["growth_ratio"] - 1.1) <= 0.05
    ok = worst_lin <= 1e-9
    report(
        "AC-4",
        ok,
        f"spectral condition passes below rho 1 and is inconclusive with the growth ratio above it; minimal-path homogeneity gap {worst_lin:.2e} (<= 1e-9)",
    )


_AC5_GRID = default_knots(-6, 6)


@lru_cache(maxsize=1)
def _ac5_results():
    """50 class-check-positive networks with their paths and evidence runs."""
    rng = np.random.default_rng(505)
    results = []
    while len(results) < 50:
        if rng.random() < 0.5:
            net = random_network(rng, n_max=5, maf=MAX, slope_range=(0.1, 0.8), p_edge=0.6)
            ok = cycle_gain_check(net, rho=RHO).status == "pass"
        else:
            n = int(rng.integers(2, 6))
            a = rng.uniform(0.1, 1.0, size=(n, n))
            np.fill_diagonal(a, 0.0)
            lam = max(abs(np.linalg.eigvals(a)))
            a *= rng.uniform(0.5, 0.8) / lam
            edges = [(j, i, linear(float(a[i, j]))) for i in range(n) for j in range(n) if i != j]
            net = build_network(n, edges, SUM)
            ok = spectral_condition(net, rho=RHO).status == "pass"
        if not ok:
            continue
        path = minimal_path(net, RHO, _AC5_GRID)
        rep = validate(path, net)
        battery = stability_battery(net, RHO, _AC5_GRID, n_max=300)
        mbi = max_mbi_probe(net, RHO, _AC5_GRID)
        results.append((net, path, rep, battery, mbi))
    return tuple(results)


def test_ac5_finite_case_chain():
    contradictions = 0
    for net, path, rep, battery, mbi in _ac5_results():
        if not (rep.passed and battery.ugas_evidence and mbi.status == "evidence"):
            contradictions += 1
    ok = contradictions == 0
    report(
        "AC-5",
        ok,
        f"50 class-check-positive networks: path + validation + stability + bounded "
        f"invertibility all consistent ({contradictions} contradictions)",
    )


def test_ac6_necessary_conditions():
    violations = 0
    for net, path, rep, battery, mbi in _ac5_results():
        if not rep.passed:
            continue
        if not (battery.ugas_evidence and mbi.status == "evidence"):
            violations += 1
    for net, path in _AC4_CASES:
        if not validate(path, net).passed:
            continue
        battery = stability_battery(net, None, default_knots(-6, 6), n_max=300)
        mbi = max_mbi_probe(net, None, default_knots(-6, 6))
        if not (battery.ugas_evidence and mbi.status == "evidence"):
            violations += 1
    ok = violations == 0
    report("AC-6", ok, f"necessary conditions hold for every validated path ({violations} violations)")


def test_ac7_fixed_point_structure():
    rng = np.random.default_rng(707)
    tol = 1e-8
    instances = 0
    worst_gap = 0.0
    while instances < 200:
        if rng.random() < 0.5:
            net = random_network(rng, n_max=4, maf=MAX, slope_range=(0.1, 0.8), p_edge=0.6)
            if cycle_gain_check(net).status != "pass":
                continue
        else:
            n = int(rng.integers(2, 5))
            a = rng.uniform(0.1, 1.0, size=(n, n))
            np.fill_diagonal(a, 0.0)
            lam = max(abs(np.linalg.eigvals(a)))
            a *= 0.8 / lam
            edges = [(j, i, linear(float(a[i, j]))) for i in range(n) for j in range(n) if i != j]
            net = build_network(n, edges, SUM)
        for _ in range(4):
            b1 = rng.uniform(0, 2, net.n)
            b2 = b1 + rng.uniform(0, 1, net.n)
            lo1 = min_fixed_point(net, b1)
            lo2 = min_fixed_point(net, b2)
            hi1 = max_fixed_point(net, b1, r_cap=16.0)
            hi2 = max_fixed_point(net, b2, r_cap=16.0)
            assert lo1.status is StopReason.CONVERGED and hi1.status is StopReason.CONVERGED
            assert np.all(lo1.point <= hi1.point + tol)
            assert np.all(lo1.point <= lo2.point + tol)
            assert np.all(hi1.point <= hi2.point + tol)
            worst_gap = max(worst_gap, sup_norm(hi1.point - lo1.point), sup_norm(hi2.point - lo2.point))
            instances += 1
    ok = worst_gap <= tol
    report(
        "AC-7",
        ok,
        f"fixed-point order and monotonicity on 200 instances; uniqueness gap {worst_gap:.2e} (<= 1e-8)",
    )


def test_ac8_delta_chain_soundness():
    rng = np.random.default_rng(808)
    checked, violations = 0, 0
    for _ in range(100):
        net = random_network(rng, n_max=4, slope_range=(0.1, 1.5), p_edge=0.6)
        op = as_operator(net)
        modulus = net.lipschitz_modulus()
        n = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.1, 1.0))
        delta = delta_chain(modulus, n, eps).delta
        candidates = [rng.uniform(0, 2, net.n) for _ in range(25)]
        candidates += [r * np.ones(net.n) for r in (0.25, 1.0, 2.0)]
        candidates += [min_fixed_point(net, rng.uniform(0, 2, net.n)).point]
        for s in candidates:
            if np.any(s < 0) or sup_norm(s) > 1e6:
                continue
            t1 = op(s)
            tn = s.copy()
            for _ in range(n):
                tn = op(tn)
            for i in range(net.n):
                js = sorted(neighborhood(net.graph, i, n - 1))
                if np.all(t1[js] >= s[js] - delta):
                    checked += 1
                    if tn[i] < s[i] - eps - 1e-9:
                        violations += 1
    ok = violations == 0 and checked > 500
    report("AC-8", ok, f"multi-step decay bound held on {checked} hypothesis-satisfying samples ({violations} violations)")


def test_ac9_nji_equivalence():
    rng = np.random.default_rng(909)
    disagreements = 0
    for _ in range(50):
        expanding = rng.random() < 0.5
        slope_range = (1.2, 2.0) if expanding else (0.1, 0.7)
        net = random_network(rng, n_max=4, slope_range=slope_range, p_edge=0.6)
        plain = nji_probe(net)
        uniform = uniform_nji_probe(net, r=1.0, eps=0.25)
        if plain.failed != uniform.failed:
            disagreements += 1
    ok = disagreements == 0
    report("AC-9", ok, f"plain and uniform no-joint-increase verdicts agree on 50 networks ({disagreements} disagreements)")


def test_ac10_truncation_scaling():
    tpl = chain_template(linear(0.25), SUM)
    worst_beta = -np.inf
    for n_nodes in (10, 100):
        net = tpl.instantiate(n_nodes)
        rep = stability_battery(net, None, r_grid=[1.0], n_max=40)
        worst_beta = max(worst_beta, float(np.max(rep.kl_table[0] - 0.5 ** np.arange(41))))
        path = combined_path(net, RHO, default_knots(-20, 20))
        assert validate(path, net).passed
    t0 = time.perf_counter()
    net = tpl.instantiate(1000)
    rep = stability_battery(net, None, r_grid=[1.0], n_max=40)
    worst_beta = max(worst_beta, float(np.max(rep.kl_table[0] - 0.5 ** np.arange(41))))
    path = combined_path(net, RHO, default_knots(-20, 20))
    assert validate(path, net).passed
    elapsed = time.perf_counter() - t0
    ok = worst_beta <= 1e-12 and elapsed < 60.0
    report(
        "AC-10",
        ok,
        f"size-independent decay bound (excess {worst_beta:.2e} <= 1e-12); "
        f"41-knot path at N=1000 in {elapsed:.1f}s (< 60s)",
    )
