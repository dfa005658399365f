"""``cone_samples``' bulk decode against the call-by-call draw it replaces.

``serial_cone_samples`` is a copy of the sampler as it drew its random
columns before the decode: one ``rng`` call (or two) per column.  The
bulk decode must give the same bytes for every network, budget, cap and
enlargement, including when it falls back to a group drawn call by call.
The digests at the end pin the draw itself: they were computed with the
call-by-call sampler, so a numpy whose PCG64 words, doubles or bounded
integers differ fails them.
"""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sglab.smallgain as smallgain_mod
from sglab import MAX, SUM, SamplerConfig, build_network, chain_template, cone_samples, cycle_profile, linear, sup_norm
from sglab.network import network_from_json
from sglab.smallgain import _lemire, _sample_cycles
from conftest import random_kfun

GOLDEN = Path(__file__).parent / "golden"


def serial_cone_samples(net, cfg, rho=None, scale_cap=None):
    """The sampler with its per-column draw loop."""
    n = net.n
    lo, hi = 1e-3, 8.0
    if scale_cap is not None:
        hi = min(hi, scale_cap)
        lo = min(lo, hi / 1024.0)
    log_lo, log_hi = np.log(lo), np.log(hi)
    levels = np.geomspace(lo, hi, 9)
    s = np.zeros((n, cfg.budget))
    k = 0

    def put(value, row=slice(None)):
        nonlocal k
        if k < cfg.budget:
            s[row, k] = value
        k += 1

    put(min(1.0, hi))
    for r in levels:
        put(r)
    ends = (levels[0], levels[len(levels) // 2], levels[-1])
    for i in range(min(n, 32)):
        for r in ends:
            put(r, i)
    cycles, _ = _sample_cycles(net)
    for cyc in cycles:
        for r in ends:
            prof = cycle_profile(net, cyc, r, rho)
            m = sup_norm(prof)
            if m > 0 and scale_cap is not None and m > scale_cap:
                prof = prof * (scale_cap / m)
            put(prof)
    rng = np.random.default_rng([cfg.seed, 0xC0DE])
    for j in range(k, cfg.budget):
        mode = (j - k) % 3
        if mode == 0:
            s[:, j] = np.exp(rng.uniform(log_lo, log_hi))
        elif mode == 1:
            r = np.exp(rng.uniform(log_lo, log_hi))
            s[int(rng.integers(n)), j] = r
        else:
            v = np.exp(rng.uniform(log_lo, log_hi, size=n)) * rng.uniform(0.0, 1.0, size=n)
            m = sup_norm(v)
            if m > 0:
                target = np.exp(rng.uniform(log_lo, log_hi))
                v = v * (target / m)
            s[:, j] = v
    if scale_cap is not None:
        norms = np.max(s, axis=0)
        over = norms > scale_cap
        if np.any(over):
            s[:, over] *= scale_cap / norms[over]
    return s


def prefix_length(net):
    return 1 + 9 + 3 * min(net.n, 32) + 3 * len(_sample_cycles(net)[0])


def make_network(n, kind, seed):
    """Random network on ``n`` nodes around a ring: max, sum, or max and sum nodes mixed."""
    rng = np.random.default_rng(seed)
    extra = 0.5 if n <= 5 else 0.003  # chords; few on large rings, whose cycles are long
    pairs = [(j, i) for i in range(n) for j in range(n) if i != j and (i == (j + 1) % n or rng.random() < extra)]
    edges = [(j, i, random_kfun(rng)) for j, i in pairs]
    mafs = {"max": MAX, "sum": SUM, "mixed": [MAX if rng.random() < 0.5 else SUM for _ in range(n)]}[kind]
    return build_network(n, edges, mafs)


CASES = [(n, kind) for n in (1, 2, 3, 5) for kind in ("max", "sum", "mixed")] + [(40, "mixed")]
SEEDS = (0, 7, 123)


@pytest.mark.parametrize("n,kind", CASES, ids=[f"{kind}{n}" for n, kind in CASES])
def test_same_bytes_as_serial_draw(n, kind):
    """Budgets from one below the prefix length k to k + 7, and 10**4."""
    net = make_network(n, kind, seed=100 * n + len(kind))
    k = prefix_length(net)
    for rho in (None, linear(0.1)):
        for cap in (None, 1.0, 0.01):
            for budget in [*range(max(k - 1, 1), k + 8), 10_000]:
                cfg = SamplerConfig(seed=SEEDS[budget % 3], budget=budget)
                assert cone_samples(net, cfg, rho, cap).tobytes() == serial_cone_samples(net, cfg, rho, cap).tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_one_group_chunks_carry_the_buffered_half(n, monkeypatch):
    """Chunks of one group each: the half word buffered by one chunk's last
    integer draw must be the next chunk's first."""
    monkeypatch.setattr(smallgain_mod, "_DRAW_CHUNK_ELEMENTS", 1)
    net = make_network(n, "mixed", seed=n)
    cfg = SamplerConfig(seed=3, budget=prefix_length(net) + 300)
    assert cone_samples(net, cfg).tobytes() == serial_cone_samples(net, cfg).tobytes()


@pytest.mark.parametrize("n,elements", [(1, 1 << 16), (2, 1 << 16), (3, 1 << 16), (5, 40), (40, 1 << 16)])
def test_rewound_groups_keep_the_bytes(n, elements, monkeypatch):
    """Groups 0, 1, 2 and the last are flagged rare, so each is rewound and
    drawn call by call; the rest of the stream must not move."""
    monkeypatch.setattr(smallgain_mod, "_DRAW_CHUNK_ELEMENTS", elements)
    net = make_network(n, "sum", seed=n)
    k = prefix_length(net)
    budget = k + 3 * 50 + 2
    last = 49
    rare, draw_group = smallgain_mod._rare_groups, smallgain_mod._draw_group
    next_group, drawn = [0], []

    def flag(rejected, norms):
        out = rare(rejected, norms) | np.isin(next_group[0] + np.arange(len(norms)), [0, 1, 2, last])
        hit = np.flatnonzero(out)
        next_group[0] += int(hit[0]) + 1 if hit.size else len(norms)
        return out

    def serial_group(rng, s, j0, log_lo, log_hi):
        drawn.append((j0 - k) // 3)
        draw_group(rng, s, j0, log_lo, log_hi)

    monkeypatch.setattr(smallgain_mod, "_rare_groups", flag)
    monkeypatch.setattr(smallgain_mod, "_draw_group", serial_group)
    for cap in (None, 0.01):
        drawn.clear()
        next_group[0] = 0
        cfg = SamplerConfig(seed=11, budget=budget)
        assert cone_samples(net, cfg, scale_cap=cap).tobytes() == serial_cone_samples(net, cfg, scale_cap=cap).tobytes()
        assert drawn == [0, 1, 2, last, 50]  # 50: the trailing part-group


@pytest.mark.parametrize("n", [3, 6, 3 * 2**30, 2**31 + 1, 2**32 - 1])
def test_lemire_decode_matches_integers(n):
    """Halves taken low then high from each word, a rejected half replaced by
    the next one: the same values as ``Generator.integers(n)``."""
    seed = [5, n % 1000]
    words = np.random.default_rng(seed).bit_generator.random_raw(4000)
    halves = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=1).ravel()
    rows, rejected = _lemire(halves, n)
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


def test_sampler_stays_near_its_output_size():
    """Temporaries stay bounded beside the (n, budget) matrix on a 1,000-node chain."""
    net = chain_template(linear(0.25), SUM).instantiate(1000)
    _sample_cycles(net)  # the prefix's cycles are enumerated once per network, outside the trace
    tracemalloc.start()
    try:
        s = cone_samples(net, SamplerConfig(seed=0, budget=10_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= s.nbytes + 16 * 2**20


# sha256 of cone_samples(...).tobytes() from the call-by-call sampler, keyed by
# (golden network, seed, scale_cap, budget)
DIGESTS = {
    ("cross3_max", 0, None, 200): "ed32325ca0135b71a609d563cc8b34a16f4cbf2283ec57e38b0255f6e27f6f3e",
    ("cross3_max", 0, None, 10000): "bf3a36835472b1ec890ba3ac80ddc6e84f79630091087713871c23c122e82450",
    ("cross3_max", 0, 1.0, 200): "002e1c991033cf73218fa016b5eab50fcc28e4574a647ff7f363c944c9f37ba4",
    ("cross3_max", 0, 1.0, 10000): "a706c6f131f15bd50f0bae02f185a67c29cf6439b0fbb796a237cc7920689a51",
    ("cross3_max", 7, None, 200): "7e7b69a03bc71b06e32b8c5d6c454449130e29e9c98a8eea13181a8c25312f86",
    ("cross3_max", 7, None, 10000): "5575447c7084fa61cbcf2d1dd1bfd5cd378c3fb19b5049ba13d2e800fda437ea",
    ("cross3_max", 7, 1.0, 200): "bc327f0badf23e261a03bb607c13fb3d60da9de8046d33c6a1ba527e38173f75",
    ("cross3_max", 7, 1.0, 10000): "947029aacf2abe4c3c6ded39d109bcac2e041a3b2a8c436cbe3aea42cc8466d4",
    ("ring3_max", 0, None, 200): "185e718636186b8846faa74957bd7952c82bff1cdf8956ee61635211ffdc3018",
    ("ring3_max", 0, None, 10000): "435379a48ca3bb2f538c2e92799668161972ee853476a5d6ec8a60a5d66f4c90",
    ("ring3_max", 0, 1.0, 200): "d073dc7d00bfeb1ba086dcacd07aa06191ac4041dd9764efe514a25808d43d21",
    ("ring3_max", 0, 1.0, 10000): "8ac61d50c6f49a4f6e16e9a5281a15a932958b4032ed97bfc781f2bec7b77d29",
    ("ring3_max", 7, None, 200): "0c68a09493df788c48c88aa199dbb0d2e7a516551333e2302c13719e67490633",
    ("ring3_max", 7, None, 10000): "334894998afd22ac892b1afeea568565c10c24ace746426b1e0e7d2d0a3a5e12",
    ("ring3_max", 7, 1.0, 200): "b4df1bd29830be322b35d8d1daab7ba69be210cb7a723de3760f81a09e62719a",
    ("ring3_max", 7, 1.0, 10000): "32c2f3378db50a92fbecf05da21e6a1e2b3ceae6b24376b5f0e969734fe50317",
    ("sum4_linear", 0, None, 200): "e0459a7177511a09cc1a5fec2958ade9a9f51a80c46bc9c3a298b5438f839e58",
    ("sum4_linear", 0, None, 10000): "418fcb8f5de1e441479348eb00659e26672aecf3919228cce1737e3c9454c892",
    ("sum4_linear", 0, 1.0, 200): "24cc97b1776408db8549f4621796150ce68effb04c167cff8c75f79a394e2b7a",
    ("sum4_linear", 0, 1.0, 10000): "51a7f4057e4fc4a7c0781540dd1d8275705b506c3195f8ade6a256ec19cc253a",
    ("sum4_linear", 7, None, 200): "8acfac1a9515a53350a1ca913178aa8f2b1cffe6ab530c4098b768641ea7bdeb",
    ("sum4_linear", 7, None, 10000): "291542f0add5e3c7eac8492f96e511e6cbb6b3430d21045a125273b8333a0a05",
    ("sum4_linear", 7, 1.0, 200): "63d17934a894ffc4648bd727a0d42bd99362afe3e09844e51a9dccda1b6ff052",
    ("sum4_linear", 7, 1.0, 10000): "21210d15ffb848fd09b6ed35896a56fe5ee7edf0fb51bd1aa7dce8c8fde4b6f3",
    ("sum5_pl_power", 0, None, 200): "8097c7974220f4bc08fde1b57746267d5f7c7d20aa376b9691b195ae7e84d503",
    ("sum5_pl_power", 0, None, 10000): "903c73587483cb5883fafac92c55181e14f271cfbc1237611f64c8fedcf3e22a",
    ("sum5_pl_power", 0, 1.0, 200): "1f2a04502f0886b0188b999686ef43946e289a6d8af9fdae5bc7425c0ca57c2e",
    ("sum5_pl_power", 0, 1.0, 10000): "18ff4124331c4eb36dfd72dca58a0890ce67853a836c32d12e257110fe9b649f",
    ("sum5_pl_power", 7, None, 200): "f3137f964b51ddd03086b067623076da2f3ecf8ec744f3e67a2d7050806a9e73",
    ("sum5_pl_power", 7, None, 10000): "b1edecf5c247bbe2c50438f331286f5a49382a5a914a5a1cf6dc4a6cbdbbb0c3",
    ("sum5_pl_power", 7, 1.0, 200): "66adf6c2a2338a4925569cfff839fe667d0156717542bc61f6fc10a792229bc9",
    ("sum5_pl_power", 7, 1.0, 10000): "92b3549438f9a88ac3e55a64ee5555c207e84fcdfe363b93b31b069b899751ba",
}


@pytest.mark.parametrize("key", sorted(DIGESTS, key=repr), ids=lambda key: "-".join(map(str, key)))
def test_draw_contract_digest(key):
    name, seed, cap, budget = key
    net = network_from_json(str(GOLDEN / f"{name}.json"))[0]
    s = cone_samples(net, SamplerConfig(seed=seed, budget=budget), scale_cap=cap)
    assert hashlib.sha256(s.tobytes()).hexdigest() == DIGESTS[key]
