"""Interconnection graphs, gains, aggregation functions and truncations.

A network couples a finite digraph (no self-loops, edges point from the
influencing node to the influenced one) with one class-K-infinity gain
per edge and one monotone aggregation function (MAF) per node.  Build
time validates the structural invariants and, for custom MAFs, samples
the monotonicity and equicontinuity axioms; sampling can only falsify,
never certify, which is why custom MAFs must declare their modulus and
positivity bound instead of having them inferred.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .kfun import KFun, KFunError, _distinct, identity, linear, pointwise_max, pointwise_min, power_kfun

__all__ = [
    "NetworkError",
    "Digraph",
    "MafSpec",
    "GainNetwork",
    "TruncationTemplate",
    "build_network",
    "neighborhood",
    "subnetwork",
    "is_strongly_connected",
    "graph_diameter",
    "gain_from_descriptor",
    "network_from_dict",
    "network_from_json",
    "chain_template",
]


_MAX_NODES = 1 << 20  # network files above this size are refused before anything is allocated


class NetworkError(ValueError):
    """Invalid network structure or falsified build-time axiom."""


@dataclass(frozen=True)
class Digraph:
    """Finite digraph stored as per-node ordered in-neighbor lists."""

    n: int
    in_neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise NetworkError("a network needs at least one node")
        if len(self.in_neighbors) != self.n:
            raise NetworkError("in-neighbor table size must match the node count")
        for i, nbrs in enumerate(self.in_neighbors):
            for j in nbrs:
                if not 0 <= j < self.n:
                    raise NetworkError(f"edge source {j} out of range")
                if j == i:
                    raise NetworkError(f"self-loop at node {i} is not allowed")
            if len(set(nbrs)) != len(nbrs):
                raise NetworkError(f"duplicate in-edge at node {i}")

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per-node out-neighbor lists, in ascending order."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, nbrs in enumerate(self.in_neighbors):
            for j in nbrs:
                out[j].append(i)
        return tuple(map(tuple, out))


@dataclass(frozen=True)
class MafSpec:
    """Monotone aggregation function for one node.

    ``max`` and ``sum`` need no extra data.  A ``custom`` rule must bring
    its own equicontinuity modulus and positivity lower bound; both are
    sampled at build time (falsification only).  The callable receives the
    1-d array of gained in-neighbor values, ordered like the in-neighbor
    list, and must be invariant under zero padding.
    """

    kind: str  # "max" | "sum" | "custom"
    func: Callable[[np.ndarray], float] | None = None
    modulus: KFun | None = None
    xi: KFun | None = None

    def __post_init__(self):
        if self.kind not in ("max", "sum", "custom"):
            raise NetworkError(f"unknown MAF kind {self.kind!r}")
        if self.kind == "custom" and (self.func is None or self.modulus is None or self.xi is None):
            raise NetworkError("custom MAFs must declare func, modulus and xi")

    def evaluate(self, values: np.ndarray) -> float:
        if values.size == 0:
            return 0.0
        if self.kind == "max":
            return float(np.max(values))
        if self.kind == "sum":
            return float(np.sum(values))
        return float(self.func(values))


MAX = MafSpec("max")
SUM = MafSpec("sum")


@dataclass(frozen=True)
class GainNetwork:
    """A digraph with per-edge gains and per-node aggregation rules.

    ``edges`` keeps file order (the deterministic order used everywhere);
    ``eta`` is the pointwise minimum of all gains (a uniform lower bound
    on every gain) and ``xi`` the aggregation positivity bound (identity
    for max/sum aggregation), both computed on first use.
    """

    graph: Digraph
    edges: tuple[tuple[int, int, KFun], ...]  # (src, dst, gain)
    mafs: tuple[MafSpec, ...]

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def eta(self) -> KFun:
        gains = [g for _, _, g in self.edges]
        return pointwise_min(gains) if gains else identity()

    @cached_property
    def xi(self) -> KFun:
        return pointwise_min([m.xi if m.kind == "custom" else identity() for m in self.mafs])

    @cached_property
    def uniform_maf(self) -> str | None:
        kinds = {m.kind for m in self.mafs}
        return kinds.pop() if len(kinds) == 1 else None

    @cached_property
    def all_gains_linear(self) -> bool:
        return all(g.is_linear for _, _, g in self.edges)

    @cached_property
    def edge_gain(self) -> dict[tuple[int, int], KFun]:
        return {(j, i): g for j, i, g in self.edges}

    @cached_property
    def _knot_table(self):
        """Edges into max and sum nodes as one knot table for ``dynamics._base_apply``.

        ``(src, dst, n_max, base, rank, grid, xs, ys, slopes, caps)``: ``n_max`` max
        edges, then the sum edges, each ordered by gain (first edge over all edges),
        then by file order, which fixes the summation order.  ``xs``, ``ys``, ``slopes``
        and ``caps`` concatenate the distinct gains' knots, ``grid`` merges them, and
        ``rank[base + j + 1]`` indexes the edge gain's segment containing ``[grid[j], grid[j + 1])``:
        ``base`` holds each edge's row offset minus one, so that a right-sided
        ``grid.searchsorted`` result adds to it directly.
        """
        gains = list({id(g): g for _, _, g in self.edges}.values())
        gid = {id(g): k for k, g in enumerate(gains)}
        kinds = {"max": 0, "sum": 1, "custom": 2}
        edges = sorted((kinds[self.mafs[i].kind], gid[id(g)], e, j, i) for e, (j, i, g) in enumerate(self.edges))
        kind, ids, _, src, dst = np.asarray([e for e in edges if e[0] < 2], dtype=int).reshape(-1, 5).T
        xs, ys, slopes, caps = (
            np.concatenate([np.zeros(0)] + [getattr(g, a) for g in gains]) for a in ("xs", "ys", "_out_slopes", "_caps")
        )
        grid = _distinct(xs)
        offsets = np.cumsum([0] + [len(g.xs) for g in gains])
        rank = np.concatenate(  # int32: the table is (distinct gains) x (merged knots)
            [np.zeros(0, int)] + [g.xs.searchsorted(grid, "right") - 1 + o for g, o in zip(gains, offsets)], dtype=np.int32
        )
        return src, dst[:, None], int(np.sum(kind == 0)), ids[:, None] * len(grid) - 1, rank, grid, xs, ys, slopes, caps

    @cached_property
    def _custom_in_edges(self):
        """Per custom node with in-edges: (node, sources, gains, MAF) in in-neighbor order."""
        return tuple(
            (i, nbrs, [self.edge_gain[(j, i)] for j in nbrs], self.mafs[i])
            for i, nbrs in enumerate(self.graph.in_neighbors)
            if nbrs and self.mafs[i].kind == "custom"
        )

    def lipschitz_modulus(self) -> KFun:
        """A global uniform-continuity modulus, exact for PL gains.

        Per node, a sup-norm perturbation of the state moves the gained
        in-values by at most the largest gain slope; max aggregation
        passes that through, sum aggregation multiplies by the in-degree
        row sum, and a custom rule wraps it in its declared modulus.  The
        network modulus is the pointwise maximum over nodes.
        """
        per_node: list[KFun] = []
        for i, nbrs in enumerate(self.graph.in_neighbors):
            if not nbrs:
                continue
            slopes = [self.edge_gain[(j, i)].max_slope for j in nbrs]
            kind = self.mafs[i].kind
            if kind == "sum":
                per_node.append(linear(sum(slopes)))
            elif kind == "max":
                per_node.append(linear(max(slopes)))
            else:
                per_node.append(self.mafs[i].modulus.compose(linear(max(slopes))))
        if not per_node:
            return linear(1e-12)  # edgeless: the operator is constant zero
        return pointwise_max(per_node)


def build_network(
    n_nodes: int,
    edges: Sequence[tuple[int, int, KFun]],
    mafs: MafSpec | Sequence[MafSpec] = MAX,
    *,
    validation_samples: int = 200,
) -> GainNetwork:
    """Assemble and validate a gain network.

    ``edges`` lists ``(src, dst, gain)`` in file order.  Custom MAFs are
    sampled (``validation_samples`` seeded draws per node) for monotonicity
    and for their declared modulus; a violated sample raises
    :class:`NetworkError`.
    """
    in_nbrs: list[list[int]] = [[] for _ in range(n_nodes)]
    for j, i, g in edges:
        if not isinstance(g, KFun):
            raise NetworkError("every edge needs a KFun gain")
        if not 0 <= i < n_nodes:
            raise NetworkError(f"edge target {i} out of range")
        in_nbrs[i].append(j)
    graph = Digraph(n_nodes, tuple(tuple(nb) for nb in in_nbrs))
    if isinstance(mafs, MafSpec):
        mafs = tuple(mafs for _ in range(n_nodes))
    else:
        mafs = tuple(mafs)
        if len(mafs) != n_nodes:
            raise NetworkError("need one MAF per node")
    net = GainNetwork(graph, tuple((j, i, g) for j, i, g in edges), mafs)
    _validate_custom_mafs(net, validation_samples)
    return net


def _validate_custom_mafs(net: GainNetwork, samples: int) -> None:
    custom = [(i, m) for i, m in enumerate(net.mafs) if m.kind == "custom"]
    if not custom:
        return
    rng = np.random.default_rng([0, 0x5AF])
    for i, m in custom:
        k = max(len(net.graph.in_neighbors[i]), 1)
        for _ in range(samples):
            lo = rng.uniform(0.0, 2.0, size=k)
            hi = lo + rng.uniform(0.0, 1.0, size=k)
            v_lo, v_hi = m.evaluate(lo), m.evaluate(hi)
            if v_lo > v_hi + 1e-12:
                raise NetworkError(f"custom MAF at node {i} violates monotonicity on a sample")
            gap = float(np.max(hi - lo))
            if v_hi - v_lo > m.modulus(gap) + 1e-9:
                raise NetworkError(f"custom MAF at node {i} violates its declared modulus on a sample")
            if m.evaluate(np.zeros(k)) != 0.0:
                raise NetworkError(f"custom MAF at node {i} must vanish at zero")
            norm = float(np.max(hi))
            # 0.5% relative slack: declared bounds are PL discretizations, so
            # between-knot chords of convex bounds may sit slightly high
            if v_hi < m.xi(norm) * 0.995 - 1e-9:
                raise NetworkError(f"custom MAF at node {i} falls below its declared positivity bound")


def neighborhood(graph: Digraph, i: int, depth: int) -> frozenset[int]:
    """Nodes reachable within ``depth`` steps against the edge direction.

    Depth zero is just ``{i}``; depth one adds the direct neighbors.
    """
    if not 0 <= i < graph.n:
        raise NetworkError(f"node {i} out of range")
    if depth < 0:
        raise NetworkError("depth must be nonnegative")
    return frozenset(_hops(graph.in_neighbors, i, depth))


def _hops(nbrs, i: int, depth: float = float("inf")) -> dict[int, int]:
    """Breadth-first hop counts from ``i`` along ``nbrs``, up to ``depth`` hops."""
    dist, order = {i: 0}, [i]
    for v in order:
        if dist[v] < depth:
            for w in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    order.append(w)
    return dist


def subnetwork(net: GainNetwork, nodes) -> GainNetwork:
    """Induced sub-network on ``nodes``, re-indexed to 0..len(nodes)-1.

    Gains restrict edge by edge and the aggregation rules are inherited
    unchanged.
    """
    nodes = sorted(set(int(v) for v in nodes))
    if not nodes:
        raise NetworkError("sub-network needs a nonempty node set")
    for v in nodes:
        if not 0 <= v < net.n:
            raise NetworkError(f"node {v} out of range")
    remap = {v: k for k, v in enumerate(nodes)}
    edges = [(remap[j], remap[i], g) for j, i, g in net.edges if j in remap and i in remap]
    mafs = tuple(net.mafs[v] for v in nodes)
    return build_network(len(nodes), edges, mafs)


def is_strongly_connected(graph: Digraph) -> bool:
    """Node 0 reaches every node and every node reaches node 0."""
    return len(_hops(graph.in_neighbors, 0)) == graph.n == len(_hops(graph.out_neighbors, 0))


def graph_diameter(graph: Digraph) -> int:
    """Longest shortest path over ordered pairs (graph must be strongly connected)."""
    if not is_strongly_connected(graph):
        raise NetworkError("diameter is only defined here for strongly connected graphs")
    return max(max(_hops(graph.in_neighbors, i).values()) for i in range(graph.n))


def _simple_cycles(graph: Digraph):
    """Every simple cycle once, as its node list from its least node, the
    lists in lexicographic order.

    Johnson's circuit search (SIAM J. Comput. 4(1), 1975): roots in
    ascending order, each searching the nodes above it, out-neighbors in
    ascending order, with Johnson's blocking sets.  Nodes outside the
    root's strongly connected component close no cycle and are skipped,
    which keeps graphs whose nodes lie on few cycles linear.
    """
    out, comp = graph.out_neighbors, _components(graph.out_neighbors)
    for s in range(graph.n):
        stack = [[s, iter(out[s]), False]]  # frames: node, its out-neighbors left, closed a cycle
        blocked, held = {s}, {}
        while stack:
            top = stack[-1]
            for w in top[1]:
                if w == s:
                    yield [frame[0] for frame in stack]
                    top[2] = True
                elif w > s and comp[w] == comp[s] and w not in blocked:
                    stack.append([w, iter(out[w]), False])
                    blocked.add(w)
                    break
            else:
                v, _, closed = stack.pop()
                if not closed:
                    for w in out[v]:
                        held.setdefault(w, set()).add(v)
                    continue
                if stack:
                    stack[-1][2] = True
                free = [v]
                while free:
                    u = free.pop()
                    if u in blocked:
                        blocked.remove(u)
                        free.extend(held.pop(u, ()))


def _components(nbrs) -> list[int]:
    """Strongly connected component label of each node (Tarjan, without recursion)."""
    n = len(nbrs)
    index, low, comp, stack, ticks = [-1] * n, [0] * n, [-1] * n, [], itertools.count()
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(ticks)
        stack.append(root)
        work = [(root, iter(nbrs[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = next(ticks)
                    stack.append(w)
                    work.append((w, iter(nbrs[w])))
                    break
                if comp[w] < 0:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while comp[v] < 0:
                        comp[stack.pop()] = v
    return comp


# -- truncation templates ------------------------------------------------


@dataclass(frozen=True)
class TruncationTemplate:
    """Shift-invariant in-neighbor rule for finite truncations.

    ``offsets`` maps each relative in-neighbor position to a shared gain;
    neighbors falling outside ``[0, N)`` are dropped, which makes the
    truncation coincide with the induced sub-network of the infinite
    template.
    """

    offsets: tuple[tuple[int, KFun], ...]
    maf: MafSpec = SUM

    def __post_init__(self):
        for d, g in self.offsets:
            if d == 0:
                raise NetworkError("offset 0 would create self-loops")
            if not isinstance(g, KFun):
                raise NetworkError("template offsets need KFun gains")

    def instantiate(self, n_nodes: int) -> GainNetwork:
        edges = []
        for i in range(n_nodes):
            for d, g in self.offsets:
                j = i + d
                if 0 <= j < n_nodes:
                    edges.append((j, i, g))
        return build_network(n_nodes, edges, self.maf)


def chain_template(gain: KFun, maf: MafSpec = SUM) -> TruncationTemplate:
    """Bidirectional chain: each node listens to its two lattice neighbors."""
    return TruncationTemplate(((-1, gain), (1, gain)), maf)


# -- parsing --------------------------------------------------------------


def gain_from_descriptor(desc: dict | str) -> tuple[KFun, str | None]:
    """Build a gain from its JSON descriptor; returns (gain, parse note).

    The shorthands ``linear:K`` and ``power:C:P`` stand for
    ``{"type": "linear", "k": K}`` and ``{"type": "power", "c": C, "p": P}``.
    A malformed descriptor raises :class:`NetworkError`.
    """
    if isinstance(desc, str):
        kind, *values = desc.split(":")
        fields = {"linear": ("k",), "power": ("c", "p")}.get(kind)
        if fields is None or len(values) != len(fields):
            raise NetworkError(f"cannot parse comparison function {desc!r}")
        desc = {"type": kind, **dict(zip(fields, values))}
    if not isinstance(desc, dict):
        raise NetworkError(f"a gain descriptor must be a JSON object, not {desc!r}")
    kind = desc.get("type")
    try:
        if kind == "linear":
            return linear(float(desc["k"])), None
        if kind == "power":
            lo, hi = desc.get("range", (1e-4, 1e4))
            f, err = power_kfun(float(desc["c"]), float(desc["p"]), float(lo), float(hi))
            return f, f"power gain discretized on [{lo}, {hi}] with max relative midpoint error {err:.3e}"
        if kind == "pl":
            pts = np.asarray(desc["points"], dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise ValueError("points must be a list of [x, y] pairs")
            return KFun(pts[:, 0], pts[:, 1], float(desc["final_slope"])), None
    except KeyError as exc:
        raise NetworkError(f"{kind} gain descriptor lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise NetworkError(f"invalid {kind} gain descriptor: {exc}") from exc
    raise NetworkError(f"unknown gain descriptor type {kind!r}")


def _maf_from_descriptor(desc) -> MafSpec:
    if desc == "max":
        return MAX
    if desc == "sum":
        return SUM
    raise NetworkError(f"unsupported MAF descriptor {desc!r} (custom MAFs are library-only)")


def _json_list(data: dict, key: str) -> list:
    items = data.get(key, [])
    if not isinstance(items, list):
        raise NetworkError(f"{key!r} must be a JSON list, not {type(items).__name__}")
    return items


def network_from_dict(data: dict) -> tuple[GainNetwork, list[str]]:
    """Parse the network file schema.

    Schema: ``{"nodes": N, "edges": [{"from": j, "to": i, "gain": {...}}],
    "maf": "max"|"sum", "template": {"offsets": [{"offset": d, "gain": {...}}]}}``.
    When a template is present it generates the edges; explicit edges are
    then not allowed.  Edge order is file order.
    """
    notes: list[str] = []
    try:
        nodes = data["nodes"]
        if isinstance(nodes, bool) or (isinstance(nodes, float) and not nodes.is_integer()):
            raise ValueError(f"{nodes!r} is not a whole number")
        n = int(nodes)
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkError(f"missing or invalid 'nodes' field: {exc}") from exc
    if n > _MAX_NODES:
        raise NetworkError(f"'nodes' is {n}, above the limit of {_MAX_NODES} nodes")
    maf = _maf_from_descriptor(data.get("maf", "max"))
    if "template" in data:
        if data.get("edges"):
            raise NetworkError("give either 'edges' or 'template', not both")
        template = data["template"]
        if not isinstance(template, dict):
            raise NetworkError(f"'template' must be a JSON object, not {type(template).__name__}")
        offsets = []
        for k, item in enumerate(_json_list(template, "offsets")):
            try:
                g, note = gain_from_descriptor(item["gain"])
                offsets.append((int(item["offset"]), g))
            except (KeyError, TypeError, ValueError) as exc:
                raise NetworkError(f"invalid template offset at position {k}: {exc}") from exc
            if note:
                notes.append(note)
        if not offsets:
            raise NetworkError("template needs at least one offset")
        template = TruncationTemplate(tuple(offsets), maf)
        return template.instantiate(n), notes
    edges = []
    cache: dict[str, KFun] = {}
    for k, e in enumerate(_json_list(data, "edges")):
        try:
            j, i = int(e["from"]), int(e["to"])
            key = json.dumps(e["gain"], sort_keys=True)
            if key not in cache:
                g, note = gain_from_descriptor(e["gain"])
                if note:
                    notes.append(f"edge {k}: {note}")
                cache[key] = g
            edges.append((j, i, cache[key]))
        except (KeyError, TypeError, ValueError, KFunError) as exc:
            raise NetworkError(f"invalid edge entry at position {k}: {exc}") from exc
    return build_network(n, edges, maf), notes


def _read_json(path: str) -> tuple[object, str]:
    """The JSON value in the file at ``path`` and the sha256 digest of the bytes it was parsed from."""
    import hashlib

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise NetworkError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def network_from_json(path: str) -> tuple[GainNetwork, list[str], str]:
    """Load a network file; returns (network, parse notes, sha256 digest)."""
    data, digest = _read_json(path)
    return (*network_from_dict(data), digest)
