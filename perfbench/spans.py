"""Spans and counts around sglab's public entry points, installed from outside.

Each wrapper replaces a name where sglab looks it up (a class attribute,
or a module global in ``sglab.cli``, ``sglab.smallgain``, ``sglab.paths``
or ``sglab.network``) and records one span per call: name, start, end
and parent.  A span's self time is its duration minus the time its child
spans cover.  ``networkx.simple_cycles`` is wrapped as ``sglab.smallgain``
sees it; each draw from its generator is one span, so the time spent
draining it is included.

Spans and counts stay in memory; :meth:`Tracer.dump` writes the spans of
the first traced round when the run ends.
"""

from __future__ import annotations

import importlib
import json
import re
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (span name, owner of the name, attribute); wrappers sharing a span name pool their numbers
TIMED = [
    ("kfun.eval", "sglab.kfun:KFun", "__call__"),
    ("kfun.compose", "sglab.kfun:KFun", "compose"),
    ("dynamics.apply", "sglab.dynamics:GainOperator", "__call__"),
    ("network.load", "sglab.cli", "network_from_json"),
    ("network.load", "sglab.cli", "network_from_dict"),
    ("network.build", "sglab.network", "build_network"),
    ("dynamics.stability_battery", "sglab.cli", "stability_battery"),
    ("dynamics.min_fixed_point", "sglab.smallgain", "min_fixed_point"),
    ("dynamics.min_fixed_point", "sglab.paths", "min_fixed_point"),
    ("dynamics.max_fixed_point", "sglab.paths", "max_fixed_point"),
    ("dynamics.iterate", "sglab.cli", "iterate"),
    ("dynamics.iterate", "sglab.paths", "iterate"),
    ("dynamics.cofinality_witness", "sglab.paths", "cofinality_witness"),
    ("dynamics.cofinality_witness", "sglab.smallgain", "cofinality_witness"),
    ("smallgain.cone_samples", "sglab.smallgain", "cone_samples"),
    ("smallgain.nji_probe", "sglab.cli", "nji_probe"),
    ("smallgain.uniform_nji_probe", "sglab.cli", "uniform_nji_probe"),
    ("smallgain.max_mbi_probe", "sglab.cli", "max_mbi_probe"),
    ("smallgain.cycle_gain_check", "sglab.cli", "cycle_gain_check"),
    ("smallgain.spectral_condition", "sglab.cli", "spectral_condition"),
    ("paths.minimal_path", "sglab.cli", "minimal_path"),
    ("paths.combined_path", "sglab.cli", "combined_path"),
    ("paths.orbit_path", "sglab.cli", "orbit_path"),
    ("paths.regularize", "sglab.cli", "regularize"),
    ("paths.validate", "sglab.cli", "validate"),
    ("certificate.to_json", "sglab.certificate:Certificate", "to_json"),
]

# per_layer metrics: name -> (unit, better); every one is reported per round
METRICS = {
    "kfun.eval.calls": ("count", "lower"),
    "kfun.eval.self_s": ("s", "lower"),
    "kfun.compose.calls": ("count", "lower"),
    "kfun.compose.self_s": ("s", "lower"),
    "network.load.s": ("s", "lower"),
    "network.build.s": ("s", "lower"),
    "network.edges": ("count", "lower"),
    "dynamics.apply.calls": ("count", "lower"),
    "dynamics.apply.columns": ("count", "lower"),
    "dynamics.apply.self_s": ("s", "lower"),
    "dynamics.stability_battery.s": ("s", "lower"),
    "dynamics.min_fixed_point.calls": ("count", "lower"),
    "dynamics.min_fixed_point.iterations": ("count", "lower"),
    "dynamics.min_fixed_point.s": ("s", "lower"),
    "dynamics.max_fixed_point.calls": ("count", "lower"),
    "dynamics.max_fixed_point.s": ("s", "lower"),
    "dynamics.iterate.steps": ("count", "lower"),
    "dynamics.iterate.s": ("s", "lower"),
    "dynamics.cofinality_witness.s": ("s", "lower"),
    "smallgain.cone_samples.s": ("s", "lower"),
    "smallgain.cone_samples.mb": ("MB", "lower"),
    "smallgain.cycles.count": ("count", "lower"),
    "smallgain.cycles.s": ("s", "lower"),
    "smallgain.nji_probe.s": ("s", "lower"),
    "smallgain.nji_probe.used_ratio": ("ratio", "higher"),
    "smallgain.uniform_nji_probe.s": ("s", "lower"),
    "smallgain.max_mbi_probe.s": ("s", "lower"),
    "smallgain.cycle_gain_check.s": ("s", "lower"),
    "smallgain.spectral_condition.s": ("s", "lower"),
    "paths.minimal_path.s": ("s", "lower"),
    "paths.combined_path.s": ("s", "lower"),
    "paths.orbit_path.s": ("s", "lower"),
    "paths.regularize.s": ("s", "lower"),
    "paths.validate.s": ("s", "lower"),
    "paths.knots": ("count", "lower"),
    "certificate.to_json.s": ("s", "lower"),
    "certificate.bytes": ("count", "lower"),
}


# counts taken from a wrapped call: span name -> (result, args) -> [(count name, amount)]
COUNTS = {
    "dynamics.apply": lambda res, args: [("dynamics.apply.columns", args[1].shape[1] if args[1].ndim == 2 else 1)],
    "network.build": lambda net, args: [("network.edges", len(net.edges))],
    "dynamics.min_fixed_point": lambda res, args: [("dynamics.min_fixed_point.iterations", res.iterations)],
    "dynamics.iterate": lambda traj, args: [("dynamics.iterate.steps", len(traj.states) - 1)],
    "smallgain.cone_samples": lambda s, args: [("smallgain.cone_samples.mb", s.nbytes / 1e6), ("cone.columns", s.shape[1])],
    "certificate.to_json": lambda text, args: [("certificate.bytes", _bytes_outside_timing(text))],
}


def _bytes_outside_timing(text: str) -> int:
    """Certificate length without the digits of ``wall_seconds``, the one part that varies."""
    m = re.search(r'"wall_seconds": ([^\s,}]+)', text)
    return len(text) - (len(m.group(1)) if m else 0)


def _resolve(owner: str):
    mod, _, cls = owner.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them again."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [name id, start, child time, span index]
        self._saved: list[tuple[object, str, object]] = []
        self.keep_spans = True
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, float] = defaultdict(float)

    # -- recording -------------------------------------------------------------

    def new_round(self) -> None:
        for table in (self.total, self.self_time, self.calls, self.count):
            table.clear()

    def _enter(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        frame = [nid, time.perf_counter(), 0.0, -1]
        if self.keep_spans:
            frame[3] = len(self.span_start)
            self.span_name.append(nid)
            self.span_start.append(frame[1])
            self.span_end.append(0.0)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        name = self.names[frame[0]]
        self.total[name] += dur
        self.self_time[name] += dur - frame[2]
        self.calls[name] += 1
        if frame[3] >= 0:
            self.span_end[frame[3]] = end

    def wrap(self, name: str, fn):
        tracer, hook = self, COUNTS.get(name)

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                for key, amount in hook(result, args):
                    tracer.count[key] += amount
            return result

        return traced

    def _traced_simple_cycles(self, real):
        tracer = self

        def simple_cycles(*args, **kwargs):
            gen = real(*args, **kwargs)
            while True:
                frame = tracer._enter("smallgain.cycles")
                try:
                    cycle = next(gen, None)
                finally:
                    tracer._exit(frame)
                if cycle is None:
                    return
                tracer.count["smallgain.cycles.count"] += 1
                yield cycle

        return simple_cycles

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import networkx
        import sglab.smallgain

        count = self.count
        for name, owner_path, attr in TIMED:
            owner = _resolve(owner_path)
            traced = self.wrap(name, owner.__dict__[attr])
            if name == "smallgain.nji_probe":

                def traced(*args, _inner=traced, **kwargs):
                    before = count["cone.columns"]
                    verdict = _inner(*args, **kwargs)
                    count["nji.used"] += verdict.samples
                    count["nji.generated"] += count["cone.columns"] - before
                    return verdict

            elif name == "paths.validate":

                def traced(path, *args, _inner=traced, **kwargs):
                    count["paths.knots"] += len(path.r_grid)
                    return _inner(path, *args, **kwargs)

            self._patch(owner, attr, traced)

        class NetworkxSeenBySmallgain:
            def __getattr__(self, name):
                return getattr(networkx, name)

        proxy = NetworkxSeenBySmallgain()
        proxy.simple_cycles = self._traced_simple_cycles(networkx.simple_cycles)
        self._patch(sglab.smallgain, "nx", proxy)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- results ---------------------------------------------------------------------

    def round_metrics(self) -> dict[str, float]:
        """Every per_layer metric for the round recorded since :meth:`new_round`."""
        out: dict[str, float] = {}
        for name, (unit, _) in METRICS.items():
            stem, _, field = name.rpartition(".")
            if name == "smallgain.nji_probe.used_ratio":
                gen = self.count["nji.generated"]
                out[name] = self.count["nji.used"] / gen if gen else 0.0
            elif field == "calls":
                out[name] = self.calls[stem]
            elif field == "self_s":
                out[name] = self.self_time[stem]
            elif field == "s":
                out[name] = self.total[stem]
            else:
                out[name] = self.count[name]
        return out

    def dump(self, path: Path) -> None:
        """Write the kept spans as JSON: names, then (name, start, end, parent) rows."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        rows = [
            [self.span_name[k], round(self.span_start[k] - t0, 9), round(self.span_end[k] - t0, 9), self.span_parent[k]]
            for k in range(len(self.span_start))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": rows}) + "\n")
