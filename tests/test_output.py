"""Byte equality of the certificate and CSV writers with the serializers
they replaced, kept here frozen: ``_plain`` followed by
``json.dumps(..., sort_keys=True, indent=2)``, and the per-cell CSV loop.

The one deliberate difference: a NaN numpy scalar is written as ``null``
like every other NaN, where the old path wrote the bare token ``NaN``.
"""

import io
import json
import random

import numpy as np
import pytest

from sglab.certificate import Certificate, _dump
from sglab.cli import _CSV_CHUNK_CELLS, _write_csv, main
from sglab.cone import sup_norm
from sglab.dynamics import StopRule, as_operator, iterate
from sglab.network import network_from_dict
from sglab.smallgain import SgcVerdict

# -- the frozen serializers --------------------------------------------------


def old_plain(obj):
    if isinstance(obj, dict):
        return {str(k): old_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [old_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and obj != obj:
        return None
    return obj


def old_dumps(obj) -> str:
    return json.dumps(old_plain(obj), sort_keys=True, indent=2)


def old_write_csv(rows, header, out):
    out.write(",".join(header) + "\n")
    for row in rows:
        cells = [str(c) if isinstance(c, (int, str)) else "%.17g" % c for c in row]
        out.write(",".join(cells) + "\n")


def dumps(obj) -> str:
    out = []
    _dump(obj, "", out)
    return "".join(out)


# -- random trees ------------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-7, 0.1, 1 / 3, 1e308, 2.0**53, float("inf"), float("-inf")]
STRINGS = ["", "ring", 'say "hi"', "back\\slash", "tab\tnew\nline\x00", "π ü ß", "中文", "emoji 😀", " ", "'"]


def random_float(rng: random.Random) -> float:
    if rng.random() < 0.4:
        return rng.choice(EDGE_FLOATS)
    return rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 308)


def random_array(rng: random.Random) -> np.ndarray:
    shape = rng.choice([(0,), (1,), (rng.randint(2, 6),), (rng.randint(1, 4), rng.randint(1, 4)), (0, 3)])
    kind = rng.choice(["float", "float", "int", "bool"])
    size = int(np.prod(shape))
    if kind == "float":
        vals = [random_float(rng) if rng.random() < 0.9 else float("nan") for _ in range(size)]
        return np.array(vals, dtype=float).reshape(shape)
    if kind == "int":
        return np.array([rng.randint(-(2**40), 2**40) for _ in range(size)], dtype=np.int64).reshape(shape)
    return np.array([rng.random() < 0.5 for _ in range(size)], dtype=bool).reshape(shape)


def random_leaf(rng: random.Random):
    pick = rng.randrange(15)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.choice([0, 1, -1, 2**70, -(2**63), rng.randint(-1000, 1000)])
    if pick == 3:
        return random_float(rng)
    if pick == 4:
        return float("nan")
    if pick == 5:
        return np.bool_(rng.random() < 0.5)
    if pick == 6:
        return np.int64(rng.randint(-(2**62), 2**62))
    if pick == 7:
        return np.float64(random_float(rng))
    if pick == 8:
        return np.float32(rng.uniform(-1e3, 1e3))
    if pick == 9:
        return rng.choice(STRINGS)
    if pick == 10:
        return random_array(rng)
    if pick == 11:
        return [random_float(rng) for _ in range(rng.randint(1, 6))]  # the all-float list
    if pick == 12:
        return [rng.uniform(0, 1), float("nan"), rng.uniform(0, 1)]
    if pick == 13:
        return [1.0, True, 2, 3.5]  # bools and ints next to floats
    return rng.choice([[], {}, ()])


def random_tree(rng: random.Random, depth: int = 0):
    if depth >= 4 or rng.random() < 0.3:
        return random_leaf(rng)
    width = rng.randint(0, 5)
    shape = rng.randrange(3)
    if shape == 0:
        keys = [rng.choice(STRINGS + ["b", "a", "Z", "10", "9"]) if rng.random() < 0.6 else rng.randint(-20, 20) for _ in range(width)]
        return {k: random_tree(rng, depth + 1) for k in keys}
    items = [random_tree(rng, depth + 1) for _ in range(width)]
    return tuple(items) if shape == 1 else items


# -- JSON --------------------------------------------------------------------


class TestJsonBytes:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_trees(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            tree = random_tree(rng)
            assert dumps(tree) == old_dumps(tree)

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": ()},
            {2: "two", 10: "ten", "1": "one"},
            {1: "int key", "1": "str key"},
            [True, 1, False, 0, np.bool_(True), np.int64(1)],
            [-0.0, 5e-324, 1e16, 1e-5, float("inf"), float("-inf")],
            np.array([[1.5, -0.0], [float("inf"), 1e-5]]),
            np.array([], dtype=float),
            np.zeros((0, 3)),
            {"quote": 'a "b" c', "uni": "π → ∞", "ctl": "\x01\x1f"},
            [np.float64(1e16), np.float32(0.1), np.int64(-(2**63))],
            [[1.0, 2.0], [3.0, float("nan")], [float("inf")]],
            2**80,
            "top-level string",
        ],
    )
    def test_edge_cases(self, obj):
        assert dumps(obj) == old_dumps(obj)

    @pytest.mark.parametrize("obj", [{1, 2}, object(), 1j, np.complex128(1j), {"a": [b"bytes"]}])
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            old_dumps(obj)
        with pytest.raises(TypeError):
            dumps(obj)

    def test_certificate_matches_old_body(self):
        rng = random.Random(99)
        cert = Certificate("check", "abc123", 7, notes=["a note", "π"])
        cert.verdicts = [SgcVerdict(f"c{k}", "evidence", random_tree(rng), random_tree(rng)) for k in range(5)]
        cert.verdicts.append(SgcVerdict("spectral", "pass", witness={"norms": np.arange(4)}))
        cert.stability = {"kl_table": np.random.default_rng(1).random((3, 4)), "gatt_per_r": [True, False]}
        cert.paths = [{"report": random_tree(rng)}]
        cert.extras = {"truncation_sweep": [{"N": 10, "beta_1_16": 0.25}]}
        body = {
            "tool_version": "0.1.0",
            "schema_version": 1,
            "command": "check",
            "input_digest": "abc123",
            "seed": 7,
            "verdicts": [v.to_dict() for v in cert.verdicts],
            "stability": cert.stability,
            "paths": cert.paths,
            "notes": cert.notes,
            "extras": cert.extras,
        }
        assert cert.to_json(with_timing=False) == old_dumps(body)
        timed = json.loads(cert.to_json())
        assert timed.keys() == old_plain(body).keys() | {"timing"}

    def test_every_nan_is_null(self):
        tree = {"py": float("nan"), "np64": np.float64("nan"), "np32": np.float32("nan"), "arr": np.array([np.nan, 1.0])}
        text = dumps(tree)
        assert json.loads(text) == {"py": None, "np64": None, "np32": None, "arr": [None, 1.0]}
        assert "NaN" not in text
        # the replaced serializer wrote a numpy-scalar NaN as the bare token NaN, which is not JSON
        assert '"np64": NaN' in old_dumps(tree) and '"py": null' in old_dumps(tree)


# -- CSV ---------------------------------------------------------------------


def random_table(rng: np.random.Generator, n_rows: int, n_cols: int) -> np.ndarray:
    table = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
    special = rng.random((n_rows, n_cols))
    table[special < 0.05] = np.inf
    table[(special >= 0.05) & (special < 0.1)] = np.nan
    table[(special >= 0.1) & (special < 0.15)] = -0.0
    table[(special >= 0.15) & (special < 0.2)] = rng.choice([5e-324, 1e16, 1e-5, -np.inf], size=int(((special >= 0.15) & (special < 0.2)).sum()))
    return table


def new_csv(table: np.ndarray, header: list[str]) -> str:
    out = io.StringIO()
    _write_csv(header, out, len(table), lambda lo, hi: table[lo:hi])
    return out.getvalue()


class TestCsvBytes:
    @pytest.mark.parametrize("n_cols", [1, 3, 7])
    def test_float_tables_around_the_chunk_size(self, n_cols):
        rng = np.random.default_rng(n_cols)
        chunk = _CSV_CHUNK_CELLS // n_cols
        header = ["r"] + [f"x{i}" for i in range(n_cols - 1)]
        for n_rows in (0, 1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            table = random_table(rng, n_rows, n_cols)
            old = io.StringIO()
            old_write_csv(([r[0]] + list(r[1:]) for r in table), header, old)  # as cmd_path built its rows
            assert new_csv(table, header) == old.getvalue(), n_rows

    def test_step_column_and_rows_wider_than_a_chunk(self):
        rng = np.random.default_rng(5)
        for n_cols in (4, _CSV_CHUNK_CELLS + 5):
            header = ["step"] + [f"x{i}" for i in range(n_cols - 1)]
            body = random_table(rng, 3, n_cols - 1)
            table = np.column_stack((np.arange(3) + 999_999, body))
            old = io.StringIO()
            old_write_csv(([k] + list(row) for k, row in enumerate(body, 999_999)), header, old)
            assert new_csv(table, header) == old.getvalue()

    @pytest.mark.parametrize("steps", [0, 1, 40, 1500])
    def test_simulate_matches_old_rows(self, tmp_path, steps):
        # 2 nodes and 4 columns: 1,500 steps span two chunks; the slow decay keeps it from converging
        data = {
            "nodes": 2,
            "maf": "max",
            "edges": [
                {"from": 1, "to": 0, "gain": {"type": "linear", "k": 0.9999}},
                {"from": 0, "to": 1, "gain": {"type": "pl", "points": [[0, 0], [1, 0.9999], [4, 3.9995]], "final_slope": 0.9998}},
            ],
        }
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps(data))
        out = tmp_path / "sim.csv"
        assert main(["simulate", str(net_file), "--start", "[2.5, 0.3]", "--steps", str(steps), "--out", str(out)]) == 0
        net, _ = network_from_dict(data)
        s0 = np.array([2.5, 0.3])
        states = [s0] if steps == 0 else iterate(as_operator(net), s0, StopRule(max_iter=steps)).states[: steps + 1]
        old = io.StringIO()
        old_write_csv(([k] + list(s) + [sup_norm(s)] for k, s in enumerate(states)), ["step", "x0", "x1", "norm"], old)
        assert out.read_text() == old.getvalue()
        assert len(states) == steps + 1
