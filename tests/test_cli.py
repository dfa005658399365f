import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sglab
from sglab.cli import main

NET_A = {
    "nodes": 2,
    "edges": [
        {"from": 1, "to": 0, "gain": {"type": "linear", "k": 0.5}},
        {"from": 0, "to": 1, "gain": {"type": "linear", "k": 0.5}},
    ],
    "maf": "max",
}

NET_B = {
    "nodes": 2,
    "edges": [
        {"from": 1, "to": 0, "gain": {"type": "linear", "k": 2.0}},
        {"from": 0, "to": 1, "gain": {"type": "linear", "k": 2.0}},
    ],
    "maf": "max",
}

CHAIN = {
    "nodes": 10,
    "template": {
        "offsets": [
            {"offset": -1, "gain": {"type": "linear", "k": 0.25}},
            {"offset": 1, "gain": {"type": "linear", "k": 0.25}},
        ]
    },
    "maf": "sum",
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in (("a", NET_A), ("b", NET_B), ("chain", CHAIN)):
        p = tmp_path / f"net_{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    return paths


def read_cert(path):
    with open(path) as fh:
        return json.load(fh)


class TestCheck:
    def test_contracting_pair_passes(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(["check", files["a"], "--rho", "linear:0.1", "--out", out])
        assert code == 0
        cert = read_cert(out)
        statuses = {v["condition"]: v["status"] for v in cert["verdicts"]}
        assert statuses["cycle_gain"] == "pass"
        assert statuses["spectral"] == "pass"
        assert statuses["max_mbi"] == "evidence"
        mbi = next(v for v in cert["verdicts"] if v["condition"] == "max_mbi")
        assert "phi_fit" in mbi["witness"]
        assert cert["stability"]["ugas_evidence"] is True

    def test_expanding_pair_fails_with_ones(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(["check", files["b"], "--out", out])
        assert code == 1
        cert = read_cert(out)
        nji = next(v for v in cert["verdicts"] if v["condition"] == "nji")
        assert nji["status"] == "fail"
        assert nji["counterexample"]["s"] == [256.0, 256.0]

    def test_rho_decides_nji_on_the_enlarged_operator(self, tmp_path):
        # a max ring of gains 0.95 contracts; enlarged by id + 0.1 its cycle gain is 1.045
        gain = {"type": "linear", "k": 0.95}
        path, out = tmp_path / "ring.json", str(tmp_path / "cert.json")
        path.write_text(json.dumps({"nodes": 2, "maf": "max", "edges": [{"from": 1, "to": 0, "gain": gain}, {"from": 0, "to": 1, "gain": gain}]}))
        statuses = []
        for flags in ([], ["--rho", "linear:0.1"]):
            main(["check", str(path), "--out", out, *flags])
            nji = next(v for v in read_cert(out)["verdicts"] if v["condition"] == "nji")
            statuses.append(nji["status"])
        s = np.asarray(nji["counterexample"]["s"])
        net = sglab.network_from_json(str(path))[0]
        assert statuses == ["pass", "fail"] and np.all(sglab.as_operator(net, sglab.linear(0.1))(s) >= s)
        assert not np.all(sglab.as_operator(net)(s) >= s)

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": ')
        assert main(["check", str(bad)]) == 2

    def test_missing_file(self):
        assert main(["check", "/nonexistent/net.json"]) == 2

    @pytest.mark.parametrize(
        "data",
        [
            {"nodes": 2, "maf": "max", "edges": [{"from": 1, "to": 0, "gain": {"type": "pl", "points": [0, 1], "final_slope": 1}}]},
            {"nodes": 2, "maf": "max", "edges": [{"from": 1, "to": 0, "gain": {"type": "pl", "points": [[0, 0], [1, 2]]}}]},
            {"nodes": 3, "maf": "sum", "template": {"offsets": [{"offset": 1}]}},
            {"nodes": 3, "maf": "sum", "template": {"offsets": [{"offset": 1, "gain": {"type": "pl", "points": [[0, 0], [1, 2]]}}]}},
        ],
        ids=["pl-flat-points", "pl-no-final-slope", "template-no-gain", "template-pl-no-final-slope"],
    )
    def test_malformed_gain_descriptor(self, data, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "data",
        [
            {"nodes": 3, "maf": "sum", "template": [1]},
            {"nodes": 3, "maf": "sum", "template": {"offsets": 5}},
            {"nodes": 3, "edges": 5},
            {"nodes": 3, "edges": {"from": 1, "to": 0}},
            {"nodes": 3, "edges": [{"from": 1, "to": 7, "gain": {"type": "linear", "k": 0.5}}]},
            {"nodes": 3, "edges": [{"from": 1, "to": -1, "gain": {"type": "linear", "k": 0.5}}]},
            {"nodes": 2.7, "edges": [{"from": 1, "to": 0, "gain": {"type": "linear", "k": 0.5}}]},
            {"nodes": True, "edges": []},
        ],
        ids=[
            "template-list",
            "template-offsets-int",
            "edges-int",
            "edges-object",
            "edge-target-7",
            "edge-target-negative",
            "nodes-fraction",
            "nodes-bool",
        ],
    )
    def test_malformed_network(self, data, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_rejected(self, files, budget, capsys):
        # check samples nothing, so --budget is no option at all: every value is a usage error
        assert main(["check", files["a"], "--budget", budget]) == 2
        assert "unrecognized arguments: --budget" in capsys.readouterr().err

    def test_grid_reaches_cycle_gain_check(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        assert main(["check", files["a"], "--grid", "geometric:-2:2", "--out", out]) == 0
        cycle = next(v for v in read_cert(out)["verdicts"] if v["condition"] == "cycle_gain")
        assert cycle["status"] == "pass" and cycle["witness"]["r_max"] == 4.0

    def test_truncation_sweep(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(["check", files["chain"], "--N", "20", "--out", out])
        assert code == 0
        rows = read_cert(out)["extras"]["truncation_sweep"]
        assert rows[0]["N"] == 20 and rows[0]["ugas_evidence"] is True

    def test_truncation_sweep_instantiates_the_hashed_bytes(self, files, tmp_path, monkeypatch):
        """The sweep's truncations come from the one parse of the bytes behind
        ``input_digest``, not from a second read of the file."""
        import hashlib

        import sglab.cli

        raw = Path(files["chain"]).read_bytes()
        load = sglab.cli._load

        def load_then_rewrite(path):
            loaded = load(path)
            Path(path).write_text(json.dumps(dict(CHAIN, template={"offsets": [{"offset": d, "gain": "linear:4"} for d in (-1, 1)]})))
            return loaded

        monkeypatch.setattr(sglab.cli, "_load", load_then_rewrite)
        out = str(tmp_path / "cert.json")
        assert main(["check", files["chain"], "--N", "20", "--out", out]) == 0
        monkeypatch.undo()
        Path(files["chain"]).write_bytes(raw)
        cert = read_cert(out)
        assert cert["input_digest"] == hashlib.sha256(raw).hexdigest()
        assert cert["extras"]["truncation_sweep"][0]["ugas_evidence"] is True
        assert main(["check", files["chain"], "--N", "20", "--out", str(tmp_path / "again.json")]) == 0
        again = read_cert(str(tmp_path / "again.json"))
        assert again["extras"] == cert["extras"]

    @pytest.mark.parametrize("grid", ["geometric:-3:-1", "geometric:2:3", "geometric:-2:2", None])
    def test_truncation_sweep_reads_the_unit_ray(self, files, tmp_path, grid):
        """``beta_1_16`` is the r = 1 row of each truncation's decay table, and
        ``null`` when 1 is not on the grid (not another row, nor a traceback)."""
        out = str(tmp_path / "cert.json")
        flags = ["--grid", grid] if grid else []
        assert main(["check", files["chain"], "--N", "2", "--N", "5", *flags, "--out", out]) == 0
        r_grid = sglab.cli._parse_grid_flag(grid) if grid else None
        for row in read_cert(out)["extras"]["truncation_sweep"]:
            net = sglab.chain_template(sglab.linear(0.25), sglab.SUM).instantiate(row["N"])
            rep = sglab.stability_battery(net, None, r_grid, n_max=64)
            unit = list(rep.r_grid).index(1.0) if 1.0 in rep.r_grid else None
            assert row["beta_1_16"] == (None if unit is None else float(rep.kl_table[unit, 16]))
            assert (unit is None) == (grid in ("geometric:-3:-1", "geometric:2:3"))

    def test_determinism(self, files, tmp_path):
        outs = []
        for k in range(2):
            out = str(tmp_path / f"cert{k}.json")
            main(["check", files["a"], "--rho", "linear:0.1", "--seed", "5", "--out", out])
            cert = read_cert(out)
            cert.pop("timing")
            outs.append(json.dumps(cert, sort_keys=True))
        assert outs[0] == outs[1]

    def test_path_determinism(self, files, tmp_path):
        outs = []
        for k in range(2):
            out = str(tmp_path / f"cert{k}.json")
            main(["path", files["chain"], "--method", "combined", "--rho", "linear:0.1", "--out", out])
            cert = read_cert(out)
            cert.pop("timing")
            outs.append(json.dumps(cert, sort_keys=True))
        assert outs[0] == outs[1]


def run_limited(args, tmp_path):
    """Run ``python -m sglab.cli`` under a 1.5 GB address-space limit, so that
    an input that allocates without bound fails inside the child."""
    limit = 1536 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(sglab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "sglab.cli", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"),
        preexec_fn=cap_memory,
        timeout=300,
    )


class TestOversizedInput:
    def write(self, tmp_path, data):
        p = tmp_path / "big.json"
        p.write_text(json.dumps(data))
        return str(p)

    def test_billion_nodes_rejected_before_allocating(self, tmp_path):
        proc = run_limited(["check", self.write(tmp_path, {"nodes": 1_000_000_000, "edges": []})], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1

    def test_truncation_sweep_size_rejected(self, tmp_path):
        proc = run_limited(["check", self.write(tmp_path, CHAIN), "--N", str(1 << 30)], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1

    def test_node_limit(self):
        from sglab import NetworkError, network_from_dict

        with pytest.raises(NetworkError, match="nodes"):
            network_from_dict({"nodes": (1 << 20) + 1, "edges": []})


class TestGainFlags:
    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--rho", "linear:abc"],
            ["check", "--rho", "power:2"],
            ["path", "--target-rho", "cubic:1"],
            ["simulate", "--start", "ray:1", "--variant", "rho", "--rho", "linear:"],
        ],
        ids=["linear-abc", "power-one-field", "cubic", "linear-empty"],
    )
    def test_malformed_flag(self, files, args, capsys):
        assert main([args[0], files["a"], *args[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_json_descriptor_matches_shorthand(self, files, tmp_path):
        certs = []
        for k, rho in enumerate(["power:0.1:2", '{"type": "power", "c": 0.1, "p": 2}']):
            out = str(tmp_path / f"cert{k}.json")
            code = main(["check", files["a"], "--rho", rho, "--out", out])
            cert = read_cert(out)
            cert.pop("timing")
            certs.append((code, cert))
        assert certs[0] == certs[1]


class TestStartVectors:
    """A start vector must be a finite cone vector, whichever flag gives it."""

    BAD = ["ray:nan", "ray:inf", "ray:-1", "[1e400, 1]", "[0.5, -0.5]", "[1, NaN]"]

    @pytest.mark.parametrize("start", BAD)
    @pytest.mark.parametrize(
        "argv",
        [
            ["path", "--method", "orbit", "--start", "{}"],
            ["simulate", "--start", "{}"],
            ["simulate", "--start", "ray:1", "--variant", "proj:{}"],
        ],
        ids=["orbit", "simulate", "proj"],
    )
    def test_rejected(self, files, tmp_path, argv, start, capsys, recwarn):
        out = tmp_path / "out"
        assert main([argv[0], files["a"], *(a.format(start) for a in argv[1:]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("start", ["ray:0", "ray:2.5", "[0, 3]"])
    def test_finite_cone_vectors_accepted(self, files, tmp_path, start):
        assert main(["simulate", files["a"], "--start", start, "--steps", "3", "--out", str(tmp_path / "s.csv")]) == 0


class TestPath:
    def test_minimal_path_ok(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        prefix = str(tmp_path / "path")
        code = main(
            [
                "path",
                files["a"],
                "--method",
                "minimal",
                "--rho",
                "linear:0.1",
                "--knots",
                "geometric:-6:6",
                "--out",
                out,
                "--path-out",
                prefix,
            ]
        )
        assert code == 0
        cert = read_cert(out)
        assert cert["paths"][0]["report"]["passed"] is True
        dumped = json.load(open(prefix + ".json"))
        assert len(dumped["r_grid"]) == len(dumped["points"])
        lines = open(prefix + ".csv").read().strip().splitlines()
        assert lines[0] == "r,x0,x1"
        assert len(lines) == len(dumped["r_grid"]) + 1

    def test_malformed_rho_descriptor(self, files, capsys):
        assert main(["path", files["a"], "--rho", '{"type": "linear"}']) == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_divergent_network_reports_knot(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(["path", files["b"], "--method", "minimal", "--rho", "linear:0.1", "--out", out])
        assert code == 1
        cert = read_cert(out)
        assert cert["verdicts"][0]["status"] == "fail"
        assert cert["verdicts"][0]["counterexample"]["knot"] is not None

    def test_failed_validation_names_the_properties(self, files, tmp_path, monkeypatch):
        import dataclasses

        import sglab.cli

        def failing_validate(path, net):
            return dataclasses.replace(sglab.validate(path, net), decay_ok=False, bilipschitz_ok=False)

        monkeypatch.setattr(sglab.cli, "validate", failing_validate)
        out = str(tmp_path / "cert.json")
        assert main(["path", files["a"], "--out", out]) == 1
        cert = read_cert(out)
        (verdict,) = cert["verdicts"]
        assert verdict["status"] == "fail" and verdict["counterexample"] == {"failed": ["decay", "bilipschitz"]}
        assert cert["paths"][0]["report"]["passed"] is False

    def test_combined_with_restriction(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(
            [
                "path",
                files["chain"],
                "--method",
                "combined",
                "--rho",
                "linear:0.1",
                "--knots",
                "geometric:-10:10",
                "--restrict",
                "0,1,2,3,4",
                "--out",
                out,
            ]
        )
        assert code == 0
        cert = read_cert(out)
        assert all(p["report"]["passed"] for p in cert["paths"])

    def test_orbit_with_regularization(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(
            [
                "path",
                files["a"],
                "--method",
                "orbit",
                "--rho",
                "linear:0.2",
                "--start",
                "ray:1",
                "--target-rho",
                "linear:0.002",
                "--min-id",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert read_cert(out)["paths"][0]["report"]["passed"] is True


class TestSimulate:
    def test_geometric_rows(self, files, tmp_path, capsys):
        out = str(tmp_path / "traj.csv")
        code = main(["simulate", files["a"], "--start", "ray:1", "--steps", "20", "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "step,x0,x1,norm"
        assert len(lines) == 22
        norms = [float(l.split(",")[-1]) for l in lines[1:]]
        np.testing.assert_allclose(norms, 0.5 ** np.arange(21))

    def test_augmented_variant_reaches_limit(self, files, tmp_path):
        out = str(tmp_path / "traj.csv")
        main(["simulate", files["a"], "--start", "[4.0, 0.0]", "--variant", "hat", "--steps", "10", "--out", out])
        rows = [l.split(",") for l in open(out).read().strip().splitlines()[1:]]
        final = [float(v) for v in rows[-1][1:3]]
        assert final == [4.0, 2.0]
        # increasing rows
        vals = np.asarray([[float(v) for v in r[1:3]] for r in rows])
        assert np.all(np.diff(vals, axis=0) >= 0)

    def test_zero_steps_echoes_start(self, files, tmp_path):
        out = str(tmp_path / "traj.csv")
        main(["simulate", files["a"], "--start", "ray:1", "--steps", "0", "--out", out])
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0,1,1")


class TestEmptyGrid:
    """``geometric:kmin:kmax`` with kmin > kmax names no grid at all."""

    @pytest.mark.parametrize("args", [["path", "--knots", "geometric:3:-3"], ["check", "--grid", "geometric:3:-3"]], ids=["path", "check"])
    def test_reversed_bounds_rejected(self, files, tmp_path, args, capsys):
        code = main([args[0], files["a"], *args[1:], "--out", str(tmp_path / "cert.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:") and "geometric:3:-3" in err and err.count("\n") == 1
        assert not (tmp_path / "cert.json").exists()

    def test_single_point_grid_still_accepted(self, files, tmp_path):
        assert main(["path", files["a"], "--knots", "geometric:0:0", "--out", str(tmp_path / "cert.json")]) in (0, 1)


class TestGridRange:
    """A ``geometric:kmin:kmax`` grid needs -1022 <= k <= 993: every ray 2**k
    is a normal double, and every fixed-point run from a ray, ``combined``'s
    cap ray 2 * r included, has a finite divergence bound 1e9 * r + 1.  Any
    other k is unusable input."""

    FLAGS = [["check", "--grid"], ["path", "--knots"]]
    GOLDEN = Path(__file__).resolve().parent / "golden"

    @pytest.mark.parametrize("flag", FLAGS, ids=["check", "path"])
    @pytest.mark.parametrize(
        "grid",
        [
            "geometric:0:1100",
            "geometric:-1100:-1090",
            "geometric:-1075:0",
            "geometric:0:1024",
            "geometric:-1074:-1070",
            "geometric:-1023:0",
            "geometric:994:994",
        ],
    )
    def test_out_of_range_rejected(self, files, tmp_path, flag, grid, capsys):
        code = main([flag[0], files["a"], flag[1], grid, "--out", str(tmp_path / "cert.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:") and grid in err and "-1022..993" in err and err.count("\n") == 1
        assert not (tmp_path / "cert.json").exists()

    def test_extreme_exponents_build_no_grid(self, files, tmp_path):
        # refused from the bounds alone: no list of 2**k is built for this range
        proc = run_limited(["check", files["a"], "--grid", f"geometric:{-(10**12)}:0"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1

    def test_ends_of_the_range_accepted(self):
        from sglab.cli import _parse_grid_flag

        grid = _parse_grid_flag("geometric:-1022:993")
        assert len(grid) == 2016 and grid[0] == 2.0**-1022 and grid[-1] == 2.0**993
        assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)

    def test_subnormal_rays_refused_normal_ones_decided(self, tmp_path, capsys):
        # at 2**-1074, 0.7 * s rounds back up to s, so T(s) = s read as a joint increase
        ring = str(self.GOLDEN / "ring3_max.json")
        out = tmp_path / "cert.json"
        assert main(["check", ring, "--grid", "geometric:-1074:-1070", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1 and not out.exists()
        assert main(["check", ring, "--grid", "geometric:-1022:-1018", "--out", str(out)]) == 0
        assert {v["condition"]: v["status"] for v in read_cert(out)["verdicts"]}["nji"] == "pass"

    @pytest.mark.parametrize("method, k", [("combined", 994), ("minimal", 995)])
    def test_rays_without_a_finite_divergence_bound_refused(self, capsys, method, k):
        # above the range the run never reads as diverged: inf - inf = NaN until the step cap
        cross = str(self.GOLDEN / "cross3_max.json")
        assert main(["path", cross, "--method", method, "--knots", f"geometric:{k}:{k}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_top_of_the_range_diverges_as_a_failure(self, tmp_path):
        # a child process: the first gained value overflows, which numpy warns about
        proc = run_limited(["path", str(self.GOLDEN / "cross3_max.json"), "--method", "combined", "--knots", "geometric:993:993"], tmp_path)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["verdicts"][0]["status"] == "fail"


class TestSimulateSteps:
    def test_negative_steps_rejected(self, files, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate", files["a"], "--start", "ray:1", "--steps", "-3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:") and "--steps" in err and err.count("\n") == 1
        assert not out.exists()

    def test_trajectory_above_the_cell_limit_rejected_before_iterating(self, files, tmp_path, capsys, monkeypatch):
        """``(steps + 1) * (nodes + 2)`` cells of the CSV table are the bound: 10 x 4 = 40 is kept, 11 x 4 refused."""
        import sglab.cli

        monkeypatch.setattr(sglab.cli, "_MAX_TRAJECTORY_CELLS", 40)
        monkeypatch.setattr(sglab.cli, "iterate", lambda *a, **k: pytest.fail("iterated past the limit"))
        out = tmp_path / "traj.csv"
        code = main(["simulate", files["a"], "--start", "ray:1", "--steps", "10", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("input error:") and "--steps" in err and err.count("\n") == 1
        assert not out.exists()
        monkeypatch.undo()
        monkeypatch.setattr(sglab.cli, "_MAX_TRAJECTORY_CELLS", 40)
        assert main(["simulate", files["a"], "--start", "ray:1", "--steps", "9", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 11

    def test_periodic_trajectory_bounded(self, tmp_path):
        """A trajectory that neither converges nor diverges keeps every state:
        a step count whose table passes the limit is refused, not run."""
        swap = {"nodes": 2, "edges": [{"from": 1, "to": 0, "gain": "linear:1"}, {"from": 0, "to": 1, "gain": "linear:1"}]}
        net = tmp_path / "swap.json"
        net.write_text(json.dumps(swap))
        proc = run_limited(["simulate", str(net), "--start", "[1, 0]", "--steps", str(10**9)], tmp_path)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("input error:") and "--steps" in proc.stderr and proc.stderr.count("\n") == 1
        out = tmp_path / "traj.csv"
        assert main(["simulate", str(net), "--start", "[1, 0]", "--steps", "1000", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1002 and rows[-1] == "1000,1,0,1"


class TestRestrictFlag:
    """``--restrict`` names nodes of the network; anything else is an input error,
    checked before any path is built."""

    @pytest.mark.parametrize("nodes", ["7", "-1", "0,2", "0,x"])
    @pytest.mark.parametrize("net", ["a", "b"], ids=["path-built", "construction-fails"])
    def test_bad_node_list_rejected(self, files, tmp_path, nodes, net, capsys):
        out = tmp_path / "cert.json"
        assert main(["path", files[net], "--rho", "linear:0.1", "--restrict", nodes, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
        assert not out.exists()

    def test_in_range_nodes_still_validated(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        assert main(["path", files["a"], "--restrict", "1", "--out", out]) == 0
        assert [p["method"] for p in read_cert(out)["paths"]] == ["minimal", "minimal|restricted"]


class TestOrbitSeed:
    """An orbit seed with a zero entry is unusable input, not a counterexample."""

    @pytest.mark.parametrize("start", ["ray:0", "[0, 1]", "[1, 0.0]"])
    def test_zero_entry_rejected(self, files, tmp_path, start, capsys):
        out = tmp_path / "cert.json"
        assert main(["path", files["a"], "--method", "orbit", "--start", start, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "strictly positive" in err and err.count("\n") == 1
        assert not out.exists()


class TestHugeStart:
    """A start whose divergence bound ``1e9 * ||s0|| + 1`` overflows is refused."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--start", "ray:1e300"],
            ["simulate", "--start", "[1, 1e300]"],
            ["path", "--method", "orbit", "--start", "ray:1e300"],
        ],
        ids=["simulate-ray", "simulate-vector", "orbit"],
    )
    def test_rejected_without_warning(self, files, tmp_path, argv, capsys, recwarn):
        out = tmp_path / "out"
        assert main([argv[0], files["a"], *argv[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_largest_finite_bound_accepted(self, files, tmp_path):
        assert main(["simulate", files["a"], "--start", "ray:1e299", "--steps", "3", "--out", str(tmp_path / "s.csv")]) == 0


class TestUsageErrors:
    """A usage error is unusable input: one ``input error:`` line on standard
    error, nothing on standard output, and exit code 2 returned by ``main``."""

    ARGVS = {
        "bad-int": ["check", "{a}", "--seed", "x"],
        "missing-start": ["simulate", "{a}"],
        "bad-choice": ["path", "{a}", "--method", "nope"],
        "path-seed": ["path", "{a}", "--seed", "3"],
        "unknown-flag": ["check", "{a}", "--frobnicate"],
        "no-command": [],
        "unknown-command": ["frobnicate", "{a}"],
    }

    @pytest.mark.parametrize("case", list(ARGVS))
    def test_one_line_and_exit_2(self, case, files, capsys):
        code = main([arg.format(**files) for arg in self.ARGVS[case]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("input error: ")

    def test_the_program_prints_one_line(self, files, tmp_path):
        done = run_limited(["check", files["a"], "--seed", "x"], tmp_path)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "input error: argument --seed: invalid int value: 'x'\n"

    @pytest.mark.parametrize("argv", [["-h"], ["check", "--help"], ["path", "-h"]], ids=str)
    def test_help_still_prints_and_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.out.startswith("usage: sglab") and captured.err == ""


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it changes no result."""

    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_consecutive_calls_reuse_one_parser(self, files, tmp_path, capsys, monkeypatch):
        import sglab.cli

        built = []
        real = sglab.cli.build_parser
        monkeypatch.setattr(sglab.cli, "build_parser", lambda: built.append(1) or real())
        argvs = [
            ["simulate", files["a"], "--start", "ray:1", "--steps", "4"],
            ["check", files["chain"], "--N", "5", "--N", "6"],
            ["simulate", files["a"], "--start", "ray:-1"],
            ["path", files["b"], "--method", "minimal"],
            ["check", files["a"], "--grid", "geometric:-2:2"],
            ["simulate", files["a"], "--start", "[1, 0]", "--variant", "hat", "--steps", "3"],
        ]
        sglab.cli._parser.cache_clear()
        try:
            reused = [self.run(argv, capsys) for argv in argvs]
            assert len(built) == 1
            assert main(["simulate", files["a"]]) == 2  # a usage error leaves the parser as it was
            capsys.readouterr()
            reused.append(self.run(argvs[0], capsys))
            fresh = []
            for argv in argvs + argvs[:1]:
                sglab.cli._parser.cache_clear()
                fresh.append(self.run(argv, capsys))
            assert len(built) == 2 + len(argvs)
        finally:
            sglab.cli._parser.cache_clear()
        mask = lambda text: re.sub(r'"wall_seconds": [^\s,}]+', "", text)  # noqa: E731
        assert [(c, mask(o), e) for c, o, e in reused] == [(c, mask(o), e) for c, o, e in fresh]
        assert [c for c, _, _ in reused] == [0, 0, 2, 1, 0, 0, 0]


class TestFreshProcess:
    def test_commands_do_not_import_numpy_ma(self, tmp_path):
        # np.unique and np.union1d import numpy.ma on their first call, about 11 ms of a fresh command
        golden = Path(__file__).resolve().parent / "golden"
        script = (
            "import sys; from sglab.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    main(argv.split())\n"
            "    assert 'numpy.ma' not in sys.modules, argv\n"
        )
        argvs = []
        for name in ("ring3_max", "sum4_linear", "cross3_max"):
            net, out = golden / f"{name}.json", tmp_path / name
            argvs += [
                f"check {net} --out {out}.cert.json",
                f"path {net} --method combined --out {out}.combined.json",
                f"path {net} --method orbit --start ray:1 --out {out}.orbit.json",
                f"path {net} --method minimal --out {out}.minimal.json",
                f"simulate {net} --start ray:1 --out {out}.csv",
            ]
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(CHAIN))
        argvs.append(f"check {chain} --N 4 --N 6 --out {tmp_path / 'sweep.json'}")
        src = str(Path(sglab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, *argvs], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "ring3_max.cert.json").exists() and (tmp_path / "sweep.json").exists()


class TestUnusablePaths:
    """A path that cannot be read or written is unusable input: one ``input
    error:`` line and exit 2, never a traceback with the exit code of a
    failing verdict."""

    def test_network_is_a_directory(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{a}", "--out", "{bad}"],
            ["path", "{a}", "--out", "{bad}"],
            ["path", "{a}", "--path-out", "{bad}"],
            ["simulate", "{a}", "--start", "ray:1", "--out", "{bad}"],
        ],
        ids=["check-out", "path-out", "path-path-out", "simulate-out"],
    )
    def test_unwritable_output(self, argv, files, tmp_path, capsys):
        bad = str(tmp_path / "no-such-dir" / "out")
        assert main([arg.format(bad=bad, **files) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
