import json

import numpy as np
import pytest

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
        code = main(["check", files["a"], "--rho", "linear:0.1", "--budget", "400", "--out", out])
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
        code = main(["check", files["b"], "--budget", "200", "--out", out])
        assert code == 1
        cert = read_cert(out)
        nji = next(v for v in cert["verdicts"] if v["condition"] == "nji")
        assert nji["status"] == "fail"
        assert nji["counterexample"]["s"] == [1.0, 1.0]

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
        assert main(["check", str(bad), "--budget", "50"]) == 2
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
        assert main(["check", str(bad), "--budget", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_rejected(self, files, budget, capsys):
        assert main(["check", files["a"], "--budget", budget]) == 2
        assert "budget" in capsys.readouterr().err

    def test_grid_reaches_cycle_gain_check(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        assert main(["check", files["a"], "--budget", "100", "--grid", "geometric:-2:2", "--out", out]) == 0
        cycle = next(v for v in read_cert(out)["verdicts"] if v["condition"] == "cycle_gain")
        assert cycle["status"] == "pass" and cycle["witness"]["r_max"] == 4.0

    def test_truncation_sweep(self, files, tmp_path):
        out = str(tmp_path / "cert.json")
        code = main(["check", files["chain"], "--N", "20", "--budget", "200", "--out", out])
        assert code == 0
        rows = read_cert(out)["extras"]["truncation_sweep"]
        assert rows[0]["N"] == 20 and rows[0]["ugas_evidence"] is True

    def test_determinism(self, files, tmp_path):
        outs = []
        for k in range(2):
            out = str(tmp_path / f"cert{k}.json")
            main(["check", files["a"], "--rho", "linear:0.1", "--budget", "300", "--seed", "5", "--out", out])
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
