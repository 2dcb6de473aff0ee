"""End-to-end CLI tests: scenario configs in, reports and exit codes out."""

import json

import pytest

import boselab.cli as cli
import boselab.evolve as evolve_mod
from boselab.cli import main


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


CONFIGS = {
    "fs-check": {
        "scenario": {"kind": "fs-check", "s_max": 4, "m_max": 10},
        "output": {"formats": ["csv", "json"]},
    },
    "adjacency-check": {
        "lattice": {"kind": "chain", "dims": [16]},
        "scenario": {
            "kind": "adjacency-check", "times": [0.1, 0.5, 1.0], "J_scale": 1.0,
        },
        "output": {"formats": ["csv"]},
    },
    "lightcone-map": {
        "lattice": {"kind": "chain", "dims": [6]},
        "basis": {"cutoff": 1},
        "model": {"J": 1.0, "U": 0.0},
        "scenario": {"kind": "lightcone-map", "i0": 0, "times": [0.2, 0.6, 1.0]},
        "output": {"formats": ["csv"]},
    },
    "moment-check": {
        "lattice": {"kind": "chain", "dims": [5]},
        "basis": {"cutoff": 5},
        "model": {"J": 1.0, "U": 1.0, "mu": 0.0},
        "constants": {"c0": 1.0, "qbar": 1.0},
        "scenario": {
            "kind": "moment-check", "i0": 2,
            "observable": {"kind": "projector", "site": 2, "value": 1},
            "s_values": [1, 2], "times": [0.05, 0.1], "psi0": "mott-1",
        },
        "output": {"formats": ["csv"]},
    },
    "tail-check": {
        "lattice": {"kind": "chain", "dims": [5]},
        "basis": {"cutoff": 5},
        "model": {"J": 1.0, "U": 1.0},
        "constants": {"c0": 1.0, "qbar": 1.0},
        "scenario": {
            "kind": "tail-check", "i0": 2, "z_values": [2, 4],
            "times": [0.1], "psi0": "mott-1",
        },
        "output": {"formats": ["csv"]},
    },
    "truncation-check": {
        "lattice": {"kind": "chain", "dims": [6]},
        "basis": {"cutoff": 3},
        "model": {"J": 1.0, "U": 1.0},
        "constants": {"qbar": 1.0},
        "scenario": {
            "kind": "truncation-check", "X": [2], "ell0": 1, "t": 0.1,
            "q_values": [1, 2, 3], "psi0": "mott-1",
        },
        "output": {"formats": ["csv"]},
    },
    "short-lr-check": {
        "lattice": {"kind": "chain", "dims": [5]},
        "basis": {"cutoff": 2},
        "model": {"J": 1.0, "U": 1.0},
        "constants": {"c0": 1.0, "qbar": 1.0, "t0": 0.1, "eta": 0.05},
        "scenario": {
            "kind": "short-lr-check", "X": [2], "ell0_values": [1, 2],
            "t": 0.05, "q": 2, "psi0": "mott-1",
            "observable": {"kind": "number", "site": 2},
        },
        "output": {"formats": ["csv"]},
    },
    "approx-sweep": {
        "lattice": {"kind": "chain", "dims": [8]},
        "basis": {"cutoff": 1},
        "model": {"J": 1.0, "U": 0.0},
        "scenario": {
            "kind": "approx-sweep", "i0": 0, "R_values": [2, 4, 6], "t": 0.3,
            "delta_t0": 0.3, "psi0": "fock:[1,0,1,0,1,0,1,0]",
        },
        "output": {"formats": ["csv"]},
    },
    "quench-sim": {
        "lattice": {"kind": "chain", "dims": [6]},
        "basis": {"cutoff": 2, "sector": 6},
        "model": {"J": 1.0, "U": 4.0},
        "constants": {"qbar": 2.0},
        "scenario": {
            "kind": "quench-sim", "h": {"site": 3, "coeff": 0.5, "power": 2},
            "t": 0.1, "R_values": [2, 4, 5], "delta_t0": 0.1, "psi0": "ground",
        },
        "output": {"formats": ["csv", "json"]},
    },
    "clustering": {
        "lattice": {"kind": "chain", "dims": [6]},
        "basis": {"cutoff": 3, "sector": 6},
        "model": {"J": 1.0, "U": 10.0},
        "scenario": {
            "kind": "clustering", "anchor": 0, "d_values": [1, 2, 3, 4],
            "psi0": "ground",
        },
        "output": {"formats": ["csv"]},
    },
    "bound-report": {
        "lattice": {"kind": "chain", "dims": [8]},
        "constants": {"c0": 1.0, "qbar": 1.0, "t0": 1.0},
        "scenario": {
            "kind": "bound-report", "bound": "main-lr",
            "grid": {"R": [50, 100, 200]}, "fixed": {"r0": 0, "t": 2.0},
        },
        "output": {"formats": ["csv"]},
    },
}

HEADERS = {
    "fs-check": "scenario,s,m,lower,f_s,upper,pass",
    "adjacency-check": "scenario,t,max_ratio,violations,pass",
    "lightcone-map": "scenario,i,t,commutator_norm",
    "moment-check": "scenario,i,s,t,M_probe,M_bound,log_M_bound,pass",
    "tail-check": "scenario,i,z0,t,P_probe,P_bound,log_P_bound,pass",
    "truncation-check": "scenario,q,t,error,bound,log_bound,bound_valid,pass",
    "short-lr-check": "scenario,ell0,t,error,bound,log_bound,conditions_ok,pass",
    "approx-sweep": "scenario,R,t,ell0,q,m_t,error",
    "quench-sim": "scenario,R,t,error,bound,log_bound,cost_states,pass",
    "clustering": "scenario,i,j,d,correlation,abs_correlation",
    "bound-report": "scenario,bound,params,log_value,value,valid",
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_scenario_smoke(kind, tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS[kind])
    out = tmp_path / "out"
    rc = main(["run", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = (out / f"{kind}.csv").read_text().splitlines()
    assert lines[0] == HEADERS[kind]
    assert len(lines) >= 2
    assert all(line.startswith(kind + ",") for line in lines[1:])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["scenario"] == kind
    assert manifest["seed"] == 0
    assert manifest["rows"] == len(lines) - 1
    assert manifest["failed_rows"] == 0
    assert str(out / f"{kind}.csv") in manifest["outputs"]
    assert "created_utc" in manifest


def test_json_report_mirrors_csv(tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS["fs-check"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = json.loads((out / "fs-check.json").read_text())
    csv_lines = (out / "fs-check.csv").read_text().splitlines()
    assert isinstance(rows, list)
    assert len(rows) == len(csv_lines) - 1
    assert list(rows[0]) == HEADERS["fs-check"].split(",")


def test_manifest_geometry_and_constants(tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS["moment-check"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    geo = manifest["geometry"]
    assert geo["gamma"] == 3.0 and geo["D"] == 1 and geo["dG"] == 2.0
    rc = manifest["resolved_constants"]
    for key in (
        "c0", "qbar", "t0", "J_bar", "zeta0", "c1", "c1_prime_sizeX1",
        "c1_double_prime", "effective_C1", "effective_C2", "eta",
    ):
        assert key in rc
    assert rc["c0"] == 1.0 and rc["qbar"] == 1.0
    assert rc["eta"] is None
    assert "delta_t0" not in rc  # gated on eta


def test_manifest_includes_interaction_range_constants_with_eta(tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS["short-lr-check"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rc = json.loads((out / "run_manifest.json").read_text())["resolved_constants"]
    assert rc["eta"] == 0.05
    assert rc["c3"] > 0 and rc["c3_prime"] > 0 and rc["delta_t0"] > 0


def test_seed_recorded_in_manifest(tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS["fs-check"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 7


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS["moment-check"])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a), "--seed", "3"]) == 0
    assert main(["run", str(cfg), "--out", str(out_b), "--seed", "3"]) == 0
    csv_a = (out_a / "moment-check.csv").read_bytes()
    csv_b = (out_b / "moment-check.csv").read_bytes()
    assert csv_a == csv_b


def test_threads_do_not_change_output(tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS["lightcone-map"])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b), "--threads", "3"]) == 0
    assert (out_a / "lightcone-map.csv").read_bytes() == (
        out_b / "lightcone-map.csv"
    ).read_bytes()


def test_dense_cap_flag_reaches_evolver(tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS["fs-check"])
    out = tmp_path / "out"
    old = evolve_mod.DENSE_CAP
    try:
        assert main(["run", str(cfg), "--out", str(out), "--dense-cap", "123"]) == 0
        assert evolve_mod.DENSE_CAP == 123
    finally:
        evolve_mod.DENSE_CAP = old


def test_dense_cap_gates_dense_scenarios(tmp_path):
    payload = {
        "lattice": {"kind": "chain", "dims": [5]},
        "basis": {"cutoff": 1},
        "model": {"J": 1.0, "U": 0.0},
        "scenario": {"kind": "lightcone-map", "i0": 0, "times": [0.1]},
        "output": {"formats": ["csv"]},
    }
    cfg = write_cfg(tmp_path, payload)
    old = evolve_mod.DENSE_CAP
    try:
        assert main(["run", str(cfg), "--out", str(tmp_path / "ok")]) == 0
        # a cap below the 32-state basis turns the same run into a clean failure
        rc = main(["run", str(cfg), "--out", str(tmp_path / "no"), "--dense-cap", "10"])
        assert rc == 2
    finally:
        evolve_mod.DENSE_CAP = old


def test_failing_rows_exit_one(tmp_path, monkeypatch):
    def fake(ctx):
        return ["scenario", "pass"], [{"scenario": "fs-check", "pass": False}], {}

    monkeypatch.setitem(cli._SCENARIOS, "fs-check", fake)
    cfg = write_cfg(tmp_path, CONFIGS["fs-check"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["failed_rows"] == 1


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{")
    assert main(["run", str(p)]) == 2


def test_unknown_scenario_kind_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, {"scenario": {"kind": "frobnicate"}})
    assert main(["run", str(cfg)]) == 2


def test_unknown_top_level_key_exits_two(tmp_path):
    payload = dict(CONFIGS["fs-check"])
    payload["bogus"] = 1
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg)]) == 2


def test_unsupported_output_format_exits_two(tmp_path):
    payload = json.loads(json.dumps(CONFIGS["fs-check"]))
    payload["output"]["formats"] = ["xml"]
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg)]) == 2


def test_invalid_constants_exit_two(tmp_path):
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["constants"]["c0"] = 5.0  # outside (0, 1]
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_psi0_outside_basis_is_config_error(tmp_path, capsys):
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["lattice"]["dims"] = [4]
    payload["basis"] = {"cutoff": 2, "sector": 4}
    payload["scenario"]["psi0"] = "fock:[2,2,2,2]"
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert (
        "config error: scenario.psi0: occupation (2, 2, 2, 2) is not in the basis"
        in err
    )


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit):
        main([])
