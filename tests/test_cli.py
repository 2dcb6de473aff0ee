"""End-to-end CLI tests: scenario configs in, reports and exit codes out."""

import csv
import dataclasses
import json
import math
from pathlib import Path

import pytest

import boselab.cli as cli
import boselab.evolve as evolve_mod
from boselab.cli import main
from boselab.evolve import spectral_norm
from boselab.fock import enumerate_basis
from boselab.lattice import build_lattice
from boselab.model import local_operator


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


@pytest.mark.parametrize("kind", ["quench-sim", "clustering"])
def test_manifest_records_the_ground_state_solve(kind, tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS[kind])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    gs = json.loads((out / "run_manifest.json").read_text())["ground_state"]
    assert sorted(gs) == ["E0", "degenerate", "dim", "gap"]
    assert isinstance(gs["E0"], float) and gs["gap"] > 0
    assert gs["degenerate"] is False
    assert gs["dim"] == {"quench-sim": 141, "clustering": 336}[kind]
    # recording the solve moves no report value
    assert_matches_golden(out / f"{kind}.csv", kind)


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


def test_constants_k_defaults_to_the_model_interaction_range(tmp_path, capsys):
    """constants.k is the model's k_max unless the block sets it, and the manifest records it.

    A model with a two-site interaction (k_max = 2) reports the same step
    bounds by default as with ``constants.k: 2``; a k_max below 1 cannot be
    the default.
    """
    payload = json.loads(json.dumps(CONFIGS["short-lr-check"]))
    payload["lattice"]["dims"] = [7]
    payload["model"] = {
        "hoppings": [[i, i + 1, 1.0] for i in range(6)],
        "interactions": [{"region": [2, 3], "monomials": [[0.5, [1, 1]]]}],
    }
    payload["scenario"].update(X=[3], observable={"kind": "number", "site": 3})
    reports = []
    for k in (None, 2):
        if k is not None:
            payload["constants"]["k"] = k
        out = tmp_path / f"k-{k}"
        assert main(["run", str(write_cfg(tmp_path, payload)), "--out", str(out)]) == 0
        reports.append((out / "short-lr-check.csv").read_bytes())
        rc = json.loads((out / "run_manifest.json").read_text())["resolved_constants"]
        assert rc["k"] == 2
    assert reports[0] == reports[1]

    del payload["constants"]["k"]
    payload["model"] = {"hoppings": [[i, i + 1, 1.0] for i in range(6)], "k_max": 0}
    assert main(["run", str(write_cfg(tmp_path, payload)), "--out", str(tmp_path / "o")]) == 2
    assert "config error: model.k_max: " in capsys.readouterr().err


def test_seed_recorded_in_manifest(tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS["fs-check"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 7


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_repeated_runs_are_byte_identical(kind, tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS[kind])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a), "--seed", "3"]) == 0
    assert main(["run", str(cfg), "--out", str(out_b), "--seed", "3"]) == 0
    # every report but the manifest, whose timestamp is its only clock reading
    names = sorted(p.name for p in out_a.iterdir() if p.name != "run_manifest.json")
    assert f"{kind}.csv" in names
    assert names == sorted(p.name for p in out_b.iterdir() if p.name != "run_manifest.json")
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_threads_do_not_change_output(tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS["lightcone-map"])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b), "--threads", "3"]) == 0
    assert (out_a / "lightcone-map.csv").read_bytes() == (
        out_b / "lightcone-map.csv"
    ).read_bytes()
    # transport checks march their forward legs once over an unsorted grid
    # with a repeated time, and run the backward legs in the pool
    for kind, times in (("moment-check", [0.1, 0.05, 0.1]), ("tail-check", [0.1, 0.02, 0.1, 0.05])):
        payload = json.loads(json.dumps(CONFIGS[kind]))
        payload["scenario"]["times"] = times
        cfg = write_cfg(tmp_path, payload, f"{kind}.json")
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / kind / threads
            assert main(["run", str(cfg), "--out", str(out), "--threads", threads]) == 0
            csvs.append((out / f"{kind}.csv").read_bytes())
        assert csvs[0] == csvs[1]
        rows = list(csv.DictReader(csvs[0].decode().splitlines()))
        assert [float(r["t"]) for r in rows[: len(times)]] == times


@pytest.mark.parametrize("kind", ["quench-sim", "approx-sweep"])
def test_pooled_cells_sharing_the_hop_table_keep_output(kind, tmp_path):
    # the cells of these sweeps assemble generators from the basis's one hop table;
    # each quench cell also reads psi0, t and the exact state from one shared reference
    cfg = write_cfg(tmp_path, CONFIGS[kind])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a), "--threads", "1"]) == 0
    assert main(["run", str(cfg), "--out", str(out_b), "--threads", "3"]) == 0
    reports = [f"{kind}.csv"] + (["quench_steps.json"] if kind == "quench-sim" else [])
    for name in reports:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_dense_cap_flag_reaches_evolver(tmp_path, monkeypatch):
    seen = []
    fs_check = cli._SCENARIOS["fs-check"]

    def recording(run):
        seen.append(evolve_mod.dense_cap())
        return fs_check.run(run)

    monkeypatch.setitem(
        cli._SCENARIOS, "fs-check", dataclasses.replace(fs_check, run=recording)
    )
    cfg = write_cfg(tmp_path, CONFIGS["fs-check"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--dense-cap", "123"]) == 0
    # the evolver reads 123 during the run and the default again after it
    assert seen == [123]
    assert evolve_mod.dense_cap() == evolve_mod.DENSE_CAP == 2000


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


LIGHTCONE_32 = {
    "lattice": {"kind": "chain", "dims": [5]},
    "basis": {"cutoff": 1},
    "model": {"J": 1.0, "U": 0.0},
    "scenario": {"kind": "lightcone-map", "i0": 0, "times": [0.1, 0.2, 0.3]},
    "output": {"formats": ["csv"]},
}


def test_dense_cap_lasts_one_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LIGHTCONE_32)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "no"), "--dense-cap", "10"])
    assert rc == 2
    assert "exceeds dense cap 10" in capsys.readouterr().err
    # the next run in this process is back under the default cap
    assert main(["run", str(cfg), "--out", str(tmp_path / "ok")]) == 0


def test_dense_cap_refusal_names_its_flag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LIGHTCONE_32)
    assert main(["run", str(cfg), "--out", str(tmp_path / "no"), "--dense-cap", "10"]) == 2
    err = capsys.readouterr().err
    assert "error: dimension 32 exceeds dense cap 10; --dense-cap raises the cap" in err
    # the basis cap is not the run's to raise: the refusal names the basis
    # and the config keys that shrink it
    payload = json.loads(json.dumps(LIGHTCONE_32))
    payload["lattice"]["dims"] = [40]
    assert main(["run", str(write_cfg(tmp_path, payload)), "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "config error: basis: basis dimension 1099511627776 exceeds cap" in err
    for key in ("lattice.dims", "basis.cutoff(s)", "basis.sector"):
        assert key in err
    assert "--dense-cap" not in err


def test_dense_cap_reaches_worker_threads(tmp_path, capsys, monkeypatch):
    # lightcone-map factorises H once, before any pool, and refuses there;
    # approx-sweep's cells run in the pool, and each reads the run's cap
    flags = ["--dense-cap", "10", "--threads", "3"]
    cfg = write_cfg(tmp_path, LIGHTCONE_32, "lightcone.json")
    assert main(["run", str(cfg), "--out", str(tmp_path / "lc"), *flags]) == 2
    assert "exceeds dense cap 10" in capsys.readouterr().err
    real, seen = cli.approximate_heisenberg, []

    def recording(*args, **kwargs):
        seen.append(evolve_mod.dense_cap())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "approximate_heisenberg", recording)
    cfg = write_cfg(tmp_path, CONFIGS["approx-sweep"], "approx.json")
    assert main(["run", str(cfg), "--out", str(tmp_path / "ap"), *flags]) == 0
    assert seen == [10, 10, 10]


@pytest.mark.parametrize("kind", ["short-lr-check", "approx-sweep"])
def test_approximation_errors_run_above_the_dense_cap(kind, tmp_path):
    # the steps are applied to psi0 by Krylov, so a cap below the basis
    # dimension (243 and 256 states) changes no byte of the report
    cfg = write_cfg(tmp_path, CONFIGS[kind])
    assert main(["run", str(cfg), "--out", str(tmp_path / "free")]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "cap"), "--dense-cap", "10"]) == 0
    name = f"{kind}.csv"
    assert (tmp_path / "cap" / name).read_bytes() == (tmp_path / "free" / name).read_bytes()


@pytest.mark.parametrize("kind", ["short-lr-check", "approx-sweep", "quench-sim"])
def test_no_scenario_builds_a_step_product(kind, tmp_path, monkeypatch):
    # every scenario applies its steps' (G, tau) pairs to a state by Krylov
    # propagation, so none reaches the dense eigensolve
    real, calls = evolve_mod._eigenbasis, []

    def counting(H):
        calls.append(H.dim)
        return real(H)

    monkeypatch.setattr(evolve_mod, "_eigenbasis", counting)
    cfg = write_cfg(tmp_path, CONFIGS[kind])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == []


def test_failing_rows_exit_one(tmp_path, monkeypatch):
    fake = cli.Scenario(
        ("s_max", "m_max"), ("scenario", "pass"), (), lambda run: [{"pass": False}]
    )
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


def test_output_formats_may_be_one_string(tmp_path):
    payload = json.loads(json.dumps(CONFIGS["fs-check"]))
    payload["output"]["formats"] = "json"
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["fs-check.json", "run_manifest.json"]


@pytest.mark.parametrize(
    "scenario, constants, field",
    [
        ({"times": [45.0]}, {}, "scenario.times"),
        ({}, {"t0": 50}, "constants.t0"),
    ],
)
def test_overflowing_t0_names_its_field(scenario, constants, field, tmp_path, capsys):
    # 8 J_bar dG t0 past 709.8 overflows c1 = e^(8 J_bar dG t0) / c0 on a J = 1 chain
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["scenario"].update(scenario)
    payload["constants"].update(constants)
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}: t0 = " in capsys.readouterr().err


@pytest.mark.parametrize(
    "constants, message",
    [
        ({"q0": 2000}, "constants.q0: q0 = 2000.0"),
        ({"c0": 1e-110, "q0": 1}, "constants.c0: c0 = 1e-110"),
    ],
)
def test_overflowing_c1_prime_names_its_field(constants, message, tmp_path, capsys):
    # c1' = 320 c0^-3 e^(4 J_bar dG t0 + c0 (1 + q0 / sizeX)) overflows through
    # q0 or c0^-3, while c1 = e^(8 J_bar dG t0) / c0 is finite at t0 = 0.1
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["scenario"]["times"] = [0.1]
    payload["constants"].update(constants)
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message} overflows c1'" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "psi0", ["fock:[1,0", "mott-x", "fock:5", "sideways", 3, "fock:[1,1,1.5,1,1]"]
)
def test_malformed_psi0_is_config_error(psi0, tmp_path, capsys):
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["scenario"]["psi0"] = psi0
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: scenario.psi0: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, block, key, value, field",
    [
        ("moment-check", "basis", "cutoff", "five", "basis.cutoff"),
        ("quench-sim", "basis", "sector", "six", "basis.sector"),
        ("moment-check", "constants", "c0", "abc", "constants.c0"),
        ("moment-check", "constants", "D", [1], "constants.D"),
        ("moment-check", "scenario", "times", ["soon"], "scenario.times"),
        ("moment-check", "scenario", "s_values", ["two"], "scenario.s_values"),
        ("truncation-check", "scenario", "t", "later", "scenario.t"),
        ("quench-sim", "scenario", "R_values", [None], "scenario.R_values"),
        ("approx-sweep", "scenario", "delta_t0", "x", "scenario.delta_t0"),
        ("adjacency-check", "scenario", "J_scale", {}, "scenario.J_scale"),
        ("moment-check", "scenario", "i0", 5, "scenario.i0"),
        ("approx-sweep", "scenario", "i0", -1, "scenario.i0"),
        ("moment-check", "scenario", "sites", [-1], "scenario.sites"),
        ("lightcone-map", "scenario", "sites", [0, 6], "scenario.sites"),
        ("truncation-check", "scenario", "X", [6], "scenario.X"),
        ("short-lr-check", "scenario", "X", [-2], "scenario.X"),
        ("clustering", "scenario", "anchor", -1, "scenario.anchor"),
        ("quench-sim", "scenario", "h", {"site": 6}, "scenario.h.site"),
        ("quench-sim", "scenario", "h", {"site": -1}, "scenario.h.site"),
        ("moment-check", "scenario", "observable",
         {"kind": "projector", "site": 5, "value": 1}, "observable.site"),
        ("lightcone-map", "scenario", "observable",
         {"kind": "number", "sites": [-1]}, "observable.sites"),
        ("moment-check", "scenario", "i0", 2.7, "scenario.i0"),
        ("moment-check", "scenario", "sites", [True, 3.9], "scenario.sites"),
        ("moment-check", "scenario", "sites", [3.9], "scenario.sites"),
        ("moment-check", "scenario", "s_values", [1.5], "scenario.s_values"),
        ("tail-check", "scenario", "z_values", [True], "scenario.z_values"),
        ("moment-check", "basis", "cutoff", 2.5, "basis.cutoff"),
        ("moment-check", "basis", "cutoff", True, "basis.cutoff"),
        ("quench-sim", "basis", "sector", 6.5, "basis.sector"),
        ("moment-check", "constants", "D", 1.5, "constants.D"),
        ("moment-check", "constants", "dG", True, "constants.dG"),
        ("moment-check", "constants", "k", 2.5, "constants.k"),
        ("truncation-check", "scenario", "ell0", 1.5, "scenario.ell0"),
        ("short-lr-check", "scenario", "q", True, "scenario.q"),
        ("approx-sweep", "scenario", "R_values", [2.5], "scenario.R_values"),
        ("quench-sim", "scenario", "h", {"site": 3, "power": 2.5}, "scenario.h.power"),
        ("clustering", "scenario", "d_values", [1, 2.2], "scenario.d_values"),
        ("fs-check", "scenario", "s_max", 4.5, "scenario.s_max"),
        ("moment-check", "scenario", "observable",
         {"kind": "projector", "site": 2, "value": 1.5}, "observable.value"),
        ("truncation-check", "scenario", "q_values", [0, 1], "scenario.q_values"),
        ("truncation-check", "scenario", "ell0", 0, "scenario.ell0"),
        ("truncation-check", "scenario", "r", 2, "scenario.r"),
        ("short-lr-check", "scenario", "ell0_values", [0], "scenario.ell0_values"),
        ("short-lr-check", "scenario", "q", 0, "scenario.q"),
        ("moment-check", "scenario", "s_values", [0], "scenario.s_values"),
        ("tail-check", "scenario", "z_values", [0], "scenario.z_values"),
        ("tail-check", "scenario", "r", 2, "scenario.r"),
        ("tail-check", "scenario", "mode", "bogus", "scenario.mode"),
        ("approx-sweep", "scenario", "R_values", [0], "scenario.R_values"),
        ("approx-sweep", "scenario", "r0", -1, "scenario.r0"),
        ("approx-sweep", "scenario", "ell0", 0, "scenario.ell0"),
        ("quench-sim", "scenario", "R_values", [0], "scenario.R_values"),
        ("quench-sim", "scenario", "qprime", 0, "scenario.qprime"),
        ("quench-sim", "scenario", "h", {"site": 3, "power": -1}, "scenario.h.power"),
        ("fs-check", "scenario", "s_max", 30, "scenario.s_max"),
        ("adjacency-check", "scenario", "J_scale", -1, "scenario.J_scale"),
        ("lightcone-map", "scenario", "probe", "bogus", "scenario.probe"),
        ("lightcone-map", "scenario", "probe", "projector", "scenario.probe"),
        ("moment-check", "scenario", "times", [0.1, math.nan], "scenario.times"),
        ("tail-check", "scenario", "times", [math.inf], "scenario.times"),
        ("lightcone-map", "scenario", "times", [math.inf], "scenario.times"),
        ("lightcone-map", "scenario", "times", [0.2, -math.inf], "scenario.times"),
        ("adjacency-check", "scenario", "times", [math.nan], "scenario.times"),
        ("truncation-check", "scenario", "t", math.nan, "scenario.t"),
        ("short-lr-check", "scenario", "t", math.inf, "scenario.t"),
        ("approx-sweep", "scenario", "t", -math.inf, "scenario.t"),
        ("quench-sim", "scenario", "t", math.nan, "scenario.t"),
        ("adjacency-check", "scenario", "J_scale", math.inf, "scenario.J_scale"),
        ("approx-sweep", "scenario", "delta_t0", math.nan, "scenario.delta_t0"),
        ("approx-sweep", "scenario", "delta_t0", math.inf, "scenario.delta_t0"),
        ("quench-sim", "scenario", "delta_t0", math.inf, "scenario.delta_t0"),
        ("quench-sim", "scenario", "delta_t0", math.nan, "scenario.delta_t0"),
        ("quench-sim", "scenario", "stationarity_tol", math.nan, "scenario.stationarity_tol"),
        ("quench-sim", "scenario", "stationarity_tol", math.inf, "scenario.stationarity_tol"),
        ("quench-sim", "scenario", "h", {"site": 3, "coeff": math.nan}, "scenario.h.coeff"),
        ("moment-check", "constants", "t0", math.nan, "constants.t0"),
        ("moment-check", "constants", "c0", math.inf, "constants.c0"),
        ("lightcone-map", "model", "J", math.inf, "model.J"),
        ("moment-check", "model", "mu", math.nan, "model.mu"),
        ("tail-check", "scenario", "r", math.inf, "scenario.r"),
        ("bound-report", "scenario", "fixed", {"r0": 0, "t": math.inf}, "scenario.fixed.t"),
        ("bound-report", "scenario", "grid", {"R": [50, math.nan]}, "scenario.grid.R"),
        ("approx-sweep", "scenario", "delta_t0", 0, "scenario.delta_t0"),
        ("quench-sim", "scenario", "delta_t0", -0.1, "scenario.delta_t0"),
        ("quench-sim", "scenario", "stationarity_tol", -1, "scenario.stationarity_tol"),
        ("adjacency-check", "scenario", "times", [-0.1], "scenario.times"),
        ("short-lr-check", "scenario", "t", -0.05, "scenario.t"),
        ("approx-sweep", "scenario", "t", 0, "scenario.t"),
        ("approx-sweep", "scenario", "t", -0.1, "scenario.t"),
        ("quench-sim", "scenario", "t", 0, "scenario.t"),
        # t0 not given: it defaults to the largest |t|, which the error names
        ("moment-check", "scenario", "times", [0], "scenario.times"),
        ("tail-check", "scenario", "times", [0], "scenario.times"),
        ("truncation-check", "scenario", "t", 0, "scenario.t"),
        # a psi0 that is not stationary under H, refused by the quench
        ("quench-sim", "scenario", "psi0", "mott-1", "scenario.psi0"),
        # infeasible step schedules, named by the R that cannot hold them
        ("approx-sweep", "scenario", "R_values", [1, 4], "scenario.R_values"),
        ("quench-sim", "scenario", "delta_t0", 0.01, "scenario.R_values"),
        # a region with no site
        ("truncation-check", "scenario", "X", [], "scenario.X"),
        ("short-lr-check", "scenario", "X", [], "scenario.X"),
        # an fs-check with no m
        ("fs-check", "scenario", "m_max", -4, "scenario.m_max"),
        ("fs-check", "scenario", "m_max", 0, "scenario.m_max"),
    ],
)
def test_malformed_value_names_its_field(kind, block, key, value, field, tmp_path, capsys):
    payload = json.loads(json.dumps(CONFIGS[kind]))
    payload.setdefault(block, {})[key] = value
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("truncation-check", "X", [99]),
        ("truncation-check", "ell0", 0),
        ("truncation-check", "q_values", [0]),
        ("truncation-check", "t", 0),
        ("truncation-check", "r", math.inf),
        ("short-lr-check", "X", []),
        ("short-lr-check", "ell0_values", [0]),
        ("short-lr-check", "q", 0),
        ("short-lr-check", "t", -0.05),
        ("approx-sweep", "R_values", [0]),
        ("approx-sweep", "t", 0),
    ],
)
def test_a_bad_scenario_value_exits_before_h_is_assembled(
    kind, key, value, tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(cli, "assemble_hamiltonian", lambda *a, **kw: calls.append(a))
    payload = json.loads(json.dumps(CONFIGS[kind]))
    payload["scenario"][key] = value
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: scenario.{key}: " in capsys.readouterr().err
    assert calls == []


def test_quench_stationarity_tol_reaches_the_reference(tmp_path):
    # mott-1 is refused at the default tolerance (residual about 4.47)
    payload = json.loads(json.dumps(CONFIGS["quench-sim"]))
    payload["scenario"].update(psi0="mott-1", stationarity_tol=10.0)
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) in (0, 1)
    steps = json.loads((tmp_path / "o" / "quench_steps.json").read_text())
    residuals = {row["stationarity_residual"] for row in steps}
    assert len(steps) == 3 and len(residuals) == 1
    assert 1.0 < residuals.pop() < 10.0


def test_default_t0_is_the_largest_absolute_time(tmp_path):
    # a negative time is checked against a window that contains it
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["scenario"]["times"] = [-2.0, 0.05]
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    assert manifest["resolved_constants"]["t0"] == 2.0


def test_non_finite_time_with_a_given_t0_names_its_field(tmp_path, capsys):
    # with t0 given, no constant is derived from the times, so only the read refuses
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["constants"]["t0"] = 0.1
    payload["scenario"]["times"] = [0.1, math.nan]
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: scenario.times: nan is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o" / "moment-check.csv").exists()


def test_lightcone_map_factorises_each_block_once_per_grid(tmp_path, monkeypatch):
    # hard-core chain 8 has 9 N-blocks: one eigh each serves all three times
    calls = []
    real = evolve_mod.eigh

    def counting(M, *args, **kwargs):
        calls.append(M.shape)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(evolve_mod, "eigh", counting)
    payload = json.loads(json.dumps(CONFIGS["lightcone-map"]))
    payload["lattice"]["dims"] = [8]
    payload["scenario"]["times"] = [0.5, 1.0, 1.5]
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 9
    assert sorted(n for n, _ in calls) == sorted(math.comb(8, k) for k in range(9))


@pytest.mark.parametrize(
    "model, field",
    [
        ({"hoppings": [[-1, 3, 1.0]]}, "model.hoppings"),
        ({"hoppings": [[0, 1, 1.0], [4, 5, 1.0]]}, "model.hoppings"),
        ({"interactions": [{"region": [5], "monomials": [[1.0, [2]]]}]},
         "model.interactions[].region"),
        ({"interactions": [{"region": [-1], "monomials": [[1.0, [2]]]}]},
         "model.interactions[].region"),
    ],
)
def test_model_site_out_of_range_names_its_field(model, field, tmp_path, capsys):
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["model"] = model
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}: site " in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("k_max", 5), ("J_bar", 9.0)])
def test_bose_hubbard_model_refuses_explicit_only_keys(key, value, tmp_path, capsys):
    """A (J, U, mu) block derives k_max and J_bar from its terms, so either
    key is refused, not ignored."""
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    assert "J" in payload["model"]
    payload["model"][key] = value
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: model.{key}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, blocks, field",
    [
        ("moment-check", {"basis": {"cutoffs": [5, 5, 5.5, 5, 5]}}, "basis.cutoffs"),
        ("moment-check", {"model": {"hoppings": [[0, 1, 1.0]], "k_max": 1.5}},
         "model.k_max"),
        ("moment-check",
         {"model": {"interactions": [{"region": [0], "monomials": [[1.0, [2.5]]]}]}},
         "model.interactions[].monomials"),
        ("bound-report",
         {"scenario": {"kind": "bound-report", "bound": "moment",
                       "grid": {"s": [2, 2.5, 2.9]}, "fixed": {"sizeX": 1, "d_iX": 2}}},
         "scenario.grid.s"),
        ("bound-report",
         {"scenario": {"kind": "bound-report", "bound": "truncation",
                       "grid": {"r": [3]}, "fixed": {"q": 1.5, "sizeL": 3, "ell0": 1}}},
         "scenario.fixed.q"),
        ("bound-report",
         {"scenario": {"kind": "bound-report", "bound": "moment",
                       "grid": {"d_iX": [2]}, "fixed": {"s": [2, 3], "sizeX": 1}}},
         "scenario.fixed.s"),
    ],
)
def test_non_integral_value_names_its_field(kind, blocks, field, tmp_path, capsys):
    payload = {**json.loads(json.dumps(CONFIGS[kind])), **blocks}
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


def test_manifest_records_the_constants_the_run_resolved(tmp_path):
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["basis"] = {"cutoff": 3}
    payload["scenario"]["observable"] = {"kind": "number", "site": 2}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rc = json.loads((out / "run_manifest.json").read_text())["resolved_constants"]
    b = enumerate_basis(build_lattice("chain", [5]), 3)
    # zeta0 is the norm of n_2 that M_bound used, not the no-observable default 1
    assert rc["zeta0"] == spectral_norm(local_operator("number", [2], b)) == 3.0


def test_manifest_records_the_creation_degree_as_q0(tmp_path):
    # q0 defaults to the observable's creation degree on its site; a given q0 is kept
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["basis"] = {"cutoff": 3}
    for kind, given, q0 in (("creation", None, 1), ("number", None, 0), ("creation", 2.5, 2.5)):
        payload["scenario"]["observable"] = {"kind": kind, "site": 2}
        if given is not None:
            payload["constants"]["q0"] = given
        out = tmp_path / f"{kind}-{given}"
        assert main(["run", str(write_cfg(tmp_path, payload)), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["resolved_constants"]["q0"] == q0


def test_unbounded_creation_degree_names_q0(tmp_path, capsys):
    # on a hard-core site b^dag raises n from 0 to 1, the whole range
    payload = json.loads(json.dumps(CONFIGS["moment-check"]))
    payload["basis"] = {"cutoff": 1}
    payload["scenario"]["observable"] = {"kind": "creation", "site": 2}
    assert main(["run", str(write_cfg(tmp_path, payload)), "--out", str(tmp_path / "o")]) == 2
    assert "config error: constants.q0: " in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["lightcone-map", "clustering", "adjacency-check", "fs-check"])
def test_manifest_has_no_constants_a_run_did_not_resolve(kind, tmp_path):
    cfg = write_cfg(tmp_path, CONFIGS[kind])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert "resolved_constants" not in json.loads((out / "run_manifest.json").read_text())


def _bound_report_rows(tmp_path, grid):
    payload = json.loads(json.dumps(CONFIGS["bound-report"]))
    payload["scenario"] = {"kind": "bound-report", "bound": "lightcone-radius", "grid": grid}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    with (out / "bound-report.csv").open() as fh:
        return list(csv.DictReader(fh))


def test_lightcone_radius_accepts_scalar_grid_values(tmp_path):
    rows = _bound_report_rows(tmp_path, {"t": 4.0, "delta": 0.5})
    assert [r["params"] for r in rows] == ['{"delta": 0.5, "t": 4.0}']
    assert float(rows[0]["value"]) > 0


def test_lightcone_radius_list_grid_keeps_order_and_params(tmp_path):
    rows = _bound_report_rows(tmp_path, {"t": [3, 4.5], "delta": [0.5, 1]})
    # t outer, delta inner; values are written as the config gave them
    assert [r["params"] for r in rows] == [
        '{"delta": 0.5, "t": 3}',
        '{"delta": 1, "t": 3}',
        '{"delta": 0.5, "t": 4.5}',
        '{"delta": 1, "t": 4.5}',
    ]


@pytest.mark.parametrize(
    "bound, grid, fixed, message",
    [
        ("lightcone-radius", {"delta": 0.5}, None, "missing required key 't'"),
        ("lightcone-radius", {"t": 2.0}, None, "missing required key 'delta'"),
        ("lightcone-radius", {"t": 2.0, "delta": 0.5}, None,
         '{"delta": 0.5, "t": 2.0}: t must be >= e'),
        ("lightcone-radius", {"t": 4.0, "delta": 2.0}, None,
         '{"delta": 2.0, "t": 4.0}: delta must lie in (0, 1]'),
        ("moment", {"sizeX": [2, 0.5]}, {"s": 1, "d_iX": 2},
         '{"d_iX": 2.0, "s": 1.0, "sizeX": 0.5}: sizeX must be >= 1'),
    ],
)
def test_a_bound_the_evaluator_refuses_names_its_grid_point(
    bound, grid, fixed, message, tmp_path, capsys
):
    payload = json.loads(json.dumps(CONFIGS["bound-report"]))
    payload["scenario"] = {"kind": "bound-report", "bound": bound, "grid": grid}
    if fixed is not None:
        payload["scenario"]["fixed"] = fixed
    assert main(["run", str(write_cfg(tmp_path, payload)), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: scenario.grid: {message}" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


def _is_int(cell):
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _is_float(cell):
    try:
        value = float(cell)
    except ValueError:
        return False
    return math.isfinite(value) and not _is_int(cell)


def assert_matches_golden(path: Path, kind: str) -> None:
    """The report at ``path`` reproduces ``tests/golden/<kind>.csv``.

    Text, int and bool columns must match exactly; float columns (any cell
    that is a finite number but not an integer) to 1e-10 + 1e-9 |ref|, since
    1e-10 is the Krylov propagation tolerance; their non-finite cells exactly.
    """
    with (GOLDEN / f"{kind}.csv").open() as fh:
        ref = list(csv.reader(fh))
    with path.open() as fh:
        got = list(csv.reader(fh))
    assert got[0] == ref[0]
    assert len(got) == len(ref)
    floats = {c for c in range(len(ref[0])) if any(_is_float(r[c]) for r in ref[1:])}
    for got_row, ref_row in zip(got[1:], ref[1:]):
        for c, (x, r) in enumerate(zip(got_row, ref_row)):
            if c in floats and _is_float(r):
                assert abs(float(x) - float(r)) <= 1e-10 + 1e-9 * abs(float(r)), (c, x, r)
            else:
                assert x == r, (c, x, r)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_report_matches_golden(kind, tmp_path):
    """Every smoke config reproduces its committed report (``assert_matches_golden``)."""
    cfg = write_cfg(tmp_path, CONFIGS[kind])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert_matches_golden(out / f"{kind}.csv", kind)
