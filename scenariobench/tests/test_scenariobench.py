"""Tests of the scenario benchmark itself.

    PYTHONPATH=src python3 -m pytest -q scenariobench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import boselab.cli as cli  # noqa: E402

# Small versions of each workload's config, so a test call takes a second.
SMALL = {
    "krylov-moments": (
        1,
        {"lattice": {"kind": "chain", "dims": [4]}, "basis": {"cutoff": 2}},
        {"s_values": [1, 2], "times": [0.1, 0.2]},
    ),
    "sector-quench": (
        2,
        {"lattice": {"kind": "chain", "dims": [6]}, "basis": {"cutoff": 2, "sector": 6}},
        {"R_values": [2, 3]},
    ),
    "dense-lightcone": (0, {"lattice": {"kind": "chain", "dims": [5]}}, {"times": [0.5]}),
}


def small_config(name: str) -> dict:
    site, top, scenario = SMALL[name]
    cfg = WORKLOADS[name].make_config(site)
    cfg.update(top)
    cfg["scenario"].update(scenario)
    return cfg


def run(cfg: dict, out: Path, tracer=None) -> bytes:
    path = out / "config.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    if tracer is None:
        code = cli.run_scenario(path, out_dir=out, seed=3, threads=1)
    else:
        with tracer:
            code = cli.run_scenario(path, out_dir=out, seed=3, threads=1)
    assert code == 0
    return (out / f"{cfg['scenario']['kind']}.csv").read_bytes()


def boselab_attributes() -> dict[tuple[str, str], object]:
    return {
        (modname, attr): value
        for modname, module in sys.modules.items()
        if modname == "boselab" or modname.startswith("boselab.")
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_writes_the_same_csv_bytes(name, tmp_path):
    cfg = small_config(name)
    plain = run(cfg, tmp_path / "plain")
    tracer = spans.Tracer()
    traced = run(cfg, tmp_path / "traced", tracer)
    assert traced == plain
    top = [s for s in tracer.spans if s.parent is None]
    assert [s.qualname for s in top] == ["cli.run_scenario"]
    assert {s.layer for s in tracer.spans} >= {"cli", "lattice", "fock", "model"}


def test_traced_run_counts_the_layers_of_the_sector_quench(tmp_path):
    tracer = spans.Tracer()
    run(small_config("sector-quench"), tmp_path, tracer)
    m = {k: v for k, (v, _) in spans.layer_metrics(tracer.spans).items()}
    # one H for the ground state, then per R: the full H and the B and A step generators
    assert m["model.assemble_calls"] == 1 + 2 * 3
    assert m["approx.steps"] == 2
    assert m["probes.ground_state_s"] > 0
    assert m["evolve.krylov_steps"] > 0
    assert m["fock.basis_bytes"] > 0
    assert m["cli.self_s"] >= 0 and m["approx.self_s"] >= 0


def test_every_benchmark_json_metric_is_emitted_with_its_unit(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    call = bench.Call(seconds=1.0, csv="", problems=[])
    e2e = bench.end_to_end_metrics([1.0, 1.1, 0.9], [0.1, 0.2, 0.3], 100_000, [call])
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    tracer = spans.Tracer()
    run(small_config("dense-lightcone"), tmp_path, tracer)
    layers = bench.per_layer_metrics([tracer.spans], 0.5, [1.2], [1.0])
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert spec["command"][1] == str(Path(bench.__file__).relative_to(ROOT))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_no_wrapper_is_left_installed(tmp_path):
    before = boselab_attributes()
    tracer = spans.Tracer()
    run(small_config("krylov-moments"), tmp_path, tracer)
    assert tracer.spans
    with pytest.raises(RuntimeError), spans.Tracer():
        assert getattr(cli.run_scenario, spans.MARK, False)
        raise RuntimeError("a failing traced call")
    after = boselab_attributes()
    assert after.keys() == before.keys()
    moved = [k for k in before if after[k] is not before[k]]
    assert moved == []
    assert not any(getattr(v, spans.MARK, False) for v in after.values())


def mirror_csv(text: str, n_sites: int) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    col = header.index("i")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[col] = str(n_sites - 1 - int(cells[col]))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def test_check_accepts_the_mirror_image_and_rejects_wrong_output():
    w = WORKLOADS["dense-lightcone"]
    ref = w.reference_path().read_text()
    assert w.check(ref, mirrored=False) == []
    assert w.check(mirror_csv(ref, w.n_sites), mirrored=True) == []
    assert w.check(ref, mirrored=True) != []

    lines = ref.splitlines()
    cells = lines[5].split(",")
    value = float(cells[-1])
    for factor, ok in ((1 + 1e-8, True), (1 + 1e-4, False)):
        cells[-1] = repr(value * factor)
        changed = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
        assert (w.check(changed, mirrored=False) == []) is ok
    assert w.check("\n".join(lines[:-1]) + "\n", mirrored=False) != []
    cells[-1] = ""
    blank = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    assert w.check(blank, mirrored=False) != []

    km = WORKLOADS["krylov-moments"]
    flipped = km.reference_path().read_text().replace(",True\n", ",False\n", 1)
    assert km.check(flipped, mirrored=False) != []


def test_dense_lightcone_matches_the_reference_in_both_orientations(tmp_path):
    w = WORKLOADS["dense-lightcone"]
    for site in w.sites:
        text = run(w.make_config(site), tmp_path / str(site)).decode()
        assert w.check(text, mirrored=site != w.sites[0]) == []


def test_peak_rss_process_makes_one_checked_call(tmp_path):
    w = WORKLOADS["dense-lightcone"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(w.make_config(w.sites[1])))
    peak_kb, call = bench.measure_peak_rss(w, cfg_path, tmp_path / "out", 1, mirrored=True)
    assert call.problems == []
    assert peak_kb > 10_000


def test_benchmark_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", "dense-lightcone", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
