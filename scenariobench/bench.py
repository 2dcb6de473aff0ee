"""Scenario benchmark for boselab.

Runs one workload through ``boselab.cli.run_scenario`` in this process and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 scenariobench/bench.py --workload krylov-moments --seed 1 \
        --seconds 34 --trace 0

``--trace 0`` reports the end-to-end metrics: ``scenario_s`` (median wall
time of one call after a warm-up call), ``setup_s`` (median time to build
lattice, basis and Hamiltonian), ``peak_rss_mb`` (of a fresh process that
makes one call, see ``peak_rss.py``) and ``ok_frac``.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of ``spans.layer_metrics`` plus ``cli.import_s`` and
``trace.overhead_s``.  Every call's CSV is checked against the reference
in ``reference/``.  The program is imported from ``src/`` of the checkout
that holds this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".scenariobench"

# One BLAS thread on every run: it is never more than nproc, and a single
# thread is steadier than two on a shared 2-core machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_TIMED_CALLS = 3
# Set-up repetitions run in a block before each timed call, so their samples
# span the whole run like the calls do; a block is one repetition at least.
SETUP_BLOCK_S = 0.3
SETUP_BLOCK_MAX_REPS = 100
# peak_rss.py runs with glibc's mmap threshold fixed at its default, so the
# peak does not depend on malloc's dynamic thresholds (see that file).
PEAK_RSS_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
PEAK_RSS_TIMEOUT_S = 60


@dataclass
class Call:
    seconds: float
    csv: str
    problems: list[str]
    traced: bool = False


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def loaded_blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library mapped into this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                libs.add(path)
    counts = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[Path(path).name] = int(fn())
                break
    return counts


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(loadavg: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_loaded": loaded_blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "loadavg_start": loadavg,
    }


def measure_setup(cfg: dict, w: Workload) -> tuple[list[float], list[str]]:
    """Time one block of lattice + basis + Hamiltonian builds."""
    from boselab.fock import enumerate_basis
    from boselab.lattice import build_lattice
    from boselab.model import assemble_hamiltonian, bose_hubbard

    lat, basis, model = cfg["lattice"], cfg["basis"], cfg["model"]
    times: list[float] = []
    problems: list[str] = []
    while not times or (len(times) < SETUP_BLOCK_MAX_REPS and sum(times) < SETUP_BLOCK_S):
        start = time.perf_counter()
        g = build_lattice(lat["kind"], lat["dims"])
        b = enumerate_basis(g, basis["cutoff"], basis.get("sector"))
        H = assemble_hamiltonian(bose_hubbard(g, model["J"], model["U"], model["mu"]), b)
        times.append(time.perf_counter() - start)
        if (b.dim, H.matrix.nnz) != (w.dim, w.nnz):
            problems.append(f"set-up built dim {b.dim}, nnz {H.matrix.nnz}")
        del g, b, H
    return times, problems


def call_scenario(
    w: Workload, cfg_path: Path, out_dir: Path, seed: int, mirrored: bool, *, traced: bool
) -> tuple[Call, Tracer | None]:
    """One checked run_scenario call; an exception counts as a failed call."""
    import boselab.cli as cli

    out_csv = out_dir / f"{w.kind}.csv"
    out_csv.unlink(missing_ok=True)
    tracer = Tracer() if traced else None
    problems: list[str] = []
    # garbage left by the previous call is not this call's cost
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is not None:
            # looked up inside the block, so the call itself is a traced span
            with tracer:
                code = cli.run_scenario(cfg_path, out_dir=out_dir, seed=seed, threads=1)
        else:
            code = cli.run_scenario(cfg_path, out_dir=out_dir, seed=seed, threads=1)
    except Exception:
        code = None
        problems.append(traceback.format_exc())
    seconds = time.perf_counter() - start
    if code != 0:
        problems.append(f"run_scenario returned {code}")
    text = out_csv.read_text() if out_csv.is_file() else ""
    if text:
        problems += w.check(text, mirrored)
    else:
        problems.append(f"{out_csv.name} was not written")
    return Call(seconds, text, problems, traced), tracer


def measure_peak_rss(
    w: Workload, cfg_path: Path, out_dir: Path, seed: int, mirrored: bool
) -> tuple[int, Call]:
    """ru_maxrss in KiB of a fresh process that makes one checked call."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = out_dir / f"{w.kind}.csv"
    out_csv.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "peak_rss.py"), str(cfg_path), str(out_dir), str(seed)]
    problems: list[str] = []
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            env=dict(os.environ, **PEAK_RSS_ENV),
            capture_output=True,
            text=True,
            timeout=PEAK_RSS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
        problems.append(f"peak_rss.py ran past {PEAK_RSS_TIMEOUT_S} s")
    seconds = time.perf_counter() - start
    peak_kb = 0
    if proc is not None:
        if proc.returncode != 0:
            problems.append(f"peak_rss.py exited with {proc.returncode}: {proc.stderr[-2000:]}")
        else:
            peak_kb = int(proc.stdout.split()[-1])
    text = out_csv.read_text() if out_csv.is_file() else ""
    if text:
        problems += w.check(text, mirrored)
    else:
        problems.append(f"peak_rss.py did not write {out_csv.name}")
    return peak_kb, Call(seconds, text, problems)


def timed_calls(one_call, seconds: float, min_calls: int) -> list:
    """Repeat ``one_call`` at least ``min_calls`` times, then while the next fits."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_call())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= min_calls and elapsed + statistics.median(durations) > seconds:
            return results


def end_to_end_metrics(
    call_seconds: list[float], setup_seconds: list[float], peak_rss_kb: int, calls: list[Call]
) -> dict[str, tuple[float, str]]:
    ok = sum(1 for c in calls if not c.problems)
    return {
        "scenario_s": (statistics.median(call_seconds), "s"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "ok_frac": (ok / len(calls), "fraction"),
    }


def per_layer_metrics(
    traced_spans: list[list], import_s: float, traced_s: list[float], untraced_s: list[float]
) -> dict[str, tuple[float, str]]:
    """Median over traced calls of each layer metric, plus import and trace overhead."""
    per_call = [layer_metrics(spans) for spans in traced_spans]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_call), unit)
        for name, (_, unit) in per_call[0].items()
    }
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(untraced_s),
        "s",
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "boselab" / "__init__.py").is_file():
        print(f"no boselab sources under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().strip()
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import boselab.cli

    import_s = time.perf_counter() - start
    if not Path(boselab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"boselab was imported from {boselab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    cfg, mirrored = w.config(args.seed)
    run_dir = WORK_DIR / w.name
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")
    env = environment(loadavg)

    def call(traced: bool = False):
        return call_scenario(w, cfg_path, out_dir, args.seed, mirrored, traced=traced)

    problems: list[str] = []
    if args.trace:
        warm, _ = call()
        pairs = timed_calls(lambda: (call(False), call(True)), args.seconds, 1)
        untraced = [u for (u, _), _ in pairs]
        traced = [t for _, (t, _) in pairs]
        tracers = [tr for _, (_, tr) in pairs]
        for u, t in zip(untraced, traced):
            if t.csv != u.csv:
                t.problems.append("traced CSV differs from the untraced CSV")
        tracers[-1].write(run_dir / "spans.jsonl")
        calls = [warm] + untraced + traced
        metrics = per_layer_metrics(
            [tr.spans for tr in tracers],
            import_s,
            [c.seconds for c in traced],
            [c.seconds for c in untraced],
        )
    else:
        peak_kb, probe = measure_peak_rss(w, cfg_path, run_dir / "peak-rss", args.seed, mirrored)
        warm, _ = call()
        setup_s: list[float] = []

        def setup_then_call() -> Call:
            times, found = measure_setup(cfg, w)
            setup_s.extend(times)
            problems.extend(found)
            return call()[0]

        timed = timed_calls(setup_then_call, args.seconds, MIN_TIMED_CALLS)
        calls = [probe, warm] + timed
        metrics = end_to_end_metrics([c.seconds for c in timed], setup_s, peak_kb, calls)

    failed = sum(1 for c in calls if c.problems)
    for c in calls:
        for p in c.problems:
            print(f"{'traced' if c.traced else 'untraced'} call: {p}", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "mirrored": mirrored,
        "trace": args.trace,
        "env": env,
        "call_seconds": [c.seconds for c in calls],
    }
    (run_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
