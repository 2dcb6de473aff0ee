"""Write reference/<workload>.csv from the current program.

    python3 scenariobench/make_reference.py [workload ...]

Runs each workload's reference (unmirrored) config once, with the same BLAS
pinning as the benchmark.  Only regenerate a reference when a change is
meant to alter the scenario's output, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from bench import SRC, pin_blas_threads
from workloads import REFERENCE_DIR, WORKLOADS


def main(names: list[str]) -> int:
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from boselab.cli import run_scenario

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "config.json"
            cfg_path.write_text(json.dumps(w.make_config(w.sites[0])))
            code = run_scenario(cfg_path, out_dir=tmp, seed=0, threads=1)
            if code != 0:
                print(f"{name}: run_scenario returned {code}", file=sys.stderr)
                return 1
            shutil.copyfile(Path(tmp) / f"{w.kind}.csv", w.reference_path())
        print(f"wrote {w.reference_path()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
