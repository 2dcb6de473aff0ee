"""Peak resident memory of one scenario call in a fresh process.

    MALLOC_MMAP_THRESHOLD_=131072 python3 scenariobench/peak_rss.py CONFIG OUT_DIR SEED

Imports boselab from ``src/`` of the checkout, runs ``run_scenario`` once
with ``threads=1`` and prints ``ru_maxrss`` in KiB; the exit code is the
call's.  ``bench.py`` starts it with glibc's mmap threshold fixed, which
turns off malloc's dynamic thresholds: with them, whether freed Krylov
blocks go back to the system varies from process to process, and the peak
of the same call reads 101 or 110 MB at random.
"""

from __future__ import annotations

import resource
import sys

from bench import SRC, pin_blas_threads


def main(argv: list[str]) -> int:
    cfg_path, out_dir, seed = argv
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from boselab.cli import run_scenario

    code = run_scenario(cfg_path, out_dir=out_dir, seed=int(seed), threads=1)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
