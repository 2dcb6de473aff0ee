"""The three scenario workloads: seeded configs, set-up sizes and output checks.

Each workload is one boselab scenario config at a fixed size. The seed only
chooses between a site and its mirror image on the chain, so every seed costs
the same; the output of the mirrored config equals the reference after the
site index i is mapped to n_sites - 1 - i.
"""

from __future__ import annotations

import csv
import io
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Probe and bound columns agree with the reference to this tolerance:
# |x - ref| <= ATOL + RTOL * |ref|.  Mirrored configs reproduce the reference
# to about 1e-15, and the Krylov propagator works to 1e-10 in 2-norm, so the
# tolerance only admits round-off and solver-path changes, not wrong physics.
RTOL = 1e-6
ATOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    n_sites: int
    sites: tuple[int, int]  # reference site, then its mirror image
    key: tuple[str, ...]  # columns that identify a row
    exact: tuple[str, ...]  # text, bool and int columns: must match exactly
    approx: tuple[str, ...]  # float columns: must match within tolerance
    dim: int  # basis dimension the set-up must build
    nnz: int  # nonzeros of the assembled Hamiltonian
    make_config: Callable[[int], dict]

    def config(self, seed: int) -> tuple[dict, bool]:
        """Config for ``seed`` and whether it is the mirror image of the reference."""
        site = random.Random(seed).choice(self.sites)
        return self.make_config(site), site != self.sites[0]

    @property
    def kind(self) -> str:
        return self.make_config(self.sites[0])["scenario"]["kind"]

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.csv"

    def check(self, text: str, mirrored: bool) -> list[str]:
        """Problems found in one scenario CSV; empty when it matches the reference."""
        ref_header, ref_rows = _parse(self.reference_path().read_text())
        header, rows = _parse(text)
        if header != ref_header:
            return [f"header {header} differs from reference {ref_header}"]
        if len(rows) != len(ref_rows):
            return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
        expected = {self._key(r, False): r for r in ref_rows}
        problems = []
        for row in rows:
            k = self._key(row, mirrored)
            ref = expected.pop(k, None)
            if ref is None:
                problems.append(f"row {k} is not in the reference")
                continue
            for c in self.exact:
                if row[c] != ref[c]:
                    problems.append(f"row {k} column {c}: {row[c]!r} != {ref[c]!r}")
            for c in self.approx:
                r = float(ref[c])
                try:
                    x = float(row[c])
                except (TypeError, ValueError):
                    problems.append(f"row {k} column {c}: {row[c]!r} is not a number")
                    continue
                if not abs(x - r) <= ATOL + RTOL * abs(r):
                    problems.append(f"row {k} column {c}: {x!r} vs reference {r!r}")
        return problems

    def _key(self, row: dict, mirrored: bool) -> tuple[str, ...]:
        return tuple(
            str(self.n_sites - 1 - int(row[c])) if mirrored and c == "i" else row[c]
            for c in self.key
        )


def _parse(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def _krylov_moments(site: int) -> dict:
    return {
        "lattice": {"kind": "chain", "dims": [7]},
        "basis": {"cutoff": 3},
        "model": {"J": 1.0, "U": 1.0, "mu": 0.0},
        "scenario": {
            "kind": "moment-check",
            "i0": site,
            "observable": {"kind": "projector", "site": site, "value": 1},
            "s_values": [1, 2, 3],
            "times": [0.1, 0.2, 0.3, 0.4],
            "psi0": "mott-1",
        },
        "output": {"formats": ["csv"]},
    }


def _sector_quench(site: int) -> dict:
    return {
        "lattice": {"kind": "chain", "dims": [9]},
        "basis": {"cutoff": 3, "sector": 9},
        "model": {"J": 1.0, "U": 4.0, "mu": 0.0},
        "scenario": {
            "kind": "quench-sim",
            "h": {"site": site, "coeff": 0.5, "power": 2},
            "psi0": "ground",
            "t": 0.1,
            "R_values": [2, 3, 4, 5],
        },
        "output": {"formats": ["csv"]},
    }


def _dense_lightcone(site: int) -> dict:
    return {
        "lattice": {"kind": "chain", "dims": [8]},
        "basis": {"cutoff": 1},
        "model": {"J": 1.0, "U": 0.0, "mu": 0.0},
        "scenario": {
            "kind": "lightcone-map",
            "i0": site,
            "observable": {"kind": "number", "site": site},
            "probe": "number",
            "times": [0.5, 1.0, 1.5],
        },
        "output": {"formats": ["csv"]},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="krylov-moments",
            n_sites=7,
            sites=(2, 4),
            key=("i", "s", "t"),
            exact=("scenario", "pass"),
            approx=("M_probe", "M_bound", "log_M_bound"),
            dim=16_384,
            nnz=126_848,
            make_config=_krylov_moments,
        ),
        Workload(
            name="sector-quench",
            n_sites=9,
            sites=(3, 5),
            key=("R", "t"),
            exact=("scenario", "cost_states", "pass"),
            approx=("error", "bound", "log_bound"),
            dim=13_051,
            nnz=125_418,
            make_config=_sector_quench,
        ),
        Workload(
            name="dense-lightcone",
            n_sites=8,
            sites=(0, 7),
            key=("i", "t"),
            exact=("scenario",),
            approx=("commutator_norm",),
            dim=256,
            nnz=896,
            make_config=_dense_lightcone,
        ),
    )
}
