"""Exact evolution and light-cone norms against single-particle closed forms.

Free bosons and hard-core bosons on an open chain move by one particle's
propagator U(t) = e^{-iJtA} (``helpers.chain_propagator``), so densities
from a Fock state and the light-cone norms ||[n_i(t), n_j]|| have closed
forms at any size, a second route that shares no code with the library.
"""

import csv
import json

import numpy as np
import pytest

from boselab import cli
from boselab.evolve import DENSE_CAP, evolve_state
from boselab.fock import enumerate_basis
from boselab.lattice import build_lattice
from boselab.model import assemble_hamiltonian, bose_hubbard, local_operator
from boselab.probes import commutator_norms, heisenberg_apply
from helpers import (
    chain_propagator,
    closed_form_commutator_norms,
    closed_form_densities,
    fock_state,
)

J = 1.0
TIMES = [0.5, 1.0, 2.0]


@pytest.mark.parametrize(
    "n_sites, cutoff, occ, dim",
    [
        # hard-core chain 16 at half filling
        (16, 1, (1,) * 8 + (0,) * 8, 12_870),
        # free bosons, chain 10, N = 5, cutoff 5 = N, so no state is cut off
        (10, 5, (0, 0, 2, 0, 0, 3, 0, 0, 0, 0), 2_002),
        # hard-core chain 20 at half filling, above dim 10^5
        (20, 1, (1,) * 10 + (0,) * 10, 184_756),
        # hard-core chain 16 on its product basis, the march on the N = 8 rows
        (16, 1, (1,) * 8 + (0,) * 8, 65_536),
    ],
)
def test_evolved_densities_match_the_closed_form(n_sites, cutoff, occ, dim):
    g = build_lattice("chain", [n_sites])
    # the product basis where dim is the whole product (cutoff + 1)^L
    product = dim == (cutoff + 1) ** n_sites
    b = enumerate_basis(g, cutoff, sector=None if product else sum(occ))
    assert b.dim == dim > DENSE_CAP
    H = assemble_hamiltonian(bose_hubbard(g, J=J, U=0.0), b)
    psi0 = fock_state(b, occ)
    states = b.states.astype(np.float64)
    for t, psi in zip(TIMES, evolve_state(H, psi0, TIMES)):
        got = np.abs(psi.amplitudes) ** 2 @ states
        want = closed_form_densities(chain_propagator(n_sites, J, t), occ)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("i0", [0, 3])
def test_commutator_norms_match_the_closed_form(i0):
    # the dense-lightcone benchmark model: hard-core chain 8, J = 1, U = 0
    g = build_lattice("chain", [8])
    b = enumerate_basis(g, 1)
    H = assemble_hamiltonian(bose_hubbard(g, J=J, U=0.0), b)
    O_A = local_operator("number", [i0], b)
    probes = [local_operator("number", [i], b) for i in g.sites]
    times = [0.5, 1.0, 1.5]
    for t, row in zip(times, commutator_norms(H, O_A, probes, times)):
        want = closed_form_commutator_norms(chain_propagator(8, J, t))[i0]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)


def test_heisenberg_apply_densities_match_the_closed_form():
    # <psi0| n_i(t) |psi0> on hard-core chain 16 at half filling, O(t) psi0
    # from two sparse propagations
    occ = (1,) * 8 + (0,) * 8
    g = build_lattice("chain", [16])
    b = enumerate_basis(g, 1, sector=8)
    H = assemble_hamiltonian(bose_hubbard(g, J=J, U=0.0), b)
    psi0 = fock_state(b, occ)
    t = 1.0
    got = []
    for i in g.sites:
        phi = heisenberg_apply(H, local_operator("number", [i], b), psi0, t)
        got.append(np.vdot(psi0.amplitudes, phi.amplitudes))
    want = closed_form_densities(chain_propagator(16, J, t), occ)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_lightcone_map_through_the_cli_matches_the_closed_form(tmp_path):
    # hard-core chain 10 on its product basis (dim 1,024, under the dense
    # cap), the report's norms by the dense per-block path
    i0 = 3
    cfg = {
        "lattice": {"kind": "chain", "dims": [10]},
        "basis": {"cutoff": 1},
        "model": {"J": J, "U": 0.0},
        "scenario": {"kind": "lightcone-map", "i0": i0, "times": TIMES},
        "output": {"formats": ["csv"]},
    }
    path = tmp_path / "lightcone.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    with (tmp_path / "out" / "lightcone-map.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10 * len(TIMES)
    for row in rows:
        t, i = float(row["t"]), int(row["i"])
        want = closed_form_commutator_norms(chain_propagator(10, J, t))[i0, i]
        assert abs(float(row["commutator_norm"]) - want) <= 1e-12
