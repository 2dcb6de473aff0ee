"""Moments, tails, restricted errors, ground states, correlations."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh

import boselab.probes as probes_mod
from boselab.evolve import RUN_DENSE_CAP, StateVector, evolve_state
from boselab.fock import enumerate_basis
from boselab.lattice import build_lattice
from boselab.model import _wrap, assemble_hamiltonian, bose_hubbard, local_operator
from boselab.probes import (
    commutator_norms,
    connected_correlation,
    ground_state,
    heisenberg_apply,
    mgf_condition,
    moments,
    tail_probabilities,
)
from helpers import (
    fock_state,
    oracle_heisenberg,
    random_hermitian,
    random_state,
    restricted_error,
)


def chain_setup(n, cutoff, J=1.0, U=0.0, mu=0.0, sector=None):
    g = build_lattice("chain", [n])
    b = enumerate_basis(g, cutoff, sector=sector)
    H = assemble_hamiltonian(bose_hubbard(g, J=J, U=U, mu=mu), b)
    return g, b, H


def test_moment_basic_values():
    g, b, _ = chain_setup(3, 2)
    mott = fock_state(b, (1, 1, 1))
    np.testing.assert_allclose(moments(mott, [0, 1, 2], [1, 2, 3]), 1.0, rtol=0, atol=1e-14)
    g1, b1, _ = chain_setup(1, 3)
    two = fock_state(b1, (2,))
    np.testing.assert_allclose(moments(two, [0], [1, 2]), [[2.0, 4.0]])
    with pytest.raises(ValueError):
        moments(two, [0], [0])


def test_moment_is_unnormalized():
    # sandwiched vectors keep the weight of the operator hit
    g, b, _ = chain_setup(1, 2)
    half = StateVector(b, 0.5 * fock_state(b, (2,)).amplitudes)
    assert moments(half, [0], [1])[0, 0] == pytest.approx(0.5)


def test_tail_probability():
    g, b, _ = chain_setup(3, 2)
    mott = fock_state(b, (1, 1, 1))
    assert tail_probabilities(mott, [0], [2, 1, 0]).tolist() == [[0.0, 1.0, 1.0]]
    g1, b1, _ = chain_setup(1, 2)
    sup = StateVector(
        b1,
        (fock_state(b1, (0,)).amplitudes + fock_state(b1, (2,)).amplitudes)
        / math.sqrt(2),
    )
    np.testing.assert_allclose(tail_probabilities(sup, [0], [1, 2]), [[0.5, 0.5]])


def test_tail_obeys_markov_on_evolved_state():
    g, b, H = chain_setup(3, 3, J=1.0, U=0.6)
    psi = evolve_state(H, fock_state(b, (2, 1, 0)), 0.7)
    z0s, orders = np.array([1, 2, 3]), np.array([1, 2, 3, 4])
    tails = tail_probabilities(psi, range(3), z0s)
    m = moments(psi, range(3), orders)
    for i in range(3):
        assert (tails[i][:, None] <= m[i] / z0s[:, None] ** orders + 1e-12).all()


def per_state_sum(phi, i, f):
    """sum over basis states of |amplitude|^2 f(n_i), one state at a time, exactly rounded."""
    return math.fsum(
        abs(a) ** 2 * f(int(occ[i])) for a, occ in zip(phi.amplitudes, phi.basis.states)
    )


@pytest.mark.parametrize(
    "n, cutoff, sector", [(4, 3, None), (5, 2, 5)], ids=["product", "sector"]
)
def test_batched_probes_equal_the_per_site_probes(n, cutoff, sector):
    # every (site, parameter) value, and the worst-site mgf value, against
    # its sum over the basis states;
    # z0 above the cutoff selects no state.  The batched sums run in another
    # order, so they agree to dim * eps (dim <= 256), not bit for bit
    g, b, H = chain_setup(n, cutoff, J=1.0, U=0.8, sector=sector)
    psi = evolve_state(H, random_state(b, 5), 0.6)
    hit = StateVector(b, local_operator("creation", [1], b).matrix @ psi.amplitudes)
    sites = [2, 0, n - 1]
    orders = [1, 2, 3]
    z0s = [1, 2, cutoff, cutoff + 1, cutoff + 4]
    for phi in (psi, hit):
        got = moments(phi, sites, orders)
        expect = [[per_state_sum(phi, i, lambda k: k**s) for s in orders] for i in sites]
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)
        got = tail_probabilities(phi, sites, z0s)
        expect = [[per_state_sum(phi, i, lambda k: k >= z0) for z0 in z0s] for i in sites]
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)
        assert (got[:, 3:] == 0.0).all()
        expect = max(per_state_sum(phi, i, lambda k: math.exp(0.7 * (k - 1.0))) for i in g.sites)
        assert mgf_condition(phi, 0.7, 1.0) == pytest.approx(expect, rel=1e-13)
    with pytest.raises(ValueError):
        moments(psi, sites, [1, 0])


def test_mgf_condition_values():
    g, b, _ = chain_setup(3, 2)
    mott = fock_state(b, (1, 1, 1))
    assert mgf_condition(mott, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    vac = fock_state(b, (0, 0, 0))
    for c0 in (0.3, 1.0):
        assert mgf_condition(vac, c0, 0.0) == pytest.approx(1.0, rel=1e-14)
    g1, b1, _ = chain_setup(1, 2)
    two = fock_state(b1, (2,))
    assert mgf_condition(two, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)


def test_mgf_condition_validation():
    g, b, _ = chain_setup(1, 2)
    vac = fock_state(b, (0,))
    for c0 in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            mgf_condition(vac, c0, 0.0)


def test_heisenberg_apply_matches_dense_route():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.9)
    O = local_operator("number", [0], b)
    psi = random_state(b, 4)
    t = 0.8
    direct = oracle_heisenberg(H, O, t) @ psi.amplitudes
    via_states = heisenberg_apply(H, O, psi, t, tol=1e-12)
    assert np.linalg.norm(direct - via_states.amplitudes) <= 1e-9


def test_heisenberg_apply_refuses_an_operator_on_another_basis(monkeypatch):
    g, b, H = chain_setup(3, 2, J=1.0, U=0.9)
    psi = random_state(b, 4)
    calls = []
    monkeypatch.setattr(probes_mod, "evolve_state", lambda *a, **kw: calls.append(a))
    # a second basis equal to psi's, and one with another cutoff
    for other in (enumerate_basis(g, 2), enumerate_basis(g, 3)):
        O = local_operator("number", [0], other)
        with pytest.raises(ValueError, match="O and psi live on different bases"):
            heisenberg_apply(H, O, psi, [0.5, 1.0])
    # refused before any leg is marched
    assert calls == []


def test_heisenberg_apply_over_a_grid_marches_its_forward_legs_once(monkeypatch):
    g, b, H = chain_setup(3, 2, J=1.0, U=0.9)
    O = local_operator("number", [0], b)
    psi = random_state(b, 4)
    grid = [0.8, -0.3, 0.0, 0.8, 2.1]
    calls, legs = [], []
    real = probes_mod.evolve_state

    def counting(H_, psi_, t, **kw):
        calls.append(t)
        return real(H_, psi_, t, **kw)

    def recording_map(fn, *iterables):
        legs.append(len(iterables[0]))
        return map(fn, *iterables)

    monkeypatch.setattr(probes_mod, "evolve_state", counting)
    got = heisenberg_apply(H, O, psi, grid, tol=1e-12, map_legs=recording_map)
    # one forward call over the grid, then one backward leg per time
    assert len(calls) == 1 + len(grid) and legs == [len(grid)]
    for t, phi in zip(grid, got):
        direct = oracle_heisenberg(H, O, t) @ psi.amplitudes
        assert np.linalg.norm(direct - phi.amplitudes) <= 1e-9
    assert isinstance(heisenberg_apply(H, O, psi, 0.8), StateVector)


def test_commutator_norm_zero_cases():
    g, b, H = chain_setup(4, 1, J=1.0)
    n0 = local_operator("number", [0], b)
    n3 = local_operator("number", [3], b)
    assert commutator_norms(H, n0, [n3], 0.0)[0] <= 1e-12
    assert commutator_norms(H, n0, [n0], 0.0)[0] <= 1e-12


def test_commutator_norm_growth_regression():
    # frozen reference values for the hard-core chain
    g, b, H = chain_setup(4, 1, J=1.0)
    n0 = local_operator("number", [0], b)
    n3 = local_operator("number", [3], b)
    v2 = commutator_norms(H, n0, [n3], 0.2)[0]
    v4 = commutator_norms(H, n0, [n3], 0.4)[0]
    assert v2 == pytest.approx(1.3253524571586722e-03, rel=1e-9)
    assert v4 == pytest.approx(1.0412687588771863e-02, rel=1e-9)
    assert 0.0 < v2 < v4


def test_restricted_error_exact_approximation():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.4)
    O = local_operator("number", [1], b)
    psi = random_state(b, 8)
    t = 0.5
    exact = StateVector(b, oracle_heisenberg(H, O, t) @ psi.amplitudes)
    assert restricted_error(H, O, exact, psi, t, tol=1e-12) <= 1e-9
    hit = StateVector(b, O.matrix @ psi.amplitudes)
    assert restricted_error(H, O, hit, psi, 0.0) <= 1e-12


def test_restricted_error_phase_invariance():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.4)
    O = local_operator("number", [0], b)
    approx = local_operator("number", [1], b)  # deliberately wrong
    psi = random_state(b, 1)
    t = 0.3
    e1 = restricted_error(H, O, StateVector(b, approx.matrix @ psi.amplitudes), psi, t)
    assert e1 > 0.1
    spun = StateVector(b, np.exp(1j * 0.9) * psi.amplitudes)
    e2 = restricted_error(H, O, StateVector(b, approx.matrix @ spun.amplitudes), spun, t)
    assert e2 == pytest.approx(e1, rel=1e-10)


def test_ground_state_atomic_limit():
    g, b, H = chain_setup(4, 2, J=0.0, U=1.0, mu=0.5)
    res = ground_state(H)
    assert res.E0 == pytest.approx(-2.0, abs=1e-10)
    assert res.gap_DeltaE == pytest.approx(0.5, abs=1e-10)
    assert not res.degenerate
    mott = fock_state(b, (1, 1, 1, 1))
    assert abs(res.ground.overlap(mott)) == pytest.approx(1.0, abs=1e-10)
    assert abs(res.ground.norm() - 1.0) <= 1e-12


def test_ground_state_atomic_limit_fixed_sector():
    # restricting to total number 4 removes the particle-number excitations;
    # the cheapest in-sector excitation moves one boson, costing a full U
    g, b, H = chain_setup(4, 2, J=0.0, U=1.0, mu=0.5, sector=4)
    res = ground_state(H)
    assert res.E0 == pytest.approx(-2.0, abs=1e-10)
    assert res.gap_DeltaE == pytest.approx(1.0, abs=1e-10)


def test_ground_state_validation_and_degeneracy():
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 2)
    H2 = local_operator("custom-matrix", [0], b, matrix=np.diag([0.0, 0.0, 1.0]))
    res = ground_state(H2)
    assert res.degenerate
    assert res.gap_DeltaE == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ground_state(local_operator("creation", [0], b))
    b1 = enumerate_basis(g, 0)
    one = local_operator("custom-matrix", [0], b1, matrix=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        ground_state(one)


def test_ground_state_iterative_path_is_deterministic():
    # dimension above the dense cap exercises the sparse solver
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 2400)
    H = assemble_hamiltonian(bose_hubbard(g, J=0.0, U=0.0, mu=-1.0), b)
    r1 = ground_state(H)
    r2 = ground_state(H)
    assert r1.E0 == pytest.approx(0.0, abs=1e-8)
    assert r1.gap_DeltaE == pytest.approx(1.0, abs=1e-8)
    assert np.array_equal(r1.ground.amplitudes, r2.ground.amplitudes)


@pytest.mark.parametrize(
    "kind, dims, cutoff, sector, J, U, mu",
    [
        ("chain", [6], 2, 6, 1.0, 4.0, 0.0),
        ("chain", [5], 3, 4, 1.0, 1.0, 0.0),
        ("grid", [2, 3], 2, 3, 0.7, 2.0, 0.3),
        ("chain", [4], 2, None, 1.0, 2.0, 0.5),
    ],
)
def test_ground_state_iterative_path_matches_dense(kind, dims, cutoff, sector, J, U, mu):
    # interacting models; a run cap below their dimension sends them to eigsh
    g = build_lattice(kind, dims)
    b = enumerate_basis(g, cutoff, sector=sector)
    H = assemble_hamiltonian(bose_hubbard(g, J=J, U=U, mu=mu), b)
    dense = ground_state(H)
    token = RUN_DENSE_CAP.set(b.dim - 1)
    try:
        sparse_path = ground_state(H)
    finally:
        RUN_DENSE_CAP.reset(token)
    assert abs(sparse_path.E0 - dense.E0) <= 1e-10
    assert abs(sparse_path.gap_DeltaE - dense.gap_DeltaE) <= 1e-10
    assert dense.gap_DeltaE > 1e-3  # a unique ground state, so the vectors agree
    assert abs(abs(sparse_path.ground.overlap(dense.ground)) - 1.0) <= 1e-10
    # ARPACK's stopping tolerance, not only the runtime residual check, sets this
    psi = sparse_path.ground.amplitudes
    residual = np.linalg.norm(H.matrix @ psi - sparse_path.E0 * psi)
    assert residual <= 1e-10 * max(1.0, abs(sparse_path.E0))


@pytest.fixture
def iterative_ground_state(monkeypatch):
    """ground_state with the run cap below the dimension; records the dtype
    of every matrix handed to eigsh."""
    dtypes = []
    eigsh = probes_mod.eigsh

    def recording(A, *args, **kwargs):
        dtypes.append(A.dtype)
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(probes_mod, "eigsh", recording)

    def solve(H):
        token = RUN_DENSE_CAP.set(H.dim - 1)
        try:
            return ground_state(H)
        finally:
            RUN_DENSE_CAP.reset(token)

    return solve, dtypes


def assert_matches_dense_oracle(res, H):
    lam, Q = eigh(H.dense())
    assert abs(res.E0 - lam[0]) <= 1e-10
    assert abs(res.gap_DeltaE - (lam[1] - lam[0])) <= 1e-10
    if not res.degenerate:
        assert abs(np.vdot(Q[:, 0], res.ground.amplitudes)) >= 1.0 - 1e-10


@pytest.mark.parametrize(
    "kind, dims, cutoff, sector",
    [("chain", [5], 2, None), ("chain", [6], 2, 6), ("ring", [4], 3, 4)],
)
def test_real_hamiltonian_takes_real_symmetric_solver(
    iterative_ground_state, kind, dims, cutoff, sector
):
    solve, dtypes = iterative_ground_state
    g = build_lattice(kind, dims)
    b = enumerate_basis(g, cutoff, sector=sector)
    H = assemble_hamiltonian(bose_hubbard(g, J=1.0, U=2.5, mu=0.4), b)
    res = solve(H)
    assert dtypes == [np.float64]
    assert not res.degenerate
    assert res.ground.amplitudes.dtype == np.complex128
    assert_matches_dense_oracle(res, H)


def test_complex_hermitian_hamiltonian_keeps_complex_solver(iterative_ground_state):
    solve, dtypes = iterative_ground_state
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2)
    H = assemble_hamiltonian(bose_hubbard(g, J=1.0, U=2.0), b)
    C = local_operator("custom-matrix", [0, 1], b, matrix=0.3 * random_hermitian(9, 4))
    Hc = _wrap(b, H.matrix + C.matrix, H.support | C.support)
    assert Hc.hermitian and np.abs(Hc.matrix.data.imag).max() > 0
    res = solve(Hc)
    assert dtypes == [np.complex128]
    assert_matches_dense_oracle(res, Hc)


def test_real_iterative_solves_are_bit_identical(iterative_ground_state):
    solve, dtypes = iterative_ground_state
    g = build_lattice("chain", [6])
    b = enumerate_basis(g, 2, sector=6)
    H = assemble_hamiltonian(bose_hubbard(g, J=1.0, U=4.0), b)
    r1, r2 = solve(H), solve(H)
    assert dtypes == [np.float64, np.float64]
    assert (r1.E0, r1.gap_DeltaE, r1.degenerate) == (r2.E0, r2.gap_DeltaE, r2.degenerate)
    assert r1.ground.amplitudes.tobytes() == r2.ground.amplitudes.tobytes()


def test_connected_correlation_product_state():
    g, b, _ = chain_setup(3, 2)
    mott = fock_state(b, (1, 1, 1))
    n0 = local_operator("number", [0], b)
    n2 = local_operator("number", [2], b)
    assert abs(connected_correlation(mott, n0, n2)) <= 1e-14
    ident = local_operator(
        "custom-matrix", [0], b, matrix=np.eye(3)
    )
    assert abs(connected_correlation(mott, ident, n2)) <= 1e-14


def test_connected_correlation_symmetry_and_validation():
    g, b, H = chain_setup(4, 1, J=1.0, U=0.0)
    res = ground_state(H)
    n0 = local_operator("number", [0], b)
    n3 = local_operator("number", [3], b)
    c = connected_correlation(res.ground, n0, n3)
    assert connected_correlation(res.ground, n3, n0) == pytest.approx(c, abs=1e-10)
    bad = StateVector(b, 0.5 * res.ground.amplitudes)
    with pytest.raises(ValueError):
        connected_correlation(bad, n0, n3)
