"""Time evolution: sparse propagator, dense references, interaction picture."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import boselab.evolve as evolve_mod
from boselab.evolve import (
    PropagationError,
    StateVector,
    dense_expm,
    evolve_state,
    heisenberg,
    interaction_picture_unitary,
    spectral_norm,
)
from boselab.fock import ResourceLimitError, enumerate_basis
from boselab.lattice import build_lattice
from boselab.model import assemble_hamiltonian, bose_hubbard, local_operator
from helpers import fock_state, random_state


def chain_setup(n, cutoff, J=1.0, U=0.0, mu=0.0, sector=None):
    g = build_lattice("chain", [n])
    b = enumerate_basis(g, cutoff, sector=sector)
    H = assemble_hamiltonian(bose_hubbard(g, J=J, U=U, mu=mu), b)
    return g, b, H


def test_zero_hamiltonian_is_identity():
    g, b, H = chain_setup(2, 2, J=0.0, U=0.0)
    psi = random_state(b, 3)
    out = evolve_state(H, psi, 1.7)
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)


def test_zero_time_returns_copy():
    g, b, H = chain_setup(2, 2)
    psi = random_state(b, 5)
    out = evolve_state(H, psi, 0.0)
    assert np.array_equal(out.amplitudes, psi.amplitudes)
    assert out.amplitudes is not psi.amplitudes


def test_diagonal_hamiltonian_exact_phases():
    g, b, H = chain_setup(1, 3, J=0.0, U=0.0, mu=0.7)
    psi = fock_state(b, (2,))
    out, report = evolve_state(H, psi, 1.3, return_report=True)
    # H |2> = -mu 2 |2>, so the phase advances by +2 mu t
    expected = np.exp(-1j * (-0.7 * 2) * 1.3)
    assert out.amplitudes[b.index_of((2,))] == pytest.approx(expected, abs=1e-12)
    assert report.method == "diagonal"
    assert report.est_error <= 1e-12


def test_two_site_rabi_transfer():
    # J (b0 b1^dag + h.c.) on one boson acts as a Pauli-X rotation
    g, b, H = chain_setup(2, 1, J=1.0)
    psi = fock_state(b, (1, 0))
    out = evolve_state(H, psi, math.pi / 2)
    target = fock_state(b, (0, 1)).amplitudes * (-1j)
    assert np.allclose(out.amplitudes, target, atol=1e-10)


def test_evolution_requires_matching_basis_and_hermiticity():
    g, b, H = chain_setup(2, 1)
    other = enumerate_basis(g, 2)
    with pytest.raises(ValueError):
        evolve_state(H, random_state(other, 0), 0.1)
    with pytest.raises(ValueError):
        evolve_state(local_operator("creation", [0], b), random_state(b, 1), 0.1)


def test_norm_preserved_over_many_steps():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.8)
    psi = random_state(b, 7)
    for _ in range(100):
        psi = evolve_state(H, psi, 0.05)
    assert abs(psi.norm() - 1.0) <= 1e-10


def test_group_property():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.5)
    psi = random_state(b, 9)
    one = evolve_state(H, evolve_state(H, psi, 0.4, tol=1e-10), 0.6, tol=1e-10)
    two = evolve_state(H, psi, 1.0, tol=1e-10)
    assert np.linalg.norm(one.amplitudes - two.amplitudes) <= 2e-10


def test_number_sector_amplitudes_stay_exactly_zero():
    g, b, H = chain_setup(3, 2, J=1.0, U=1.0)
    psi = fock_state(b, (1, 1, 0))
    out = evolve_state(H, psi, 0.9)
    for k, s in enumerate(b.states):
        if sum(s) != 2:
            assert out.amplitudes[k] == 0.0


def test_matches_dense_reference():
    g, b, H = chain_setup(3, 2, J=1.0, U=1.3, mu=0.4)
    U_dense = dense_expm(H, 0.8).dense()
    psi = random_state(b, 13)
    out = evolve_state(H, psi, 0.8, tol=1e-12)
    assert np.linalg.norm(out.amplitudes - U_dense @ psi.amplitudes) <= 1e-9


def test_dense_expm_unitary():
    g, b, H = chain_setup(3, 2, J=1.0, U=2.0)
    U = dense_expm(H, 0.5).dense()
    assert np.allclose(U @ U.conj().T, np.eye(b.dim), atol=1e-12)
    assert np.allclose(dense_expm(H, 0.0).dense(), np.eye(b.dim), atol=1e-13)


def test_report_error_estimate_is_honest():
    g, b, H = chain_setup(3, 3, J=1.0, U=1.0)
    psi = random_state(b, 21)
    out, report = evolve_state(H, psi, 1.2, tol=1e-10, return_report=True)
    exact = dense_expm(H, 1.2).dense() @ psi.amplitudes
    actual = np.linalg.norm(out.amplitudes - exact)
    assert actual <= max(report.est_error, 1e-10) * 10
    assert report.steps >= 1
    assert report.method in ("krylov", "diagonal", "dense")


def test_propagation_error_when_budget_unreachable():
    g, b, H = chain_setup(3, 3, J=1.0, U=1.0)
    psi = random_state(b, 2)
    with pytest.raises(PropagationError):
        evolve_state(H, psi, 1.0, tol=1e-16, max_krylov=2)


def test_heisenberg_conjugation():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.7)
    O = local_operator("number", [0], b)
    t = 0.6
    Ut = dense_expm(H, t).dense()
    expected = Ut.conj().T @ O.dense() @ Ut
    got = heisenberg(H, O, t)
    assert np.allclose(got.dense(), expected, atol=1e-11)
    assert got.hermitian
    # t = 0 returns the operator unchanged
    assert np.allclose(heisenberg(H, O, 0.0).dense(), O.dense(), atol=1e-14)


def test_heisenberg_preserves_spectrum():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.7)
    O = local_operator("number", [1], b)
    evo = heisenberg(H, O, 0.9)
    a = np.sort(np.linalg.eigvalsh(O.dense()))
    c = np.sort(np.linalg.eigvalsh(evo.dense()))
    assert np.allclose(a, c, atol=1e-10)


def test_state_vector_helpers():
    g, b, _ = chain_setup(2, 1)
    psi = fock_state(b, (1, 0))
    phi = fock_state(b, (0, 1))
    assert psi.norm() == pytest.approx(1.0)
    assert psi.overlap(phi) == 0.0
    assert psi.overlap(psi) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        StateVector(b, np.zeros(3, dtype=np.complex128))


def single_site_basis(dim):
    return enumerate_basis(build_lattice("chain", [1]), dim - 1)


def test_interaction_picture_closed_form_vs_ode():
    rng = np.random.default_rng(31)
    dim = 8
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = (a + a.conj().T) / 2
    h0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h0 + h0.conj().T) / 2
    t = 0.7

    def _expm_h(M, s):
        w, v = np.linalg.eigh(M)
        return (v * np.exp(1j * s * w)) @ v.conj().T

    def rhs(tau, y):
        U = y.reshape(dim, dim)
        eA = _expm_h(A, -tau)
        h_tau = eA @ h @ eA.conj().T
        return (-1j * h_tau @ U).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, t),
        np.eye(dim, dtype=np.complex128).ravel(),
        rtol=1e-12,
        atol=1e-12,
        method="DOP853",
    )
    W_ode = sol.y[:, -1].reshape(dim, dim)
    b1 = single_site_basis(dim)
    W = interaction_picture_unitary(
        local_operator("custom-matrix", [0], b1, matrix=A),
        local_operator("custom-matrix", [0], b1, matrix=h),
        t,
    ).dense()
    assert np.linalg.norm(W - W_ode, ord=2) <= 1e-8


def test_interaction_picture_degenerate_cases():
    rng = np.random.default_rng(5)
    dim = 6
    b1 = single_site_basis(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = local_operator("custom-matrix", [0], b1, matrix=(a + a.conj().T) / 2)
    zero = local_operator("custom-matrix", [0], b1, matrix=np.zeros((dim, dim)))
    # h = 0 gives the identity for any t
    assert np.allclose(
        interaction_picture_unitary(A, zero, 1.3).dense(), np.eye(dim), atol=1e-12
    )
    # commuting A and h reduce to the bare phase e^{-i h t}
    diag2 = rng.standard_normal(dim)
    d1 = local_operator("custom-matrix", [0], b1, matrix=np.diag(rng.standard_normal(dim)))
    d2 = local_operator("custom-matrix", [0], b1, matrix=np.diag(diag2))
    got = interaction_picture_unitary(d1, d2, 0.9).dense()
    want = np.diag(np.exp(-1j * 0.9 * diag2))
    assert np.allclose(got, want, atol=1e-12)


def test_unitary_product_difference_bound():
    # || prod e^{-i A_j dt} - prod e^{-i B_j dt} || <= sum dt ||A_j - B_j||
    rng = np.random.default_rng(17)
    dim, m, dt = 16, 4, 0.3

    def expm_h(M, s):
        w, v = np.linalg.eigh(M)
        return (v * np.exp(-1j * s * w)) @ v.conj().T

    As, Bs = [], []
    for j in range(m):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        A = (a + a.conj().T) / 2
        pert = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        As.append(A)
        Bs.append(A + 0.1 * (pert + pert.conj().T) / 2)
    UA = np.eye(dim, dtype=np.complex128)
    UB = np.eye(dim, dtype=np.complex128)
    for A, B in zip(As, Bs):
        UA = expm_h(A, dt) @ UA
        UB = expm_h(B, dt) @ UB
    lhs = np.linalg.norm(UA - UB, ord=2)
    rhs = sum(dt * np.linalg.norm(A - B, ord=2) for A, B in zip(As, Bs))
    assert lhs <= rhs + 1e-12


def test_dense_cap_enforced():
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 2400)  # dim 2401 > default dense cap
    H = assemble_hamiltonian(bose_hubbard(g, J=0.0, U=1.0), b)
    with pytest.raises(ResourceLimitError):
        dense_expm(H, 0.1)
    O = local_operator("number", [0], b)
    with pytest.raises(ResourceLimitError):
        heisenberg(H, O, 0.1)
    with pytest.raises(ResourceLimitError):
        interaction_picture_unitary(O, O, 0.1)
    # sparse evolution still works there (diagonal fast path)
    psi = fock_state(b, (3,))
    out = evolve_state(H, psi, 0.4)
    assert abs(out.norm() - 1.0) <= 1e-12


def test_spectral_norm():
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 3)
    n = local_operator("number", [0], b)
    assert spectral_norm(n) == pytest.approx(3.0, rel=1e-10)
    zero = local_operator(
        "custom-matrix", [0], b, matrix=np.zeros((4, 4))
    )
    assert spectral_norm(zero) == 0.0
    # iterative path agrees with the dense value
    g3, b3, H3 = chain_setup(3, 2, J=1.0, U=1.0)
    dense_val = np.linalg.norm(H3.dense(), ord=2)
    assert spectral_norm(H3, cap=5) == pytest.approx(dense_val, rel=1e-8)


def test_spectral_norm_degenerate_spectra_above_cap():
    # fully degenerate singular values break Lanczos SVD; both escape hatches
    # must hold above the dense cap
    g = build_lattice("chain", [1])
    dim = 64
    b = enumerate_basis(g, dim - 1)
    phase = np.diag(np.exp(1j * 0.3 * np.arange(dim)))
    u_diag = local_operator("custom-matrix", [0], b, matrix=phase, unitary=True)
    assert spectral_norm(u_diag, cap=8) == pytest.approx(1.0, rel=1e-12)
    shift = np.roll(np.eye(dim), 1, axis=0)  # cyclic permutation, all sigma = 1
    u_perm = local_operator("custom-matrix", [0], b, matrix=shift, unitary=True)
    assert spectral_norm(u_perm, cap=8) == pytest.approx(1.0, rel=1e-10)


def test_spectral_norm_is_deterministic_above_cap():
    # dim 7776 > DENSE_CAP, so every call goes through the Lanczos SVD
    g, b, H = chain_setup(5, 5, J=1.0, U=1.0)
    values = {spectral_norm(H) for _ in range(6)}
    assert len(values) == 1
