"""Time evolution: sparse propagator, dense Heisenberg operators, the quench echo."""

import contextvars
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

import boselab.evolve as evolve_mod
from boselab.evolve import (
    PropagationError,
    RUN_DENSE_CAP,
    StateVector,
    _heisenberg_stack,
    evolve_state,
    spectral_norm,
)
from boselab.fock import ResourceLimitError, enumerate_basis
from boselab.lattice import build_lattice
from boselab.model import assemble_hamiltonian, bose_hubbard, local_operator
from helpers import fock_state, mott_occupation, oracle_unitary, quench_echo, random_state


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
    U_dense = oracle_unitary(H, 0.8)
    psi = random_state(b, 13)
    out = evolve_state(H, psi, 0.8, tol=1e-12)
    assert np.linalg.norm(out.amplitudes - U_dense @ psi.amplitudes) <= 1e-9


def test_report_error_estimate_is_honest():
    g, b, H = chain_setup(3, 3, J=1.0, U=1.0)
    psi = random_state(b, 21)
    out, report = evolve_state(H, psi, 1.2, tol=1e-10, return_report=True)
    exact = oracle_unitary(H, 1.2) @ psi.amplitudes
    actual = np.linalg.norm(out.amplitudes - exact)
    assert actual <= max(report.est_error, 1e-10) * 10
    assert report.steps >= 1
    assert report.method in ("krylov", "diagonal", "dense")


def test_propagation_error_when_budget_unreachable(monkeypatch):
    g, b, H = chain_setup(3, 3, J=1.0, U=1.0)
    psi = random_state(b, 2)
    monkeypatch.setattr(evolve_mod, "_MAX_KRYLOV", 2)
    with pytest.raises(PropagationError):
        evolve_state(H, psi, 1.0, tol=1e-16)


def test_report_counts_short_step():
    g, b, H = chain_setup(6, 3, J=1.0, U=1.0)
    psi = random_state(b, 4)
    _, report = evolve_state(H, psi, 0.01, return_report=True)
    assert report.method == "krylov"
    assert report.steps == 1
    assert 0 < report.matvecs < evolve_mod._MAX_KRYLOV
    assert report.rejected == 0


def test_report_counts_long_evolution():
    g, b, H = chain_setup(3, 3, J=1.0, U=1.0)
    psi = random_state(b, 6)
    _, report = evolve_state(H, psi, 25.0, return_report=True)
    assert report.steps > 1
    assert report.matvecs >= report.steps
    # diagonal and t = 0 paths build no Krylov vectors
    _, zero = evolve_state(H, psi, 0.0, return_report=True)
    g1, b1, H1 = chain_setup(1, 3, J=0.0, mu=0.7)
    _, diag = evolve_state(H1, fock_state(b1, (2,)), 1.0, return_report=True)
    assert (zero.matvecs, zero.rejected) == (0, 0)
    assert (diag.matvecs, diag.rejected) == (0, 0)


# an N=6 sector keeps chain 6, cutoff 3 (dim 336) under DENSE_CAP
EARLY_STOP_SYSTEMS = {
    "chain6-cutoff3-N6": dict(n=6, cutoff=3, U=1.0, sector=6),
    "chain4-cutoff4-U5": dict(n=4, cutoff=4, U=5.0),
}
# structured starts give structured tridiagonals, whose estimate can vanish
# by accident; a random start gives a generic one
EARLY_STOP_FOCK = {
    "chain6-cutoff3-N6": (0, 0, 3, 3, 0, 0),
    "chain4-cutoff4-U5": (0, 4, 0, 0),
}


def early_stop_start(system, b, start):
    if start == "random":
        return random_state(b, 17)
    if start == "mott":
        return fock_state(b, mott_occupation(b.n_sites))
    return fock_state(b, EARLY_STOP_FOCK[system])


@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.03, 0.4, 3.0])
@pytest.mark.parametrize("start", ["random", "mott", "fock"])
@pytest.mark.parametrize("system", sorted(EARLY_STOP_SYSTEMS))
def test_early_stop_matches_dense_oracle(system, start, t):
    g, b, H = chain_setup(J=1.0, **EARLY_STOP_SYSTEMS[system])
    psi = early_stop_start(system, b, start)
    tol = 1e-10
    out, report = evolve_state(H, psi, t, tol=tol, return_report=True)
    exact = oracle_unitary(H, t) @ psi.amplitudes
    assert np.linalg.norm(out.amplitudes - exact) <= tol
    if t <= 0.03:
        # short steps stop well below the Krylov cap
        assert report.matvecs < evolve_mod._MAX_KRYLOV


# Fock starts on symmetric chains at times where the estimate from the first
# few Krylov vectors vanishes while their answer is wrong by about 1: one
# particle on the centre of 5 sites, whose 2-vector estimate is
# |sin(sqrt(2) t)|, and two bosons on site 2 of 4 (cutoff 2, U=0)
RESONANCES = [
    pytest.param(
        dict(n=5, cutoff=1, sector=1), (0, 0, 1, 0, 0), math.pi / math.sqrt(2),
        id="chain5-N1-centre-pi/sqrt2",
    ),
    pytest.param(dict(n=4, cutoff=2), (0, 0, 2, 0), math.pi / 2, id="chain4-pair-pi/2"),
    pytest.param(dict(n=4, cutoff=2), (0, 0, 2, 0), math.pi, id="chain4-pair-pi"),
]


@pytest.mark.parametrize("system, occ, t", RESONANCES)
def test_early_stop_survives_vanishing_estimate(system, occ, t):
    g, b, H = chain_setup(J=1.0, **system)
    psi = fock_state(b, occ)
    tol = 1e-10
    out = evolve_state(H, psi, t, tol=tol)
    exact = oracle_unitary(H, t) @ psi.amplitudes
    assert np.linalg.norm(out.amplitudes - exact) <= tol


@pytest.mark.parametrize("start", ["random", "mott", "fock"])
def test_long_evolution_matches_dense_oracle(start):
    # many steps, most of them at the Krylov cap or rejected there, so the
    # checks start late and skip along the estimate's trend
    system = "chain6-cutoff3-N6"
    g, b, H = chain_setup(J=1.0, **EARLY_STOP_SYSTEMS[system])
    psi = early_stop_start(system, b, start)
    tol = 1e-10
    out, report = evolve_state(H, psi, 20.0, tol=tol, return_report=True)
    exact = oracle_unitary(H, 20.0) @ psi.amplitudes
    assert report.steps > 4 and report.rejected > 0
    assert np.linalg.norm(out.amplitudes - exact) <= tol


@pytest.mark.parametrize("t", [1e-3, 0.1, 0.4])
def test_early_stop_matches_expm_multiply_above_dense_cap(t):
    g, b, H = chain_setup(7, 3, J=1.0, U=1.0)  # dim 16384 > DENSE_CAP
    assert b.dim > evolve_mod.DENSE_CAP
    psi = random_state(b, 23)
    out = evolve_state(H, psi, t)
    ref = expm_multiply(-1j * t * H.matrix, psi.amplitudes)
    assert np.linalg.norm(out.amplitudes - ref) <= 1e-9


# -- no reorthogonalization: the estimate rests on the three-term relation --


def lanczos_basis(H, v, m):
    """The first ``m`` vectors of the plain three-term Lanczos recurrence from v."""
    V = [v / np.linalg.norm(v)]
    beta = 0.0
    for k in range(m - 1):
        w = H @ V[k]
        w -= np.vdot(V[k], w) * V[k]
        if k:
            w -= beta * V[k - 1]
        beta = np.linalg.norm(w)
        V.append(w / beta)
    return np.array(V)


# (system, start, t) -> Krylov vectors built by the march with full
# reorthogonalization, which the plain recurrence must not exceed
LONG_MARCHES = {
    ("chain6-cutoff3-N6", "mott", 10.0): 384,
    ("chain6-cutoff3-N6", "random", 10.0): 720,
    ("chain6-cutoff3-N6", "mott", 40.0): 960,
    ("chain6-cutoff3-N6", "random", 40.0): 2832,
    ("chain4-cutoff4-U5", "random", 40.0): 12144,
}


@pytest.mark.parametrize("system, start, t", sorted(LONG_MARCHES))
def test_estimate_bounds_the_error_without_orthogonality(system, start, t):
    g, b, H = chain_setup(J=1.0, **EARLY_STOP_SYSTEMS[system])
    psi = early_stop_start(system, b, start)
    tol = 1e-10
    out, report = evolve_state(H, psi, t, tol=tol, return_report=True)
    exact = oracle_unitary(H, t) @ psi.amplitudes
    assert np.linalg.norm(out.amplitudes - exact) <= report.est_error <= tol
    assert report.matvecs <= LONG_MARCHES[system, start, t]


@pytest.mark.parametrize(
    "system, start", [("chain6-cutoff3-N6", "mott"), ("chain4-cutoff4-U5", "random")]
)
def test_a_full_krylov_step_loses_orthogonality(system, start):
    # the premise of the test above: a step at the Krylov cap holds a basis
    # far from orthogonal, so the estimate cannot lean on orthogonality
    g, b, H = chain_setup(J=1.0, **EARLY_STOP_SYSTEMS[system])
    psi = early_stop_start(system, b, start)
    V = lanczos_basis(H.matrix, psi.amplitudes, evolve_mod._MAX_KRYLOV)
    assert np.abs(V.conj() @ V.T - np.eye(len(V))).max() > 1e-3


def lanczos_tridiagonal(H, V):
    """The tridiagonal T of the alphas and betas of the recurrence that built the rows of V."""
    alphas, betas = [], []
    for k in range(len(V)):
        w = H @ V[k]
        a = np.vdot(V[k], w)
        alphas.append(a.real)
        w -= a * V[k]
        if k:
            w -= betas[-1] * V[k - 1]
        betas.append(np.linalg.norm(w))
    return np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)


@pytest.mark.parametrize("t", [1e-3, 0.03, 0.4])
@pytest.mark.parametrize("start", ["random", "mott", "fock"])
@pytest.mark.parametrize("system", sorted(EARLY_STOP_SYSTEMS))
def test_step_vector_is_the_three_term_recurrence(system, start, t):
    # an accepted step's vector is beta0 V exp(-i T dt) e_1 for the plain
    # recurrence's V and T, built here in ordinary numpy arithmetic; a
    # rejected step's vector is not, as rounding decides it
    g, b, H = chain_setup(J=1.0, **EARLY_STOP_SYSTEMS[system])
    v = 0.7 * early_stop_start(system, b, start).amplitudes
    budget = 1e-10
    at, err, built = evolve_mod._lanczos_step(
        H.matrix, v, t, evolve_mod._MAX_KRYLOV, budget, 0
    )
    assert err <= budget
    V = lanczos_basis(H.matrix, v, built)
    T = lanczos_tridiagonal(H.matrix, V)
    lam, S = np.linalg.eigh(T)
    expect = 0.7 * V.T @ (S @ (np.exp(-1j * t * lam) * S[0].conj()))
    assert np.linalg.norm(at(t) - expect) <= 1e-13


@pytest.mark.parametrize("sector", [None, 1])
def test_invariant_krylov_space_returns_the_exact_state(sector):
    # one boson on two sites spans a 2-vector Krylov space: the recurrence's
    # third vector is exactly zero, and the step must stop without dividing by it
    g, b, H = chain_setup(2, 1, J=1.0, sector=sector)
    psi = fock_state(b, (1, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, report = evolve_state(H, psi, 3.0, return_report=True)
    exact = oracle_unitary(H, 3.0) @ psi.amplitudes
    assert np.linalg.norm(out.amplitudes - exact) <= 1e-13
    assert (report.steps, report.matvecs, report.est_error) == (1, 2, 0.0)


# -- grids of times: one march per side of zero, every time read off a step --


def step_ends(monkeypatch, H, psi, t):
    """Where the accepted steps of the march to ``t`` end, as cumulative times.

    An accepted step reads its end from its subspace; a rejected one reads nothing.
    """
    ends = []
    real = evolve_mod._lanczos_step

    def recording(*args):
        at, err, built = real(*args)

        def read(tau):
            ends.append(tau)
            return at(tau)

        return read, err, built

    with monkeypatch.context() as m:
        m.setattr(evolve_mod, "_lanczos_step", recording)
        evolve_state(H, psi, t)
    return np.cumsum(ends).tolist()


def assert_grid_matches_oracle(H, psi, grid, tol):
    out = evolve_state(H, psi, grid, tol=tol)
    assert isinstance(out, list) and len(out) == len(grid)
    for t, state in zip(grid, out):
        exact = oracle_unitary(H, t) @ psi.amplitudes
        assert np.linalg.norm(state.amplitudes - exact) <= tol, t


@pytest.mark.parametrize("start", ["random", "fock"])
def test_grid_over_many_steps_matches_dense_oracle(start, monkeypatch):
    system = "chain6-cutoff3-N6"
    g, b, H = chain_setup(J=1.0, **EARLY_STOP_SYSTEMS[system])
    psi = early_stop_start(system, b, start)
    t = 16.0
    # every multiple of t/32: the ends of the march's steps are among them
    grid = [t * k / 32 for k in range(32, 0, -1)]
    ends = step_ends(monkeypatch, H, psi, t)
    assert len(ends) > 4 and set(ends) <= set(grid)
    assert_grid_matches_oracle(H, psi, grid, 1e-10)


@pytest.mark.parametrize(
    "grid",
    [
        [0.4, -0.4, 0.0, 0.4, -1.3, 0.05, 2.5],  # unsorted, repeated, zero, both signs
        [-2.0, -0.1, -0.1],
        [0.0, 0.0],
        [3.0],
        [],
    ],
)
def test_grid_of_mixed_times_matches_dense_oracle(grid):
    g, b, H = chain_setup(4, 2, J=1.0, U=0.9, mu=0.3)
    assert_grid_matches_oracle(H, random_state(b, 8), grid, 1e-10)


def test_grid_on_a_diagonal_hamiltonian_takes_exact_phases():
    g, b, H = chain_setup(3, 3, J=0.0, U=0.8, mu=0.7)
    psi = random_state(b, 2)
    grid = [1.3, -0.2, 0.0, 1.3]
    assert_grid_matches_oracle(H, psi, grid, 1e-12)
    _, report = evolve_state(H, psi, grid, return_report=True)
    assert (report.method, report.matvecs) == ("diagonal", 0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_grid_builds_no_more_vectors_than_its_longest_time(sign):
    g, b, H = chain_setup(J=1.0, **EARLY_STOP_SYSTEMS["chain6-cutoff3-N6"])
    psi = random_state(b, 17)
    grid = [sign * t for t in (0.3, 5.0, 1.7, 0.3, 9.0, 4.5)]
    out, report = evolve_state(H, psi, grid, return_report=True)
    _, alone = evolve_state(H, psi, sign * 9.0, return_report=True)
    assert report.method == "krylov"
    assert report.matvecs <= alone.matvecs
    assert report.steps == alone.steps
    # the longest time is the march's end, which the march computes alone
    assert np.array_equal(out[4].amplitudes, evolve_state(H, psi, sign * 9.0).amplitudes)


def test_a_single_time_keeps_its_return_types():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.5)
    psi = random_state(b, 1)
    assert isinstance(evolve_state(H, psi, 0.3), StateVector)
    state, report = evolve_state(H, psi, 0.3, return_report=True)
    assert isinstance(state, StateVector) and isinstance(report, evolve_mod.PropagatorReport)
    states, report = evolve_state(H, psi, [0.3], return_report=True)
    assert [type(x) for x in states] == [StateVector]
    assert np.array_equal(states[0].amplitudes, state.amplitudes)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_refused(bad):
    g, b, H = chain_setup(3, 2, J=1.0, U=0.5)
    psi = random_state(b, 1)
    O = local_operator("number", [0], b)
    calls = [
        lambda: evolve_state(H, psi, bad),
        lambda: evolve_state(H, psi, [0.1, bad]),
        lambda: _heisenberg_stack(H, O, [0.1, bad]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()
    # the diagonal path too
    g1, b1, H1 = chain_setup(1, 3, J=0.0, mu=0.7)
    with pytest.raises(ValueError, match="finite"):
        evolve_state(H1, fock_state(b1, (2,)), bad)


def heisenberg_at(H, O, t):
    """O(t) as one whole matrix, from the dense Heisenberg stack of a one-time grid."""
    return _heisenberg_stack(H, O, [t]).dense()[0]


def test_heisenberg_conjugation():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.7)
    O = local_operator("number", [0], b)
    t = 0.6
    Ut = oracle_unitary(H, t)
    expected = Ut.conj().T @ O.dense() @ Ut
    got = heisenberg_at(H, O, t)
    assert np.allclose(got, expected, atol=1e-11)
    assert np.allclose(got, got.conj().T, atol=1e-12)
    # t = 0 returns the operator unchanged
    assert np.allclose(heisenberg_at(H, O, 0.0), O.dense(), atol=1e-14)


def test_heisenberg_preserves_spectrum():
    g, b, H = chain_setup(3, 2, J=1.0, U=0.7)
    O = local_operator("number", [1], b)
    evo = heisenberg_at(H, O, 0.9)
    a = np.sort(np.linalg.eigvalsh(O.dense()))
    c = np.sort(np.linalg.eigvalsh(evo))
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
    W = quench_echo(single_site_basis(dim), A, h, t)
    assert np.linalg.norm(W - W_ode, ord=2) <= 1e-8


def test_interaction_picture_degenerate_cases():
    rng = np.random.default_rng(5)
    dim = 6
    b1 = single_site_basis(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = (a + a.conj().T) / 2
    # h = 0 gives the identity for any t
    assert np.allclose(quench_echo(b1, A, np.zeros((dim, dim)), 1.3), np.eye(dim), atol=1e-12)
    # commuting A and h reduce to the bare phase e^{-i h t}
    diag2 = rng.standard_normal(dim)
    got = quench_echo(b1, np.diag(rng.standard_normal(dim)), np.diag(diag2), 0.9)
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
    refusal = "dimension 2401 exceeds dense cap 2000"
    with pytest.raises(ResourceLimitError, match=refusal):
        evolve_mod._eigenbasis(H)
    O = local_operator("number", [0], b)
    with pytest.raises(ResourceLimitError, match=refusal):
        _heisenberg_stack(H, O, [0.1])
    # sparse evolution still works there (diagonal fast path)
    psi = fock_state(b, (3,))
    out = evolve_state(H, psi, 0.4)
    assert abs(out.norm() - 1.0) <= 1e-12



def test_dense_cap_refusal_is_its_own_type():
    """The dense cap raises ``DenseCapError``; the basis cap stays a plain ``ResourceLimitError``."""
    assert issubclass(evolve_mod.DenseCapError, ResourceLimitError)
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 1)
    H = assemble_hamiltonian(bose_hubbard(g, J=1.0, U=0.0), b)

    def refused():
        RUN_DENSE_CAP.set(4)
        evolve_mod._eigenbasis(H)

    with pytest.raises(evolve_mod.DenseCapError, match="dimension 8 exceeds dense cap 4"):
        contextvars.copy_context().run(refused)
    with pytest.raises(ResourceLimitError) as basis_refusal:
        enumerate_basis(g, 3, dim_cap=10)
    assert not isinstance(basis_refusal.value, evolve_mod.DenseCapError)

def norm_under_cap(O, cap):
    """spectral_norm(O) in a copy of this context whose dense cap is ``cap``."""

    def run():
        RUN_DENSE_CAP.set(cap)
        return spectral_norm(O)

    return contextvars.copy_context().run(run)


def test_spectral_norm():
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 3)
    n = local_operator("number", [0], b)
    assert spectral_norm(n) == pytest.approx(3.0, rel=1e-10)
    zero = local_operator(
        "custom-matrix", [0], b, matrix=np.zeros((4, 4))
    )
    assert spectral_norm(zero) == 0.0
    # several entries per row: normed per block below the cap
    g3, b3, H3 = chain_setup(3, 2, J=1.0, U=1.0)
    dense_val = np.linalg.norm(H3.dense(), ord=2)
    assert spectral_norm(H3) == pytest.approx(dense_val, rel=1e-12)


def test_spectral_norm_degenerate_spectra_above_cap():
    # fully degenerate singular values: a diagonal and a permutation have one
    # entry per row and column, so both norms are exact above the dense cap
    g = build_lattice("chain", [1])
    dim = 64
    b = enumerate_basis(g, dim - 1)
    phase = np.diag(np.exp(1j * 0.3 * np.arange(dim)))
    u_diag = local_operator("custom-matrix", [0], b, matrix=phase, unitary=True)
    assert norm_under_cap(u_diag, 8) == pytest.approx(1.0, rel=1e-12)
    shift = np.roll(np.eye(dim), 1, axis=0)  # cyclic permutation, all sigma = 1
    u_perm = local_operator("custom-matrix", [0], b, matrix=shift, unitary=True)
    assert norm_under_cap(u_perm, 8) == pytest.approx(1.0, rel=1e-12)


def test_spectral_norm_of_a_ladder_is_exact_far_above_cap():
    # dim 262,144 at the default cap: b^dag and b have one entry per row and
    # column, so the norm is their largest entry, sqrt(3) at cutoff 3
    b = enumerate_basis(build_lattice("chain", [9]), 3)
    for kind in ("creation", "annihilation"):
        assert spectral_norm(local_operator(kind, [4], b)) == np.sqrt(3.0)


def test_spectral_norm_refuses_a_hamiltonian_above_cap():
    # dim 7776 > DENSE_CAP, and H has several entries per row
    g, b, H = chain_setup(5, 5, J=1.0, U=1.0)
    with pytest.raises(evolve_mod.DenseCapError, match="dimension 7776 exceeds dense cap 2000"):
        spectral_norm(H)
