"""Acceptance gate: one test per shipping criterion, at the stated tolerances.

Each test is independent and rebuilds what it needs, so a red line here points
at exactly one broken guarantee.  Numbered to keep `pytest -v` output stable.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from boselab.approx import (
    approximate_heisenberg, quench_reference, quench_step_unitary, run_quench,
)
from boselab.bounds import (
    BoundConstants,
    adjacency_exp_bound,
    clustering_bound,
    first_moment_bound,
    fs_polynomial,
    initial_moment_bounds,
    lightcone_radius,
    main_lr_bound,
    moment_bound,
    tail_bound,
    truncation_error_bound,
)
from boselab.cli import main as cli_main
from boselab.evolve import StateVector, evolve_state, spectral_norm
from boselab.fock import enumerate_basis
from boselab.lattice import ball, build_lattice
from boselab.model import (
    Interaction,
    Monomial,
    assemble_hamiltonian,
    bose_hubbard,
    local_operator,
)
from boselab.probes import (
    connected_correlation,
    ground_state,
    heisenberg_apply,
    mgf_condition,
    moments,
    tail_probabilities,
)
from helpers import (
    chain_consts,
    fock_state,
    fs_check_rows,
    oracle_step,
    oracle_unitary,
    quench_echo,
    random_hermitian,
    random_state,
    restricted_error,
)

CHAIN1 = build_lattice("chain", [1])


def single_site_basis(dim):
    return enumerate_basis(CHAIN1, dim - 1)


# shared Mott instance for the moment/tail criteria: 5 sites, 6 levels each
@pytest.fixture(scope="module")
def mott_chain5():
    g = build_lattice("chain", [5])
    b = enumerate_basis(g, 5)
    spec = bose_hubbard(g, J=1.0, U=1.0, mu=0.0)
    H = assemble_hamiltonian(spec, b)
    psi0 = fock_state(b, (1, 1, 1, 1, 1))
    return g, b, H, psi0


def mott_observables(b, i0):
    theta = 0.7
    cut = b.site_cutoffs[i0]
    phase = np.diag(np.exp(1j * theta * np.arange(cut + 1.0)))
    return {
        "projector": local_operator("projector", [i0], b, predicate=("==", 1)),
        "phase": local_operator("custom-matrix", [i0], b, matrix=phase, unitary=True),
    }


def test_criterion_01_sparse_evolution_matches_dense():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    for trial in range(20):
        dim = int(rng.integers(8, 513))
        b = single_site_basis(dim)
        mat = random_hermitian(dim, seed=100 + trial) / math.sqrt(dim)
        H = local_operator("custom-matrix", [0], b, matrix=mat)
        psi = random_state(b, seed=200 + trial)
        t = float(rng.uniform(0.1, 2.0))
        fast = evolve_state(H, psi, t)
        ref = oracle_unitary(H, t) @ psi.amplitudes
        assert np.linalg.norm(fast.amplitudes - ref) <= 1e-8
    assert time.monotonic() - start <= 60.0


def test_criterion_02_fs_polynomial_suite():
    start = time.monotonic()
    assert fs_polynomial(2).coeffs == (0, -1, 1)  # x^2 - x, ascending powers
    assert fs_polynomial(4).coeffs == (0, 0, 1, -2, 1)  # x^4 - 2x^3 + x^2
    for s in range(1, 11):
        poly = fs_polynomial(s)
        assert poly(0) == 0
        for x in range(0, 101):
            assert poly(x + 1) - poly(x) == s * x ** (s - 1) if s > 1 else True
            if x:
                assert poly(x) + Fraction(s**s, 4) >= Fraction(x**s, 4)
    assert all(row["pass"] for row in fs_check_rows(10, 100))
    assert time.monotonic() - start <= 5.0


def test_criterion_03_ladder_commutator_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cutoff = int(rng.integers(2, 9))
        b = single_site_basis(cutoff + 1)
        ann = local_operator("annihilation", [0], b).dense()
        deg = int(rng.integers(1, 6))
        # scale the k-th coefficient by cutoff^-k so f stays O(1) and the
        # 1e-12 bar measures the identity, not float growth of n^5 terms
        coeffs = rng.uniform(-1.0, 1.0, deg + 1) / (float(cutoff) ** np.arange(deg + 1))
        n = np.arange(cutoff + 1.0)
        f = sum(c * n**k for k, c in enumerate(coeffs))
        f_next = sum(c * (n + 1.0) ** k for k, c in enumerate(coeffs))
        lhs = ann @ np.diag(f) - np.diag(f) @ ann
        rhs = np.diag(f_next - f) @ ann
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_criterion_04_adjacency_exponential_dominance():
    start = time.monotonic()
    graphs = (
        build_lattice("chain", [64]),
        build_lattice("ring", [32]),
        build_lattice("grid", [8, 8]),
    )
    for g in graphs:
        n = g.site_count
        adj = np.zeros((n, n))
        for i, j in g.edges:
            adj[i, j] = adj[j, i] = 1.0
        for t in (0.1, 0.5, 1.0):
            ab = adjacency_exp_bound(g, 1.0, t)
            prop = np.abs(expm(t * adj))
            violations = int(np.sum(prop > ab.matrix * (1.0 + 1e-12)))
            assert violations == 0
    assert time.monotonic() - start <= 30.0


def test_criterion_05_evolved_moments_below_bound(mott_chain5):
    start = time.monotonic()
    g, b, H, psi0 = mott_chain5
    i0 = 2
    assert mgf_condition(psi0, 1.0, 1.0) <= 1.0 + 1e-12
    for O_X in mott_observables(b, i0).values():
        consts = chain_consts(g, qbar=1.0, t0=0.1, zeta0=spectral_norm(O_X))
        for t in (0.02, 0.05, 0.1):
            phi = heisenberg_apply(H, O_X, psi0, t)
            m = moments(phi, g.sites, [1, 2, 3])
            for i in g.sites:
                d = float(g.distances[i, i0])
                for s in (1, 2, 3):
                    bv = moment_bound(s, 1.0, d, consts)
                    assert m[i, s - 1] <= bv.value * (1.0 + 1e-9)
    assert time.monotonic() - start <= 600.0


def test_criterion_06_first_moment_bound(mott_chain5):
    g, b, H, psi0 = mott_chain5
    i0 = 2
    consts = chain_consts(g, qbar=1.0, t0=0.1)
    for O_X in mott_observables(b, i0).values():
        for t in (0.02, 0.05, 0.1):
            phi = heisenberg_apply(H, O_X, psi0, t)
            m = moments(phi, g.sites, [1])
            for i in g.sites:
                d = float(g.distances[i, i0])
                bv = first_moment_bound(d, t, 1.0, 1.0, consts)
                assert m[i, 0] <= bv.value * (1.0 + 1e-9)


def test_criterion_07_initial_moments_below_bounds(mott_chain5):
    g, b, H, psi0 = mott_chain5
    consts = chain_consts(g, qbar=1.0, t0=0.1)
    X = [1, 2, 3]
    region_n = b.states[:, X].sum(axis=1).astype(np.float64)
    weights = np.abs(psi0.amplitudes) ** 2
    m = moments(psi0, g.sites, [1, 2, 3, 4])
    for s in (1, 2, 3, 4):
        single_bv, region_bv = initial_moment_bounds(s, float(len(X)), consts)
        for i in g.sites:
            assert m[i, s - 1] <= single_bv.value
        region_moment = float(weights @ region_n**s)
        assert region_moment <= region_bv.value


def test_criterion_08_tail_probabilities_below_bound(mott_chain5):
    g, b, H, psi0 = mott_chain5
    i0 = 2
    O_X = local_operator("projector", [i0], b, predicate=("==", 1))
    consts = chain_consts(g, qbar=1.0, t0=0.1, zeta0=spectral_norm(O_X))
    for t in (0.05, 0.1):
        phi = heisenberg_apply(H, O_X, psi0, t)
        tails = tail_probabilities(phi, g.sites, [1, 2, 3, 4, 5])
        for i in g.sites:
            d = float(g.distances[i, i0])
            for z0 in (1, 2, 3, 4, 5):
                bv = tail_bound(z0, d, 3.0, consts, mode="markov-optimized")
                assert tails[i, z0 - 1] <= bv.value * (1.0 + 1e-9)


def test_criterion_09_hard_truncation_error_shrinks_with_cutoff():
    start = time.monotonic()
    g = build_lattice("chain", [6])
    b = enumerate_basis(g, 6)  # 117649 states, sparse-only territory
    spec = bose_hubbard(g, J=1.0, U=1.0)
    H = assemble_hamiltonian(spec, b)
    X = [2]
    ell0 = 1
    Ltilde = sorted(set(g.sites) - ball(g, X, ell0))
    bdag = local_operator("creation", X, b)
    raw = bdag.matrix @ fock_state(b, (1,) * 6).amplitudes
    phi0 = StateVector(b, raw / np.linalg.norm(raw))
    t = 0.1
    exact = evolve_state(H, phi0, t)
    errs = []
    for q in range(1, 7):
        H_trunc = assemble_hamiltonian(spec, b, truncation=[(Ltilde, q)])
        approx = evolve_state(H_trunc, phi0, t)
        errs.append(float(np.linalg.norm(exact.amplitudes - approx.amplitudes)))
    for lo_q, hi_q in zip(errs[1:], errs[:-1]):
        assert lo_q <= hi_q + 1e-9
    assert errs[-1] < 1e-6  # q = 6 is the full cutoff: nothing truncates
    consts = chain_consts(g, qbar=1.0, t0=t)
    for q, err in zip(range(1, 7), errs):
        bv = truncation_error_bound(q, len(Ltilde), ell0, 3.0, consts)
        if bv.valid:
            assert err <= bv.value
    assert time.monotonic() - start <= 600.0


def test_criterion_10_interaction_picture_matches_ode():
    rng = np.random.default_rng(17)
    for trial in range(20):
        dim = int(rng.integers(4, 65))
        b = single_site_basis(dim)
        a_mat = random_hermitian(dim, seed=300 + trial) / math.sqrt(dim)
        h_mat = 0.5 * random_hermitian(dim, seed=400 + trial) / math.sqrt(dim)
        t = float(rng.uniform(0.2, 1.2))
        # the echo as run_quench applies it, e^{-iAt} e^{i(A-h)t}, on every basis vector
        U = quench_echo(b, a_mat, h_mat, t)

        # integrate i dW/dtau = e^{-iA tau} h e^{iA tau} W in the A eigenbasis,
        # where the conjugation is a cheap phase sandwich
        lam, Q = np.linalg.eigh(a_mat)
        h_t = Q.conj().T @ h_mat @ Q

        def rhs(tau, y):
            ph = np.exp(-1j * lam * tau)
            Ht = (ph[:, None] * h_t) * ph.conj()[None, :]
            return (-1j * Ht @ y.reshape(dim, dim)).ravel()

        sol = solve_ivp(
            rhs, (0.0, t), np.eye(dim, dtype=complex).ravel(),
            method="DOP853", rtol=1e-12, atol=1e-12,
        )
        W = sol.y[:, -1].reshape(dim, dim)
        V = Q @ W @ Q.conj().T
        assert np.max(np.abs(U - V)) <= 1e-8


def test_criterion_11_heisenberg_sweep_on_hard_core_chain():
    start = time.monotonic()
    g = build_lattice("chain", [8])
    b = enumerate_basis(g, 1)
    spec = bose_hubbard(g, J=1.0, U=0.0)
    H = assemble_hamiltonian(spec, b)
    O = local_operator("number", [0], b)
    psi0 = fock_state(b, (1, 0, 1, 0, 1, 0, 1, 0))
    t = 0.3

    errs = []
    for R in range(2, 8):
        approx, _ = approximate_heisenberg(O, 0, 0, R, t, spec, psi0, q=1)
        errs.append(restricted_error(H, O, approx, psi0, t))
    for later, earlier in zip(errs[1:], errs[:-1]):
        assert later <= earlier + 1e-8

    full, _ = approximate_heisenberg(O, 0, 0, 7, t, spec, psi0, ell0=7, q=1)
    assert restricted_error(H, O, full, psi0, t) <= 1e-6

    # multi-step chain: the total error telescopes into per-step defects
    approx_ms, trace = approximate_heisenberg(O, 0, 0, 7, t, spec, psi0, delta_t0=0.1, q=1)
    dt = trace.schedule.dt
    V = oracle_unitary(H, dt)
    O_m = O.dense()
    step_defects = []
    for m, step in enumerate(trace.unitaries, start=1):
        U = oracle_step(step)
        exact_next = V.conj().T @ O_m @ V
        approx_next = U.conj().T @ O_m @ U
        psi_m = evolve_state(H, psi0, t - m * dt).amplitudes
        step_defects.append(float(np.linalg.norm((exact_next - approx_next) @ psi_m)))
        O_m = approx_next
    total = restricted_error(H, O, approx_ms, psi0, t)
    assert total <= sum(step_defects) + 1e-8
    assert time.monotonic() - start <= 600.0


@pytest.fixture(scope="module")
def quench_chain8():
    g = build_lattice("chain", [8])
    b = enumerate_basis(g, 4, 8)  # 8 bosons on 8 sites, per-site cutoff 4
    spec = bose_hubbard(g, J=1.0, U=4.0)
    H = assemble_hamiltonian(spec, b)
    gs = ground_state(H)
    return g, b, spec, H, gs


def test_criterion_12_quench_simulation_converges(quench_chain8):
    start = time.monotonic()
    g, b, spec, H, gs = quench_chain8
    psi0 = gs.ground
    h = Interaction((4,), (Monomial(0.5, (2,)),))
    consts = chain_consts(g, qbar=1.0, t0=0.2)

    ref = quench_reference(spec, h, psi0, 0.1, stationarity_tol=1e-6)
    errs = []
    for R in range(2, 8):
        err, rep = run_quench(ref, R, consts)
        assert rep.stationarity_residual <= 1e-6
        errs.append(err)
    for later, earlier in zip(errs[1:], errs[:-1]):
        assert later <= earlier + 1e-8

    err_full, _ = run_quench(ref, 7, consts, ell0=5, q=4, qprime=4)
    assert err_full <= 1e-5

    # every step generator commutes with the region number operator
    step = quench_step_unitary(spec, h, b, [4], 5, 4, 4, 0.1)
    assert step.number_commutation_defect() <= 1e-10

    err_ms, rep_ms = run_quench(
        quench_reference(spec, h, psi0, 0.2), 7, consts, ell0=5, q=4, qprime=4, delta_t0=0.05
    )
    assert rep_ms.schedule.m_t == 4
    assert err_ms <= 1e-5

    zero = Interaction((4,), ())
    err0, _ = run_quench(
        quench_reference(spec, zero, psi0, 0.1), 7, consts, i0=4, ell0=5, q=4, qprime=4
    )
    assert err0 <= 1e-8
    assert time.monotonic() - start <= 600.0


def test_criterion_13_gapped_correlations_decay():
    g = build_lattice("chain", [8])
    b = enumerate_basis(g, 4, 8)
    spec = bose_hubbard(g, J=1.0, U=10.0)
    H = assemble_hamiltonian(spec, b)
    gs = ground_state(H)
    assert gs.gap_DeltaE > 0

    n_ops = {i: local_operator("number", [i], b) for i in g.sites}
    dists = np.arange(1, 7, dtype=float)
    corr = np.array(
        [abs(connected_correlation(gs.ground, n_ops[0], n_ops[d])) for d in range(1, 7)]
    )
    assert np.all(corr > 0)
    slope, intercept = np.polyfit(dists, np.log(corr), 1)
    fit = slope * dists + intercept
    resid = np.log(corr) - fit
    r_squared = 1.0 - resid @ resid / np.sum(
        (np.log(corr) - np.log(corr).mean()) ** 2
    )
    assert slope < 0
    assert r_squared >= 0.9

    # the analytic bound decreases once R is past its polynomial turnover;
    # no probe <= bound claim is made (constants are not matched to the model)
    consts = chain_consts(g, qbar=1.0, t0=1.0)
    logs = [
        clustering_bound(R, gs.gap_DeltaE, consts).log_value for R in (10, 100, 1000)
    ]
    assert logs[0] > logs[1] > logs[2]


def test_criterion_14_lightcone_radius_inverts_bound():
    start = time.monotonic()
    consts = BoundConstants(
        c0=1.0, qbar=1.0, t0=1.0, J_bar=1.0, dG=2.0, gamma=3.0, lambda0=2.0, D=1
    )
    log_zeta0 = math.log(consts.zeta0)
    for t in np.geomspace(math.e, 100.0, 20):
        for delta in np.geomspace(1e-6, 1.0, 20):
            R = lightcone_radius(float(t), float(delta), consts)
            bv = main_lr_bound(R, 0.0, float(t), consts)
            assert bv.log_value <= math.log(delta) + log_zeta0 + 1e-9
    assert time.monotonic() - start <= 1.0


def test_criterion_15_runs_are_deterministic(tmp_path):
    payload = {
        "lattice": {"kind": "chain", "dims": [5]},
        "basis": {"cutoff": 5},
        "model": {"J": 1.0, "U": 1.0, "mu": 0.0},
        "constants": {"c0": 1.0, "qbar": 1.0},
        "scenario": {
            "kind": "moment-check", "i0": 2,
            "observable": {"kind": "phase", "site": 2},
            "s_values": [1, 2], "times": [0.05, 0.1], "psi0": "mott-1",
        },
        "output": {"formats": ["csv"]},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg), "--out", str(out_a), "--seed", "5"]) == 0
    assert cli_main(["run", str(cfg), "--out", str(out_b), "--seed", "5"]) == 0
    csv_a = (out_a / "moment-check.csv").read_bytes()
    csv_b = (out_b / "moment-check.csv").read_bytes()
    assert csv_a == csv_b
