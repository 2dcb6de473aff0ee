"""Tests for schedules, local step unitaries, and the step chains applied to states."""

import numpy as np
import pytest
from scipy.linalg import expm

from boselab.approx import (
    LocalUnitary,
    ScheduleError,
    approximate_heisenberg,
    halo,
    local_step_unitary,
    quench_reference,
    quench_step_unitary,
    run_quench,
    step_schedule,
    StepSchedule,
)
from boselab.bounds import BoundConstants, QuenchBounds, quench_bounds
from boselab.evolve import RUN_DENSE_CAP
from boselab.fock import enumerate_basis, truncation_projector
from boselab.lattice import ball, build_lattice
from boselab.model import (
    Interaction,
    Monomial,
    assemble_hamiltonian,
    bose_hubbard,
    local_operator,
)
from boselab.probes import ground_state
from helpers import (
    basis_vectors,
    chain_consts,
    fock_state,
    oracle_heisenberg,
    oracle_step,
    oracle_unitary,
    random_state,
    restricted_error,
)


def chain_setup(n, cutoff, J=1.0, U=0.0):
    g = build_lattice("chain", [n])
    b = enumerate_basis(g, cutoff)
    spec = bose_hubbard(g, J=J, U=U)
    return g, b, spec


# -- schedules ----------------------------------------------------------------


def test_step_schedule_single_step():
    s = step_schedule(0.3, 5, 0, 0.5)
    assert s.m_t == 1
    assert s.dt == pytest.approx(0.3)
    assert s.dr == 5
    assert s.radii == (5,)


def test_step_schedule_splits_by_delta_t0():
    s = step_schedule(0.3, 7, 0, 0.1)
    assert s.m_t == 3
    assert s.dt == pytest.approx(0.1)
    assert s.dr == 2
    assert s.radii == (2, 4, 6)


def test_step_schedule_exact_multiple_does_not_overshoot():
    # 0.5 / 0.125 is exactly 4 in floating point; the shave must not push it to 5
    s = step_schedule(0.5, 8, 0, 0.125)
    assert s.m_t == 4
    assert s.dt == pytest.approx(0.125)
    assert s.radii == (2, 4, 6, 8)


def test_step_schedule_infeasible():
    # ten steps cannot each grow the radius by >= 1 inside R - r0 = 5
    with pytest.raises(ScheduleError, match="infeasible"):
        step_schedule(1.0, 5, 0, 0.1)


@pytest.mark.parametrize(
    "t, R, r0, d",
    [
        (0.0, 5, 0, 0.1),
        (-1.0, 5, 0, 0.1),
        (0.5, 5, 0, 0.0),
        (0.5, 3, 3, 0.1),
        (0.5, 2, 3, 0.1),
    ],
)
def test_step_schedule_bad_inputs(t, R, r0, d):
    with pytest.raises(ValueError):
        step_schedule(t, R, r0, d)


def test_schedule_consistency_checks():
    with pytest.raises(ValueError):
        StepSchedule(total_t=0.2, m_t=2, dt=0.1, dr=0, r0=0, radii=())
    with pytest.raises(ValueError):
        StepSchedule(total_t=0.2, m_t=2, dt=0.15, dr=1, r0=0, radii=(1, 2))
    with pytest.raises(ValueError):
        StepSchedule(total_t=0.2, m_t=2, dt=0.1, dr=1, r0=0, radii=(2, 1))


def test_schedule_subsets_are_balls():
    g = build_lattice("chain", [9])
    s = step_schedule(0.2, 4, 0, 0.1)
    assert s.radii == (2, 4)
    assert s.subsets(g, 4) == (ball(g, [4], 2), ball(g, [4], 4))


# -- local unitaries ----------------------------------------------------------


def test_local_unitary_apply_matches_dense_product():
    g, b, spec = chain_setup(5, 1, U=0.6)
    step = local_step_unitary(spec, b, [2], 1, 1, 0.17)
    U = oracle_step(step)
    for k, psi in enumerate(basis_vectors(b)):
        np.testing.assert_allclose(step.apply(psi).amplitudes, U[:, k], atol=1e-10)
        np.testing.assert_allclose(
            step.apply(psi, adjoint=True).amplitudes, U.conj().T[:, k], atol=1e-10
        )


def test_local_unitary_rejects_number_leak():
    # the full hopping Hamiltonian moves bosons across the {0} boundary
    g, b, spec = chain_setup(3, 1)
    H = assemble_hamiltonian(spec, b)
    with pytest.raises(ValueError, match="number operator"):
        LocalUnitary(
            basis=b, support=frozenset({0}), surviving_dim=b.dim, factors=((H, 0.1),)
        )


def test_local_unitary_rejects_non_hermitian_generator():
    # diagonal, so it passes the number check; e^{-iG tau} is not unitary
    g, b, spec = chain_setup(3, 1)
    G = local_operator("custom-matrix", [0], b, matrix=np.diag([0.0, 1j]))
    with pytest.raises(ValueError, match="Hermitian"):
        LocalUnitary(
            basis=b, support=frozenset({0}), surviving_dim=b.dim, factors=((G, 0.1),)
        )


# -- single short step --------------------------------------------------------


def test_local_step_scheme_regions():
    g, b, spec = chain_setup(9, 1)
    regions = halo(g, [4], 1, spec.k_max)
    assert regions.L1 == {3, 4, 5}
    assert regions.L2 == {2, 3, 4, 5, 6}
    assert regions.L2p == {4}  # 2 ell0 - 2 k = 0 with the hopping range k = 1
    assert regions.annulus == {2, 6}
    # the hopping region shrinks by 2 per unit of range, down to X itself
    assert halo(g, [4], 2, 1).L2p == {2, 3, 4, 5, 6}
    assert halo(g, [4], 2, 2).L2p == halo(g, [4], 2, 5).L2p == {4}
    # a ball that reaches the lattice boundary ends there
    assert halo(g, [0], 1, 1).L2 == {0, 1, 2}
    step = local_step_unitary(spec, b, [4], 1, 1, 0.05)
    assert step.support == regions.L2


def test_local_step_surviving_dim_counts_annulus_truncation():
    g, b, spec = chain_setup(5, 2)
    step = local_step_unitary(spec, b, [2], 1, 1, 0.05)
    # annulus is {0, 4}; states with n <= 1 there number 3^3 * 2 * 2
    assert step.surviving_dim == 108


def test_local_step_full_halo_is_exact_propagator():
    g, b, spec = chain_setup(4, 2, U=1.3)
    H = assemble_hamiltonian(spec, b)
    # ell0 = 3 puts L1 = L2 = L2' = the whole chain, so nothing truncates
    step = local_step_unitary(spec, b, [0], 3, 2, 0.23)
    np.testing.assert_allclose(oracle_step(step), oracle_unitary(H, 0.23), atol=1e-10)


def test_local_step_truncated_generator_dual_route():
    g, b, spec = chain_setup(5, 2, U=0.7)
    # on X = {0} with ell0 = 2, hoppings stay in L2' = {0, 1, 2}, interactions
    # in the whole chain, and the annulus {3, 4} is truncated: an untruncated
    # subset assembly sandwiched by the annulus projector reproduces it
    step = local_step_unitary(spec, b, [0], 2, 1, 0.11)
    regions = halo(g, [0], 2, spec.k_max)
    assert regions.L2p == {0, 1, 2} and regions.annulus == {3, 4}
    pi = truncation_projector(b, [(sorted(regions.annulus), 1)])
    H_sub = assemble_hamiltonian(
        spec, b, hop_sites=sorted(regions.L2p), int_sites=sorted(regions.L2)
    ).dense()
    G = pi[:, None] * H_sub * pi[None, :]
    np.testing.assert_allclose(oracle_step(step), expm(-1j * 0.11 * G), atol=1e-10)


def test_local_step_validation():
    g, b, spec = chain_setup(4, 1)
    with pytest.raises(ValueError):
        local_step_unitary(spec, b, [1], 0, 1, 0.1)
    with pytest.raises(ValueError):
        local_step_unitary(spec, b, [1], 1, 0, 0.1)


# -- quench step --------------------------------------------------------------


def test_quench_step_validation():
    g, b, spec = chain_setup(4, 1)
    h = Interaction((1,), (Monomial(0.5, (1,)),))
    for kw in (
        dict(ell0=0, q=1, qprime=1),
        dict(ell0=1, q=0, qprime=1),
        dict(ell0=1, q=1, qprime=0),
    ):
        with pytest.raises(ValueError):
            quench_step_unitary(spec, h, b, [1], kw["ell0"], kw["q"], kw["qprime"], 0.1)


def test_quench_step_refuses_a_term_outside_its_halo():
    # with int_sites = X[2 ell0], A would drop the term and equal B
    g, b, spec = chain_setup(6, 1)
    h = Interaction((5,), (Monomial(0.5, (1,)),))
    with pytest.raises(ValueError, match="not inside"):
        quench_step_unitary(spec, h, b, [1], 1, 1, 1, 0.1)


@pytest.mark.parametrize("sector", [None, 4])
def test_quench_step_echo_factors(sector):
    g = build_lattice("chain", [4])
    b = enumerate_basis(g, 2, sector=sector)
    spec = bose_hubbard(g, J=1.0, U=0.9)
    h = Interaction((2,), (Monomial(0.5, (2,)),))
    dt = 0.19
    step = quench_step_unitary(spec, h, b, [2], 1, 1, 2, dt)
    (B, tau_b), (A, tau_a) = step.factors
    assert tau_b == pytest.approx(-dt) and tau_a == pytest.approx(dt)
    regions = halo(g, [2], 1, spec.k_max)
    assert step.support == regions.L2 | set(h.region)
    # q = 1 truncates the annulus and q' = 2 truncates X[ell0]
    kept = truncation_projector(b, [(regions.annulus, 1), (regions.L1, 2)])
    assert step.surviving_dim == kept.sum()

    # A - B is exactly the quench term sandwiched by the annulus projector
    pi = truncation_projector(b, [(sorted(regions.annulus), 1)])
    diff = (A.matrix - B.matrix).toarray()
    assert np.max(np.abs(diff - np.diag(np.diag(diff)))) < 1e-14
    np.testing.assert_allclose(
        np.diag(diff), pi * 0.5 * b.states[:, 2] ** 2.0, atol=1e-14
    )

    # application order: e^{+iB dt} first, then e^{-iA dt}
    expect = expm(-1j * dt * A.dense()) @ expm(1j * dt * B.dense())
    np.testing.assert_allclose(oracle_step(step), expect, atol=1e-10)


# -- Heisenberg step chain applied to psi0 ------------------------------------


def test_approximate_heisenberg_time_zero():
    # a schedule needs a positive t; approx-sweep refuses t <= 0 as well
    g, b, spec = chain_setup(5, 1)
    O = local_operator("number", [0], b)
    psi = random_state(b, 3)
    with pytest.raises(ValueError, match="t must be positive"):
        approximate_heisenberg(O, 0, 0, 3, 0.0, spec, psi)


def test_approximate_heisenberg_rejects_support_outside_seed_ball():
    g, b, spec = chain_setup(5, 1)
    O = local_operator("number", [3], b)
    with pytest.raises(ValueError, match="support"):
        approximate_heisenberg(O, 0, 0, 4, 0.1, spec, random_state(b, 3))


def test_approximate_heisenberg_full_coverage_matches_exact():
    g, b, spec = chain_setup(5, 1)
    H = assemble_hamiltonian(spec, b)
    O = local_operator("number", [0], b)
    psi = random_state(b, 4)
    approx, _ = approximate_heisenberg(O, 0, 0, 4, 0.2, spec, psi, ell0=3, q=1)
    exact = oracle_heisenberg(H, O, 0.2) @ psi.amplitudes
    assert np.max(np.abs(approx.amplitudes - exact)) < 1e-10


def test_approximate_heisenberg_error_improves_with_radius():
    g, b, spec = chain_setup(7, 1)
    H = assemble_hamiltonian(spec, b)
    O = local_operator("number", [0], b)
    psi = fock_state(b, (1, 0, 1, 0, 1, 0, 1))
    errs = []
    for R in (2, 4, 6):  # default ell0 = dr // 2 grows with R here
        approx, _ = approximate_heisenberg(O, 0, 0, R, 0.2, spec, psi, q=1)
        errs.append(restricted_error(H, O, approx, psi, 0.2))
    assert errs[1] <= errs[0] + 1e-12
    assert errs[2] <= errs[1] + 1e-12
    assert errs[2] < errs[0]


def test_approximate_heisenberg_trace_contents():
    g, b, spec = chain_setup(6, 1)
    O = local_operator("number", [0], b)
    _, trace = approximate_heisenberg(
        O, 0, 0, 4, 0.3, spec, random_state(b, 5), delta_t0=0.1, q=1
    )
    assert trace.schedule.m_t == 3 and trace.schedule.dr == 1
    assert trace.ell0 == 1  # dr // 2 floors to 0 and is clamped
    assert trace.q == 1
    assert len(trace.unitaries) == 3 == len(trace.step_records)
    final_ball = ball(g, [0], 4)
    for m, (u, rec) in enumerate(zip(trace.unitaries, trace.step_records), start=1):
        assert u.support <= final_ball
        assert rec["m"] == m
        assert rec["support_size"] == len(u.support)
        assert rec["truncation_q"] == 1
        assert set(rec) == {"m", "support_size", "truncation_q"}


def test_approximate_heisenberg_default_q_is_full_cutoff():
    g, b, spec = chain_setup(5, 3)
    O = local_operator("number", [2], b)
    _, trace = approximate_heisenberg(O, 2, 0, 2, 0.1, spec, fock_state(b, (1,) * 5), ell0=1)
    assert trace.q == 3


def test_approximate_heisenberg_dense_cap():
    # above the dense cap the steps still apply to psi0, so O_R psi0 comes
    # out as at any size: with full coverage it is O(t) psi0
    g, b, spec = chain_setup(8, 2)  # 6561 states
    H = assemble_hamiltonian(spec, b)
    O = local_operator("number", [0], b)
    psi = fock_state(b, (1, 0, 2, 0, 1, 0, 1, 0))
    token = RUN_DENSE_CAP.set(100)
    try:
        approx, _ = approximate_heisenberg(O, 0, 0, 7, 0.1, spec, psi, ell0=7, q=2)
    finally:
        RUN_DENSE_CAP.reset(token)
    assert restricted_error(H, O, approx, psi, 0.1) < 1e-9


def test_approximate_heisenberg_halo_overflow():
    g, b, spec = chain_setup(7, 1)
    O = local_operator("number", [0], b)
    with pytest.raises(ScheduleError, match="support exceeds.*shrink ell0"):
        approximate_heisenberg(O, 0, 0, 2, 0.1, spec, fock_state(b, (1,) * 7), ell0=3, q=1)


def test_default_ell0_overflow_does_not_suggest_shrinking_it():
    # R = 1 in one step gives dr = 1, which the default ell0 = 1 overflows
    g, b, spec = chain_setup(7, 1)
    O = local_operator("number", [0], b)
    with pytest.raises(ScheduleError, match=r"exceeds i0\[1\]") as info:
        approximate_heisenberg(O, 0, 0, 1, 0.1, spec, fock_state(b, (1,) * 7), q=1)
    assert "shrink ell0" not in str(info.value)
    assert "R - r0 >= 2" in str(info.value)


# -- quench runs ----------------------------------------------------------------


def test_run_quench_rejects_nonstationary_state():
    g, b, spec = chain_setup(5, 1)
    h = Interaction((2,), (Monomial(0.5, (1,)),))
    psi = fock_state(b, (1, 0, 1, 0, 1))
    with pytest.raises(ValueError, match="not stationary"):
        run_quench(quench_reference(spec, h, psi, 0.2), 4, chain_consts(g, qbar=1.0, t0=0.2))


def test_run_quench_full_coverage_tracks_exact_evolution():
    g, b, spec = chain_setup(5, 1)
    H = assemble_hamiltonian(spec, b)
    psi0 = ground_state(H).ground
    h = Interaction((2,), (Monomial(0.7, (1,)),))
    ref = quench_reference(spec, h, psi0, 0.3)
    assert ref.exact.flags.writeable is False
    err, rep = run_quench(ref, 4, chain_consts(g, qbar=1.0, t0=0.3), ell0=4, q=1, qprime=1)
    assert err < 1e-8
    assert rep.schedule.m_t == 1
    assert rep.stationarity_residual < 1e-8
    assert rep.cost_states == 2 * b.dim
    assert rep.step_records[0]["support_size"] == 5
    assert rep.params == {
        "i0": 2, "r0": 0, "R": 4, "t": 0.3, "ell0": 4, "q": 1, "qprime": 1,
    }
    assert isinstance(rep.bound, QuenchBounds)
    assert np.isfinite(rep.bound.error.log_value)


def test_run_quench_multistep_and_bound_passthrough():
    g, b, spec = chain_setup(7, 1)
    H = assemble_hamiltonian(spec, b)
    psi0 = ground_state(H).ground
    h = Interaction((3,), (Monomial(0.4, (1,)),))
    consts = BoundConstants(
        c0=1.0, qbar=0.0, t0=0.1, J_bar=1.0, dG=2.0, gamma=3.0, lambda0=2.0, D=1
    )
    err, rep = run_quench(quench_reference(spec, h, psi0, 0.3), 6, consts, delta_t0=0.1, q=1)
    assert rep.schedule.m_t == 3 and rep.schedule.dr == 2
    assert len(rep.step_records) == 3
    assert rep.cost_states == 6 * b.dim  # two factors per step, nothing truncated
    ref = quench_bounds(6.0, 0.0, 0.3, consts)
    assert rep.bound.error.log_value == pytest.approx(ref.error.log_value)
    assert 0.0 <= err <= 2.0


def test_run_quench_zero_quench_control():
    g, b, spec = chain_setup(5, 1)
    psi0 = ground_state(assemble_hamiltonian(spec, b)).ground
    consts = chain_consts(g, qbar=1.0, t0=0.2)
    zero = Interaction((), ())
    assert zero.region == ()
    ref = quench_reference(spec, zero, psi0, 0.2)
    with pytest.raises(ValueError, match="i0"):
        run_quench(ref, 4, consts)
    # with h = 0 the echo pair cancels per step even when the halo truncates
    err, rep = run_quench(ref, 4, consts, i0=2, ell0=1, q=1, qprime=1)
    assert err < 1e-8


def test_run_quench_seed_ball_covers_quench_support():
    g, b, spec = chain_setup(6, 1)
    psi0 = ground_state(assemble_hamiltonian(spec, b)).ground
    h = Interaction((3,), (Monomial(0.3, (1,)),))
    err, rep = run_quench(
        quench_reference(spec, h, psi0, 0.2), 5, chain_consts(g, qbar=1.0, t0=0.2),
        i0=0, ell0=4, q=1, qprime=1,
    )
    assert rep.params["r0"] == 3 and rep.schedule.r0 == 3
    assert err < 1e-8
