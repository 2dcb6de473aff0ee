"""Step-connected local approximation of dynamics, and local quench simulation.

One builder makes every step: a subset Hamiltonian on the halo X[2 ell0],
occupation-truncated by q on the annulus.  approximate_heisenberg conjugates
an observable by short steps e^{-iG dt} over nested balls X_m, keeping its
support controlled.  run_quench simulates a quench on a stationary state by
echo steps, which also truncate X[ell0] by q': a backward unquenched factor
e^{+iB dt}, then a forward quenched e^{-iA dt}.  With full coverage and
cutoffs the echo telescopes to the exact quenched evolution, using only
stationarity.  Both walk one step chain, which checks each step's support
against i0[R] and records {m, support_size, truncation_q} per step.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sparse

from .bounds import BoundConditionError, BoundConstants, QuenchBounds, quench_bounds, solve_eta
from .evolve import StateVector, _dense_unitary, dense_cap, evolve_state
from .fock import FockBasis, ResourceLimitError, number_operator, truncation_projector
from .lattice import LatticeGraph, ball, geometric_constants
from .model import HamiltonianSpec, OperatorMatrix, _wrap, assemble_hamiltonian

UNITARITY_TOL = 1e-10
NUMBER_COMM_TOL = 1e-10


@dataclass(frozen=True)
class StepSchedule:
    """Partition of (t, R - r0) into m_t short steps of radius growth dr."""

    total_t: float
    m_t: int
    dt: float
    dr: int
    r0: int
    radii: tuple[int, ...]  # r_m = r0 + m dr, m = 1..m_t

    def __post_init__(self) -> None:
        if self.m_t < 1 or self.dr < 1:
            raise ValueError("m_t and dr must be positive")
        if abs(self.m_t * self.dt - self.total_t) > 1e-12 * max(1.0, abs(self.total_t)):
            raise ValueError("m_t * dt must equal total_t")
        if self.radii != tuple(self.r0 + m * self.dr for m in range(1, self.m_t + 1)):
            raise ValueError("radii inconsistent with r0 + m dr")

    def subsets(self, g: LatticeGraph, i0: int) -> tuple[frozenset[int], ...]:
        return tuple(ball(g, [i0], r) for r in self.radii)


def step_schedule(t: float, R: float, r0: int, delta_t0: float) -> StepSchedule:
    """m_t = ceil(t / delta_t0) steps with dt <= delta_t0 and dr = floor((R-r0)/m_t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if delta_t0 <= 0:
        raise ValueError("delta_t0 must be positive")
    if R <= r0:
        raise ValueError("R must exceed r0")
    # the 1e-12 shave keeps an exact multiple from rounding up to an extra step
    m_t = max(1, math.ceil(t / delta_t0 - 1e-12))
    dt = t / m_t
    if dt > delta_t0 * (1.0 + 1e-9):
        raise AssertionError("schedule produced dt > delta_t0")
    dr = int((R - r0) // m_t)
    if dr < 1:
        raise ValueError(
            f"infeasible schedule: {m_t} steps require R - r0 >= m_t "
            f"(dr >= 1), got R - r0 = {R - r0}"
        )
    radii = tuple(int(r0) + m * dr for m in range(1, m_t + 1))
    return StepSchedule(total_t=float(t), m_t=m_t, dt=dt, dr=dr, r0=int(r0), radii=radii)


# factor encodings: ("expm", G, tau) applies e^{-i G tau}; ("mat", U) applies U
Factor = tuple


@dataclass(frozen=True)
class LocalUnitary:
    """Unitary supported on a halo region, kept as a product of factors.

    ``factors`` is in application order: factors[0] hits the state first.
    Factors are either matrix exponentials of Hermitian generators (applied
    by Krylov propagation, so large bases never materialize the unitary) or
    explicit unitary matrices.  Construction verifies number commutation on
    every generator exactly, and unitarity of the materialized product when
    the dimension allows it.
    """

    basis: FockBasis
    support: frozenset[int]
    scheme: Mapping[str, Any]
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        defect = self.number_commutation_defect()
        if defect > NUMBER_COMM_TOL:
            raise ValueError(
                f"local unitary generator does not commute with the region "
                f"number operator (defect {defect:.3e})"
            )
        if self.basis.dim <= dense_cap():
            U = self.materialize()
            uerr = float(np.linalg.norm(U.conj().T @ U - np.eye(self.basis.dim), 2))
            if uerr > UNITARITY_TOL:
                raise ValueError(f"materialized product is not unitary (defect {uerr:.3e})")

    def number_commutation_defect(self) -> float:
        """Exact max |[factor generator, n_support]| entry over all factors."""
        n = number_operator(self.basis, self.support).entries
        worst = 0.0
        for f in self.factors:
            mat = f[1].matrix.tocoo()
            if mat.nnz:
                d = np.abs(mat.data * (n[mat.col] - n[mat.row]))
                worst = max(worst, float(d.max()))
        return worst

    def apply(self, psi: StateVector, *, tol: float = 1e-10) -> StateVector:
        for f in self.factors:
            psi = _apply_factor(f, psi, tol, adjoint=False)
        return psi

    def apply_adjoint(self, psi: StateVector, *, tol: float = 1e-10) -> StateVector:
        for f in reversed(self.factors):
            psi = _apply_factor(f, psi, tol, adjoint=True)
        return psi

    def materialize(self) -> np.ndarray:
        """Dense product matrix; factors[0] is rightmost."""
        cap = dense_cap()
        if self.basis.dim > cap:
            raise ResourceLimitError(
                f"dimension {self.basis.dim} exceeds the dense cap {cap}"
            )
        U = np.eye(self.basis.dim, dtype=np.complex128)
        for f in self.factors:
            if f[0] == "expm":
                _, G, tau = f
                step = _dense_unitary(G, float(tau))
            else:
                step = f[1].dense()
            U = step @ U
        return U

    def conjugate(self, O: OperatorMatrix) -> OperatorMatrix:
        """U^dagger O U from the dense product, supported on this unitary's and O's sites."""
        U = self.materialize()
        return _wrap(
            self.basis,
            sparse.csr_matrix(U.conj().T @ O.dense() @ U),
            declared_support=sorted(self.support | O.support),
            verify_support=False,
        )


def _apply_factor(f: Factor, psi: StateVector, tol: float, *, adjoint: bool) -> StateVector:
    if f[0] == "expm":
        _, G, tau = f
        return evolve_state(G, psi, -tau if adjoint else tau, tol=tol)
    U = f[1].matrix
    mat = U.conj().T if adjoint else U
    return StateVector(psi.basis, mat @ psi.amplitudes)


def _halo_regions(
    g: LatticeGraph, X: Iterable[int], ell0: int, k: int
) -> tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int], bool]:
    L1 = ball(g, X, ell0)
    L2 = ball(g, X, 2 * ell0)
    L2p = ball(g, X, max(0, 2 * ell0 - 2 * k))
    Ltilde = frozenset(L2 - L1)
    clipped = len(L2) == g.site_count
    return L1, L2, L2p, Ltilde, clipped


def _compressed_generator(
    spec: HamiltonianSpec,
    b: FockBasis,
    hop_region: frozenset[int],
    int_region: frozenset[int],
    pi_entries: np.ndarray | None,
    pi_support: frozenset[int],
    extra: OperatorMatrix | None = None,
) -> OperatorMatrix:
    """Pi_bar (H0 restricted to hop_region + V restricted to int_region + extra) Pi_bar."""
    H = assemble_hamiltonian(
        spec,
        b,
        _hop_filter=lambda i, j: i in hop_region and j in hop_region,
        _int_filter=lambda Z: set(Z) <= int_region,
    )
    mat = H.matrix
    supp = set(H.support)
    if extra is not None:
        mat = mat + extra.matrix
        supp |= extra.support
    if pi_entries is not None:
        D = sparse.diags(pi_entries)
        mat = (D @ mat @ D).tocsr()
        supp |= pi_support
    return _wrap(b, sparse.csr_matrix(mat), declared_support=sorted(supp), verify_support=False)


def _step_unitary(
    spec: HamiltonianSpec,
    b: FockBasis,
    X: Iterable[int],
    ell0: int,
    q: int,
    dt: float,
    k: int | None,
    h_X0: OperatorMatrix | None = None,
    qprime: int | None = None,
) -> LocalUnitary:
    """A step on the halo X[2 ell0]: e^{-i B dt}, truncated by q on the annulus.

    With a quench term h_X0, q' truncates X[ell0] as well, and the step is the
    echo pair e^{+i B dt}, then e^{-i A dt}, with A = B + h_X0 compressed alike.
    """
    kk = int(spec.k_max if k is None else k)
    L1, L2, L2p, Ltilde, clipped = _halo_regions(spec.lattice, X, ell0, kk)
    truncation = [(Ltilde, q)] if h_X0 is None else [(Ltilde, q), (L1, qprime)]
    live = [(sorted(region), cut) for region, cut in truncation if region]
    entries = truncation_projector(b, live).entries if live else None
    pi_supp = frozenset().union(*(region for region, _ in truncation))
    B = _compressed_generator(spec, b, L2p, L2, entries, pi_supp)
    if h_X0 is None:
        support, factors = frozenset(L2), (("expm", B, float(dt)),)
    else:
        A = _compressed_generator(spec, b, L2p, L2, entries, pi_supp, extra=h_X0)
        support = frozenset(L2) | h_X0.support
        factors = (("expm", B, -float(dt)), ("expm", A, float(dt)))
    scheme = {
        "ell0": int(ell0),
        "q": int(q),
        "qprime": None if h_X0 is None else int(qprime),
        "L1": tuple(sorted(L1)),
        "L2": tuple(sorted(L2)),
        "L2p": tuple(sorted(L2p)),
        "clipped": clipped,
        "ell0_ge_8k": ell0 >= 8 * kk,
        "surviving_dim": b.dim if entries is None else int(entries.sum()),
    }
    return LocalUnitary(basis=b, support=support, scheme=scheme, factors=factors)


def local_step_unitary(
    spec: HamiltonianSpec,
    b: FockBasis,
    X: Iterable[int],
    ell0: int,
    q: int,
    dt: float,
    *,
    k: int | None = None,
) -> LocalUnitary:
    """One short-step unitary e^{-i G dt} on the halo X[2 ell0].

    G keeps hoppings with both endpoints in L2' = X[2 ell0 - 2k] and
    interactions inside L2 = X[2 ell0], compressed by the occupation cutoff q
    on the annulus L2 minus X[ell0].  Halos that run into the lattice
    boundary are clipped and flagged in the scheme.
    """
    if ell0 < 1 or q < 1:
        raise ValueError("ell0 and q must be >= 1")
    return _step_unitary(spec, b, X, ell0, q, dt, k)


def quench_step_unitary(
    spec: HamiltonianSpec,
    h_X0: OperatorMatrix,
    b: FockBasis,
    X: Iterable[int],
    ell0: int,
    q: int,
    qprime: int,
    dt: float,
    *,
    k: int | None = None,
) -> LocalUnitary:
    """One quench step as the echo pair (e^{+iB dt} first, then e^{-iA dt}).

    B is the compressed unquenched local generator (hoppings in L2',
    interactions in L2, two-region truncation q on the annulus and q' on
    X[ell0]); A = B + h_tilde with the quench term compressed the same way.
    Chained across steps as L_m ... L_1 u R_1 ... R_m, the product applied to
    a stationary state reproduces e^{-i(H+h)t} exactly in the full-coverage
    limit, which is what the error sweeps measure.
    """
    if ell0 < 1 or q < 1 or qprime < 1:
        raise ValueError("ell0, q and qprime must be >= 1")
    if not h_X0.is_diagonal:
        raise ValueError("quench term must be a number polynomial (diagonal matrix)")
    return _step_unitary(spec, b, X, ell0, q, dt, k, h_X0, qprime)


def _solve_q_default(
    ell0: int, R: float, consts: BoundConstants | None, b: FockBasis
) -> int:
    """solve_eta when its preconditions hold; otherwise the full basis cutoff.

    The fallback is conservative: the full cutoff means no truncation at all,
    so it can only improve accuracy over any solved q.
    """
    full = int(max(b.site_cutoffs))
    if consts is not None:
        try:
            r = max(3.0, float(R))
            size_lt = consts.gamma * (r + 2.0 * ell0) ** consts.D
            sol = solve_eta(float(ell0), r, size_lt, consts)
            return min(max(1, sol.q), full)
        except (BoundConditionError, ValueError):
            pass
    return full


@dataclass(frozen=True)
class ApproxTrace:
    schedule: StepSchedule | None  # None only for the trivial t = 0 call
    ell0: int
    q: int
    unitaries: tuple[LocalUnitary, ...]
    step_records: tuple[dict, ...]


def _step_chain(
    build: Callable[[frozenset[int], int, int, float], LocalUnitary],
    g: LatticeGraph,
    b: FockBasis,
    i0: int,
    r0: int,
    R: int,
    t: float,
    consts: BoundConstants | None,
    ell0: int | None,
    q: int | None,
    delta_t0: float | None,
) -> ApproxTrace:
    """The steps over the schedule of (t, R - r0), with their records.

    ``build(X, ell0, q, dt)`` makes step m on X = i0[r_{m-1}]; ell0 and q
    default as approximate_heisenberg documents, and every step must stay
    inside i0[R].
    """
    if delta_t0 is None:
        delta_t0 = consts.delta_t0 if consts is not None and consts.eta is not None else t
    sched = step_schedule(t, R, r0, delta_t0)
    ell = int(ell0) if ell0 is not None else max(1, sched.dr // 2)
    q_used = int(q) if q is not None else _solve_q_default(ell, R, consts, b)
    X_final = ball(g, [i0], int(R))
    X_prev = ball(g, [i0], r0)
    steps: list[LocalUnitary] = []
    for m, r_m in enumerate(sched.radii, start=1):
        step = build(X_prev, ell, q_used, sched.dt)
        if not step.support <= X_final:
            raise ValueError(
                f"step {m} support exceeds i0[{R}]; shrink ell0 "
                f"(ell0 = {ell}, dr = {sched.dr})"
            )
        steps.append(step)
        X_prev = ball(g, [i0], r_m)
    records = tuple(
        {"m": m, "support_size": len(step.support), "truncation_q": q_used}
        for m, step in enumerate(steps, start=1)
    )
    return ApproxTrace(
        schedule=sched, ell0=ell, q=q_used, unitaries=tuple(steps), step_records=records
    )


def approximate_heisenberg(
    O: OperatorMatrix,
    i0: int,
    r0: int,
    R: int,
    t: float,
    spec: HamiltonianSpec,
    b: FockBasis,
    consts: BoundConstants | None = None,
    *,
    ell0: int | None = None,
    q: int | None = None,
    delta_t0: float | None = None,
    return_trace: bool = False,
) -> OperatorMatrix | tuple[OperatorMatrix, ApproxTrace]:
    """Approximate O(t) by m_t local conjugations with support inside i0[R].

    Each step conjugates by local_step_unitary on the current ball; supports
    grow by dr per step.  The default ell0 = max(1, dr // 2) keeps every
    halo inside the next ball (this needs dr >= 2); the default q comes from
    solve_eta when its regime applies and is the full cutoff otherwise.
    """
    cap = dense_cap()
    if b.dim > cap:
        raise ResourceLimitError(
            f"conjugation chain needs dense matrices; dimension {b.dim} exceeds "
            f"cap {cap}"
        )
    if t == 0.0:
        trace = ApproxTrace(schedule=None, ell0=0, q=0, unitaries=(), step_records=())
        return (O, trace) if return_trace else O
    if not O.support <= ball(spec.lattice, [i0], r0):
        raise ValueError(f"operator support {sorted(O.support)} not inside i0[r0]")
    trace = _step_chain(
        lambda X, ell, q_m, dt: local_step_unitary(spec, b, X, ell, q_m, dt),
        spec.lattice, b, i0, r0, R, t, consts, ell0, q, delta_t0,
    )
    norm0 = float(np.linalg.norm(O.dense(), 2))
    current = O.dense()
    accum_support = set(O.support)
    for step in trace.unitaries:
        U = step.materialize()
        current = U.conj().T @ current @ U
        accum_support |= step.support
    norm_t = float(np.linalg.norm(current, 2))
    if abs(norm_t - norm0) > 1e-9 * trace.schedule.m_t + 1e-10:
        raise AssertionError(
            f"conjugation chain drifted the operator norm: {norm0} -> {norm_t}"
        )
    # conjugation roundoff sprays ~1e-17 entries over the whole matrix; the
    # true support is the accumulated step-support union, checked per step
    current[np.abs(current) < 1e-15 * max(1.0, norm0)] = 0.0
    out = _wrap(
        b,
        sparse.csr_matrix(current),
        declared_support=sorted(accum_support),
        verify_support=False,
    )
    return (out, trace) if return_trace else out


@dataclass(frozen=True)
class QuenchReport:
    error: float
    schedule: StepSchedule
    stationarity_residual: float
    cost_states: int
    bound: QuenchBounds
    step_records: tuple[dict, ...]
    params: Mapping[str, Any] = field(default_factory=dict)


def run_quench(
    spec: HamiltonianSpec,
    h_X0: OperatorMatrix,
    psi0: StateVector,
    t: float,
    R: int,
    consts: BoundConstants | None = None,
    *,
    i0: int | None = None,
    r0: int = 0,
    ell0: int | None = None,
    q: int | None = None,
    qprime: int | None = None,
    delta_t0: float | None = None,
    stationarity_tol: float = 1e-6,
    tol: float = 1e-10,
) -> tuple[float, QuenchReport]:
    """Simulate the quench H -> H + h_X0 on a stationary state with local unitaries.

    Builds the step-connected echo product over the schedule, applies it to
    psi0 (backward factors from the outermost step inward, then forward
    factors outward), and reports the trace-norm distance to the exact
    quenched evolution together with the analytic bound and a cost counter.
    """
    b = psi0.basis
    g = spec.lattice
    H = assemble_hamiltonian(spec, b)
    energy = float(np.real(np.vdot(psi0.amplitudes, H.matrix @ psi0.amplitudes)))
    resid = float(np.linalg.norm(H.matrix @ psi0.amplitudes - energy * psi0.amplitudes))
    if resid > stationarity_tol:
        raise ValueError(
            f"psi0 is not stationary under H: residual {resid:.3e} exceeds "
            f"tolerance {stationarity_tol:.3e} (the construction requires "
            f"[rho0, H] = 0)"
        )
    if i0 is None:
        if not h_X0.support:
            raise ValueError("h_X0 has empty support; pass i0 explicitly")
        i0 = min(h_X0.support)
    if h_X0.support:
        r_need = max(int(g.distances[i0, j]) for j in h_X0.support)
        r0 = max(r0, r_need)

    # r0 covers the support of h_X0, so the chain's i0[R] check covers it too
    trace = _step_chain(
        lambda X, ell, q_m, dt: quench_step_unitary(
            spec, h_X0, b, X, ell, q_m, q_m if qprime is None else int(qprime), dt
        ),
        g, b, i0, r0, R, t, consts, ell0, q, delta_t0,
    )
    cost = sum(len(u.factors) * int(u.scheme["surviving_dim"]) for u in trace.unitaries)
    state = psi0
    for step in reversed(trace.unitaries):
        state = _apply_factor(step.factors[0], state, tol, adjoint=False)
    for step in trace.unitaries:
        state = _apply_factor(step.factors[1], state, tol, adjoint=False)

    H_quench = _wrap(
        b,
        sparse.csr_matrix(H.matrix + h_X0.matrix),
        declared_support=sorted(H.support | h_X0.support),
        verify_support=False,
    )
    exact = evolve_state(H_quench, psi0, t, tol=tol)

    a = state.amplitudes / np.linalg.norm(state.amplitudes)
    bvec = exact.amplitudes / np.linalg.norm(exact.amplitudes)
    # trace distance 2 sqrt(1 - |<a,b>|^2), computed through the orthogonal
    # residual so near-identical states do not cancel catastrophically
    c = complex(np.vdot(bvec, a))
    ortho = a - c * bvec
    error = 2.0 * min(1.0, float(np.linalg.norm(ortho)))

    if consts is not None:
        qb = quench_bounds(float(R), float(r0), max(t, 1e-12), consts)
    else:
        geo = geometric_constants(g)
        fallback = BoundConstants(
            c0=1.0, qbar=0.0, t0=max(t, 1e-12), J_bar=spec.J_bar,
            dG=geo.max_degree_dG, gamma=geo.gamma, lambda0=geo.lambda0,
            D=geo.dimension_D,
        )
        qb = quench_bounds(float(R), float(r0), max(t, 1e-12), fallback)
    report = QuenchReport(
        error=error,
        schedule=trace.schedule,
        stationarity_residual=resid,
        cost_states=cost,
        bound=qb,
        step_records=trace.step_records,
        params={
            "i0": int(i0), "r0": int(r0), "R": int(R), "t": float(t), "ell0": trace.ell0,
            "q": trace.q, "qprime": trace.unitaries[0].scheme["qprime"],
        },
    )
    return error, report
