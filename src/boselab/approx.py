"""Step-connected local approximation of dynamics, and local quench simulation.

One builder makes every step: a LocalUnitary, a chain of (G, tau) pairs
e^{-iG tau} whose G is a subset Hamiltonian on the halo X[2 ell0],
occupation-truncated by q on the annulus, each G one
``assemble_hamiltonian`` call.  ``halo`` draws a step's regions, with the
interaction range k = spec.k_max.  A step holds only these factors, and every
caller applies them to a state one pair at a time by Krylov propagation
(``LocalUnitary.apply``), so no step is ever a dense matrix and none is
refused by the dense cap.  approximate_heisenberg returns O_R psi0 for the
approximation O_R of O(t) by short steps over nested balls X_m: the steps
from the last to the first, then O, then their adjoints from the first to
the last.  run_quench simulates a quench on a
stationary state by echo steps, which also truncate X[ell0] by q': a
backward unquenched pair (B, -dt), then a forward quenched (A, dt).  The
quench term h is a number polynomial, one more ``model.Interaction``: A is
the builder's generator of the spec with h appended as its last
interaction, as H + h is.  With full coverage and cutoffs the echo
telescopes to the exact quenched evolution, using only stationarity.  Both
walk one step chain, which checks each step's support against i0[R] and
records {m, support_size, truncation_q} per step.  What a quench does not
owe to R (psi0's stationarity residual under H, and the exact state
e^{-i(H+h)t} psi0) is a QuenchReference, made once by quench_reference;
run_quench takes it at every R, with the run's bound constants, and reads
the quench's inputs from it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any

import numpy as np

from .bounds import BoundConditionError, BoundConstants, QuenchBounds, quench_bounds, solve_eta
from .evolve import StateVector, evolve_state
from .fock import FockBasis, number_operator, truncation_projector
from .lattice import LatticeGraph, ball
from .model import HamiltonianSpec, Interaction, OperatorMatrix, assemble_hamiltonian

NUMBER_COMM_TOL = 1e-10


class StationarityError(ValueError):
    """The initial state of a quench is not stationary under H."""


class ScheduleError(ValueError):
    """No step schedule of (t, R - r0) keeps every step inside i0[R]."""


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
        raise ScheduleError(
            f"infeasible schedule: {m_t} steps require R - r0 >= m_t "
            f"(dr >= 1), got R - r0 = {R - r0}"
        )
    radii = tuple(int(r0) + m * dr for m in range(1, m_t + 1))
    return StepSchedule(total_t=float(t), m_t=m_t, dt=dt, dr=dr, r0=int(r0), radii=radii)


@dataclass(frozen=True)
class LocalUnitary:
    """Unitary supported on a halo region: a chain of short exponentials.

    ``factors`` holds (G, tau) pairs, each e^{-i G tau} for a Hermitian
    generator G, in application order: factors[0] hits the state first.
    Construction checks that every generator is Hermitian and commutes
    exactly with the region's number operator, and builds no matrix.
    ``apply`` moves a state through the pairs by Krylov propagation, at any
    dimension; the product of the pairs is never formed.  ``surviving_dim``
    counts the basis states the step's truncation keeps.
    """

    basis: FockBasis
    support: frozenset[int]
    surviving_dim: int
    factors: tuple[tuple[OperatorMatrix, float], ...]

    def __post_init__(self) -> None:
        defect = self.number_commutation_defect()
        if defect > NUMBER_COMM_TOL:
            raise ValueError(
                f"local unitary generator does not commute with the region "
                f"number operator (defect {defect:.3e})"
            )
        if not all(G.hermitian for G, _ in self.factors):
            raise ValueError("local unitary generator must be Hermitian")

    def number_commutation_defect(self) -> float:
        """Exact max |[factor generator, n_support]| entry over all factors."""
        n = number_operator(self.basis, self.support)
        worst = 0.0
        for G, _ in self.factors:
            mat = G.matrix
            if mat.nnz:
                # n at each entry's row, read off the row pointers
                n_row = np.repeat(n, np.diff(mat.indptr))
                d = np.abs(mat.data * (n[mat.indices] - n_row))
                worst = max(worst, float(d.max()))
        return worst

    def apply(self, psi: StateVector, adjoint: bool = False) -> StateVector:
        """U psi, or U^dagger psi: the adjoint runs the pairs in reverse order with -tau."""
        if adjoint:
            return _apply_pairs(((G, -tau) for G, tau in reversed(self.factors)), psi)
        return _apply_pairs(self.factors, psi)


def _apply_pairs(pairs: Iterable[tuple[OperatorMatrix, float]], psi: StateVector) -> StateVector:
    """psi moved by e^{-i G tau} for each (G, tau) in order, by Krylov propagation."""
    for G, tau in pairs:
        psi = evolve_state(G, psi, tau)
    return psi


@dataclass(frozen=True)
class Halo:
    """The regions of a step on X with interaction range k.

    L1 = X[ell0] and L2 = X[2 ell0]; hoppings are kept in
    L2p = X[max(0, 2 ell0 - 2k)], and occupations are truncated on the
    annulus L2 - L1.  A ball that reaches the lattice boundary ends there.
    """

    L1: frozenset[int]
    L2: frozenset[int]
    L2p: frozenset[int]
    annulus: frozenset[int]


def halo(g: LatticeGraph, X: Iterable[int], ell0: int, k: int) -> Halo:
    """The Halo of a step on X with radius ell0 and interaction range k."""
    L1, L2 = ball(g, X, ell0), ball(g, X, 2 * ell0)
    return Halo(L1=L1, L2=L2, L2p=ball(g, X, max(0, 2 * ell0 - 2 * k)), annulus=L2 - L1)


def _quenched(spec: HamiltonianSpec, h: Interaction) -> HamiltonianSpec:
    """The spec of H + h: h appended last, k_max raised to its region if needed."""
    return replace(
        spec, interactions=(*spec.interactions, h), k_max=max(spec.k_max, len(h.region))
    )


def _step_unitary(
    spec: HamiltonianSpec,
    b: FockBasis,
    X: Iterable[int],
    ell0: int,
    q: int,
    dt: float,
    h: Interaction | None = None,
    qprime: int | None = None,
) -> LocalUnitary:
    """A step on the halo X[2 ell0]: e^{-i B dt}, truncated by q on the annulus.

    With a quench term h, q' truncates X[ell0] as well, and the step is the
    echo pair e^{+i B dt}, then e^{-i A dt}, with A = B + h compressed alike.
    """
    reg = halo(spec.lattice, X, ell0, spec.k_max)
    if h is not None and not reg.L2.issuperset(h.region):
        # int_sites = L2 would drop h from A without a word
        raise ValueError(f"quench term region {h.region} is not inside X[2 ell0]")
    truncation = [(reg.annulus, q)] if h is None else [(reg.annulus, q), (reg.L1, qprime)]
    B = assemble_hamiltonian(spec, b, hop_sites=reg.L2p, int_sites=reg.L2, truncation=truncation)
    if h is None:
        factors = ((B, float(dt)),)
    else:
        A = assemble_hamiltonian(
            _quenched(spec, h), b, hop_sites=reg.L2p, int_sites=reg.L2, truncation=truncation
        )
        factors = ((B, -float(dt)), (A, float(dt)))
    kept = int(truncation_projector(b, truncation).sum())
    return LocalUnitary(basis=b, support=reg.L2, surviving_dim=kept, factors=factors)


def local_step_unitary(
    spec: HamiltonianSpec,
    b: FockBasis,
    X: Iterable[int],
    ell0: int,
    q: int,
    dt: float,
) -> LocalUnitary:
    """One short-step unitary e^{-i G dt} on the halo X[2 ell0].

    G keeps hoppings with both endpoints in L2' = X[2 ell0 - 2k] and
    interactions inside L2 = X[2 ell0], compressed by the occupation cutoff q
    on the annulus L2 minus X[ell0]; k is spec.k_max, and ``halo`` draws
    the regions.
    """
    if ell0 < 1 or q < 1:
        raise ValueError("ell0 and q must be >= 1")
    return _step_unitary(spec, b, X, ell0, q, dt)


def quench_step_unitary(
    spec: HamiltonianSpec,
    h: Interaction,
    b: FockBasis,
    X: Iterable[int],
    ell0: int,
    q: int,
    qprime: int,
    dt: float,
) -> LocalUnitary:
    """One quench step as the echo pair (e^{+iB dt} first, then e^{-iA dt}).

    B is the compressed unquenched local generator (hoppings in L2',
    interactions in L2, two-region truncation q on the annulus and q' on
    X[ell0]); A is the same generator of the spec with the quench term h
    appended, h_tilde compressed the same way, so A - B is h's diagonal
    inside the truncation.  h's region must lie in the halo X[2 ell0].
    Chained across steps as L_m ... L_1 u R_1 ... R_m, the product applied to
    a stationary state reproduces e^{-i(H+h)t} exactly in the full-coverage
    limit, which is what the error sweeps measure.
    """
    if ell0 < 1 or q < 1 or qprime < 1:
        raise ValueError("ell0, q and qprime must be >= 1")
    return _step_unitary(spec, b, X, ell0, q, dt, h, qprime)


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
    schedule: StepSchedule
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
    inside i0[R], or a ScheduleError says what to change.  Each step holds
    only its (G, tau) factors.
    """
    if delta_t0 is None:
        delta_t0 = consts.delta_t0 if consts is not None and consts.eta is not None else t
    sched = step_schedule(t, R, r0, delta_t0)
    ell = int(ell0) if ell0 is not None else max(1, sched.dr // 2)
    q_used = int(q) if q is not None else _solve_q_default(ell, R, consts, b)
    X_final = ball(g, [i0], int(R))
    # step m starts on X_{m-1}: i0[r0], then the schedule's balls but the last
    starts = (ball(g, [i0], r0), *sched.subsets(g, i0)[:-1])
    steps, records = [], []
    for m, X in enumerate(starts, start=1):
        step = build(X, ell, q_used, sched.dt)
        if not step.support <= X_final:
            # the default ell0 fits whenever dr >= 2, so only a given one can shrink
            hint = (
                "shrink ell0" if ell0 is not None
                else f"the default ell0 needs dr >= 2, so R - r0 >= {2 * sched.m_t}"
            )
            raise ScheduleError(
                f"step {m} support exceeds i0[{R}] (ell0 = {ell}, dr = {sched.dr}); {hint}"
            )
        steps.append(step)
        records.append({"m": m, "support_size": len(step.support), "truncation_q": q_used})
    return ApproxTrace(
        schedule=sched, ell0=ell, q=q_used, unitaries=tuple(steps), step_records=tuple(records)
    )


def approximate_heisenberg(
    O: OperatorMatrix,
    i0: int,
    r0: int,
    R: int,
    t: float,
    spec: HamiltonianSpec,
    psi0: StateVector,
    consts: BoundConstants | None = None,
    *,
    ell0: int | None = None,
    q: int | None = None,
    delta_t0: float | None = None,
) -> tuple[StateVector, ApproxTrace]:
    """O_R psi0 for the approximation O_R of O(t) by m_t local steps inside i0[R].

    O_R = U_m^dagger ... U_1^dagger O U_1 ... U_m is O conjugated by
    local_step_unitary on the current ball, step 1 first; supports grow by
    dr per step.  It is never formed: psi0 goes through the steps from m_t
    down to 1, then O, then the adjoints from 1 up to m_t, each pair by
    Krylov propagation, so any basis dimension works.  The default
    ell0 = max(1, dr // 2) keeps every halo inside the next ball (this needs
    dr >= 2); the default q comes from solve_eta when its regime applies and
    is the full cutoff otherwise.  Returns O_R psi0 with the ApproxTrace of
    its steps; t must be positive.
    """
    b = psi0.basis
    if not O.support <= ball(spec.lattice, [i0], r0):
        raise ValueError(f"operator support {sorted(O.support)} not inside i0[r0]")
    trace = _step_chain(
        partial(local_step_unitary, spec, b), spec.lattice, b, i0, r0, R, t, consts, ell0, q,
        delta_t0,
    )
    state = psi0
    for step in reversed(trace.unitaries):
        state = step.apply(state)
    state = StateVector(b, O.matrix @ state.amplitudes)
    for step in trace.unitaries:
        state = step.apply(state, adjoint=True)
    return state, trace


@dataclass(frozen=True)
class QuenchReport:
    schedule: StepSchedule
    stationarity_residual: float
    cost_states: int
    bound: QuenchBounds
    step_records: tuple[dict, ...]
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class QuenchReference:
    """The R-independent half of a quench, made once by ``quench_reference``.

    It holds the quench's inputs (spec, the quench term h, psi0 and t),
    psi0's stationarity residual under H, and ``exact``, the normalized
    exact quenched state e^{-i(H+h)t} psi0 that ``run_quench`` measures
    against.  h is a number polynomial, a ``model.Interaction``; H + h is
    the spec with h appended as its last interaction.
    """

    spec: HamiltonianSpec
    h: Interaction
    psi0: StateVector
    t: float
    stationarity_residual: float
    exact: np.ndarray


def quench_reference(
    spec: HamiltonianSpec,
    h: Interaction,
    psi0: StateVector,
    t: float,
    *,
    stationarity_tol: float = 1e-6,
) -> QuenchReference:
    """Check psi0 is stationary under H and evolve it exactly under H + h.

    Raises StationarityError when the residual ||H psi0 - E psi0|| exceeds
    ``stationarity_tol``.  Every R of a quench shares the result.
    """
    b = psi0.basis
    H = assemble_hamiltonian(spec, b)
    energy = float(np.real(np.vdot(psi0.amplitudes, H.matrix @ psi0.amplitudes)))
    resid = float(np.linalg.norm(H.matrix @ psi0.amplitudes - energy * psi0.amplitudes))
    if resid > stationarity_tol:
        raise StationarityError(
            f"psi0 is not stationary under H: residual {resid:.3e} exceeds "
            f"tolerance {stationarity_tol:.3e} (the construction requires "
            f"[rho0, H] = 0)"
        )
    del H  # freed before H + h is built
    exact = evolve_state(assemble_hamiltonian(_quenched(spec, h), b), psi0, t).amplitudes
    exact = exact / np.linalg.norm(exact)
    exact.flags.writeable = False  # every R reads it, from any thread
    return QuenchReference(
        spec=spec, h=h, psi0=psi0, t=float(t), stationarity_residual=resid, exact=exact,
    )


def run_quench(
    reference: QuenchReference,
    R: int,
    consts: BoundConstants,
    *,
    i0: int | None = None,
    ell0: int | None = None,
    q: int | None = None,
    qprime: int | None = None,
    delta_t0: float | None = None,
) -> tuple[float, QuenchReport]:
    """Simulate the quench of ``reference`` with local unitaries at radius R.

    Applies the step-connected echo pairs over the schedule to psi0 by
    Krylov propagation (backward factors from the outermost step inward,
    then forward factors outward), and reports the trace-norm distance to
    the reference's exact quenched state together with the analytic bound
    and a cost counter.
    i0 defaults to the first site of h's region, and r0 is the distance
    from i0 to the farthest site of the region.  ``consts`` gives the bound
    its c0 and qbar, which describe psi0.
    """
    spec, h, psi0, t = reference.spec, reference.h, reference.psi0, reference.t
    b = psi0.basis
    g = spec.lattice
    if i0 is None:
        if not h.region:
            raise ValueError("h has an empty region; pass i0 explicitly")
        i0 = h.region[0]
    r0 = max((int(g.distances[i0, j]) for j in h.region), default=0)

    # r0 covers h's region, so every step's X = i0[r_{m-1}], and the chain's
    # i0[R] check, cover it too
    trace = _step_chain(
        lambda X, ell, q_m, dt: quench_step_unitary(
            spec, h, b, X, ell, q_m, q_m if qprime is None else int(qprime), dt
        ),
        g, b, i0, r0, R, t, consts, ell0, q, delta_t0,
    )
    cost = sum(len(u.factors) * u.surviving_dim for u in trace.unitaries)
    backward = [step.factors[0] for step in reversed(trace.unitaries)]
    state = _apply_pairs(backward + [step.factors[1] for step in trace.unitaries], psi0)

    a = state.amplitudes / np.linalg.norm(state.amplitudes)
    bvec = reference.exact
    # trace distance 2 sqrt(1 - |<a,b>|^2), computed through the orthogonal
    # residual so near-identical states do not cancel catastrophically
    c = complex(np.vdot(bvec, a))
    ortho = a - c * bvec
    error = 2.0 * min(1.0, float(np.linalg.norm(ortho)))

    qb = quench_bounds(float(R), float(r0), max(t, 1e-12), consts)
    report = QuenchReport(
        schedule=trace.schedule,
        stationarity_residual=reference.stationarity_residual,
        cost_states=cost,
        bound=qb,
        step_records=trace.step_records,
        params={
            "i0": int(i0), "r0": int(r0), "R": int(R), "t": float(t), "ell0": trace.ell0,
            "q": trace.q, "qprime": trace.q if qprime is None else int(qprime),
        },
    )
    return error, report
