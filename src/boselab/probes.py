"""Exact numerical probes for the quantities the analytic bounds control.

Every function here measures, on an exactly representable basis, one of the
objects that :mod:`boselab.bounds` upper-bounds analytically: boson-number
moments of the sandwiched state, site tail probabilities, the
moment-generating-function condition on the initial state, commutator norms,
and the state O(t) psi0 that state-restricted approximation errors are
measured against (``heisenberg_apply``).  The first three are |amplitude|^2
summed against a function of one site's occupation, so all three read one
per-site occupation histogram (``_occupation_weights``) and differ only in
that function.  Keeping the measurement code independent of the bound
evaluators is what makes the inequality tests meaningful.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .evolve import (
    StateVector,
    _Blocks,
    _diagonal_commutator_norm,
    _heisenberg_stack,
    _norm2,
    _times,
    dense_cap,
    evolve_state,
)
from .model import OperatorMatrix

GROUND_RESIDUAL_TOL = 1e-8
# ARPACK accepts a Ritz pair once its residual is at most tol times the Ritz
# value's magnitude (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998).
# On the Gershgorin-shifted H that magnitude is |E0 - sigma|, so 1e-12 caps
# the residual near 5e-11 on a 9-site, U = 4 chain, over 1000x inside
# GROUND_RESIDUAL_TOL; eigsh's default, machine precision, takes about a
# quarter more iterations for digits no caller reads.
_ARPACK_TOL = 1e-12
_DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class GroundStateResult:
    E0: float
    gap_DeltaE: float
    ground: StateVector
    degenerate: bool


def _occupation_weights(rho_tilde_t: StateVector, sites: Sequence[int]) -> np.ndarray:
    """W[a, k]: the summed |amplitude|^2 of the basis states with k bosons on ``sites[a]``.

    Every probe of a state at a site is a sum over k of W[a, k] times a
    function of k alone, and this is the one place a probe reads the basis
    states.
    """
    amp = rho_tilde_t.amplitudes
    weights = amp.real**2 + amp.imag**2
    states = rho_tilde_t.basis.states
    W = np.empty((len(sites), max(rho_tilde_t.basis.site_cutoffs) + 1))
    for a, i in enumerate(sites):
        W[a] = np.bincount(states[:, i], weights, W.shape[1])
    return W


def moments(rho_tilde_t: StateVector, sites: Sequence[int], orders: Sequence[int]) -> np.ndarray:
    """Boson-number moments of the (generally unnormalized) sandwiched state.

    ``rho_tilde_t`` holds the vector ``O_X(t) |psi0>``, as
    :func:`heisenberg_apply` returns it.  Entry (a, b) is the unnormalized
    trace sum_states n_i^s |amplitude|^2 at site i = ``sites[a]`` and order
    s = ``orders[b]``; callers comparing against norm-scaled bounds divide
    by ``zeta0**2`` themselves.  One product of the occupation histogram
    (``_occupation_weights``) with the table k^s gives every value.
    """
    s = np.asarray(orders)
    if (s < 1).any():
        raise ValueError("moment order s must be >= 1")
    W = _occupation_weights(rho_tilde_t, sites)
    k = np.arange(W.shape[1], dtype=np.float64)
    return W @ k[:, None] ** s


def tail_probabilities(
    rho_tilde_t: StateVector, sites: Sequence[int], z0s: Sequence[int]
) -> np.ndarray:
    """Unnormalized weights of the basis states with at least z0 bosons on a site.

    ``rho_tilde_t`` holds ``O_X(t) |psi0>``, as :func:`heisenberg_apply`
    returns it.  Entry (a, b) is the weight at site ``sites[a]`` and
    threshold z0 = ``z0s[b]``: one product of the occupation histogram
    (``_occupation_weights``) with the 0/1 table k >= z0.
    """
    W = _occupation_weights(rho_tilde_t, sites)
    k = np.arange(W.shape[1])
    return W @ (k[:, None] >= np.asarray(z0s)).astype(np.float64)


def mgf_condition(rho: StateVector, c0: float, qbar: float) -> float:
    """Worst-site exponential-moment value max_i tr(e^{c0(n_i - qbar)} rho).

    The low-density condition holds iff the returned value is <= 1.  The
    state's occupation histogram meets e^{c0 (k - qbar)} in one product.
    """
    if not 0.0 < c0 <= 1.0:
        raise ValueError("c0 must lie in (0, 1]")
    W = _occupation_weights(rho, range(rho.basis.n_sites))
    k = np.arange(W.shape[1], dtype=np.float64)
    return float((W @ np.exp(c0 * (k - qbar))).max())


def heisenberg_apply(
    H: OperatorMatrix,
    O: OperatorMatrix,
    psi: StateVector,
    t,
    *,
    tol: float = 1e-10,
    map_legs: Callable = map,
):
    """Apply the Heisenberg-evolved operator to a state without forming it.

    Computes ``e^{iHt} O e^{-iHt} |psi>`` by two sparse propagations and one
    matvec, so it works far beyond the dense cap.  ``t`` is a time or a grid
    of times (see ``evolve_state``); a grid returns a list of states in its
    order.  The forward legs e^{-iHt} psi of a grid come from one
    ``evolve_state`` call.  Each backward leg starts from its own vector, so
    they run one per time, through ``map_legs``: the builtin ``map``, or any
    callable like it that keeps the order, such as a pooled one.  O must
    live on psi's basis, as H must (``evolve_state``); ValueError otherwise.
    """
    if O.basis is not psi.basis:
        raise ValueError("O and psi live on different bases")
    times, scalar = _times(t)
    forward = evolve_state(H, psi, times, tol=tol)

    def backward(j: int) -> StateVector:
        # each forward vector is let go once its leg has taken it
        phi, forward[j] = forward[j], None
        hit = StateVector(psi.basis, O.matrix @ phi.amplitudes)
        return evolve_state(H, hit, -times[j], tol=tol)

    out = list(map_legs(backward, range(times.size)))
    return out[0] if scalar else out


def commutator_norms(
    H: OperatorMatrix, O_A: OperatorMatrix, O_Bs: Sequence[OperatorMatrix], t
) -> list:
    """Spectral norms of [O_A(t), O_B] for each O_B, with O_A evolved by ``H``.

    ``t`` is a time, which returns one norm per O_B, or a grid of times,
    which returns that list for each time in grid order.  H is diagonalised
    once per call (one ``eigh`` per N-block) and O_A moved into its
    eigenbasis once; O_A(t) is then held in blocks, each a stack over the
    grid's times (see ``evolve._heisenberg_stack``).  Each O_B is blocked
    once and normed against the whole stack, so one probe's blocks are held
    at a time.  The commutator is formed and normed block by block over
    particle number, each block's norm one call for every time: for
    Hermitian O_A and O_B from the eigenvalues of the Hermitian
    i[O_A(t), O_B], otherwise as the top singular value, from the top
    eigenvalue of the smaller Gram matrix (``evolve._norm2``).  A diagonal
    O_B (number operators, projectors, phases) is never blocked: its
    commutator is taken entrywise from O_A(t)'s blocks, and a 0/1 diagonal
    by the off-diagonal parts alone (see ``evolve._diagonal_commutator_norm``).
    """
    times, scalar = _times(t)
    A = _heisenberg_stack(H, O_A, times)
    out = np.zeros((times.size, len(O_Bs)))
    for k, O_B in enumerate(O_Bs):
        hermitian = O_A.hermitian and O_B.hermitian
        if O_B.is_diagonal:
            out[:, k] = _diagonal_commutator_norm(A, O_B.matrix.diagonal(), hermitian)
            continue
        B = _Blocks.of(O_B)
        C = A @ B - B @ A
        hermitian = hermitian and A.shift == B.shift == 0
        out[:, k] = _norm2((1j * C if hermitian else C).mats.values(), hermitian)
    rows = out.tolist()
    return rows[0] if scalar else rows


def ground_state(H: OperatorMatrix) -> GroundStateResult:
    """Lowest two eigenpairs of a Hermitian operator, with gap and residual check."""
    if not H.hermitian:
        raise ValueError("ground_state requires a Hermitian operator")
    dim = H.dim
    if dim < 2:
        raise ValueError("need dimension >= 2 to report a gap")

    evals: np.ndarray
    evecs: np.ndarray
    mat = H.matrix
    if not mat.data.imag.any():
        # a real symmetric H is solved in real arithmetic (LAPACK dsyevr
        # below the cap, ARPACK dsaupd above it)
        mat = mat.real
    if dim <= dense_cap():
        evals, evecs = eigh(mat.toarray(), subset_by_index=[0, 1])
    else:
        # fixed start vector keeps repeated runs bit-identical
        v0 = np.random.default_rng(7).standard_normal(dim)
        # Gershgorin shift pushes the whole spectrum below zero, so the
        # ground pair is the dominant-magnitude end; an unshifted solve can
        # miss an exactly-zero ground energy (the Krylov space loses any
        # null-space component after one matvec)
        diag = mat.diagonal().real
        radius = np.asarray(np.abs(mat).sum(axis=1)).ravel() - np.abs(diag)
        sigma = float((diag + radius).max()) + 1.0
        shifted = mat - sigma * sparse.identity(dim, format="csr", dtype=mat.dtype)
        try:
            evals, evecs = eigsh(shifted, k=2, which="SA", v0=v0, tol=_ARPACK_TOL)
        except ArpackNoConvergence as exc:
            raise RuntimeError(
                f"iterative ground-state solve did not converge: {exc}"
            ) from exc
        evals = evals + sigma
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]

    e0, e1 = float(evals[0]), float(evals[1])
    vec = evecs[:, 0].astype(np.complex128)
    vec /= np.linalg.norm(vec)
    pivot = int(np.argmax(np.abs(vec)))
    if abs(vec[pivot]) > 0:
        vec = vec * (np.conj(vec[pivot]) / abs(vec[pivot]))
    residual = float(np.linalg.norm(H.matrix @ vec - e0 * vec))
    scale = max(1.0, abs(e0))
    if residual > GROUND_RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"ground-state residual {residual:.3e} exceeds tolerance "
            f"{GROUND_RESIDUAL_TOL * scale:.3e}"
        )
    gap = max(0.0, e1 - e0)
    degenerate = gap <= _DEGENERACY_RTOL * scale
    return GroundStateResult(
        E0=e0,
        gap_DeltaE=gap,
        ground=StateVector(H.basis, vec),
        degenerate=degenerate,
    )


def connected_correlation(
    psi: StateVector, O_X: OperatorMatrix, O_Y: OperatorMatrix
) -> float:
    """Connected correlation <O_X O_Y> - <O_X><O_Y> in the state ``psi``."""
    amp = psi.amplitudes
    nrm = psi.norm()
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized (norm {nrm:.3e})")
    y = O_Y.matrix @ amp
    joint = complex(np.vdot(amp, O_X.matrix @ y))
    ex = complex(np.vdot(amp, O_X.matrix @ amp))
    ey = complex(np.vdot(amp, y))
    value = joint - ex * ey
    if abs(value.imag) > 1e-10:
        warnings.warn(
            f"connected correlation has imaginary part {value.imag:.3e}",
            stacklevel=2,
        )
    return float(value.real)

