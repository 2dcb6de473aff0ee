"""Time evolution engines.

Sparse states move with an adaptive Lanczos (Krylov) propagator at every
dimension.  Each step's subspace grows until the a-posteriori error
estimate meets the step's share of the tolerance, so short steps build a
few vectors and only long ones reach the size cap.  Operators move densely
below the dense cap that ``dense_cap()`` reads: ``DENSE_CAP`` unless a
caller has set ``RUN_DENSE_CAP`` in its context, as ``cli.run_scenario``
does for one run.  The package's dense work all comes here: one refusal of
the cap (``_require_dense``), one dense e^{-iHt} by eigendecomposition
(``_dense_unitary``) and one conjugation (``_conjugate``).  The dense path
doubles as the oracle for the Krylov path in the test suite.
"""

from __future__ import annotations

import math
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, eigh_tridiagonal

from .fock import FockBasis, ResourceLimitError
from .model import OperatorMatrix, _wrap

__all__ = [
    "StateVector",
    "PropagatorReport",
    "PropagationError",
    "DENSE_CAP",
    "RUN_DENSE_CAP",
    "dense_cap",
    "evolve_state",
    "heisenberg",
    "interaction_picture_unitary",
    "dense_expm",
    "spectral_norm",
]

DENSE_CAP = 2000
# a context's own cap; where it is unset, DENSE_CAP applies
RUN_DENSE_CAP: ContextVar[int] = ContextVar("RUN_DENSE_CAP")
_MAX_KRYLOV = 48


def dense_cap() -> int:
    """Largest dimension the dense paths accept in the current context."""
    return RUN_DENSE_CAP.get(DENSE_CAP)


class PropagationError(RuntimeError):
    """Requested tolerance not reachable with the configured resources."""


@dataclass(frozen=True)
class StateVector:
    basis: FockBasis
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (self.basis.dim,):
            raise ValueError("amplitude count must equal basis dimension")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class PropagatorReport:
    method: str  # krylov | dense | diagonal
    steps: int  # accepted steps
    est_error: float
    wall_time: float
    matvecs: int = 0  # Krylov vectors built, rejected attempts included
    rejected: int = 0  # rejected steps


def _defect_peak(lam: np.ndarray, S: np.ndarray, dt: float, end: float) -> float:
    """Peak of |e_k^T exp(-i T_k s) e_1| over s in (0, dt]; ``end`` is its value at dt.

    The step's error is at most beta_k times the integral of this defect
    over the step, so its peak times |dt| bounds the error.  The value at dt
    alone does not: early in the subspace it can pass through zero (a Fock
    state on a symmetric chain at a resonant time), which would stop the
    subspace with a wrong vector.  The defect is sampled at a spacing of
    1/spread(T_k), finer than its fastest beat, a block of nodes at a time
    to keep the memory small; short steps, whose spread times |dt| is below
    1, use the value at dt alone.
    """
    n = int(np.ptp(lam) * abs(dt)) + 1
    coef = S[-1, :] * S[0, :].conj()
    peak = end
    for lo in range(1, n, 4096):
        s = dt * np.arange(lo, min(lo + 4096, n)) / n
        peak = max(peak, float(np.abs(np.exp(-1j * np.outer(s, lam)) @ coef).max()))
    return peak


def _lanczos_step(
    H: sparse.csr_matrix,
    v: np.ndarray,
    dt: float,
    m: int,
    budget: float,
    first_check: int,
) -> tuple[np.ndarray, float, int]:
    """One Krylov step w ~ exp(-i H dt) v with a residual-style error estimate.

    The subspace grows one vector at a time until the estimate
    beta_k |e_k^T exp(-i T_k dt) e_1| |dt| (Saad 1992) is at most
    ``budget / 10``, where ``evolve_state`` accepts the step and doubles dt,
    the recurrence breaks down, or it holds ``m`` vectors.  Where the value
    at dt would stop the subspace early or pass the step at the cap, the
    estimate takes the defect's peak over the whole step instead (see
    ``_defect_peak``).  Each check costs an eigendecomposition of T_k, so
    checks start at ``first_check`` vectors and, once the estimate falls,
    skip ahead along its trend; a skipped check costs vectors, never
    accuracy.  Returns the vector, the estimate and the number of Krylov
    vectors built.
    """
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0:
        return v.copy(), 0.0, 0
    n = v.size
    m = min(m, n)
    V = np.zeros((m, n), dtype=np.complex128)
    alphas = np.zeros(m)
    betas = np.zeros(m)  # betas[k] couples V[k] and V[k+1]
    V[0] = v / beta0
    goal = 0.1 * budget
    last_check = trend = None
    for k in range(m):
        w = H @ V[k]
        a = np.vdot(V[k], w)
        alphas[k] = a.real
        w -= a * V[k]
        if k > 0:
            w -= betas[k - 1] * V[k - 1]
        # full reorthogonalization; conjugating w instead of the block
        # projects without copying V
        w -= V[: k + 1].T @ (V[: k + 1] @ w.conj()).conj()
        b = np.linalg.norm(w)
        betas[k] = b
        breakdown = k + 1 < m and b < 1e-14 * beta0
        last = breakdown or k + 1 == m
        skip = k + 1 < first_check
        if trend is not None:
            # the estimate is b times a part that the last two estimates fit
            # as geometric; wait until the fit has it halfway (in log) to goal
            k_fit, err_fit, b_fit, rate = trend
            predicted = err_fit * (b / b_fit) * math.exp(rate * (k - k_fit))
            skip = skip or predicted > math.sqrt(goal * err_fit)
        if skip and not last:
            V[k + 1] = w / b
            continue
        lam, S = eigh_tridiagonal(alphas[: k + 1], betas[:k])
        y = S @ (np.exp(-1j * dt * lam) * S[0, :].conj())
        if breakdown:  # the subspace is invariant: the step is exact
            err = 0.0
            break
        err = float(beta0 * b * abs(y[-1]) * abs(dt))
        if err <= goal or (last and err <= budget):
            err = float(beta0 * b * _defect_peak(lam, S, dt, abs(y[-1])) * abs(dt))
        if err <= goal or last:
            break
        trend = None  # fitted only once the estimate falls below 1% of |v|
        if last_check is not None and err < last_check[1] < 1e-2 * beta0:
            rate = math.log(err / last_check[1]) / (k - last_check[0])
            trend = (k, err, b, rate)
        last_check = (k, err)
        V[k + 1] = w / b
    return beta0 * (V[: k + 1].T @ y), err, k + 1


def evolve_state(
    H: OperatorMatrix,
    psi: StateVector,
    t: float,
    tol: float = 1e-10,
    *,
    return_report: bool = False,
    max_krylov: int = _MAX_KRYLOV,
):
    """psi(t) = e^{-iHt} psi, accurate to tol in 2-norm.

    Diagonal H takes the exact phase path; otherwise adaptive Lanczos.
    Raises PropagationError instead of silently returning a bad vector.
    """
    if H.basis is not psi.basis:
        raise ValueError("H and psi live on different bases")
    if not H.hermitian:
        raise ValueError("evolve_state requires a Hermitian generator")
    t = float(t)
    t_start = time.perf_counter()
    if t == 0.0:
        rep = PropagatorReport("diagonal", 0, 0.0, 0.0)
        out = StateVector(psi.basis, psi.amplitudes.copy())
        return (out, rep) if return_report else out

    if H.is_diagonal:
        d = H.matrix.diagonal()
        amps = psi.amplitudes * np.exp(-1j * t * d.real)
        rep = PropagatorReport("diagonal", 1, 0.0, time.perf_counter() - t_start)
        out = StateVector(psi.basis, amps)
        return (out, rep) if return_report else out

    v = psi.amplitudes.astype(np.complex128).copy()
    remaining = t
    dt = t
    steps = rejected = matvecs = first_check = 0
    err_acc = 0.0
    min_dt = abs(t) * 1e-13
    while abs(remaining) > abs(t) * 1e-15:
        if abs(dt) > abs(remaining):
            dt = remaining
        budget = tol * abs(dt) / abs(t)
        w, err, built = _lanczos_step(
            H.matrix, v, dt, max_krylov, budget, first_check
        )
        matvecs += built
        if err <= budget:
            v = w
            remaining -= dt
            steps += 1
            err_acc += err
            # the next step is as long or twice as long: as many vectors or more
            first_check = built - 1
            if err <= 0.1 * budget:
                dt *= 2.0
        else:
            rejected += 1
            # a rejected step built all its vectors; half the step needs fewer
            first_check = built // 2
            dt /= 2.0
            if abs(dt) < min_dt:
                raise PropagationError(
                    f"Krylov step at dt={dt:.3e} still exceeds tolerance "
                    f"(estimate {err:.3e} > {budget:.3e}); refusing to continue"
                )
    rep = PropagatorReport(
        "krylov", steps, err_acc, time.perf_counter() - t_start, matvecs, rejected
    )
    out = StateVector(psi.basis, v)
    return (out, rep) if return_report else out


def _require_dense(dim: int) -> None:
    """Refuse a dense matrix of dimension ``dim`` above the current dense cap."""
    cap = dense_cap()
    if dim > cap:
        raise ResourceLimitError(f"dimension {dim} exceeds dense cap {cap}")


def _dense_unitary(H: OperatorMatrix, t: float) -> np.ndarray:
    """Dense e^{-iHt} from the eigendecomposition of the Hermitian H."""
    _require_dense(H.dim)
    if not H.hermitian:
        raise ValueError("generator must be Hermitian")
    lam, Q = eigh(H.dense())
    return (Q * np.exp(-1j * t * lam)) @ Q.conj().T


def _conjugate(U: np.ndarray, A: np.ndarray) -> np.ndarray:
    """U^dagger A U for dense U and A."""
    return U.conj().T @ A @ U


def _from_dense(basis: FockBasis, M: np.ndarray, support) -> OperatorMatrix:
    """A dense matrix on ``basis`` as an operator on the sites ``support``, unverified."""
    return _wrap(
        basis, sparse.csr_matrix(M), declared_support=sorted(support), verify_support=False
    )


def dense_expm(H: OperatorMatrix, t: float) -> OperatorMatrix:
    """e^{-iHt} by Hermitian eigendecomposition (oracle path)."""
    return _from_dense(H.basis, _dense_unitary(H, float(t)), H.support)


def heisenberg(H: OperatorMatrix, O: OperatorMatrix, t: float) -> OperatorMatrix:
    """O(H,t) = e^{iHt} O e^{-iHt} (dense)."""
    if H.basis is not O.basis:
        raise ValueError("H and O live on different bases")
    U = _dense_unitary(H, float(t))
    return _from_dense(H.basis, _conjugate(U, O.dense()), O.support | H.support)


def interaction_picture_unitary(
    A: OperatorMatrix, h: OperatorMatrix, t: float
) -> OperatorMatrix:
    """Closed form of T exp(-i Int_0^t e^{-iA tau} h e^{iA tau} d tau).

    Equals e^{-iAt} e^{i(A-h)t}; the equivalence with direct integration of
    the time-ordered product is exercised in the test suite.
    """
    if A.basis is not h.basis:
        raise ValueError("A and h live on different bases")
    if not (A.hermitian and h.hermitian):
        raise ValueError("A and h must be Hermitian")
    support = A.support | h.support
    Ua = _dense_unitary(A, float(t))
    A_minus_h = _wrap(
        A.basis, A.matrix - h.matrix, declared_support=sorted(support), verify_support=False
    )
    Ub = _dense_unitary(A_minus_h, -float(t))
    return _from_dense(A.basis, Ua @ Ub, support)


def spectral_norm(O: OperatorMatrix) -> float:
    """Operator 2-norm; dense and exact below the dense cap, Lanczos SVD above."""
    if O.matrix.nnz == 0:
        return 0.0
    if O.dim <= dense_cap():
        return float(np.linalg.norm(O.dense(), 2))
    if O.is_diagonal:
        # diagonal operators (number polynomials, projectors, phase unitaries)
        # have an exact norm; ARPACK also cannot handle their fully
        # degenerate singular spectra, so never send them there
        return float(np.abs(O.matrix.data).max())
    from scipy.sparse.linalg import ArpackError, svds

    # a fixed start vector makes the result the same on every call
    v0 = np.random.default_rng(11).standard_normal(O.dim)
    try:
        s = svds(O.matrix, k=1, v0=v0, return_singular_vectors=False)
        return float(s[0])
    except ArpackError:
        # degenerate top singular value; power iteration on A^dag A still
        # converges there (a repeated dominant eigenvalue has no gap to fight)
        mat = O.matrix.tocsr()
        v = v0.astype(np.complex128) / np.linalg.norm(v0)
        est = 0.0
        for _ in range(200):
            w = mat.conj().T @ (mat @ v)
            nw = float(np.linalg.norm(w))
            if nw == 0.0:
                return 0.0
            new_est = math.sqrt(nw)
            v = w / nw
            if abs(new_est - est) <= 1e-12 * max(1.0, new_est):
                return new_est
            est = new_est
        return est
