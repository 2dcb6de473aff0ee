"""Time evolution engines.

Sparse states move with an adaptive Lanczos (Krylov) propagator; operators
move densely through eigendecomposition.  The dense path doubles as the
oracle for the Krylov path in the test suite.
"""

from __future__ import annotations

import math
import time
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
    "evolve_state",
    "heisenberg",
    "interaction_picture_unitary",
    "dense_expm",
    "spectral_norm",
]

DENSE_CAP = 2000
_MAX_KRYLOV = 48


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
    steps: int
    est_error: float
    wall_time: float


def _lanczos_step(
    H: sparse.csr_matrix, v: np.ndarray, dt: float, m: int
) -> tuple[np.ndarray, float]:
    """One Krylov step w ~ exp(-i H dt) v with a residual-style error estimate."""
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0:
        return v.copy(), 0.0
    n = v.size
    m = min(m, n)
    V = np.zeros((m, n), dtype=np.complex128)
    alphas = np.zeros(m)
    betas = np.zeros(m)  # betas[k] couples V[k] and V[k+1]
    V[0] = v / beta0
    k_used = m
    breakdown = False
    for k in range(m):
        w = H @ V[k]
        a = np.vdot(V[k], w)
        alphas[k] = a.real
        w = w - a * V[k]
        if k > 0:
            w = w - betas[k - 1] * V[k - 1]
        # full reorthogonalization: cheap at these subspace sizes
        w = w - V[: k + 1].T @ (V[: k + 1].conj() @ w)
        b = np.linalg.norm(w)
        if k + 1 < m:
            betas[k] = b
            if b < 1e-14 * beta0:
                k_used = k + 1
                breakdown = True
                break
            V[k + 1] = w / b
        else:
            betas[k] = b
    k = k_used
    lam, S = eigh_tridiagonal(alphas[:k], betas[: k - 1])
    phase = np.exp(-1j * dt * lam)
    e1 = S[0, :].conj()
    y = S @ (phase * e1)
    out = beta0 * (V[:k].T @ y)
    if breakdown:
        err = 0.0
    else:
        err = float(beta0 * betas[k - 1] * abs(y[-1]) * abs(dt))
    return out, err


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
    steps = 0
    err_acc = 0.0
    min_dt = abs(t) * 1e-13
    while abs(remaining) > abs(t) * 1e-15:
        if abs(dt) > abs(remaining):
            dt = remaining
        w, err = _lanczos_step(H.matrix, v, dt, max_krylov)
        budget = tol * abs(dt) / abs(t)
        if err <= budget:
            v = w
            remaining -= dt
            steps += 1
            err_acc += err
            if err <= 0.1 * budget:
                dt *= 2.0
        else:
            dt /= 2.0
            if abs(dt) < min_dt:
                raise PropagationError(
                    f"Krylov step at dt={dt:.3e} still exceeds tolerance "
                    f"(estimate {err:.3e} > {budget:.3e}); refusing to continue"
                )
    rep = PropagatorReport("krylov", steps, err_acc, time.perf_counter() - t_start)
    out = StateVector(psi.basis, v)
    return (out, rep) if return_report else out


def _dense_unitary(H: OperatorMatrix, t: float) -> np.ndarray:
    if H.dim > DENSE_CAP:
        raise ResourceLimitError(f"dimension {H.dim} exceeds dense cap {DENSE_CAP}")
    if not H.hermitian:
        raise ValueError("generator must be Hermitian")
    lam, Q = eigh(H.dense())
    return (Q * np.exp(-1j * t * lam)) @ Q.conj().T


def dense_expm(H: OperatorMatrix, t: float) -> OperatorMatrix:
    """e^{-iHt} by Hermitian eigendecomposition (oracle path)."""
    U = _dense_unitary(H, float(t))
    return _wrap(
        H.basis,
        sparse.csr_matrix(U),
        declared_support=sorted(H.support),
        verify_support=False,
    )


def heisenberg(H: OperatorMatrix, O: OperatorMatrix, t: float) -> OperatorMatrix:
    """O(H,t) = e^{iHt} O e^{-iHt} (dense)."""
    if H.basis is not O.basis:
        raise ValueError("H and O live on different bases")
    U = _dense_unitary(H, float(t))
    out = U.conj().T @ O.dense() @ U
    return _wrap(
        H.basis,
        sparse.csr_matrix(out),
        declared_support=sorted(O.support | H.support),
        verify_support=False,
    )


def interaction_picture_unitary(
    A: OperatorMatrix, h: OperatorMatrix, t: float
) -> OperatorMatrix:
    """Closed form of T exp(-i Int_0^t e^{-iA tau} h e^{iA tau} d tau).

    Equals e^{-iAt} e^{i(A-h)t}; the equivalence with direct integration of
    the time-ordered product is exercised in the test suite.
    """
    if A.basis is not h.basis:
        raise ValueError("A and h live on different bases")
    if A.dim > DENSE_CAP:
        raise ResourceLimitError(f"dimension {A.dim} exceeds dense cap {DENSE_CAP}")
    if not (A.hermitian and h.hermitian):
        raise ValueError("A and h must be Hermitian")
    Ua = _dense_unitary(A, float(t))
    lam, Q = eigh(A.dense() - h.dense())
    Ub = (Q * np.exp(1j * float(t) * lam)) @ Q.conj().T
    return _wrap(
        A.basis,
        sparse.csr_matrix(Ua @ Ub),
        declared_support=sorted(A.support | h.support),
        verify_support=False,
    )


def spectral_norm(O: OperatorMatrix, *, cap: int | None = None) -> float:
    """Operator 2-norm; dense and exact below the cap, Lanczos SVD above."""
    if cap is None:
        cap = DENSE_CAP  # looked up at call time so runtime overrides apply
    if O.matrix.nnz == 0:
        return 0.0
    if O.dim <= cap:
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
