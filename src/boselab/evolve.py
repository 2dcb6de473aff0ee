"""Time evolution engines.

Sparse states move with an adaptive Lanczos (Krylov) propagator at every
dimension.  Each step's subspace grows until the a-posteriori error
estimate meets the step's share of the tolerance, so short steps build a
few vectors and only long ones reach the size cap.  Operators move densely
below the dense cap that ``dense_cap()`` reads: ``DENSE_CAP`` unless a
caller has set ``RUN_DENSE_CAP`` in its context, as ``cli.run_scenario``
does for one run.  The package's dense work all comes here, and only
commutator norms (``probes.commutator_norms``, for ``lightcone-map``) and
``spectral_norm`` use it: one refusal of the cap (``_require_dense``, which
raises ``DenseCapError``), one eigendecomposition of H per block
(``_eigenbasis``, by divide-and-conquer ``eigh``), one Heisenberg-picture
operator from it over a grid of times (``_heisenberg_stack``, conjugated in
H's eigenbasis), one operator 2-norm (``_norm2``: ``eigvalsh`` of a
Hermitian matrix, otherwise the top eigenvalue of the smaller Gram matrix)
and the norm of a commutator with a diagonal operator
(``_diagonal_commutator_norm``).

One factorisation of H serves a whole grid of times, on both paths.  The
dense path diagonalises each block of H once, moves an operator O into the
eigenbasis once, W = Q^dagger O Q, and builds O(t) at every time as
Q (e^{i lambda t} W e^{-i lambda t}) Q^dagger, the phases applied
entrywise; the times of a grid form a stack that products and norms take
whole.  The Krylov loop marches once to the longest time on each side of
zero; its step estimate bounds the defect over the whole step, so every
time inside an accepted step is read from the subspace that step built, at
no extra matvec.  A single time is a grid of one.

The Lanczos recurrence runs without reorthogonalization.  Its vectors drift
from orthogonal once a Ritz value converges, yet the step's error estimate
needs only the three-term relation, which the recurrence keeps to rounding
(see ``_lanczos_step``); Lanczos for matrix functions stays accurate without
reorthogonalization (Druskin, Greenbaum and Knizhnerman, SIAM J. Sci.
Comput. 19, 38 (1998)).  Each vector then costs one matvec and O(n) work,
not a projection against every vector before it.  That work is done in
place on the matvec's result, with no other temporary: BLAS ``zdotc`` and
``zaxpy`` orthogonalize it against the last two vectors, ``zdotc`` gives its
norm, and one multiply by the norm's reciprocal writes the next vector into
the step's Krylov block.  Each check of the step's estimate diagonalises
the tridiagonal with LAPACK ``dstevd`` directly, the routine that
``eigh_tridiagonal`` picks for a full spectrum, so its results are the same.

Dense work runs per particle-number block.  An operator with a fixed
``delta_n`` d maps block N of ``FockBasis.blocks`` into block N + d, so it
is held as those blocks (``_Blocks``): H's eigenbasis takes one ``eigh`` per
block of H, O(t) maps block (N + d, N) as Q_{N+d} (phases of W_{N+d,N})
Q_N^dagger, and a 2-norm is the largest block norm.  An operator whose
``delta_n`` is None is one block spanning the whole basis, and so is any
product involving one.  The cap still bounds the total dimension, not the
block size.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, eigh
from scipy.linalg.blas import zaxpy, zdotc
from scipy.linalg.lapack import dstevd
from scipy.sparse.linalg import ArpackError, svds

from .fock import FockBasis, ResourceLimitError
from .model import OperatorMatrix

__all__ = [
    "StateVector",
    "PropagatorReport",
    "PropagationError",
    "DenseCapError",
    "DENSE_CAP",
    "RUN_DENSE_CAP",
    "dense_cap",
    "evolve_state",
    "spectral_norm",
]

DENSE_CAP = 2000
# a context's own cap; where it is unset, DENSE_CAP applies
RUN_DENSE_CAP: ContextVar[int] = ContextVar("RUN_DENSE_CAP")
_MAX_KRYLOV = 48


def dense_cap() -> int:
    """Largest dimension the dense paths accept in the current context."""
    return RUN_DENSE_CAP.get(DENSE_CAP)


class DenseCapError(ResourceLimitError):
    """A dense matrix exceeds the dense cap, which a run may raise."""


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


def _tridiagonal_eigh(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the real symmetric tridiagonal (d, e), by LAPACK ``dstevd``.

    The routine ``eigh_tridiagonal`` picks for a full spectrum, called without
    its wrapper's checks; for one row LAPACK ignores ``e``, which must still
    hold one entry.
    """
    lam, S, info = dstevd(d, e if e.size else np.zeros(1))
    if info:
        raise LinAlgError(f"dstevd failed with info {info}")
    return lam, S


def _lanczos_step(
    H: sparse.csr_matrix,
    v: np.ndarray,
    dt: float,
    m: int,
    budget: float,
    first_check: int,
) -> tuple[Callable[[float], np.ndarray], float, int]:
    """One Krylov step w ~ exp(-i H dt) v with a residual-style error estimate.

    The subspace grows one vector at a time until the estimate
    beta_k |e_k^T exp(-i T_k dt) e_1| |dt| (Saad 1992) is at most
    ``budget / 10``, where ``_march`` accepts the step and doubles dt,
    the recurrence breaks down, or it holds ``m`` vectors.  Where the value
    at dt would stop the subspace early or pass the step at the cap, the
    estimate takes the defect's peak over the whole step instead (see
    ``_defect_peak``).  Each check costs an eigendecomposition of T_k, so
    checks start at ``first_check`` vectors and, once the estimate falls,
    skip ahead along its trend; a skipped check costs vectors, never
    accuracy.  Returns the step's propagator, tau -> exp(-i H tau) v read
    from the subspace, the estimate and the number of Krylov vectors built.
    The estimate bounds the defect over all of (0, dt], so it holds for the
    propagator at every tau in there.

    The vectors are not reorthogonalized, and the estimate does not need
    them orthogonal.  Let V_k hold the k vectors as columns and T_k the
    tridiagonal of the alphas and betas.  The recurrence gives
    H V_k = V_k T_k + beta_k v_{k+1} e_k^T, with ||v_{k+1}|| = 1 and
    V_k e_1 = v / beta0, each to rounding however far V_k drifts from
    orthogonal.  So u(s) = beta0 V_k exp(-i T_k s) e_1 starts at v and obeys
    u' = -i H u + r(s), r(s) = i beta0 beta_k (e_k^T exp(-i T_k s) e_1) v_{k+1}.
    Against the exact exp(-i H s) v the difference at tau is the integral
    of exp(-i H (tau - s)) r(s) over (0, tau), and exp(-i H t) is unitary,
    so its norm is at most beta0 beta_k times the integral of
    |e_k^T exp(-i T_k s) e_1|, which the estimate bounds.  The block V is
    left uninitialised: row k is written before it is read.

    Each vector allocates only its matvec result w = H v_k: ``zaxpy``
    subtracts alpha_k v_k and beta_{k-1} v_{k-1} from w in place, the norm is
    sqrt(``zdotc``(w, w)), and v_{k+1} = w * (1 / beta_k) is written straight
    into row k + 1 of V (a real reciprocal: a complex division costs about
    nine times as much).  T_k's eigenproblem goes to ``dstevd``
    (``_tridiagonal_eigh``).
    """
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0:
        return lambda tau: v.copy(), 0.0, 0
    n = v.size
    m = min(m, n)
    V = np.empty((m, n), dtype=np.complex128)
    alphas = np.zeros(m)
    betas = np.zeros(m)  # betas[k] couples V[k] and V[k+1]
    np.multiply(v, 1.0 / beta0, out=V[0])
    goal = 0.1 * budget
    last_check = trend = None
    for k in range(m):
        w = H @ V[k]
        a = zdotc(V[k], w)
        alphas[k] = a.real
        w = zaxpy(V[k], w, a=-a)
        if k > 0:
            w = zaxpy(V[k - 1], w, a=-betas[k - 1])
        b = math.sqrt(zdotc(w, w).real)
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
            np.multiply(w, 1.0 / b, out=V[k + 1])
            continue
        lam, S = _tridiagonal_eigh(alphas[: k + 1], betas[:k])
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
        np.multiply(w, 1.0 / b, out=V[k + 1])

    def at(tau: float) -> np.ndarray:
        y = S @ (np.exp(-1j * tau * lam) * S[0, :].conj())
        return beta0 * (V[: k + 1].T @ y)

    return at, err, k + 1


def _times(t) -> tuple[np.ndarray, bool]:
    """``t`` as a 1-D array of finite times, and whether it was a single time."""
    times = np.asarray(t, dtype=float)
    scalar = times.ndim == 0
    times = np.atleast_1d(times)
    if times.ndim != 1:
        raise ValueError("times must be a number or a 1-D grid")
    if not np.isfinite(times).all():
        raise ValueError(f"times must be finite, got {t!r}")
    return times, scalar


def evolve_state(
    H: OperatorMatrix,
    psi: StateVector,
    t,
    tol: float = 1e-10,
    *,
    return_report: bool = False,
):
    """psi(t) = e^{-iHt} psi, accurate to tol in 2-norm, at a time or a grid of times.

    ``t`` is a finite time or a 1-D grid of them, in any order, with
    repeats, zeros and negative times allowed.  A time returns a state, a
    grid a list of states in grid order.  Diagonal H takes the exact phase
    path; otherwise adaptive Lanczos marches once to the longest time on
    each side of zero, and reads every time of the grid from the subspace
    of the accepted step that covers it.  The report sums steps, estimates,
    matvecs and rejected steps over the two sides.
    Raises PropagationError instead of silently returning a bad vector.
    """
    if H.basis is not psi.basis:
        raise ValueError("H and psi live on different bases")
    if not H.hermitian:
        raise ValueError("evolve_state requires a Hermitian generator")
    times, scalar = _times(t)
    out: list = [None] * times.size
    for j in np.flatnonzero(times == 0.0):
        out[j] = psi.amplitudes.copy()
    method, counts = "diagonal", (0, 0.0, 0, 0)  # steps, estimate, matvecs, rejected
    if H.is_diagonal:
        d = H.matrix.diagonal()
        for j in np.flatnonzero(times):
            out[j] = psi.amplitudes * np.exp(-1j * times[j] * d.real)
        counts = (int(times.any()), 0.0, 0, 0)
    else:
        for side in (times > 0.0, times < 0.0):
            idx = np.flatnonzero(side)
            if idx.size:
                vecs, more = _march(H.matrix, psi.amplitudes, times[idx], tol)
                for j, w in zip(idx, vecs):
                    out[j] = w
                method = "krylov"
                counts = tuple(a + b for a, b in zip(counts, more))
    steps, err, matvecs, rejected = counts
    rep = PropagatorReport(method, steps, err, matvecs, rejected)
    states = [StateVector(psi.basis, w) for w in out]
    result = states[0] if scalar else states
    return (result, rep) if return_report else result


def _march(
    H: sparse.csr_matrix, psi: np.ndarray, ts: np.ndarray, tol: float
) -> tuple[list[np.ndarray], tuple[int, float, int, int]]:
    """e^{-iHt} psi at every t of ``ts`` (nonzero, all of one sign), by one march.

    The march steps to the longest time t as if it were the only one: its
    step control and matvecs do not depend on the other times.  A time t_j
    lies in the accepted step that covers it, at offset tau in (0, dt], and
    is read from that step's propagator; the estimate bounds every tau of
    the step, so each vector is good to the tolerance too.  Returns the
    vectors in the order of ``ts`` and (steps, summed estimate, matvecs,
    rejected steps).
    """
    order = np.argsort(np.abs(ts), kind="stable")
    t = float(ts[order[-1]])
    # each time's distance back from t, nearest time first; order[nxt:] are ahead
    back = [t - float(ts[j]) for j in order]
    nxt = 0
    out: list = [None] * ts.size
    # read, never written: each accepted step makes a new vector
    v = np.asarray(psi, dtype=np.complex128)
    remaining = t
    dt = t
    steps = rejected = matvecs = first_check = 0
    err_acc = 0.0
    min_dt = abs(t) * 1e-13
    while abs(remaining) > abs(t) * 1e-15:
        if abs(dt) > abs(remaining):
            dt = remaining
        budget = tol * abs(dt) / abs(t)
        at, err, built = _lanczos_step(H, v, dt, _MAX_KRYLOV, budget, first_check)
        matvecs += built
        if err <= budget:
            w = at(dt)
            while nxt < ts.size and abs(remaining - back[nxt]) <= abs(dt):
                tau = remaining - back[nxt]
                out[order[nxt]] = w.copy() if tau == dt else at(tau)
                nxt += 1
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
        # free this step's subspace before the next step builds its own
        del at
    # the march can stop a rounding error short of a time it reaches
    for j in order[nxt:]:
        out[j] = v.copy()
    return out, (steps, err_acc, matvecs, rejected)


def _require_dense(dim: int) -> None:
    """Refuse a dense matrix of dimension ``dim`` above the current dense cap."""
    cap = dense_cap()
    if dim > cap:
        raise DenseCapError(f"dimension {dim} exceeds dense cap {cap}")


@dataclass(frozen=True)
class _Blocks:
    """A dense operator on ``basis``, held as its particle-number blocks.

    ``mats[N]`` maps the states of block N to those of block N + ``shift``;
    every other entry is zero.  With ``whole`` set the whole basis is one
    block, keyed 0 with shift 0.  Operands of a product or difference must
    share the basis, and a difference's operands their shift; if only one
    of them is whole, the other is merged.  A block may be a stack
    (times, rows, cols) of one operator at several times; products,
    differences and adjoints then act on every time of the stack.
    """

    basis: FockBasis
    whole: bool
    shift: int
    mats: dict[int, np.ndarray]

    @classmethod
    def of(cls, O: OperatorMatrix) -> "_Blocks":
        """The blocks of O; whole if O mixes particle numbers.

        The blocks are real when O has no imaginary entry, complex otherwise.
        A Hermitian O that shifts N is Hermitian only within tolerance, its
        entries all near zero; it is whole too, so that its blocks are square.
        """
        whole = O.delta_n != 0 if O.hermitian else O.delta_n is None
        shift = 0 if whole else O.delta_n
        parts = cls.partition(O.basis, whole)
        keys = [N for N in parts if N + shift in parts]
        shapes = [(parts[N + shift].size, parts[N].size) for N in keys]
        offsets = np.cumsum([0] + [r * c for r, c in shapes])
        # one buffer holds every block row-major: entry (row, col) lands in
        # the block of col's N at the places of row and col in their blocks
        slot = np.zeros(O.dim, dtype=np.intp)
        place = np.zeros(O.dim, dtype=np.intp)
        for k, N in enumerate(keys):
            slot[parts[N]] = k
        for idx in parts.values():
            place[idx] = np.arange(idx.size)
        csr = O.matrix
        rows = np.repeat(np.arange(O.dim), np.diff(csr.indptr))
        k = slot[csr.indices]
        width = np.array([c for _, c in shapes], dtype=np.intp)
        flat = offsets[k] + place[rows] * width[k] + place[csr.indices]
        total = int(offsets[-1])
        # a real operator keeps real blocks, whose products stay real; the
        # cast covers an operator with no entries, whose bincount is integer
        buf = np.bincount(flat, csr.data.real, total).astype(np.float64, copy=False)
        if csr.data.imag.any():
            buf = buf + 1j * np.bincount(flat, csr.data.imag, total)
        mats = {
            N: buf[a : a + r * c].reshape(r, c) for N, a, (r, c) in zip(keys, offsets, shapes)
        }
        return cls(O.basis, whole, shift, mats)

    @staticmethod
    def partition(basis: FockBasis, whole: bool) -> dict[int, np.ndarray]:
        return {0: np.arange(basis.dim)} if whole else basis.blocks

    def merged(self) -> "_Blocks":
        """The same operator as one block spanning the whole basis."""
        if self.whole:
            return self
        return _Blocks(self.basis, True, 0, {0: self.dense()})

    def dense(self) -> np.ndarray:
        """The whole matrix; a stack of blocks gives a stack of whole matrices."""
        parts = self.partition(self.basis, self.whole)
        lead = next((M.shape[:-2] for M in self.mats.values()), ())
        out = np.zeros((*lead, self.basis.dim, self.basis.dim), dtype=np.complex128)
        for N, M in self.mats.items():
            out[(..., *np.ix_(parts[N + self.shift], parts[N]))] = M
        return out

    def adjoint(self) -> "_Blocks":
        mats = {N + self.shift: M.conj().swapaxes(-1, -2) for N, M in self.mats.items()}
        return _Blocks(self.basis, self.whole, -self.shift, mats)

    def __matmul__(self, other: "_Blocks") -> "_Blocks":
        if self.whole != other.whole:
            return self.merged() @ other.merged()
        mats = {
            N: self.mats[N + other.shift] @ M
            for N, M in other.mats.items()
            if N + other.shift in self.mats
        }
        return _Blocks(self.basis, self.whole, self.shift + other.shift, mats)

    def __sub__(self, other: "_Blocks") -> "_Blocks":
        if self.whole != other.whole:
            return self.merged() - other.merged()
        mats = dict(self.mats)
        for N, M in other.mats.items():
            mats[N] = mats[N] - M if N in mats else -M
        return _Blocks(self.basis, self.whole, self.shift, mats)

    def __rmul__(self, c: complex) -> "_Blocks":
        mats = {N: c * M for N, M in self.mats.items()}
        return _Blocks(self.basis, self.whole, self.shift, mats)


def _eigenbasis(H: OperatorMatrix) -> tuple[_Blocks, dict[int, np.ndarray]]:
    """H = Q diag(lambda) Q^dagger per block: Q as blocks and lambda per block key.

    H must be Hermitian.  Each block takes one divide-and-conquer ``eigh``
    ("evd"), several times faster than the default MRRR ("evr") on the
    degenerate spectra of hard-core chains.
    A block with no imaginary part is diagonalised in real arithmetic, so
    its Q is real.
    """
    _require_dense(H.dim)
    if not H.hermitian:
        raise ValueError("generator must be Hermitian")
    blocks = _Blocks.of(H)
    eig = {
        N: eigh(M if M.imag.any() else M.real, driver="evd") for N, M in blocks.mats.items()
    }
    Q = _Blocks(H.basis, blocks.whole, 0, {N: Q for N, (_, Q) in eig.items()})
    return Q, {N: lam for N, (lam, _) in eig.items()}


def _heisenberg_stack(H: OperatorMatrix, O: OperatorMatrix, t) -> _Blocks:
    """O(t) = e^{iHt} O e^{-iHt} at each time of ``t``, each block a (times, rows, cols) stack.

    H is diagonalised once (``_eigenbasis``) and O moved into its eigenbasis
    once, W = Q_{N+d}^dagger O_{N+d,N} Q_N per block; then each time's block
    is Q_{N+d} (e^{i lambda_{N+d} t} W e^{-i lambda_N t}) Q_N^dagger, with
    the phases applied entrywise.  The times are built one at a time into the
    stack, so no temporary holds every time's phases.  If only one of O and
    H mixes particle numbers, the other is merged into one block.
    """
    times, _ = _times(t)
    if H.basis is not O.basis:
        raise ValueError("H and O live on different bases")
    _require_dense(H.dim)
    A = _Blocks.of(O)
    Q, lam = _eigenbasis(H)
    if A.whole and not Q.whole:
        merged = np.empty(H.dim)
        for N, idx in H.basis.blocks.items():
            merged[idx] = lam[N]
        Q, lam = Q.merged(), {0: merged}
    W = Q.adjoint() @ A @ Q
    mats = {}
    for N, M in W.mats.items():
        left, right = Q.mats[N + W.shift], Q.mats[N].conj()
        stack = np.empty((times.size, *M.shape), dtype=np.complex128)
        for j, s in enumerate(times):
            phased = np.exp(1j * s * lam[N + W.shift])[:, None] * M * np.exp(-1j * s * lam[N])
            # left X right^T as left (right X^T)^T: both products are taken from
            # the left, where a real factor multiplies X's real view
            stack[j] = _left_product(left, _left_product(right, phased.T).T)
        mats[N] = stack
    return _Blocks(O.basis, W.whole, W.shift, mats)


def _left_product(L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """L @ X for a complex X; a real L multiplies X's interleaved real view in one real product.

    A real L times a complex X would otherwise be promoted to a complex
    product, which does twice the real work.
    """
    if np.iscomplexobj(L):
        return L @ X
    X = np.ascontiguousarray(X)
    return (L @ X.view(np.float64)).view(np.complex128)


def _norm2(mats: Iterable[np.ndarray], hermitian: bool) -> float | np.ndarray:
    """Operator 2-norm of the direct sum of ``mats``: the largest of their norms.

    The blocks of a ``_Blocks`` act on disjoint rows and columns, so the
    operator is their direct sum up to a permutation.  Each matrix may be a
    stack (times, rows, cols); the norm is then taken per time, one call
    per matrix covering the whole stack, and returned as an array over the
    times.  Hermitian matrices take ``eigvalsh``.  The others take their
    largest singular value as the square root of the top ``eigvalsh``
    eigenvalue of the smaller Gram matrix, M M^dagger or M^dagger M, which
    is accurate to rounding relative to the norm itself.  A matrix with no
    rows or no columns adds 0.
    """
    out = 0.0
    for M in mats:
        rows, cols = M.shape[-2:]
        if not (rows and cols):
            continue
        if hermitian:
            norm = np.abs(np.linalg.eigvalsh(M)).max(axis=-1)
        else:
            adj = M.conj().swapaxes(-1, -2)
            gram = M @ adj if rows <= cols else adj @ M
            norm = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
        out = np.maximum(out, norm)
    return out


def _diagonal_commutator_norm(A: _Blocks, d: np.ndarray, hermitian: bool) -> float | np.ndarray:
    """Operator 2-norm of [A, D] for the diagonal D = diag(d), without forming A D or D A.

    [A, D] has the entries A_jk (d_k - d_j), on the rows and columns of A's
    blocks, so it is taken entrywise block by block and normed by
    ``_norm2``; ``hermitian`` says that A and D both are, and then i[A, D]
    is Hermitian.  When every d_j is 0 or 1, D is a projector P and [A, P]
    has two nonzero parts per block: A from the columns in P to the rows out
    of it, and minus A from the columns out of P to the rows in it.  They act
    on disjoint rows and columns, so the norm is the larger of their top
    singular values.  A Hermitian A maps each block to itself (shift 0), so
    the two parts are adjoints and one serves.  A stack of blocks, as
    ``_heisenberg_stack`` builds, gives the norms per time, as ``_norm2`` does.
    """
    parts = A.partition(A.basis, A.whole)
    if not ((d == 0) | (d == 1)).all():
        factor = 1j if hermitian else 1.0
        C = (
            M * (factor * (d[parts[N]] - d[parts[N + A.shift]][:, None]))
            for N, M in A.mats.items()
        )
        return _norm2(C, hermitian)
    p = d == 1
    off = []
    for N, M in A.mats.items():
        r, c = p[parts[N + A.shift]], p[parts[N]]
        off.append(M[(..., *np.ix_(r, ~c))])
        if not hermitian:
            off.append(M[(..., *np.ix_(~r, c))])
    return _norm2(off, hermitian=False)


def spectral_norm(O: OperatorMatrix) -> float:
    """Operator 2-norm: exact if diagonal, per block below the dense cap, Lanczos SVD above."""
    if O.matrix.nnz == 0:
        return 0.0
    if O.is_diagonal:
        # diagonal operators (number polynomials, projectors, phase unitaries)
        # have an exact norm; ARPACK also cannot handle their fully
        # degenerate singular spectra, so never send them there
        return float(np.abs(O.matrix.data).max())
    if O.dim <= dense_cap():
        return float(_norm2(_Blocks.of(O).mats.values(), O.hermitian))
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
