"""Small construction helpers shared across test modules."""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh

from boselab import cli
from boselab.bounds import BoundConstants
from boselab.evolve import StateVector
from boselab.fock import FockBasis, enumerate_basis
from boselab.lattice import build_lattice, geometric_constants
from boselab.approx import _apply_pairs
from boselab.model import HERMITICITY_RTOL, local_operator
from boselab.probes import heisenberg_apply


def fock_state(b: FockBasis, occ) -> StateVector:
    """Unit basis vector for one occupation tuple."""
    amps = np.zeros(b.dim, dtype=np.complex128)
    amps[b.index_of(tuple(occ))] = 1.0
    return StateVector(b, amps)


def chain_consts(g, *, qbar, t0, zeta0=1.0, q0=0.0) -> BoundConstants:
    """Bound constants with c0 = J_bar = 1 and the geometric constants of g."""
    geo = geometric_constants(g)
    return BoundConstants(
        c0=1.0, qbar=qbar, t0=t0, J_bar=1.0, dG=geo.max_degree_dG,
        gamma=geo.gamma, lambda0=geo.lambda0, D=geo.dimension_D,
        q0=q0, zeta0=zeta0,
    )


def basis_vectors(b: FockBasis):
    """Every unit basis vector of ``b``, in basis order."""
    for k in range(b.dim):
        amps = np.zeros(b.dim, dtype=np.complex128)
        amps[k] = 1.0
        yield StateVector(b, amps)


def random_state(b: FockBasis, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
    return StateVector(b, amps / np.linalg.norm(amps))


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def mott_occupation(n_sites: int, filling: int = 1) -> tuple[int, ...]:
    return (filling,) * n_sites


# ---------------------------------------------------------------------------
# slow reference for the Fock index kernel: a tuple-keyed dict over the basis
# and one Python loop iteration per basis state, move or matrix entry


@st.composite
def small_bases(draw, max_sites: int = 4, max_cutoff: int = 3) -> FockBasis:
    """Chains with per-site cutoffs, as product bases or in any sector,
    with the edge sectors 0 and sum(cutoffs) drawn often."""
    n = draw(st.integers(1, max_sites))
    cutoffs = draw(st.lists(st.integers(0, max_cutoff), min_size=n, max_size=n))
    top = sum(cutoffs)
    sector = draw(
        st.one_of(st.none(), st.sampled_from([0, top]), st.integers(0, top))
    )
    return enumerate_basis(build_lattice("chain", [n]), cutoffs, sector=sector)


def oracle_index(b: FockBasis) -> dict[tuple[int, ...], int]:
    return {tuple(int(x) for x in s): k for k, s in enumerate(b.states)}


def oracle_rank(b: FockBasis, occ: np.ndarray) -> np.ndarray:
    index = oracle_index(b)
    return np.array(
        [index.get(tuple(int(x) for x in row), -1) for row in occ], dtype=np.int64
    )


def _oracle_csr(b: FockBasis, entries) -> sparse.csr_matrix:
    """Triplets to CSR the way model._wrap stores them."""
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=np.complex128)
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(b.dim, b.dim))
    mat = sparse.csr_matrix(mat, dtype=np.complex128)
    mat.eliminate_zeros()
    return mat


def oracle_hamiltonian(spec, b: FockBasis) -> sparse.csr_matrix:
    index = oracle_index(b)
    entries = []
    for i, j, J in spec.hoppings:
        for src_site, dst_site in ((i, j), (j, i)):
            for k, s in enumerate(b.states):
                occ = [int(x) for x in s]
                if occ[src_site] < 1 or occ[dst_site] >= b.site_cutoffs[dst_site]:
                    continue
                amp = J * math.sqrt(occ[src_site] * (occ[dst_site] + 1.0))
                occ[src_site] -= 1
                occ[dst_site] += 1
                entries.append((index[tuple(occ)], k, amp))
    for k, s in enumerate(b.states):
        d = 0.0
        for term in spec.interactions:
            for mono in term.monomials:
                v = mono.coeff
                for site, p in zip(term.region, mono.powers):
                    if p:
                        v *= float(s[site]) ** p
                d += v
        if d != 0.0:
            entries.append((k, k, d))
    return _oracle_csr(b, entries)


def oracle_ladder(b: FockBasis, i: int, create: bool) -> sparse.csr_matrix:
    index = oracle_index(b)
    entries = []
    for k, s in enumerate(b.states):
        occ = [int(x) for x in s]
        n = occ[i]
        occ[i] += 1 if create else -1
        dst = index.get(tuple(occ))
        if dst is not None:
            entries.append((dst, k, math.sqrt(n + 1.0) if create else math.sqrt(n)))
    return _oracle_csr(b, entries)


def oracle_custom_matrix(b: FockBasis, sites, M: np.ndarray) -> sparse.csr_matrix:
    index = oracle_index(b)
    local_dims = [b.site_cutoffs[i] + 1 for i in sites]
    local_states = list(itertools.product(*(range(d) for d in local_dims)))
    entries = []
    for k, s in enumerate(b.states):
        c = local_states.index(tuple(int(s[i]) for i in sites))
        for r in range(len(local_states)):
            if M[r, c] == 0:
                continue
            occ = [int(x) for x in s]
            for site, n in zip(sites, local_states[r]):
                occ[site] = n
            dst = index.get(tuple(occ))
            if dst is not None:
                entries.append((dst, k, M[r, c]))
    return _oracle_csr(b, entries)


def oracle_support(mat: sparse.spmatrix, b: FockBasis) -> frozenset[int]:
    """Sites moved by some entry; on product bases also the sites whose n_i
    slices differ, each slice keyed by the other sites' row and column."""
    coo = mat.tocoo()
    entries = [
        (tuple(int(x) for x in b.states[r]), tuple(int(x) for x in b.states[c]), v)
        for r, c, v in zip(coo.row, coo.col, coo.data)
        if abs(v) > 0
    ]
    support = {
        i for row, col, _ in entries for i in range(b.n_sites) if row[i] != col[i]
    }
    if b.sector is not None or not entries:
        return frozenset(support)
    for i in range(b.n_sites):
        n_vals = b.site_cutoffs[i] + 1
        if i in support or n_vals == 1:
            continue
        slices: dict[tuple, dict[int, complex]] = {}
        for row, col, v in entries:
            key = (row[:i] + row[i + 1 :], col[:i] + col[i + 1 :])
            slices.setdefault(key, {})[row[i]] = v
        for slot in slices.values():
            ref = next(iter(slot.values()))
            if len(slot) != n_vals or any(
                abs(v - ref) > 1e-14 * max(abs(ref), 1.0) for v in slot.values()
            ):
                support.add(i)
                break
    return frozenset(support)


def oracle_is_hermitian(mat: sparse.spmatrix) -> bool:
    """The Hermiticity rule through COO copies of the difference and the matrix."""
    diff = (mat - mat.getH()).tocoo()
    if diff.nnz == 0:
        return True
    scale = max(np.abs(mat.tocoo().data).max(), 1.0)
    return bool(np.abs(diff.data).max() <= HERMITICITY_RTOL * scale)


# ---------------------------------------------------------------------------
# whole-matrix references for the dense paths, which work per N-block


def oracle_unitary(H, t: float) -> np.ndarray:
    """e^{-iHt} from one eigendecomposition of the whole matrix."""
    lam, Q = eigh(H.dense())
    return (Q * np.exp(-1j * t * lam)) @ Q.conj().T


def oracle_heisenberg(H, O, t: float) -> np.ndarray:
    """e^{iHt} O e^{-iHt} as whole dense matrices."""
    U = oracle_unitary(H, t)
    return U.conj().T @ O.dense() @ U


def oracle_step(step) -> np.ndarray:
    """A local step's product of e^{-iG tau} over its (G, tau) pairs; factors[0] is rightmost."""
    U = np.eye(step.basis.dim, dtype=np.complex128)
    for G, tau in step.factors:
        U = oracle_unitary(G, tau) @ U
    return U


def quench_echo(b: FockBasis, a_mat: np.ndarray, h_mat: np.ndarray, t: float) -> np.ndarray:
    """e^{-iAt} e^{i(A-h)t} on a one-site basis, each column applied to a basis
    vector as ``run_quench`` applies its echo pairs: (A - h, -t), then (A, t)."""
    A = local_operator("custom-matrix", [0], b, matrix=a_mat)
    A_minus_h = local_operator("custom-matrix", [0], b, matrix=a_mat - h_mat)
    cols = [_apply_pairs([(A_minus_h, -t), (A, t)], e).amplitudes for e in basis_vectors(b)]
    return np.column_stack(cols)


def restricted_error(H, O, approx: StateVector, psi0: StateVector, t, *, tol=1e-10) -> float:
    """||O(t) psi0 - approx||, the state-restricted trace-norm error of a pure psi0."""
    exact = heisenberg_apply(H, O, psi0, t, tol=tol)
    return float(np.linalg.norm(exact.amplitudes - approx.amplitudes))


def oracle_commutator_norms(H, O_A, O_Bs, t: float) -> list[float]:
    """SVD 2-norms of the whole commutators [O_A(t), O_B]."""
    A = oracle_heisenberg(H, O_A, t)
    return [float(np.linalg.norm(A @ B - B @ A, 2)) for B in (O.dense() for O in O_Bs)]


def fs_check_rows(s_max: int, m_max: int) -> list[dict]:
    """The rows the ``fs-check`` scenario reports for s = 1..s_max, m = 1..m_max."""
    cfg = {"scenario": {"kind": "fs-check", "s_max": s_max, "m_max": m_max}}
    return cli._fs_check(cli._Run(cfg, "fs-check", seed=0, threads=1))
