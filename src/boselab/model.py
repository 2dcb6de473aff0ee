"""Bose-Hubbard-type Hamiltonians on truncated Fock bases.

H = sum_{<i,j>} J_ij (b_i b_j^dag + h.c.) + sum_Z v_Z({n_i}_{i in Z})

Interactions are polynomials in number operators only, so they are diagonal
in the occupation basis.  Hopping amplitudes that would push a site above
its cutoff are dropped (hard truncation): the assembled matrix equals the
compression of the untruncated Hamiltonian onto the retained basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .fock import DiagonalOperator, FockBasis
from .lattice import LatticeGraph

__all__ = [
    "Monomial",
    "Interaction",
    "HamiltonianSpec",
    "OperatorMatrix",
    "bose_hubbard",
    "assemble_hamiltonian",
    "subset_hamiltonian",
    "effective_hamiltonian",
    "creation_degree",
    "local_operator",
    "operator_support",
]

HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class Monomial:
    """coeff * prod_a n_{region[a]}^{powers[a]} (powers aligned with the
    interaction's sorted region)."""

    coeff: float
    powers: tuple[int, ...]


@dataclass(frozen=True)
class Interaction:
    region: tuple[int, ...]
    monomials: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.region))) != self.region:
            raise ValueError("interaction region must be sorted and duplicate-free")
        for m in self.monomials:
            if len(m.powers) != len(self.region):
                raise ValueError("monomial power tuple must match region size")
            if any(p < 0 for p in m.powers):
                raise ValueError("monomial powers must be >= 0")


@dataclass(frozen=True)
class HamiltonianSpec:
    lattice: LatticeGraph
    hoppings: tuple[tuple[int, int, float], ...]
    interactions: tuple[Interaction, ...]
    k_max: int
    J_bar: float

    def __post_init__(self) -> None:
        for i, j, J in self.hoppings:
            if self.lattice.distances[i, j] != 1:
                raise ValueError(f"hopping ({i},{j}) is not an adjacent pair")
            if abs(J) > self.J_bar * (1 + 1e-12):
                raise ValueError(f"|J_{i}{j}|={abs(J)} exceeds J_bar={self.J_bar}")
        for term in self.interactions:
            if len(term.region) > self.k_max:
                raise ValueError(
                    f"interaction region {term.region} exceeds k_max={self.k_max}"
                )


def bose_hubbard(
    g: LatticeGraph, J: float, U: float, mu: float = 0.0
) -> HamiltonianSpec:
    """H = J sum_<ij> (b_i b_j^dag + h.c.) + (U/2) sum_i n_i(n_i-1) - mu sum_i n_i."""
    hoppings = tuple((i, j, float(J)) for i, j in g.edges)
    terms = []
    for i in g.sites:
        monos = []
        if U != 0.0:
            # U/2 * n(n-1) = U/2 n^2 - U/2 n
            monos.append(Monomial(U / 2.0, (2,)))
            monos.append(Monomial(-U / 2.0, (1,)))
        if mu != 0.0:
            monos.append(Monomial(-mu, (1,)))
        if monos:
            terms.append(Interaction((i,), tuple(monos)))
    return HamiltonianSpec(
        lattice=g,
        hoppings=hoppings,
        interactions=tuple(terms),
        k_max=1,
        J_bar=abs(float(J)),
    )


# ---------------------------------------------------------------------------
# operator container


def _check_hermitian(mat: sparse.spmatrix) -> bool:
    diff = (mat - mat.getH()).tocoo()
    if diff.nnz == 0:
        return True
    scale = max(np.abs(mat.tocoo().data).max(), 1.0)
    return bool(np.abs(diff.data).max() <= HERMITICITY_RTOL * scale)


def operator_support(mat: sparse.spmatrix, b: FockBasis) -> frozenset[int]:
    """Minimal site set on which the matrix acts non-trivially.

    Exact on product bases: site i is outside the support iff the matrix is
    block-identical across the n_i slices.  On sector bases only motion is
    detectable (diagonal operators are functions of any one site given the
    rest), so the result there is a lower bound refined by the caller's
    declared support.
    """
    coo = mat.tocoo()
    keep = np.abs(coo.data) > 0
    rows, cols, vals = coo.row[keep], coo.col[keep], coo.data[keep]
    if rows.size == 0:
        return frozenset()
    states = b.states
    moved = states[rows] != states[cols]          # (nnz, n_sites) bool
    support = set(int(i) for i in np.nonzero(moved.any(axis=0))[0])

    if b.sector is not None:
        return frozenset(support)

    # n_i-slice comparison for unmoved sites on product bases: entries with
    # equal rest = index - n_i * stride_i must agree for every n_i
    rows, cols = rows.astype(np.int64), cols.astype(np.int64)
    for i, stride in enumerate(b.completions[1:]):
        n_vals = b.site_cutoffs[i] + 1
        if i in support or n_vals == 1:
            continue
        shift = states[rows, i] * stride
        key = (rows - shift) * b.dim + (cols - shift)
        _, first, slot, count = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        ref = vals[first][slot]
        if np.any(count != n_vals) or np.any(
            np.abs(vals - ref) > 1e-14 * np.maximum(np.abs(ref), 1.0)
        ):
            support.add(i)
    return frozenset(support)


@dataclass(frozen=True)
class OperatorMatrix:
    basis: FockBasis
    matrix: sparse.csr_matrix = field(repr=False)
    hermitian: bool
    is_diagonal: bool
    support: frozenset[int]

    @property
    def dim(self) -> int:
        return self.basis.dim

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _wrap(
    b: FockBasis,
    mat: sparse.spmatrix,
    declared_support: Iterable[int] | None = None,
    *,
    verify_support: bool = True,
) -> OperatorMatrix:
    csr = sparse.csr_matrix(mat, dtype=np.complex128)
    csr.eliminate_zeros()
    if csr.shape != (b.dim, b.dim):
        raise ValueError("matrix dimension does not match basis")
    herm = _check_hermitian(csr)
    if declared_support is not None:
        declared = frozenset(int(i) for i in declared_support)
        if verify_support:
            computed = operator_support(csr, b)
            if not computed <= declared:
                raise ValueError(
                    f"declared support {sorted(declared)} misses sites "
                    f"{sorted(computed - declared)}"
                )
        supp = declared
    else:
        supp = operator_support(csr, b)
    rows = np.repeat(np.arange(b.dim), np.diff(csr.indptr))
    return OperatorMatrix(
        basis=b,
        matrix=csr,
        hermitian=herm,
        is_diagonal=bool(np.all(rows == csr.indices)),
        support=supp,
    )


def diagonal_to_operator(d: DiagonalOperator, support: Iterable[int] | None = None) -> OperatorMatrix:
    mat = sparse.diags(d.entries.astype(np.complex128), format="csr")
    return _wrap(d.basis, mat, declared_support=support)


# ---------------------------------------------------------------------------
# assembly


def _move_triplets(
    b: FockBasis, src: np.ndarray, target: np.ndarray, amp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triplets (dst, src, amp) of the local moves states[src] -> target rows.

    Moves that leave the basis (past a cutoff or out of the sector) are dropped.
    """
    dst = b.rank(target)
    keep = dst >= 0
    return dst[keep], src[keep], amp[keep].astype(np.complex128)


def _triplet_matrix(
    b: FockBasis, parts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> sparse.csr_matrix:
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(b.dim, b.dim))


def _hopping_triplets(
    b: FockBasis, hops: Sequence[tuple[int, int, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triplets of sum J * b_i b_j^dag over hops (i, j, J), hop by hop.

    Each term moves one boson i -> j, clipped at cutoffs; all hops are
    ranked in one batch.
    """
    i, j, J = np.asarray(hops, dtype=np.float64).reshape(-1, 3).T
    i, j = i.astype(np.intp), j.astype(np.intp)
    n_i = b.states.T[i].astype(np.int64)                   # (hops, dim)
    n_j = b.states.T[j].astype(np.int64)
    # site-major (n_sites, hops, dim), so rank reads each site contiguously
    target = np.repeat(b.states.T[:, None, :], len(J), axis=1)
    hop = np.arange(len(J))
    target[i, hop] -= 1
    target[j, hop] += 1
    return _move_triplets(
        b,
        np.tile(np.arange(b.dim), len(J)),
        target.reshape(b.n_sites, -1).T,
        (J[:, None] * np.sqrt(n_i * (n_j + 1.0))).ravel(),
    )


def _interaction_entries(b: FockBasis, terms: Sequence[Interaction]) -> np.ndarray:
    diag = np.zeros(b.dim, dtype=np.float64)
    for term in terms:
        cols = b.states[:, list(term.region)].astype(np.float64)
        for mono in term.monomials:
            vals = np.full(b.dim, mono.coeff)
            for a, p in enumerate(mono.powers):
                if p:
                    vals *= cols[:, a] ** p
            diag += vals
    return diag


def assemble_hamiltonian(
    spec: HamiltonianSpec, b: FockBasis, *, _hop_filter=None, _int_filter=None
) -> OperatorMatrix:
    if spec.lattice is not b.lattice and spec.lattice.edges != b.lattice.edges:
        raise ValueError("spec and basis lattices differ")
    hops = []
    supp: set[int] = set()
    for i, j, J in spec.hoppings:
        if _hop_filter is not None and not _hop_filter(i, j):
            continue
        supp.update((i, j))
        # J b_i b_j^dag plus Hermitian conjugate
        hops += [(i, j, J), (j, i, J)]
    terms = [
        t
        for t in spec.interactions
        if _int_filter is None or _int_filter(t.region)
    ]
    diag = _interaction_entries(b, terms)
    for t in terms:
        if any(m.coeff != 0.0 and any(m.powers) for m in t.monomials):
            supp.update(t.region)
    nz = np.nonzero(diag)[0]
    diag_part = (nz, nz, diag[nz].astype(np.complex128))
    mat = _triplet_matrix(b, [_hopping_triplets(b, hops), diag_part])
    return _wrap(b, mat, declared_support=sorted(supp), verify_support=False)


def subset_hamiltonian(
    spec: HamiltonianSpec, b: FockBasis, X: Iterable[int]
) -> OperatorMatrix:
    """H_X: hoppings with both endpoints in X, interactions with Z subset X."""
    Xs = set(int(i) for i in X)
    return assemble_hamiltonian(
        spec,
        b,
        _hop_filter=lambda i, j: i in Xs and j in Xs,
        _int_filter=lambda Z: set(Z) <= Xs,
    )


def effective_hamiltonian(
    spec: HamiltonianSpec,
    b: FockBasis,
    scheme: Sequence[tuple[Iterable[int], int]],
    *,
    subset: Iterable[int] | None = None,
) -> OperatorMatrix:
    """Pi_bar H Pi_bar with Pi_bar = truncation_projector(scheme).

    With ``subset`` set, the sandwiched Hamiltonian is subset_hamiltonian
    (used by the local step unitaries, whose hoppings live on a smaller
    region than their interactions).
    """
    from .fock import truncation_projector

    H = (
        assemble_hamiltonian(spec, b)
        if subset is None
        else subset_hamiltonian(spec, b, subset)
    )
    pi = truncation_projector(b, list(scheme))
    D = sparse.diags(pi.entries)
    mat = D @ H.matrix @ D
    return _wrap(b, mat, declared_support=sorted(H.support), verify_support=False)


# ---------------------------------------------------------------------------
# operator classification and construction


def creation_degree(O: OperatorMatrix, X: Iterable[int]) -> int | str:
    """Largest net boson gain on X over the nonzero matrix blocks.

    Returns the smallest q0 with Pi_{X,q} O Pi_{X,q'} = 0 whenever the
    output eigenvalue q exceeds q' + q0; "unbounded" flags the diagnostic
    case where q0 spans the whole attainable range of n_X.
    """
    Xs = sorted(set(int(i) for i in X))
    if not O.support <= set(Xs):
        raise ValueError(f"operator support {sorted(O.support)} not within X")
    coo = O.matrix.tocoo()
    keep = np.abs(coo.data) > 0
    if not keep.any():
        return 0
    nX = O.basis.states[:, Xs].astype(np.int64).sum(axis=1)
    gain = nX[coo.row[keep]] - nX[coo.col[keep]]
    q0 = int(max(0, gain.max()))
    span = int(sum(O.basis.site_cutoffs[i] for i in Xs))
    if O.basis.sector is not None:
        present = nX  # attainable n_X values inside the sector slice
        span = int(present.max() - present.min())
    if q0 == span and span > 0:
        return "unbounded"
    return q0


def _site_ladder(
    b: FockBasis, i: int, create: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_i = b.states[:, i].astype(np.float64)
    target = b.states.copy()
    target[:, i] += 1 if create else -1
    amp = np.sqrt(n_i + 1.0) if create else np.sqrt(n_i)
    return _move_triplets(b, np.arange(b.dim), target, amp)


def local_operator(
    kind: str,
    X: Iterable[int] | int,
    b: FockBasis,
    *,
    predicate: tuple[str, int] | None = None,
    matrix: np.ndarray | None = None,
    unitary: bool = False,
) -> OperatorMatrix:
    """Construct a local probe operator with verified support.

    kinds: "number" (n_X), "creation"/"annihilation" (single site, clipped
    ladder), "projector" (region_total_projector, needs predicate),
    "custom-matrix" (matrix on the local occupation space of X, embedded;
    basis states whose image leaves the basis are dropped).
    """
    sites = [int(X)] if isinstance(X, int) else sorted(set(int(i) for i in X))
    if not sites:
        raise ValueError("X must be nonempty")

    if kind == "number":
        from .fock import number_operator

        d = number_operator(b, sites)
        return diagonal_to_operator(d, support=sites)
    if kind in ("creation", "annihilation"):
        if len(sites) != 1:
            raise ValueError(f"{kind} operator acts on a single site")
        mat = _triplet_matrix(b, [_site_ladder(b, sites[0], kind == "creation")])
        return _wrap(b, mat, declared_support=sites, verify_support=False)
    if kind == "projector":
        if predicate is None:
            raise ValueError("projector kind needs a predicate")
        from .fock import region_total_projector

        d = region_total_projector(b, sites, predicate)
        return diagonal_to_operator(d, support=sites)
    if kind == "custom-matrix":
        if matrix is None:
            raise ValueError("custom-matrix kind needs a matrix")
        local_dims = [b.site_cutoffs[i] + 1 for i in sites]
        ldim = int(np.prod(local_dims))
        M = np.asarray(matrix, dtype=np.complex128)
        if M.shape != (ldim, ldim):
            raise ValueError(
                f"custom matrix shape {M.shape} does not match local dimension {ldim}"
            )
        Mc = sparse.csc_matrix(M)
        # basis state g meets the nonzeros of column loc[g] of M, loc[g] being
        # its local index on X; k runs over those entries state by state, and
        # each target takes its entry's row as the occupation of X
        loc = np.ravel_multi_index(tuple(b.states[:, sites].T), local_dims)
        count = np.diff(Mc.indptr)[loc]
        src = np.repeat(np.arange(b.dim), count)
        k = Mc.indptr[loc][src] + np.arange(src.size) - np.repeat(
            np.cumsum(count) - count, count
        )
        target = b.states[src]
        target[:, sites] = np.stack(np.unravel_index(Mc.indices[k], local_dims), axis=1)
        mat = _triplet_matrix(b, [_move_triplets(b, src, target, Mc.data[k])])
        op = _wrap(b, mat, declared_support=sites, verify_support=False)
        if unitary:
            err = (op.matrix.getH() @ op.matrix - sparse.eye(b.dim)).tocoo()
            worst = np.abs(err.data).max() if err.nnz else 0.0
            if worst > 1e-10:
                raise ValueError(
                    f"custom matrix is not unitary on this basis (defect {worst:.2e})"
                )
        return op
    raise ValueError(f"unknown operator kind: {kind!r}")
