"""Bose-Hubbard-type Hamiltonians on truncated Fock bases.

H = sum_{<i,j>} J_ij (b_i b_j^dag + h.c.) + sum_Z v_Z({n_i}_{i in Z})

Interactions are polynomials in number operators only, so they are diagonal
in the occupation basis.  Hopping amplitudes that would push a site above
its cutoff are dropped (hard truncation): the assembled matrix equals the
compression of the untruncated Hamiltonian onto the retained basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .fock import (
    FockBasis, _binding_cutoffs, number_operator, region_total_projector, truncation_projector,
)
from .lattice import LatticeGraph

__all__ = [
    "Monomial",
    "Interaction",
    "HamiltonianSpec",
    "OperatorMatrix",
    "bose_hubbard",
    "assemble_hamiltonian",
    "creation_degree",
    "local_operator",
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
            # assembly gives both directions of a hop the same J, in real arithmetic
            if not np.isrealobj(J):
                raise ValueError(f"J_{i}{j}={J} is not real")
            if not np.isfinite(J):
                raise ValueError(f"J_{i}{j}={J} is not finite")
            if self.lattice.distances[i, j] != 1:
                raise ValueError(f"hopping ({i},{j}) is not an adjacent pair")
            if abs(J) > self.J_bar * (1 + 1e-12):
                raise ValueError(f"|J_{i}{j}|={abs(J)} exceeds J_bar={self.J_bar}")
        for term in self.interactions:
            for m in term.monomials:
                if not np.isrealobj(m.coeff) or not np.isfinite(m.coeff):
                    raise ValueError(
                        f"interaction {term.region}: monomial coefficient {m.coeff} "
                        "is not a finite real"
                    )
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


def _check_hermitian(mat: sparse.csr_matrix) -> bool:
    # CSR arithmetic stores no zeros, so diff.data holds every mismatch
    diff = mat - mat.getH()
    if diff.nnz == 0:
        return True
    scale = max(np.abs(mat.data).max(), 1.0)
    return bool(np.abs(diff.data).max() <= HERMITICITY_RTOL * scale)


@dataclass(frozen=True)
class OperatorMatrix:
    """A sparse operator on a basis, with the site set it acts on.

    ``support`` is declared by the operator's builder: every site the
    operator acts on is in it, but it need not be the minimal such set.
    Two builders make them, each with the same flags for the same matrix:
    ``_hopping_rows`` everything the basis defines (every assembled
    Hamiltonian and step generator, and the number and projector probes),
    Hermitian by construction (each hop and its reverse get the same real J
    and the same amplitude) and diagonal when no hop slot is kept; ``_wrap``
    any other matrix, from its stored entries.
    """

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

    @cached_property
    def delta_n(self) -> int | None:
        """The change d of the total boson number N under this operator, or None.

        Every entry maps a state with N bosons to one with N + d, so the
        operator maps block N of ``basis.blocks`` into block N + d: 0 for
        Hamiltonians, number, projector and density operators, +1 for
        creation and -1 for annihilation.  None means the entries mix
        several d.  Computed from the entries on first use and kept.
        """
        totals = self.basis.states.sum(axis=1, dtype=np.int64)
        rows = np.repeat(np.arange(self.dim), np.diff(self.matrix.indptr))
        shifts = np.unique(totals[rows] - totals[self.matrix.indices])
        if shifts.size > 1:
            return None
        return int(shifts[0]) if shifts.size else 0


def _wrap(b: FockBasis, mat: sparse.spmatrix, support: Iterable[int]) -> OperatorMatrix:
    """``mat`` on ``b`` as an OperatorMatrix on the sites ``support``.

    The support is the builder's own, declared by construction: it is
    sound (the operator acts as the identity off it) but need not be
    minimal, and it is neither computed nor verified here.
    """
    csr = sparse.csr_matrix(mat, dtype=np.complex128)
    csr.eliminate_zeros()
    if csr.shape != (b.dim, b.dim):
        raise ValueError("matrix dimension does not match basis")
    # checked before the nnz-long row indices exist, which keeps the peak lower
    herm = _check_hermitian(csr)
    rows = np.repeat(np.arange(b.dim), np.diff(csr.indptr))
    return OperatorMatrix(
        basis=b,
        matrix=csr,
        hermitian=herm,
        is_diagonal=bool(np.all(rows == csr.indices)),
        support=frozenset(int(i) for i in support),
    )


# ---------------------------------------------------------------------------
# assembly


def _hopping_rows(
    b: FockBasis,
    weights: Mapping[tuple[int, int], Sequence[float]],
    diag: np.ndarray,
    mask: np.ndarray | None,
    support: Iterable[int],
) -> OperatorMatrix:
    """mask (sum J b_i b_j^dag over directed edges + diag(diag)) mask on the sites ``support``.

    H's pattern is symmetric, so row s holds targets[e, s] for every
    directed edge e = (i, j), with amplitude J sqrt(n_i (n_j + 1)) at s
    (the hop back from the target has the same one), and s itself.  An
    edge listed several times adds each listing's J * amp in turn, as a
    sum of duplicate entries would.  Every row starts with one slot per
    edge, and one for s, in ``FockBasis.column_order``; zero and
    out-of-basis slots drop out, and so do the rows and columns where the
    0/1 ``mask`` is 0.

    The flags come from the construction, not from the stored matrix.  The
    operator is Hermitian by construction: ``assemble_hamiltonian`` gives
    both directions of every hop the same listings of J, which
    ``HamiltonianSpec`` holds real and finite, and sqrt(n_i (n_j + 1)) at s
    is the same floating product as the reverse hop's amplitude at the
    target; the 0/1 mask multiplies both ends alike and ``diag`` is real.
    Entry (s, t) therefore equals entry (t, s) bit for bit.  A hop never
    lands on its own state, so the operator is diagonal exactly when every
    hop slot is 0.  Without ``weights`` (``local_operator``'s number and
    projector probes, a generator that keeps no hop) it is diag(diag), and
    the hop table is neither read nor built.
    """
    slots = b.column_order(weights)
    cols = np.empty((len(slots), b.dim), dtype=np.int32)
    vals = np.empty((len(slots), b.dim), dtype=np.float64)
    if weights:
        row, targets = b.hop_targets
        occ = b.occupations
        # n_j + 1 where site j has room, 0 at its cutoff: a hop that leaves the
        # basis gets amplitude 0 (and column 0 for -1), so it drops with the zeros
        room = (occ + 1.0) * (occ < np.array(b.site_cutoffs)[:, None])
    for k, edge in enumerate(slots):
        if edge is None:
            cols[k] = np.arange(b.dim)
            vals[k] = diag
            continue
        i, j = edge
        np.maximum(targets[row[i, j]], 0, out=cols[k])
        amp = np.sqrt(occ[i] * room[j])
        Js = iter(weights[edge])
        v = np.multiply(next(Js), amp, out=vals[k])
        for J in Js:
            v += J * amp
    if mask is not None:
        vals *= mask
        vals *= mask[cols]
    down = slots.index(None)  # the edges before the state's own slot lower it
    hop_kept = vals[:down].any() or vals[down + 1 :].any()
    mat = sparse.csr_matrix(
        (vals.T.ravel(), cols.T.ravel(), np.arange(0, vals.size + 1, len(slots))),
        shape=(b.dim, b.dim),
    )
    mat.eliminate_zeros()
    return OperatorMatrix(
        basis=b,
        # complex values of just the kept entries, on the real matrix's own
        # index arrays: ``astype`` would copy those too
        matrix=sparse.csr_matrix(
            (mat.data.astype(np.complex128), mat.indices, mat.indptr), shape=mat.shape, copy=False
        ),
        hermitian=True,
        is_diagonal=not hop_kept,
        support=frozenset(int(i) for i in support),
    )


def _interaction_entries(b: FockBasis, terms: Sequence[Interaction]) -> np.ndarray:
    diag = np.zeros(b.dim, dtype=np.float64)
    occ = b.occupations
    for term in terms:
        for mono in term.monomials:
            vals = np.full(b.dim, mono.coeff)
            for i, p in zip(term.region, mono.powers):
                if p:
                    vals *= occ[i] ** p
            diag += vals
    return diag


def assemble_hamiltonian(
    spec: HamiltonianSpec,
    b: FockBasis,
    *,
    hop_sites: Iterable[int] | None = None,
    int_sites: Iterable[int] | None = None,
    truncation: Sequence[tuple[Iterable[int], int]] = (),
) -> OperatorMatrix:
    """Pi_bar (H restricted to the given sites) Pi_bar, built in one pass.

    ``hop_sites`` keeps the hoppings with both ends in it, ``int_sites``
    the interactions whose region lies in it; None keeps every term.
    ``truncation`` is a ``truncation_projector`` scheme [(region, q)]
    whose projector Pi_bar compresses the sum from both sides (none by
    default, and none built when every q is at or above its sites'
    cutoffs).  The declared support is the sites of the kept terms and
    the truncated regions that are not empty.
    """
    if spec.lattice is not b.lattice and spec.lattice.edges != b.lattice.edges:
        raise ValueError("spec and basis lattices differ")
    hops = None if hop_sites is None else set(hop_sites)
    ints = None if int_sites is None else set(int_sites)
    weights: dict[tuple[int, int], list[float]] = {}
    supp: set[int] = set()
    for i, j, J in spec.hoppings:
        if hops is not None and not (i in hops and j in hops):
            continue
        supp.update((i, j))
        # J b_i b_j^dag plus Hermitian conjugate
        weights.setdefault((i, j), []).append(J)
        weights.setdefault((j, i), []).append(J)
    terms = [t for t in spec.interactions if ints is None or ints.issuperset(t.region)]
    diag = _interaction_entries(b, terms)
    for t in terms:
        if any(m.coeff != 0.0 and any(m.powers) for m in t.monomials):
            supp.update(t.region)
    mask = truncation_projector(b, truncation) if _binding_cutoffs(b, truncation) else None
    supp.update(int(i) for region, _ in truncation for i in region)
    return _hopping_rows(b, weights, diag, mask, supp)


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
    nX = number_operator(O.basis, Xs)
    coo = O.matrix.tocoo()
    keep = np.abs(coo.data) > 0
    if not keep.any():
        return 0
    gain = nX[coo.row[keep]] - nX[coo.col[keep]]
    q0 = int(max(0, gain.max()))
    span = int(sum(O.basis.site_cutoffs[i] for i in Xs))
    if O.basis.sector is not None:
        present = nX  # attainable n_X values inside the sector slice
        span = int(present.max() - present.min())
    if q0 == span and span > 0:
        return "unbounded"
    return q0


def local_operator(
    kind: str,
    X: Iterable[int] | int,
    b: FockBasis,
    *,
    predicate: tuple[str, int] | None = None,
    matrix: np.ndarray | None = None,
    unitary: bool = False,
) -> OperatorMatrix:
    """Construct a local probe operator supported on X.

    kinds: "number" (n_X), "creation"/"annihilation" (single site, clipped
    ladder), "projector" (region_total_projector, needs predicate),
    "custom-matrix" (matrix on the local occupation space of X, embedded;
    basis states whose image leaves the basis are dropped).  A ladder is
    the custom-matrix embedding of the site's local ladder matrix.  Every
    kind is built from the occupations of X alone, so its support is X by
    construction.
    """
    sites = [int(X)] if isinstance(X, int) else sorted(set(int(i) for i in X))
    if not sites:
        raise ValueError("X must be nonempty")
    for i in (sites[0], sites[-1]):
        if not 0 <= i < b.n_sites:
            raise ValueError(f"site {i} out of range")

    if kind == "number":
        return _hopping_rows(b, {}, number_operator(b, sites), None, sites)
    if kind == "projector":
        if predicate is None:
            raise ValueError("projector kind needs a predicate")
        return _hopping_rows(b, {}, region_total_projector(b, sites, predicate), None, sites)
    if kind in ("creation", "annihilation"):
        if len(sites) != 1:
            raise ValueError(f"{kind} operator acts on a single site")
        # <n+1| b^dag |n> = sqrt(n+1) below the diagonal, and its transpose
        c = b.site_cutoffs[sites[0]]
        L = np.diag(np.sqrt(np.arange(1.0, c + 1.0)), -1)
        matrix = L if kind == "creation" else L.T
    elif kind != "custom-matrix":
        raise ValueError(f"unknown operator kind: {kind!r}")
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
    # moves that leave the basis (past a cutoff or out of the sector) drop
    dst = b.rank(target)
    keep = dst >= 0
    mat = sparse.csr_matrix((Mc.data[k][keep], (dst[keep], src[keep])), shape=(b.dim, b.dim))
    op = _wrap(b, mat, sites)
    if unitary:
        err = (op.matrix.getH() @ op.matrix - sparse.eye(b.dim)).tocoo()
        worst = np.abs(err.data).max() if err.nnz else 0.0
        if worst > 1e-10:
            raise ValueError(
                f"custom matrix is not unitary on this basis (defect {worst:.2e})"
            )
    return op
