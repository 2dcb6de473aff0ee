"""Truncated bosonic Fock bases and diagonal (number-basis) operators.

States are occupation vectors respecting per-site cutoffs and, optionally, a
fixed total boson number.  Ordering is lexicographic by occupation vector so
matrix layouts are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .lattice import LatticeGraph

__all__ = [
    "FockBasis",
    "DiagonalOperator",
    "ResourceLimitError",
    "enumerate_basis",
    "site_projector",
    "region_total_projector",
    "truncation_projector",
    "number_operator",
    "DIMENSION_CAP",
]

DIMENSION_CAP = 5_000_000


class ResourceLimitError(RuntimeError):
    """Requested basis exceeds the configured dimension cap."""


@dataclass(frozen=True)
class FockBasis:
    lattice: LatticeGraph
    site_cutoffs: tuple[int, ...]
    sector: int | None
    states: np.ndarray = field(repr=False)          # (dim, n_sites) int16
    # completion counts: W[i, n] ways sites i.. can hold n bosons (sector
    # bases); W[i] ways to fill sites i.. at all (product bases)
    completions: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def n_sites(self) -> int:
        return self.states.shape[1]

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Index of each row of a (k, n_sites) integer array, -1 if absent.

        Product bases rank by mixed-radix strides W[i + 1]; sector bases by
        the lexicographic combinatorial rank: a state is preceded by those
        sharing its first i sites and holding fewer bosons on site i.
        """
        occ = np.asarray(occ)
        if occ.ndim != 2 or occ.shape[1] != self.n_sites:
            raise ValueError(f"occupations must have shape (k, {self.n_sites})")
        W = self.completions
        ok = np.ones(len(occ), dtype=bool)
        idx = np.zeros(len(occ), dtype=np.int64)
        if self.sector is None:
            for n_i, c, stride in zip(occ.T, self.site_cutoffs, W[1:]):
                ok &= (n_i >= 0) & (n_i <= c)
                idx += n_i * stride
        else:
            # sum_{v < n_i} W[i + 1, left - v] as a difference of prefix sums
            left = np.full(len(occ), self.sector, dtype=np.int64)
            for n_i, c, C in zip(occ.T, self.site_cutoffs, np.cumsum(W[1:], axis=1)):
                ok &= (n_i >= 0) & (n_i <= c) & (n_i <= left)
                n_i = np.where(ok, n_i, 0)      # keeps rejected rows in range
                idx += C[left]
                left -= n_i
                idx -= C[left]
            ok &= left == 0
        idx[~ok] = -1
        return idx

    def index_of(self, occ: Sequence[int]) -> int:
        row = np.asarray(occ, dtype=np.int64).reshape(1, -1)
        idx = int(self.rank(row)[0]) if row.shape[1] == self.n_sites else -1
        if idx < 0:
            raise KeyError(f"occupation {tuple(occ)} not in basis")
        return idx


@dataclass(frozen=True)
class DiagonalOperator:
    """Operator diagonal in the occupation basis."""

    basis: FockBasis
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.entries.shape != (self.basis.dim,):
            raise ValueError("entry count must equal basis dimension")

    def is_projector(self, tol: float = 0.0) -> bool:
        e = self.entries
        return bool(np.all((np.abs(e) <= tol) | (np.abs(e - 1.0) <= tol)))

    def compose(self, other: "DiagonalOperator") -> "DiagonalOperator":
        if other.basis is not self.basis:
            raise ValueError("operands live on different bases")
        return DiagonalOperator(self.basis, self.entries * other.entries)


def _completion_counts(cutoffs: Sequence[int], sector: int | None) -> np.ndarray:
    """Completion counts W of the basis, in exact Python integers."""
    n = len(cutoffs)
    if sector is None:
        W = np.ones(n + 1, dtype=object)
        for i in range(n - 1, -1, -1):
            W[i] = W[i + 1] * (cutoffs[i] + 1)
        return W
    W = np.zeros((n + 1, sector + 1), dtype=object)
    W[n, 0] = 1
    for i in range(n - 1, -1, -1):
        ways = np.cumsum(W[i + 1])
        W[i] = ways
        W[i, cutoffs[i] + 1 :] -= ways[: max(0, sector - cutoffs[i])]
        # totals that sites 0..i-1 cannot top up to the sector never occur;
        # zeroing them bounds every entry by the dimension
        W[i, : max(0, sector - sum(cutoffs[:i]))] = 0
    return W


def enumerate_basis(
    g: LatticeGraph,
    site_cutoffs: int | Sequence[int],
    sector: int | None = None,
    *,
    dim_cap: int = DIMENSION_CAP,
) -> FockBasis:
    """Enumerate all occupation vectors, lexicographically ordered.

    ``site_cutoffs`` may be a single integer (uniform) or one per site.
    With ``sector`` set, only states with total occupation == sector are
    kept; the enumeration prunes rather than filtering the full product.
    """
    n = g.site_count
    if isinstance(site_cutoffs, int):
        cutoffs = [site_cutoffs] * n
    else:
        cutoffs = [int(c) for c in site_cutoffs]
    if len(cutoffs) != n:
        raise ValueError("need one cutoff per site")
    if any(c < 0 for c in cutoffs):
        raise ValueError("cutoffs must be >= 0")
    if sector is not None and (sector < 0 or sector > sum(cutoffs)):
        raise ValueError("sector outside attainable occupation range")

    W = _completion_counts(cutoffs, sector)
    dim = int(W[0] if sector is None else W[0, sector])
    if dim > dim_cap:
        raise ResourceLimitError(
            f"basis dimension {dim} exceeds cap {dim_cap}"
        )
    W = W.astype(np.int64)

    # extend every prefix by each value in increasing order, which keeps the
    # rows lexicographic; in a sector, drop prefixes the rest cannot complete
    states = np.zeros((1, 0), dtype=np.int16)
    filled = np.zeros(1, dtype=np.int64)
    for i, c in enumerate(cutoffs):
        parent = np.repeat(np.arange(len(states)), c + 1)
        value = np.tile(np.arange(c + 1), len(states))
        if sector is not None:
            left = sector - filled[parent] - value
            keep = (left >= 0) & (W[i + 1, np.maximum(left, 0)] > 0)
            parent, value = parent[keep], value[keep]
        states = np.column_stack([states[parent], value.astype(np.int16)])
        filled = filled[parent] + value

    return FockBasis(
        lattice=g,
        site_cutoffs=tuple(cutoffs),
        sector=sector,
        states=states,
        completions=W,
    )


_PREDICATE_OPS = ("==", "<=", ">=")


def _predicate_mask(values: np.ndarray, predicate: tuple[str, int]) -> np.ndarray:
    op, q = predicate
    if op not in _PREDICATE_OPS:
        raise ValueError(f"predicate op must be one of {_PREDICATE_OPS}")
    if op == "==":
        return values == q
    if op == "<=":
        return values <= q
    return values >= q


def site_projector(
    b: FockBasis, i: int, predicate: tuple[str, int]
) -> DiagonalOperator:
    """Pi_{i,=q}, Pi_{i,<=q}, or Pi_{i,>=q} as a diagonal 0/1 operator."""
    if not (0 <= i < b.n_sites):
        raise ValueError(f"site {i} out of range")
    vals = b.states[:, i].astype(np.int64)
    return DiagonalOperator(b, _predicate_mask(vals, predicate).astype(np.float64))


def region_total_projector(
    b: FockBasis, X: Iterable[int], predicate: tuple[str, int]
) -> DiagonalOperator:
    """Projector onto eigenspaces of n_X = sum_{i in X} n_i."""
    idx = sorted(set(int(i) for i in X))
    if not idx:
        raise ValueError("region must be nonempty")
    vals = b.states[:, idx].astype(np.int64).sum(axis=1)
    return DiagonalOperator(b, _predicate_mask(vals, predicate).astype(np.float64))


def truncation_projector(
    b: FockBasis, scheme: Sequence[tuple[Iterable[int], int]]
) -> DiagonalOperator:
    """Product of per-site <=q projectors over the scheme's regions.

    Overlapping regions resolve to the elementwise minimum cutoff.
    """
    eff: dict[int, int] = {}
    for region, q in scheme:
        if q < 0:
            raise ValueError("truncation cutoff must be >= 0")
        for i in region:
            i = int(i)
            if not (0 <= i < b.n_sites):
                raise ValueError(f"site {i} out of range")
            eff[i] = min(eff.get(i, q), q)
    mask = np.ones(b.dim, dtype=bool)
    for i, q in eff.items():
        mask &= b.states[:, i] <= q
    return DiagonalOperator(b, mask.astype(np.float64))


def number_operator(b: FockBasis, X: Iterable[int]) -> DiagonalOperator:
    """n_X as a diagonal operator."""
    idx = sorted(set(int(i) for i in X))
    if not idx:
        raise ValueError("region must be nonempty")
    vals = b.states[:, idx].astype(np.float64).sum(axis=1)
    return DiagonalOperator(b, vals)
