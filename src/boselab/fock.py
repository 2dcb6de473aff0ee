"""Truncated bosonic Fock bases and the diagonals of number-basis operators.

States are occupation vectors respecting per-site cutoffs and, optionally, a
fixed total boson number.  Ordering is lexicographic by occupation vector so
matrix layouts are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .lattice import LatticeGraph

__all__ = [
    "FockBasis",
    "ResourceLimitError",
    "enumerate_basis",
    "region_total_projector",
    "truncation_projector",
    "number_operator",
    "DIMENSION_CAP",
]

DIMENSION_CAP = 5_000_000
_MAX_CUTOFF = int(np.iinfo(np.int16).max)  # occupations are stored as int16


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

    @cached_property
    def blocks(self) -> dict[int, np.ndarray]:
        """Basis indices of each total boson number N, by increasing N.

        Operators that conserve N are block-diagonal over these index sets.
        A sector basis is one block.  Built on first use and kept; the
        arrays are read-only, since every caller shares them.
        """
        totals = self.states.sum(axis=1, dtype=np.int64)
        order = np.argsort(totals, kind="stable")
        values, starts = np.unique(totals[order], return_index=True)
        out = dict(zip(values.tolist(), np.split(order, starts[1:])))
        for idx in out.values():
            idx.setflags(write=False)
        return out

    @cached_property
    def occupations(self) -> np.ndarray:
        """The occupations as floats, site by site: ``occupations[i, k]`` is
        n_i in state k.

        An (n_sites, dim) float64 array, one contiguous row per site, for the
        assembly's amplitudes and diagonals.  Built on first use and kept;
        read-only, since every assembly shares it.
        """
        occ = self.states.T.astype(np.float64, order="C")
        occ.setflags(write=False)
        return occ

    @cached_property
    def hop_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Where one boson hopping along each directed lattice edge takes each state.

        Returns ``(row, targets)``: ``targets[row[i, j], k]`` is the index of
        state k after one boson hops i -> j, or -1 where the hop leaves the
        basis (site i empty, site j at its cutoff, or out of the sector).
        ``row`` is an (n_sites, n_sites) table, -1 off the edges; edge (i, j)
        of the lattice holds rows 2e (i -> j) and 2e + 1 (j -> i).

        No moved state is ranked: a hop shifts the index by a rank
        difference.  On product bases that is the stride difference
        W[j + 1] - W[i + 1].  On sector bases the rank is a constant plus
        sum_{m >= 1} E_m[left_m], with left_m the bosons on sites m.. and
        E_m[x] = sum_{v <= x} (W[m + 1, v] - W[m, v]).  A hop i -> j moves
        left_m by one for the sites m between its ends only, so its shift is
        the difference of two per-state prefix sums over the sites.  Built
        on first use and kept; both arrays are read-only, since every
        assembly shares them.
        """
        ends = np.array(self.lattice.edges, dtype=np.intp).reshape(-1, 2)
        src, dst = ends.ravel(), ends[:, ::-1].ravel()
        occ = self.states.T                                  # (n_sites, dim)
        W = self.completions
        if self.sector is None:
            strides = W[1:]
        else:
            # F[m, x] = E_m[x] - E_m[x - 1]; P[m] = sum_{m' <= m} F[m', left_m'],
            # the terms a hop lowering left_m' drops, and P_up the same at
            # left_m' + 1, the terms a hop raising it adds
            F = np.diff(W, axis=0)
            P = np.empty(occ.shape, dtype=np.int64)
            P_up = np.empty(occ.shape, dtype=np.int64)
            left = np.full(self.dim, self.sector, dtype=np.intp)
            for m in range(self.n_sites):
                F[m].take(left, out=P[m])
                # left_m + 1 passes the sector only where a hop leaves the basis
                F[m].take(left + 1, out=P_up[m], mode="clip")
                if m:
                    P[m] += P[m - 1]
                    P_up[m] += P_up[m - 1]
                left -= occ[m]
        empty = occ == 0
        full = occ >= np.array(self.site_cutoffs, dtype=occ.dtype)[:, None]
        index = np.arange(self.dim, dtype=np.int64)
        targets = np.empty((len(src), self.dim), dtype=np.int32)
        for hop, (i, j) in enumerate(zip(src, dst)):
            if self.sector is None:
                shift = strides[j] - strides[i]
            elif i < j:   # left_m grows by one for i < m <= j
                shift = P_up[j] - P_up[i]
            else:         # left_m drops by one for j < m <= i
                shift = P[j] - P[i]
            np.add(index, shift, out=targets[hop], casting="unsafe")
            targets[hop][empty[i] | full[j]] = -1
        row = np.full((self.n_sites, self.n_sites), -1, dtype=np.intp)
        row[src, dst] = np.arange(len(src))
        row.setflags(write=False)
        targets.setflags(write=False)
        return row, targets

    def column_order(
        self, edges: Iterable[tuple[int, int]]
    ) -> list[tuple[int, int] | None]:
        """Directed edges (i, j) ordered as their hop targets fall in every
        state's row, with None at the state itself.

        The basis is lexicographic with site 0 leading (``enumerate_basis``).
        A hop i -> j with i < j lowers a state; two such hops order by i,
        then by descending j.  A hop with i > j raises it; those order by
        descending j, then by i.  The order holds for every state, so a
        row laid out in it is sorted.
        """
        down = sorted((e for e in edges if e[0] < e[1]), key=lambda e: (e[0], -e[1]))
        up = sorted((e for e in edges if e[0] > e[1]), key=lambda e: (-e[1], e[0]))
        return [*down, None, *up]

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
    if any(c > _MAX_CUTOFF for c in cutoffs):
        raise ValueError(
            f"cutoffs must be <= {_MAX_CUTOFF}: occupations are stored as int16"
        )
    if sector is not None and (sector < 0 or sector > sum(cutoffs)):
        raise ValueError("sector outside attainable occupation range")

    W = _completion_counts(cutoffs, sector)
    dim = int(W[0] if sector is None else W[0, sector])
    if dim > dim_cap:
        raise ResourceLimitError(
            f"basis dimension {dim} exceeds cap {dim_cap}"
        )
    W = W.astype(np.int64)

    # fill the table site by site: every prefix of sites 0..i-1 that the rest
    # can complete, in basis order, takes each value of site i the rest can
    # still complete, in increasing order, which keeps the rows lexicographic
    # (``FockBasis.column_order`` relies on it); each prefix then heads a block
    # of rows, one per completion.  In a sector the prefix's rest must hold
    # ``left`` bosons: site i takes max(0, left - cutoffs of sites i+1..) up
    # to min(c, left), so no prefix is made only to be dropped
    states = np.empty((dim, n), dtype=np.int16)
    left = np.full(1, sector or 0, dtype=np.int64)
    for i, c in enumerate(cutoffs):
        if sector is None:
            value = np.tile(np.arange(c + 1, dtype=np.int16), W[0] // W[i])
            completions = W[i + 1]
        else:
            first = np.maximum(left - sum(cutoffs[i + 1 :]), 0)
            count = np.minimum(left, c) - first + 1
            start = np.cumsum(count) - count
            value = (np.arange(count.sum()) - np.repeat(start - first, count)).astype(np.int16)
            left = np.repeat(left, count) - value
            completions = W[i + 1, left]
        states[:, i] = np.repeat(value, completions)

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


def _region_occupations(b: FockBasis, X: Iterable[int]) -> np.ndarray:
    """n_X = sum_{i in X} n_i on every basis state, as int64.

    X must be a nonempty set of sites of ``b``.
    """
    idx = sorted(set(int(i) for i in X))
    if not idx:
        raise ValueError("region must be nonempty")
    for i in (idx[0], idx[-1]):
        if not 0 <= i < b.n_sites:
            raise ValueError(f"site {i} out of range")
    # column by column: a strided view adds without gathering the columns
    out = b.states[:, idx[0]].astype(np.int64)
    for i in idx[1:]:
        out += b.states[:, i]
    return out


def region_total_projector(
    b: FockBasis, X: Iterable[int], predicate: tuple[str, int]
) -> np.ndarray:
    """Diagonal of the projector onto an eigenspace of n_X = sum_{i in X} n_i, as 0/1 floats."""
    vals = _region_occupations(b, X)
    return _predicate_mask(vals, predicate).astype(np.float64)


def truncation_projector(
    b: FockBasis, scheme: Sequence[tuple[Iterable[int], int]]
) -> np.ndarray:
    """Diagonal of the product of per-site <=q projectors over the scheme's regions, as 0/1 floats.

    Overlapping regions resolve to the elementwise minimum cutoff.
    """
    mask = np.ones(b.dim, dtype=bool)
    for i, q in _binding_cutoffs(b, scheme).items():
        mask &= b.states[:, i] <= q
    return mask.astype(np.float64)


def _binding_cutoffs(b: FockBasis, scheme: Sequence[tuple[Iterable[int], int]]) -> dict[int, int]:
    """The least q of each site in ``scheme``, for the sites where it is below the site's cutoff."""
    eff: dict[int, int] = {}
    for region, q in scheme:
        if q < 0:
            raise ValueError("truncation cutoff must be >= 0")
        for i in map(int, region):
            if not 0 <= i < b.n_sites:
                raise ValueError(f"site {i} out of range")
            eff[i] = min(eff.get(i, q), q)
    return {i: q for i, q in eff.items() if q < b.site_cutoffs[i]}


def number_operator(b: FockBasis, X: Iterable[int]) -> np.ndarray:
    """Diagonal of n_X = sum_{i in X} n_i, as floats."""
    return _region_occupations(b, X).astype(np.float64)
