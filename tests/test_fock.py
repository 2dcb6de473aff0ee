"""Basis enumeration, and the diagonals of number operators and projectors."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boselab.fock import (
    ResourceLimitError,
    enumerate_basis,
    number_operator,
    region_total_projector,
    truncation_projector,
)
from boselab.lattice import build_lattice
from helpers import oracle_rank, small_bases


def test_product_basis_dimension_and_order():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2)
    assert b.dim == 27
    assert b.n_sites == 3
    states = [tuple(s) for s in b.states]
    assert states == sorted(states)
    assert states == list(itertools.product(range(3), repeat=3))


def test_sector_basis_is_filtered_product_basis():
    g = build_lattice("chain", [3])
    full = enumerate_basis(g, 2)
    sec = enumerate_basis(g, 2, sector=2)
    assert sec.dim == 6
    kept = [tuple(s) for s in full.states if sum(s) == 2]
    assert [tuple(s) for s in sec.states] == kept
    assert sec.sector == 2


def test_mixed_cutoffs():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, [1, 3, 2])
    assert b.dim == 2 * 4 * 3
    assert tuple(b.site_cutoffs) == (1, 3, 2)
    assert max(s[0] for s in b.states) == 1
    assert max(s[1] for s in b.states) == 3


def test_vacuum_only_basis():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 0)
    assert b.dim == 1
    assert tuple(b.states[0]) == (0, 0)


def test_index_round_trip():
    g = build_lattice("chain", [3])
    for b in (enumerate_basis(g, [1, 3, 2]), enumerate_basis(g, 3, sector=4)):
        for k, s in enumerate(b.states):
            assert b.index_of(tuple(int(x) for x in s)) == k
    with pytest.raises(KeyError):
        enumerate_basis(g, 2, sector=2).index_of((2, 1, 0))


def test_sector_dimension_closed_form():
    # stars and bars at cutoff >= sector: C(N + n - 1, n - 1)
    g = build_lattice("chain", [4])
    b = enumerate_basis(g, 6, sector=6)
    import math

    assert b.dim == math.comb(6 + 3, 3)


def test_dimension_cap_enforced():
    g = build_lattice("chain", [8])
    with pytest.raises(ResourceLimitError):
        enumerate_basis(g, 3, dim_cap=1000)
    with pytest.raises(ResourceLimitError):
        enumerate_basis(g, 8, sector=8, dim_cap=100)


@pytest.mark.parametrize(
    "cutoffs,sector",
    [(-1, None), ([2, 2], None), ([1, 1, 1, -2], None), (2, -1)],
)
def test_enumerate_basis_rejects_bad_input(cutoffs, sector):
    g = build_lattice("chain", [4])
    with pytest.raises(ValueError):
        enumerate_basis(g, cutoffs, sector=sector)


def test_empty_sector_rejected():
    g = build_lattice("chain", [2])
    with pytest.raises(ValueError):
        enumerate_basis(g, 1, sector=5)  # above total capacity


def test_site_projector_entries():
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 3)
    p = region_total_projector(b, [0], (">=", 2))
    assert p.dtype == np.float64
    assert np.array_equal(p, [0.0, 0.0, 1.0, 1.0])
    q = region_total_projector(b, [0], ("==", 0))
    assert np.array_equal(q, [1.0, 0.0, 0.0, 0.0])
    le = region_total_projector(b, [0], ("<=", 1))
    assert np.array_equal(le, [1.0, 1.0, 0.0, 0.0])


def test_site_projector_completeness_and_composition():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 3)
    zero = region_total_projector(b, [0], ("==", 0))
    plus = region_total_projector(b, [0], (">=", 1))
    assert np.array_equal(zero + plus, np.ones(b.dim))
    # <=q times >=q picks out ==q
    q = 2
    both = region_total_projector(b, [0], ("<=", q)) * region_total_projector(b, [0], (">=", q))
    assert np.array_equal(both, region_total_projector(b, [0], ("==", q)))


def test_site_projector_rejects_bad_input():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 2)
    with pytest.raises(ValueError):
        region_total_projector(b, [5], ("==", 0))
    with pytest.raises(ValueError):
        region_total_projector(b, [0], ("!=", 0))


@pytest.mark.parametrize("site", [-1, 3])
@pytest.mark.parametrize(
    "build",
    [
        lambda b, i: number_operator(b, [0, i]),
        lambda b, i: region_total_projector(b, [i], ("<=", 1)),
        lambda b, i: truncation_projector(b, [([0], 1), ([i], 1)]),
    ],
    ids=["number", "region_total", "truncation"],
)
def test_diagonal_builders_refuse_sites_outside_the_lattice(build, site):
    # -1 is not read as the last site, and n_sites is not a bare IndexError
    b = enumerate_basis(build_lattice("chain", [3]), 2)
    with pytest.raises(ValueError, match=f"site {site} out of range"):
        build(b, site)


def test_region_total_projector():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 2)
    p = region_total_projector(b, [0, 1], ("==", 2))
    hit = {tuple(s) for s, v in zip(b.states, p) if v == 1.0}
    assert hit == {(0, 2), (1, 1), (2, 0)}
    assert np.array_equal(region_total_projector(b, [0, 1], (">=", 0)), np.ones(b.dim))
    total = np.zeros(b.dim)
    for n in range(5):
        total += region_total_projector(b, [0, 1], ("==", n))
    assert np.array_equal(total, np.ones(b.dim))


def test_truncation_projector_semantics():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 3)
    # an empty scheme truncates nothing
    assert np.array_equal(truncation_projector(b, []), np.ones(b.dim))
    assert np.array_equal(truncation_projector(b, [(list(g.sites), 3)]), np.ones(b.dim))
    p = truncation_projector(b, [([0, 1], 1)])
    assert p.dtype == np.float64
    for s, v in zip(b.states, p):
        assert v == (1.0 if s[0] <= 1 and s[1] <= 1 else 0.0)


def test_truncation_projector_overlap_takes_minimum():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 3)
    p = truncation_projector(b, [([0, 1], 2), ([1], 1)])
    for s, v in zip(b.states, p):
        assert v == (1.0 if s[0] <= 2 and s[1] <= 1 else 0.0)


def test_truncation_projector_rejects_bad_scheme():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 2)
    with pytest.raises(ValueError):
        truncation_projector(b, [([0], -1)])
    with pytest.raises(ValueError):
        truncation_projector(b, [([7], 1)])


def test_number_operator():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 2)
    n0 = number_operator(b, [0])
    assert n0.dtype == np.float64
    for s, v in zip(b.states, n0):
        assert v == float(s[0])
    ntot = number_operator(b, [0, 1])
    assert np.array_equal(ntot, n0 + number_operator(b, [1]))
    # on a fixed-number sector the total number operator is a constant
    sec = enumerate_basis(b.lattice, 2, sector=2)
    assert np.array_equal(number_operator(sec, [0, 1]), np.full(sec.dim, 2.0))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_projector_idempotence(a, bq, c):
    # a diagonal is a projector exactly when its entries are 0 or 1
    g = build_lattice("chain", [3])
    basis = enumerate_basis(g, 2)
    p = truncation_projector(basis, [([0], a), ([1], bq), ([0, 2], c)])
    assert set(np.unique(p)) <= {0.0, 1.0}


@given(small_bases())
@settings(max_examples=80, deadline=None)
def test_enumeration_is_sorted_filtered_product(b):
    product = itertools.product(*(range(c + 1) for c in b.site_cutoffs))
    expected = sorted(p for p in product if b.sector is None or sum(p) == b.sector)
    assert [tuple(int(x) for x in s) for s in b.states] == expected
    assert b.states.dtype == np.int16


@given(small_bases(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_rank_matches_dict_lookup(b, seed):
    assert np.array_equal(b.rank(b.states), np.arange(b.dim))
    # shifted rows land inside the basis, past a cutoff, below zero, or
    # out of the sector
    rng = np.random.default_rng(seed)
    shifted = b.states + rng.integers(-2, 3, size=b.states.shape)
    before = shifted.copy()
    ranked = b.rank(shifted)
    assert np.array_equal(shifted, before)
    assert np.array_equal(ranked, oracle_rank(b, shifted))


def test_rank_rejects_wrong_width():
    b = enumerate_basis(build_lattice("chain", [3]), 2, sector=3)
    with pytest.raises(ValueError):
        b.rank(np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(KeyError):
        b.index_of((1, 1))


def test_large_sector_basis_enumerates_and_ranks():
    # chain 12, cutoff 3, N=12: dim 534,964
    b = enumerate_basis(build_lattice("chain", [12]), 3, sector=12)
    assert b.dim == 534_964
    assert np.array_equal(b.rank(b.states), np.arange(b.dim))
    assert np.all(np.diff(b.rank(b.states[::997])) > 0)


def test_sector_count_is_exact_beyond_int64():
    # 60 sites at cutoff 20 in the 300-boson sector hold far more than 2**63
    # states; the count must still trip the cap rather than wrap around
    g = build_lattice("chain", [60])
    with pytest.raises(ResourceLimitError):
        enumerate_basis(g, 20, sector=300)


def test_cutoff_beyond_int16_is_rejected():
    g = build_lattice("chain", [1])
    with pytest.raises(ValueError, match="32767"):
        enumerate_basis(g, 40000)
    with pytest.raises(ValueError, match="32767"):
        enumerate_basis(build_lattice("chain", [2]), [1, 32768])
    # the largest cutoff that fits still enumerates and ranks correctly
    b = enumerate_basis(g, 32767)
    assert b.states.min() == 0 and b.states.max() == 32767
    assert np.array_equal(b.rank(b.states), np.arange(b.dim))
