"""Basis enumeration, projectors, and diagonal operators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boselab.fock import (
    DiagonalOperator,
    ResourceLimitError,
    enumerate_basis,
    number_operator,
    region_total_projector,
    site_projector,
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
    p = site_projector(b, 0, (">=", 2))
    assert np.array_equal(p.entries, [0.0, 0.0, 1.0, 1.0])
    assert p.is_projector()
    q = site_projector(b, 0, ("==", 0))
    assert np.array_equal(q.entries, [1.0, 0.0, 0.0, 0.0])
    le = site_projector(b, 0, ("<=", 1))
    assert np.array_equal(le.entries, [1.0, 1.0, 0.0, 0.0])


def test_site_projector_completeness_and_composition():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 3)
    zero = site_projector(b, 0, ("==", 0))
    plus = site_projector(b, 0, (">=", 1))
    assert np.array_equal(zero.entries + plus.entries, np.ones(b.dim))
    # <=q composed with >=q picks out ==q
    q = 2
    both = site_projector(b, 0, ("<=", q)).compose(site_projector(b, 0, (">=", q)))
    assert np.array_equal(both.entries, site_projector(b, 0, ("==", q)).entries)


def test_site_projector_rejects_bad_input():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 2)
    with pytest.raises(ValueError):
        site_projector(b, 5, ("==", 0))
    with pytest.raises(ValueError):
        site_projector(b, 0, ("!=", 0))


def test_region_total_projector():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 2)
    p = region_total_projector(b, [0, 1], ("==", 2))
    hit = {tuple(s) for s, v in zip(b.states, p.entries) if v == 1.0}
    assert hit == {(0, 2), (1, 1), (2, 0)}
    assert np.array_equal(
        region_total_projector(b, [0, 1], (">=", 0)).entries, np.ones(b.dim)
    )
    total = np.zeros(b.dim)
    for n in range(5):
        total += region_total_projector(b, [0, 1], ("==", n)).entries
    assert np.array_equal(total, np.ones(b.dim))


def test_truncation_projector_semantics():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 3)
    # an empty scheme truncates nothing
    assert np.array_equal(truncation_projector(b, []).entries, np.ones(b.dim))
    assert np.array_equal(
        truncation_projector(b, [(list(g.sites), 3)]).entries, np.ones(b.dim)
    )
    p = truncation_projector(b, [([0, 1], 1)])
    for s, v in zip(b.states, p.entries):
        assert v == (1.0 if s[0] <= 1 and s[1] <= 1 else 0.0)
    assert p.is_projector()


def test_truncation_projector_overlap_takes_minimum():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 3)
    p = truncation_projector(b, [([0, 1], 2), ([1], 1)])
    for s, v in zip(b.states, p.entries):
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
    for s, v in zip(b.states, n0.entries):
        assert v == float(s[0])
    ntot = number_operator(b, [0, 1])
    assert np.array_equal(ntot.entries, n0.entries + number_operator(b, [1]).entries)
    # on a fixed-number sector the total number operator is a constant
    sec = enumerate_basis(b.lattice, 2, sector=2)
    assert np.array_equal(
        number_operator(sec, [0, 1]).entries, np.full(sec.dim, 2.0)
    )


def test_diagonal_operator_validation():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 1)
    with pytest.raises(ValueError):
        DiagonalOperator(b, np.ones(b.dim + 1))
    other = enumerate_basis(g, 2)
    with pytest.raises(ValueError):
        number_operator(b, [0]).compose(number_operator(other, [0]))
    # entries reach 2, so the number operator is not a projector there
    assert not number_operator(other, [0]).is_projector()


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_projector_idempotence(a, bq, c):
    g = build_lattice("chain", [3])
    basis = enumerate_basis(g, 2)
    p = truncation_projector(basis, [([0], a), ([1], bq), ([0, 2], c)])
    assert p.is_projector()
    assert np.array_equal(p.compose(p).entries, p.entries)


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
