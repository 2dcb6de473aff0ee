"""Hamiltonian assembly, locality helpers, and operator wrappers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boselab.fock import enumerate_basis, truncation_projector
from boselab.lattice import build_lattice
from boselab.model import (
    HamiltonianSpec,
    Interaction,
    Monomial,
    assemble_hamiltonian,
    bose_hubbard,
    creation_degree,
    effective_hamiltonian,
    local_operator,
    subset_hamiltonian,
)
from boselab.model import diagonal_to_operator, operator_support
from helpers import (
    oracle_custom_matrix,
    oracle_hamiltonian,
    oracle_ladder,
    oracle_support,
    small_bases,
)


def two_site_basis(cutoff):
    return enumerate_basis(build_lattice("chain", [2]), cutoff)


def test_two_site_hopping_matrix():
    b = two_site_basis(1)
    H = assemble_hamiltonian(bose_hubbard(b.lattice, J=1.0, U=0.0), b)
    dense = H.dense()
    i01, i10 = b.index_of((0, 1)), b.index_of((1, 0))
    expected = np.zeros((4, 4))
    expected[i01, i10] = expected[i10, i01] = 1.0
    # (1,1) stays uncoupled: either hop would push a site past its cutoff
    assert np.array_equal(dense, expected)
    assert H.hermitian
    assert H.support == frozenset({0, 1})


def test_hopping_amplitude_entries():
    # <n0-1, n1+1| b_0 b_1^dag |n0, n1> = sqrt(n0 (n1+1))
    b = two_site_basis(3)
    H = assemble_hamiltonian(bose_hubbard(b.lattice, J=1.0, U=0.0), b).dense()
    for n0 in range(1, 4):
        for n1 in range(0, 3):
            amp = H[b.index_of((n0 - 1, n1 + 1)), b.index_of((n0, n1))]
            assert amp == pytest.approx(math.sqrt(n0 * (n1 + 1)), rel=1e-14)


def test_onsite_interaction_and_chemical_potential():
    b = two_site_basis(2)
    H = assemble_hamiltonian(bose_hubbard(b.lattice, J=0.0, U=1.0, mu=0.5), b)
    dense = H.dense()
    assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
    for s in b.states:
        expect = sum(0.5 * n * (n - 1) - 0.5 * n for n in s)
        assert dense[b.index_of(tuple(s)), b.index_of(tuple(s))] == pytest.approx(
            expect, abs=1e-14
        )


def test_empty_spec_gives_zero_matrix():
    b = two_site_basis(2)
    spec = HamiltonianSpec(b.lattice, (), (), k_max=1, J_bar=0.0)
    assert assemble_hamiltonian(spec, b).matrix.nnz == 0


def test_truncation_is_compression_of_larger_cutoff():
    g = build_lattice("chain", [2])
    small = enumerate_basis(g, 1)
    large = enumerate_basis(g, 3)
    spec = bose_hubbard(g, J=0.7, U=1.3, mu=0.2)
    H_small = assemble_hamiltonian(spec, small).dense()
    H_large = assemble_hamiltonian(spec, large).dense()
    keep = [large.index_of(tuple(int(x) for x in s)) for s in small.states]
    assert np.allclose(H_small, H_large[np.ix_(keep, keep)], atol=1e-15)


def test_number_conservation_is_exact():
    g = build_lattice("chain", [4])
    b = enumerate_basis(g, 2)
    H = assemble_hamiltonian(bose_hubbard(g, J=0.7, U=1.3, mu=0.2), b)
    n_tot = np.array([sum(s) for s in b.states], dtype=float)
    M = H.matrix.tocoo()
    # hopping moves exactly one boson, so [H, N] vanishes identically
    assert all(n_tot[i] == n_tot[j] for i, j in zip(M.row, M.col))
    assert H.hermitian


def test_spec_validation():
    g = build_lattice("chain", [4])
    with pytest.raises(ValueError):
        HamiltonianSpec(g, ((0, 2, 1.0),), (), k_max=1, J_bar=1.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(g, ((0, 1, 2.0),), (), k_max=1, J_bar=1.0)
    with pytest.raises(ValueError):
        HamiltonianSpec(
            g,
            (),
            (Interaction((0, 1), (Monomial(1.0, (1, 1)),)),),
            k_max=1,
            J_bar=0.0,
        )
    with pytest.raises(ValueError):
        Interaction((1, 0), (Monomial(1.0, (1, 1)),))
    with pytest.raises(ValueError):
        Interaction((0, 1), (Monomial(1.0, (1,)),))
    with pytest.raises(ValueError):
        Interaction((0,), (Monomial(1.0, (-1,)),))


def test_pair_interaction_entries():
    g = build_lattice("chain", [2])
    b = enumerate_basis(g, 2)
    spec = HamiltonianSpec(
        g,
        (),
        (Interaction((0, 1), (Monomial(0.25, (1, 2)),)),),
        k_max=2,
        J_bar=0.0,
    )
    dense = assemble_hamiltonian(spec, b).dense()
    for s in b.states:
        idx = b.index_of(tuple(s))
        assert dense[idx, idx] == pytest.approx(0.25 * s[0] * s[1] ** 2, abs=1e-14)


def test_subset_hamiltonian():
    g = build_lattice("chain", [6])
    b = enumerate_basis(g, 2)
    spec = bose_hubbard(g, J=1.0, U=2.0, mu=0.3)
    full = subset_hamiltonian(spec, b, g.sites)
    assert (full.matrix - assemble_hamiltonian(spec, b).matrix).nnz == 0

    X = [0, 1, 2]
    HX = subset_hamiltonian(spec, b, X)
    inner = HamiltonianSpec(
        g,
        tuple(h for h in spec.hoppings if h[0] in X and h[1] in X),
        tuple(t for t in spec.interactions if set(t.region) <= set(X)),
        spec.k_max,
        spec.J_bar,
    )
    assert (HX.matrix - assemble_hamiltonian(inner, b).matrix).nnz == 0
    assert HX.support <= frozenset(X)


def test_bulk_plus_boundary_reconstruction():
    g = build_lattice("chain", [5])
    b = enumerate_basis(g, 2)
    spec = bose_hubbard(g, J=0.8, U=1.5)
    X = [0, 1, 2]
    Xc = [3, 4]
    crossing = HamiltonianSpec(
        g,
        tuple(
            h for h in spec.hoppings
            if (h[0] in X) != (h[1] in X)
        ),
        (),
        spec.k_max,
        spec.J_bar,
    )
    total = (
        subset_hamiltonian(spec, b, X).matrix
        + subset_hamiltonian(spec, b, Xc).matrix
        + assemble_hamiltonian(crossing, b).matrix
    )
    assert (total - assemble_hamiltonian(spec, b).matrix).nnz == 0


def test_effective_hamiltonian_trivial_schemes():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2)
    spec = bose_hubbard(g, J=1.0, U=2.0)
    H = assemble_hamiltonian(spec, b).matrix
    assert (effective_hamiltonian(spec, b, []).matrix - H).nnz == 0
    assert (effective_hamiltonian(spec, b, [(list(g.sites), 2)]).matrix - H).nnz == 0


def test_effective_hamiltonian_is_projected_sandwich():
    g = build_lattice("chain", [4])
    b = enumerate_basis(g, 3)
    spec = bose_hubbard(g, J=1.0, U=1.0, mu=0.2)
    scheme = [([1, 2], 1)]
    Ht = effective_hamiltonian(spec, b, scheme)
    mask = truncation_projector(b, scheme).entries
    H = assemble_hamiltonian(spec, b).dense()
    expected = (mask[:, None] * H) * mask[None, :]
    assert np.allclose(Ht.dense(), expected, atol=1e-14)
    # idempotent under its own compression
    again = (mask[:, None] * Ht.dense()) * mask[None, :]
    assert np.array_equal(again, Ht.dense())


def test_effective_hamiltonian_vacuum_scheme_kills_hopping():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2)
    Ht = effective_hamiltonian(bose_hubbard(g, J=1.0, U=3.0), b, [(list(g.sites), 0)])
    # only the vacuum diagonal survives, and it is zero for this model
    assert Ht.matrix.nnz == 0


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_effective_hopping_amplitudes_capped(q):
    # occupations inside the truncated region stay <= q on both sides of a
    # surviving element, capping the region's ladder factor at sqrt(q)
    g = build_lattice("chain", [4])
    b = enumerate_basis(g, 5)
    spec = bose_hubbard(g, J=1.0, U=0.0)
    Lt = [1, 2]
    Ht = effective_hamiltonian(spec, b, [(Lt, q)]).matrix.tocoo()
    cap_inside = q + 1e-12
    cap_crossing = math.sqrt(q * 5.0) + 1e-12
    for i, j, v in zip(Ht.row, Ht.col, Ht.data):
        si, sj = b.states[i], b.states[j]
        changed = [a for a in range(4) if si[a] != sj[a]]
        touching = [a for a in changed if a in Lt]
        if len(touching) == 2:
            assert abs(v) <= cap_inside
        elif len(touching) == 1:
            assert abs(v) <= cap_crossing


def test_local_operator_number_and_ladder():
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 3)
    n = local_operator("number", [0], b)
    assert np.allclose(n.dense(), np.diag([0.0, 1.0, 2.0, 3.0]))
    bdag = local_operator("creation", [0], b)
    expect = np.zeros((4, 4))
    for k in range(3):
        expect[k + 1, k] = math.sqrt(k + 1)
    assert np.allclose(bdag.dense(), expect, atol=1e-15)
    ann = local_operator("annihilation", [0], b)
    assert np.allclose(ann.dense(), expect.T, atol=1e-15)
    assert not bdag.hermitian
    with pytest.raises(ValueError):
        local_operator("creation", [0, 1], two_site_basis(1))


def test_local_operator_projector():
    b = two_site_basis(2)
    p = local_operator("projector", [0, 1], b, predicate=("==", 2))
    diag = np.diag(p.dense())
    for s, v in zip(b.states, diag):
        assert v == (1.0 if s[0] + s[1] == 2 else 0.0)
    with pytest.raises(ValueError):
        local_operator("projector", [0], b)  # predicate required


def test_local_operator_custom_matrix_embedding():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2)
    rng = np.random.default_rng(11)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = m + m.conj().T
    O = local_operator("custom-matrix", [0, 2], b, matrix=m)
    dense = O.dense()
    # mixed-radix convention: local index = n0 * 3 + n2, site 1 untouched
    for a, sa in enumerate(b.states):
        for c, sc in enumerate(b.states):
            if sa[1] != sc[1]:
                assert dense[a, c] == 0.0
            else:
                assert dense[a, c] == pytest.approx(
                    m[sa[0] * 3 + sa[2], sc[0] * 3 + sc[2]], rel=1e-14
                )
    assert O.support == frozenset({0, 2})
    assert O.hermitian


def test_local_operator_custom_matrix_validation():
    b = two_site_basis(1)
    with pytest.raises(ValueError):
        local_operator("custom-matrix", [0], b, matrix=np.eye(3))
    with pytest.raises(ValueError):
        local_operator(
            "custom-matrix", [0], b, matrix=np.diag([1.0, 2.0]), unitary=True
        )
    phase = np.diag(np.exp(1j * 0.7 * np.arange(2)))
    u = local_operator("custom-matrix", [0], b, matrix=phase, unitary=True)
    assert np.allclose(u.dense() @ u.dense().conj().T, np.eye(4), atol=1e-12)


def test_operator_support_is_computed_on_product_bases():
    from boselab.fock import DiagonalOperator

    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2)
    n1 = local_operator("number", [1], b)
    assert n1.support == frozenset({1})
    d = DiagonalOperator(b, np.array([float(s[2]) for s in b.states]))
    assert diagonal_to_operator(d).support == frozenset({2})


def test_declared_support_is_verified():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2)
    from boselab.fock import DiagonalOperator

    d = DiagonalOperator(b, np.array([float(s[0]) for s in b.states]))
    with pytest.raises(ValueError):
        diagonal_to_operator(d, support=[1])  # really acts on site 0
    ok = diagonal_to_operator(d, support=[0, 1])  # superset is allowed
    assert frozenset({0}) <= ok.support


def test_creation_degree():
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 4)
    assert creation_degree(local_operator("number", [0], b), [0]) == 0
    assert creation_degree(local_operator("creation", [0], b), [0]) == 1
    m = np.zeros((5, 5))
    m[2, 0] = 1.0  # |2><0|
    assert creation_degree(local_operator("custom-matrix", [0], b, matrix=m), [0]) == 2
    raising2 = local_operator("creation", [0], b).matrix @ local_operator(
        "creation", [0], b
    ).matrix
    O2 = local_operator("custom-matrix", [0], b, matrix=raising2.toarray())
    assert creation_degree(O2, [0]) == 2


def test_creation_degree_support_violation():
    b = two_site_basis(1)
    O = local_operator("number", [1], b)
    with pytest.raises(ValueError):
        creation_degree(O, [0])


def test_creation_degree_unbounded():
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 2)
    m = np.zeros((3, 3))
    m[2, 0] = 1.0  # raises by the full attainable span
    assert creation_degree(local_operator("custom-matrix", [0], b, matrix=m), [0]) == (
        "unbounded"
    )


def test_ladder_commutes_through_number_polynomial():
    # [b, f(n)] = (f(n+1) - f(n)) b for a sample polynomial
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 8)
    ann = local_operator("annihilation", [0], b).dense()
    n = np.diag(np.arange(9.0))
    f = lambda x: 0.3 * x @ x @ x - 1.2 * x @ x + 0.7 * x + 2.0 * np.eye(9)
    lhs = ann @ f(n) - f(n) @ ann
    rhs = (f(n + np.eye(9)) - f(n)) @ ann
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_non_hermitian_flagged():
    b = two_site_basis(1)
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    O = local_operator("custom-matrix", [0], b, matrix=m)
    assert not O.hermitian


def assert_same_csr(a, b):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@given(small_bases(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_assembly_is_bit_identical_to_loop_reference(b, seed):
    rng = np.random.default_rng(seed)
    g = b.lattice
    hoppings = tuple((i, j, float(rng.uniform(-1, 1))) for i, j in g.edges)
    terms = tuple(
        Interaction((i,), (Monomial(float(rng.normal()), (2,)), Monomial(float(rng.normal()), (1,))))
        for i in g.sites
    )
    J_bar = max((abs(J) for _, _, J in hoppings), default=0.0)
    spec = HamiltonianSpec(g, hoppings, terms, k_max=1, J_bar=J_bar)
    H = assemble_hamiltonian(spec, b)
    assert_same_csr(H.matrix, oracle_hamiltonian(spec, b))
    assert operator_support(H.matrix, b) == oracle_support(H.matrix, b)
    for i in g.sites:
        for kind in ("creation", "annihilation"):
            op = local_operator(kind, i, b)
            assert_same_csr(op.matrix, oracle_ladder(b, i, kind == "creation"))
            assert operator_support(op.matrix, b) == oracle_support(op.matrix, b)


@given(small_bases(max_sites=3), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_custom_matrix_is_bit_identical_to_loop_reference(b, seed, data):
    sites = sorted(
        data.draw(st.sets(st.sampled_from(range(b.n_sites)), min_size=1, max_size=2))
    )
    ldim = math.prod(b.site_cutoffs[i] + 1 for i in sites)
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((ldim, ldim)) + 1j * rng.standard_normal((ldim, ldim))
    M *= rng.random((ldim, ldim)) < 0.4
    # a diagonal with repeated values exercises the n_i-slice comparison
    for mat in (M, np.diag(rng.integers(0, 2, ldim).astype(complex))):
        op = local_operator("custom-matrix", sites, b, matrix=mat)
        assert_same_csr(op.matrix, oracle_custom_matrix(b, sites, mat))
        assert operator_support(op.matrix, b) == oracle_support(op.matrix, b)


def test_is_diagonal_flag():
    b = enumerate_basis(build_lattice("chain", [3]), 2)
    H = assemble_hamiltonian(bose_hubbard(b.lattice, J=1.0, U=1.0), b)
    assert not H.is_diagonal
    assert assemble_hamiltonian(bose_hubbard(b.lattice, J=0.0, U=1.0), b).is_diagonal
    assert local_operator("number", [1], b).is_diagonal
    assert not local_operator("creation", 1, b).is_diagonal
