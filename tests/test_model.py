"""Hamiltonian assembly, locality helpers, and operator wrappers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from boselab.fock import (
    enumerate_basis,
    number_operator,
    region_total_projector,
    truncation_projector,
)
from boselab.lattice import build_lattice
from boselab.model import (
    HamiltonianSpec,
    Interaction,
    Monomial,
    assemble_hamiltonian,
    bose_hubbard,
    creation_degree,
    local_operator,
)
from boselab.model import HERMITICITY_RTOL, _check_hermitian, _wrap, _wrap_diagonal
from helpers import (
    oracle_custom_matrix,
    oracle_hamiltonian,
    oracle_is_hermitian,
    oracle_ladder,
    oracle_support,
    random_hermitian,
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
    full = assemble_hamiltonian(spec, b, hop_sites=g.sites, int_sites=g.sites)
    assert (full.matrix - assemble_hamiltonian(spec, b).matrix).nnz == 0

    X = [0, 1, 2]
    HX = assemble_hamiltonian(spec, b, hop_sites=X, int_sites=X)
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
        assemble_hamiltonian(spec, b, hop_sites=X, int_sites=X).matrix
        + assemble_hamiltonian(spec, b, hop_sites=Xc, int_sites=Xc).matrix
        + assemble_hamiltonian(crossing, b).matrix
    )
    assert (total - assemble_hamiltonian(spec, b).matrix).nnz == 0


def test_effective_hamiltonian_trivial_schemes():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2)
    spec = bose_hubbard(g, J=1.0, U=2.0)
    H = assemble_hamiltonian(spec, b).matrix
    assert (assemble_hamiltonian(spec, b, truncation=[]).matrix - H).nnz == 0
    assert (assemble_hamiltonian(spec, b, truncation=[(list(g.sites), 2)]).matrix - H).nnz == 0


def test_effective_hamiltonian_is_projected_sandwich():
    g = build_lattice("chain", [4])
    b = enumerate_basis(g, 3)
    spec = bose_hubbard(g, J=1.0, U=1.0, mu=0.2)
    scheme = [([1, 2], 1)]
    Ht = assemble_hamiltonian(spec, b, truncation=scheme)
    mask = truncation_projector(b, scheme)
    H = assemble_hamiltonian(spec, b).dense()
    expected = (mask[:, None] * H) * mask[None, :]
    assert np.allclose(Ht.dense(), expected, atol=1e-14)
    # idempotent under its own compression
    again = (mask[:, None] * Ht.dense()) * mask[None, :]
    assert np.array_equal(again, Ht.dense())


def test_effective_hamiltonian_vacuum_scheme_kills_hopping():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2)
    Ht = assemble_hamiltonian(bose_hubbard(g, J=1.0, U=3.0), b, truncation=[(list(g.sites), 0)])
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
    Ht = assemble_hamiltonian(spec, b, truncation=[(Lt, q)]).matrix.tocoo()
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


@pytest.mark.parametrize("site", [-1, 3])
@pytest.mark.parametrize(
    "kind, kwargs",
    [
        ("number", {}),
        ("projector", {"predicate": ("==", 1)}),
        ("creation", {}),
        ("annihilation", {}),
        ("custom-matrix", {"matrix": np.eye(3)}),
    ],
)
def test_local_operator_refuses_sites_outside_the_lattice(kind, kwargs, site):
    # -1 would declare support {-1} and index the last site's cutoff
    b = enumerate_basis(build_lattice("chain", [3]), 2)
    with pytest.raises(ValueError, match=f"site {site} out of range"):
        local_operator(kind, [site], b, **kwargs)


@pytest.mark.parametrize("sector", [None, 3])
@pytest.mark.parametrize(
    "kind, sites, predicate",
    [
        ("number", [1], None),
        ("number", [0, 2], None),
        ("projector", [1], ("==", 1)),
        ("projector", [0, 2], ("<=", 1)),
    ],
)
def test_number_and_projector_supports_hold_by_construction(kind, sites, predicate, sector):
    # the declared support covers the oracle's on every basis; on product
    # bases, where the oracle also sees diagonal dependence, they are equal
    b = enumerate_basis(build_lattice("chain", [3]), 2, sector=sector)
    op = local_operator(kind, sites, b, predicate=predicate)
    assert op.support == frozenset(sites)
    if sector is None:
        assert oracle_support(op.matrix, b) == op.support
    else:
        assert oracle_support(op.matrix, b) <= op.support


@pytest.mark.parametrize("sector", [None, 3])
@pytest.mark.parametrize(
    "kind, sites, predicate",
    [
        ("number", [1], None),
        ("number", [0, 2], None),
        ("projector", [1], ("==", 1)),
        ("projector", [0, 2], ("<=", 1)),
        ("projector", [0], (">=", 3)),  # empty: above the cutoff
    ],
)
def test_number_and_projector_equal_their_wrapped_diagonals(kind, sites, predicate, sector):
    # built straight from the diagonal, they store what _wrap stores for sparse.diags(d)
    b = enumerate_basis(build_lattice("chain", [3]), 2, sector=sector)
    op = local_operator(kind, sites, b, predicate=predicate)
    if kind == "number":
        d = number_operator(b, sites)
    else:
        d = region_total_projector(b, sites, predicate)
    ref = _wrap(b, sparse.diags(d), sites)
    for name in ("indptr", "indices", "data"):
        got, expect = getattr(op.matrix, name), getattr(ref.matrix, name)
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)
    assert (op.hermitian, op.is_diagonal) == (ref.hermitian, ref.is_diagonal)
    assert op.support == ref.support


@pytest.mark.parametrize("imag", [0.0, 0.4 * HERMITICITY_RTOL, 0.6 * HERMITICITY_RTOL, 0.3])
def test_wrapped_diagonal_hermiticity_matches_the_sparse_check(imag):
    # 2 |Im d| against the tolerance, as _check_hermitian sees a diagonal
    b = enumerate_basis(build_lattice("chain", [2]), 2)
    d = np.linspace(-1.0, 1.0, b.dim) + 1j * imag * (np.arange(b.dim) % 2)
    op = _wrap_diagonal(b, d, [0, 1])
    ref = _wrap(b, sparse.diags(d), [0, 1])
    assert op.hermitian == ref.hermitian == (2 * imag <= HERMITICITY_RTOL)
    assert np.array_equal(op.matrix.data, ref.matrix.data)
    assert np.array_equal(op.matrix.indices, ref.matrix.indices)


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


@pytest.mark.parametrize("X, site", [([0, -1], -1), ([0, 3], 3)])
def test_creation_degree_refuses_a_site_outside_the_lattice(X, site):
    # site -1 used to sum in site 2, and site 3 to raise a bare IndexError
    b = enumerate_basis(build_lattice("chain", [3]), 2)
    with pytest.raises(ValueError, match=f"site {site} out of range"):
        creation_degree(local_operator("creation", [0], b), X)


def test_creation_degree_unbounded():
    g = build_lattice("chain", [1])
    b = enumerate_basis(g, 2)
    m = np.zeros((3, 3))
    m[2, 0] = 1.0  # raises by the full attainable span
    assert creation_degree(local_operator("custom-matrix", [0], b, matrix=m), [0]) == (
        "unbounded"
    )


def test_creation_degree_on_a_sector_spans_the_sector_values():
    # a hop 1 -> 0 declared on X = {0}: n_0 gains one boson.  In the N = 2
    # sector of a 3-site chain n_0 spans 0..2, so the degree is 1; in the
    # N = 1 sector of a 2-site chain it spans 0..1, so one boson is all of it
    for n, sector, expect in ((3, 2, 1), (2, 1, "unbounded")):
        g = build_lattice("chain", [n])
        b = enumerate_basis(g, 2, sector=sector)
        spec = bose_hubbard(g, J=1.0, U=0.0)
        hop = assemble_hamiltonian(spec, b, hop_sites=[0, 1], int_sites=[])
        assert creation_degree(_wrap(b, hop.matrix, [0]), [0]) == expect


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
    assert oracle_support(H.matrix, b) <= H.support
    for i in g.sites:
        for kind in ("creation", "annihilation"):
            op = local_operator(kind, i, b)
            assert_same_csr(op.matrix, oracle_ladder(b, i, kind == "creation"))
            assert oracle_support(op.matrix, b) <= op.support


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
    # a diagonal with repeated values exercises the oracle's n_i-slice comparison
    for mat in (M, np.diag(rng.integers(0, 2, ldim).astype(complex))):
        op = local_operator("custom-matrix", sites, b, matrix=mat)
        assert_same_csr(op.matrix, oracle_custom_matrix(b, sites, mat))
        assert oracle_support(op.matrix, b) <= op.support


@pytest.mark.parametrize("sector", [None, 4])
@pytest.mark.parametrize(
    "kwargs, declared",
    [
        ({"hop_sites": [1, 2, 3], "int_sites": []}, {1, 2, 3}),
        ({"hop_sites": [], "int_sites": [0, 4]}, {0, 4}),
        ({"hop_sites": [0, 1], "int_sites": [0, 1], "truncation": [([3], 1)]}, {0, 1, 3}),
        ({"hop_sites": [0, 1], "int_sites": [0, 1, 4], "quench": 4}, {0, 1, 4}),
    ],
)
def test_assembled_supports_are_sound(kwargs, declared, sector):
    # the declared support covers every site the oracle sees acted on; on
    # product bases, where it also sees diagonal dependence, they are equal
    b = enumerate_basis(build_lattice("chain", [5]), 2, sector=sector)
    spec = bose_hubbard(b.lattice, J=1.0, U=1.0, mu=0.3)
    if "quench" in kwargs:
        # a quench term is the spec's last interaction, kept by int_sites
        kwargs = dict(kwargs)
        h = Interaction((kwargs.pop("quench"),), (Monomial(0.5, (2,)),))
        spec = dataclasses.replace(spec, interactions=(*spec.interactions, h))
    H = assemble_hamiltonian(spec, b, **kwargs)
    assert H.support == frozenset(declared)
    if sector is None:
        assert oracle_support(H.matrix, b) == H.support
    else:
        assert oracle_support(H.matrix, b) <= H.support


def test_is_diagonal_flag():
    b = enumerate_basis(build_lattice("chain", [3]), 2)
    H = assemble_hamiltonian(bose_hubbard(b.lattice, J=1.0, U=1.0), b)
    assert not H.is_diagonal
    assert assemble_hamiltonian(bose_hubbard(b.lattice, J=0.0, U=1.0), b).is_diagonal
    assert local_operator("number", [1], b).is_diagonal
    assert not local_operator("creation", 1, b).is_diagonal


@pytest.mark.parametrize("scale", [1e-3, 1.0, 250.0])
def test_hermiticity_check_matches_reference(scale):
    A = scale * random_hermitian(12, seed=3)
    A[np.abs(A) < 0.3 * scale] = 0.0  # leave the sparsity pattern irregular
    top = max(np.abs(A).max(), 1.0)  # the rule's scale floor is 1
    cases = {"hermitian": (A, True), "zero": (np.zeros_like(A), True)}
    skew = A.copy()
    skew[0, 5] += 0.1 * top
    cases["non-hermitian"] = (skew, False)
    for name, factor, want in (("inside", 0.9, True), ("outside", 1.1, False)):
        M = A.copy()
        M[2, 7] += factor * HERMITICITY_RTOL * top
        cases[name] = (M, want)
    g = build_lattice("chain", [4])
    H = assemble_hamiltonian(bose_hubbard(g, J=scale, U=scale), enumerate_basis(g, 2))
    cases["bose-hubbard"] = (H.matrix, True)
    for name, (M, want) in cases.items():
        mat = sparse.csr_matrix(M, dtype=np.complex128)
        assert _check_hermitian(mat) == oracle_is_hermitian(mat) == want, name


def test_spec_rejects_non_finite_hopping():
    g = build_lattice("chain", [3])
    for J in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            HamiltonianSpec(g, ((0, 1, J),), (), k_max=1, J_bar=np.inf)


def test_spec_rejects_complex_values_by_term():
    """A complex J or a complex or non-finite monomial coefficient is refused,
    with its term named, before assembly meets it in real arithmetic; a zero
    imaginary part counts."""
    g = build_lattice("chain", [3])
    for J in (1.0 + 0.5j, np.complex128(1.0)):
        with pytest.raises(ValueError, match=r"J_01=.* is not real"):
            HamiltonianSpec(g, ((0, 1, J),), (), k_max=1, J_bar=2.0)
    for c in (0.5j, np.nan, np.inf):
        term = Interaction((2,), (Monomial(1.0, (1,)), Monomial(c, (2,))))
        with pytest.raises(ValueError, match=r"interaction \(2,\): monomial coefficient .* finite real"):
            HamiltonianSpec(g, ((0, 1, 1.0),), (term,), k_max=1, J_bar=1.0)
    real = HamiltonianSpec(g, ((0, 1, np.float32(0.5)),), (), k_max=1, J_bar=1.0)
    assert assemble_hamiltonian(real, enumerate_basis(g, 1)).hermitian
