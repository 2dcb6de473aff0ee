"""The basis's hop table: its entries, its reuse, and the matrices built from it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from boselab import model
from boselab.approx import halo, quench_step_unitary
from boselab.fock import FockBasis, enumerate_basis, truncation_projector
from boselab.lattice import build_lattice
from boselab.model import (
    HamiltonianSpec,
    Interaction,
    Monomial,
    assemble_hamiltonian,
    bose_hubbard,
)
from helpers import oracle_hamiltonian, oracle_is_hermitian, oracle_rank

_LATTICES = [
    ("chain", [1]), ("chain", [2]), ("chain", [3]), ("chain", [4]),
    ("ring", [3]), ("ring", [4]), ("grid", [2, 2]), ("grid", [2, 3]),
    # long-span edges: (0, n - 1) on rings, rows apart on grids
    ("ring", [5]), ("ring", [6]), ("grid", [3, 3]), ("grid", [2, 4]),
]
_PRODUCT_DIM_MAX = 300


@st.composite
def lattice_bases(draw) -> FockBasis:
    """Chains, rings and grids with per-site cutoffs 1 to 3, as product bases
    or in a sector; large product spaces are always cut to a sector."""
    kind, dims = draw(st.sampled_from(_LATTICES))
    g = build_lattice(kind, dims)
    cutoffs = draw(st.lists(st.integers(1, 3), min_size=g.site_count, max_size=g.site_count))
    top = sum(cutoffs)
    sectors = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
    if np.prod([c + 1 for c in cutoffs]) <= _PRODUCT_DIM_MAX:
        sectors = st.one_of(st.none(), sectors)
    return enumerate_basis(g, cutoffs, sector=draw(sectors))


def random_spec(g, seed: int) -> HamiltonianSpec:
    rng = np.random.default_rng(seed)
    hoppings = tuple((i, j, float(rng.uniform(-1, 1))) for i, j in g.edges)
    terms = tuple(
        Interaction((i,), (Monomial(float(rng.normal()), (2,)), Monomial(float(rng.normal()), (1,))))
        for i in g.sites
    )
    J_bar = max((abs(J) for _, _, J in hoppings), default=0.0)
    return HamiltonianSpec(g, hoppings, terms, k_max=1, J_bar=J_bar)


def restricted_spec(spec: HamiltonianSpec, hop_region, int_region) -> HamiltonianSpec:
    """The hoppings inside hop_region and the interactions inside int_region."""
    return HamiltonianSpec(
        spec.lattice,
        tuple(h for h in spec.hoppings if h[0] in hop_region and h[1] in hop_region),
        tuple(t for t in spec.interactions if set(t.region) <= set(int_region)),
        spec.k_max,
        spec.J_bar,
    )


def sandwiched(mat, entries) -> sparse.csr_matrix:
    """D mat D for D = diag(entries), stored the way assembly stores it."""
    D = sparse.diags(entries)
    out = sparse.csr_matrix(D @ mat @ D, dtype=np.complex128)
    out.eliminate_zeros()
    return out


def assert_same_csr(a, b):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@given(lattice_bases())
@settings(max_examples=60, deadline=None)
def test_hop_table_matches_loop_reference(b):
    row, targets = b.hop_targets
    assert targets.dtype == np.int32
    assert targets.shape == (2 * len(b.lattice.edges), b.dim)
    on_edge = np.zeros_like(row, dtype=bool)
    for i, j in b.lattice.edges:
        for src, dst in ((i, j), (j, i)):
            on_edge[src, dst] = True
            moved = b.states.astype(np.int64)
            moved[:, src] -= 1
            moved[:, dst] += 1
            assert np.array_equal(targets[row[src, dst]], oracle_rank(b, moved))
    assert np.all(row[~on_edge] == -1)
    assert sorted(row[on_edge].tolist()) == list(range(targets.shape[0]))


@given(lattice_bases())
@settings(max_examples=60, deadline=None)
def test_column_order_sorts_every_row(b):
    """Hop targets laid out in the basis's column order rise along every row."""
    row, targets = b.hop_targets
    edges = [e for i, j in b.lattice.edges for e in ((i, j), (j, i))]
    slots = b.column_order(edges)
    assert sorted(e for e in slots if e is not None) == sorted(edges)
    assert slots.count(None) == 1
    cols = np.stack([
        np.arange(b.dim) if e is None else targets[row[e]] for e in slots
    ]).astype(np.int64)
    # the largest column so far in each row; -1 (out of the basis) never raises it
    seen = np.maximum.accumulate(cols, axis=0)
    valid = cols[1:] >= 0
    assert np.all(cols[1:][valid] > seen[:-1][valid])


@given(lattice_bases(), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_repeated_assemblies_are_bit_identical_to_references(b, seed, data):
    """Every assembly on one basis reads its one table and matches the loop reference."""
    g = b.lattice
    spec = random_spec(g, seed)
    full = oracle_hamiltonian(spec, b)
    site = data.draw(st.sampled_from(list(g.sites)))
    X = sorted(data.draw(st.sets(st.sampled_from(list(g.sites)), min_size=1)))
    # 0 to 2 regions, each possibly empty, possibly overlapping
    scheme = [
        (sorted(data.draw(st.sets(st.sampled_from(list(g.sites))))), data.draw(st.integers(0, 3)))
        for _ in range(data.draw(st.integers(0, 2)))
    ]

    assert_same_csr(assemble_hamiltonian(spec, b).matrix, full)
    assert_same_csr(
        assemble_hamiltonian(spec, b, hop_sites=X, int_sites=X).matrix,
        oracle_hamiltonian(restricted_spec(spec, X, X), b),
    )
    assert_same_csr(
        assemble_hamiltonian(spec, b, truncation=scheme).matrix,
        sandwiched(full, truncation_projector(b, scheme)),
    )

    h = Interaction((site,), (Monomial(0.5, (2,)),))
    quenched = HamiltonianSpec(g, spec.hoppings, (*spec.interactions, h), spec.k_max, spec.J_bar)
    q, qprime = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    ell0 = data.draw(st.integers(1, 2))
    step = quench_step_unitary(spec, h, b, [site], ell0, q, qprime, 0.1)
    regions = halo(g, [site], ell0, spec.k_max)
    L1, L2 = set(regions.L1), set(regions.L2)
    live = [(sorted(r), c) for r, c in ((L2 - L1, q), (L1, qprime)) if r]
    local = oracle_hamiltonian(restricted_spec(spec, regions.L2p, L2), b)
    local_quenched = oracle_hamiltonian(restricted_spec(quenched, regions.L2p, L2), b)
    entries = truncation_projector(b, live)  # L1 is never empty
    (B, _), (A, _) = step.factors
    assert_same_csr(B.matrix, sandwiched(local, entries))
    assert_same_csr(A.matrix, sandwiched(local_quenched, entries))

    assert_same_csr(assemble_hamiltonian(spec, b).matrix, full)


@pytest.fixture
def rank_calls(monkeypatch):
    """The id of the basis of every FockBasis.rank call."""
    calls = []
    rank = FockBasis.rank

    def counting(self, occ):
        calls.append(id(self))
        return rank(self, occ)

    monkeypatch.setattr(FockBasis, "rank", counting)
    return calls


def sector_setup():
    g = build_lattice("chain", [5])
    return bose_hubbard(g, 1.0, 2.0), enumerate_basis(g, 2, sector=5)


def test_second_assembly_ranks_nothing(rank_calls):
    """The table and every assembly on the basis make no rank call at all."""
    spec, b = sector_setup()
    h = Interaction((2,), (Monomial(0.5, (2,)),))
    rank_calls.clear()
    b.hop_targets
    first = assemble_hamiltonian(spec, b)
    second = assemble_hamiltonian(spec, b)
    assemble_hamiltonian(spec, b, hop_sites=[1, 2, 3], int_sites=[1, 2, 3])
    assemble_hamiltonian(spec, b, truncation=[([2], 1)])
    quench_step_unitary(spec, h, b, [2], 1, 1, 1, 0.1)
    assert rank_calls == []
    assert_same_csr(first.matrix, second.matrix)


def assert_flags_match_oracles(op):
    """``op``'s flags follow the whole-matrix rules, and its arrays are ``_wrap``'s."""
    mat = op.matrix
    rows = np.repeat(np.arange(op.dim), np.diff(mat.indptr))
    assert op.hermitian == oracle_is_hermitian(mat)
    assert op.is_diagonal == bool(np.all(rows == mat.indices))
    assert_same_csr(mat, model._wrap(op.basis, mat, op.support).matrix)


@given(lattice_bases(), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_assembled_flags_match_the_oracles(b, seed, data):
    """Every assembly is Hermitian by construction and takes ``is_diagonal``
    from its row slots; both flags equal the whole-matrix rules, each matrix
    equals its conjugate transpose entry for entry, and the arrays equal
    ``_wrap``'s, for the full H, a region's H, a truncated H and the two
    quench generators."""
    g = b.lattice
    spec = random_spec(g, seed)
    X = sorted(data.draw(st.sets(st.sampled_from(list(g.sites)), min_size=1)))
    scheme = [(X, data.draw(st.integers(0, 3)))]
    site = data.draw(st.sampled_from(list(g.sites)))
    h = Interaction((site,), (Monomial(0.5, (2,)),))
    step = quench_step_unitary(spec, h, b, [site], data.draw(st.integers(1, 2)), 1, 2, 0.1)
    ops = [
        assemble_hamiltonian(spec, b),
        assemble_hamiltonian(spec, b, hop_sites=X, int_sites=X),
        assemble_hamiltonian(spec, b, truncation=scheme),
        *(G for G, _ in step.factors),
    ]
    for op in ops:
        assert_flags_match_oracles(op)
        # the exact symmetry that ``hermitian=True`` rests on
        assert (op.matrix != op.matrix.getH()).nnz == 0


def test_hop_table_is_read_only():
    _, b = sector_setup()
    row, targets = b.hop_targets
    with pytest.raises(ValueError):
        targets[0, 0] = 0
    with pytest.raises(ValueError):
        row[0, 1] = 0
    assert b.hop_targets[1] is targets


def test_fresh_basis_builds_its_own_table(rank_calls):
    spec, b = sector_setup()
    _, other = sector_setup()
    assemble_hamiltonian(spec, b)
    assemble_hamiltonian(spec, other)
    assert rank_calls == []
    assert other.hop_targets[1] is not b.hop_targets[1]
    assert np.array_equal(other.hop_targets[1], b.hop_targets[1])
    assert other.hop_targets[0] is not b.hop_targets[0]
    assert np.array_equal(other.hop_targets[0], b.hop_targets[0])


@given(lattice_bases(), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=30, deadline=None)
def test_edge_listed_twice_adds_each_listing(b, seed, data):
    """A hopping listed twice, with another J and either orientation, adds
    J * amp per listing rather than the summed J times amp.  (Three listings
    are not compared: the oracle's CSR conversion sums duplicates in the
    order its index sort leaves them, which is not fixed for long rows.)"""
    g = b.lattice
    spec = random_spec(g, seed)
    extra = ()
    if g.edges:
        i, j = data.draw(st.sampled_from(g.edges))
        J = float(np.random.default_rng(seed + 1).uniform(-1, 1))
        extra = ((j, i, J) if data.draw(st.booleans()) else (i, j, J),)
    again = HamiltonianSpec(g, spec.hoppings + extra, spec.interactions, spec.k_max, J_bar=1.0)
    assert_same_csr(assemble_hamiltonian(again, b).matrix, oracle_hamiltonian(again, b))


def test_cancelling_listings_leave_no_entry():
    g = build_lattice("chain", [3])
    b = enumerate_basis(g, 2, sector=3)
    spec = HamiltonianSpec(g, ((0, 1, 0.3), (1, 0, -0.3), (1, 2, 1.0)), (), 1, J_bar=1.0)
    H = assemble_hamiltonian(spec, b).matrix
    assert_same_csr(H, oracle_hamiltonian(spec, b))
    occ = b.states
    moved = occ[H.nonzero()[0]] != occ[H.nonzero()[1]]
    assert not np.any(moved[:, 0])
