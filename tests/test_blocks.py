"""Particle-number blocks: the basis partition, each operator's ΔN, and the
per-block dense paths checked against whole-matrix oracles."""

import numpy as np
import pytest
from hypothesis import given, settings

from boselab import evolve as evolve_mod
from boselab.approx import approximate_heisenberg, local_step_unitary, quench_step_unitary
from boselab.evolve import _heisenberg_stack, spectral_norm
from boselab.fock import enumerate_basis
from boselab.lattice import build_lattice
from boselab.model import (
    Interaction,
    Monomial,
    _wrap,
    assemble_hamiltonian,
    bose_hubbard,
    local_operator,
)
from boselab.probes import commutator_norms
from helpers import (
    basis_vectors,
    oracle_commutator_norms,
    oracle_heisenberg,
    oracle_step,
    random_state,
    small_bases,
)

TOL = 1e-12

# on one site with cutoff 2: entries with ΔN = +1 and -1 (Hermitian), and
# with ΔN = +1 and -2 (not Hermitian)
MIXING_HERMITIAN = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
MIXING = np.array([[0, 0, 1], [1, 0, 0], [0, 0, 0]], dtype=float)


def setup(sector=None):
    g = build_lattice("chain", [4])
    b = enumerate_basis(g, 2, sector=sector)
    H = assemble_hamiltonian(bose_hubbard(g, J=1.0, U=0.7, mu=0.2), b)
    return b, H


def probe(kind, b, site=1):
    if kind == "phase":
        phases = np.exp(1j * 0.4 * np.arange(b.site_cutoffs[site] + 1))
        return local_operator("custom-matrix", [site], b, matrix=np.diag(phases), unitary=True)
    if kind == "mixing":
        return local_operator("custom-matrix", [site], b, matrix=MIXING)
    if kind == "mixing-hermitian":
        return local_operator("custom-matrix", [site], b, matrix=MIXING_HERMITIAN)
    return local_operator(kind, [site], b)


def mixing_hamiltonian(b, H):
    """H plus a Hermitian term that changes N, so its ΔN is None."""
    term = probe("mixing-hermitian", b, site=2)
    return _wrap(b, H.matrix + 0.3 * term.matrix, H.support | term.support)


# -- blocks and ΔN ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(small_bases())
def test_blocks_partition_the_basis_by_total_number(b):
    totals = b.states.sum(axis=1)
    assert list(b.blocks) == sorted(set(totals.tolist()))
    assert sum(idx.size for idx in b.blocks.values()) == b.dim
    assert np.array_equal(np.sort(np.concatenate(list(b.blocks.values()))), np.arange(b.dim))
    for N, idx in b.blocks.items():
        assert np.all(totals[idx] == N)
        assert np.all(np.diff(idx) > 0)
    if b.sector is not None:
        assert list(b.blocks) == [b.sector]
        assert np.array_equal(b.blocks[b.sector], np.arange(b.dim))


def test_blocks_are_built_once_and_read_only():
    b, _ = setup()
    assert b.blocks is b.blocks
    assert [idx.size for idx in b.blocks.values()] == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    with pytest.raises(ValueError):
        b.blocks[0][0] = 1


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("hamiltonian", 0),
        ("number", 0),
        ("projector", 0),
        ("density", 0),
        ("phase", 0),
        ("creation", 1),
        ("annihilation", -1),
        ("mixing", None),
        ("mixing-hermitian", None),
        ("mixing-hamiltonian", None),
    ],
)
def test_delta_n_on_a_product_basis(kind, expected):
    b, H = setup()
    if kind == "hamiltonian":
        op = H
    elif kind == "projector":
        op = local_operator("projector", [1, 2], b, predicate=("<=", 1))
    elif kind == "density":
        op = local_operator("number", [0, 3], b)
    elif kind == "mixing-hamiltonian":
        op = mixing_hamiltonian(b, H)
    else:
        op = probe(kind, b)
    assert op.delta_n == expected


@pytest.mark.parametrize("kind", ["number", "creation", "annihilation", "phase", "mixing"])
def test_every_operator_keeps_a_sector_basis_block(kind):
    # moves out of the sector are dropped, so nothing changes N inside it
    b, H = setup(sector=4)
    assert H.delta_n == 0
    assert probe(kind, b).delta_n == 0


def test_assembly_computes_neither_blocks_nor_delta_n():
    b, H = setup()
    assert "blocks" not in vars(b)
    assert "delta_n" not in vars(H)


# -- per-block dense paths against whole-matrix oracles ------------------------


PROBES = ["number", "creation", "annihilation", "phase", "mixing", "mixing-hermitian"]
CASES = [
    ("product", "conserving"),
    ("product", "mixing"),
    ("sector", "conserving"),
]


def case(basis_kind, h_kind):
    b, H = setup(sector=4 if basis_kind == "sector" else None)
    return b, (mixing_hamiltonian(b, H) if h_kind == "mixing" else H)


def test_an_operator_hermitian_only_within_tolerance_is_one_whole_block():
    # entries far below the Hermiticity tolerance, all raising N by one: the
    # check calls it Hermitian, yet its N-blocks would not be square
    b, _ = setup()
    up = probe("creation", b)
    H = _wrap(b, 1e-16 * up.matrix, up.support)
    assert H.hermitian and H.delta_n == 1
    Q, _ = evolve_mod._eigenbasis(H)
    assert Q.whole
    O = probe("number", b)
    np.testing.assert_allclose(_heisenberg_stack(H, O, [0.3]).dense()[0], O.dense(), atol=TOL)
    assert spectral_norm(H) < TOL


@pytest.mark.parametrize("basis_kind, h_kind", CASES)
@pytest.mark.parametrize("kind", PROBES)
def test_heisenberg_matches_the_whole_matrix_oracle(basis_kind, h_kind, kind):
    b, H = case(basis_kind, h_kind)
    O = probe(kind, b, site=0)
    got = _heisenberg_stack(H, O, [0.8])
    np.testing.assert_allclose(got.dense()[0], oracle_heisenberg(H, O, 0.8), atol=TOL)
    if h_kind == "conserving":
        assert got.shift == (O.delta_n or 0) and got.whole == (O.delta_n is None)


@pytest.mark.parametrize("basis_kind, h_kind", CASES)
@pytest.mark.parametrize("a_kind", ["number", "creation", "mixing-hermitian"])
@pytest.mark.parametrize("t", [0.0, 0.6])
def test_commutator_norms_match_the_whole_matrix_oracle(basis_kind, h_kind, a_kind, t):
    b, H = case(basis_kind, h_kind)
    O_A = probe(a_kind, b, site=0)
    O_Bs = [probe(kind, b, site=i) for kind in PROBES for i in (0, 3)]
    got = commutator_norms(H, O_A, O_Bs, t)
    np.testing.assert_allclose(got, oracle_commutator_norms(H, O_A, O_Bs, t), rtol=0, atol=TOL)


@pytest.mark.parametrize("basis_kind, h_kind", CASES)
@pytest.mark.parametrize("a_kind", ["number", "creation", "annihilation", "mixing-hermitian"])
def test_commutator_norms_over_a_grid_equal_one_time_calls(basis_kind, h_kind, a_kind):
    # O_A with ΔN 0, +1, -1 and None against probes of every ΔN; the grid is
    # unsorted and repeats a time, and its norms are the one-time calls' bits
    b, H = case(basis_kind, h_kind)
    O_A = probe(a_kind, b, site=0)
    O_Bs = [probe(kind, b, site=i) for kind in PROBES for i in (0, 3)]
    grid = [0.6, 0.0, -0.35, 0.6, 1.2]
    got = commutator_norms(H, O_A, O_Bs, grid)
    assert got == [commutator_norms(H, O_A, O_Bs, t) for t in grid]
    assert all(isinstance(x, float) for x in commutator_norms(H, O_A, O_Bs, 0.6))


# -- diagonal probes: entrywise commutators and 0/1 off-diagonal parts ----------


def diagonal_case(cutoff, basis_kind, h_kind):
    """Chain 4 at ``cutoff`` (1: hard-core), H real conserving, N-mixing or complex."""
    g = build_lattice("chain", [4])
    sector = None if basis_kind == "product" else 2 * cutoff
    b = enumerate_basis(g, cutoff, sector=sector)
    H = assemble_hamiltonian(bose_hubbard(g, J=1.0, U=0.7, mu=0.2), b)
    if h_kind == "mixing":
        # b_2 + b_2^dagger clipped at the cutoff: Hermitian, ΔN = ±1
        up = np.eye(cutoff + 1, k=-1)
        term = local_operator("custom-matrix", [2], b, matrix=up + up.T)
        H = _wrap(b, H.matrix + 0.3 * term.matrix, H.support | term.support)
    elif h_kind == "complex":
        # i b_0^dagger b_1 + h.c.: Hermitian, conserving, with imaginary entries
        down = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
        hop = 1j * np.kron(down.T, down)
        term = local_operator("custom-matrix", [0, 1], b, matrix=hop + hop.conj().T)
        H = _wrap(b, H.matrix + 0.4 * term.matrix, H.support | term.support)
        assert H.hermitian and H.delta_n == 0 and H.matrix.data.imag.any()
    return b, H


def diagonal_probes(b):
    """Number probes (0/1 when hard-core), a 0/1 projector and a phase."""
    return [
        *(probe("number", b, site=i) for i in range(4)),
        local_operator("projector", [1, 2], b, predicate=("<=", 1)),
        probe("phase", b, site=2),
    ]


DIAGONAL_CASES = [
    (cutoff, basis_kind, h_kind)
    for cutoff in (1, 2)
    for basis_kind, h_kind in [
        ("product", "conserving"),
        ("product", "mixing"),
        ("product", "complex"),
        ("sector", "conserving"),
        ("sector", "complex"),
    ]
]


@pytest.mark.parametrize("cutoff, basis_kind, h_kind", DIAGONAL_CASES)
@pytest.mark.parametrize("a_kind", ["number", "creation", "mixing-hermitian"])
def test_diagonal_probe_norms_match_the_whole_matrix_oracle(cutoff, basis_kind, h_kind, a_kind):
    b, H = diagonal_case(cutoff, basis_kind, h_kind)
    if a_kind == "mixing-hermitian":
        up = np.eye(cutoff + 1, k=-1)
        O_A = local_operator("custom-matrix", [0], b, matrix=up + up.T)
    else:
        O_A = probe(a_kind, b, site=0)
    O_Bs = diagonal_probes(b)
    assert all(O.is_diagonal for O in O_Bs)
    for t in (0.0, 0.6, -1.3):
        got = commutator_norms(H, O_A, O_Bs, t)
        expect = oracle_commutator_norms(H, O_A, O_Bs, t)
        np.testing.assert_allclose(got, expect, rtol=0, atol=TOL)


@pytest.mark.parametrize("cutoff, basis_kind, h_kind", DIAGONAL_CASES)
def test_diagonal_probe_norms_over_a_grid_equal_one_time_calls(cutoff, basis_kind, h_kind):
    b, H = diagonal_case(cutoff, basis_kind, h_kind)
    O_Bs = diagonal_probes(b)
    grid = [0.6, 0.0, -0.35, 0.6, 1.2]
    for a_kind in ("number", "creation"):
        O_A = probe(a_kind, b, site=0)
        got = commutator_norms(H, O_A, O_Bs, grid)
        assert got == [commutator_norms(H, O_A, O_Bs, t) for t in grid]


def test_diagonal_probes_are_never_blocked(monkeypatch):
    b, H = diagonal_case(1, "product", "conserving")
    O_A, O_Bs = probe("number", b, site=0), diagonal_probes(b)
    blocked = []
    real = evolve_mod._Blocks.of.__func__

    def recording(cls, O):
        blocked.append(O)
        return real(cls, O)

    monkeypatch.setattr(evolve_mod._Blocks, "of", classmethod(recording))
    commutator_norms(H, O_A, O_Bs, [0.3, 0.9])
    # O_A once per grid and H in the eigensolve; no probe
    assert len(blocked) == 2 and blocked[0] is O_A and blocked[1] is H


def test_commutator_norms_above_the_cap_refuse_before_blocking(monkeypatch):
    # blocking O_A allocates every dense block, so the cap is checked first
    b, H = diagonal_case(1, "product", "conserving")
    blocked = []
    real = evolve_mod._Blocks.of.__func__

    def recording(cls, O):
        blocked.append(O)
        return real(cls, O)

    monkeypatch.setattr(evolve_mod._Blocks, "of", classmethod(recording))
    token = evolve_mod.RUN_DENSE_CAP.set(b.dim - 1)
    try:
        with pytest.raises(evolve_mod.DenseCapError):
            commutator_norms(H, probe("number", b, site=0), diagonal_probes(b), [0.3, 0.9])
    finally:
        evolve_mod.RUN_DENSE_CAP.reset(token)
    assert blocked == []


@pytest.mark.parametrize("a_kind", ["hermitian", "phase"])
def test_a_block_where_a_0_1_probe_is_constant_adds_nothing(a_kind):
    # hard-core chain 4: n_1 is 0 on the N = 0 block and 1 on the N = 4 block,
    # so for an O_A that keeps N and is nonzero there (Hermitian or not) those
    # blocks of [A, n_1] vanish and norm exactly 0
    b, H = diagonal_case(1, "product", "conserving")
    if a_kind == "hermitian":
        O_A = local_operator("custom-matrix", [0], b, matrix=np.diag([1.0, 2.0]))
    else:
        O_A = probe("phase", b, site=0)
    A = _heisenberg_stack(H, O_A, [0.6])
    A = evolve_mod._Blocks(b, A.whole, A.shift, {N: M[0] for N, M in A.mats.items()})
    d = probe("number", b, site=1).matrix.diagonal()
    hermitian = a_kind == "hermitian"
    for N in (0, 4):
        edge = evolve_mod._Blocks(b, False, A.shift, {N: A.mats[N]})
        assert A.mats[N].any()
        assert evolve_mod._diagonal_commutator_norm(edge, d, hermitian) == 0.0
    # a full hard-core sector: every number probe is 1 everywhere
    full = enumerate_basis(build_lattice("chain", [4]), 1, sector=4)
    H_full = assemble_hamiltonian(bose_hubbard(full.lattice, J=1.0, U=0.7), full)
    probes = [probe("number", full, site=i) for i in range(4)]
    assert commutator_norms(H_full, probes[0], probes, 0.6) == [0.0] * 4


# -- Gram norms: top singular values from the smaller Gram matrix --------------


def gram_case(shape, rng):
    """A random complex block of a shape the Gram norm treats differently."""

    def draw(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    if shape == "rank-1":
        return draw(8, 1) @ draw(1, 10)
    if shape == "zero":
        return np.zeros((6, 7), dtype=complex)
    return draw(*{"square": (9, 9), "1xn": (1, 12), "nx1": (12, 1), "wide": (5, 11),
                  "tall": (11, 5)}[shape])


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
@pytest.mark.parametrize("shape", ["square", "1xn", "nx1", "wide", "tall", "rank-1", "zero"])
def test_gram_norm_matches_the_svd(shape, scale):
    M = scale * gram_case(shape, np.random.default_rng(5))
    expect = np.linalg.svd(M, compute_uv=False)[0]
    got = evolve_mod._norm2([M], hermitian=False)
    assert got == pytest.approx(expect, rel=1e-12, abs=0)


def test_gram_norm_of_a_stack_is_the_largest_norm_at_each_time():
    # three times of a direct sum with a wide, a tall and an empty block
    rng = np.random.default_rng(6)
    stacks = [
        rng.standard_normal((3, r, c)) + 1j * rng.standard_normal((3, r, c))
        for r, c in [(4, 9), (7, 2), (0, 5)]
    ]
    stacks[1][2] *= 1e-9
    expect = [
        max(np.linalg.svd(S[j], compute_uv=False)[0] for S in stacks if S[j].size)
        for j in range(3)
    ]
    got = evolve_mod._norm2(stacks, hermitian=False)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)


def test_commutator_norms_on_hard_core_chain_9_match_the_svd_oracle():
    # dim 512, number probes on every site; at t = 0.25 the far sites' norms
    # are below 1e-8 and still match to 1e-12
    g = build_lattice("chain", [9])
    b = enumerate_basis(g, 1)
    H = assemble_hamiltonian(bose_hubbard(g, J=1.0, U=0.0), b)
    probes = [local_operator("number", [i], b) for i in range(9)]
    times = [0.25, 0.5, 1.5]
    got = commutator_norms(H, probes[0], probes, times)
    for t, norms in zip(times, got):
        expect = oracle_commutator_norms(H, probes[0], probes, t)
        np.testing.assert_allclose(norms, expect, rtol=0, atol=1e-12)
    assert min(got[0]) < 1e-8


@pytest.mark.parametrize("sector", [None, 4])
def test_a_real_operator_keeps_real_blocks(sector):
    b, H = setup(sector)
    for O in (local_operator("number", [1], b), H, probe("mixing", b)):
        blocks = evolve_mod._Blocks.of(O)
        assert all(M.dtype == np.float64 for M in blocks.mats.values())
        np.testing.assert_array_equal(blocks.dense(), O.dense())
    phase = evolve_mod._Blocks.of(probe("phase", b))
    assert all(M.dtype == np.complex128 for M in phase.mats.values())
    np.testing.assert_array_equal(phase.dense(), probe("phase", b).dense())


@pytest.mark.parametrize("kind", ["hamiltonian", *PROBES])
def test_spectral_norm_matches_the_whole_matrix_norm(kind):
    b, H = setup()
    O = H if kind == "hamiltonian" else probe(kind, b)
    assert spectral_norm(O) == pytest.approx(np.linalg.norm(O.dense(), 2), rel=TOL)


def test_spectral_norm_of_a_diagonal_operator_is_its_largest_entry():
    b, _ = setup()
    assert spectral_norm(local_operator("number", [0, 1, 2], b)) == 6.0
    assert spectral_norm(local_operator("projector", [1], b, predicate=("==", 2))) == 1.0


@pytest.mark.parametrize("kind", ["creation", "annihilation", "mixing", "mixing-hermitian"])
def test_approximate_heisenberg_full_coverage_matches_the_oracle(kind):
    # a full-coverage chain is exact, whatever blocks the observable maps
    # between: O_R psi0 is the oracle's O(t) applied to every basis vector
    g = build_lattice("chain", [4])
    b = enumerate_basis(g, 2)
    spec = bose_hubbard(g, J=1.0, U=0.7)
    O = probe(kind, b, site=0)
    expect = oracle_heisenberg(assemble_hamiltonian(spec, b), O, 0.2)
    for k, psi in enumerate(basis_vectors(b)):
        approx, _ = approximate_heisenberg(
            O, 0, 0, 3, 0.2, spec, psi, ell0=3, q=2, delta_t0=0.1
        )
        np.testing.assert_allclose(approx.amplitudes, expect[:, k], atol=1e-10)


@pytest.mark.parametrize("sector", [None, 4])
@pytest.mark.parametrize("echo", [False, True])
def test_local_unitary_apply_matches_the_materialized_product(sector, echo):
    # a short step, and an echo pair whose two factors do not commute (B
    # hops on X[2 ell0 - 2] = X[2], A adds h), so they must run in order;
    # the product is the oracle's, of whole-matrix exponentials
    g = build_lattice("chain", [4])
    b = enumerate_basis(g, 2, sector=sector)
    spec = bose_hubbard(g, J=1.0, U=0.7, mu=0.2)
    if echo:
        h = Interaction((1,), (Monomial(0.5, (2,)),))
        step = quench_step_unitary(spec, h, b, [1], 2, 1, 2, 0.3)
    else:
        step = local_step_unitary(spec, b, [1], 2, 1, 0.3)
    U = oracle_step(step)
    for k, psi in enumerate(basis_vectors(b)):
        np.testing.assert_allclose(step.apply(psi).amplitudes, U[:, k], atol=1e-10)
        np.testing.assert_allclose(
            step.apply(psi, adjoint=True).amplitudes, U.conj().T[:, k], atol=1e-10
        )


@pytest.mark.parametrize(
    "sector, kind", [(None, "number"), (None, "creation"), (None, "annihilation"), (5, "number")]
)
def test_approximate_heisenberg_matches_the_product_of_materialized_steps(sector, kind):
    # three steps (m_t = 3) short of full coverage, so each step's
    # truncation shows: U_m^dagger ... U_1^dagger O U_1 ... U_m psi0, the
    # dense way from the oracle's step products, for fixed random states
    g = build_lattice("chain", [5])
    b = enumerate_basis(g, 2, sector=sector)
    spec = bose_hubbard(g, J=1.0, U=0.7)
    O = probe(kind, b, site=0)
    for seed in (1, 2):
        psi = random_state(b, seed)
        approx, trace = approximate_heisenberg(
            O, 0, 0, 4, 0.3, spec, psi, delta_t0=0.1, q=1
        )
        assert trace.schedule.m_t == 3
        M = O.dense()
        for step in trace.unitaries:
            U = oracle_step(step)
            M = U.conj().T @ M @ U
        np.testing.assert_allclose(approx.amplitudes, M @ psi.amplitudes, atol=1e-10)
