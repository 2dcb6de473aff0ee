"""Boson-lattice dynamics toolkit.

Exact diagonalization of Bose-Hubbard-type models on finite lattices,
occupation-moment and light-cone probes, explicit-constant propagation and
truncation bounds, and the step-connected local approximation algorithms
the bounds certify.
"""

from .lattice import (
    GeometryConstants,
    LatticeGraph,
    ball,
    boundary,
    build_lattice,
    distance,
    geometric_constants,
    lattice_from_edges,
)
from .fock import (
    DIMENSION_CAP,
    FockBasis,
    ResourceLimitError,
    enumerate_basis,
    number_operator,
    region_total_projector,
    truncation_projector,
)
from .model import (
    HamiltonianSpec,
    Interaction,
    Monomial,
    OperatorMatrix,
    assemble_hamiltonian,
    bose_hubbard,
    creation_degree,
    local_operator,
)
from .evolve import (
    DENSE_CAP,
    DenseCapError,
    PropagationError,
    StateVector,
    evolve_state,
    spectral_norm,
)
from .probes import (
    GroundStateResult,
    commutator_norms,
    connected_correlation,
    ground_state,
    heisenberg_apply,
    mgf_condition,
    moments,
    tail_probabilities,
)
from .bounds import (
    BoundConditionError,
    BoundConstants,
    BoundValue,
    adjacency_exp_bound,
    clustering_bound,
    concentration_bound,
    first_moment_bound,
    fs_polynomial,
    initial_moment_bounds,
    lightcone_radius,
    main_lr_bound,
    moment_bound,
    quench_bounds,
    short_lr_bound,
    solve_eta,
    subtheorem_bound,
    tail_bound,
    truncation_error_bound,
)
from .approx import (
    LocalUnitary,
    QuenchReference,
    ScheduleError,
    StationarityError,
    StepSchedule,
    approximate_heisenberg,
    local_step_unitary,
    quench_reference,
    quench_step_unitary,
    run_quench,
    step_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "GeometryConstants", "LatticeGraph", "ball", "boundary", "build_lattice",
    "distance", "geometric_constants", "lattice_from_edges",
    "DIMENSION_CAP", "FockBasis", "ResourceLimitError", "enumerate_basis",
    "number_operator", "region_total_projector", "truncation_projector",
    "HamiltonianSpec", "Interaction", "Monomial", "OperatorMatrix",
    "assemble_hamiltonian", "bose_hubbard", "creation_degree",
    "local_operator",
    "DENSE_CAP", "DenseCapError", "PropagationError", "StateVector",
    "evolve_state", "spectral_norm",
    "GroundStateResult", "commutator_norms",
    "connected_correlation", "ground_state", "heisenberg_apply",
    "mgf_condition", "moments", "tail_probabilities",
    "BoundConditionError", "BoundConstants", "BoundValue",
    "adjacency_exp_bound", "clustering_bound",
    "concentration_bound", "first_moment_bound",
    "fs_polynomial", "initial_moment_bounds",
    "lightcone_radius", "main_lr_bound", "moment_bound", "quench_bounds",
    "short_lr_bound", "solve_eta", "subtheorem_bound", "tail_bound",
    "truncation_error_bound",
    "LocalUnitary", "QuenchReference", "ScheduleError", "StationarityError",
    "StepSchedule", "approximate_heisenberg", "local_step_unitary",
    "quench_reference", "quench_step_unitary", "run_quench", "step_schedule",
    "__version__",
]
