"""Bethe ansatz eigenfunctions for contact-interaction models on the half line.

Builds plane-wave coefficient tables over the signed-permutation group for
two N-particle models (delta and momentum-dependent pdp contact
interactions, each with a wall term at the origin), machine-checks the
operator identities that make the construction consistent, and verifies
boundary conditions, sector reductions, the boson/fermion coupling duality,
and the one-particle scattering limits.
"""

from .boundary import (
    BoundaryProbe,
    BoundarySweep,
    DualityReport,
    EigenCheck,
    boundary_sweep,
    check_eigen,
    check_halfline_reduction,
    check_pair_boundary,
    check_wall_boundary,
    duality_compare,
    pair_probe,
    wall_probe,
)
from .consistency import (
    ConsistencyReport,
    ResidualReport,
    check_braid,
    check_commuting,
    check_reflection,
    check_unitarity,
    coefficient_relations,
    consistency_report,
)
from .errors import (
    BoundaryPointError,
    CapacityError,
    DegenerateMomentaError,
    GeometryError,
    InconsistencyError,
    InputError,
)
from .operators import (
    CoefficientPair,
    ModelSpec,
    RepOperator,
    pair_coeffs,
    pair_exchange_op,
    wall_coeffs,
    wall_reflection_op,
)
from .representations import (
    Character,
    IrrepDescriptor,
    RegularRep,
    ScalarSector,
    dimension_sum_check,
    induced_dimension,
    one_dim_rep,
    orbit_representatives,
    regular_rep,
    stabilizer_order,
)
from .scattering import (
    SweepResult,
    WallSolution,
    convergence_sweep,
    finite_wall_solution,
    reflection_amp,
)
from .wavefunction import (
    BetheCoefficients,
    Momenta,
    WavefunctionSample,
    compute_coefficients,
    evaluate_psi,
    word_independence_test,
)
from .weyl_group import (
    SignedPermutation,
    WeylGroup,
    classify_wedge,
    enumerate_group,
    evaluate_word,
    weyl_group,
)

__version__ = "0.1.0"
