"""qcext: extend quasi-cocycles from embedded subgroups, with certificates.

The package works at desk scale on two decidable families: free products
(each factor is a full subgroup of the coned-off geometry) and free groups
relative to a cyclic subgroup.  Inputs are quasi-cocycles on the subgroups
with certified defect bounds; the output is an extension to the whole
group whose defect is certified by an explicit rational, which feeds
directly into stable-commutator-length estimates.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .coeffs import IndexedLp, ModuleVector, TrivialReals, delta, real_value, zero
from .embedding import (
    CalibrationReport,
    FreeProductPairSpec,
    FreeRelCyclicSpec,
    RelativeDistance,
    SearchBudget,
    calibrate_c,
    seeded_rng,
    spec_from_json,
)
from .errors import (
    BudgetExhaustedError,
    CertificateError,
    ConfigError,
    DomainError,
    GroupTableError,
    InvariantError,
    MixedContextError,
    NotGeodesicError,
    NotSeparatingError,
    PartitionNotFoundError,
    QcextError,
    UnknownGeneratorError,
)
from .extension import (
    ExtensionResult,
    asnec_demo,
    averaged_value,
    combed_value,
    elementary_bicombing,
    extend,
    extend_general,
    k_constant,
    restriction_check,
    root_upper,
)
from .geodesics import (
    CayleyPath,
    GeodesicSet,
    distance,
    distance_map,
    free_ball_words,
    geodesic_routes,
    penetration,
)
from .groups import (
    FiniteTableGroup,
    FreeGroup,
    FreeProduct,
    FreeWord,
    as_fraction,
    commutator,
    conjugate,
    cyclic_group,
    cyclic_reduce,
    exponent_vector,
    is_proper_power,
)
from .qc import (
    CertifiedBound,
    DefectEstimate,
    PROVENANCES,
    QuasiCocycle,
    antisymmetrize,
    brooks,
    brooks_homogenized,
    coboundary1,
    cyclic_homomorphism,
    defect,
    embed_on_factor,
    step_quasimorphism,
    tree_edge_cocycle,
)
from .scl import (
    NiceGeneratingSet,
    PipelineConstants,
    SclBound,
    adjust_quasimorphism,
    bavard_lower,
    cl_upper,
    free_dist_experiment,
    nice_generating_set,
    scl_upper,
    undistortion_pipeline,
)
from .separating import (
    Coset,
    SeparatingCosets,
    TrianglePartition,
    separation_report,
    triangle_partition,
)
from .suite import CheckResult, run_full_suite
