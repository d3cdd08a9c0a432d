"""Numerical verification laboratory for the nested algebraic Bethe ansatz of
trigonometric gl(N) spin chains: R-matrix algebra, Gauss coordinates,
q-symmetrization, off-shell Bethe vectors and the Bethe-equation spectrum.
"""

from .context import BetheParameterSet, DeformationContext, sample_annulus
from .errors import (
    BetheLabError,
    CapacityError,
    ConfigError,
    DegenerateVectorError,
    DomainError,
    IllPosedDecompositionError,
    PoleError,
    SamplingExhaustedError,
    SingularCoordinateError,
)
from .gauss import (
    CoordinateIdentity,
    GaussData,
    ZeroModeSet,
    coordinate_identity_residual,
    gauss_decompose,
    normal_order_transfer_residual,
    reconstruction_residual,
    screening,
    screening_dual,
    zero_mode_set,
)
from .kernels import (
    bethe_residual,
    bethe_rhs,
    nesting_overlap,
    nesting_overlap_alt,
    partial_fraction_residual,
    same_type_weight,
    shift_weight,
    split_weight,
    string_overlap,
    top_split_weight,
    transfer_eigenvalue,
    transfer_eigenvalue_residues,
)
from .qsym import exchange_factor, qsym_values, sym_weight
from .repcore import (
    ChainSpec,
    GradedLOperator,
    GradedOperator,
    apply_monodromy,
    entry_apply,
    monodromy,
    r_matrix,
    rll_residual,
    transfer,
    transfer_apply,
    transfer_commutator_residual,
    vacuum_data,
    vacuum_residuals,
    yang_baxter_residual,
    zero_mode_residuals,
    zero_modes,
)
from .solver import (
    BetheSolution,
    ReconcileReport,
    SolveResult,
    admissible_sectors,
    solve_bethe,
    spectrum_reconcile,
)
from .vectors import (
    UnwantedReport,
    is_admissible,
    modified_vector,
    nested_vector,
    on_shell_residuals,
    unwanted_closed_form,
    unwanted_decomposition,
)

__version__ = "0.1.0"
