"""Single-column Kirillov-Reshetikhin crystals of types A and C.

The package computes the affine energy function through the combinatorial
R-matrix and the charge statistic through circular reorderings of fillings,
and verifies exhaustively that they agree up to sign, together with the
polynomial identities they imply.
"""

from .core import (
    CartanType,
    CrystalGraph,
    TensorElement,
    classical_highest,
    classical_lowest,
    columns,
    column_e,
    column_f,
    crystal_graph,
    crystal_size,
    e,
    element,
    eps,
    f,
    involution_map,
    is_classical_highest,
    iter_tensor_elements,
    lusztig_involution,
    phi,
    split_column,
    tensor_elements,
    validate_column,
    weight,
)
from .charge import (
    ChargeWord,
    CircFilling,
    charge,
    charge_via_selection,
    charge_word,
    circ_ord,
    ls_charge,
    split_factors,
)
from .energy import (
    EnergyReport,
    LocalEnergyTable,
    combinatorial_r,
    commutor,
    demazure_grading,
    demazure_grading_oracle,
    energy_DL,
    energy_DR,
    energy_report,
    is_ground_state,
    local_energy,
    local_table,
    tau,
)
from .kyoto import (
    GroundState,
    ShapeState,
    WalkResult,
    cut_construction,
    demazure_walk,
    f_word,
    ground_states,
    is_demazure_arrow,
    normalize_shape,
)
from .qpoly import (
    QPolynomial,
    QXPolynomial,
    conjugate,
    dominant_contents,
    kostka_foulkes,
    macdonald_p_q0,
    one_dim_sum_X,
    schur_content_multiplicities,
    schur_expansion_reconstruction,
    shape_heights,
    sort_via_rmatrix,
)
from .serialize import (
    VerifyReport,
    graph_to_dot,
    parse_filling,
    serialize_filling,
)
from .verify import run_verify
from .bench import run_bench
from . import errors

__version__ = "0.1.0"
