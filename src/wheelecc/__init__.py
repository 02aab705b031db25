"""Exact-arithmetic eccentricity-matrix algebra for wheel graphs.

Closed-form objects (block-circulant eccentricity matrices, determinant and
inertia formulas, inverse and Moore-Penrose inverse, Laplacian-like
matrices, spectral radius) built in exact rational arithmetic, each paired
with an independent definitional oracle.
"""

from .checks import VerificationReport, run_checks
from .circulant import (
    CirculantQ,
    ResidueClassError,
    basis_c,
    circ_mul,
    is_symmetric_in_last_coords,
    period3_row_product,
    shift_T,
    special_x,
    special_y,
    special_z,
    to_dense,
    tridiagonal,
)
from .closedform import (
    SpectralRadiusResult,
    bordered_B,
    det_B_closed,
    det_E_closed,
    det_E_minus_edge_closed,
    det_T_closed,
    det_tridiagonal_closed,
    ecc_matrix_wheel,
    ecc_matrix_wheel_minus_edge,
    edm_witness,
    edm_witness_value,
    inertia_E_closed,
    inertia_E_minus_edge_closed,
    inverse_E_closed,
    laplacian_hat,
    laplacian_tilde,
    null_vectors,
    pinv_E_closed,
    quotient_matrix,
    rank_E_closed,
    spectral_radius_closed,
    weight_w,
)
from .graphs import (
    Graph,
    GraphError,
    bfs_distances,
    build_wheel,
    delete_cycle_edge,
    eccentricities,
    eccentricity_matrix_definitional,
)
from .oracle import (
    CongruenceReport,
    PowerIterationError,
    bareiss_det,
    inertia_exact,
    is_irreducible,
    penrose_check,
    power_iteration_rho,
    rank_certificate_check,
    rank_exact,
)
from .ratq import (
    InertiaTriple,
    MatrixQ,
    ShapeError,
    VectorQ,
    block_compose,
    identity,
    mat_mul,
    rat,
    rat_str,
)

__version__ = "0.1.0"
