"""Exact-arithmetic eccentricity-matrix algebra for wheel graphs.

Closed forms for wheel graphs built in exact rational arithmetic, each
paired with an independent definitional oracle.  The root exports the names
of the README's library example; everything else is imported from its
module (`wheelecc.ratq`, `.closedform`, `.oracle`, `.checks`, ...).
"""

from .closedform import (
    ecc_matrix_wheel,
    inertia_E_closed,
    inverse_E_closed,
    pinv_E_closed,
    spectral_radius_closed,
)
from .oracle import inertia_exact, penrose_check
from .ratq import identity, mat_mul

__version__ = "0.1.0"
