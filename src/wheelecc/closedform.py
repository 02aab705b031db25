"""Closed forms for the wheel-graph eccentricity matrix and its companions.

Every function here builds a formula-level object: the block-circulant
eccentricity matrices, determinant and inertia case formulas, the two
Laplacian-like matrices, the inverse and Moore-Penrose inverse, the
spectral radius and the non-EDM witness vectors.  Independent definitional
verifiers live in `oracle`; nothing here row-reduces or eliminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .circulant import (
    CirculantQ,
    ResidueClassError,
    special_x,
    special_y,
    special_z,
    to_dense,
    tridiagonal,
)
from .ratq import (
    InertiaTriple,
    MatrixQ,
    VectorQ,
    block_compose,
    identity,
    jmatrix,
    ones_vector,
    rat,
    zeros,
)


@dataclass(frozen=True)
class SpectralRadiusResult:
    """Spectral radius (n-4) + sqrt(n^2 - 7n + 15), kept symbolic plus a float.

    The value is irrational for n >= 5, so the exact layer stores the integer
    part and the radicand; the dominant eigenvector is ((n-1)/rho, 1, ..., 1).
    """

    n: int
    rho_int_part: int
    radicand: int
    rho_float: float

    def perron_vector_float(self) -> list[float]:
        return [(self.n - 1) / self.rho_float] + [1.0] * (self.n - 1)


def _require(n: int, minimum: int = 5) -> None:
    if n < minimum:
        raise ValueError(f"need n >= {minimum}, got {n}")


def wheel_u(n: int) -> VectorQ:
    """Defining vector (0, 0, 2, ..., 2, 0) of the cyclic eccentricity block."""
    _require(n)
    return VectorQ([0, 0] + [2] * (n - 4) + [0])


def wheel_d(n: int) -> VectorQ:
    """Defining vector (0, 1, 2, ..., 2, 1) of the cyclic distance block."""
    _require(n)
    return VectorQ([0, 1] + [2] * (n - 4) + [1])


def _bordered(block: MatrixQ) -> MatrixQ:
    m = block.rows
    e = ones_vector(m)
    return block_compose(zeros(1, 1), e.as_row(), e.as_column(), block)


def ecc_matrix_wheel(n: int) -> MatrixQ:
    """Eccentricity matrix of the n-vertex wheel: bordered circulant block.

    For n >= 5 the hub has eccentricity 1 and every rim vertex 2, giving
    [[0, e'], [e, cir(0,0,2,...,2,0)]].  n = 4 is the complete graph, where
    the eccentricity matrix equals the distance matrix J - I.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if n == 4:
        return jmatrix(4) - identity(4)
    return _bordered(to_dense(CirculantQ(wheel_u(n))))


def ecc_matrix_wheel_minus_edge(n: int) -> MatrixQ:
    """Eccentricity matrix of the wheel minus one cycle edge (rim vertices 1 and n-1).

    Deleting that edge keeps all eccentricities, and the cyclic block loses its
    wrap-around: the lower block becomes 2J - tridiagonal(2,2,2) of order n-1.
    """
    _require(n)
    block = jmatrix(n - 1).scaled(2) - tridiagonal(n - 1, 2, 2, 2)
    return _bordered(block)


def bordered_B(n: int) -> MatrixQ:
    """Bordered tridiagonal matrix [[0, e'], [e, T_{n-1}(-2,-2,-2)]] of order n."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _bordered(tridiagonal(n - 1, -2, -2, -2))


def _perfect_square_root(x: Fraction):
    """Exact square root of a non-negative rational, or None if irrational."""
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def det_tridiagonal_closed(order: int, a, b, c) -> Fraction:
    """Determinant of the constant tridiagonal matrix of the given order.

    When a^2 - 4bc is a nonzero perfect rational square the two quadratic
    roots are rational and the quotient-of-powers formula is evaluated
    exactly; otherwise the algebraically identical three-term recurrence
    det_m = a det_{m-1} - bc det_{m-2} is used (also covering a^2 == 4bc,
    which lies outside the formula's domain).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    a, b, c = rat(a), rat(b), rat(c)
    disc = a * a - 4 * b * c
    root = _perfect_square_root(disc)
    if root is not None and root != 0:
        alpha = (a + root) / 2
        beta = (a - root) / 2
        return (alpha ** (order + 1) - beta ** (order + 1)) / (alpha - beta)
    prev, cur = Fraction(1), a
    for _ in range(order - 1):
        prev, cur = cur, a * cur - b * c * prev
    return cur


def det_T_closed(order: int) -> Fraction:
    """Determinant of T_m(-2,-2,-2): 2^m, -2^m or 0 as m mod 3 is 0, 1 or 2."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    r = order % 3
    if r == 0:
        return Fraction(2) ** order
    if r == 1:
        return -(Fraction(2) ** order)
    return Fraction(0)


def det_B_closed(n: int) -> Fraction:
    """Determinant of the order-n bordered tridiagonal matrix, by residue of n mod 3."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    r = n % 3
    if r == 0:
        return Fraction(0)
    if r == 1:
        return Fraction(2) ** (n - 2) * Fraction(n - 1, 3)
    return -(Fraction(2) ** (n - 2)) * Fraction(n + 1, 3)


def det_E_closed(n: int) -> Fraction:
    """Determinant of the wheel eccentricity matrix: 2^(n-2) (1-n), or 0 when n % 3 == 1."""
    _require(n)
    if n % 3 == 1:
        return Fraction(0)
    return Fraction(2) ** (n - 2) * (1 - n)


def det_E_minus_edge_closed(n: int) -> Fraction:
    """Determinant of the edge-deleted eccentricity matrix; equals det_B_closed(n)."""
    _require(n)
    return det_B_closed(n)


def inertia_E_minus_edge_closed(n: int) -> InertiaTriple:
    """Inertia of the edge-deleted eccentricity matrix, by residue of n mod 3."""
    _require(n)
    r = n % 3
    if r == 0:
        return InertiaTriple(n // 3, (2 * n - 3) // 3, 1)
    if r == 1:
        return InertiaTriple((n + 2) // 3, (2 * n - 2) // 3, 0)
    return InertiaTriple((n + 1) // 3, (2 * n - 1) // 3, 0)


def inertia_E_closed(n: int) -> InertiaTriple:
    """Inertia of the wheel eccentricity matrix, by residue of n mod 3."""
    _require(n)
    r = n % 3
    if r == 0:
        return InertiaTriple((n + 3) // 3, (2 * n - 3) // 3, 0)
    if r == 1:
        return InertiaTriple((n - 1) // 3, (2 * n - 5) // 3, 2)
    return InertiaTriple((n + 1) // 3, (2 * n - 1) // 3, 0)


def rank_E_closed(n: int) -> int:
    """Rank of the wheel eccentricity matrix: n - 2 when n % 3 == 1, else n."""
    _require(n)
    return n - 2 if n % 3 == 1 else n


def null_vectors(n: int) -> tuple[VectorQ, VectorQ]:
    """Two independent null vectors of the eccentricity matrix when n % 3 == 1.

    x = (0, 1,0,-1, 1,0,-1, ...) and y = (0, 0,1,-1, 0,1,-1, ...), each with
    (n-1)/3 repeated blocks.
    """
    if n % 3 != 1 or n < 7:
        raise ResidueClassError(f"null vectors need n % 3 == 1 and n >= 7, got n = {n}")
    k = (n - 1) // 3
    x = VectorQ([0] + [1, 0, -1] * k)
    y = VectorQ([0] + [0, 1, -1] * k)
    return x, y


def m_circulant(n: int) -> CirculantQ:
    """Cyclic block M = (1/3) cir(defining pattern) of the invertible-case Laplacian."""
    if n % 3 == 1 or n < 5:
        raise ResidueClassError(f"M needs n % 3 != 1 and n >= 5, got n = {n}")
    base = special_x(n) if n % 3 == 2 else special_y(n)
    return CirculantQ(base.scaled(Fraction(1, 3)))


def p_circulant(n: int) -> CirculantQ:
    """Cyclic block P = cir(defining vector) / (3(n-1)) of the singular-case Laplacian."""
    if n % 3 != 1 or n < 7:
        raise ResidueClassError(f"P needs n % 3 == 1 and n >= 7, got n = {n}")
    return CirculantQ(special_z(n).scaled(Fraction(1, 3 * (n - 1))))


def _laplacian_from_block(n: int, block: CirculantQ) -> MatrixQ:
    hub = _bordered(zeros(n - 1, n - 1)).scaled(Fraction(-1, 3))
    return identity(n).scaled(Fraction(n - 1, 3)) + hub + block_compose(
        zeros(1, 1), zeros(1, n - 1), zeros(n - 1, 1), to_dense(block)
    )


def laplacian_tilde(n: int) -> MatrixQ:
    """Laplacian-like matrix of the inverse formula (n % 3 != 1): symmetric, rank n-1.

    Built as ((n-1)/3) I - (1/3) [[0,e'],[e,0]] + blockdiag(0, M).
    """
    return _laplacian_from_block(n, m_circulant(n))


def laplacian_hat(n: int) -> MatrixQ:
    """Laplacian-like matrix of the pseudoinverse formula (n % 3 == 1): rank n-3."""
    return _laplacian_from_block(n, p_circulant(n))


def weight_w(n: int) -> VectorQ:
    """Rank-one weight vector (7-n, 1, ..., 1)/6; satisfies E w = ((n-1)/6) e."""
    _require(n)
    return VectorQ([Fraction(7 - n, 6)] + [Fraction(1, 6)] * (n - 1))


def inverse_formula(lap: MatrixQ, w: VectorQ) -> MatrixQ:
    """The paper's formula -(1/2) L + (6/(n-1)) w w' for E's (pseudo)inverse.

    With L = Ltilde (n % 3 != 1) it is the inverse, with L = Lhat
    (n % 3 == 1) the Moore-Penrose inverse; n is the order of L.
    """
    n = lap.rows
    return lap.scaled(Fraction(-1, 2)) + MatrixQ(
        [Fraction(6, n - 1) * wi * wj for wj in w.entries] for wi in w.entries
    )


def inverse_E_closed(n: int) -> MatrixQ:
    """Exact inverse of the eccentricity matrix: -(1/2) Ltilde + (6/(n-1)) w w'.

    Only defined when n % 3 != 1; otherwise the matrix is singular
    (see det_E_closed) and the pseudoinverse formula applies instead.
    """
    if n % 3 == 1:
        raise ResidueClassError(
            f"n = {n} has n % 3 == 1, where the matrix is singular (det = 0, "
            "check det_thm_3_4); use pinv_E_closed"
        )
    _require(n)
    return inverse_formula(laplacian_tilde(n), weight_w(n))


def pinv_E_closed(n: int) -> MatrixQ:
    """Moore-Penrose inverse for the singular case: -(1/2) Lhat + (6/(n-1)) w w'."""
    if n % 3 != 1 or n < 7:
        raise ResidueClassError(
            f"the pseudoinverse formula needs n % 3 == 1 and n >= 7, got n = {n}; "
            "the matrix is invertible otherwise, use inverse_E_closed"
        )
    return inverse_formula(laplacian_hat(n), weight_w(n))


def quotient_matrix(n: int) -> MatrixQ:
    """2x2 quotient matrix [[0, n-1], [1, 2(n-4)]] of the hub/rim equitable partition."""
    _require(n)
    return MatrixQ([[0, n - 1], [1, 2 * (n - 4)]])


def spectral_radius_closed(n: int) -> SpectralRadiusResult:
    """Spectral radius (n-4) + sqrt(n^2 - 7n + 15) with float evaluation."""
    _require(n)
    radicand = n * n - 7 * n + 15
    rho = (n - 4) + math.sqrt(radicand)
    return SpectralRadiusResult(n=n, rho_int_part=n - 4, radicand=radicand, rho_float=rho)


def edm_witness(n: int) -> VectorQ:
    """Mean-zero vector z with z' E z > 0, certifying E is not a Euclidean distance matrix.

    Odd n: z = (0, 1,-1, ..., 1,-1) and z'Ez = 2(n-1).  Even n = 2m: an
    alternating vector with zeros in positions 1 and m+1, the tail phase
    flipped according to the parity of m, and z'Ez = 2(n-4).
    """
    _require(n)
    if n % 2 == 1:
        return VectorQ([0] + [1, -1] * ((n - 1) // 2))
    m = n // 2
    first = [1, -1] * ((m - 1) // 2) if m % 2 == 1 else [1, -1] * ((m - 2) // 2) + [1]
    second = [1, -1] * ((m - 1) // 2) if m % 2 == 1 else [-1, 1] * ((m - 2) // 2) + [-1]
    return VectorQ([0] + first + [0] + second)


def edm_witness_value(n: int) -> Fraction:
    """The exact positive value of z' E z for the witness: 2(n-1) odd, 2(n-4) even."""
    _require(n)
    return Fraction(2 * (n - 1)) if n % 2 == 1 else Fraction(2 * (n - 4))
