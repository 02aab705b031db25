"""Closed forms for the wheel-graph eccentricity matrix and its companions.

Every function here builds a formula-level object: the block-circulant
eccentricity matrices, determinant, inertia and rank case formulas, the
defining vectors x, y and z of the cyclic blocks (each also as its sum of
c_k terms), the two Laplacian-like matrices, the inverse and Moore-Penrose
inverse, the circulant lemmas and the products L E and X E the paper writes
down, the spectral radius, the non-EDM witness vectors and the rank
certificate of Lemma 6.9.  Each is the paper's side of one or more checks
in `checks`, which only compare.  Every rule over n mod 3, and every least
n, lives here as a `Case` with one predicate, `Case.excludes`: the check
registry's rows name these constants, and one guard, `_require_case(n,
case, what)`, is the only place that raises `ResidueClassError`.  Every
other statement of n calls the wheel guard `_require(n, what)` (n >= 5),
except E (from n = 4) and B and its determinant (from n = 2).  `circulant` holds
only the algebra of an arbitrary circulant.  Independent definitional
verifiers live in `oracle`; nothing here row-reduces or eliminates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .circulant import CirculantQ, to_dense
from .ratq import (
    InertiaTriple,
    MatrixQ,
    ShapeError,
    VectorQ,
    block_compose,
    identity,
    int_rows,
    jmatrix,
    ones_vector,
    rat,
    zeros,
)


class ResidueClassError(ValueError):
    """A construction was requested outside its valid residue class of n mod 3."""


class SpectralRadiusResult(NamedTuple):
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


class Case(NamedTuple):
    """Where a statement holds: n % 3 in `residues` and n >= `min_n`."""

    residues: frozenset[int]
    min_n: int = 5

    def excludes(self, n: int) -> str | None:
        """None where the statement holds at n, else why not (the registry's skip text)."""
        if n % 3 not in self.residues:
            return f"not applicable for n % 3 == {n % 3}"
        if n < self.min_n:
            return f"needs n >= {self.min_n}"
        return None


PATTERN_X = Case(frozenset({2}))  # the defining vector x and its c_k form
PATTERN_Y = Case(frozenset({0}))  # the defining vector y and its c_k form
INVERTIBLE = Case(PATTERN_X.residues | PATTERN_Y.residues)  # E is invertible
SINGULAR = Case(frozenset({1}))  # the pseudoinverse formula applies instead
WHEEL = Case(INVERTIBLE.residues | SINGULAR.residues)
RANK_CERTIFICATE = Case(SINGULAR.residues, 10)  # Lemma 6.9's pair
# Theorem 4.3 reads E_minus_edge at n - 1, which is a wheel statement from n - 1 = 5.
INTERLACING = Case(WHEEL.residues, 6)


def _require(n: int, what: str) -> None:
    """The wheel guard: ValueError naming `what` unless n >= 5."""
    if WHEEL.excludes(n):
        raise ValueError(f"{what} needs n >= {WHEEL.min_n}, got n = {n}")


def _require_case(n: int, case: Case, what: str) -> None:
    """ResidueClassError where `case` excludes n.

    The message names `what` and the least valid n (7 for the singular class).
    """
    if case.excludes(n):
        least = next(m for m in range(case.min_n, case.min_n + 3) if m % 3 in case.residues)
        classes = " or ".join(map(str, sorted(case.residues)))
        raise ResidueClassError(f"{what} needs n % 3 == {classes} and n >= {least}, got n = {n}")


def wheel_u(n: int) -> VectorQ:
    """Defining vector (0, 0, 2, ..., 2, 0) of the cyclic eccentricity block."""
    _require(n, "u")
    return VectorQ([0, 0] + [2] * (n - 4) + [0])


def wheel_d(n: int) -> VectorQ:
    """Defining vector (0, 1, 2, ..., 2, 1) of the cyclic distance block."""
    _require(n, "d")
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


def tridiagonal(order: int, a, b, c) -> MatrixQ:
    """Dense constant-tridiagonal matrix: a on the diagonal, b above it, c below it."""
    if order < 1:
        raise ShapeError(f"tridiagonal order must be >= 1, got {order}")
    a, b, c, zero = rat(a), rat(b), rat(c), Fraction(0)
    return MatrixQ(
        [a if i == j else b if j == i + 1 else c if j == i - 1 else zero for j in range(order)]
        for i in range(order)
    )


def ecc_matrix_wheel_minus_edge(n: int) -> MatrixQ:
    """Eccentricity matrix of the wheel minus one cycle edge (rim vertices 1 and n-1).

    Deleting that edge keeps all eccentricities, and the cyclic block loses its
    wrap-around: the lower block becomes 2J - tridiagonal(2,2,2) of order n-1.
    """
    _require(n, "E_minus_edge")
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
    _require(n, "det E")
    if n % 3 == 1:
        return Fraction(0)
    return Fraction(2) ** (n - 2) * (1 - n)


def det_E_minus_edge_closed(n: int) -> Fraction:
    """Determinant of the edge-deleted eccentricity matrix; equals det_B_closed(n)."""
    _require(n, "det E_minus_edge")
    return det_B_closed(n)


def inertia_E_minus_edge_closed(n: int) -> InertiaTriple:
    """Inertia of the edge-deleted eccentricity matrix, by residue of n mod 3."""
    _require(n, "the inertia of E_minus_edge")
    r = n % 3
    if r == 0:
        return InertiaTriple(n // 3, (2 * n - 3) // 3, 1)
    if r == 1:
        return InertiaTriple((n + 2) // 3, (2 * n - 2) // 3, 0)
    return InertiaTriple((n + 1) // 3, (2 * n - 1) // 3, 0)


def inertia_E_closed(n: int) -> InertiaTriple:
    """Inertia of the wheel eccentricity matrix, by residue of n mod 3."""
    _require(n, "the inertia of E")
    r = n % 3
    if r == 0:
        return InertiaTriple((n + 3) // 3, (2 * n - 3) // 3, 0)
    if r == 1:
        return InertiaTriple((n - 1) // 3, (2 * n - 5) // 3, 2)
    return InertiaTriple((n + 1) // 3, (2 * n - 1) // 3, 0)


def rank_E_closed(n: int) -> int:
    """Rank of the wheel eccentricity matrix: n - 2 when n % 3 == 1, else n."""
    _require(n, "rank E")
    return n - 2 if n % 3 == 1 else n


def rank_L_closed(n: int) -> int:
    """Rank of Ltilde (n - 1, Theorem 5.10) or, when n % 3 == 1, of Lhat (n - 3, Theorem 6.10)."""
    _require(n, "rank L")
    return n - 3 if n % 3 == 1 else n - 1


def null_vectors(n: int) -> tuple[VectorQ, VectorQ]:
    """Two independent null vectors of the eccentricity matrix when n % 3 == 1.

    x = (0, 1,0,-1, 1,0,-1, ...) and y = (0, 0,1,-1, 0,1,-1, ...), each with
    (n-1)/3 repeated blocks.
    """
    _require_case(n, SINGULAR, "nullvecs")
    k = (n - 1) // 3
    x = VectorQ([0] + [1, 0, -1] * k)
    y = VectorQ([0] + [0, 1, -1] * k)
    return x, y


def _c_sum(n: int, terms) -> VectorQ:
    """Sum of coeff * c_k over the (coeff, k) terms, a vector of length n-1.

    c_k has ones at the 0-indexed positions k and n-1-k, so a term adds at k
    and, when 0 < k < n-1-k, at the mirror n-1-k: e_1 is k = 0, and for odd
    n the middle basis vector is the self-mirrored k = (n-1)/2.
    """
    acc = [0] * (n - 1)
    for coeff, k in terms:
        acc[k] += coeff
        if 0 < k < n - 1 - k:
            acc[n - 1 - k] += coeff
    return VectorQ(acc)


def combination_x(n: int) -> VectorQ:
    """Linear-combination form of the n % 3 == 2 defining vector, by parity of n."""
    _require_case(n, PATTERN_X, "the c_k form of x")
    terms = [(2 - n, 0)]
    if n % 2 == 0:
        for k in range(1, (n - 2) // 6 + 1):
            terms += [(1, 3 * k - 2), (-2, 3 * k - 1), (1, 3 * k)]
    else:
        for k in range(1, (n - 5) // 6 + 1):
            terms += [(1, 3 * k), (-2, 3 * k - 1)]
        terms += [(1, 3 * k - 2) for k in range(1, (n + 1) // 6 + 1)]
        terms.append((-2, (n - 1) // 2))
    return _c_sum(n, terms)


def combination_y(n: int) -> VectorQ:
    """Linear-combination form of the n % 3 == 0 defining vector, by parity of n."""
    _require_case(n, PATTERN_Y, "the c_k form of y")
    terms = [(-n, 0)]
    if n % 2 == 0:
        for k in range(1, n // 6 + 1):
            terms += [(2, 3 * k - 2), (-1, 3 * k - 1)]
        terms += [(-1, 3 * k) for k in range(1, n // 6)]
    else:
        for k in range(1, (n - 3) // 6 + 1):
            terms += [(2, 3 * k - 2), (-1, 3 * k - 1), (-1, 3 * k)]
        terms.append((2, (n - 1) // 2))
    return _c_sum(n, terms)


def special_x(n: int) -> VectorQ:
    """Defining vector (2-n, 1,-2,1, 1,-2,1, ...) of length n-1 for n % 3 == 2.

    The check registry compares it with its linear-combination form,
    `combination_x`.
    """
    _require_case(n, PATTERN_X, "x")
    return VectorQ([2 - n] + [1, -2, 1] * ((n - 2) // 3))


def special_y(n: int) -> VectorQ:
    """Defining vector (-n, 2,-1,-1, ..., 2,-1,-1, 2) of length n-1 for n % 3 == 0.

    The check registry compares it with its linear-combination form,
    `combination_y`.
    """
    _require_case(n, PATTERN_Y, "y")
    return VectorQ([-n] + [2, -1, -1] * ((n - 3) // 3) + [2])


def special_z(n: int) -> VectorQ:
    """Defining vector of length n-1 for the pseudoinverse case n % 3 == 1.

    Built from its linear-combination form, which depends on the parity of n;
    unlike special_x/special_y there is no short closed pattern.  The check
    registry verifies its palindromic tail and coordinate sum (n-1)(2-n).
    """
    _require_case(n, SINGULAR, "z")
    if n % 2 == 0:
        pairs, singles, last = (n - 4) // 6, (n - 4) // 6, n // 2 - 1
    else:
        pairs, singles, last = (n - 1) // 6, (n - 7) // 6, (n - 1) // 2
    terms = [(2 * n - n * n, 0)]
    for k in range(1, pairs + 1):
        terms += [
            (Fraction(3 * n - 18 * k + 8, 2), 3 * k - 2),
            (Fraction(-(3 * n - 18 * k + 4), 2), 3 * k - 1),
        ]
    terms += [(1, 3 * k) for k in range(1, singles + 1)]
    terms.append((1, last))
    return _c_sum(n, terms)


def m_circulant(n: int) -> CirculantQ:
    """Cyclic block M = (1/3) cir(defining pattern) of the invertible-case Laplacian."""
    _require_case(n, INVERTIBLE, "M")
    base = special_x(n) if n % 3 == 2 else special_y(n)
    return CirculantQ(base.scaled(Fraction(1, 3)))


def p_circulant(n: int) -> CirculantQ:
    """Cyclic block P = cir(defining vector) / (3(n-1)) of the singular-case Laplacian."""
    _require_case(n, SINGULAR, "P")
    return CirculantQ(special_z(n).scaled(Fraction(1, 3 * (n - 1))))


def pattern_sum_closed(n: int) -> int:
    """Coordinate sum of the block's defining vector: 2-n, or (n-1)(2-n) for special_z."""
    _require(n, "the pattern sum")
    return (n - 1) * (2 - n) if n % 3 == 1 else 2 - n


def block_e_closed(n: int) -> VectorQ:
    """Lemmas Me and Pe: the cyclic block, M or (n % 3 == 1) P, times e is ((2-n)/3) e."""
    _require(n, "the block times e")
    return ones_vector(n - 1).scaled(Fraction(2 - n, 3))


def MU_closed(n: int) -> CirculantQ:
    """Lemma Si: M U = cir(-4, 2, 4-2n, ..., 4-2n, 2) / 3, with U = cir(wheel_u(n))."""
    _require_case(n, INVERTIBLE, "M U")
    return CirculantQ(VectorQ(Fraction(x, 3) for x in [-4, 2] + [4 - 2 * n] * (n - 4) + [2]))


def v_circulant(n: int) -> CirculantQ:
    """V = cir(2, -1, -1, ..., 2, -1, -1) of order n-1, for n % 3 == 1."""
    _require_case(n, SINGULAR, "V")
    return CirculantQ(VectorQ([2, -1, -1] * ((n - 1) // 3)))


def PV_closed(n: int) -> CirculantQ:
    """Lemma PV: P V = ((1-n)/3) V."""
    _require_case(n, SINGULAR, "P V")
    return CirculantQ(v_circulant(n).first_row.scaled(Fraction(1 - n, 3)))


def ubar_circulant(n: int) -> CirculantQ:
    """Ubar = cir(1, 1, 0, ..., 0, 1) of order n-1, for n % 3 == 1."""
    _require_case(n, SINGULAR, "Ubar")
    return CirculantQ(VectorQ([1, 1] + [0] * (n - 4) + [1]))


def PU_closed(n: int) -> CirculantQ:
    """Lemma PU: P Ubar = cir(zp) / (3(n-1)), with Ubar = `ubar_circulant(n)`.

    zp = (5n-n^2-10, 2n-n^2+2, 3, -6, 3, ..., 3, -6, 3, 2n-n^2+2).
    """
    _require_case(n, SINGULAR, "P Ubar")
    zp = [5 * n - n * n - 10, 2 * n - n * n + 2] + [3, -6, 3] * ((n - 4) // 3) + [2 * n - n * n + 2]
    return CirculantQ(VectorQ(Fraction(x, 3 * (n - 1)) for x in zp))


def _laplacian_from_block(n: int, block: CirculantQ) -> MatrixQ:
    hub = _bordered(zeros(n - 1, n - 1)).scaled(Fraction(-1, 3))
    return identity(n).scaled(Fraction(n - 1, 3)) + hub + block_compose(
        zeros(1, 1), zeros(1, n - 1), zeros(n - 1, 1), to_dense(block)
    )


def laplacian_tilde(n: int) -> MatrixQ:
    """Laplacian-like matrix of the inverse formula (n % 3 != 1): symmetric, rank n-1.

    Built as ((n-1)/3) I - (1/3) [[0,e'],[e,0]] + blockdiag(0, M).
    """
    _require_case(n, INVERTIBLE, "Ltilde")
    return _laplacian_from_block(n, m_circulant(n))


def laplacian_hat(n: int) -> MatrixQ:
    """Laplacian-like matrix of the pseudoinverse formula (n % 3 == 1): rank n-3."""
    _require_case(n, SINGULAR, "Lhat")
    return _laplacian_from_block(n, p_circulant(n))


def weight_w(n: int) -> VectorQ:
    """Rank-one weight vector (7-n, 1, ..., 1)/6; satisfies E w = ((n-1)/6) e."""
    _require(n, "w")
    return VectorQ([Fraction(7 - n, 6)] + [Fraction(1, 6)] * (n - 1))


def Ew_closed(n: int) -> VectorQ:
    """E w = ((n-1)/6) e."""
    _require(n, "E w")
    return ones_vector(n).scaled(Fraction(n - 1, 6))


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
    _require(n, "inverse")
    _require_case(n, INVERTIBLE, "inverse (E is singular when n % 3 == 1; use pinv_E_closed)")
    return inverse_formula(laplacian_tilde(n), weight_w(n))


def pinv_E_closed(n: int) -> MatrixQ:
    """Moore-Penrose inverse for the singular case: -(1/2) Lhat + (6/(n-1)) w w'."""
    _require(n, "pinv")
    _require_case(n, SINGULAR, "pinv (E is invertible otherwise; use inverse_E_closed)")
    return inverse_formula(laplacian_hat(n), weight_w(n))


def ltilde_E_closed(n: int) -> MatrixQ:
    """Identity (5.1): Ltilde E = 2 w e' - 2I, with 2 w = (7-n, 1, ..., 1)/3."""
    _require_case(n, INVERTIBLE, "Ltilde E")
    return MatrixQ.from_ints(([x] * n for x in [7 - n] + [1] * (n - 1)), 3) - identity(n).scaled(2)


def lhat_E_closed(n: int) -> MatrixQ:
    """Lemma LhatE: Lhat E, over the denominator 3(n-1).

    The hub row is ((1-n)/3, (7-n)/3, ..., (7-n)/3); below it a column of 1/3
    borders cir(vp)/3, vp = (17-5n, n-7, n-7, n+11, ..., n-7, n-7, n+11, n-7, n-7)/(n-1).
    """
    _require_case(n, SINGULAR, "Lhat E")
    d = n - 1
    vp = [17 - 5 * n] + [n - 7, n - 7, n + 11] * ((n - 4) // 3) + [n - 7, n - 7]
    rows = [[(1 - n) * d] + [(7 - n) * d] * d]
    for _ in range(d):
        rows.append([d] + vp)
        vp = [vp[-1]] + vp[:-1]
    return MatrixQ.from_ints(rows, 3 * d)


def pinv_XE_closed(n: int) -> MatrixQ:
    """X E = I - blockdiag(0, V/(n-1)) for the Moore-Penrose inverse X (n % 3 == 1)."""
    _require_case(n, SINGULAR, "X E")
    v, dv = int_rows(to_dense(v_circulant(n)))
    d = dv * (n - 1)
    rows = [[d] + [0] * (n - 1)]
    rows.extend([0] + [(d if i == j else 0) - x for j, x in enumerate(r)] for i, r in enumerate(v))
    return MatrixQ.from_ints(rows, d)


def rank_certificate(n: int) -> tuple[MatrixQ, MatrixQ]:
    """Lemma 6.9's pair (X, C), both n x (n-3), with Lhat E X = C and rank(C) = n-3.

    X is bordered cyclic over three zero rows, C is 3I over three padding rows
    (-1, then repeated (-3,0,0), (0,-3,0) or (0,0,-3)).
    """
    _require_case(n, RANK_CERTIFICATE, "the rank certificate")
    x_rows = [[n - 10] + [n - 7] * (n - 4)]  # X over the denominator 2
    s = [-6, 0, 0] + [-3, 0, 0] * ((n - 7) // 3)  # 3 cir(-2,0,0,-1,0,0,...): one shift per row
    for _ in range(n - 4):
        x_rows.append([-1] + s)
        s = [s[-1]] + s[:-1]
    x_rows.extend([0] * (n - 3) for _ in range(3))
    blocks = (n - 4) // 3
    c_rows = [[3 if i == j else 0 for j in range(n - 3)] for i in range(n - 3)]
    c_rows.extend([-1] + pad * blocks for pad in ([-3, 0, 0], [0, -3, 0], [0, 0, -3]))
    return MatrixQ.from_ints(x_rows, 2), MatrixQ.from_ints(c_rows)


def quotient_matrix(n: int) -> MatrixQ:
    """2x2 quotient matrix [[0, n-1], [1, 2(n-4)]] of the hub/rim equitable partition."""
    _require(n, "the quotient matrix")
    return MatrixQ([[0, n - 1], [1, 2 * (n - 4)]])


def spectral_radius_closed(n: int) -> SpectralRadiusResult:
    """Spectral radius (n-4) + sqrt(n^2 - 7n + 15) with float evaluation."""
    _require(n, "the spectral radius")
    radicand = n * n - 7 * n + 15
    rho = (n - 4) + math.sqrt(radicand)
    return SpectralRadiusResult(n=n, rho_int_part=n - 4, radicand=radicand, rho_float=rho)


def edm_witness(n: int) -> VectorQ:
    """Mean-zero vector z with z' E z > 0, certifying E is not a Euclidean distance matrix.

    Odd n: z = (0, 1,-1, ..., 1,-1) and z'Ez = 2(n-1).  Even n = 2m: an
    alternating vector with zeros in positions 1 and m+1, the tail phase
    flipped according to the parity of m, and z'Ez = 2(n-4).
    """
    _require(n, "the EDM witness")
    if n % 2 == 1:
        return VectorQ([0] + [1, -1] * ((n - 1) // 2))
    m = n // 2
    first = [1, -1] * ((m - 1) // 2) if m % 2 == 1 else [1, -1] * ((m - 2) // 2) + [1]
    second = [1, -1] * ((m - 1) // 2) if m % 2 == 1 else [-1, 1] * ((m - 2) // 2) + [-1]
    return VectorQ([0] + first + [0] + second)


def edm_witness_value(n: int) -> Fraction:
    """The exact positive value of z' E z for the witness: 2(n-1) odd, 2(n-4) even."""
    _require(n, "the EDM witness value")
    return Fraction(2 * (n - 1)) if n % 2 == 1 else Fraction(2 * (n - 4))
