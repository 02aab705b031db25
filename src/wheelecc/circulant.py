"""Compact circulant-matrix algebra and the special defining vectors.

A circulant is stored by its first row; every later row is the previous
one cyclically shifted right.  The special vectors built here (basis_c,
special_x, special_y, special_z) define the cyclic blocks of the
inverse-formula and pseudoinverse-formula Laplacian-like matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .ratq import MatrixQ, ShapeError, VectorQ, int_entries, rat


class ResidueClassError(ValueError):
    """A construction was requested outside its valid residue class of n mod 3."""


@dataclass(frozen=True)
class CirculantQ:
    """Circulant matrix represented by its defining first row."""

    first_row: VectorQ

    @property
    def order(self) -> int:
        return len(self.first_row)


def shift_T(v: VectorQ, k: int = 1) -> VectorQ:
    """Cyclic right shift applied k times: (f1,..,fm) -> (fm,f1,..,f(m-1)) once."""
    if k < 0:
        raise ValueError("shift count must be >= 0")
    m = len(v)
    k %= m
    if k == 0:
        return v
    return VectorQ(v.entries[-k:] + v.entries[:-k])


def to_dense(c: CirculantQ) -> MatrixQ:
    """Dense expansion, int-backed: row i is the first row shifted right i times."""
    row, den = int_entries(c.first_row)
    rows = []
    for _ in range(c.order):
        rows.append(row)
        row = [row[-1]] + row[:-1]
    return MatrixQ.from_ints(rows, den)


def circ_mul(x: CirculantQ, y: CirculantQ) -> CirculantQ:
    """Product of circulants, itself circulant.

    The defining row of the product is the row vector x' times the dense
    expansion of y: entry j is sum_k x_k y_((j-k) mod m), a cyclic
    convolution.  Computed on ints over the two common denominators; neither
    factor is expanded.
    """
    if x.order != y.order:
        raise ShapeError(f"circulant orders differ: {x.order} vs {y.order}")
    m = x.order
    xs, dx = int_entries(x.first_row)
    ys, dy = int_entries(y.first_row)
    yy = ys + ys  # column j of the dense expansion of y is yy[j+m], ..., yy[j+1]
    den = dx * dy
    return CirculantQ(VectorQ(Fraction(sum(map(mul, xs, yy[j + m:j:-1])), den) for j in range(m)))


def _first_column(c: CirculantQ) -> VectorQ:
    """Column 1 of the dense expansion: (c1, cm, c(m-1), ..., c2)."""
    e = c.first_row.entries
    return VectorQ((e[0],) + tuple(reversed(e[1:])))


def period3_row_product(g: VectorQ, c: CirculantQ) -> tuple[Fraction, Fraction, Fraction]:
    """Row-times-circulant product for a period-3 row pattern.

    For order m divisible by 3 and g = (a,b,g,a,b,g,...), the product g'C
    is again period-3, (t1,t2,t3,t1,t2,t3,...); only three dot products
    against the first column of C are needed.
    """
    m = c.order
    if len(g) != m:
        raise ShapeError(f"vector length {len(g)} != circulant order {m}")
    if m % 3 != 0:
        raise ValueError(f"order must be divisible by 3, got {m}")
    if any(g[i] != g[i % 3] for i in range(m)):
        raise ValueError("vector does not repeat with period 3")
    col1 = _first_column(c)
    tau1 = g.dot(col1)
    tau2 = shift_T(g, 2).dot(col1)
    tau3 = shift_T(g, 1).dot(col1)
    return tau1, tau2, tau3


def is_symmetric_in_last_coords(x: VectorQ) -> bool:
    """True iff the tail of x is palindromic: x[i] == x[m+2-i] for i = 2..m (1-indexed)."""
    m = len(x)
    if m < 3:
        raise ShapeError(f"need length >= 3, got {m}")
    return all(x[i] == x[m - i] for i in range(1, m))


def _basis_e(i: int, length: int) -> VectorQ:
    """Standard basis vector, 1-indexed position i, of the given length."""
    if not 1 <= i <= length:
        raise ShapeError(f"position {i} outside 1..{length}")
    return VectorQ([1 if j == i - 1 else 0 for j in range(length)])


def basis_c(k: int, n: int) -> VectorQ:
    """Paired basis vector of length n-1 with ones at 1-indexed positions k+1 and n-k.

    Valid for 1 <= k <= (n-2)/2 when n is even, 1 <= k <= (n-3)/2 when n is odd;
    the two positions are mirror images, so the tail is always palindromic.
    """
    kmax = (n - 2) // 2 if n % 2 == 0 else (n - 3) // 2
    if not 1 <= k <= kmax:
        raise ValueError(f"k = {k} outside valid range 1..{kmax} for n = {n}")
    v = [Fraction(0)] * (n - 1)
    v[k] = Fraction(1)
    v[n - k - 1] = Fraction(1)
    return VectorQ(v)


def _combine(length: int, terms) -> VectorQ:
    acc = [Fraction(0)] * length
    for coeff, vec in terms:
        coeff = rat(coeff)
        for i, x in enumerate(vec.entries):
            acc[i] += coeff * x
    return VectorQ(acc)


def combination_x(n: int) -> VectorQ:
    """Linear-combination form of the n % 3 == 2 defining vector."""
    if n % 2 == 0:
        terms = [(2 - n, _basis_e(1, n - 1))]
        for k in range(1, (n - 2) // 6 + 1):
            terms += [
                (1, basis_c(3 * k - 2, n)),
                (-2, basis_c(3 * k - 1, n)),
                (1, basis_c(3 * k, n)),
            ]
    else:
        terms = [(2 - n, _basis_e(1, n - 1))]
        for k in range(1, (n - 5) // 6 + 1):
            terms += [(1, basis_c(3 * k, n)), (-2, basis_c(3 * k - 1, n))]
        for k in range(1, (n + 1) // 6 + 1):
            terms.append((1, basis_c(3 * k - 2, n)))
        terms.append((-2, _basis_e((n + 1) // 2, n - 1)))
    return _combine(n - 1, terms)


def combination_y(n: int) -> VectorQ:
    """Linear-combination form of the n % 3 == 0 defining vector."""
    if n % 2 == 0:
        terms = [(-n, _basis_e(1, n - 1))]
        for k in range(1, n // 6 + 1):
            terms += [(2, basis_c(3 * k - 2, n)), (-1, basis_c(3 * k - 1, n))]
        for k in range(1, n // 6):
            terms.append((-1, basis_c(3 * k, n)))
    else:
        terms = [(-n, _basis_e(1, n - 1))]
        for k in range(1, (n - 3) // 6 + 1):
            terms += [
                (2, basis_c(3 * k - 2, n)),
                (-1, basis_c(3 * k - 1, n)),
                (-1, basis_c(3 * k, n)),
            ]
        terms.append((2, _basis_e((n + 1) // 2, n - 1)))
    return _combine(n - 1, terms)


def special_x(n: int) -> VectorQ:
    """Defining vector (2-n, 1,-2,1, 1,-2,1, ...) of length n-1 for n % 3 == 2.

    The check registry compares it with its linear-combination form,
    `combination_x`.
    """
    if n % 3 != 2 or n < 5:
        raise ResidueClassError(f"this vector needs n % 3 == 2 and n >= 5, got n = {n}")
    return VectorQ([2 - n] + [1, -2, 1] * ((n - 2) // 3))


def special_y(n: int) -> VectorQ:
    """Defining vector (-n, 2,-1,-1, ..., 2,-1,-1, 2) of length n-1 for n % 3 == 0.

    The check registry compares it with its linear-combination form,
    `combination_y`.
    """
    if n % 3 != 0 or n < 6:
        raise ResidueClassError(f"this vector needs n % 3 == 0 and n >= 6, got n = {n}")
    return VectorQ([-n] + [2, -1, -1] * ((n - 3) // 3) + [2])


def special_z(n: int) -> VectorQ:
    """Defining vector of length n-1 for the pseudoinverse case n % 3 == 1.

    Built from its linear-combination form, which depends on the parity of n;
    unlike special_x/special_y there is no short closed pattern.  The check
    registry verifies its palindromic tail and coordinate sum (n-1)(2-n).
    """
    if n % 3 != 1 or n < 7:
        raise ResidueClassError(f"this vector needs n % 3 == 1 and n >= 7, got n = {n}")
    if n % 2 == 0:
        terms = [(2 * n - n * n, _basis_e(1, n - 1))]
        for k in range(1, (n - 4) // 6 + 1):
            terms += [
                (Fraction(3 * n - 18 * k + 8, 2), basis_c(3 * k - 2, n)),
                (Fraction(-(3 * n - 18 * k + 4), 2), basis_c(3 * k - 1, n)),
                (1, basis_c(3 * k, n)),
            ]
        terms.append((1, basis_c(n // 2 - 1, n)))
    else:
        terms = [(2 * n - n * n, _basis_e(1, n - 1))]
        for k in range(1, (n - 1) // 6 + 1):
            terms += [
                (Fraction(3 * n - 18 * k + 8, 2), basis_c(3 * k - 2, n)),
                (Fraction(-(3 * n - 18 * k + 4), 2), basis_c(3 * k - 1, n)),
            ]
        for k in range(1, (n - 7) // 6 + 1):
            terms.append((1, basis_c(3 * k, n)))
        terms.append((1, _basis_e((n + 1) // 2, n - 1)))
    return _combine(n - 1, terms)


def tridiagonal(order: int, a, b, c) -> MatrixQ:
    """Dense constant-tridiagonal matrix: a on the diagonal, b above it, c below it."""
    if order < 1:
        raise ShapeError(f"tridiagonal order must be >= 1, got {order}")
    a, b, c, zero = rat(a), rat(b), rat(c), Fraction(0)
    return MatrixQ(
        [a if i == j else b if j == i + 1 else c if j == i - 1 else zero for j in range(order)]
        for i in range(order)
    )
