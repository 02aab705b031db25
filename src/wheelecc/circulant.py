"""Compact algebra on an arbitrary circulant matrix.

A circulant is stored by its first row; every later row is the previous
one cyclically shifted right.  Nothing here knows the wheel order n: the
circulants of the paper and the vectors that define them are statements
of `closedform`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .ratq import MatrixQ, ShapeError, VectorQ, int_entries


class CirculantQ(NamedTuple):
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
