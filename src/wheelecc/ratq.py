"""Exact rational vectors and dense matrices.

All scalars are `fractions.Fraction`: arbitrary-precision integers over a
positive denominator, always stored reduced, so every operation in the
package is exact.  Values are immutable (tuple storage) and safe to share
across threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

Rat = Fraction


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


def rat(x) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact arithmetic; pass int, str or Fraction")
    return Fraction(x)


def rat_str(x: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1; sign on the numerator."""
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class VectorQ:
    """Immutable column vector of exact rationals (internally 0-indexed)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        self.entries: tuple[Fraction, ...] = tuple(rat(x) for x in entries)
        if not self.entries:
            raise ShapeError("vector must have at least one entry")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorQ) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return "VectorQ(%s)" % ", ".join(rat_str(x) for x in self.entries)

    def __add__(self, other: "VectorQ") -> "VectorQ":
        if len(self) != len(other):
            raise ShapeError(f"vector lengths differ: {len(self)} vs {len(other)}")
        return VectorQ(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "VectorQ") -> "VectorQ":
        if len(self) != len(other):
            raise ShapeError(f"vector lengths differ: {len(self)} vs {len(other)}")
        return VectorQ(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "VectorQ":
        return VectorQ(-a for a in self.entries)

    def scaled(self, c) -> "VectorQ":
        c = rat(c)
        return VectorQ(c * a for a in self.entries)

    def dot(self, other: "VectorQ") -> Fraction:
        """Exact inner product, computed on ints over the two common denominators."""
        if len(self) != len(other):
            raise ShapeError(f"vector lengths differ: {len(self)} vs {len(other)}")
        a, da = int_entries(self)
        b, db = int_entries(other)
        return Fraction(sum(map(mul, a, b)), da * db)

    def sum(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def as_row(self) -> "MatrixQ":
        return MatrixQ([list(self.entries)])

    def as_column(self) -> "MatrixQ":
        return MatrixQ([[x] for x in self.entries])

    def as_strings(self) -> list[str]:
        return [rat_str(x) for x in self.entries]


def ones_vector(n: int) -> VectorQ:
    return VectorQ([1] * n)


class MatrixQ:
    """Immutable dense matrix of exact rationals, row-major."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: Sequence[Sequence]):
        self._rows: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(rat(x) for x in row) for row in rows
        )
        if not self._rows or not self._rows[0]:
            raise ShapeError("matrix must have at least one row and one column")
        self.rows = len(self._rows)
        self.cols = len(self._rows[0])
        if any(len(r) != self.cols for r in self._rows):
            raise ShapeError("ragged rows")

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, MatrixQ) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"MatrixQ({self.rows}x{self.cols})"

    def row(self, i: int) -> VectorQ:
        return VectorQ(self._rows[i])

    def col(self, j: int) -> VectorQ:
        return VectorQ(r[j] for r in self._rows)

    def iter_rows(self):
        return iter(self._rows)

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        self._same_shape(other)
        return MatrixQ(
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)
        )

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        self._same_shape(other)
        return MatrixQ(
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)
        )

    def __neg__(self) -> "MatrixQ":
        return MatrixQ([-a for a in r] for r in self._rows)

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        return mat_mul(self, other)

    def scaled(self, c) -> "MatrixQ":
        c = rat(c)
        return MatrixQ([c * a for a in r] for r in self._rows)

    def transpose(self) -> "MatrixQ":
        return MatrixQ(
            [self._rows[i][j] for i in range(self.rows)] for j in range(self.cols)
        )

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def mul_vec(self, v: VectorQ) -> VectorQ:
        """Exact product m v, computed on ints over the two common denominators."""
        if self.cols != len(v):
            raise ShapeError(f"matrix cols {self.cols} != vector length {len(v)}")
        a, da = int_rows(self)
        x, dx = int_entries(v)
        den = da * dx
        return VectorQ(Fraction(sum(map(mul, row, x)), den) for row in a)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "MatrixQ":
        """Rows r0..r1-1 and columns c0..c1-1 (0-indexed, half-open)."""
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 < c1 <= self.cols):
            raise ShapeError("submatrix range out of bounds")
        return MatrixQ(row[c0:c1] for row in self._rows[r0:r1])

    def as_strings(self) -> list[list[str]]:
        return [[rat_str(x) for x in r] for r in self._rows]

    def pretty(self) -> str:
        cells = self.as_strings()
        width = max(len(s) for r in cells for s in r)
        return "\n".join("[" + "  ".join(s.rjust(width) for s in r) + "]" for r in cells)

    def _same_shape(self, other: "MatrixQ") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def identity(n: int) -> MatrixQ:
    """The n-by-n identity matrix; n must be a positive integer."""
    if n < 1:
        raise ShapeError(f"invalid dimension {n}; need n >= 1")
    return MatrixQ([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def zeros(rows: int, cols: int) -> MatrixQ:
    if rows < 1 or cols < 1:
        raise ShapeError("invalid dimension; need rows, cols >= 1")
    return MatrixQ([[0] * cols for _ in range(rows)])


def jmatrix(rows: int, cols: int | None = None) -> MatrixQ:
    """All-ones matrix."""
    if cols is None:
        cols = rows
    if rows < 1 or cols < 1:
        raise ShapeError("invalid dimension; need rows, cols >= 1")
    return MatrixQ([[1] * cols for _ in range(rows)])


def int_entries(v: VectorQ) -> tuple[list[int], int]:
    """v over one common denominator: (ints, den) with v == ints / den, den the lcm."""
    den = math.lcm(*{x.denominator for x in v.entries})
    return [x.numerator * (den // x.denominator) for x in v.entries], den


def int_rows(m: MatrixQ) -> tuple[list[list[int]], int]:
    """m over one common denominator: (rows, den) with m == rows / den.

    den is the lcm of the entries' denominators and rows are fresh lists of
    Python ints, so exact kernels can run without any Fraction arithmetic.
    """
    den = math.lcm(*{x.denominator for row in m.iter_rows() for x in row})
    return [[x.numerator * (den // x.denominator) for x in row] for row in m.iter_rows()], den


def mat_mul(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """Exact matrix product, computed on ints over the two common denominators."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    a_int, da = int_rows(a)
    b_int, db = int_rows(b)
    den = da * db
    bt = list(zip(*b_int))  # column tuples of b
    return MatrixQ([Fraction(sum(map(mul, row, col)), den) for col in bt] for row in a_int)


def block_compose(tl: MatrixQ, tr: MatrixQ, bl: MatrixQ, br: MatrixQ) -> MatrixQ:
    """Assemble the 2x2 block matrix [[tl, tr], [bl, br]].

    Used throughout for the bordered layout: a 1x1 corner, a row of ones,
    a column of ones and an (n-1)x(n-1) cyclic block.
    """
    if tl.rows != tr.rows or bl.rows != br.rows:
        raise ShapeError("block row heights do not match")
    if tl.cols != bl.cols or tr.cols != br.cols:
        raise ShapeError("block column widths do not match")
    top = [list(r1) + list(r2) for r1, r2 in zip(tl.iter_rows(), tr.iter_rows())]
    bottom = [list(r1) + list(r2) for r1, r2 in zip(bl.iter_rows(), br.iter_rows())]
    return MatrixQ(top + bottom)
