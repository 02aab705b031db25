"""Exact rational vectors and dense matrices.

Scalars are `fractions.Fraction`: arbitrary-precision integers over a
positive denominator, always stored reduced, so every operation in the
package is exact.  A matrix holds its entries as Fractions, as rows of
Python ints over one positive denominator, or both (see `MatrixQ`).  Values
are immutable (tuple storage); a matrix only caches its other
representation the first time it is needed, so values are safe to share
across threads.  `InertiaTriple` lives here too: the closed forms and the
congruence oracle both return it, and neither imports the other.  So do the
argument rules that the checks and the CLI share (`valid_int`, `valid_tol`,
`DEFAULT_REPORT_TOL`), so that `gen` needs no check registry to parse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

DEFAULT_REPORT_TOL = 1e-8


def valid_int(name: str, value: int) -> int:
    """value, once it is an int and not a bool; ValueError naming the argument otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def valid_tol(tol: float) -> float:
    """The report tolerance, once it is finite and > 0; ValueError otherwise."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    return tol


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


class InertiaTriple(NamedTuple):
    """Counts of positive, negative and zero eigenvalues of a symmetric matrix."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


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
    """Immutable dense matrix of exact rationals, row-major.

    A matrix holds its entries as `Fraction`s, as an integer view (rows of
    Python ints over one positive denominator), or both.  Matrices built
    from ints (`from_ints`: products, identities, circulant expansions, BFS
    distances, row-reduction inverses) build their `Fraction` entries only
    when something reads them; the others compute the integer view, with
    the lcm of their denominators, the first time an exact kernel or a
    comparison needs it.  Either is cached for the life of the matrix.
    """

    __slots__ = ("rows", "cols", "_q", "_z")  # Fraction rows, (int rows, den): one or both set

    def __init__(self, rows: Sequence[Sequence]):
        self._q: tuple[tuple[Fraction, ...], ...] | None = tuple(
            tuple(rat(x) for x in row) for row in rows
        )
        self._z: tuple[tuple[tuple[int, ...], ...], int] | None = None
        self.rows, self.cols = _shape(self._q)

    @classmethod
    def from_ints(cls, rows: Iterable[Iterable[int]], den: int = 1) -> "MatrixQ":
        """rows / den, from rows of Python ints (copied, not type-checked) and an int den >= 1."""
        if valid_int("den", den) < 1:
            raise ValueError(f"denominator must be a positive int, got {den}")
        m = cls.__new__(cls)
        m._q, m._z = None, (tuple(map(tuple, rows)), den)
        m.rows, m.cols = _shape(m._z[0])
        return m

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return (self._q or _fractions(self))[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixQ) or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        a, da = _ints(self)
        b, db = _ints(other)
        if da == db:
            return a == b
        return all([x * db for x in ra] == [y * da for y in rb] for ra, rb in zip(a, b))

    def __hash__(self):
        return hash(self._q or _fractions(self))

    def __repr__(self) -> str:
        return f"MatrixQ({self.rows}x{self.cols})"

    def row(self, i: int) -> VectorQ:
        return VectorQ((self._q or _fractions(self))[i])

    def col(self, j: int) -> VectorQ:
        return VectorQ(r[j] for r in self._q or _fractions(self))

    def iter_rows(self):
        return iter(self._q or _fractions(self))

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        return self._combine(other, add)

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        return self._combine(other, sub)

    def __neg__(self) -> "MatrixQ":
        return self.scaled(-1)

    def scaled(self, c) -> "MatrixQ":
        """c times the matrix; on ints when the matrix already has an integer view."""
        c = rat(c)
        if self._z is not None:
            a, den = self._z
            p = c.numerator
            return MatrixQ.from_ints(([p * x for x in r] for r in a), den * c.denominator)
        return MatrixQ([c * a for a in r] for r in self._q)

    def transpose(self) -> "MatrixQ":
        a, den = _ints(self)
        return MatrixQ.from_ints(zip(*a), den)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        a, _ = _ints(self)
        return a == tuple(zip(*a))

    def mul_vec(self, v: VectorQ) -> VectorQ:
        """Exact product m v, computed on ints over the two common denominators."""
        if self.cols != len(v):
            raise ShapeError(f"matrix cols {self.cols} != vector length {len(v)}")
        a, da = _ints(self)
        x, dx = int_entries(v)
        den = da * dx
        return VectorQ(Fraction(sum(map(mul, row, x)), den) for row in a)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "MatrixQ":
        """Rows r0..r1-1 and columns c0..c1-1 (0-indexed, half-open)."""
        if not (0 <= r0 < r1 <= self.rows and 0 <= c0 < c1 <= self.cols):
            raise ShapeError("submatrix range out of bounds")
        return MatrixQ(row[c0:c1] for row in (self._q or _fractions(self))[r0:r1])

    def as_strings(self) -> list[list[str]]:
        return [[rat_str(x) for x in r] for r in self._q or _fractions(self)]

    def pretty(self) -> str:
        cells = self.as_strings()
        width = max(len(s) for r in cells for s in r)
        return "\n".join("[" + "  ".join(s.rjust(width) for s in r) + "]" for r in cells)

    def _combine(self, other: "MatrixQ", op) -> "MatrixQ":
        """Entrywise op: on ints when both operands already have an integer view."""
        self._same_shape(other)
        if self._z is not None and other._z is not None:
            (a, da), (b, db) = self._z, other._z
            den = math.lcm(da, db)
            fa, fb = den // da, den // db
            return MatrixQ.from_ints(
                ([op(x * fa, y * fb) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)), den
            )
        return MatrixQ(
            [op(x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(self._q or _fractions(self), other._q or _fractions(other))
        )

    def _same_shape(self, other: "MatrixQ") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def _shape(rows: tuple[tuple, ...]) -> tuple[int, int]:
    if not rows or not rows[0]:
        raise ShapeError("matrix must have at least one row and one column")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ShapeError("ragged rows")
    return len(rows), len(rows[0])


def _fractions(m: MatrixQ) -> tuple[tuple[Fraction, ...], ...]:
    """m's Fraction entries, built from its integer view on first use and cached."""
    a, den = m._z
    m._q = tuple(tuple(Fraction(x, den) for x in r) for r in a)
    return m._q


def _ints(m: MatrixQ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """m's integer view (rows, den), computed on first use with den the lcm, and cached."""
    if m._z is None:
        den = math.lcm(*{x.denominator for row in m._q for x in row})
        m._z = tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in m._q), den
    return m._z


def identity(n: int) -> MatrixQ:
    """The n-by-n identity matrix; n must be a positive integer."""
    if n < 1:
        raise ShapeError(f"invalid dimension {n}; need n >= 1")
    return MatrixQ.from_ints([1 if i == j else 0 for j in range(n)] for i in range(n))


def zeros(rows: int, cols: int) -> MatrixQ:
    if rows < 1 or cols < 1:
        raise ShapeError("invalid dimension; need rows, cols >= 1")
    return MatrixQ.from_ints([0] * cols for _ in range(rows))


def jmatrix(n: int) -> MatrixQ:
    """The n-by-n all-ones matrix; n must be a positive integer."""
    if n < 1:
        raise ShapeError(f"invalid dimension {n}; need n >= 1")
    return MatrixQ.from_ints([1] * n for _ in range(n))


def int_entries(v: VectorQ) -> tuple[list[int], int]:
    """v over one common denominator: (ints, den) with v == ints / den, den the lcm."""
    den = math.lcm(*{x.denominator for x in v.entries})
    return [x.numerator * (den // x.denominator) for x in v.entries], den


def int_rows(m: MatrixQ) -> tuple[list[list[int]], int]:
    """m over one positive common denominator: (rows, den) with m == rows / den.

    rows are fresh lists of Python ints, which the caller may change, so
    exact kernels can run without any Fraction arithmetic.  den is the lcm
    of the entries' denominators unless m was built from ints, in which case
    it is the denominator it was built with.
    """
    a, den = _ints(m)
    return [list(r) for r in a], den


def mat_mul(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """Exact matrix product, computed on ints over the two common denominators.

    Kronecker substitution: each row of b is packed into one int with signed
    w-bit slots, so a row of the product is one big-int sum over the nonzero
    entries of a row of a.  No entry of the product exceeds
    B = a.cols * max|a| * max|b| in size, and w = B.bit_length() + 1 gives
    every slot room for -B..B once `half` = 2**(w - 1) is added to it; so no
    slot carries into the next, and each unpacks as (slot & mask) - half.
    """
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    a_int, da = _ints(a)
    b_int, db = _ints(b)
    w = (a.cols * _max_abs(a_int) * _max_abs(b_int)).bit_length() + 1
    packed = []
    for row in b_int:
        v = 0
        for x in row:
            v = (v << w) + x
        packed.append(v)
    mask, half = (1 << w) - 1, 1 << (w - 1)
    offset = ((1 << w * b.cols) - 1) // mask * half  # half in every slot
    shifts = range(w * (b.cols - 1), -1, -w)
    out = []
    for row in a_int:
        acc = offset
        for x, v in zip(row, packed):
            if x:
                acc += x * v
        out.append([((acc >> s) & mask) - half for s in shifts])
    return MatrixQ.from_ints(out, da * db)


def _max_abs(rows: tuple[tuple[int, ...], ...]) -> int:
    return max(max(max(r), -min(r)) for r in rows)


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
