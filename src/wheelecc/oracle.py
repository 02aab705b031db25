"""Independent definitional verifiers for the closed-form layer.

Nothing here reuses a formula from `closedform`: the inertia, determinant
and rank of a symmetric matrix come from one fraction-free symmetric
congruence, those of any other matrix from the forward pass of a
fraction-free elimination, the inverse (`eliminate`) from that forward pass
on [m | I] and a fraction-free back substitution, the spectral radius from
floating-point power iteration, and irreducibility from strong connectivity
of the support digraph.  These are the second route of every dual-route
check; the only package module imported here is `ratq`
(tests/test_layering.py holds that).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .ratq import InertiaTriple, MatrixQ, ShapeError, identity, int_rows, mat_mul

PIVOT_POS = "pos"
PIVOT_NEG = "neg"
PIVOT_HYPERBOLIC = "hyperbolic"
PIVOT_ZERO = "zero"


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, last: float):
        super().__init__(message)
        self.last = last


class CongruenceReport(NamedTuple):
    """Inertia, determinant and the ordered log of congruence pivots; rank is `inertia.rank`."""

    inertia: InertiaTriple
    pivot_log: tuple[str, ...]
    det: Fraction

    def counts_consistent(self) -> bool:
        plus = self.pivot_log.count(PIVOT_POS) + self.pivot_log.count(PIVOT_HYPERBOLIC)
        minus = self.pivot_log.count(PIVOT_NEG) + self.pivot_log.count(PIVOT_HYPERBOLIC)
        zero = self.pivot_log.count(PIVOT_ZERO)
        return (plus, minus, zero) == self.inertia.as_tuple()


def _fraction_free_elimination(m: MatrixQ, augment: bool = False):
    """Forward fraction-free elimination on Python ints.

    Scales m by den, a positive common denominator (`int_rows`), and with
    augment appends the identity on the right.  Pivots on the first nonzero
    entry in each column of m (a column with none is skipped) and updates
    the rows below the pivot by (p * a_ij - a_ic * a_rj) // prev, where p is
    the new pivot and prev the one before it.  The division is exact
    (Bareiss 1968), so no fraction ever appears.  This gives the rank and,
    at full rank, the determinant of the scaled matrix as the last pivot.
    Returns (rows, den, sign, rank, pivot): the reduced rows, den, the sign
    of the row swaps, the number of pivots and the last pivot.
    """
    a, den = int_rows(m)
    if augment:
        for i, row in enumerate(a):
            row.extend(1 if j == i else 0 for j in range(m.rows))
    sign = 1
    prev = 1
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot_row = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        row_r = a[r]
        p = row_r[c]
        tail = row_r[c:]  # columns left of c are already zero below the pivot
        for i in range(r + 1, m.rows):
            row_i = a[i]
            f = row_i[c]
            row_i[c:] = [(p * x - f * y) // prev for x, y in zip(row_i[c:], tail)]
        prev = p
        r += 1
    return a, den, sign, r, prev


def _back_substitution(a: list[list[int]], n: int) -> list[list[int]]:
    """d * A^-1 from the forward-eliminated [A | I] of a nonsingular order-n A.

    Row i of the reduced rows is [0 .. 0 u_ii .. u_in | b_i] with u_nn = d,
    the last pivot, and A X = I has the same solution as U X = B.  Solving
    bottom-up for d X, row i is (d b_i - sum_(j > i) u_ij (d X)_j) / u_ii,
    an exact division because d X = +-adj(A) is integral.
    """
    d = a[n - 1][n - 1]
    dx: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = [d * b for b in row[n:]]
        for j in range(i + 1, n):
            u = row[j]
            if u:
                acc = [s - u * x for s, x in zip(acc, dx[j])]
        p = row[i]
        dx[i] = [s // p for s in acc]
    return dx


def bareiss_det(m: MatrixQ) -> Fraction:
    """Exact determinant from the forward pass: sign * last pivot / den^n at full rank, else 0."""
    if m.rows != m.cols:
        raise ShapeError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    _, den, sign, rank, pivot = _fraction_free_elimination(m)
    if rank < m.rows:
        return Fraction(0)
    return Fraction(sign * pivot, den**m.rows)


def rank_exact(m: MatrixQ) -> int:
    """Rank over the rationals: the number of forward-pass pivots."""
    _, _, _, rank, _ = _fraction_free_elimination(m)
    return rank


def eliminate(m: MatrixQ) -> MatrixQ | None:
    """The package's one route to an exact inverse: None when m is singular.

    One forward elimination of [m | I], then, at full rank only, a
    fraction-free back substitution; the inverse is den * (d * A^-1) / d for
    the scaled matrix A = den * m and its last pivot d, and it is int-backed.
    """
    if m.rows != m.cols:
        raise ShapeError(f"elimination needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    a, den, _, rank, pivot = _fraction_free_elimination(m, augment=True)
    if rank < n:
        return None
    g = den if pivot > 0 else -den
    adj = _back_substitution(a, n)
    return MatrixQ.from_ints(([g * x for x in row] for row in adj), abs(pivot))


def inertia_exact(m: MatrixQ) -> CongruenceReport:
    """Inertia of a symmetric matrix by fraction-free congruence diagonalization.

    Works on m scaled to ints by the lcm of its denominators (a positive
    scaling keeps the inertia).  Repeatedly takes the first nonzero diagonal
    pivot p (simultaneous row and column elimination) and, when the remaining
    diagonal is entirely zero but some off-diagonal entry b is not, a 2x2
    hyperbolic pivot on the first such pair, contributing one positive and one
    negative eigenvalue.  What remains at the end is the zero matrix, counted
    as zero eigenvalues.  Like Bareiss elimination, each update divides by prev,
    the determinant of the block eliminated so far, exactly (Sylvester's
    identity): the true pivot is p / prev, and the hyperbolic block has
    determinant -b^2 / prev.  Congruence preserves inertia, so the pivot counts
    are the eigenvalue sign counts.  The symmetric row and column swaps keep
    the determinant too: with no zero block left, the last prev is
    det(den * m), else det(m) is 0.
    """
    if not m.is_symmetric():
        raise ShapeError("inertia needs a symmetric matrix")
    a, den = int_rows(m)
    prev = 1
    plus = minus = 0
    log: list[str] = []
    while a:
        i = next((k for k in range(len(a)) if a[k][k] != 0), None)
        if i is not None:
            col = [row.pop(i) for row in a]
            row_i = a.pop(i)
            p = col.pop(i)
            if (p > 0) == (prev > 0):
                plus += 1
                log.append(PIVOT_POS)
            else:
                minus += 1
                log.append(PIVOT_NEG)
            a = [
                [(p * x - c * y) // prev for x, y in zip(row, row_i)]
                for row, c in zip(a, col)
            ]
            prev = p
            continue
        pair = next(
            ((i, j) for i in range(len(a)) for j in range(i + 1, len(a)) if a[i][j] != 0),
            None,
        )
        if pair is None:
            break
        i, j = pair
        b = a[i][j]
        plus += 1
        minus += 1
        log.append(PIVOT_HYPERBOLIC)
        col_j = [row.pop(j) for row in a]
        col_i = [row.pop(i) for row in a]
        row_j, row_i = a.pop(j), a.pop(i)
        for c in (col_i, col_j):
            del c[j], c[i]
        # Schur complement of the block [[0, b], [b, 0]] on rows/cols {i, j}
        bb, prev2 = b * b, prev * prev
        a = [
            [(b * (ci * yj + cj * yi) - bb * x) // prev2 for x, yi, yj in zip(row, row_i, row_j)]
            for row, ci, cj in zip(a, col_i, col_j)
        ]
        prev = -bb // prev
    log.extend([PIVOT_ZERO] * len(a))  # the rows left are a zero block
    det = Fraction(0) if a else Fraction(prev, den**m.rows)
    return CongruenceReport(InertiaTriple(plus, minus, len(a)), tuple(log), det)


def penrose_check(
    e: MatrixQ, x: MatrixQ, xe: MatrixQ | None = None
) -> tuple[bool, bool, bool, bool]:
    """Exact evaluation of the four Moore-Penrose conditions for the pair (e, x).

    xe is the product x e when the caller already holds it; it is formed here otherwise.
    """
    if e.cols != x.rows or x.cols != e.rows:
        raise ShapeError(
            f"shape mismatch: {e.rows}x{e.cols} against candidate {x.rows}x{x.cols}"
        )
    ex = mat_mul(e, x)
    if xe is None:
        xe = mat_mul(x, e)
    return (
        mat_mul(ex, e) == e,
        mat_mul(xe, x) == x,
        ex == ex.transpose(),
        xe == xe.transpose(),
    )


def _strongly_connected(a: list[list[int]]) -> bool:
    n = len(a)
    forward = [[j for j in range(n) if j != i and a[i][j] != 0] for i in range(n)]
    backward = [[j for j in range(n) if j != i and a[j][i] != 0] for i in range(n)]
    for adj in (forward, backward):
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            return False
    return True


def literal_power_positive(m: MatrixQ) -> bool:
    """Whether (I + m)^(n-1) is entrywise positive, by n-1 exact products.

    For non-negative m this is equivalent to irreducibility; the entries grow
    quickly with n, so it is a cross-check for small orders only.
    """
    n = m.rows
    acc = identity(n)
    base = identity(n) + m
    for _ in range(n - 1):
        acc = mat_mul(acc, base)
    rows, _ = int_rows(acc)  # a positive denominator keeps every sign
    return all(x > 0 for row in rows for x in row)


def is_irreducible(m: MatrixQ) -> bool:
    """Irreducibility of a non-negative square matrix.

    Decided as strong connectivity of the digraph on the nonzero off-diagonal
    support, which is equivalent to the positivity of (I + A)^(n-1) for
    non-negative A (`literal_power_positive`, which the check registry
    compares with this route at small orders).
    """
    if m.rows != m.cols:
        raise ShapeError(f"need a square matrix, got {m.rows}x{m.cols}")
    a, _ = int_rows(m)
    if any(x < 0 for row in a for x in row):
        raise ValueError("irreducibility test requires entrywise non-negative input")
    return _strongly_connected(a)


def power_iteration_rho(m: MatrixQ, tol: float = 1e-12, max_iters: int = 10000) -> float:
    """Float spectral radius of a non-negative irreducible matrix.

    Deterministic all-ones start (never orthogonal to the dominant
    eigenvector of a non-negative irreducible matrix); stops when the
    Rayleigh quotient's relative change drops below tol.
    """
    if m.rows != m.cols:
        raise ShapeError(f"need a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    rows, den = int_rows(m)
    a = [[x / den for x in row] for row in rows]  # int true division rounds like float(Fraction)
    x = [1.0] * n
    lam_prev = 0.0
    for _ in range(max_iters):
        y = [sum(ai[j] * x[j] for j in range(n)) for ai in a]
        norm = max(abs(v) for v in y)
        if norm == 0.0:
            return 0.0
        x_new = [v / norm for v in y]
        num = sum(xi * yi for xi, yi in zip(x, y))
        den = sum(xi * xi for xi in x)
        lam = num / den
        if lam != 0 and abs(lam - lam_prev) <= tol * abs(lam):
            return lam
        lam_prev = lam
        x = x_new
    raise PowerIterationError(
        f"no convergence after {max_iters} iterations (last estimate {lam_prev!r})",
        last=lam_prev,
    )


def rank_certificate_check(le: MatrixQ, x: MatrixQ, c: MatrixQ) -> bool:
    """Verify a rank certificate of lhat, given le = lhat * e: le * x == c, of full column rank.

    Then rank(lhat) >= rank(c) = c.cols; the pair (x, c) is given, not built here.
    """
    return mat_mul(le, x) == c and rank_exact(c) == c.cols
