"""Shared test utilities: random exact-rational generators and a tiny cofactor oracle."""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from operator import mul

from wheelecc.circulant import CirculantQ, to_dense
from wheelecc.graphs import Graph
from wheelecc.ratq import MatrixQ, ShapeError, VectorQ, int_rows, rat


def rand_fraction(rng, lo: int = -6, hi: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_vector(rng, n: int, **kw) -> VectorQ:
    return VectorQ([rand_fraction(rng, **kw) for _ in range(n)])


def rand_matrix(rng, rows: int, cols: int, **kw) -> MatrixQ:
    return MatrixQ([[rand_fraction(rng, **kw) for _ in range(cols)] for _ in range(rows)])


def rand_symmetric(rng, n: int, **kw) -> MatrixQ:
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rand_fraction(rng, **kw)
    return MatrixQ(a)


def rand_nonsingular(rng, n: int) -> MatrixQ:
    """Unit lower triangular times unit upper triangular: determinant exactly 1."""
    lower = [[Fraction(1) if i == j else rand_fraction(rng) if i > j else Fraction(0)
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else rand_fraction(rng) if i < j else Fraction(0)
              for j in range(n)] for i in range(n)]
    from wheelecc.ratq import mat_mul

    return mat_mul(MatrixQ(lower), MatrixQ(upper))


def cofactor_det(m: MatrixQ) -> Fraction:
    """Laplace expansion along the first row; fine for order <= 6."""
    n = m.rows
    assert n == m.cols
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = MatrixQ(
            [row[:j] + row[j + 1 :] for row in (list(r) for r in list(m.iter_rows())[1:])]
        )
        sign = 1 if j % 2 == 0 else -1
        total += sign * m[0, j] * cofactor_det(minor)
    return total


# --- reference eliminations ----------------------------------------------------
# The Fraction row reductions that `wheelecc.oracle` used before its single
# fraction-free core; kept here as the slow exact path the core is tested against.


def ref_bareiss_det(m: MatrixQ) -> Fraction:
    """Bareiss determinant carried out in Fractions."""
    n = m.rows
    a = [list(row) for row in m.iter_rows()]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) / prev
            row_i[k] = Fraction(0)
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1])


def ref_rank_exact(m: MatrixQ) -> int:
    """Rank by Fraction row reduction to echelon form."""
    a = [list(row) for row in m.iter_rows()]
    rows, cols = m.rows, m.cols
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pv = a[r][c]
        for i in range(r + 1, rows):
            if a[i][c] != 0:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def ref_inverse_exact(m: MatrixQ) -> MatrixQ | None:
    """Inverse by Fraction Gauss-Jordan on [m | I]; None when m is singular."""
    n = m.rows
    a = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(m.iter_rows())]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot_row is None:
            return None
        a[c], a[pivot_row] = a[pivot_row], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return MatrixQ(row[n:] for row in a)


# --- reference kernels ---------------------------------------------------------
# `mat_mul` and `inertia_exact` as they were on Fraction entries, before both
# moved to ints over a common denominator, and `mat_mul`'s int loop before
# Kronecker packing; kept as the slow exact paths.


def ref_mat_mul(a: MatrixQ, b: MatrixQ) -> MatrixQ:
    """Exact matrix product, entry by entry in Fractions."""
    bt = list(zip(*b.iter_rows()))
    return MatrixQ(
        [sum((x * y for x, y in zip(row, colt)), Fraction(0)) for colt in bt]
        for row in a.iter_rows()
    )


def ref_int_mat_mul(a: MatrixQ, b: MatrixQ) -> tuple[list[list[int]], int]:
    """The integer view (rows, da * db) of a b, one dot product of ints per entry.

    This is `mat_mul`'s loop before its rows were packed into big ints.
    """
    a_int, da = int_rows(a)
    b_int, db = int_rows(b)
    bt = list(zip(*b_int))  # column tuples of b
    return [[sum(map(mul, row, col)) for col in bt] for row in a_int], da * db


def ref_inertia_exact(m: MatrixQ) -> tuple[tuple[int, int, int], tuple[str, ...]]:
    """Inertia and pivot log by Fraction congruence with the 2x2 hyperbolic pivot."""
    a = [list(row) for row in m.iter_rows()]
    active = list(range(m.rows))
    plus = minus = 0
    log: list[str] = []
    while active:
        i = next((k for k in active if a[k][k] != 0), None)
        if i is not None:
            pivot = a[i][i]
            if pivot > 0:
                plus += 1
                log.append("pos")
            else:
                minus += 1
                log.append("neg")
            active.remove(i)
            coef = {k: a[k][i] / pivot for k in active if a[k][i] != 0}
            for k, fk in coef.items():
                row_k, row_i = a[k], a[i]
                for l in active:
                    if row_i[l] != 0:
                        row_k[l] -= fk * row_i[l]
            for k in coef:
                a[k][i] = Fraction(0)
            continue
        pair = next(
            ((p, q) for p in active for q in active if p < q and a[p][q] != 0), None
        )
        if pair is None:
            log.extend(["zero"] * len(active))
            return (plus, minus, len(active)), tuple(log)
        i, j = pair
        b = a[i][j]
        plus += 1
        minus += 1
        log.append("hyperbolic")
        active.remove(i)
        active.remove(j)
        cols_i = {k: a[k][i] for k in active if a[k][i] != 0}
        cols_j = {k: a[k][j] for k in active if a[k][j] != 0}
        for k in active:
            ki, kj = a[k][i], a[k][j]
            if ki == 0 and kj == 0:
                continue
            row_k = a[k]
            for l in active:
                li, lj = cols_i.get(l, Fraction(0)), cols_j.get(l, Fraction(0))
                row_k[l] -= (ki * lj + kj * li) / b
        for k in active:
            a[k][i] = a[k][j] = Fraction(0)
    return (plus, minus, 0), tuple(log)


# --- Gauss-Jordan determinant and rank -------------------------------------------
# `bareiss_det` and `rank_exact` as they were before they ran the forward pass
# only: a fraction-free Gauss-Jordan sweep that also clears above each pivot.


def _ref_gauss_jordan(m: MatrixQ, augment: bool = False):
    den = math.lcm(*{x.denominator for row in m.iter_rows() for x in row})
    a = [[x.numerator * (den // x.denominator) for x in row] for row in m.iter_rows()]
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
        for i in range(m.rows):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row_r)]
        prev = p
        r += 1
    return a, den, sign, r, prev


def ref_gauss_jordan_det(m: MatrixQ) -> Fraction:
    """Determinant: sign * last Gauss-Jordan pivot / den^n at full rank, else 0."""
    _, den, sign, rank, pivot = _ref_gauss_jordan(m)
    if rank < m.rows:
        return Fraction(0)
    return Fraction(sign * pivot, den**m.rows)


def ref_gauss_jordan_rank(m: MatrixQ) -> int:
    """Rank: the number of Gauss-Jordan pivots."""
    return _ref_gauss_jordan(m)[3]


def ref_gauss_jordan_eliminate(m: MatrixQ) -> tuple[Fraction, int, MatrixQ | None]:
    """det, rank and inverse (None when singular) of a square m.

    `oracle.eliminate` as it was before it ran the forward pass only: one
    fraction-free Gauss-Jordan sweep of [m | I], also when m is singular,
    with the inverse read off the right block as Fractions.
    """
    n = m.rows
    a, den, sign, rank, pivot = _ref_gauss_jordan(m, augment=True)
    if rank < n:
        return Fraction(0), rank, None
    inverse = MatrixQ([Fraction(den * x, pivot) for x in row[n:]] for row in a)
    return Fraction(sign * pivot, den**n), rank, inverse


# --- Fraction vector kernels -------------------------------------------------------
# `MatrixQ.mul_vec`, `VectorQ.dot` and `circ_mul` as they were on Fraction
# entries, before they moved to ints over a common denominator.


def ref_mul_vec(m: MatrixQ, v: VectorQ) -> VectorQ:
    return VectorQ(sum((a * b for a, b in zip(r, v.entries)), Fraction(0)) for r in m.iter_rows())


def ref_dot(u: VectorQ, v: VectorQ) -> Fraction:
    return sum((a * b for a, b in zip(u.entries, v.entries)), Fraction(0))


def ref_circ_mul(x: CirculantQ, y: CirculantQ) -> CirculantQ:
    """x' times the dense expansion of y, column by column."""
    ydense = to_dense(y)
    row = [
        sum((a * b for a, b in zip(x.first_row.entries, ydense.col(j).entries)), Fraction(0))
        for j in range(y.order)
    ]
    return CirculantQ(VectorQ(row))


# --- Fraction eccentricity matrix ---------------------------------------------------
# `graphs.bfs_distances` and `graphs.eccentricity_matrix_definitional` as they
# were before they returned int-backed matrices: distances and eccentricities
# as Fraction entries.


def ref_eccentricity_matrix(g: Graph) -> MatrixQ:
    """BFS distances of a connected graph, then min(ecc(i), ecc(j)) entries kept, on Fractions."""
    n = g.vertex_count
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        rows.append(dist)
    d = MatrixQ(rows)
    ecc = [max(d.row(i)) for i in range(n)]
    return MatrixQ(
        [d[i, j] if i != j and d[i, j] == min(ecc[i], ecc[j]) else Fraction(0) for j in range(n)]
        for i in range(n)
    )


# --- dense-sum defining vectors --------------------------------------------------
# `combination_x`, `combination_y` and `special_z` as they were built before the
# index rule of `closedform._c_sum`: each c_k a full-length basis vector, summed
# entry by entry in Fractions.  Kept as the slow reference route.


def _ref_basis_e(i: int, length: int) -> VectorQ:
    """Standard basis vector, 1-indexed position i, of the given length."""
    if not 1 <= i <= length:
        raise ShapeError(f"position {i} outside 1..{length}")
    return VectorQ([1 if j == i - 1 else 0 for j in range(length)])


def ref_basis_c(k: int, n: int) -> VectorQ:
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


def _ref_combine(length: int, terms) -> VectorQ:
    acc = [Fraction(0)] * length
    for coeff, vec in terms:
        coeff = rat(coeff)
        for i, x in enumerate(vec.entries):
            acc[i] += coeff * x
    return VectorQ(acc)


def ref_combination_x(n: int) -> VectorQ:
    if n % 2 == 0:
        terms = [(2 - n, _ref_basis_e(1, n - 1))]
        for k in range(1, (n - 2) // 6 + 1):
            terms += [
                (1, ref_basis_c(3 * k - 2, n)),
                (-2, ref_basis_c(3 * k - 1, n)),
                (1, ref_basis_c(3 * k, n)),
            ]
    else:
        terms = [(2 - n, _ref_basis_e(1, n - 1))]
        for k in range(1, (n - 5) // 6 + 1):
            terms += [(1, ref_basis_c(3 * k, n)), (-2, ref_basis_c(3 * k - 1, n))]
        for k in range(1, (n + 1) // 6 + 1):
            terms.append((1, ref_basis_c(3 * k - 2, n)))
        terms.append((-2, _ref_basis_e((n + 1) // 2, n - 1)))
    return _ref_combine(n - 1, terms)


def ref_combination_y(n: int) -> VectorQ:
    if n % 2 == 0:
        terms = [(-n, _ref_basis_e(1, n - 1))]
        for k in range(1, n // 6 + 1):
            terms += [(2, ref_basis_c(3 * k - 2, n)), (-1, ref_basis_c(3 * k - 1, n))]
        for k in range(1, n // 6):
            terms.append((-1, ref_basis_c(3 * k, n)))
    else:
        terms = [(-n, _ref_basis_e(1, n - 1))]
        for k in range(1, (n - 3) // 6 + 1):
            terms += [
                (2, ref_basis_c(3 * k - 2, n)),
                (-1, ref_basis_c(3 * k - 1, n)),
                (-1, ref_basis_c(3 * k, n)),
            ]
        terms.append((2, _ref_basis_e((n + 1) // 2, n - 1)))
    return _ref_combine(n - 1, terms)


def ref_special_z(n: int) -> VectorQ:
    if n % 2 == 0:
        terms = [(2 * n - n * n, _ref_basis_e(1, n - 1))]
        for k in range(1, (n - 4) // 6 + 1):
            terms += [
                (Fraction(3 * n - 18 * k + 8, 2), ref_basis_c(3 * k - 2, n)),
                (Fraction(-(3 * n - 18 * k + 4), 2), ref_basis_c(3 * k - 1, n)),
                (1, ref_basis_c(3 * k, n)),
            ]
        terms.append((1, ref_basis_c(n // 2 - 1, n)))
    else:
        terms = [(2 * n - n * n, _ref_basis_e(1, n - 1))]
        for k in range(1, (n - 1) // 6 + 1):
            terms += [
                (Fraction(3 * n - 18 * k + 8, 2), ref_basis_c(3 * k - 2, n)),
                (Fraction(-(3 * n - 18 * k + 4), 2), ref_basis_c(3 * k - 1, n)),
            ]
        for k in range(1, (n - 7) // 6 + 1):
            terms.append((1, ref_basis_c(3 * k, n)))
        terms.append((1, _ref_basis_e((n + 1) // 2, n - 1)))
    return _ref_combine(n - 1, terms)
