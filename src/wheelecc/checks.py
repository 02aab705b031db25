"""Per-n verification checks: every closed form against its independent oracle.

Each check is one `CHECKS` row: a fixed schema name (the coverage manifest
consumed by CI), the `closedform.Case` where it runs (the residues of n mod
3 and the least n, stated once there; elsewhere the row is skipped), and a
runner that returns serialized expected/actual values.  A runner compares
the paper's side, a `closedform` statement read as `cf.<name>` at run time,
with a measurement from `VerifyContext`; only the runners that compute more
than that, or serve two rows, are named functions here.  The CLI's verify
and sweep commands are thin wrappers over `run_checks`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from . import closedform as cf
from . import graphs
from . import oracle
from .circulant import (
    CirculantQ, circ_mul, is_symmetric_in_last_coords, period3_row_product, to_dense,
)
from .closedform import INTERLACING, INVERTIBLE, PATTERN_X, RANK_CERTIFICATE, SINGULAR, WHEEL, Case
from .ratq import (
    DEFAULT_REPORT_TOL, MatrixQ, VectorQ, identity, int_rows, mat_mul, ones_vector,
    rat_str, valid_int, valid_tol,
)

LITERAL_POWER_MAX_N = 12  # (I + E)^(n-1) entries grow quickly; cross-check small n only


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skip" | "error" (the check raised)
    expected: str
    actual: str
    wall_time_ms: float


class VerificationReport(NamedTuple):
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def n_fail(self) -> int:
        """Failed checks, counting those that raised."""
        return sum(1 for c in self.checks if c.status in ("fail", "error"))

    @property
    def n_skip(self) -> int:
        return sum(1 for c in self.checks if c.status == "skip")

    @property
    def ok(self) -> bool:
        return self.n_fail == 0


class VerifyContext:
    """Caches the per-n objects shared by several checks; its wheel matrices are BFS-built."""

    def __init__(self, n: int, tol: float = DEFAULT_REPORT_TOL):
        self.n = n
        self.tol = tol

    @cached_property
    def E_def(self) -> MatrixQ:
        g = graphs.build_wheel(self.n)
        return graphs.eccentricity_matrix_definitional(graphs.bfs_distances(g))

    @cached_property
    def E_me_def(self) -> MatrixQ:
        g = graphs.delete_cycle_edge(graphs.build_wheel(self.n))
        return graphs.eccentricity_matrix_definitional(graphs.bfs_distances(g))

    @cached_property
    def u_circ(self) -> CirculantQ:
        return CirculantQ(cf.wheel_u(self.n))

    @cached_property
    def block(self) -> CirculantQ:
        """M where E is invertible, P where it is singular."""
        return cf.p_circulant(self.n) if INVERTIBLE.excludes(self.n) else cf.m_circulant(self.n)

    @cached_property
    def L(self) -> MatrixQ:
        """Ltilde where E is invertible, Lhat where it is singular."""
        n = self.n
        return cf.laplacian_hat(n) if INVERTIBLE.excludes(n) else cf.laplacian_tilde(n)

    @cached_property
    def w(self) -> VectorQ:
        return cf.weight_w(self.n)

    @cached_property
    def X(self) -> MatrixQ:
        """-(1/2) L + (6/(n-1)) w w': E's inverse, or its pseudoinverse when n % 3 == 1."""
        return cf.inverse_formula(self.L, self.w)

    @cached_property
    def LE(self) -> MatrixQ:
        """L E: identity_LE_5_1 and lemma_LhatE compare it; Lemma 6.9's certificate extends it."""
        return mat_mul(self.L, self.E_def)

    @cached_property
    def XE(self) -> MatrixQ:
        """X E: compared with I or with its closed structure, and one of the Penrose products."""
        return mat_mul(self.X, self.E_def)

    @cached_property
    def E_cong(self) -> oracle.CongruenceReport:
        """E's inertia, det and rank, from one symmetric congruence."""
        return oracle.inertia_exact(self.E_def)

    @cached_property
    def E_me_cong(self) -> oracle.CongruenceReport:
        return oracle.inertia_exact(self.E_me_def)

    @cached_property
    def E_inv(self) -> MatrixQ | None:
        """E's row-reduction inverse, computed only when its congruence reports full rank."""
        return oracle.eliminate(self.E_def) if self.E_cong.inertia.rank == self.n else None


Runner = Callable[[VerifyContext], tuple[str, str, bool]]


@dataclass(frozen=True)
class Check:
    name: str
    case: Case  # where it runs; skipped elsewhere
    run: Runner


def _scalar(expected: Fraction | int, actual: Fraction | int) -> tuple[str, str, bool]:
    return rat_str(expected), rat_str(actual), expected == actual


def _mat_eq(expected: MatrixQ, actual: MatrixQ) -> tuple[str, str, bool]:
    if expected == actual:
        return "exact matrix equality", "holds", True
    if (expected.rows, expected.cols) != (actual.rows, actual.cols):
        shapes = f"expected {expected.rows}x{expected.cols}, got {actual.rows}x{actual.cols}"
        return "exact matrix equality", f"shape mismatch: {shapes}", False
    i, j = next(
        (i, j) for i in range(expected.rows) for j in range(expected.cols)
        if expected[i, j] != actual[i, j]
    )
    entries = f"expected {rat_str(expected[i, j])}, got {rat_str(actual[i, j])}"
    return "exact matrix equality", f"differs at ({i},{j}): {entries}", False


def _tf(b: bool) -> str:
    return "true" if b else "false"


def _bool(expected: bool, actual: bool, detail: str = "") -> tuple[str, str, bool]:
    return _tf(expected), _tf(actual) + (f" ({detail})" if detail else ""), expected == actual


def _holds(description: str, ok: bool) -> tuple[str, str, bool]:
    return description, "holds" if ok else "violated", ok


def _circ_eq(expected: CirculantQ, actual: CirculantQ) -> tuple[str, str, bool]:
    return _mat_eq(to_dense(expected), to_dense(actual))


def _inertia_pair(closed, report) -> tuple[str, str, bool]:
    consistent = report.counts_consistent()
    actual = str(report.inertia.as_tuple()) + ("" if consistent else " (pivot log inconsistent)")
    return str(closed.as_tuple()), actual, report.inertia == closed and consistent


def _palindromic_summing_to(v: VectorQ, total: int) -> bool:
    return is_symmetric_in_last_coords(v) and v.sum() == total


def _chk_det_T(ctx):
    """Lemma 3.2, and Theorem 3.1's recurrence branch (discriminant -12) on the same T."""
    det = oracle.bareiss_det(cf.tridiagonal(ctx.n, -2, -2, -2))
    expected, actual, ok = _scalar(cf.det_T_closed(ctx.n), det)
    recurrence = cf.det_tridiagonal_closed(ctx.n, -2, -2, -2)
    if recurrence != det:
        return expected, f"{actual} (recurrence gives {rat_str(recurrence)})", False
    return expected, actual, ok


def _chk_interlace(ctx):
    sub, full = cf.inertia_E_minus_edge_closed(ctx.n - 1), cf.inertia_E_closed(ctx.n)
    ok = full.n_plus >= sub.n_plus and full.n_minus >= sub.n_minus
    detail = f"full {full.as_tuple()} vs submatrix {sub.as_tuple()}"
    return "submatrix sign counts dominated", detail, ok


def _chk_nullvec(ctx):
    n = ctx.n
    x, y = cf.null_vectors(n)
    zero = VectorQ([0] * n)
    ok = ctx.E_def.mul_vec(x) == zero and ctx.E_def.mul_vec(y) == zero
    pair = MatrixQ([[x[i], y[i]] for i in range(n)])
    ok = ok and oracle.rank_exact(pair) == 2
    ok = ok and ctx.w.dot(x) == 0 and ctx.w.dot(y) == 0
    return _holds("E x = E y = 0, independent, orthogonal to w", ok)


def _chk_patterns(ctx):
    n = ctx.n
    if PATTERN_X.excludes(n):
        v, combination = cf.special_y(n), cf.combination_y(n)
    else:
        v, combination = cf.special_x(n), cf.combination_x(n)
    ok = v == combination and _palindromic_summing_to(v, cf.pattern_sum_closed(n))
    return _holds("pattern == combination form, palindromic tail, sum 2-n", ok)


def _chk_circ_props(ctx):
    a, b = ctx.u_circ, ctx.block
    da, db = to_dense(a), to_dense(b)
    prod = mat_mul(da, db)
    ok = prod == mat_mul(db, da)
    ok = ok and to_dense(circ_mul(a, b)) == prod
    lin = CirculantQ(a.first_row.scaled(2) + b.first_row.scaled(3))
    ok = ok and to_dense(lin) == da.scaled(2) + db.scaled(3)
    return _holds("commutative, product row rule, linearity", ok)


def _chk_period3(ctx):
    g = cf.v_circulant(ctx.n).first_row
    if any(g[i] != g[i % 3] for i in range(len(g))):
        return _bool(True, False, "V's first row is not period 3")
    t1, t2, t3 = period3_row_product(g, ctx.u_circ)
    full = mat_mul(g.as_row(), to_dense(ctx.u_circ)).row(0)
    rebuilt = VectorQ([t1, t2, t3] * ((ctx.n - 1) // 3))
    return _bool(True, rebuilt == full, "period-3 reconstruction")


def _chk_block_row_sums(ctx):
    """Lemma Me for n % 3 != 1 and lemma Pe for n % 3 == 1: the block is M or P."""
    got = to_dense(ctx.block).mul_vec(ones_vector(ctx.n - 1))
    return _bool(True, got == cf.block_e_closed(ctx.n), "row sums (2-n)/3")


def _chk_inverse(ctx):
    eye = identity(ctx.n)
    ok = mat_mul(ctx.E_def, ctx.X) == eye and ctx.XE == eye and ctx.X == ctx.E_inv
    return _holds("E X = X E = I and X matches row-reduction inverse", ok)


def _chk_laplike_L(ctx):
    ok = ctx.L.mul_vec(ones_vector(ctx.n)) == VectorQ([0] * ctx.n) and ctx.L.is_symmetric()
    return _bool(True, ok, "L e = 0 and symmetric")


def _chk_rank_L(ctx):
    return _scalar(cf.rank_L_closed(ctx.n), oracle.rank_exact(ctx.L))


def _chk_pinv(ctx):
    conds = oracle.penrose_check(ctx.E_def, ctx.X, ctx.XE)
    detail = "/".join("ok" if c else "FAIL" for c in conds)
    return "all four Moore-Penrose conditions", detail, all(conds)


def _chk_rank_cert(ctx):
    x, c = cf.rank_certificate(ctx.n)
    ok = c.cols == cf.rank_L_closed(ctx.n) and oracle.rank_certificate_check(ctx.LE, x, c)
    return _bool(True, ok, "certificate")


def _chk_irreducible(ctx):
    connected = oracle.is_irreducible(ctx.E_def)
    if ctx.n <= LITERAL_POWER_MAX_N:
        literal = oracle.literal_power_positive(ctx.E_def)
        if literal != connected:
            return _bool(
                True,
                False,
                f"routes disagree: strong connectivity {_tf(connected)}, "
                f"(I + E)^(n-1) > 0 {_tf(literal)}",
            )
    return _bool(True, connected, "strongly connected support")


def _chk_spectral_radius(ctx):
    res = cf.spectral_radius_closed(ctx.n)
    rho_pi = oracle.power_iteration_rho(ctx.E_def)
    diff = abs(rho_pi - res.rho_float)
    a, den = int_rows(ctx.E_def)
    ef = [[x / den for x in row] for row in a]  # rounds as float(Fraction(x, den)) does
    v = res.perron_vector_float()
    residual = max(
        abs(sum(ef[i][j] * v[j] for j in range(ctx.n)) - res.rho_float * v[i])
        for i in range(ctx.n)
    )
    ok = diff < ctx.tol and residual < ctx.tol
    return (
        f"|power iteration - closed| < {ctx.tol:g} and eigen residual < {ctx.tol:g}",
        f"diff={diff:.3e} residual={residual:.3e}",
        ok,
    )


def _chk_quotient(ctx):
    n = ctx.n
    q = cf.quotient_matrix(n)
    a, den = int_rows(ctx.E_def)
    block_sums_ok = (
        q[0, 0] == 0
        and q[0, 1] * den == sum(a[0])
        and all(q[1, 0] * den == r[0] for r in a[1:])
        and all(q[1, 1] * den == sum(r[1:]) for r in a[1:])
    )
    res = cf.spectral_radius_closed(n)
    # char poly x^2 - trace x + det has roots rho_int_part +- sqrt(radicand)
    char_ok = (q[0, 0] + q[1, 1] == 2 * res.rho_int_part) and (
        q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0] == res.rho_int_part**2 - res.radicand
    )
    ok = block_sums_ok and char_ok
    return _holds("equitable block row sums and characteristic polynomial", ok)


def _chk_edm_witness(ctx):
    n = ctx.n
    z = cf.edm_witness(n)
    energy = z.dot(ctx.E_def.mul_vec(z))
    ok = z.sum() == 0 and energy == cf.edm_witness_value(n)
    return (
        f"e'z = 0 and z'Ez = {rat_str(cf.edm_witness_value(n))}",
        f"e'z = {rat_str(z.sum())}, z'Ez = {rat_str(energy)}",
        ok,
    )


# Each runner reads the paper's side as `cf.<name>` when it runs, so a builder
# patched or wrapped after import (by a tracer, say) is the one compared.
CHECKS: tuple[Check, ...] = (
    # determinants
    Check("ecc_blockform_eq_2_5", WHEEL,
          lambda ctx: _mat_eq(ctx.E_def, cf.ecc_matrix_wheel(ctx.n))),
    Check("ecc_minus_edge_sec_4", WHEEL,
          lambda ctx: _mat_eq(ctx.E_me_def, cf.ecc_matrix_wheel_minus_edge(ctx.n))),
    Check("det_tridiag_thm_3_1", WHEEL, lambda ctx: _scalar(
        cf.det_tridiagonal_closed(ctx.n, 3, 2, 1),
        oracle.bareiss_det(cf.tridiagonal(ctx.n, 3, 2, 1)))),
    Check("det_T_lem_3_2", WHEEL, _chk_det_T),
    Check("det_B_lem_3_3", WHEEL,
          lambda ctx: _scalar(cf.det_B_closed(ctx.n), oracle.bareiss_det(cf.bordered_B(ctx.n)))),
    Check("recur_3_1", WHEEL, lambda ctx: _scalar(
        cf.det_B_closed(ctx.n), 4 * cf.det_T_closed(ctx.n - 4) + 8 * cf.det_B_closed(ctx.n - 3))),
    Check("recur_3_2", WHEEL, lambda ctx: _scalar(cf.det_E_closed(ctx.n), (
        -((ctx.n - 1) ** 2) * cf.det_T_closed(ctx.n - 2)
        + 6 * (ctx.n - 1) * cf.det_B_closed(ctx.n - 1)))),
    Check("det_thm_3_4", WHEEL, lambda ctx: _scalar(cf.det_E_closed(ctx.n), ctx.E_cong.det)),
    Check("det_minus_edge_rem_4_2", WHEEL,
          lambda ctx: _scalar(cf.det_E_minus_edge_closed(ctx.n), ctx.E_me_cong.det)),
    # Thm 3.5 follows from Thm 3.4; inverse_thm_5_8 ties E_inv to X and X to E
    Check("invertible_thm_3_5", WHEEL, lambda ctx: _bool(
        cf.det_E_closed(ctx.n) != 0, ctx.E_inv is not None,
        "invertible" if ctx.E_inv is not None else "singular")),
    # inertia and rank
    Check("inertia_lem_4_4", WHEEL,
          lambda ctx: _inertia_pair(cf.inertia_E_minus_edge_closed(ctx.n), ctx.E_me_cong)),
    Check("inertia_thm_4_6", WHEEL,
          lambda ctx: _inertia_pair(cf.inertia_E_closed(ctx.n), ctx.E_cong)),
    Check("interlace_thm_4_3", INTERLACING, _chk_interlace),
    Check("rank_thm_4_5", WHEEL,
          lambda ctx: _scalar(cf.rank_E_closed(ctx.n), ctx.E_cong.inertia.rank)),
    Check("nullvec_thm_4_5", SINGULAR, _chk_nullvec),
    # special vectors and circulant structure
    Check("lemma_5_1_patterns", INVERTIBLE, _chk_patterns),
    Check("zvec_6_1_6_2", SINGULAR, lambda ctx: _holds(
        "palindromic tail, sum (n-1)(2-n)",
        _palindromic_summing_to(cf.special_z(ctx.n), cf.pattern_sum_closed(ctx.n)))),
    Check("circ_symmetry", WHEEL, lambda ctx: _holds(
        "palindromic tail gives symmetric circulant",
        is_symmetric_in_last_coords(ctx.block.first_row) and to_dense(ctx.block).is_symmetric())),
    Check("circ_props_2_1_2_3", WHEEL, _chk_circ_props),
    Check("lemma_2_1_period3", SINGULAR, _chk_period3),
    # inverse-side identities
    Check("lemma_Me", INVERTIBLE, _chk_block_row_sums),
    Check("lemma_Si", INVERTIBLE,
          lambda ctx: _circ_eq(cf.MU_closed(ctx.n), circ_mul(ctx.block, ctx.u_circ))),
    Check("identity_Ew_5_1", WHEEL, lambda ctx: _bool(
        True, ctx.E_def.mul_vec(ctx.w) == cf.Ew_closed(ctx.n), "E w = ((n-1)/6) e")),
    Check("identity_LE_5_1", INVERTIBLE, lambda ctx: _mat_eq(cf.ltilde_E_closed(ctx.n), ctx.LE)),
    Check("inverse_thm_5_8", INVERTIBLE, _chk_inverse),
    Check("laplike_Ltilde", INVERTIBLE, _chk_laplike_L),
    Check("rank_Ltilde_thm_5_10", INVERTIBLE, _chk_rank_L),
    # pseudoinverse-side identities
    Check("lemma_Pe", SINGULAR, _chk_block_row_sums),
    Check("lemma_PV", SINGULAR,
          lambda ctx: _circ_eq(cf.PV_closed(ctx.n), circ_mul(ctx.block, cf.v_circulant(ctx.n)))),
    Check("lemma_PU", SINGULAR, lambda ctx: _circ_eq(
        cf.PU_closed(ctx.n), circ_mul(ctx.block, cf.ubar_circulant(ctx.n)))),
    Check("lemma_LhatE", SINGULAR, lambda ctx: _mat_eq(cf.lhat_E_closed(ctx.n), ctx.LE)),
    Check("pinv_thm_6_6", SINGULAR, _chk_pinv),
    Check("pinv_XE_structure", SINGULAR, lambda ctx: _mat_eq(cf.pinv_XE_closed(ctx.n), ctx.XE)),
    Check("laplike_Lhat", SINGULAR, _chk_laplike_L),
    Check("rank_Lhat_thm_6_10", SINGULAR, _chk_rank_L),
    Check("rank_cert_lem_6_9", RANK_CERTIFICATE, _chk_rank_cert),
    # spectral and structural
    Check("irreducible_prop_2_3", WHEEL, _chk_irreducible),
    Check("spectral_radius_sec_2_4", WHEEL, _chk_spectral_radius),
    Check("quotient_sec_2_4", WHEEL, _chk_quotient),
    Check("edm_witness_prop_2_5", WHEEL, _chk_edm_witness),
)


def _oracle_only_report(n: int) -> VerificationReport:
    """n = 4: the eccentricity and distance matrices coincide (complete graph).

    No closed form applies, so report plain oracle measurements of the
    definitional (BFS) matrix.
    """
    ctx = VerifyContext(n)
    results = [
        CheckResult(
            "closed_forms",
            "skip",
            "",
            "n = 4 is the complete-graph special case; closed forms start at n = 5",
            0.0,
        )
    ]
    measurements = (
        ("oracle_det", lambda: rat_str(ctx.E_cong.det)),
        ("oracle_inertia", lambda: str(ctx.E_cong.inertia.as_tuple())),
        ("oracle_rank", lambda: str(ctx.E_cong.inertia.rank)),
        ("oracle_irreducible", lambda: "true" if oracle.is_irreducible(ctx.E_def) else "false"),
        ("oracle_spectral_radius", lambda: f"{oracle.power_iteration_rho(ctx.E_def):.9f}"),
    )
    for name, measure in measurements:
        results.append(_run_timed(n, name, lambda: ("oracle-only", measure(), True)))
    return VerificationReport(n=n, checks=tuple(results))


def _run_timed(n: int, name: str, run: Callable[[], tuple[str, str, bool]]) -> CheckResult:
    """Run one check and time it.

    An exception becomes an "error" result carrying its type and message, so
    the other checks still run; the traceback goes to stderr.
    """
    t0 = time.perf_counter()
    try:
        expected, actual, ok = run()
        status = "pass" if ok else "fail"
    except Exception as exc:
        import traceback  # only a raising check needs it; kept off the import path

        print(f"check {name} raised at n = {n}:", file=sys.stderr)
        traceback.print_exc()
        expected, actual, status = "", f"{type(exc).__name__}: {exc}", "error"
    ms = (time.perf_counter() - t0) * 1000.0
    return CheckResult(name, status, expected, actual, ms)


def run_checks(n: int, tol: float = DEFAULT_REPORT_TOL) -> VerificationReport:
    """Run every applicable check at this n and collect the report."""
    if valid_int("n", n) < 4:
        raise ValueError(f"verification needs n >= 4, got {n}")
    valid_tol(tol)
    if n == 4:
        return _oracle_only_report(n)
    ctx = VerifyContext(n, tol)
    results = []
    for check in CHECKS:
        reason = check.case.excludes(n)
        if reason is not None:
            results.append(CheckResult(check.name, "skip", "", reason, 0.0))
            continue
        results.append(_run_timed(n, check.name, lambda: check.run(ctx)))
    return VerificationReport(n=n, checks=tuple(results))
