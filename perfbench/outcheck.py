"""Checks wheelecc CLI outputs without using any wheelecc code.

`verify`/`sweep` reports are held against the registry's expected pass/skip
pattern for each residue class of n mod 3.  `gen` matrices and vectors are
held against an eccentricity matrix built here from a BFS of the wheel:
E and E_minus_edge entry by entry, the inverse and pseudoinverse by a seeded
Freivalds test in exact integer arithmetic, Ltilde/Lhat by symmetry and zero
row sums, and w by E w = ((n-1)/6) e with entries summing to 1.

Every checker returns `(problem, items)`: `problem` is None when the output
is accepted, else a one-line reason; `items` counts the non-skipped checks
of a report or the entries of a generated object.  `negative_control` feeds
the same checkers an output with one corrupted entry, which must be rejected.
"""

from __future__ import annotations

import copy
import json
import math
import random
from collections import deque
from functools import lru_cache

# name, residue classes of n mod 3 where the check runs, smallest n it runs at.
# This is the coverage manifest of the check registry, restated so that a
# report is judged against what its residue class should give.
_CHECK_TABLE = """
ecc_blockform_eq_2_5 012 5
ecc_minus_edge_sec_4 012 5
det_tridiag_thm_3_1 012 5
det_T_lem_3_2 012 5
det_B_lem_3_3 012 5
recur_3_1 012 5
recur_3_2 012 5
det_thm_3_4 012 5
det_minus_edge_rem_4_2 012 5
invertible_thm_3_5 012 5
inertia_lem_4_4 012 5
inertia_thm_4_6 012 5
interlace_thm_4_3 012 6
rank_thm_4_5 012 5
nullvec_thm_4_5 1 7
lemma_5_1_patterns 02 5
zvec_6_1_6_2 1 7
circ_symmetry 012 5
circ_props_2_1_2_3 012 5
lemma_2_1_period3 1 7
lemma_Me 02 5
lemma_Si 02 5
identity_Ew_5_1 012 5
identity_LE_5_1 02 5
inverse_thm_5_8 02 5
laplike_Ltilde 02 5
rank_Ltilde_thm_5_10 02 5
lemma_Pe 1 7
lemma_PV 1 7
lemma_PU 1 7
lemma_LhatE 1 7
pinv_thm_6_6 1 7
pinv_XE_structure 1 7
laplike_Lhat 1 7
rank_Lhat_thm_6_10 1 7
rank_cert_lem_6_9 1 10
irreducible_prop_2_3 012 5
spectral_radius_sec_2_4 012 5
quotient_sec_2_4 012 5
edm_witness_prop_2_5 012 5
"""
CHECKS = tuple(
    (name, frozenset(int(c) for c in classes), int(min_n))
    for name, classes, min_n in (line.split() for line in _CHECK_TABLE.strip().splitlines())
)

FREIVALDS_TRIALS = 2


def expected_statuses(n: int) -> list[str]:
    return ["pass" if n % 3 in classes and n >= min_n else "skip" for _, classes, min_n in CHECKS]


# --- verify / sweep ----------------------------------------------------------


def _report_problem(rep, n: int) -> str | None:
    if not isinstance(rep, dict) or rep.get("n") != n:
        return f"report is not for n = {n}"
    checks = rep.get("checks")
    if not isinstance(checks, list) or [c.get("name") for c in checks] != [c[0] for c in CHECKS]:
        return f"n = {n}: check names differ from the registry"
    statuses = [c.get("status") for c in checks]
    for name, got, want in zip((c[0] for c in CHECKS), statuses, expected_statuses(n)):
        if got != want:
            return f"n = {n}: {name} is {got!r}, its residue class gives {want!r}"
    counts = {s: statuses.count(s) for s in ("pass", "fail", "skip")}
    if (rep.get("pass"), rep.get("fail"), rep.get("skip")) != (counts["pass"], counts["fail"], counts["skip"]):
        return f"n = {n}: summary counts disagree with the check list"
    return None


def _non_skipped(rep) -> int:
    return sum(1 for c in rep["checks"] if c["status"] != "skip")


def check_verify(report, n: int) -> tuple[str | None, int]:
    problem = _report_problem(report, n)
    return problem, 0 if problem else _non_skipped(report)


def check_sweep(body, n_min: int, n_max: int) -> tuple[str | None, int]:
    if not isinstance(body, dict) or (body.get("n_min"), body.get("n_max")) != (n_min, n_max):
        return f"sweep body is not for {n_min}..{n_max}", 0
    reports = body.get("reports")
    if not isinstance(reports, list) or len(reports) != n_max - n_min + 1:
        return "sweep has the wrong number of reports", 0
    for n, rep in zip(range(n_min, n_max + 1), reports):
        problem = _report_problem(rep, n)
        if problem:
            return problem, 0
    totals = tuple(sum(r[k] for r in reports) for k in ("pass", "fail", "skip"))
    if (body.get("total_pass"), body.get("total_fail"), body.get("total_skip")) != totals:
        return "sweep totals disagree with the per-n reports", 0
    if body.get("first_failure") is not None:
        return "sweep names a first failure", 0
    return None, sum(_non_skipped(r) for r in reports)


# --- gen: the definitional eccentricity matrix -------------------------------


@lru_cache(maxsize=8)
def ecc_matrix_bfs(n: int, drop_rim_edge: bool = False) -> tuple[tuple[int, ...], ...]:
    """Eccentricity matrix of the wheel (hub 0, rim 1..n-1 in cycle order) by BFS.

    With drop_rim_edge the rim edge between vertices 1 and n-1 is removed.
    """
    adj = [set() for _ in range(n)]
    edges = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    if not drop_rim_edge:
        edges.append((1, n - 1))
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    dist = []
    for s in range(n):
        d = [-1] * n
        d[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if d[w] < 0:
                    d[w] = d[v] + 1
                    queue.append(w)
        dist.append(d)
    ecc = [max(row) for row in dist]
    return tuple(
        tuple(dist[i][j] if i != j and dist[i][j] == min(ecc[i], ecc[j]) else 0 for j in range(n))
        for i in range(n)
    )


def _parse_rational(s: str) -> tuple[int, int]:
    """Canonical "p/q" (q > 1, reduced, sign on p) or "p", as (p, q)."""
    num, slash, den = s.partition("/")
    p, q = int(num), int(den) if slash else 1
    if str(p) != num or (slash and (str(q) != den or q <= 1)) or math.gcd(p, q) != 1:
        raise ValueError(f"non-canonical rational {s!r}")
    return p, q


def _cells(text: str, fmt: str, is_vector: bool) -> list[list[str]]:
    text = text[:-1] if text.endswith("\n") else text
    if fmt == "json":
        value = json.loads(text)
        return [value] if is_vector else value
    lines = text.split("\n")
    if fmt == "csv":
        return [line.split(",") for line in lines]
    open_, close = ("(", ")") if is_vector else ("[", "]")
    if not all(line.startswith(open_) and line.endswith(close) for line in lines):
        raise ValueError("pretty rows are not bracketed")
    return [line[1:-1].split() for line in lines]


def parse_scaled(text: str, fmt: str, n: int, is_vector: bool) -> tuple[list[list[int]], int]:
    """Parse an n x n matrix (or a length-n vector, as one row) into integers over D."""
    rows = [[_parse_rational(s) for s in row] for row in _cells(text, fmt, is_vector)]
    shape = (1, n) if is_vector else (n, n)
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise ValueError(f"expected shape {shape[0]}x{shape[1]}")
    den = math.lcm(*(q for row in rows for _, q in row))
    return [[p * (den // q) for p, q in row] for row in rows], den


def _mv(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _judge_scaled(kind: str, n: int, m: list[list[int]], den: int, rng: random.Random) -> str | None:
    if kind in ("E", "E_minus_edge"):
        want = ecc_matrix_bfs(n, kind == "E_minus_edge")
        if den != 1 or any(tuple(r) != w for r, w in zip(m, want)):
            return f"{kind} differs from the BFS eccentricity matrix"
        return None
    if kind in ("Ltilde", "Lhat"):
        if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
            return f"{kind} is not symmetric"
        if any(sum(row) != 0 for row in m):
            return f"{kind} has a nonzero row sum"
        return None
    e = ecc_matrix_bfs(n)
    if kind == "w":
        (w,) = m
        if sum(w) != den:
            return "w does not sum to 1"
        if any(6 * x != (n - 1) * den for x in _mv(e, w)):
            return "E w != ((n-1)/6) e"
        return None
    et, mt = _transpose(e), _transpose(m)
    for _ in range(FREIVALDS_TRIALS):
        v = [rng.randrange(1, 1 << 31) for _ in range(n)]
        if kind == "inverse":
            if _mv(e, _mv(m, v)) != [den * x for x in v]:
                return "Freivalds: E X v != v"
            continue
        ev, xv = _mv(e, v), _mv(m, v)
        if _mv(e, _mv(m, ev)) != [den * x for x in ev]:
            return "Freivalds: E X E v != E v"
        if _mv(m, _mv(e, xv)) != [den * x for x in xv]:
            return "Freivalds: X E X v != X v"
        if _mv(e, xv) != _mv(mt, _mv(et, v)):
            return "Freivalds: E X is not symmetric"
        if _mv(m, ev) != _mv(et, _mv(mt, v)):
            return "Freivalds: X E is not symmetric"
    return None


def check_gen(text: str, kind: str, n: int, fmt: str, rng: random.Random) -> tuple[str | None, int]:
    is_vector = kind == "w"
    try:
        m, den = parse_scaled(text, fmt, n, is_vector)
    except ValueError as exc:
        return f"{kind} {n} {fmt}: unparseable ({exc})", 0
    problem = _judge_scaled(kind, n, m, den, rng)
    return problem, 0 if problem else (n if is_vector else n * n)


# --- dispatch ------------------------------------------------------------------


def check_output(argv: list[str], text: str, rng: random.Random) -> tuple[str | None, int]:
    """Judge the stdout of one successful (exit code 0) CLI operation."""
    verb = argv[0]
    try:
        if verb == "verify":
            return check_verify(json.loads(text), int(argv[1]))
        if verb == "sweep":
            return check_sweep(json.loads(text), int(argv[1]), int(argv[2]))
    except json.JSONDecodeError as exc:
        return f"{verb}: stdout is not JSON ({exc})", 0
    return check_gen(text, argv[1], int(argv[2]), argv[argv.index("--format") + 1], rng)


def negative_control(argv: list[str], text: str, rng: random.Random) -> bool:
    """Corrupt one seeded entry of the output; True when the checker rejects it."""
    verb = argv[0]
    if verb in ("verify", "sweep"):
        body = copy.deepcopy(json.loads(text))
        reports = body["reports"] if verb == "sweep" else [body]
        check = rng.choice(rng.choice(reports)["checks"])
        check["status"] = "skip" if check["status"] == "pass" else "pass"
        if verb == "verify":
            return check_verify(body, int(argv[1]))[0] is not None
        return check_sweep(body, int(argv[1]), int(argv[2]))[0] is not None
    kind, n, fmt = argv[1], int(argv[2]), argv[argv.index("--format") + 1]
    m, den = parse_scaled(text, fmt, n, kind == "w")
    row = rng.randrange(len(m))
    m[row][rng.randrange(len(m[row]))] += 1
    return _judge_scaled(kind, n, m, den, rng) is not None
