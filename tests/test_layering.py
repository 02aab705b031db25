"""Import layering of the package, read from the source with `ast`.

The dual-route rule says a closed form is never checked against itself or a
route derived from it.  These tests make the parts of that rule that show in
the imports mechanical: the oracles, the graph ground truth and the
circulant algebra depend on the scalar/matrix substrate `ratq` alone, no
circulant function states anything of the wheel order n, only the one guard
of `closedform` raises its residue-class error, every other statement of n
calls a guard, the closed forms depend on no oracle, each registry row names
a `closedform` Case and the registry takes no residue of n itself, the
definitional eccentricity matrices of the check registry come from `graphs`
calls only, the closed forms of E reach the registry only through the two
checks that compare them with those, every check but a listed few takes the
paper's side from `closedform`, the oracle-only report at n = 4 reads no
closed form, and only `VerifyContext` properties run an elimination on a BFS
matrix.  The modules are parsed, never imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = "wheelecc"
SRC = Path(__file__).resolve().parents[1] / "src" / PACKAGE


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules imported in `tree`, by their short names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != PACKAGE:
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # `from . import x`: the names are modules
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_package_imports_reads_every_import_form():
    tree = ast.parse(
        "from . import closedform as cf\nfrom .ratq import MatrixQ\n"
        "from wheelecc.graphs import build_wheel\nimport wheelecc.oracle\nimport math\n"
        "from fractions import Fraction\n"
    )
    assert package_imports(tree) == {"closedform", "ratq", "graphs", "oracle"}


@pytest.mark.parametrize("module", ["oracle", "graphs", "circulant"])
def test_oracle_layers_import_only_ratq(module):
    assert package_imports(_tree(module)) == {"ratq"}


def test_circulant_states_nothing_of_the_wheel():
    """No circulant function takes the wheel order n or raises ResidueClassError."""
    tree = _tree("circulant")
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    takes_n = [
        fn.name for fn in functions
        if "n" in {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    ]
    raises = [
        fn.name for fn in functions for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and "ResidueClassError" in ast.unparse(node)
    ]
    assert takes_n == [] and raises == []


def test_closedform_raises_residue_class_error_only_in_its_guard():
    """Each case rule is stated once: the builders call `_require_case`, which alone raises."""
    tree = _tree("closedform")
    raisers = sorted(
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Raise) and "ResidueClassError" in ast.unparse(node)
    )
    assert raisers == ["_require_case"]
    # and none outside a function
    assert not any(
        isinstance(node, ast.Raise) for top in tree.body
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) for node in ast.walk(top)
    )


# Statements of n with a bound of their own: E from n = 4, B and det B from n = 2.
OWN_BOUND = {"ecc_matrix_wheel", "bordered_B", "det_B_closed"}
GUARDS = {"_require", "_require_case"}


def test_every_statement_of_n_calls_a_guard():
    """Each public statement that takes the wheel order n states its domain through a guard."""
    unguarded = sorted(
        fn.name for fn in _tree("closedform").body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and "n" in {a.arg for a in fn.args.args}
        and not any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in GUARDS
            for node in ast.walk(fn)
        )
    )
    assert unguarded == sorted(OWN_BOUND)


def _case_constants() -> set[str]:
    """The module-level names `closedform` binds to a `Case(...)`."""
    return {
        target.id for node in _tree("closedform").body if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "Case"
        for target in node.targets
    }


def test_every_registry_row_names_a_case_of_closedform():
    """No row states a residue class or a least n of its own."""
    constants = _case_constants()
    assert {"INVERTIBLE", "SINGULAR", "WHEEL", "INTERLACING", "RANK_CERTIFICATE"} <= constants
    for row in _registry(_tree("checks")).value.elts:
        assert len(row.args) == 3 and not row.keywords, ast.unparse(row)
        case = row.args[1]
        assert isinstance(case, ast.Name) and case.id in constants, ast.unparse(row)


def test_check_states_no_domain_of_its_own():
    check = next(
        node for node in _tree("checks").body
        if isinstance(node, ast.ClassDef) and node.name == "Check"
    )
    assert not any(isinstance(node, (ast.Compare, ast.FunctionDef)) for node in ast.walk(check))


def _mod3_of_n(tree: ast.AST) -> list[str]:
    """Each `<n> % 3` in tree whose left side is `n` or an `.n` attribute."""
    return [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and isinstance(node.right, ast.Constant) and node.right.value == 3
        and (
            (isinstance(node.left, ast.Name) and node.left.id == "n")
            or (isinstance(node.left, ast.Attribute) and node.left.attr == "n")
        )
    ]


def test_registry_takes_no_residue_of_n():
    """Where a check runs, and which object it reads, the registry asks a `closedform` Case."""
    assert _mod3_of_n(_tree("checks")) == []


def test_residue_finder_sees_n_and_its_attributes_but_not_an_index():
    tree = ast.parse("a = n % 3\nb = ctx.n % 3 == 1\nc = g[i % 3]\nd = (ctx.n - 1) // 3\n")
    assert _mod3_of_n(tree) == ["n % 3", "ctx.n % 3"]


def test_closed_forms_import_no_oracle():
    assert package_imports(_tree("closedform")).isdisjoint({"oracle", "graphs", "checks"})


def _function(body: list[ast.stmt], name: str) -> ast.FunctionDef:
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)


def _cf_reads(scope: ast.AST) -> set[str]:
    """The `cf.<name>` attributes read in scope."""
    return {
        node.attr for node in ast.walk(scope)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cf"
    }


def test_n4_report_reads_no_closed_form():
    assert _cf_reads(_function(_tree("checks").body, "_oracle_only_report")) == set()


def _registry(tree: ast.Module) -> ast.AnnAssign:
    return next(
        node for node in tree.body
        if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "CHECKS"
    )


def _registry_rows(tree: ast.Module) -> dict[str, ast.AST]:
    """Check name -> the runner of its `CHECKS` row: a lambda, or the function the row names."""
    rows = {}
    for row in _registry(tree).value.elts:
        name, _, runner = row.args[:3]
        if isinstance(runner, ast.Name):
            runner = _function(tree.body, runner.id)
        rows[name.value] = runner
    return rows


def test_registry_rows_are_read_one_per_check():
    tree = _tree("checks")
    rows = _registry_rows(tree)
    assert len(rows) == len(_registry(tree).value.elts) == 40
    assert _cf_reads(rows["det_thm_3_4"]) == {"det_E_closed"}
    assert _cf_reads(rows["rank_cert_lem_6_9"]) == {"rank_certificate", "rank_L_closed"}


# The checks whose paper side is no `closedform` statement, each with the reason.
NO_CLOSED_FORM = {
    "irreducible_prop_2_3": "the paper's side is a plain yes",
    "circ_symmetry": "general circulant algebra on ctx.block",
    "circ_props_2_1_2_3": "general circulant algebra on ctx.u_circ and ctx.block",
    "inverse_thm_5_8": "the paper's side is ctx.X, the inverse formula",
    "pinv_thm_6_6": "the paper's side is ctx.X, the pseudoinverse formula",
    "laplike_Ltilde": "the paper's side is ctx.L",
    "laplike_Lhat": "the paper's side is ctx.L",
}


def test_every_check_reads_the_papers_side_from_closedform():
    """So a `closedform` mutant can reach every check that compares against a value of the paper."""
    rows = _registry_rows(_tree("checks"))
    assert {name for name, runner in rows.items() if not _cf_reads(runner)} == set(NO_CLOSED_FORM)


def _context() -> ast.ClassDef:
    return next(
        node for node in _tree("checks").body
        if isinstance(node, ast.ClassDef) and node.name == "VerifyContext"
    )


def _context_property(name: str) -> ast.FunctionDef:
    return _function(_context().body, name)


@pytest.mark.parametrize("name", ["E_def", "E_me_def"])
def test_definitional_E_is_built_from_graphs_alone(name):
    prop = _context_property(name)
    calls = [node.func for node in ast.walk(prop) if isinstance(node, ast.Call)]
    assert calls
    for func in calls:
        assert isinstance(func, ast.Attribute), ast.unparse(func)
        assert isinstance(func.value, ast.Name) and func.value.id == "graphs", ast.unparse(func)
    # of the context it reads n only, never a closed form cached beside it
    reads = {
        node.attr for node in ast.walk(prop)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    assert reads == {"n"}


CLOSED_FORM_E = {
    "ecc_matrix_wheel": "ecc_blockform_eq_2_5",
    "ecc_matrix_wheel_minus_edge": "ecc_minus_edge_sec_4",
}


def test_closed_form_E_is_read_only_by_its_compare_check():
    tree = _tree("checks")
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported.isdisjoint(CLOSED_FORM_E)
    # a read inside a registry row counts by check name, anywhere else by top-level name
    rows = _registry_rows(tree)
    scopes = list(rows.items()) + [
        (getattr(top, "name", ast.unparse(top)[:40]), top)
        for top in tree.body if top is not _registry(tree) and top not in rows.values()
    ]
    readers = sorted(
        (node.attr, where)
        for where, scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Attribute) and node.attr in CLOSED_FORM_E
    )
    assert readers == sorted(CLOSED_FORM_E.items())


def test_no_context_property_builds_a_closed_form_E():
    reads = {node.attr for node in ast.walk(_context()) if isinstance(node, ast.Attribute)}
    assert reads.isdisjoint(CLOSED_FORM_E)


ELIMINATIONS = {"bareiss_det", "rank_exact", "eliminate", "inertia_exact"}
BFS_MATRICES = {"E_def", "E_me_def"}


def _eliminations_of_bfs(scope: ast.AST) -> list[tuple[str, str]]:
    """(oracle, BFS matrix) for each elimination in scope whose arguments read one.

    A local name assigned from an expression that reads a BFS matrix counts
    as that matrix.
    """
    def reads(expr, aliases):
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and node.attr in BFS_MATRICES:
                yield node.attr
            elif isinstance(node, ast.Name) and node.id in aliases:
                yield aliases[node.id]

    aliases = {
        target.id: matrix
        for node in ast.walk(scope) if isinstance(node, ast.Assign)
        for matrix in reads(node.value, {})
        for target in node.targets if isinstance(target, ast.Name)
    }
    return sorted(
        (node.func.attr, matrix)
        for node in ast.walk(scope)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ELIMINATIONS
        for arg in node.args
        for matrix in reads(arg, aliases)
    )


def test_only_context_properties_reduce_a_bfs_matrix():
    context = _context()
    outside = [
        (top.name, found)
        for top in _tree("checks").body if getattr(top, "name", None) != context.name
        for found in _eliminations_of_bfs(top)
    ]
    assert outside == []
    assert _eliminations_of_bfs(context) == [
        ("eliminate", "E_def"), ("inertia_exact", "E_def"), ("inertia_exact", "E_me_def"),
    ]


def test_bfs_elimination_finder_sees_calls_and_aliases():
    tree = ast.parse(
        "def f(ctx):\n    e = ctx.E_def\n    oracle.bareiss_det(e)\n"
        "    oracle.rank_exact(ctx.E_me_def)\n    oracle.rank_exact(ctx.L)\n"
    )
    assert _eliminations_of_bfs(tree) == [("bareiss_det", "E_def"), ("rank_exact", "E_me_def")]
