"""Import layering of the package, read from the source with `ast`.

The dual-route rule says a closed form is never checked against itself or a
route derived from it.  These tests make the parts of that rule that show in
the imports mechanical: the oracles and the graph ground truth depend on the
scalar/matrix substrate `ratq` alone, the closed forms depend on no oracle,
the definitional eccentricity matrices of the check registry come from
`graphs` calls only, and the oracle-only report at n = 4 reads no closed
form.  The modules are parsed, never imported.
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


@pytest.mark.parametrize("module", ["oracle", "graphs"])
def test_oracle_layers_import_only_ratq(module):
    assert package_imports(_tree(module)) == {"ratq"}


def test_closed_forms_import_no_oracle():
    assert package_imports(_tree("closedform")).isdisjoint({"oracle", "graphs", "checks"})


def _function(body: list[ast.stmt], name: str) -> ast.FunctionDef:
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_n4_report_reads_no_closed_form():
    report = _function(_tree("checks").body, "_oracle_only_report")
    reads = {
        node.attr for node in ast.walk(report)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cf"
    }
    assert reads == set()


def _context_property(name: str) -> ast.FunctionDef:
    context = next(
        node for node in _tree("checks").body
        if isinstance(node, ast.ClassDef) and node.name == "VerifyContext"
    )
    return _function(context.body, name)


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
