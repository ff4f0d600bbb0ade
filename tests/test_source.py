"""Checks on the library source itself."""

import ast
import pathlib

import pseudoarcs

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pseudoarcs"


def test_library_has_no_assert_statements():
    # python -O strips assert statements; an invariant behind a verdict
    # must raise InvariantError (or another exception) instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_all_names_are_defined_and_listed_once():
    names = pseudoarcs.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(pseudoarcs, n)] == []


def test_except_exception_only_in_cli_main():
    # a broad handler belongs at the one boundary that reports every
    # failure; anywhere else it turns a bug into a wrong message
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                    if "Exception" in names:
                        found.append((path.name, func.name))
    assert sorted(set(found)) == [("cli.py", "main")]
