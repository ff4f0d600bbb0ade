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
