"""Checks on the library source itself."""

import ast
import collections
import pathlib
import sys

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


def _imported_names(tree):
    """(name, line) of every name an import statement binds; a
    ``__future__`` import binds none."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                found.append((name, node.lineno))
    return found


def test_modules_use_every_name_they_import():
    # __init__ imports to re-export; the next test covers it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in _imported_names(tree) if name not in used]
    assert found == []


def test_init_imports_only_listed_names():
    path = SRC / "__init__.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(name for name, _ in _imported_names(tree)
                  if name not in pseudoarcs.__all__) == []


def test_randomness_is_seeded_and_local():
    # a verdict and its work counts must not depend on process-wide random
    # state: no module-level random functions, only Random instances
    # built with a seed
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += ["%s:%d import %s" % (path.name, node.lineno, a.name)
                          for a in node.names if a.name == "random"]
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                found += ["%s:%d %s" % (path.name, node.lineno, a.name)
                          for a in node.names if a.name != "Random"]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "Random" and not node.args):
                found.append("%s:%d unseeded Random()" % (path.name, node.lineno))
    assert found == []


def _absolute_imports(tree):
    """(module, line) of every import that is not relative."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(m, node.lineno) for m in modules]
    return found


def _foreign_imports(tree):
    """(module, line) of every import of a module that is neither in the
    standard library nor the package itself; relative imports are the
    package's own."""
    allowed = set(sys.stdlib_module_names) | {"pseudoarcs"}
    return [(m, line) for m, line in _absolute_imports(tree)
            if m.split(".")[0] not in allowed]


def test_library_imports_only_the_standard_library():
    # the package has no runtime dependencies; a kernel that reaches for
    # numpy or another third-party module must not slip in
    assert _foreign_imports(ast.parse(
        "from __future__ import annotations\nimport numpy as np\n"
        "from numpy.linalg import det\nimport os.path\nfrom . import gf\n"
        "from pseudoarcs.gf import GF\n")) == [("numpy", 2), ("numpy.linalg", 3)]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, m) for m, line in _foreign_imports(tree)]
    assert found == []


def _importers(*modules):
    """(file, module) of every import in the library of one of
    ``modules`` or of a submodule of one."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, m) for m, _ in _absolute_imports(tree)
                  if m.split(".")[0] in modules]
    return found


def test_only_gf_imports_a_word_layout_module():
    # packed words have one layout, GF.word_ops; a second module that
    # reaches for struct or array is growing another
    assert _importers("struct", "array") == [("gf.py", "struct")]


def _characteristic_comparisons(tree):
    """Line of every comparison that reads a ``.p`` attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(n, ast.Attribute) and n.attr == "p"
                    for n in ast.walk(node))]


def test_codes_has_no_characteristic_fork():
    # codewords and the distance walk run one packed kernel in every
    # characteristic; a comparison on a .p in codes.py is a second path
    assert _characteristic_comparisons(ast.parse(
        "if top.p != 2:\n"
        "    x = f.p\n"
        "y = p < 3\n"
        "z = [w for w in ws if tow.base.p == w]\n")) == [1, 4]
    assert _characteristic_comparisons(ast.parse((SRC / "codes.py").read_text())) == []


def test_only_jsonio_imports_json():
    # one reader and one writer: a second module that parses or writes
    # JSON would skip the envelope checks or the deterministic layout
    assert {name for name, _ in _importers("json")} == {"jsonio.py"}


def test_no_module_imports_warnings():
    # a verdict is a return value or an exit status, and stderr carries
    # only errors; a warning would be a caveat that neither carries
    assert _importers("warnings") == []


# calls that build one subspace from one vector
ONE_MEMBER_BUILDERS = {"field_reduction", "field_reduction_ints", "element_through"}


def _looped_builders(tree):
    """(function, line) of every call building one subspace that a loop
    or a comprehension runs more than once: anything in it but the
    iterable it starts from.  A builder is ``Subspace.from_ints`` (or
    ``cls.from_ints`` in class ``Subspace``), or a function or method
    named in ``ONE_MEMBER_BUILDERS``."""
    found = []

    def builds_one(call, cls):
        f = call.func
        if isinstance(f, ast.Name):
            return f.id in ONE_MEMBER_BUILDERS
        if not isinstance(f, ast.Attribute):
            return False
        if f.attr in ONE_MEMBER_BUILDERS:
            return True
        return (f.attr == "from_ints" and isinstance(f.value, ast.Name)
                and (f.value.id == "Subspace" or (f.value.id, cls) == ("cls", "Subspace")))

    def visit(node, looped, cls, func):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func, looped = getattr(node, "name", func), False
        elif isinstance(node, ast.Call) and looped and builds_one(node, cls):
            found.append((func, node.lineno))
        once = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            once = node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            once = node.generators[0].iter
        for child in ast.iter_child_nodes(node):
            visit(child, looped or (once is not None and child is not once)
                  or isinstance(node, ast.While), cls, func)

    visit(tree, False, None, None)
    return found


def test_no_subspace_is_built_alone_in_a_loop():
    # a family goes through Subspace.family, from_entries or
    # field_reduction_family, one Gauss-Jordan over all its members; the
    # kernel's own fallback for a member that misses the predicted pivots
    # is the one loop allowed
    assert _looped_builders(ast.parse(
        "a = [Subspace.from_ints(f, n, m) for m in mats]\n"
        "b = Subspace.from_ints(f, n, [r for r in rows])\n"
        "for m in [Subspace.from_ints(f, n, rows)]:\n"
        "    g(AdditiveCode.from_ints(t, k, m, s))\n"
        "    while m:\n"
        "        m = Subspace.from_ints(f, n, m)\n"
        "def h():\n"
        "    return any(ok(Subspace.from_ints(f, n, m)) for m in mats)\n"
        "class Subspace:\n"
        "    def family(cls):\n"
        "        return [cls.from_ints(f, n, m) for m in mats]\n"
        "for v in vecs:\n"
        "    out.append(field_reduction(tow, v))\n"
        "c = [spread.element_through(y) for y in ys]\n"
        "d = all(projgeo.field_reduction_ints(tow, v) for v in vecs)\n"
        "e = [field_reduction_family(tow, r) for r in blocks]\n"
        "f = field_reduction(tow, [v for v in vec])\n")) == [
            (None, 1), (None, 6), ("h", 8), ("family", 11), (None, 13),
            (None, 14), (None, 15)]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, func) for func, _ in _looped_builders(tree)]
    assert found == [("projgeo.py", "from_entries")]


def _opened_in(tree):
    """(function, line) of every call of ``open`` or of an ``open``
    method, the function being the innermost one around it (None at
    module level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func = getattr(node, "name", func)
        elif isinstance(node, ast.Call):
            f = node.func
            if ((isinstance(f, ast.Name) and f.id == "open")
                    or (isinstance(f, ast.Attribute) and f.attr == "open")):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_cli_reads_and_writes_files_in_one_place_each():
    # documents are read by _read_doc, word and message files by
    # _read_lines, and primary output is written by _emit: a command
    # that opens a file itself has grown a second reader
    assert _opened_in(ast.parse(
        "open(p)\n"
        "def f(p):\n"
        "    with open(p) as fh:\n"
        "        return [g(x) for x in pathlib.Path(p).open()]\n"
        "def h(p):\n"
        "    def inner():\n"
        "        return io.open(p)\n"
        "    return fh.read(), opener(p)\n")) == [
            (None, 1), ("f", 3), ("f", 4), ("inner", 7)]
    tree = ast.parse((SRC / "cli.py").read_text())
    assert sorted(set(func for func, _ in _opened_in(tree))) == [
        "_emit", "_read_doc", "_read_lines"]


BENCH = SRC.parent.parent / "bench"


def _references(tree):
    """Every name a module mentions, keyed by the public top-level
    function or class it is mentioned in (None outside them): AST names,
    attribute names and imported names, not text."""
    refs = {}
    for stmt in tree.body:
        owner = None
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")):
            owner = stmt.name
        found = refs.setdefault(owner, set())
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.split(".")[-1])
    return refs


def test_unexported_names_have_a_caller():
    # a public function or class outside __all__ is kept only for the
    # library or the bench; one that only the tests call is dead code
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    refs = {path: _references(tree) for path, tree in trees.items()}
    exported = set(pseudoarcs.__all__)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in trees[path].body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_") or stmt.name in exported):
                continue
            if not any(stmt.name in names
                       for other, by_owner in refs.items()
                       for owner, names in by_owner.items()
                       if (other, owner) != (path, stmt.name)):
                found.append("%s %s" % (path.stem, stmt.name))
    assert found == []


# exports that no module of the library (outside __init__) or the bench
# calls, each kept on purpose; a new export needs a caller or a line here
UNCALLED_EXPORTS = {
    # oracles the tests check the int routines against
    "osc_basis", "osc_basis_infty", "lift_subspace", "fixture_code",
    "fixture_matrix",
    # the Desarguesian family and its quadric system, not yet built or
    # verified by a command
    "canonical_spread", "contained_in_spread", "build_desarguesian_arc",
    "nrc_quadric_system",
    # the coefficient layout of every QuadraticForm, which the tests read
    "monomial_pairs",
    # the one-subspace forms; the library maps and reduces whole families
    # at once
    "apply_projectivity", "field_reduction",
}


def test_exports_have_a_caller_or_are_listed():
    # a mention inside the name's own definition does not count
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    used = set()
    for path in paths + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, names in _references(tree).items():
            used |= names - {owner}
    assert sorted(n for n in pseudoarcs.__all__ if n not in used) == sorted(UNCALLED_EXPORTS)


def _private_definitions(tree):
    """Each single-underscore module-level function, class or assigned
    name, and each such method of a module-level class, with the node
    that defines it."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if private(stmt.name):
                yield stmt.name, stmt
            if isinstance(stmt, ast.ClassDef):
                yield from ((m.name, m) for m in stmt.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and private(m.name))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            yield from ((t.id, stmt) for target in targets for t in ast.walk(target)
                        if isinstance(t, ast.Name) and private(t.id))


def _mentions(node):
    """The names a node mentions: loaded names, attributes and imports."""
    found = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[-1]] += 1
    return found


def test_private_names_have_a_caller():
    # a private helper, constant or method kept only for the tests is
    # dead code; a mention inside the name's own definition does not count
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    used = sum((_mentions(tree) for tree in trees.values()), collections.Counter())
    checked, found = 0, []
    for path in sorted(SRC.glob("*.py")):
        for name, node in _private_definitions(trees[path]):
            checked += 1
            if used[name] <= _mentions(node)[name]:
                found.append("%s %s" % (path.stem, name))
    assert checked and found == []
